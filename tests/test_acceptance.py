"""Acceptance suite: every criterion at its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import time

import numpy as np
import pytest
import yaml

from jacobispec import classify, cli, matblock, models, recurrence, truncnorm, weyl

from test_recurrence import pick_bounded_energies


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def m_free_exact(z):
    z = complex(z)
    r = np.sqrt(z * z - 4.0)
    for cand in ((-z + r) / 2.0, (-z - r) / 2.0):
        if cand.imag > 0:
            return cand
    raise AssertionError


def fro(a):
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


@pytest.fixture(scope="module")
def band_scan(diag01):
    """Shared 512-point scan of the diag(0,1) model (criteria 7 and 8)."""
    xs = np.linspace(-3.5, 3.5, 512)
    started = time.monotonic()
    params = classify.ScanParams(with_rank=True)
    records = classify.scan_energy_grid(diag01, xs, params)
    elapsed = time.monotonic() - started
    edges = classify.floquet_band_edges(diag01, -3.5, 3.5)
    return xs, records, edges, elapsed


def test_criterion_01_scalar_free_m_function(free1):
    started = time.monotonic()
    xs = np.linspace(-3.0, 3.0, 25)
    worst = 0.0
    for i, x in enumerate(xs):
        y = 1e-1 if i % 2 == 0 else 1e-2
        z = complex(x, y)
        exact = m_free_exact(z)
        ric = weyl.m_riccati(free1, z, tol=1e-9)
        res = weyl.m_resolvent(free1, z, tol=1e-9)
        worst = max(worst, abs(ric.m[0, 0] - exact), abs(res.m[0, 0] - exact))
    elapsed = time.monotonic() - started
    _report(
        1,
        worst <= 1e-7 and elapsed < 5.0,
        f"free-model m vs closed form, max err {worst:.2e} (tol 1e-7), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_method_agreement(random_bounded2):
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        x = float(rng.uniform(-3, 3))
        y = float(np.exp(rng.uniform(np.log(1e-2), 0.0)))
        ric = weyl.m_riccati(random_bounded2, complex(x, y), tol=1e-9)
        res = weyl.m_resolvent(random_bounded2, complex(x, y), tol=1e-9)
        worst = max(worst, fro(ric.m - res.m))
    elapsed = time.monotonic() - started
    _report(
        2,
        worst <= 1e-7 and elapsed < 60.0,
        f"riccati vs resolvent on 100 random points, max gap {worst:.2e} (tol 1e-7), "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_03_bound_sweep(free2, random_bounded2):
    started = time.monotonic()
    rng = np.random.default_rng(102)
    violations = 0
    checked = 0
    for spec in (free2, random_bounded2):
        for _ in range(100):
            x = float(rng.uniform(-3, 3))
            y = float(np.exp(rng.uniform(np.log(1e-2), 0.0)))
            rep = weyl.jl_bounds(spec, x, y, slack=1e-9)
            if rep.verdict is None:
                continue
            checked += 1
            if not rep.verdict:
                violations += 1
    elapsed = time.monotonic() - started
    _report(
        3,
        violations == 0 and checked >= 195 and elapsed < 120.0,
        f"norm bounds held at {checked - violations}/{checked} random points "
        f"(0 violations beyond 1e-9 slack), {elapsed:.1f}s (< 120s)",
    )


def test_criterion_04_herglotz_identity(free2, random_bounded2):
    rng = np.random.default_rng(103)
    worst = 0.0
    for spec in (free2, random_bounded2):
        for _ in range(10):
            z = complex(float(rng.uniform(-2.5, 2.5)), 1e-1)
            worst = max(worst, weyl.herglotz_identity_residual(spec, z))
    _report(
        4,
        worst <= 1e-6,
        f"imaginary-part summation identity, max rel residual {worst:.2e} (tol 1e-6) "
        f"at 20 points, y = 1e-1",
    )


def test_criterion_05_halfplane_identity(free1, diag01):
    x, y = 0.3, 0.1
    z = complex(x, y)
    worst = 0.0
    for spec in (free1, diag01):
        phi_x, psi_x = recurrence.dirichlet_neumann(spec, x, 60)
        m_val = weyl.m_riccati(spec, z, tol=1e-13)
        phi_z, psi_z = recurrence.dirichlet_neumann(spec, z, 60)
        f_track = recurrence.jost_assemble(phi_z, psi_z, m_val.m)
        worst = max(
            worst,
            recurrence.jl_identity_residual(phi_x, psi_x, f_track, m_val.m, y, 50),
        )
    _report(
        5,
        worst <= 1e-8,
        f"four-term solution identity to n = 50 at (0.3, 0.1), "
        f"max rel residual {worst:.2e} (tol 1e-8)",
    )


def test_criterion_06_wronskian_constancy(free1, free2, diag01, random_bounded2):
    specs = {
        "free l=1": (free1, np.linspace(-1.8, 1.8, 41)),
        "free l=2": (free2, np.linspace(-1.8, 1.8, 41)),
        "diag(0,1)": (diag01, np.linspace(-1.7, 2.7, 61)),
        "random bounded": (random_bounded2, np.linspace(-1.5, 1.5, 81)),
    }
    worst = 0.0
    for name, (spec, candidates) in specs.items():
        energies = pick_bounded_energies(spec, candidates, 1000, 10)
        assert len(energies) == 10, f"could not find 10 bounded energies for {name}"
        d0 = spec.coefficient_at(0)[0]
        scale = fro(d0)
        for x in energies:
            phi, psi = recurrence.dirichlet_neumann(spec, x, 1001)
            drift = max(
                fro(recurrence.wronskian(psi, phi, n) - d0) / scale
                for n in range(1, 1001, 7)
            )
            worst = max(worst, drift)
    _report(
        6,
        worst <= 1e-10,
        f"Wronskian drift over 10^3 steps at 10 energies x 4 models, "
        f"max rel drift {worst:.2e} (tol 1e-10)",
    )


def test_criterion_07_cesaro_vs_floquet(band_scan):
    xs, records, edges, elapsed = band_scan
    assert np.allclose(sorted(edges), [-2.0, -1.0, 2.0, 3.0], atol=1e-6)

    def expected_mult(x):
        if -1.0 < x < 2.0:
            return 2
        if -2.0 < x < -1.0 or 2.0 < x < 3.0:
            return 1
        return 0

    non_edge = [r for r in records if all(abs(r.x - e) > 0.05 for e in edges)]
    agree = sum(1 for r in non_edge if r.r_ces == r.r_flo)
    frac = agree / len(non_edge)
    bands_ok = all(r.r_flo == expected_mult(r.x) for r in non_edge)
    _report(
        7,
        frac >= 0.95 and bands_ok and elapsed < 300.0,
        f"Cesaro vs Floquet multiplicity on 512-point grid: {agree}/{len(non_edge)} "
        f"non-edge agreement ({frac:.3f} >= 0.95), band table reproduced, "
        f"{elapsed:.1f}s (< 300s)",
    )


def test_criterion_08_rank_estimator(band_scan):
    xs, records, edges, _ = band_scan
    non_edge = [
        r for r in records
        if all(abs(r.x - e) > 0.05 for e in edges) and r.r_rank is not None
    ]
    agree = sum(1 for r in non_edge if r.r_rank == r.r_flo)
    frac = agree / len(non_edge)
    _report(
        8,
        frac >= 0.90,
        f"boundary-rank estimator vs Floquet: {agree}/{len(non_edge)} non-edge "
        f"agreement ({frac:.3f} >= 0.90)",
    )


def test_criterion_09_phase_constancy(golden_amo):
    started = time.monotonic()
    rng = np.random.default_rng(104)
    phases = [rng.uniform(0.0, 1.0, 1).tolist(), rng.uniform(0.0, 1.0, 1).tolist()]
    xs = np.linspace(-2.75, 2.75, 256)
    report = classify.constancy_experiment(golden_amo, phases, xs)
    stats = report.pairwise[(0, 1)]
    elapsed = time.monotonic() - started
    odd = [
        int(np.sum(c.full_multiplicity % 2 == 1)) for c in report.classifications
    ]
    _report(
        9,
        stats["agreement"] >= 0.90 and elapsed < 600.0,
        f"even-multiplicity sets across two random phases: agreement "
        f"{stats['agreement']:.3f} (>= 0.90) over {stats['n_joint_determinate']} "
        f"determinate points, odd-count {odd}, {elapsed:.1f}s (< 600s)",
    )


def test_criterion_10_singular_value_property_suite():
    started = time.monotonic()
    rng = np.random.default_rng(105)
    slack = 1e-10
    trials = 1000
    failures = []
    for l in (1, 2, 3, 4):
        a = rng.normal(size=(trials, l, l)) + 1j * rng.normal(size=(trials, l, l))
        b = rng.normal(size=(trials, l, l)) + 1j * rng.normal(size=(trials, l, l))
        sa = np.linalg.svd(a, compute_uv=False)
        sb = np.linalg.svd(b, compute_uv=False)
        # norm identities
        op = np.array([matblock.operator_norm(m) for m in a[:50]])
        if not np.all(np.abs(op - sa[:50, 0]) <= slack):
            failures.append(f"l={l}: operator norm != s_1")
        fro_all = np.sqrt(np.sum(np.abs(a) ** 2, axis=(1, 2)))
        if not np.all(np.abs(fro_all - np.sqrt(np.sum(sa**2, axis=1))) <= slack * np.maximum(fro_all, 1)):
            failures.append(f"l={l}: Frobenius norm != sqrt(sum s_k^2)")
        # (a) Loewner order
        a_psd = np.einsum("nji,njk->nik", a.conj(), a)
        incr = np.einsum("nji,njk->nik", b.conj(), b)
        s_small = np.linalg.svd(a_psd, compute_uv=False)
        s_big = np.linalg.svd(a_psd + incr, compute_uv=False)
        if not np.all(s_small <= s_big + slack):
            failures.append(f"l={l}: (a) order violated")
        # (b) Weyl sums
        sab_sum = np.linalg.svd(a + b, compute_uv=False)
        for k in range(1, l + 1):
            for m in range(1, l + 2 - k):
                if not np.all(sab_sum[:, k + m - 2] <= sa[:, k - 1] + sb[:, m - 1] + slack):
                    failures.append(f"l={l}: (b) k={k} m={m}")
        # (c) product sums
        s_prod = np.linalg.svd(a @ b, compute_uv=False)
        rhs_terms = sa * sb[:, ::-1]
        for k in range(1, l + 1):
            lhs = np.sum(s_prod[:, :k], axis=1)
            rhs = np.sum(rhs_terms[:, :k], axis=1)
            if not np.all(lhs >= rhs - slack):
                failures.append(f"l={l}: (c) k={k}")
        # (d) two-sided product bounds (k = 1 lower form plus Horn upper)
        for m in range(1, l + 1):
            if not np.all(sa[:, -1] * sb[:, m - 1] <= s_prod[:, m - 1] + slack):
                failures.append(f"l={l}: (d) lower m={m}")
            if not np.all(s_prod[:, m - 1] <= sa[:, 0] * sb[:, m - 1] + slack):
                failures.append(f"l={l}: (d) upper m={m}")
        for k in range(1, l + 1):
            for m in range(1, l + 2 - k):
                if not np.all(s_prod[:, k + m - 2] <= sa[:, k - 1] * sb[:, m - 1] + slack):
                    failures.append(f"l={l}: (d) Horn k={k} m={m}")
        # (e) minimax over sampled subspaces (PSD case)
        eigw, eigv = np.linalg.eigh(a_psd)
        s_psd = eigw[:, ::-1]
        for k in range(1, l + 1):
            if k == 1:
                probe = s_psd[:, 0]
                if not np.all(probe >= s_psd[:, 0] - slack):
                    failures.append(f"l={l}: (e) k=1")
                continue
            raw = rng.normal(size=(trials, l, l)) + 1j * rng.normal(size=(trials, l, l))
            raw[:, :, : k - 1] = rng.normal(size=(trials, l, k - 1))
            q, _ = np.linalg.qr(raw)
            w = q[:, :, k - 1 :]
            comp = np.einsum("nij,njk,nkl->nil", w.conj().transpose(0, 2, 1), a_psd, w)
            top = np.linalg.eigvalsh(comp)[:, -1]
            if not np.all(top >= s_psd[:, k - 1] - slack):
                failures.append(f"l={l}: (e) sampled k={k}")
            # the eigenvector subspace attains the minimax value
            w_opt = eigv[:, :, : l - k + 1]
            comp_opt = np.einsum(
                "nij,njk,nkl->nil", w_opt.conj().transpose(0, 2, 1), a_psd, w_opt
            )
            attained = np.linalg.eigvalsh(comp_opt)[:, -1]
            if not np.all(np.abs(attained - s_psd[:, k - 1]) <= slack * np.maximum(1, s_psd[:, k - 1])):
                failures.append(f"l={l}: (e) attainment k={k}")
    elapsed = time.monotonic() - started
    _report(
        10,
        not failures and elapsed < 30.0,
        f"singular-value inequality suite, 1000 pairs x l in 1..4, slack 1e-10, "
        f"{elapsed:.1f}s (< 30s)" + (f"; failures: {failures[:4]}" if failures else ""),
    )


def test_criterion_11_cutoff_solver(free1, random_bounded2):
    rng = np.random.default_rng(106)
    worst = 0.0
    mono_ok = True
    for spec in (free1, random_bounded2):
        for _ in range(25):
            x = float(rng.uniform(-2.5, 2.5))
            y = float(np.exp(rng.uniform(np.log(1e-2), 0.0)))
            sol = truncnorm.solve_l_of_y(spec, x, y)
            worst = max(worst, sol.residual)
            sol2 = truncnorm.solve_l_of_y(spec, x, 2.0 * y)
            mono_ok = mono_ok and sol2.l_value <= sol.l_value + 1e-12
    _report(
        11,
        worst <= 1e-10 and mono_ok,
        f"cutoff equation at 50 random points: max residual {worst:.2e} "
        f"(tol 1e-10), monotone in y: {mono_ok}",
    )


def test_criterion_12_deterministic_outputs(tmp_path):
    payload = {
        "model": {
            "kind": "periodic",
            "ds": [[[1.0, 0.0], [0.0, 1.0]]],
            "vs": [[[0.0, 0.0], [0.0, 1.0]]],
        },
        "task": "scan",
        "params": {
            "x_grid": {"start": -3.5, "stop": 3.5, "count": 17},
            "l_grid": [256, 512, 1024, 2048],
        },
        "seed": 11,
    }
    outs = []
    for tag in ("r1", "r2"):
        cfg_path = tmp_path / f"{tag}.yaml"
        cfg_path.write_text(
            yaml.safe_dump(dict(payload, output={"dir": str(tmp_path / tag)})),
            encoding="utf-8",
        )
        assert cli.main(["run", str(cfg_path)]) == 0
        outs.append((tmp_path / tag / "scan.csv").read_bytes())
    same = outs[0] == outs[1]
    _report(
        12,
        same,
        f"repeated run with identical config: CSV byte-identical = {same} "
        f"({len(outs[0])} bytes)",
    )
