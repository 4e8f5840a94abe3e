import numpy as np
import pytest

from jacobispec import classify, models, recurrence
from jacobispec.errors import InvalidInputError

from oracles import direct_recurrence


def test_cesaro_free_in_band_flat(free1):
    prof = classify.cesaro_profile(free1, 0.0, l_grid=(256, 512, 1024, 2048))
    assert abs(prof.slopes[0]) <= 0.1
    assert not prof.overflow[0]


def test_cesaro_free_out_of_band_explodes(free1):
    prof = classify.cesaro_profile(free1, 3.0, l_grid=(256, 512, 1024, 2048))
    assert prof.overflow[0] or prof.slopes[0] >= 1.0


def test_cesaro_monotone_in_r(diag01, random_bounded2):
    for spec, x in ((diag01, -1.5), (diag01, 0.5), (random_bounded2, 0.8)):
        prof = classify.cesaro_profile(spec, x, l_grid=(256, 512, 1024))
        # C_r is nondecreasing in r at every grid point
        assert np.all(np.diff(prof.log2_c, axis=1) >= -1e-9)


def test_cesaro_matches_direct_recursion(diag01):
    x = -1.5
    l_grid = (16, 32, 64)
    prof = classify.cesaro_profile(diag01, x, l_grid=l_grid)
    blocks_phi = direct_recurrence(diag01, x, 64, np.zeros((2, 2)), np.eye(2))
    blocks_psi = direct_recurrence(diag01, x, 64, np.eye(2), np.zeros((2, 2)))
    for gi, l_val in enumerate(l_grid):
        sums = np.zeros(2)
        for n in range(1, l_val + 1):
            s_phi = np.linalg.svd(blocks_phi[n], compute_uv=False)
            s_psi = np.linalg.svd(blocks_psi[n], compute_uv=False)
            for r in (1, 2):
                sums[r - 1] += s_phi[2 - r] ** 2 + s_psi[2 - r] ** 2
        for r in (1, 2):
            want = np.log2(sums[r - 1] / l_val)
            assert prof.log2_c[gi, r - 1] == pytest.approx(want, abs=1e-9)


def test_classify_multiplicity_rules(diag01):
    prof = classify.cesaro_profile(diag01, -1.5)
    r, low = classify.classify_multiplicity(prof)
    assert r == 1
    prof2 = classify.cesaro_profile(diag01, 0.5)
    assert classify.classify_multiplicity(prof2)[0] == 2
    # threshold monotonicity
    r_tight = classify.classify_multiplicity(prof, slope_threshold=0.05)[0]
    r_loose = classify.classify_multiplicity(prof, slope_threshold=0.4)[0]
    assert r_tight <= r_loose


def test_classify_synthetic_all_steep():
    prof = classify.CesaroProfile(
        x=0.0,
        dim=2,
        l_grid=(4, 8),
        log2_c=np.array([[1.0, 2.0], [3.0, 5.0]]),
        slopes=np.array([2.0, 3.0]),
        intercepts=np.zeros(2),
        overflow=np.array([False, False]),
    )
    assert classify.classify_multiplicity(prof) == (0, False)


def test_floquet_free_model(free1):
    res = classify.floquet_multiplicity(free1, 0.0)
    assert res.r_flo == 1 and not res.band_edge
    assert sorted(np.round(np.abs(res.eigenvalues), 12)) == [1.0, 1.0]
    out = classify.floquet_multiplicity(free1, 3.0)
    assert out.r_flo == 0
    lam = sorted(np.abs(out.eigenvalues))
    root = (3.0 + np.sqrt(5.0)) / 2.0
    assert lam[1] == pytest.approx(root, rel=1e-12)


def test_floquet_diagonal_bands(diag01):
    assert classify.floquet_multiplicity(diag01, -1.5).r_flo == 1
    assert classify.floquet_multiplicity(diag01, 0.5).r_flo == 2
    assert classify.floquet_multiplicity(diag01, 3.5).r_flo == 0


def test_floquet_requires_periodic(golden_amo):
    with pytest.raises(InvalidInputError):
        classify.floquet_multiplicity(golden_amo, 0.0)


def test_monodromy_preserves_symplectic_form(random_bounded2):
    l = random_bounded2.dim
    j_form = np.block([[np.zeros((l, l)), -np.eye(l)], [np.eye(l), np.zeros((l, l))]])
    for x in (-0.8, 0.3, 1.9):
        mono, exp2 = recurrence.cocycle_product(random_bounded2, x, random_bounded2.period + 1)
        assert exp2 == 0
        defect = mono.T @ j_form @ mono - j_form
        assert np.sqrt(np.sum(defect**2)) <= 1e-9 * max(1.0, np.sum(mono**2))


def test_floquet_grid_matches_single_points(random_bounded2):
    xs = np.linspace(-3.5, 3.5, 256)
    r_flo, edge, _, _ = classify.floquet_grid(random_bounded2, xs)
    single = [classify.floquet_multiplicity(random_bounded2, x) for x in xs]
    assert r_flo.tolist() == [s.r_flo for s in single]
    assert edge.tolist() == [s.band_edge for s in single]
    assert len(set(r_flo.tolist())) > 1  # the grid crosses band edges


def test_band_edges_found(diag01):
    edges = classify.floquet_band_edges(diag01, -3.5, 3.5, coarse=512)
    assert np.allclose(sorted(edges), [-2.0, -1.0, 2.0, 3.0], atol=1e-6)


def test_scan_three_point_grid(free1):
    params = classify.ScanParams(l_grid=(256, 512, 1024, 2048), with_rank=True)
    records = classify.scan_energy_grid(free1, [-3.0, 0.0, 3.0], params)
    assert [r.r_ces for r in records] == [0, 1, 0]
    assert [r.r_flo for r in records] == [0, 1, 0]
    assert [r.r_rank for r in records] == [0, 1, 0]


def test_scan_empty_grid(free1):
    assert classify.scan_energy_grid(free1, []) == []


def test_scan_survives_poisoned_point(free1, monkeypatch):
    params = classify.ScanParams(l_grid=(64, 128), with_rank=False)
    original = classify.cesaro_profiles_grid

    def sabotaged(spec, xs, l_grid):
        if np.any(np.isclose(xs, 0.5)) and len(np.atleast_1d(xs)) == 1:
            raise RuntimeError("synthetic failure")
        if np.any(np.isclose(xs, 0.5)):
            raise RuntimeError("chunk failure")
        return original(spec, xs, l_grid)

    monkeypatch.setattr(classify, "cesaro_profiles_grid", sabotaged)
    records = classify.scan_energy_grid(free1, [0.0, 0.5, 1.0], params)
    assert len(records) == 3
    assert records[1].error != "" and "error" in records[1].flags
    assert records[0].error == "" and records[2].error == ""


def test_constancy_disguised_periodic():
    # rational rotation with arc-aligned sampling: phases 0 and 1/(2q) land
    # in the same arcs, so the coefficient sequences are literally identical
    q = 4
    f_d = models.ConstantMap(np.eye(1))
    f_v = models.PiecewiseArcMap(
        (0.25, 0.5, 0.75, 1.0),
        (0.8 * np.eye(1), np.zeros((1, 1)), -0.8 * np.eye(1), np.zeros((1, 1))),
    )
    spec = models.DynamicalSpec((1.0 / q,), (0.0,), f_d, f_v)
    xs = np.linspace(-2.5, 2.5, 21)
    params = classify.ScanParams(l_grid=(256, 512, 1024))
    rep = classify.constancy_experiment(spec, [[0.0], [1.0 / (2 * q)]], xs, params)
    stats = rep.pairwise[(0, 1)]
    assert stats["agreement"] == 1.0


def test_constancy_same_phase_exact(golden_amo):
    xs = np.linspace(-2.4, 2.4, 13)
    params = classify.ScanParams(l_grid=(256, 512, 1024))
    rep = classify.constancy_experiment(golden_amo, [[0.3], [0.3]], xs, params)
    stats = rep.pairwise[(0, 1)]
    assert stats["agreement"] == 1.0
    a, b = rep.classifications
    assert np.array_equal(a.full_multiplicity, b.full_multiplicity)


def test_constancy_needs_two_phases(golden_amo):
    with pytest.raises(InvalidInputError):
        classify.constancy_experiment(golden_amo, [[0.1]], np.array([0.0]))
