import math
from fractions import Fraction

import numpy as np
import pytest

from jacobispec import classify, matblock, models, recurrence, scaling
from jacobispec.errors import ConvergenceError, InvalidInputError, TrackOverflowError

from oracles import cesaro_sums_reference, cesaro_sums_stepwise, direct_recurrence


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


def test_classify_multiplicity_rules(diag01, monkeypatch):
    prof, prof2 = classify.cesaro_profiles_grid(diag01, [-1.5, 0.5])
    r, low = classify.classify_multiplicity(prof)
    assert r == 1
    assert classify.classify_multiplicity(prof2)[0] == 2
    # threshold monotonicity
    monkeypatch.setattr(classify, "SLOPE_THRESHOLD", 0.05)
    r_tight = classify.classify_multiplicity(prof)[0]
    monkeypatch.setattr(classify, "SLOPE_THRESHOLD", 0.4)
    r_loose = classify.classify_multiplicity(prof)[0]
    assert r_tight <= r_loose


def test_classify_synthetic_all_steep():
    prof = classify.CesaroProfile(
        x=0.0,
        dim=2,
        l_grid=(4, 8),
        log2_c=np.array([[1.0, 2.0], [3.0, 5.0]]),
        slopes=np.array([2.0, 3.0]),
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


def test_floquet_flags_exact_band_edges(diag01):
    # at an exact edge the parabolic pair is 1e-16 off the circle and 1.5e-8
    # from +1 or -1: it counts as on the circle, and as an (anti)periodic
    # solution, which occurs only at a band edge, it raises the flag
    edges = [-2.0, -1.0, 2.0, 3.0]
    r_flo, edge, _, _ = classify.floquet_grid(diag01, edges)
    assert r_flo.tolist() == [1, 2, 2, 1] and edge.all()
    assert all(classify.floquet_multiplicity(diag01, x).band_edge for x in edges)
    assert not classify.floquet_grid(diag01, [-1.5, 0.5, 2.5])[1].any()


def test_floquet_grid_on_an_empty_grid(diag01):
    r_flo, edge, lam, exp2 = classify.floquet_grid(diag01, [])
    assert r_flo.shape == edge.shape == exp2.shape == (0,) and lam.shape == (0, 4)


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
    edges = classify.floquet_band_edges(diag01, -3.5, 3.5)
    assert np.allclose(sorted(edges), [-2.0, -1.0, 2.0, 3.0], atol=1e-6)


def test_scan_flags_band_edge_and_low_confidence(diag01):
    # 1e-12 past the edge x = 2 the first channel's pair moves 1.00004e-6
    # off the unit circle, inside the Floquet oracle's ambiguity window
    # [eps, 10 eps); at x = 3.002, just outside the second band, the first
    # Cesaro slope (0.33) lands in the gray zone (0.2, 0.4)
    records = classify.scan_energy_grid(diag01, [2.0 + 1e-12, 3.002, 0.5],
                                        classify.ScanParams(with_rank=False))
    edge, gray, inside = records
    assert (edge.r_flo, edge.flags) == (1, ["band-edge", "ces=flo"])
    assert 0.2 < gray.slopes[0] < 0.4 and gray.low_confidence
    assert (gray.r_ces, gray.flags) == (0, ["low-confidence", "ces=flo"])
    assert (inside.r_ces, inside.r_flo, inside.flags) == (2, 2, ["ces=flo"])


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
            raise ConvergenceError("synthetic failure")
        if np.any(np.isclose(xs, 0.5)):
            raise ConvergenceError("chunk failure")
        return original(spec, xs, l_grid)

    monkeypatch.setattr(classify, "cesaro_profiles_grid", sabotaged)
    records = classify.scan_energy_grid(free1, [0.0, 0.5, 1.0], params)
    assert len(records) == 3
    assert records[1].error != "" and "error" in records[1].flags
    assert records[0].error == "" and records[2].error == ""


def test_scan_halves_a_failing_chunk(free1, monkeypatch):
    # one poisoned energy in 64 is isolated by halving: 1 + 2 * log2(64) runs
    params = classify.ScanParams(l_grid=(64, 128), with_rank=False)
    xs = np.linspace(-1.5, 1.5, 64)
    bad = xs[37]
    real = classify._chunk_records
    calls = []

    def records(spec, chunk, params):
        calls.append(len(chunk))
        if bad in chunk:
            raise ConvergenceError("poisoned energy")
        return real(spec, chunk, params)

    monkeypatch.setattr(classify, "_chunk_records", records)
    rows = classify.scan_energy_grid(free1, xs, params)
    assert len(calls) <= 13
    assert [r.x for r in rows] == xs.tolist()
    assert [r.x for r in rows if r.error] == [bad]
    assert rows[37].error == "ConvergenceError: poisoned energy" and rows[37].flags == ["error"]
    assert all("error" not in r.flags for r in rows if r.x != bad)
    # each energy's sums do not depend on the batch it ran in
    clean = real(free1, xs, params)
    assert all((r.r_ces, r.slopes, r.flags) == (c.r_ces, c.slopes, c.flags)
               for r, c in zip(rows, clean) if r.x != bad)


def test_energy_beyond_float_range_is_an_error_row(diag01):
    # at x = 1e200 the blocks overflow within the 8 steps between rescale
    # checks; the kernel raises at the next check instead of summing inf
    params = classify.ScanParams(l_grid=(64, 128), with_rank=False)
    records = classify.scan_energy_grid(diag01, [0.5, 1e200], params)
    assert records[0].error == "" and records[0].r_ces == 2
    assert records[1].error.startswith("TrackOverflowError") and "error" in records[1].flags


def test_sums_beyond_float_range_before_first_rescale_check_are_an_error_row(diag01):
    # with L <= 8 the checkpoints come before the kernel's first rescale
    # check (after the step from n = 8); the sums there are no longer finite
    params = classify.ScanParams(l_grid=(4, 8), with_rank=False)
    records = classify.scan_energy_grid(diag01, [0.5, 1e200], params)
    assert records[1].error.startswith("TrackOverflowError") and records[1].r_ces == -1
    alone = classify.scan_energy_grid(diag01, [0.5], params)[0]
    assert records[0].r_ces == alone.r_ces == 2
    assert records[0].slopes == alone.slopes and records[0].flags == alone.flags


def test_scan_raises_programming_errors(free1, monkeypatch):
    def broken(spec, xs, l_grid):
        raise TypeError("not a numeric failure")

    monkeypatch.setattr(classify, "cesaro_profiles_grid", broken)
    params = classify.ScanParams(l_grid=(64, 128), with_rank=False)
    with pytest.raises(TypeError):
        classify.scan_energy_grid(free1, [0.0, 0.5], params)


@pytest.mark.parametrize("name, reflected", [("diag01", False), ("golden_amo", False), ("golden_amo", True)])
def test_cesaro_sums_match_reference_loop(name, reflected, request):
    spec = request.getfixturevalue(name)
    spec = models.reflect(spec) if reflected else spec
    xs = np.linspace(-3.5, 3.5, 29)  # in-band and gap energies alike
    l_grid = (16, 48, 160, 512)
    got = classify._cesaro_sums(spec, xs, l_grid)
    assert np.array_equal(got, cesaro_sums_reference(spec, xs, l_grid))


@pytest.mark.parametrize("name", ["random_bounded2", "wrap_alternating"])
def test_general_d_sums_match_reference_loop(name, request):
    # with D != I the kernel's written-out products and the reference's
    # stacked matmuls may round differently: the s_1 column agrees to 1e-12
    # and every verdict is the same, while the s_2 column may move where
    # s_2 / s_1 falls below machine epsilon and s_2 is rounding noise
    spec = request.getfixturevalue(name)
    xs = np.linspace(-3.5, 3.5, 29)
    l_grid = (16, 48, 160, 512)
    got = classify._cesaro_sums(spec, xs, l_grid)
    want = cesaro_sums_reference(spec, xs, l_grid)
    assert np.max(np.abs(got[..., 0] - want[..., 0])) <= 1e-12
    verdicts = [[classify.classify_multiplicity(p) for p in classify._fit_profiles(xs, c, l_grid, 2)]
                for c in (got, want)]
    assert verdicts[0] == verdicts[1]


def test_empty_energy_batch_takes_no_step(monkeypatch, golden_amo, diag01):
    def no_step(*args):
        raise AssertionError("stepped an empty batch")

    monkeypatch.setattr(recurrence, "forward", no_step)
    for spec, l in ((golden_amo, 1), ([diag01, diag01], 2)):
        assert classify._cesaro_sums(spec, [], (64, 128)).shape == (2, 0, l)
    assert classify.cesaro_profiles_grid(golden_amo, [], (64, 128)) == []
    with pytest.raises(InvalidInputError):
        classify._cesaro_sums(golden_amo, [], (64,))


def test_constancy_disguised_periodic():
    # rational rotation with arc-aligned sampling: phases 0 and 1/(2q) land
    # in the same arcs, so the coefficient sequences are literally identical
    q = 4
    f_d = models.CosinePolynomialMap(np.eye(1))
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
    rep = classify.constancy_experiment(golden_amo, np.array([[0.3], [0.3]]), xs, params)
    stats = rep.pairwise[(0, 1)]
    assert stats["agreement"] == 1.0
    a, b = rep.classifications
    assert np.array_equal(a.full_multiplicity, b.full_multiplicity)
    # phases come back as plain floats, so reports print them as numbers
    assert repr(rep.phases) == "[(0.3,), (0.3,)]" and repr(a.phase) == "(0.3,)"


def test_constancy_needs_two_phases(golden_amo):
    with pytest.raises(InvalidInputError):
        classify.constancy_experiment(golden_amo, [[0.1]], np.array([0.0]))


def _member_sets(golden_amo, diag01, random_bounded2):
    amo = [golden_amo.with_phase((0.1,)), golden_amo.with_phase((0.6,))]
    # V = 5 puts every energy below its band, so only that member ever rescales
    gap = models.PeriodicSpec((np.eye(1),), (5.0 * np.eye(1),))
    return {
        "amo-phases": ([m for s in amo for m in (s, models.reflect(s))], np.linspace(-2.75, 2.75, 23)),
        "diag01-rand8": ([diag01, random_bounded2], np.linspace(-3.5, 3.5, 29)),
        "one-rescales": ([models.free_model(1), gap], np.linspace(-1.5, 1.5, 7)),
    }


@pytest.mark.parametrize("name", ["amo-phases", "diag01-rand8", "one-rescales"])
def test_member_sweep_matches_own_sweeps(name, golden_amo, diag01, random_bounded2):
    members, xs = _member_sets(golden_amo, diag01, random_bounded2)[name]
    l_grid = (16, 48, 160, 512)
    got = classify._cesaro_sums(members, xs, l_grid)
    assert got.shape == (len(l_grid), len(members) * xs.size, members[0].dim)
    for g, spec in enumerate(members):
        own = classify._cesaro_sums(spec, xs, l_grid)
        assert np.array_equal(got[:, g * xs.size:(g + 1) * xs.size], own)
    if name == "one-rescales":
        # the free member stays bounded, the gap member leaves 2^120 by far
        assert np.max(got[:, : xs.size]) < 10 and np.min(got[-1, xs.size:]) > 1000
    profiles = classify.cesaro_profiles_grid(members, xs, l_grid)
    assert [p.x for p in profiles] == list(np.tile(xs, len(members)))


def test_chunk_size_does_not_change_results(monkeypatch, golden_amo, random_bounded2):
    members, xs = [golden_amo, models.reflect(golden_amo)], np.linspace(-3, 3, 13)

    def run():
        phi, psi = recurrence.dirichlet_neumann(random_bounded2, 0.3 + 0.01j, 40)
        return (recurrence.dirichlet_neumann_grid(random_bounded2, [0.37, 2.9], 300),
                recurrence.extend_tracks((phi, psi), 301),
                classify._cesaro_sums(members, xs, (5, 48, 100, 512)))

    def kernel(k):
        # B_1 .. B_300 of every member's energies through a buffer of k rows
        zs = np.tile(xs, len(members))
        buf, rows, exps = np.empty((k, 1, 1, zs.size)), [], []
        for fill in recurrence.forward(members, zs, np.zeros((zs.size, 1, 1)), np.ones((zs.size, 1, 1)),
                                       1, np.zeros(zs.size, dtype=np.int64), 300, buf):
            rows.append(buf[: len(fill)].copy())
            exps += fill
        return np.concatenate(rows), np.array(exps)

    want, want_kernel = run(), kernel(300)
    assert np.any(want_kernel[1])  # the rows rescale
    monkeypatch.setattr(recurrence, "_CHUNK", 3)
    got = run()
    tracks = [t for pair in want[0] for t in pair] + list(want[1])
    for a, b in zip(tracks, [t for pair in got[0] for t in pair] + list(got[1])):
        assert np.array_equal(a.blocks, b.blocks) and np.array_equal(a.exp2, b.exp2)
    assert np.array_equal(got[2], want[2])
    # nor does the kernel's buffer of 1, 8, 13 or all rows
    for k in (1, 8, 13, 300):
        rows, exps = kernel(k)
        assert np.array_equal(rows, want_kernel[0]) and np.array_equal(exps, want_kernel[1])
    # nor does the Cesaro sweep's chunk of 8, 16 or 64 steps
    calls = []
    real = matblock.batched_singular_sq
    monkeypatch.setattr(matblock, "batched_singular_sq", lambda b: calls.append(len(b)) or real(b))
    for steps in (8, 16, 64):
        monkeypatch.setattr(classify, "CESARO_CHUNK_BYTES", steps * 8 * 2 * len(members) * xs.size)
        assert np.array_equal(classify._cesaro_sums(members, xs, (5, 48, 100, 512)), want[2])
        assert calls.pop(0) == steps
        calls.clear()


def _chunk_members(name, request):
    if name == "amo-members":
        amo = request.getfixturevalue("golden_amo")
        return [m for p in (0.1, 0.6) for s in [amo.with_phase((p,))] for m in (s, models.reflect(s))]
    return [request.getfixturevalue(name)]


# (steps per chunk, cutoffs), chunks being whole rescale periods: with 16
# steps, 5 and 100 fall inside a chunk and inside a period, 32 and 304 on a
# chunk's last step; with 8 steps every rescale lands on a chunk's first
# step; with 64 steps the whole grid is shorter than one chunk
_PLACEMENTS = {
    "checkpoints-inside-and-last": (16, (5, 32, 100, 304)),
    "rescales-on-first-step": (8, (16, 48, 160, 512)),
    "grid-shorter-than-chunk": (64, (5, 40)),
}


@pytest.mark.parametrize("placement", sorted(_PLACEMENTS))
@pytest.mark.parametrize(
    "name", ["free1", "diag01", "random_bounded2", "wrap_alternating", "periodic3", "amo-members"])
def test_chunked_sums_match_stepwise_sweep(name, placement, request, monkeypatch):
    members = _chunk_members(name, request)
    xs = np.linspace(-3.5, 3.5, 29)  # in-band and gap energies: members rescale
    steps, l_grid = _PLACEMENTS[placement]
    l = members[0].dim
    monkeypatch.setattr(classify, "CESARO_CHUNK_BYTES", steps * 8 * l * l * 2 * len(members) * xs.size)
    calls = []
    real = matblock.batched_singular_sq
    monkeypatch.setattr(matblock, "batched_singular_sq", lambda b: calls.append(len(b)) or real(b))
    got = classify._cesaro_sums(members, xs, l_grid)
    assert calls == [steps] * (l_grid[-1] // steps) + [l_grid[-1] % steps] * (l_grid[-1] % steps > 0)
    assert np.array_equal(got, cesaro_sums_stepwise(members, xs, l_grid))


@pytest.mark.parametrize("name", ["amo-members", "diag01", "random_bounded2"])
def test_held_period_sums_fold_as_stepwise(name, request, monkeypatch):
    # the sweep holds the raw sums of CESARO_CHUNK_BYTES // (8 l N) whole
    # periods and folds them when it is full or when a cutoff reads the fold:
    # 1, 2 or 16 periods, or more than the grid has. The cutoffs 5, 37 and
    # 100 fall inside a period, 1001 on the first row of a period and, with
    # one period a chunk, of a chunk
    members = _chunk_members(name, request)
    xs = np.linspace(-3.5, 3.5, 29)
    l_grid = (5, 37, 100, 1001)
    l, entries = members[0].dim, 2 * len(members) * xs.size
    want = cesaro_sums_stepwise(members, xs, l_grid)
    folds = []
    real = scaling.add_all_into
    monkeypatch.setattr(scaling, "add_all_into", lambda m, e: folds.append(len(m)) or real(m, e))
    for held in (1, 2, 16, 200):
        monkeypatch.setattr(classify, "CESARO_CHUNK_BYTES", held * 8 * l * entries)
        folds.clear()
        assert np.array_equal(classify._cesaro_sums(members, xs, l_grid), want)
        assert max(folds) == min(held + 1, 114)  # a full buffer, or the longest read
    # with the whole grid held, the only folds are the reads at 37, 100 and
    # 1001, of the sum so far and periods 0-3, 4-11 and 12-124
    assert folds == [5, 9, 114]


def test_a_ledger_change_inside_a_period_is_an_error(monkeypatch, diag01):
    # a period's rows are summed raw on one ledger, so the sweep checks that
    # its first and last rows share it: for a whole period, and for a
    # cutoff's part of one (a check, not an assert, so it holds under -O)
    real = recurrence.forward
    for l_grid, row in (((64, 128), 5), ((5, 128), 3)):
        def forward(*args, row=row):
            for fill, exps in enumerate(real(*args)):
                if fill == 0:
                    exps[row:] = [exp2 + 1 for exp2 in exps[row:]]
                yield exps

        monkeypatch.setattr(recurrence, "forward", forward)
        with pytest.raises(InvalidInputError, match="inside a rescale period"):
            classify._cesaro_sums(diag01, np.linspace(-1.0, 3.0, 7), l_grid)


@pytest.mark.parametrize("name", ["diag01", "random_bounded2", "periodic3", "amo-members"])
def test_sums_do_not_depend_on_the_batch(name, request):
    # every track entry is summed on its own, on a schedule fixed by n alone
    members = _chunk_members(name, request)
    xs = np.linspace(-3.5, 3.5, 29)
    l_grid = (5, 24, 100, 300)
    full = classify._cesaro_sums(members, xs, l_grid).reshape(len(l_grid), len(members), xs.size, -1)
    for part in (slice(5, 17), slice(11, 12)):
        got = classify._cesaro_sums(members, xs[part], l_grid)
        assert np.array_equal(got, full[:, :, part].reshape(got.shape))


def test_mid_period_cutoffs_leave_the_other_cutoffs_bits(diag01):
    # a cutoff inside a rescale period is a read of the fold before it, not
    # a fold: adding one moves no bit of any other cutoff
    xs = np.linspace(-3.5, 3.5, 257)
    base = (96, 1024, 4096)
    want = classify._cesaro_sums(diag01, xs, base)
    got = classify._cesaro_sums(diag01, xs, (5, 37, 96, 100, 1001, 1024, 4096))
    assert np.array_equal(got[[2, 5, 6]], want)


def test_sums_match_exact_sum_of_kernel_rows(diag01):
    # at this energy s_2 / s_1 of the blocks falls below 2^-500 by n = 1024;
    # the scaled sums must still match the exact sum of the very same rows
    x = -2.2322834645669
    l_grid = (256, 512, 1024, 2048)
    got = classify._cesaro_sums(diag01, [x], l_grid)[:, 0]
    eye, zero = np.eye(2), np.zeros((2, 2))
    buf = np.empty((1, 2, 2, 2))
    steps = recurrence.forward((diag01,), np.array([x, x]), np.array([zero, eye]),
                               np.array([eye, zero]), 1, np.zeros(2, dtype=np.int64), l_grid[-1], buf)
    totals = [Fraction(0), Fraction(0)]
    for n, (exp2,) in enumerate(steps, 1):
        for row, e in zip(matblock.batched_singular_sq(buf[0].transpose(2, 0, 1)), exp2.tolist()):
            for j in range(2):
                totals[j] += Fraction(float(row[j])) * Fraction(2) ** (2 * e)
        if n in l_grid:
            for j, total in enumerate(totals):
                # round the exact sum to a (mantissa, exponent) pair, then
                # take its log2 as the sweep does
                e2 = total.numerator.bit_length() - total.denominator.bit_length()
                m = float(total / Fraction(2) ** e2)
                want = (math.log2(m) + e2) - math.log2(n)
                assert abs(got[l_grid.index(n), j] - want) <= 1e-12
            if n == l_grid[-1]:
                break
    assert np.isfinite(got).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_kernel_failure_inside_a_chunk_reports_as_stepwise(diag01):
    # x = 1e200 leaves float range at once; step by step the sweep fails at
    # the checkpoint L = 4, before the kernel's own check after n = 8, so a
    # chunk that runs into that check must still add the rows it holds
    for l_grid in ((4, 16), (16, 32)):
        errors = []
        for sweep in (classify._cesaro_sums, cesaro_sums_stepwise):
            with pytest.raises(TrackOverflowError) as info:
                sweep(diag01, [0.5, 1e200], l_grid)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
    assert errors[0] == "blocks left float range before index 9"


def test_default_chunk_is_sized_by_the_byte_cap(monkeypatch, diag01, golden_amo):
    # 128 energies of diag(0,1), as the benchmark scan: 32 steps of 8 KiB;
    # four l = 1 members at 256 energies, as the benchmark constancy run:
    # 16 steps of 16 KiB
    calls = []
    real = matblock.batched_singular_sq
    monkeypatch.setattr(matblock, "batched_singular_sq", lambda b: calls.append(len(b)) or real(b))
    classify._cesaro_sums(diag01, np.linspace(-3.5, 3.5, 128), (64, 256))
    classify._cesaro_sums([golden_amo] * 4, np.linspace(-2.75, 2.75, 256), (16, 64))
    assert calls == [32] * 8 + [16] * 4


def test_constancy_reads_no_per_index_coefficients(monkeypatch, golden_amo):
    calls = []
    for cls in (models.ExplicitSpec, models.PeriodicSpec, models.DynamicalSpec, models.ReflectedSpec):
        original = cls.coefficient_at

        def counted(self, n, original=original):
            calls.append(n)
            return original(self, n)

        monkeypatch.setattr(cls, "coefficient_at", counted)
    params = classify.ScanParams(l_grid=(64, 128))
    rep = classify.constancy_experiment(golden_amo, [[0.1], [0.6]], np.linspace(-2, 2, 5), params)
    assert len(rep.classifications) == 2 and calls == []
