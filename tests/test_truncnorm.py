import itertools
import weakref

import numpy as np
import pytest

from jacobispec import recurrence, truncnorm
from jacobispec.errors import InvalidInputError, TargetUnreachableError, TrackTooShortError

from oracles import solve_l_of_y_reference, truncated_norm_direct, truncated_singular_direct


def test_dirichlet_at_unit_cutoff(free2):
    phi, psi = recurrence.dirichlet_neumann(free2, 0.3, 8)
    assert truncnorm.truncated_norm(phi, 1.0) == pytest.approx(np.sqrt(2.0))
    assert truncnorm.truncated_norm(psi, 1.0) == 0.0


def test_fractional_cutoff_formula(random_bounded2):
    phi, _ = recurrence.dirichlet_neumann(random_bounded2, 0.9, 10)
    direct = np.sqrt(
        np.sum(np.abs(phi.block(1)) ** 2) + 0.5 * np.sum(np.abs(phi.block(2)) ** 2)
    )
    assert truncnorm.truncated_norm(phi, 1.5) == pytest.approx(direct, rel=1e-14)


def test_truncated_norm_matches_bruteforce(random_bounded2):
    phi, psi = recurrence.dirichlet_neumann(random_bounded2, -0.7, 40)
    blocks = [phi.block(n) for n in range(41)]
    for l_value in (1.0, 2.25, 7.0, 31.9):
        assert truncnorm.truncated_norm(phi, l_value) == pytest.approx(
            truncated_norm_direct(blocks, l_value), rel=1e-12
        )


def test_truncated_singular_examples(free1, free2):
    phi1, _ = recurrence.dirichlet_neumann(free1, 0.4, 12)
    for l_value in (1.0, 3.5, 9.0):
        assert truncnorm.truncated_singular(phi1, 1, l_value) == pytest.approx(
            truncnorm.truncated_norm(phi1, l_value), rel=1e-14
        )
    phi2, _ = recurrence.dirichlet_neumann(free2, 0.4, 6)
    assert truncnorm.truncated_singular(phi2, 2, 1.0) == pytest.approx(1.0)


def test_truncated_singular_matches_bruteforce(random_bounded2):
    phi, _ = recurrence.dirichlet_neumann(random_bounded2, 0.05, 30)
    blocks = [phi.block(n) for n in range(31)]
    for k in (1, 2):
        for l_value in (4.0, 11.0, 23.0):
            assert truncnorm.truncated_singular(phi, k, l_value) == pytest.approx(
                truncated_singular_direct(blocks, k, l_value), rel=1e-11
            )


def test_monotone_and_continuous_in_cutoff(random_bounded2):
    phi, _ = recurrence.dirichlet_neumann(random_bounded2, 0.33, 30)
    grid = np.arange(1.0, 25.0, 0.01)
    vals = np.array([truncnorm.truncated_norm(phi, lv) for lv in grid])
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.max(np.abs(np.diff(vals))) < 1.0  # no jumps on a 0.01 grid


def test_triangle_inequality(random_bounded2):
    rng = np.random.default_rng(13)
    exp2 = np.zeros(20, dtype=np.int64)  # unscaled sequences
    a = recurrence.SolutionTrack(random_bounded2, 0.0, rng.normal(size=(20, 2, 2)), exp2)
    b = recurrence.SolutionTrack(random_bounded2, 0.0, rng.normal(size=(20, 2, 2)), exp2)
    ab = recurrence.SolutionTrack(random_bounded2, 0.0, a.blocks + b.blocks, exp2)
    for l_value in (1.0, 5.5, 17.2):
        lhs = truncnorm.truncated_norm(ab, l_value)
        rhs = truncnorm.truncated_norm(a, l_value) + truncnorm.truncated_norm(b, l_value)
        assert lhs <= rhs + 1e-12


def test_singular_below_norm(random_bounded2):
    phi, _ = recurrence.dirichlet_neumann(random_bounded2, 0.6, 20)
    for k in (1, 2):
        for l_value in (1.0, 9.75, 18.0):
            assert truncnorm.truncated_singular(phi, k, l_value) <= truncnorm.truncated_norm(
                phi, l_value
            ) + 1e-12


def test_short_track_signals_needed_length(random_bounded2):
    phi, _ = recurrence.dirichlet_neumann(random_bounded2, 0.0, 5)
    with pytest.raises(TrackTooShortError) as err:
        truncnorm.truncated_norm(phi, 5.5)
    assert err.value.needed == 6
    with pytest.raises(InvalidInputError):
        truncnorm.truncated_norm(phi, 0.5)
    with pytest.raises(InvalidInputError):
        truncnorm.truncated_singular(phi, 3, 2.0)


def test_solve_l_free_model_residual(free1):
    rng = np.random.default_rng(14)
    for _ in range(12):
        x = float(rng.uniform(-1.8, 1.8))
        y = float(np.exp(rng.uniform(np.log(1e-2), 0.0)))
        sol = truncnorm.solve_l_of_y(free1, x, y)
        assert sol.residual <= 1e-10
        assert sol.l_value >= 1.0


def test_solve_l_monotone_in_y(free1, random_bounded2):
    rng = np.random.default_rng(15)
    for spec in (free1, random_bounded2):
        for _ in range(6):
            x = float(rng.uniform(-2.0, 2.0))
            y = float(np.exp(rng.uniform(np.log(5e-3), 0.0)))
            l1 = truncnorm.solve_l_of_y(spec, x, y).l_value
            l2 = truncnorm.solve_l_of_y(spec, x, 2 * y).l_value
            assert l2 <= l1 + 1e-12


def test_solve_l_matches_independent_bisection(free1):
    x, y = 0.2, 0.03
    sol = truncnorm.solve_l_of_y(free1, x, y)
    phi, psi = recurrence.dirichlet_neumann(free1, x, 4096)

    def g(l_value):
        return 2.0 * y * truncnorm.truncated_norm(psi, l_value) * truncnorm.truncated_norm(
            phi, l_value
        ) - 1.0

    lo, hi = 1.0, 4000.0
    assert g(lo) < 0 < g(hi)
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert sol.l_value == pytest.approx(0.5 * (lo + hi), abs=1e-8)


def test_solve_l_unreachable_is_reported(free1, monkeypatch):
    monkeypatch.setattr(truncnorm, "MAX_TRACK_BLOCKS", 2048)
    with pytest.raises(TargetUnreachableError) as err:
        truncnorm.solve_l_of_y(free1, 0.0, 1e-9)
    assert err.value.max_length == 2048
    assert err.value.attained is not None


def test_overflowed_track_norm_raises(free1):
    from jacobispec.errors import TrackOverflowError

    phi, _ = recurrence.dirichlet_neumann(free1, 3.0, 1600)
    assert phi.overflow_scaled
    with pytest.raises(TrackOverflowError):
        truncnorm.truncated_norm(phi, 1500.0)
    # scaled form stays available and is monotone
    m, e = truncnorm.truncated_sq_batch([phi], [1500.0])
    m2, e2 = truncnorm.truncated_sq_batch([phi], [1501.0])
    import jacobispec.scaling as scaling

    assert scaling.log2(m2, e2) >= scaling.log2(m, e)


def test_cutoff_solver_far_outside_spectrum(free1):
    for x in (4.0, -15.0):
        for y in (0.5, 1e-2):
            sol = truncnorm.solve_l_of_y(free1, x, y)
            assert sol.residual <= 1e-10


def test_grown_tracks_solve_as_long_tracks_would(diag01):
    # in-band energies of diag(0,1) need L from a few to a few hundred
    # blocks; grown by doubling from INITIAL_TRACK_BLOCKS = 16, every point
    # solves bit for bit as from a single pair of 1024 blocks
    assert truncnorm.INITIAL_TRACK_BLOCKS == 16
    xs = np.linspace(0.2, 1.8, 9)
    ys = np.array([0.3, 2e-3, 0.05, 1e-3, 5e-3, 0.01, 8e-4, 0.1, 3e-3])
    grown = [truncnorm.solve_l_of_y(diag01, x, y) for x, y in zip(xs, ys)]
    assert {16, 512} <= {g.phi.n_max for g in grown}
    for x, y, got in zip(xs, ys, grown):
        want = truncnorm.SolveLResult(*solve_l_of_y_reference(
            diag01, x, y, recurrence.dirichlet_neumann(diag01, x, 1024)))
        assert got.l_value == want.l_value and got.residual == want.residual
        for track, other in zip(got.tracks, want.tracks):
            assert truncnorm.truncated_singular(track, 2, got.l_value) == truncnorm.truncated_singular(
                other, 2, got.l_value)


def test_grid_grows_within_its_budget_and_drops_crossed_points(diag01, monkeypatch):
    # the points above need 16 to 512 blocks; under a 512-block budget the
    # first doublings run stacked and the deeper points double alone, one
    # point run to its end before the next; every point solves as it does
    # alone, and the grid keeps no track of a point once it has yielded it
    xs = np.linspace(0.2, 1.8, 9)
    ys = np.array([0.3, 2e-3, 0.05, 1e-3, 5e-3, 0.01, 8e-4, 0.1, 3e-3])
    alone = [truncnorm.solve_l_of_y(diag01, x, y) for x, y in zip(xs, ys)]
    monkeypatch.setattr(truncnorm, "GROW_BLOCKS", 512)
    calls = []
    real = recurrence.extend_tracks

    def spy(tracks, n_new):
        calls.append(([t.z for t in tracks[: len(tracks) // 2]], n_new))
        return real(tracks, n_new)

    monkeypatch.setattr(recurrence, "extend_tracks", spy)
    got, refs, dropped = {}, [], []
    for idx, results in truncnorm.solve_l_grid(diag01, xs, ys):
        dropped.append(all(ref() is None for ref in refs))
        refs = [weakref.ref(t) for res in results for t in res.tracks]
        got.update({j: (r.l_value, r.residual, r.phi_norm, r.psi_norm, r.phi.n_max)
                    for j, r in zip(idx, results)})
        del results
    assert len(dropped) > 2 and all(dropped)
    assert sorted(got) == list(range(len(xs)))
    for j, want in enumerate(alone):
        assert got[j] == (want.l_value, want.residual, want.phi_norm, want.psi_norm,
                          want.phi.n_max)
    assert all(len(zs) == 1 or 2 * len(zs) * n_new <= 512 for zs, n_new in calls)
    assert any(len(zs) > 1 for zs, _ in calls) and max(n for _, n in calls) == 512
    runs = [z for z, _ in itertools.groupby(zs[0] for zs, _ in calls if len(zs) == 1)]
    assert len(runs) == len(set(runs)) > 1
