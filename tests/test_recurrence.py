import numpy as np
import pytest

from jacobispec import matblock, recurrence, scaling, truncnorm, weyl
from jacobispec.errors import DomainError, InvalidInputError, TrackOverflowError

from oracles import green_sum_direct, propagate_reference


def fro(a):
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


def test_initial_conditions_and_first_step(random_bounded2):
    z = 0.37
    phi, psi = recurrence.dirichlet_neumann(random_bounded2, z, 6)
    l = random_bounded2.dim
    assert np.allclose(phi.block(0), np.zeros((l, l)))
    assert np.allclose(phi.block(1), np.eye(l))
    assert np.allclose(psi.block(0), np.eye(l))
    assert np.allclose(psi.block(1), np.zeros((l, l)))
    d0, _ = random_bounded2.coefficient_at(0)
    d1, v1 = random_bounded2.coefficient_at(1)
    assert np.allclose(phi.block(2), np.linalg.solve(d1, z * np.eye(l) - v1))
    assert np.allclose(psi.block(2), -np.linalg.solve(d1, d0))


def test_free_dirichlet_pattern(free1):
    phi, _ = recurrence.dirichlet_neumann(free1, 0.0, 12)
    got = [float(phi.block(n)[0, 0]) for n in range(9)]
    assert got == [0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0]


def test_recurrence_residual_everywhere(random_bounded2):
    phi, psi = recurrence.dirichlet_neumann(random_bounded2, 0.21 + 0.4j, 200)
    for track in (phi, psi):
        worst = max(track.recurrence_residual(n) for n in range(1, track.n_max))
        assert worst <= 1e-10


def test_residual_holds_through_overflow_scaling(free1):
    phi, _ = recurrence.dirichlet_neumann(free1, 3.0, 900)
    assert phi.overflow_scaled
    assert int(phi.exp2[-1]) > 0
    worst = max(phi.recurrence_residual(n) for n in range(1, phi.n_max, 17))
    assert worst <= 1e-10


def test_track_extension_matches_fresh_run(random_bounded2):
    z = 1.3
    short, _ = recurrence.dirichlet_neumann(random_bounded2, z, 40)
    longer = short.extended(160)
    fresh, _ = recurrence.dirichlet_neumann(random_bounded2, z, 160)
    for n in (0, 40, 93, 160):
        a = longer.block(n) if longer.exp2[n] <= 900 else longer.blocks[n]
        b = fresh.block(n) if fresh.exp2[n] <= 900 else fresh.blocks[n]
        assert np.allclose(a, b, rtol=1e-9)


def test_transfer_step_free_case():
    alpha = recurrence.transfer_step(np.eye(1), np.eye(1), np.zeros((1, 1)), 0.0)
    assert np.allclose(alpha, [[0.0, -1.0], [1.0, 0.0]])


def test_transfer_step_scalar_arithmetic():
    alpha = recurrence.transfer_step(
        np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]]), 3.0
    )
    assert np.allclose(alpha, [[1.0, -0.5], [2.0, 0.0]])


def test_transfer_step_propagates_solutions(random_bounded2):
    z = 0.83
    phi, _ = recurrence.dirichlet_neumann(random_bounded2, z, 12)
    for n in range(1, 10):
        d_n, v_n = random_bounded2.coefficient_at(n)
        d_prev = random_bounded2.coefficient_at(n - 1)[0]
        alpha = recurrence.transfer_step(d_n, d_prev, v_n, z)
        vec = recurrence.lift_pair(phi.block(n), phi.block(n - 1), d_prev)
        out = alpha @ vec
        want = recurrence.lift_pair(phi.block(n + 1), phi.block(n), d_n)
        assert fro(out - want) <= 1e-12 * max(1.0, fro(want))


def test_cocycle_identity_and_rotation(free1):
    a0, e0 = recurrence.cocycle_product(free1, 0.0, 0)
    assert e0 == 0 and np.allclose(a0, np.eye(2))
    a4, e4 = recurrence.cocycle_product(free1, 0.0, 4)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert e4 == 0 and np.allclose(a4, np.linalg.matrix_power(rot, 3))


def test_cocycle_reproduces_dirichlet_data(random_bounded2):
    z = -0.4
    phi, _ = recurrence.dirichlet_neumann(random_bounded2, z, 30)
    l = random_bounded2.dim
    d0 = random_bounded2.coefficient_at(0)[0]
    start = recurrence.lift_pair(np.eye(l), np.zeros((l, l)), d0)
    for n in (2, 7, 19, 29):
        a_n, e_n = recurrence.cocycle_product(random_bounded2, z, n)
        got = np.ldexp(1.0, e_n) * (a_n @ start)
        d_prev = random_bounded2.coefficient_at(n - 1)[0]
        want = recurrence.lift_pair(phi.block(n), phi.block(n - 1), d_prev)
        assert fro(got - want) <= 1e-9 * max(1.0, fro(want))


def test_wronskian_values(random_bounded2):
    x = 0.15
    phi, psi = recurrence.dirichlet_neumann(random_bounded2, x, 40)
    d0 = random_bounded2.coefficient_at(0)[0]
    assert fro(recurrence.wronskian(phi, phi, 7)) <= 1e-12
    assert np.allclose(recurrence.wronskian(psi, phi, 1), d0)


def pick_bounded_energies(spec, candidates, n_steps, count):
    """Energies whose solutions stay polynomially bounded over the window."""
    out = []
    for x in candidates:
        phi, psi = recurrence.dirichlet_neumann(spec, float(x), n_steps)
        if phi.overflow_scaled or psi.overflow_scaled:
            continue
        peak = max(phi.frobenius_norm_at(n_steps), psi.frobenius_norm_at(n_steps))
        if peak < 1e3:
            out.append(float(x))
        if len(out) == count:
            break
    return out


def test_wronskian_constancy_over_thousand_steps(random_bounded2):
    energies = pick_bounded_energies(random_bounded2, np.linspace(-1.5, 1.5, 61), 1000, 5)
    assert len(energies) == 5
    d0 = random_bounded2.coefficient_at(0)[0]
    scale = fro(d0)
    for x in energies:
        phi, psi = recurrence.dirichlet_neumann(random_bounded2, x, 1001)
        drift = max(
            fro(recurrence.wronskian(psi, phi, n) - d0) for n in range(1, 1001, 9)
        )
        assert drift <= 1e-10 * scale


def test_green_formula_same_equation(random_bounded2):
    phi, psi = recurrence.dirichlet_neumann(random_bounded2, 0.6, 80)
    assert recurrence.green_formula_residual(psi, phi, 3, 70) <= 1e-10


def test_green_formula_two_energies(random_bounded2):
    z1, z2 = 0.3, 0.55
    phi1, _ = recurrence.dirichlet_neumann(random_bounded2, z1, 60)
    phi2, _ = recurrence.dirichlet_neumann(random_bounded2, z2, 60)
    m, n = 2, 50
    got = recurrence.green_formula_residual(phi1, phi2, m, n, z_ref=z1)
    total = sum(phi1.block(k).T @ phi2.block(k) for k in range(m, n + 1))
    want = abs(z1 - z2) * fro(total)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_green_formula_matches_bruteforce_on_random_blocks(random_bounded2):
    rng = np.random.default_rng(12)
    # two non-solution block sequences, unscaled
    exp2 = np.zeros(30, dtype=np.int64)
    track_a = recurrence.SolutionTrack(random_bounded2, 0.4, rng.normal(size=(30, 2, 2)), exp2)
    track_b = recurrence.SolutionTrack(random_bounded2, 0.4, rng.normal(size=(30, 2, 2)), exp2)
    got = recurrence.green_formula_residual(track_a, track_b, 2, 20)
    want = green_sum_direct(random_bounded2, 0.4, 2, 20, track_a, track_b)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_jost_assemble_initials_and_decay(free1):
    z = 1j
    phi, psi = recurrence.dirichlet_neumann(free1, z, 40)
    m_val = weyl.m_riccati(free1, z, tol=1e-13)
    f_track = recurrence.jost_assemble(phi, psi, m_val.m)
    assert np.allclose(f_track.block(0), np.eye(1))
    assert np.allclose(f_track.block(1), -m_val.m @ np.eye(1))
    ratio = abs(m_val.m[0, 0])
    norms = [f_track.frobenius_norm_at(n) for n in range(0, 20)]
    for n in range(1, 18):
        assert norms[n + 1] / norms[n] == pytest.approx(ratio, rel=1e-6)


def test_jost_assemble_rejects_real_energy(free1):
    phi, psi = recurrence.dirichlet_neumann(free1, 0.5, 10)
    with pytest.raises(DomainError):
        recurrence.jost_assemble(phi, psi, np.eye(1))


def test_jost_decay_off_spectrum(random_bounded2):
    z = 0.2 + 0.9j  # far from the real axis: distance to spectrum >= 0.9
    blocks, _ = weyl.jost_chain(random_bounded2, z, 60)
    norms = np.array([fro(blocks[n]) for n in range(61)])
    window = np.arange(10, 61)
    slope = np.polyfit(window, np.log(norms[window]), 1)[0]
    assert slope < 0


def test_jl_identity_residual_small(free1, diag01):
    x, y = 0.3, 0.1
    z = complex(x, y)
    for spec in (free1, diag01):
        phi_x, psi_x = recurrence.dirichlet_neumann(spec, x, 60)
        m_val = weyl.m_riccati(spec, z, tol=1e-13)
        phi_z, psi_z = recurrence.dirichlet_neumann(spec, z, 60)
        f_track = recurrence.jost_assemble(phi_z, psi_z, m_val.m)
        res = recurrence.jl_identity_residual(phi_x, psi_x, f_track, m_val.m, x, y, 50)
        assert res <= 1e-8


def test_jl_identity_y_terms_collapse(free1):
    # with F forced to psi - phi M D0 at real x, the defect comes only from
    # the iy terms, so it scales linearly in y (any symmetric M will do)
    x = 0.3
    phi_x, psi_x = recurrence.dirichlet_neumann(free1, x, 30)
    m_mat = np.array([[0.4 + 0.7j]])
    blocks = np.stack([psi_x.block(n) - phi_x.block(n) @ m_mat for n in range(21)])
    res = {}
    for y in (1e-3, 1e-6):
        f_track = recurrence.SolutionTrack(free1, complex(x, y), blocks, np.zeros(21, dtype=np.int64))
        res[y] = recurrence.jl_identity_residual(phi_x, psi_x, f_track, m_mat, x, y, 20)
        assert res[y] <= y * 1e3
    assert res[1e-6] / res[1e-3] == pytest.approx(1e-3, rel=1e-3)


def test_invalid_indices_raise(random_bounded2):
    phi, psi = recurrence.dirichlet_neumann(random_bounded2, 0.0, 10)
    with pytest.raises(InvalidInputError):
        phi.block(11)
    with pytest.raises(InvalidInputError):
        recurrence.wronskian(phi, psi, 0)
    with pytest.raises(InvalidInputError):
        recurrence.green_formula_residual(phi, psi, 5, 5)


def test_singular_coefficient_reported():
    from jacobispec import models
    from jacobispec.errors import SingularBlockError

    pairs = [(np.eye(1), np.zeros((1, 1)))] * 4
    pairs[2] = (np.zeros((1, 1)), np.zeros((1, 1)))
    spec = models.ExplicitSpec(tuple(pairs), extension="wrap")
    with pytest.raises(SingularBlockError):
        recurrence.dirichlet_neumann(spec, 0.0, 8)


def test_extension_across_rescale_boundary_is_exact(free1):
    # extension re-materializes the sliding pair with exact power-of-two
    # shifts, so continuing a rescaled track reproduces a fresh run bitwise
    short, _ = recurrence.dirichlet_neumann(free1, 3.0, 400)
    assert short.overflow_scaled
    longer = short.extended(800)
    fresh, _ = recurrence.dirichlet_neumann(free1, 3.0, 800)
    assert np.array_equal(longer.exp2, fresh.exp2)
    assert np.array_equal(longer.blocks, fresh.blocks)


@pytest.mark.parametrize("name", ["random_bounded2", "periodic3"])
@pytest.mark.parametrize("z", [0.37, 2.9, 0.3 + 0.4j, -1.1 + 0.05j])
def test_tracks_match_reference_propagation(name, z, request):
    # batch-of-two kernel (D^-1 @, max-abs rescale) against the per-track
    # solve loop with its Frobenius rescale rule
    spec = request.getfixturevalue(name)
    l = spec.dim
    phi, psi = recurrence.dirichlet_neumann(spec, z, 200)
    zero, eye = np.zeros((l, l)), np.eye(l)
    for track, b0, b1 in ((phi, zero, eye), (psi, eye, zero)):
        ref, ref_exp = propagate_reference(spec, z, 200, b0, b1)
        got = track.blocks * np.ldexp(1.0, track.exp2 - ref_exp)[:, None, None]
        err = np.sqrt(np.sum(np.abs(got - ref) ** 2, axis=(1, 2)))
        assert np.all(err <= 1e-12 * np.sqrt(np.sum(np.abs(ref) ** 2, axis=(1, 2))))


def test_rescaled_log_norms_match_reference(free1):
    phi, _ = recurrence.dirichlet_neumann(free1, 3.0, 900)
    ref, ref_exp = propagate_reference(free1, 3.0, 900, np.zeros((1, 1)), np.eye(1))
    assert min(phi.exp2[-1], ref_exp[-1]) > 900  # many rescales on both sides
    got = np.log2(np.abs(phi.blocks[1:, 0, 0])) + phi.exp2[1:]
    want = np.log2(np.abs(ref[1:, 0, 0])) + ref_exp[1:]
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, want))


def _same_track(a, b):
    assert (a.z, a.kind) == (b.z, b.kind)
    assert np.array_equal(a.blocks, b.blocks) and np.array_equal(a.exp2, b.exp2)
    assert np.array_equal(a.cum_fro2_m, b.cum_fro2_m)
    assert np.array_equal(a.cum_fro2_e, b.cum_fro2_e)


@pytest.mark.parametrize("name", ["random_bounded2", "periodic3"])
def test_track_grid_matches_batch_of_one(name, request):
    spec = request.getfixturevalue(name)
    for zs in ([0.37, 2.9, -3.5, 0.0], [0.3 + 0.4j, -1.1 + 0.05j]):
        grid = recurrence.dirichlet_neumann_grid(spec, zs, 300)
        assert len(grid) == len(zs)
        for z, pair in zip(zs, grid):
            for got, want in zip(pair, recurrence.dirichlet_neumann(spec, z, 300)):
                _same_track(got, want)


def test_pair_extension_is_one_exact_run(free1):
    # at x = 3 a rescale shifts the last block (265) of the short tracks but
    # not the one before it; at x = 0.3, y = 0.002 the cutoff (L = 488.8)
    # needs the tracks doubled from 256 to 512 blocks
    for x, n_short in ((3.0, 265), (0.3, 256)):
        phi, psi = recurrence.dirichlet_neumann(free1, x, n_short)
        assert (phi.exp2[-1] != phi.exp2[-2]) == (x == 3.0)
        both = recurrence.extend_tracks((phi, psi), 512)
        fresh = recurrence.dirichlet_neumann(free1, x, 512)
        for got, alone, new in zip(both, (phi.extended(512), psi.extended(512)), fresh):
            _same_track(got, alone)
            _same_track(got, new)
    solve = truncnorm.solve_l_of_y(free1, 0.3, 0.002)
    assert solve.l_value > 256 and solve.phi.n_max == 512
    for got, new in zip(solve.tracks, fresh):
        _same_track(got, new)


def test_singular_block_raises_at_the_step_that_needs_it():
    from jacobispec import models
    from jacobispec.errors import SingularBlockError

    # D_n = 0 from n = 300 on; the chunk read at n = 241 reaches D_300
    # before any step needs its inverse
    pairs = ((np.eye(1), np.zeros((1, 1))),) * 300 + ((np.zeros((1, 1)), np.zeros((1, 1))),)
    spec = models.ExplicitSpec(pairs, extension="constant")
    for n_max in (200, 280, 300):
        phi, _ = recurrence.dirichlet_neumann(spec, 0.5, n_max)
        assert phi.n_max == n_max
    for n_max in (301, 400):
        with pytest.raises(SingularBlockError):
            recurrence.dirichlet_neumann(spec, 0.5, n_max)


@pytest.mark.parametrize("names", [("free1",), ("diag01",), ("random_bounded2",), ("periodic3",),
                                   ("diag01", "random_bounded2")])
def test_forward_never_writes_a_yielded_block_or_ledger(names, request):
    # the kernel updates temporaries in place; none of them may be a ledger
    # it has already handed out or one of the caller's inputs, and a buffer
    # of 7 rows refilled across rescales must hand out the rows of one fill
    specs = tuple(request.getfixturevalue(name) for name in names)
    l = specs[0].dim
    zs = np.tile([3.5, -2.9, 0.4, 0.3 + 0.2j], len(specs))
    b_prev = np.zeros((zs.size, l, l), dtype=complex)
    b_cur = np.zeros_like(b_prev)
    b_prev[1::2] = b_cur[0::2] = np.eye(l)
    start = np.zeros(zs.size, dtype=np.int64)
    kept = [(b, b.copy()) for b in (b_prev, b_cur)]
    whole = np.empty((520, l, l, zs.size), dtype=complex)
    (want,) = recurrence.forward(specs, zs, b_prev, b_cur, 1, start, 520, whole)
    buf = np.empty((7, l, l, zs.size), dtype=complex)
    rows, row_exps, ledgers = [], [], {}
    for exps in recurrence.forward(specs, zs, b_prev, b_cur, 1, start, 520, buf):
        rows.append(buf[: len(exps)].copy())
        row_exps += exps
        for exp2 in exps:
            ledgers.setdefault(id(exp2), (exp2, exp2.copy()))
    assert len(ledgers) > 3  # rescales replaced the ledger
    assert not np.any(start)
    for got, copy in list(ledgers.values()) + kept:
        assert np.array_equal(got, copy)
    assert np.array_equal(np.concatenate(rows), whole) and np.array_equal(row_exps, want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_forward_hands_out_the_rows_before_a_failing_step(diag01):
    # at x = 1e200 the blocks leave float range at once; the check after the
    # step from n = 8 fails on B_9, so B_1 .. B_8 go out before the error
    eye, zero = np.eye(2), np.zeros((2, 2))
    for k in (1, 16):
        buf = np.empty((k, 2, 2, 2))
        steps = recurrence.forward((diag01,), np.array([1e200, 1e200]), np.array([zero, eye]),
                                   np.array([eye, zero]), 1, np.zeros(2, dtype=np.int64), 64, buf)
        fills = []
        with pytest.raises(TrackOverflowError, match="before index 9"):
            for exps in steps:
                fills.append(len(exps))
        assert fills == ([1] * 8 if k == 1 else [8])


@pytest.mark.parametrize("name", ["free1", "random_bounded2", "periodic3"])
def test_truncation_sums_match_two_cumulative_passes(name, request):
    # the Frobenius and the per-singular-value sums share one cumulative
    # pass; column by column it is the same arithmetic as a pass of its own
    spec = request.getfixturevalue(name)
    l = spec.dim
    tracks = [t for z in (0.37, 3.2, 0.3 + 0.4j) for t in recurrence.dirichlet_neumann(spec, z, 700)]
    assert any(t.overflow_scaled for t in tracks)
    for track in tracks:
        sv_sq = matblock.batched_singular_sq(track.blocks)
        te = np.concatenate(([np.int64(0)], 2 * track.exp2[1:]))
        fro2 = np.concatenate(([0.0], np.sum(sv_sq, axis=1)[1:]))
        fro_m, fro_e = scaling.cumulative(fro2, te)
        sv2 = np.concatenate((np.zeros((1, l)), sv_sq[1:]))
        sv_m, sv_e = scaling.cumulative(sv2, np.repeat(te[:, None], l, axis=1))
        for got, want in ((track.cum_fro2_m, fro_m), (track.cum_fro2_e, fro_e),
                          (track.cum_sv2_m, sv_m), (track.cum_sv2_e, sv_e)):
            assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("name", ["free1", "random_bounded2"])
def test_stacked_track_sums_are_each_tracks_own(name, request):
    # one kernel run and one cumulative pass for all tracks, whose ledgers
    # change at different indices: a change in one track must not split
    # the running sums of another
    spec = request.getfixturevalue(name)
    tracks = [t for pair in recurrence.dirichlet_neumann_grid(spec, [0.37, 3.2, 9.0, 40.0, 1e5], 300)
              for t in pair]
    changes = {tuple(np.flatnonzero(np.diff(t.exp2)) + 1) for t in tracks}
    assert len(changes) >= 4
    for track in tracks:
        alone = recurrence.SolutionTrack(spec, track.z, track.blocks.copy(), track.exp2.copy())
        for attr in ("sv_mant", "cum_sv2_m", "cum_sv2_e", "cum_fro2_m", "cum_fro2_e"):
            assert np.array_equal(getattr(track, attr), getattr(alone, attr)), attr
