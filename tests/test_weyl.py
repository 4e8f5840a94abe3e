import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

from jacobispec import matblock, models, recurrence, truncnorm, weyl
from jacobispec.errors import ConvergenceError, DomainError, InvalidInputError

from oracles import (banded_corner_block_reference, banded_corner_block_top_down,
                     dense_halfline_matrix, jl_report_reference, riccati_grid_direct)


def m_free_exact(z):
    """Herglotz root of m^2 + z m + 1 = 0."""
    z = complex(z)
    r = np.sqrt(z * z - 4.0)
    for cand in ((-z + r) / 2.0, (-z - r) / 2.0):
        if cand.imag > 0:
            return cand
    raise AssertionError("no Herglotz root")


def fro(a):
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


def test_free_scalar_closed_form(free1):
    for z in (0.5 + 0.1j, -1.7 + 0.03j, 2.9 + 0.2j):
        ric = weyl.m_riccati(free1, z, tol=1e-12)
        res = weyl.m_resolvent(free1, z, tol=1e-12)
        exact = m_free_exact(z)
        assert abs(ric.m[0, 0] - exact) <= 1e-8
        assert abs(res.m[0, 0] - exact) <= 1e-8


def test_free_scalar_at_i(free1):
    got = weyl.m_resolvent(free1, 1j, tol=1e-12).m[0, 0]
    assert got == pytest.approx(1j * (np.sqrt(5.0) - 1.0) / 2.0, abs=1e-10)


def test_block_diagonal_decouples(free2):
    z = 0.4 + 0.2j
    m_val = weyl.m_riccati(free2, z, tol=1e-12)
    assert np.allclose(m_val.m, m_free_exact(z) * np.eye(2), atol=1e-10)


def test_far_field_asymptotics(free1):
    # Borel-transform normalization: M(it) ~ -1/(it) for large t
    for t in (10.0, 40.0):
        m_val = weyl.m_riccati(free1, 1j * t, tol=1e-13)
        defect = fro(1j * t * m_val.m + np.eye(1))
        assert defect <= 3.0 / t**2


def test_methods_agree_on_random_model(random_bounded2):
    rng = np.random.default_rng(16)
    for _ in range(8):
        z = complex(rng.uniform(-3, 3), np.exp(rng.uniform(np.log(1e-2), 0)))
        ric = weyl.m_riccati(random_bounded2, z, tol=1e-10)
        res = weyl.m_resolvent(random_bounded2, z, tol=1e-10)
        assert fro(ric.m - res.m) <= 1e-7


def test_herglotz_and_symmetry_invariants(random_bounded2):
    for y in (0.3, 0.1, 0.03, 0.01):
        m_val = weyl.m_riccati(random_bounded2, complex(0.5, y), tol=1e-10)
        assert np.linalg.eigvalsh(m_val.m.imag)[0] >= -1e-10
        assert fro(m_val.m - m_val.m.T) <= 1e-8 * fro(m_val.m)


def test_domain_guard(free1):
    with pytest.raises(DomainError):
        weyl.m_riccati(free1, 0.5)
    with pytest.raises(DomainError):
        weyl.m_riccati(free1, 0.5 - 0.1j)


# below the floor MIN_IM_Z = 1e-8, and non-finite in either part
_OUTSIDE_DOMAIN = [4.5 + 5e-9j, complex(0.3, math.nan), complex(math.nan, 0.1), complex(0.3, math.inf)]
_M_ROUTES = {
    "m_riccati": weyl.m_riccati,
    "m_resolvent": weyl.m_resolvent,
    "m_resolvent_grid": lambda spec, z: weyl.m_resolvent_grid(spec, [0.3 + 0.1j, z]),
    "jost_chain": lambda spec, z: weyl.jost_chain(spec, z, 8),
    "green_block": lambda spec, z: weyl.green_block(spec, 1, 2, z),
    "herglotz_identity_check": weyl.herglotz_identity_check,
}


@pytest.mark.parametrize("route", sorted(_M_ROUTES))
@pytest.mark.parametrize("z", _OUTSIDE_DOMAIN, ids=str)
def test_every_m_route_raises_domain_error_outside_the_domain(random_bounded2, route, z):
    with pytest.raises(DomainError, match=f"got z = {re.escape(str(z))}"):
        _M_ROUTES[route](random_bounded2, z)


@pytest.mark.parametrize("xs, ladder", [
    ([0.3], (0.1, 0.01, 5e-9)),
    ([0.3], (math.nan, 0.1, 0.01)),
    ([math.nan], (0.1, 0.01, 0.001)),
    ([0.3], (math.inf, 0.1, 0.01)),
])
def test_rank_ladder_raises_domain_error_outside_the_domain(random_bounded2, xs, ladder):
    with pytest.raises(DomainError):
        weyl.im_m_boundary_grid(random_bounded2, [0.5, *xs], ladder)


@pytest.mark.parametrize("y", [5e-9, math.nan])
def test_jl_bounds_raises_domain_error_below_the_floor(random_bounded2, y):
    # the report's y must be the y its M was solved at, so M is never
    # solved at a raised y
    with pytest.raises(DomainError):
        weyl.jl_bounds(random_bounded2, 4.5, y)


def test_resolvent_matches_dense_solve(random_bounded2):
    z = 0.8 + 0.3j
    n_blocks = 256
    got = weyl._banded_corner_block(random_bounded2, [z], n_blocks)[0]
    big = dense_halfline_matrix(random_bounded2, n_blocks)
    l = random_bounded2.dim
    inv = np.linalg.inv(big - z * np.eye(n_blocks * l))
    assert np.allclose(got, inv[:l, :l], atol=1e-11)


def test_herglotz_identity_residuals(free1, free2, random_bounded2):
    assert weyl.herglotz_identity_residual(free1, 1j) <= 1e-8
    assert weyl.herglotz_identity_residual(free2, 0.6 + 0.25j) <= 1e-8
    assert weyl.herglotz_identity_residual(random_bounded2, -0.3 + 0.1j) <= 1e-6


def test_herglotz_identity_random_energies(random_bounded2):
    rng = np.random.default_rng(17)
    for _ in range(5):
        z = complex(rng.uniform(-2, 2), 0.1)
        assert weyl.herglotz_identity_residual(random_bounded2, z) <= 1e-6


def test_herglotz_slow_decay_is_flagged_with_its_tail(free1, monkeypatch):
    # near the spectrum the Jost terms decay too slowly for the term cap:
    # the check stops there, flags it, and its tail estimate is the part of
    # the identity the truncated sum misses
    monkeypatch.setattr(weyl, "HERGLOTZ_MAX_TERMS", 512)
    check = weyl.herglotz_identity_check(free1, 0.5 + 0.01j)
    assert check.slow_decay and check.n_terms == 512
    assert check.tail_estimate == pytest.approx(check.residual, rel=0.05)


def test_herglotz_infinite_tail_is_slow_decay(free1, monkeypatch):
    # Jost terms that do not decay (rho >= 1) have no geometric tail: the
    # check reads it as infinite and flags slow decay, without raising
    z = 0.5 + 0.1j
    m1 = weyl.m_riccati(free1, z)

    def flat_chain(spec, z, n_max, tol, descents):
        return np.ones((n_max + 1, 1, 1), dtype=complex), m1

    monkeypatch.setattr(weyl, "_jost_chain", flat_chain)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check = weyl.herglotz_identity_check(free1, z)
    assert check.slow_decay and check.tail_estimate == math.inf
    assert check.n_terms == weyl.HERGLOTZ_MAX_TERMS and math.isfinite(check.residual)


def test_green_corner_equals_m(free1, random_bounded2):
    for spec in (free1, random_bounded2):
        z = 0.25 + 0.15j
        m_val = weyl.m_riccati(spec, z, tol=1e-12)
        g11 = weyl.green_block(spec, 1, 1, z)
        assert fro(g11 - m_val.m) <= 1e-10 * max(1.0, fro(m_val.m))


def test_green_symmetry(random_bounded2):
    z = -0.5 + 0.2j
    rng = np.random.default_rng(18)
    for _ in range(6):
        p, q = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        gpq = weyl.green_block(random_bounded2, p, q, z)
        gqp = weyl.green_block(random_bounded2, q, p, z)
        assert fro(gpq - gqp.T) <= 1e-9 * max(1.0, fro(gpq))


def test_green_reproduces_resolvent_action(random_bounded2):
    z = 0.35 + 0.2j
    l = random_bounded2.dim
    n_blocks = 400
    big = dense_halfline_matrix(random_bounded2, n_blocks)
    inv = np.linalg.inv(big - z * np.eye(n_blocks * l))
    blocks = {
        (p, q): weyl.green_block(random_bounded2, p, q, z) for p in (1, 2, 5, 9) for q in range(1, 14)
    }
    rng = np.random.default_rng(19)
    for _ in range(5):
        u = np.zeros(n_blocks * l, dtype=complex)
        support = rng.integers(1, 10, size=3)
        for s in support:
            u[(s - 1) * l : s * l] = rng.normal(size=l)
        want = inv @ u
        for p in (1, 2, 5, 9):
            got = np.zeros(l, dtype=complex)
            for q in range(1, 14):
                got += blocks[p, q] @ u[(q - 1) * l : q * l]
            assert np.linalg.norm(got - want[(p - 1) * l : p * l]) <= 1e-8


def test_green_column_decay_matches_dense(free1):
    z = 0.3 + 0.4j
    n_blocks = 300
    big = dense_halfline_matrix(free1, n_blocks)
    inv = np.linalg.inv(big - z * np.eye(n_blocks))
    col = [abs(weyl.green_block(free1, 1, q, z)[0, 0]) for q in range(1, 20)]
    dense_col = [abs(inv[0, q - 1]) for q in range(1, 20)]
    assert np.allclose(col, dense_col, rtol=1e-8)
    ratios = [col[i + 1] / col[i] for i in range(5, 18)]
    assert max(ratios) < 1.0  # geometric decay along the row


def test_green_far_column_matches_dense_solve(free1):
    # G(1, q) for q deep in the decaying tail, where assembling the Jost
    # solution as psi - phi M D0 loses digits exponentially in q
    z = 0.5 + 0.05j
    n_blocks = 1400
    e1 = np.zeros(n_blocks, dtype=complex)
    e1[0] = 1.0
    col = np.linalg.solve(dense_halfline_matrix(free1, n_blocks) - z * np.eye(n_blocks), e1)
    for q in (40, 160, 320):
        got = weyl.green_block(free1, 1, q, z)[0, 0]
        assert abs(got - col[q - 1]) <= 1e-12 * abs(col[q - 1])


def test_jost_chain_matches_direct_assembly(random_bounded2):
    z = 0.1 + 0.35j
    blocks, m_val = weyl.jost_chain(random_bounded2, z, 25)
    phi, psi = recurrence.dirichlet_neumann(random_bounded2, z, 26)
    assembled = recurrence.jost_assemble(phi, psi, m_val.m)
    for n in range(26):
        scale = max(fro(blocks[n]), 1e-300)
        assert fro(blocks[n] - assembled.block(n)) <= 1e-9 * max(1.0, scale) + 1e-12


def test_boundary_rank_free_and_diagonal(free2, diag01):
    assert weyl.im_m_boundary(free2, 0.0).rank == 2
    out = weyl.im_m_boundary(free2, 3.0)
    assert out.rank == 0
    assert out.trace_growth < 0.2  # trace ladder stays bounded
    assert weyl.im_m_boundary(diag01, -1.5).rank == 1


def test_boundary_rank_grid_matches_single(diag01):
    xs = np.array([-1.5, 0.5, 3.5])
    grid = weyl.im_m_boundary_grid(diag01, xs)
    for x, got in zip(xs, grid):
        single = weyl.im_m_boundary(diag01, x)
        assert got.rank == single.rank
        assert got.ranks == single.ranks


def test_jl_bounds_free_scalar(free1):
    rep = weyl.jl_bounds(free1, 0.3, 0.05)
    assert rep.verdict is True
    assert rep.k1 > 0 and rep.k2 > 0
    assert rep.solver_residual <= 1e-10


def test_jl_bounds_large_y_trivial(free1):
    rep = weyl.jl_bounds(free1, 0.0, 10.0)
    assert rep.verdict is True
    assert rep.ratio <= 0.2  # the numerator norm is tiny near L = 1


def test_jl_constants_formulas(free1):
    b, k1, k2 = weyl.jl_constants(free1)
    assert b == pytest.approx(-11.0)
    assert k1 == pytest.approx(1.0 / 11.0)
    assert k2 == pytest.approx(22.0)


@pytest.mark.parametrize(
    "name, spoil, what",
    [
        ("diag01", np.conj, "Im M lost positivity"),
        ("periodic3", lambda m: m + np.triu(np.full((3, 3), 1e-3), 1), "m-function lost symmetry"),
        ("diag01", lambda m: m + np.triu(np.full((2, 2), 1e-3), 1), "m-function lost symmetry"),
        ("diag01", lambda m: np.full_like(m, np.nan), "M is not finite"),
    ],
    ids=["herglotz", "symmetry", "symmetry-l2", "not-finite"],
)
def test_boundary_grid_guards_name_the_point(name, spoil, what, request, monkeypatch):
    spec = request.getfixturevalue(name)
    with pytest.raises(InvalidInputError):
        weyl.im_m_boundary_grid(spec, [0.5], (0.01, 0.1, 0.001))
    real = weyl.m_riccati_rungs

    def spoiled(spec, z, **kw):
        m, depths, deltas = real(spec, z, **kw)
        m[1, 2] = spoil(m[1, 2])  # second rung, third energy
        return m, depths, deltas

    monkeypatch.setattr(weyl, "m_riccati_rungs", spoiled)
    with pytest.raises(ConvergenceError, match=f"{what} at x = 1.25, y = 0.05"):
        weyl.im_m_boundary_grid(spec, [-1.5, 0.5, 1.25], (0.1, 0.05, 0.03))


def test_weylm_guard_rejects_non_finite_m(random_bounded2):
    m = np.full((1, random_bounded2.dim, random_bounded2.dim), np.nan, dtype=complex)
    with pytest.raises(ConvergenceError, match="M is not finite at x = 0.3, y = 0.1"):
        weyl._im_m_eigenvalues(m, np.array([0.3 + 0.1j]), (64,), (math.nan,))


@pytest.mark.parametrize(
    "name", ["diag01", "random_bounded2", "periodic3", "golden_amo", "reflected_amo", "wrap"]
)
def test_descent_chunk_boundaries_do_not_change_results(name, request, monkeypatch):
    if name == "reflected_amo":
        spec = models.reflect(request.getfixturevalue("golden_amo"))
    elif name == "wrap":
        spec = request.getfixturevalue("wrap_alternating")
    else:
        spec = request.getfixturevalue(name)
    z = np.linspace(-2.9, 3.1, 5) + 0.05j
    want = weyl._riccati_descent(spec, z, 100, collect_to=40)
    monkeypatch.setattr(weyl, "_CHUNK", 3)
    got = weyl._riccati_descent(spec, z, 100, collect_to=40)
    assert np.array_equal(got[0], want[0])
    assert all(np.array_equal(a, b) for a, b in zip(got[1][1:], want[1][1:]))


def test_riccati_grid_matches_single(random_bounded2, monkeypatch):
    monkeypatch.setattr(weyl, "LADDER_TOL", 1e-10)
    xs = np.array([-1.0, 0.0, 2.2])
    m_grid, _, _ = weyl.m_riccati_grid(random_bounded2, xs, 0.05)
    for j, x in enumerate(xs):
        single = weyl.m_riccati(random_bounded2, complex(x, 0.05), tol=1e-10)
        assert fro(m_grid[j] - single.m) <= 1e-8


@pytest.mark.parametrize("name", ["free1", "diag01", "random_bounded2", "periodic3"])
def test_fused_ladder_matches_per_rung_descents(name, request):
    spec = request.getfixturevalue(name)
    xs = np.linspace(-3.2, 3.2, 9)
    ladder = (0.1, 0.05, 0.03)
    fused = weyl.im_m_boundary_grid(spec, xs, ladder)
    eigs = []
    for i, y in enumerate(ladder):
        m, depth, delta = weyl.m_riccati_grid(spec, xs, y)
        m_ref, depth_ref, _ = riccati_grid_direct(spec, xs, y)
        assert depth == depth_ref
        assert np.max(np.abs(m - m_ref)) <= 1e-12
        # rung data kept on every verdict is what the one-rung call returns
        assert all(r.depths[i] == depth and r.last_deltas[i] == delta for r in fused)
        eigs.append(np.linalg.eigvalsh(m_ref.imag))
    for got, ref in zip(fused, weyl._ladder_verdicts(xs, ladder, np.array(eigs))):
        assert (got.ranks, got.rank) == (ref.ranks, ref.rank)
        assert np.max(np.abs(np.array(got.eigenvalues) - np.array(ref.eigenvalues))) <= 1e-12


class _PoisonedSpec:
    """Duck-typed l = 2 family with a NaN potential at one index."""

    dim = 2

    def coefficient_at(self, n):
        v = np.full((2, 2), np.nan) if n == 5 else np.diag([0.0, 1.0])
        return np.eye(2), v


def test_non_finite_rung_raises_at_first_comparison():
    xs = np.linspace(-1.0, 1.0, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the error comes alone
        with pytest.raises(ConvergenceError) as exc:
            weyl.m_riccati_grid(_PoisonedSpec(), xs, 0.1)
        assert exc.value.depth == 128
        with pytest.raises(ConvergenceError) as exc:
            weyl.im_m_boundary_grid(_PoisonedSpec(), xs, (0.1, 0.03, 0.01))
        assert exc.value.depth == 128


def test_resolvent_cauchy_once_converged(random_bounded2):
    z = 0.7 + 0.25j
    tol = 1e-10
    converged = weyl.m_resolvent(random_bounded2, z, tol=tol)
    doubled = weyl._banded_corner_block(random_bounded2, [z], 2 * converged.depth)[0]
    assert fro(converged.m - doubled) < tol


def test_ladder_indeterminate_on_drifting_eigenvalues():
    # synthetic rungs whose retained counts flip between rungs: no guess
    eig_list = [
        np.array([0.01, 1.0]),
        np.array([0.011, 1.0]),
        np.array([0.002, 1.0]),
        np.array([0.0021, 1.0]),
        np.array([0.0004, 1.0]),
    ]
    [out] = weyl._ladder_verdicts([0.0], weyl.DEFAULT_Y_LADDER, np.array(eig_list)[:, None])
    assert out.indeterminate and out.rank is None


def _starve_smallest_singular(monkeypatch, xs=None):
    """Make the batched reader give s_l[phi]_L = 0 at the points of ``xs`` (all if None)."""
    real = truncnorm.truncated_values

    def starved(tracks, l_values, k=None):
        out = real(tracks, l_values, k)
        if k == tracks[0].dim:
            out[[xs is None or t.z in xs for t in tracks]] = 0.0
        return out

    monkeypatch.setattr(truncnorm, "truncated_values", starved)


def test_jl_bounds_condition_overflow_status(free1, monkeypatch):
    _starve_smallest_singular(monkeypatch)
    rep = weyl.jl_bounds(free1, 0.3, 0.1)
    assert rep.status == "condition-overflow"
    assert rep.verdict is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x, y", [(0.3, 1e8), (1e30, 0.1)])
def test_jl_bounds_give_no_verdict_on_an_unresolved_cutoff(free1, x, y):
    # at y = 1e8 the cutoff sits within an ulp of 1 (L - 1 ~ 2.5e-17); at
    # x = 1e30 the track sums leave float range: the solver residual is 1.0
    # at both, so neither point may read as a bound that fails or holds
    got = weyl.jl_bounds(free1, x, y)
    assert got.solver_residual == 1.0 and got.status == "cutoff-unresolved"
    assert got.verdict is None and got.lower is None and got.upper is None
    _, k1, k2 = weyl.jl_constants(free1)
    pair = recurrence.dirichlet_neumann(free1, x, truncnorm.INITIAL_TRACK_BLOCKS)
    m_val = weyl.m_resolvent(free1, complex(x, y), tol=weyl.JL_M_TOL)
    _same_report(got, jl_report_reference(free1, x, y, pair, m_val, k1, k2, 1e-9))


@pytest.mark.parametrize("name", ["random_bounded2", "golden_amo", "periodic3"])
def test_banded_corner_block_matches_reference_loop(name, request):
    # golden_amo (l = 1) goes through LAPACK's tridiagonal solver, the others
    # through the general banded LU; a stack of systems gives each corner
    # bit for bit as its own solve
    spec = request.getfixturevalue(name)
    zs = [0.37 + 0.05j, -1.4 + 0.002j, 2.6 + 0.8j, 0.1 + 1e-8j]
    for n_blocks in (8, 64, 257):
        refs = [banded_corner_block_reference(spec, z, n_blocks) for z in zs]
        for count in range(1, len(zs) + 1):
            got = weyl._banded_corner_block(spec, zs[:count], n_blocks)
            assert got.shape == (count, spec.dim, spec.dim)
            for k in range(count):
                assert np.array_equal(got[k], refs[k])


@pytest.mark.parametrize("name", ["random_bounded2", "golden_amo", "periodic3", "free1"])
def test_banded_corner_block_near_top_down_solve(name, request):
    # the reversed elimination moves M only in the last bits against the
    # solve in block order 1..N; with one block the tail window of the
    # factor is clipped at row 0, with two it is the whole system; one point
    # of one block at l = 1 is a tridiagonal system of one row
    spec = request.getfixturevalue(name)
    zs = [0.37 + 0.05j, -1.4 + 0.002j, 2.6 + 0.8j, 0.1 + 1e-8j]
    for n_blocks in (1, 2, 3, 8, 257):
        for points in (zs, zs[:1]):
            got = weyl._banded_corner_block(spec, points, n_blocks)
            for k, z in enumerate(points):
                ref = banded_corner_block_top_down(spec, z, n_blocks)
                assert fro(got[k] - ref) <= 1e-12 * fro(ref)
    if name == "free1":  # the one-block truncation of the free chain is -z
        assert np.allclose(weyl._banded_corner_block(spec, zs[:1], 1)[0], -1 / zs[0])


@pytest.mark.parametrize("name", ["free1", "random_bounded2", "periodic3"])
def test_banded_corner_block_of_no_points_is_empty(name, request):
    spec = request.getfixturevalue(name)
    got = weyl._banded_corner_block(spec, [], 8)
    assert got.shape == (0, spec.dim, spec.dim) and got.dtype == complex


@pytest.mark.parametrize("name", ["free1", "diag01"])
def test_banded_corner_block_rejects_singular_and_non_finite_bands(name, request):
    # z = 0 is an eigenvalue of the 9-block truncation of the free chain (and
    # of diag(0,1)'s first channel), so the band is singular; a NaN potential
    # at n = 5 makes it non-finite
    spec = request.getfixturevalue(name)
    with pytest.raises(np.linalg.LinAlgError):
        weyl._banded_corner_block(spec, [0.3 + 0.1j, 0.0], 9)
    with pytest.raises(ValueError, match="infs or NaNs"):
        weyl._banded_corner_block(_PoisonedSpec(), [0.5 + 0.1j], 9)


def _same_weyl_m(a, b):
    for f in dataclasses.fields(weyl.WeylM):
        u, v = getattr(a, f.name), getattr(b, f.name)
        if isinstance(u, np.ndarray):
            assert np.array_equal(u, v), f.name
        elif isinstance(u, float) and math.isnan(u):
            assert math.isnan(v), f.name
        else:
            assert u == v, f.name


# in-band and far energies; 4.5 + 1e-8j, off the spectrum, sits at the domain floor
_RESOLVENT_ZS = [0.37 + 0.05j, -1.4 + 0.02j, 2.6 + 0.8j, 4.5 + 1e-8j, 0.9 + 0.004j, -0.3 + 0.3j]


def test_resolvent_grid_matches_single_points(random_bounded2, monkeypatch):
    stacks = []  # (points, blocks) of every banded solve
    real = weyl._banded_corner_block

    def spy(spec, zs, n):
        stacks.append((len(zs), len(zs) * n))
        return real(spec, zs, n)

    monkeypatch.setattr(weyl, "_banded_corner_block", spy)
    grid = weyl.m_resolvent_grid(random_bounded2, _RESOLVENT_ZS, tol=1e-9)
    monkeypatch.undo()
    assert any(points > 1 for points, _ in stacks)
    for points, blocks in stacks:
        # a stack holds at most _STACK_BLOCKS blocks, unless it is one point
        assert points == 1 or blocks <= weyl._STACK_BLOCKS
    assert len({m.depth for m in grid}) > 1  # points leave the doubling one by one
    for z, got in zip(_RESOLVENT_ZS, grid):
        _same_weyl_m(got, weyl.m_resolvent(random_bounded2, z, tol=1e-9))


def test_resolvent_breakdown_propagates(random_bounded2, monkeypatch):
    # no retry: a breakdown in any stack reaches the caller as LinAlgError
    real = weyl._banded_corner_block
    zs = _RESOLVENT_ZS[:3]

    def breaks_at_second_point(spec, stack, n):
        if zs[1] in [complex(z) for z in stack]:
            raise np.linalg.LinAlgError("forced pivot breakdown")
        return real(spec, stack, n)

    monkeypatch.setattr(weyl, "_banded_corner_block", breaks_at_second_point)
    with pytest.raises(np.linalg.LinAlgError, match="forced pivot breakdown"):
        weyl.m_resolvent_grid(random_bounded2, zs, tol=1e-9)
    with pytest.raises(np.linalg.LinAlgError, match="forced pivot breakdown"):
        weyl.jl_bounds_grid(random_bounded2, [z.real for z in zs], [z.imag for z in zs])


def test_resolvent_grid_guards_once_per_call(random_bounded2, monkeypatch):
    sizes = []
    real = weyl._im_m_eigenvalues

    def spy(m, *args):
        sizes.append(len(m))
        return real(m, *args)

    monkeypatch.setattr(weyl, "_im_m_eigenvalues", spy)
    weyl.m_resolvent_grid(random_bounded2, _RESOLVENT_ZS, tol=1e-9)
    assert sizes == [len(_RESOLVENT_ZS)]
    assert weyl.m_resolvent_grid(random_bounded2, []) == [] and len(sizes) == 1


def test_resolvent_grid_holds_one_solve_at_a_time(random_bounded2):
    # past _STACK_BLOCKS every point is its own stack; a stack's solution
    # goes once its corners are copied out, so the grid peaks at one solve
    import tracemalloc

    from scipy.linalg import lapack  # noqa: F401  (loaded before tracing)

    zs = np.linspace(-1.5, 1.5, 8) + 0.01j
    found = []

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    grid = peak(lambda: found.extend(weyl.m_resolvent_grid(random_bounded2, zs)))
    n_blocks = max(m.depth for m in found)  # 8192, at x = 0.214
    assert n_blocks > weyl._STACK_BLOCKS
    one = peak(lambda: weyl._banded_corner_block(random_bounded2, zs[:1], n_blocks))
    assert grid <= 1.2 * one, (grid / 2**20, one / 2**20)


def test_resolvent_grid_names_first_point_not_cauchy(random_bounded2, monkeypatch):
    zs = [0.5 + 0.5j, 0.3 + 1e-4j, 0.6 + 1e-4j]
    monkeypatch.setattr(weyl, "RESOLVENT_MAX_DEPTH", 256)
    with pytest.raises(ConvergenceError) as exc:
        weyl.m_resolvent_grid(random_bounded2, zs, tol=1e-9)
    assert exc.value.depth == 256 and f"z = {zs[1]}" in str(exc.value)


def test_resolvent_non_finite_delta_names_its_depth(random_bounded2, monkeypatch):
    real = weyl._banded_corner_block
    depths = []

    def nan_on_second_doubling(spec, zs, n):
        depths.append(n)
        corners = real(spec, zs, n)
        return np.full_like(corners, np.nan) if len(depths) == 2 else corners

    monkeypatch.setattr(weyl, "_banded_corner_block", nan_on_second_doubling)
    with pytest.raises(ConvergenceError) as exc:
        weyl.m_resolvent(random_bounded2, 0.3 + 0.01j, tol=1e-9)
    assert exc.value.depth == depths[1] == 2 * weyl.INITIAL_DEPTH
    assert "not finite" in str(exc.value)


def test_jost_chain_not_cauchy_at_cap_reports_its_delta(random_bounded2, monkeypatch):
    monkeypatch.setattr(weyl, "RICCATI_MAX_DEPTH", 1024)
    with pytest.raises(ConvergenceError) as exc:
        weyl.jost_chain(random_bounded2, 0.1 + 1e-3j, 25, tol=1e-300)
    assert exc.value.depth == 1024
    assert exc.value.last_delta is not None and math.isfinite(exc.value.last_delta)


def test_herglotz_check_descends_each_depth_once(random_bounded2, monkeypatch):
    z = 0.5 + 0.01j
    monkeypatch.setattr(weyl, "HERGLOTZ_START_TERMS", 4096)
    want = dataclasses.astuple(weyl.herglotz_identity_check(random_bounded2, z))
    monkeypatch.undo()
    depths = []
    real = weyl._riccati_descent

    def counted(spec, zs, depth, collect_to=0):
        depths.append(depth)
        return real(spec, zs, depth, collect_to)

    monkeypatch.setattr(weyl, "_riccati_descent", counted)
    got = weyl.herglotz_identity_check(random_bounded2, z)
    # n doubles 256 .. 4096; a fresh chain per n descended 115,712 steps
    assert len(depths) == len(set(depths)) and sum(depths) <= 65536
    assert dataclasses.astuple(got) == want


def _same_report(a, b):
    for f in dataclasses.fields(weyl.JLBoundReport):
        u, v = getattr(a, f.name), getattr(b, f.name)
        if isinstance(u, float) and math.isnan(u):
            assert isinstance(v, float) and math.isnan(v), f.name
        else:
            assert u == v, f.name


# (x, y) pairs per model; the last one needs its tracks extended past 256
# blocks (cutoff L = 345.6 on free2, 267.8 on random_bounded2)
_JL_POINTS = {
    "free2": ([0.3, -1.2, 2.5, 3.1, 0.0, -2.2, 0.3], [0.05, 0.02, 0.1, 0.03, 0.5, 0.01, 0.001]),
    "random_bounded2": (
        [-1.0, 0.4, 1.0, 2.8, -0.5, 0.0, 0.4], [0.05, 0.02, 0.1, 0.03, 0.005, 0.2, 0.001]
    ),
}


@pytest.mark.parametrize("name", ["free2", "random_bounded2"])
def test_jl_bounds_grid_matches_single_points(name, request, monkeypatch):
    spec = request.getfixturevalue(name)
    xs, ys = _JL_POINTS[name]
    monkeypatch.setattr(truncnorm, "GROW_BLOCKS", 192)  # 7 points start as 3 + 3 + 1
    grid = weyl.jl_bounds_grid(spec, xs, ys)
    assert len(grid) == len(xs)
    assert grid[-1].l_cutoff > 256
    for x, y, got in zip(xs, ys, grid):
        _same_report(got, weyl.jl_bounds(spec, x, y))


def test_jl_bounds_grid_condition_overflow_matches_single(free1, monkeypatch):
    _starve_smallest_singular(monkeypatch)
    xs, ys = [0.3, 1.1, -0.4], [0.1, 0.05, 0.2]
    grid = weyl.jl_bounds_grid(free1, xs, ys)
    for x, y, got in zip(xs, ys, grid):
        assert got.status == "condition-overflow" and got.verdict is None
        _same_report(got, weyl.jl_bounds(free1, x, y))


def test_jl_bounds_grid_drops_the_tracks_of_crossed_points(diag01, monkeypatch):
    # diag(0,1) at these points needs 16 to 512 blocks: when any point's
    # tracks grow, no track of a point already solved is alive
    xs = np.linspace(0.2, 1.8, 9)
    ys = [0.3, 2e-3, 0.05, 1e-3, 5e-3, 0.01, 8e-4, 0.1, 3e-3]
    refs, alive = [], []
    solved, extend = truncnorm._solved, recurrence.extend_tracks

    def solved_spy(phis, psis, *rest):
        refs.extend(weakref.ref(t) for t in (*phis, *psis))
        return solved(phis, psis, *rest)

    def extend_spy(tracks, n_new):
        alive.append(sum(ref() is not None for ref in refs))
        return extend(tracks, n_new)

    monkeypatch.setattr(truncnorm, "_solved", solved_spy)
    monkeypatch.setattr(recurrence, "extend_tracks", extend_spy)
    weyl.jl_bounds_grid(diag01, xs, ys)
    assert len(alive) > 2 and not any(alive)
    assert len(refs) == 2 * len(xs)


@pytest.mark.parametrize("name", ["free1", "random_bounded2"])
def test_jl_bounds_grid_matches_the_per_point_route(name, request, monkeypatch):
    # y = 0.001 grows the tracks past 16 blocks; at x = 1e5 the Dirichlet
    # track rescales inside its first 16 blocks and the Neumann track does
    # not; the point at x = -0.4 is starved into condition-overflow; 40
    # random points give array arithmetic that rounds unlike the scalar
    # route (numpy's array power, say) a chance to show
    spec = request.getfixturevalue(name)
    rng = np.random.default_rng(8)
    xs = [0.3, 1e5, -0.4, 1.1, 2.5, *rng.uniform(-3.0, 3.0, 40).tolist()]
    ys = [0.001, 0.1, 0.2, 0.05, 0.03, *np.exp(rng.uniform(np.log(0.005), 0.0, 40)).tolist()]
    _starve_smallest_singular(monkeypatch, xs=[-0.4])
    grid = weyl.jl_bounds_grid(spec, xs, ys)
    _, k1, k2 = weyl.jl_constants(spec)
    for x, y, got in zip(xs, ys, grid):
        pair = recurrence.dirichlet_neumann(spec, x, truncnorm.INITIAL_TRACK_BLOCKS)
        if x == 1e5:
            assert pair[0].exp2[-1] > 0 and not pair[1].exp2.any()
        m_val = weyl.m_resolvent(spec, complex(x, y), tol=1e-9)
        _same_report(got, jl_report_reference(spec, x, y, pair, m_val, k1, k2, 1e-9,
                                              starved=x == -0.4))
    assert grid[0].l_cutoff > truncnorm.INITIAL_TRACK_BLOCKS
    assert [r.status for r in grid] == ["ok", "ok", "condition-overflow"] + ["ok"] * 42


@pytest.mark.parametrize("ladder", [(0.1,), (0.1, 0.01)])
def test_ladder_that_cannot_stabilise_is_rejected(diag01, ladder):
    # a rank needs a rung k >= 2 that repeats rung k - 1: three rungs at least
    with pytest.raises(InvalidInputError, match="at least three"):
        weyl.im_m_boundary_grid(diag01, [0.5], ladder)
    with pytest.raises(InvalidInputError, match="at least three"):
        weyl.im_m_boundary(diag01, 0.5, ladder)


_SCIPY_PROBE = """
import sys
import numpy as np
import jacobispec
from jacobispec import classify, config, models, weyl

# the set-up of a jl-sweep run: read the config, build and validate the model
cfg = config.load_config(sys.argv[1])
models.validate_model(models.spec_from_config(cfg.model), int(cfg.params.get("window", 100)))
print("setup", "scipy.linalg" in sys.modules)
spec = jacobispec.PeriodicSpec((np.eye(2),), (np.diag([0.0, 1.0]),))
records = classify.scan_energy_grid(spec, np.linspace(-3.0, 3.0, 4),
                                    classify.ScanParams(l_grid=(64, 128)))
assert all(r.r_rank is not None for r in records)
print("scan", "scipy.linalg" in sys.modules)
weyl.m_resolvent(spec, 0.5 + 0.1j)
print("resolvent", "scipy.linalg" in sys.modules)
"""


def test_only_the_resolvent_loads_scipy(tmp_path):
    # a jl-sweep's set-up and a scan of a narrow periodic model never run the
    # banded resolvent, so they should not pay scipy's import time and memory
    cfg = tmp_path / "jl.yaml"
    cfg.write_text(yaml.safe_dump({
        "model": {"kind": "periodic", "ds": [[[1.0, 0.2], [0.2, 0.9]]], "vs": [[[0.0, 0.1], [0.1, 0.5]]]},
        "task": "jl-sweep", "params": {"n_points": 4}, "seed": 3,
    }), encoding="utf-8")
    src = str(Path(weyl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(cfg)], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["setup", "False", "scan", "False", "resolvent", "True"]
