"""Weyl m-functions, Green blocks, boundary-value ranks, and the
subordinacy (truncated-norm) bounds on ||M||.

Two independent routes compute the same l-by-l Herglotz matrix M(z):

* ``m_riccati``: the descending corner-resolvent recursion
  M_n = ((V_n - z) - D_n M_{n+1} D_n)^-1 seeded with a Dirichlet wall
  (M = 0) at a doubling depth, stopped by a Cauchy test on M_1;
* ``m_resolvent``: the (1,1) block of the inverse of the banded
  truncation of the half-line operator, via LAPACK banded LU. Its grid
  form doubles the truncation of many points at once: the truncations of
  one doubling sit block-diagonally, uncoupled, in one band matrix, so
  one LAPACK call solves them all, and each corner comes out bit for bit
  as its own solve would give it. A stack holds at most
  ``_STACK_BLOCKS`` blocks: its band, right-hand side and solution grow
  with points times truncation, and uncapped stacks of a whole sweep
  chunk at its deepest doubling cost several MB of peak memory.

Both equal the Green block G(1,1;z) in exact arithmetic; their agreement
is the package's primary cross-check. The descent reads coefficients in
chunks through ``models.coefficient_arrays``. One guard checks each
``WeylM`` and every rung of the rank ladder: M finite, Herglotz, symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import matblock, models, recurrence, truncnorm
from .errors import ConvergenceError, DomainError, InvalidInputError

MIN_IM_Z = 1e-8
DEFAULT_Y_LADDER = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
SYMMETRY_REL_TOL = 1e-8
HERGLOTZ_EIG_TOL = 1e-10


@dataclass
class WeylM:
    """An m-function value with its convergence metadata."""

    z: complex
    m: np.ndarray
    method: str
    depth: int
    last_delta: float
    bumped: bool = False  # Im z was raised to the domain floor or past a solve breakdown

    def __post_init__(self):
        _im_m_eigenvalues(self.m[None], np.array([self.z]), (self.depth,), (self.last_delta,))

    @property
    def frobenius_norm(self):
        return matblock.frobenius_norm(self.m)

    @property
    def operator_norm(self):
        return matblock.operator_norm(self.m)


def _require_upper(z):
    z = complex(z)
    if z.imag < MIN_IM_Z:
        raise DomainError(f"need Im z >= {MIN_IM_Z}, got {z.imag}")
    return z


# Upper-triangle components of a complex-symmetric block for l <= 2.
_SYM_INDEX = {1: ((0, 0),), 2: ((0, 0), (0, 1), (1, 1))}


def _sandwich_weights(d):
    """For a stack of D: W[k] with (D_k M D_k)_c = sum_j W[k, c, j] m_j on the
    symmetric components of M, and the steps where W[k] = I (a D = I step
    costs no arithmetic)."""
    idx = _SYM_INDEX[d.shape[-1]]
    w = np.moveaxis(np.array([
        [d[:, i, a] * d[:, b, j] + (d[:, i, b] * d[:, a, j] if a != b else 0.0) for a, b in idx]
        for i, j in idx
    ]), -1, 0)
    return w.astype(complex, order="C"), np.all(w == np.eye(len(idx)), axis=(1, 2)).tolist()


def _sym_blocks(comps, l):
    out = np.empty((comps[0].size, l, l), dtype=complex)
    for (i, j), m in zip(_SYM_INDEX[l], comps):
        out[:, i, j] = m
        out[:, j, i] = m
    return out


# coefficient steps the descent reads at once
_CHUNK = 256


def _descending_chunks(spec, depth):
    """(n_low, D, V) for n = depth .. 1 in descending chunks; [k] holds n_low + k."""
    for top in range(depth, 0, -_CHUNK):
        low = max(top - _CHUNK, 0) + 1
        yield (low, *models.coefficient_arrays(spec, low, top + 1))


def _riccati_descent(spec, z, depth, collect_to=0):
    """Descend M_n = ((V_n - z) - D_n M_{n+1} D_n)^-1 from a zero seed.

    ``z`` is a flat array of complex energies. Returns M_1 with shape
    (z.size, l, l) and, when ``collect_to`` > 0, the chain M_1..M_collect_to
    (index n holds M_n). Coefficients are read in descending chunks through
    :func:`models.coefficient_arrays`. For l <= 2 M stays complex symmetric
    and is carried as its upper-triangle components, inverted through the
    determinant; larger l uses stacked matmul and ``matblock.batched_inv``.
    """
    z = np.asarray(z, dtype=complex)
    l = spec.dim
    chain = [None] * (collect_to + 1) if collect_to else None
    if l > 2:
        zz = z[:, None, None] * np.eye(l)
        m = np.zeros((z.size, l, l), dtype=complex)
        for low, d, v in _descending_chunks(spec, depth):
            for k in range(len(d) - 1, -1, -1):
                m = matblock.batched_inv((v[k] - zz) - d[k] @ m @ d[k])
                if low + k <= collect_to:
                    chain[low + k] = m
        return m, chain

    idx = _SYM_INDEX[l]
    comps = tuple(np.zeros(z.size, dtype=complex) for _ in idx)
    for low, d, v in _descending_chunks(spec, depth):
        w, plain = _sandwich_weights(d)
        v = np.stack([v[:, i, j] for i, j in idx], axis=1).tolist()  # Python floats
        for k in range(len(d) - 1, -1, -1):
            p = comps if plain[k] else w[k] @ np.stack(comps)
            v_n = v[k]
            if l == 1:
                comps = (1.0 / ((v_n[0] - z) - p[0]),)
            else:
                a = (v_n[0] - z) - p[0]
                b = v_n[1] - p[1]
                c = (v_n[2] - z) - p[2]
                det = a * c - b * b
                comps = (c / det, -b / det, a / det)
            if low + k <= collect_to:
                chain[low + k] = _sym_blocks(comps, l)
    return _sym_blocks(comps, l), chain


def m_riccati(spec, z, tol=1e-10, max_depth=2**18, initial_depth=64):
    """m-function by the descending corner recursion with depth doubling."""
    z = _require_upper(z)
    m, depths, deltas = m_riccati_rungs(spec, np.array([[z]]), tol, max_depth, initial_depth)
    return WeylM(z, m[0, 0], "riccati", int(depths[0]), float(deltas[0]))


# Blocks one stacked banded solve holds at most (a point deeper than this is
# solved alone). Uncapped, the benchmark's jl-sweep (rand8, 8 points per
# config) raised peak RSS by 7.3 MB over per-point solves; capped, by 0.5 MB.
_STACK_BLOCKS = 2048


def _banded_corner_block(spec, zs, n_blocks):
    """(1,1) blocks of (T_N - z)^-1 for the N-block half-line truncation.

    The truncations at the P energies ``zs`` sit block-diagonally in one
    band matrix, with no coupling entries between them, and one LAPACK
    banded solve gives every corner; returns shape (P, l, l). The systems
    do not couple, so each corner is the one its own solve would give.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    l = spec.dim
    bw = 2 * l - 1
    ab = np.zeros((2 * bw + 1, zs.size * n_blocks * l), dtype=complex)
    d, v = models.coefficient_arrays(spec, 1, n_blocks + 1)
    diag = v[None] - zs[:, None, None, None] * np.eye(l)
    # D_n couples block n to n + 1; the last block of each system couples to none
    lower = np.zeros((n_blocks, l, l))
    lower[:-1] = d[:-1]
    upper = np.roll(lower, 1, axis=0)
    # LAPACK's diag-ordered band storage: entry (row, col) at ab[bw + row - col, col];
    # band[r, p, n, j] is column j of block n of system p
    band = ab.reshape(2 * bw + 1, zs.size, n_blocks, l)
    for i in range(l):
        for j in range(l):
            band[bw + i - j, :, :, j] = diag[:, :, i, j]
            band[bw + l + i - j, :, :, j] = lower[:, i, j]
            band[bw - l + i - j, :, :, j] = upper[:, i, j]
    rhs = np.zeros((zs.size, n_blocks * l, l), dtype=complex)
    rhs[:, :l, :] = np.eye(l)
    sol = scipy.linalg.solve_banded((bw, bw), ab, rhs.reshape(-1, l))
    return sol.reshape(zs.size, n_blocks * l, l)[:, :l, :]


def _corner_block_guarded(spec, zs, n_blocks):
    """Stacked banded solve with the near-real breakdown guard.

    A pivot breakdown cannot happen for Im z > 0, but if the banded LU
    ever reports singularity, a stack is retried one point at a time and a
    single point once with Im z bumped by the domain floor; callers see the
    bump through the per-point flags. Returns (corners, flags).
    """
    try:
        return _banded_corner_block(spec, zs, n_blocks), [False] * len(zs)
    except np.linalg.LinAlgError:
        if len(zs) > 1:
            parts = [_corner_block_guarded(spec, [z], n_blocks) for z in zs]
            return np.concatenate([m for m, _ in parts]), [flag for _, (flag,) in parts]
        z = zs[0]
        return _banded_corner_block(spec, [complex(z.real, z.imag + MIN_IM_Z)], n_blocks), [True]


def _corner_blocks(spec, zs, n_blocks):
    """Corner blocks at every z, solved in stacks of at most ``_STACK_BLOCKS`` blocks."""
    per = max(_STACK_BLOCKS // n_blocks, 1)
    parts = [_corner_block_guarded(spec, zs[a : a + per], n_blocks) for a in range(0, len(zs), per)]
    return np.concatenate([m for m, _ in parts]), [f for _, flags in parts for f in flags]


def m_resolvent(spec, z, n_blocks=None, tol=1e-10, max_blocks=2**17, initial_blocks=64):
    """m-function as the corner block of the banded-truncation resolvent.

    Independent oracle for :func:`m_riccati`: same limit, different
    algorithm (LAPACK banded LU with pivoting instead of the hand-rolled
    descending recursion). Truncation size doubles until Cauchy unless
    ``n_blocks`` pins it. Batch-of-one form of :func:`m_resolvent_grid`.
    """
    return m_resolvent_grid(spec, [z], n_blocks, tol, max_blocks, initial_blocks)[0]


def m_resolvent_grid(spec, zs, n_blocks=None, tol=1e-10, max_blocks=2**17, initial_blocks=64):
    """:func:`m_resolvent` at every z of ``zs``; a list of ``WeylM``, in order.

    Each doubling solves every point that is not yet Cauchy, stacked; a
    point stops at the first truncation where |M - M_prev|_F < ``tol``, the
    one it reaches on its own. Raises ConvergenceError for the first point
    still not Cauchy at ``max_blocks``.
    """
    zs = [complex(z) for z in zs]
    bumped = [0 < z.imag < MIN_IM_Z for z in zs]
    zs = [_require_upper(complex(z.real, MIN_IM_Z) if b else z) for z, b in zip(zs, bumped)]
    if n_blocks is not None:
        n_blocks = int(n_blocks)
        if n_blocks < 8:
            raise InvalidInputError("need at least 8 blocks")
        ms, hit_guard = _corner_blocks(spec, zs, n_blocks)
        return [WeylM(z, m, "resolvent", n_blocks, float("nan"), b or h)
                for z, m, b, h in zip(zs, ms, bumped, hit_guard)]
    out = [None] * len(zs)
    prev = [None] * len(zs)
    last = [math.inf] * len(zs)  # latest delta of each point
    active = list(range(len(zs)))
    n = int(initial_blocks)
    while n <= max_blocks and active:
        ms, hit_guard = _corner_blocks(spec, [zs[k] for k in active], n)
        still = []
        for k, m, hit in zip(active, ms, hit_guard):
            bumped[k] = bumped[k] or hit
            if prev[k] is not None:
                last[k] = matblock.frobenius_norm(m - prev[k])
                if last[k] < tol:
                    out[k] = WeylM(zs[k], m, "resolvent", n, float(last[k]), bumped[k])
                    continue
            prev[k] = m
            still.append(k)
        active = still
        n *= 2
    if active:
        k = active[0]
        raise ConvergenceError(
            f"resolvent truncation not Cauchy at {max_blocks} blocks for z = {zs[k]}",
            last_delta=float(last[k]),
            depth=max_blocks,
        )
    return out


# ---------------------------------------------------------------------------
# Stable Jost blocks and identities.


def jost_chain(spec, z, n_max, tol=1e-12, max_depth=2**18):
    """Square-summable solution blocks F_0..F_n_max, built stably.

    Uses F_k = -M_k D_{k-1} F_{k-1} with the corner-resolvent chain M_k,
    which decays like the true Jost solution instead of cancelling two
    exponentially growing tracks. Returns (blocks, M_1 WeylM).
    """
    z = _require_upper(z)
    n_max = int(n_max)
    depth = 64
    while depth < 4 * max(n_max, 1):
        depth *= 2
    prev = None
    while depth <= max_depth:
        m1, chain = _riccati_descent(spec, np.array([z]), depth, collect_to=max(n_max, 1))
        m1, probe = m1[0], chain[max(n_max, 1)][0]
        if prev is not None:
            delta = max(
                matblock.frobenius_norm(m1 - prev[0]),
                matblock.frobenius_norm(probe - prev[1]),
            )
            if delta < tol:
                break
        prev = (m1, probe)
        depth *= 2
    else:
        raise ConvergenceError(
            f"corner chain not Cauchy at depth {max_depth}",
            last_delta=None,
            depth=max_depth,
        )
    l = spec.dim
    blocks = np.empty((n_max + 1, l, l), dtype=complex)
    blocks[0] = np.eye(l)
    ds = models.coefficient_arrays(spec, 0, max(n_max, 1))[0]
    for k in range(1, n_max + 1):
        blocks[k] = -chain[k][0] @ ds[k - 1] @ blocks[k - 1]
    return blocks, WeylM(z, m1, "riccati", depth, float(delta))


@dataclass
class HerglotzCheck:
    residual: float
    n_terms: int
    tail_estimate: float
    slow_decay: bool


def herglotz_identity_check(spec, z, n_terms=None, tol=1e-12, max_terms=2**15):
    """Defect of D0 Im[M] D0 = Im[z] * sum_k F_k^* F_k.

    The sum is truncated once the geometric tail estimate drops below
    1e-12 of the running total (or at ``n_terms`` when given); slow Jost
    decay (z too close to the spectrum) sets the ``slow_decay`` flag.
    """
    z = _require_upper(z)
    d0 = spec.coefficient_at(0)[0]
    n = int(n_terms) if n_terms is not None else 256
    slow = False
    n = max(n, 16)
    while True:
        blocks, m1 = jost_chain(spec, z, n, tol=tol)
        term_norms = np.array(
            [float(np.sum(np.abs(blocks[k]) ** 2)) for k in range(n - 8, n + 1)]
        )
        ratios = term_norms[1:] / np.maximum(term_norms[:-1], 1e-300)
        rho = float(np.exp(np.mean(np.log(np.maximum(ratios, 1e-300)))))
        total = np.einsum("kji,kjl->il", blocks[1:].conj(), blocks[1:])
        tail = term_norms[-1] * rho / (1.0 - rho) if rho < 1 else math.inf
        total_scale = max(float(np.trace(total).real), 1e-300)
        if n_terms is not None or tail <= 1e-12 * total_scale:
            break
        if n >= max_terms:
            slow = True
            break
        n *= 2
    lhs = d0 @ m1.m.imag @ d0
    rhs = z.imag * total
    residual = matblock.frobenius_norm(lhs - rhs) / max(
        matblock.frobenius_norm(lhs), 1e-300
    )
    if not math.isfinite(tail):
        slow = True
    return HerglotzCheck(float(residual), n, float(tail / total_scale if math.isfinite(tail) else math.inf), slow)


def herglotz_identity_residual(spec, z, n_terms=None, **kw) -> float:
    return herglotz_identity_check(spec, z, n_terms=n_terms, **kw).residual


def green_block(spec, p, q, z, tol=1e-12):
    """G(p,q;z) = -phi_p D0^-1 F_q^t for p <= q (transposed branch above).

    phi is the Dirichlet track and F the square-summable Jost solution from
    :func:`jost_chain`, which stays accurate for large indices where the
    combination psi - phi M D0 would cancel exponentially.
    """
    p, q = int(p), int(q)
    if p < 0 or q < 0:
        raise InvalidInputError("indices must be >= 0")
    z = _require_upper(z)
    hi = max(p, q, 1)
    phi, _ = recurrence.dirichlet_neumann(spec, z, hi + 1)
    f_blocks, _ = jost_chain(spec, z, hi, tol=tol)
    d0_inv = matblock.invert(spec.coefficient_at(0)[0])
    if p <= q:
        return -phi.block(p) @ d0_inv @ f_blocks[q].T
    return -f_blocks[p] @ d0_inv @ phi.block(q).T


# ---------------------------------------------------------------------------
# Boundary-value rank ladder.


@dataclass
class BoundaryRank:
    x: float
    y_ladder: tuple
    ranks: list
    eigenvalues: list
    traces: list
    rank: int | None
    stabilized_rung: int | None
    trace_growth: float
    indeterminate: bool
    depths: tuple = ()  # converged descent depth of each rung
    last_deltas: tuple = ()  # final Cauchy delta of each rung

    def flags(self):
        return [] if not self.indeterminate else ["rank-indeterminate"]


def _ladder_verdict(x, y_ladder, eig_list, tau_rel, depths=(), last_deltas=(), rel_change=0.2):
    # An eigenvalue is retained at rung k when it clears the relative cut
    # AND persists (< 20% move) from the previous rung; eigenvalues heading
    # to zero with y shrink by ~ y_k/y_{k-1} per rung and drop out even
    # though they stay comparable to each other, which is what makes the
    # rank-0 region detectable at finite y.
    ranks = []
    for k in range(len(y_ladder)):
        eigs = np.asarray(eig_list[k])
        cut = tau_rel * max(float(eigs[-1]), 1e-12)
        if k == 0:
            ranks.append(int(np.sum(eigs > cut)))
            continue
        prev = np.asarray(eig_list[k - 1])
        persists = np.abs(eigs - prev) < rel_change * np.maximum(prev, 1e-12)
        ranks.append(int(np.sum((eigs > cut) & persists)))
    traces = [float(np.sum(np.clip(e, 0.0, None))) for e in eig_list]
    stabilized = None
    for k in range(len(y_ladder) - 1, 1, -1):
        if ranks[k] == ranks[k - 1]:
            stabilized = k
            break
    logs_y = np.log(np.asarray(y_ladder))
    logs_t = np.log(np.maximum(np.asarray(traces), 1e-300))
    slope = float(np.polyfit(logs_y, logs_t, 1)[0])
    return BoundaryRank(
        x=float(x),
        y_ladder=tuple(y_ladder),
        ranks=ranks,
        eigenvalues=[np.asarray(e) for e in eig_list],
        traces=traces,
        rank=ranks[stabilized] if stabilized is not None else None,
        stabilized_rung=stabilized,
        trace_growth=-slope,
        indeterminate=stabilized is None,
        depths=tuple(depths),
        last_deltas=tuple(last_deltas),
    )


def im_m_boundary(spec, x, y_ladder=DEFAULT_Y_LADDER, tau_rel=1e-3, tol=1e-8):
    """Rank of Im M(x + iy) down a decreasing y ladder.

    The reported rank counts eigenvalues of Im M above tau_rel times the
    largest one at the smallest stabilized rung (same rank at two
    consecutive rungs, retained eigenvalues moving < 20%). A ladder that
    never stabilizes yields rank None and ``indeterminate``. The trace
    growth exponent g (tr Im M ~ y^-g as y drops) doubles as a
    singular-support indicator. Batch-of-one form of
    :func:`im_m_boundary_grid`, so each rung's descent depth is capped at
    the grid's 2^17 (``m_riccati`` alone goes to 2^18).
    """
    return im_m_boundary_grid(spec, [x], y_ladder, tau_rel, tol)[0]


# Batched ladder over an energy grid (shared by the scan engine).


def m_riccati_rungs(spec, z, tol=1e-8, max_depth=2**17, initial_depth=64):
    """Riccati descent over a (rungs x energies) grid of z with depth doubling.

    Each doubling runs one descent over every rung that is not yet Cauchy.
    A rung stops at the first depth where the max over its energies of
    |M - M_prev|_F is below ``tol``, the same depth it reaches on its own.
    Returns (m of shape (rungs, energies, l, l), depths, last_deltas).
    Raises ConvergenceError as soon as a rung's delta is not finite, or
    when a rung is still not Cauchy at ``max_depth``.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag < MIN_IM_Z):
        raise DomainError(f"need y >= {MIN_IM_Z}")
    rungs, size = z.shape
    l = spec.dim
    out = np.empty((rungs, size, l, l), dtype=complex)
    depths = np.zeros(rungs, dtype=int)
    deltas = np.full(rungs, np.nan)
    active = np.arange(rungs)
    last = np.full(rungs, math.inf)  # latest delta of each active rung
    prev = None
    depth = int(initial_depth)
    # a non-finite coefficient surfaces as the ConvergenceError below, not as
    # numpy warnings on the way there
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while depth <= max_depth and active.size:
            m, _ = _riccati_descent(spec, z[active].ravel(), depth)
            m = m.reshape(active.size, size, l, l)
            if prev is not None:
                norms = np.sqrt(np.sum(np.abs(m - prev) ** 2, axis=(2, 3)))
                delta = np.max(norms, axis=1, initial=0.0)
                bad = ~np.isfinite(delta)
                if np.any(bad):
                    raise ConvergenceError(
                        f"riccati descent not finite at depth {depth} "
                        f"for y = {z[active[bad], 0].imag.tolist()}",
                        last_delta=float(delta[bad][0]),
                        depth=depth,
                    )
                done = delta < tol
                out[active[done]] = m[done]
                depths[active[done]] = depth
                deltas[active[done]] = delta[done]
                active, m, last = active[~done], m[~done], delta[~done]
            prev = m
            depth *= 2
    if active.size:
        raise ConvergenceError(
            f"riccati descent not Cauchy at depth {max_depth} "
            f"for y = {z[active, 0].imag.tolist()}",
            last_delta=float(np.max(last)),
            depth=max_depth,
        )
    return out, depths, deltas


def m_riccati_grid(spec, xs, y, tol=1e-8, max_depth=2**17, initial_depth=64):
    """Vectorized riccati descent at z = x_j + iy over a whole grid.

    One-rung form of :func:`m_riccati_rungs`; returns (m, depth, delta).
    """
    xs = np.asarray(xs, dtype=float)
    m, depths, deltas = m_riccati_rungs(
        spec, (xs + 1j * y)[None, :], tol, max_depth, initial_depth
    )
    return m[0], int(depths[0]), float(deltas[0])


def _im_m_eigenvalues(m, z, depths, deltas):
    """Eigenvalues of Im M (ascending) for a stack of M of shape z.shape + (l, l).

    Raises ConvergenceError, naming the point and attaching the depth and
    delta of its first-axis index, at the first M that is not finite, else
    at the first that lost Herglotz positivity, else symmetry.
    """
    finite = np.all(np.isfinite(m), axis=(-2, -1))
    m = np.where(finite[..., None, None], m, 0.0)
    eigs = np.linalg.eigvalsh(m.imag)
    defect = np.sqrt(np.sum(np.abs(m - np.swapaxes(m, -1, -2)) ** 2, axis=(-2, -1)))
    scale = np.maximum(np.sqrt(np.sum(np.abs(m) ** 2, axis=(-2, -1))), 1e-300)
    for what, bad in (
        ("M is not finite", ~finite),
        ("Im M lost positivity", eigs[..., 0] < -HERGLOTZ_EIG_TOL),
        ("m-function lost symmetry", defect > SYMMETRY_REL_TOL * scale),
    ):
        if np.any(bad):
            at = tuple(np.argwhere(bad)[0])
            raise ConvergenceError(f"{what} at x = {z[at].real}, y = {z[at].imag}",
                                   last_delta=deltas[at[0]], depth=depths[at[0]])
    return eigs


def im_m_boundary_grid(spec, xs, y_ladder=DEFAULT_Y_LADDER, tau_rel=1e-3, tol=1e-8):
    """:func:`im_m_boundary` over a grid, all rungs in one fused descent."""
    xs = np.asarray(xs, dtype=float)
    y_ladder = tuple(float(y) for y in y_ladder)
    if any(b >= a for a, b in zip(y_ladder, y_ladder[1:])) or y_ladder[-1] <= 0:
        raise InvalidInputError("y ladder must be strictly decreasing and positive")
    z = xs[None, :] + 1j * np.asarray(y_ladder)[:, None]
    m, depths, deltas = m_riccati_rungs(spec, z, tol=tol)
    depths = tuple(int(d) for d in depths)
    deltas = tuple(float(d) for d in deltas)
    eigs = _im_m_eigenvalues(m, z, depths, deltas)
    return [
        _ladder_verdict(xs[j], y_ladder, list(eigs[:, j]), tau_rel, depths, deltas)
        for j in range(xs.size)
    ]


# ---------------------------------------------------------------------------
# Truncated-norm bounds on ||M||.


@dataclass
class JLBoundReport:
    x: float
    y: float
    l_cutoff: float
    ratio: float
    condition_term: float
    k1: float
    k2: float
    m_norm: float
    m_operator_norm: float
    verdict: bool | None
    status: str = "ok"  # ok | condition-overflow
    solver_residual: float = float("nan")
    extras: dict = field(default_factory=dict)


def jl_constants(spec):
    """(b, k1, k2) from the Frobenius convention (C1 = C2 = 1)."""
    l = spec.dim
    d0 = spec.coefficient_at(0)[0]
    nd0 = matblock.frobenius_norm(d0)
    nd0_inv = matblock.frobenius_norm(matblock.invert(d0))
    s_l_d0sq = float(matblock.singular_values(d0 @ d0)[-1])
    b = -(2.0 * nd0 / nd0_inv + 9.0 * nd0**2)
    k1 = -1.0 / (b * nd0_inv)
    k2 = -2.0 * l * b * nd0_inv / s_l_d0sq
    return b, k1, k2


# Points whose Dirichlet/Neumann tracks are built in one kernel run; bounds
# the track memory of a long sweep.
JL_TRACK_CHUNK = 64


def jl_bounds(spec, x, y, *, m_tol=1e-9, slack=1e-9):
    """Evaluate k1 * ratio <= ||M||_F <= k2 * ratio * condition_term at (x, y).

    ratio = ||psi||_L / ||phi||_L and condition_term = ||phi||_L^2 /
    s_l[phi]_L^2 at the matched cutoff L(y); ||M||_F comes from the
    resolvent route. A vanishing truncated smallest singular value marks
    the report ``condition-overflow`` and skips the verdict. Batch-of-one
    form of :func:`jl_bounds_grid`.
    """
    return jl_bounds_grid(spec, [x], [y], m_tol=m_tol, slack=slack)[0]


def jl_bounds_grid(spec, xs, ys, *, m_tol=1e-9, slack=1e-9):
    """:func:`jl_bounds` at every point (xs[j], ys[j]), in order.

    The starting tracks of up to ``JL_TRACK_CHUNK`` points come from one
    kernel run and their M from one :func:`m_resolvent_grid`; each point
    then solves its own cutoff (extending its tracks when needed).
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys):
        raise InvalidInputError("need one y per x")
    _, k1, k2 = jl_constants(spec)
    reports = []
    for a in range(0, len(xs), JL_TRACK_CHUNK):
        cx, cy = xs[a : a + JL_TRACK_CHUNK], ys[a : a + JL_TRACK_CHUNK]
        pairs = recurrence.dirichlet_neumann_grid(spec, cx, truncnorm.INITIAL_TRACK_BLOCKS)
        ms = m_resolvent_grid(spec, [complex(x, y) for x, y in zip(cx, cy)], tol=m_tol)
        for x, y, pair, m_val in zip(cx, cy, pairs, ms):
            reports.append(_jl_report(spec, x, y, pair, m_val, k1, k2, slack))
    return reports


def _jl_report(spec, x, y, tracks, m_val, k1, k2, slack):
    solve = truncnorm.solve_l_of_y(spec, x, y, tracks=tracks)
    l_cut = solve.l_value
    l = spec.dim
    norm_phi = truncnorm.truncated_norm(solve.phi, l_cut)
    norm_psi = truncnorm.truncated_norm(solve.psi, l_cut)
    ratio = norm_psi / norm_phi
    s_l_phi = truncnorm.truncated_singular(solve.phi, l, l_cut)
    report = JLBoundReport(
        x=x,
        y=y,
        l_cutoff=l_cut,
        ratio=ratio,
        condition_term=float("nan"),
        k1=k1,
        k2=k2,
        m_norm=m_val.frobenius_norm,
        m_operator_norm=m_val.operator_norm,
        verdict=None,
        solver_residual=solve.residual,
    )
    if s_l_phi**2 < 1e-300:
        report.status = "condition-overflow"
        return report
    report.condition_term = norm_phi**2 / s_l_phi**2
    lower = k1 * ratio
    upper = k2 * ratio * report.condition_term
    report.verdict = bool(lower <= report.m_norm + slack and report.m_norm <= upper + slack)
    report.extras = {"lower": lower, "upper": upper}
    return report
