"""Weyl m-functions, Green blocks, boundary-value ranks, and the
subordinacy (truncated-norm) bounds on ||M||.

Two independent routes compute the same l-by-l Herglotz matrix M(z):

* ``m_riccati``: the descending corner-resolvent recursion
  M_n = ((V_n - z) - D_n M_{n+1} D_n)^-1 seeded with a Dirichlet wall
  (M = 0) at the truncation depth;
* ``m_resolvent``: the (1,1) block of the inverse of the banded
  truncation of the half-line operator, via LAPACK banded LU with partial
  pivoting. The truncations of many points sit block-diagonally,
  uncoupled, in one band matrix, so one LAPACK call factors them all, and
  each corner comes out bit for bit as its own factor would give it. Each
  truncation is written in reverse block order, so its corner is the
  bottom-right block of the inverse, and no triangular solve runs the
  length of the band. The band is written once, one strided slice per
  block entry, in LAPACK ``gbtrf`` storage (``gtsv`` reads its three
  diagonals from it for l = 1) and factored in place. A stack holds at
  most ``_STACK_BLOCKS`` blocks: its band grows with points times
  truncation. A self-adjoint truncation (every built-in family) has T - z
  nonsingular at Im z > 0, so a LAPACK breakdown is raised as
  LinAlgError, not retried.

Both equal the Green block G(1,1;z) in exact arithmetic; their agreement
is the package's primary cross-check. The descent reads coefficients in
chunks through ``models.coefficient_arrays``. One guard call checks every
M a resolvent grid, Jost chain or rank ladder made: finite, Herglotz, symmetric.
Every route first checks z with :func:`_require_upper`, and a z that is not
finite with Im z >= ``MIN_IM_Z`` raises DomainError; none is moved into the domain.

The rank ladder of a periodic model whose period p divides
``INITIAL_DEPTH`` and whose cell p l is at most ``DECIMATION_MAX_CELL``
takes a third route, block decimation (López Sancho, López Sancho &
Rubio 1985; block cyclic reduction of the half-line truncation): one
Schur-complement step halves the chain of p-site cells, so the
truncation at depth p 2^k costs k steps instead of a descent of p 2^k.
It gives the descent's zero-seed truncation in exact arithmetic, at the
same depths 64 2^j, and uses no transfer matrix, so the ladder stays
independent of the Floquet oracle. Its rounding grows like eps / y^2
near energies where short segments of the chain resonate (at the free
model's band centre, 3e-11 relative at y = 1e-3 and 3e-5 at y = 1e-6),
so each decimated rung carries an a-posteriori rounding bound, and a
rung whose bound exceeds ``LADDER_TOL`` is descended instead. The descent
stays its oracle and the route of every other model and of
``m_riccati`` and ``jost_chain``.

Every route stops by one rule, :func:`_until_cauchy`: the depth (descent
steps, decimated sites or resolvent blocks) starts at ``INITIAL_DEPTH``
(for ``jost_chain``, its first doubling that reaches 4 n_max) and
doubles up to ``RICCATI_MAX_DEPTH`` (``m_riccati``, ``jost_chain``),
``LADDER_MAX_DEPTH`` (rank ladder by descent), ``DECIMATION_MAX_DEPTH``
(rank ladder by decimation) or ``RESOLVENT_MAX_DEPTH``. The points
solved together form groups (a rung of the ladder, one resolvent point,
the Jost chain's M_1 and probe block); a group stops at the first
doubling where the largest |M - M_prev|_F over its blocks is below
``tol``, or ``LADDER_TOL`` on the rank ladder. A delta that is not finite,
or a group still not Cauchy at the cap, raises ConvergenceError with the
depth and the group's last delta.

The truncated-norm bounds (:func:`jl_bounds_grid`) take one
:func:`m_resolvent_grid` call for the M of a whole sweep and one
:func:`truncnorm.solve_l_grid` pass for its cutoffs, which bounds its own
track memory; the report fields of the points that cross together come
out at once, and their tracks are dropped; k1 and k2 are computed once
per sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matblock, models, recurrence, truncnorm
from .errors import ConvergenceError, DomainError, InvalidInputError

MIN_IM_Z = 1e-8
DEFAULT_Y_LADDER = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
SYMMETRY_REL_TOL = 1e-8
HERGLOTZ_EIG_TOL = 1e-10
INITIAL_DEPTH = 64
RICCATI_MAX_DEPTH = 2**18
LADDER_MAX_DEPTH = 2**17
DECIMATION_MAX_DEPTH = 2**30
# the widest cell (period x block size) the rank ladder decimates: its
# working set is ~16 complex (p l)^2 blocks per point and rung, against
# the descent's few l x l (12 MB more on a 512-point ladder at p l = 4,
# 170 MB at 16), and at p l = 32 it is also the slower route
DECIMATION_MAX_CELL = 4
# the constant of the decimation's rounding bound, see _decimation
DECIMATION_ROUNDING = 4.0
RESOLVENT_MAX_DEPTH = 2**17
# the relative move between rungs below which an eigenvalue of Im M persists
LADDER_REL_CHANGE = 0.2
LADDER_TOL = 1e-8  # Cauchy tolerance of the rank ladder's M
LADDER_TAU_REL = 1e-3  # its rank cut, relative to the largest eigenvalue of Im M
# Cauchy tolerance of the resolvent M of the truncated-norm bounds
JL_M_TOL = 1e-9
# largest cutoff-solver residual a bound verdict accepts (criterion 11's bar)
JL_RESIDUAL_TOL = 1e-10


@dataclass
class WeylM:
    """An m-function value with its convergence metadata, checked by its route's guard."""

    z: complex
    m: np.ndarray
    depth: int
    last_delta: float

    @property
    def frobenius_norm(self):
        return matblock.frobenius_norm(self.m)


def _require_upper(z):
    """``z`` (scalar or array) if finite with Im z >= ``MIN_IM_Z``, else DomainError."""
    zs = np.asarray(z, dtype=complex)
    bad = ~(np.isfinite(zs) & (zs.imag >= MIN_IM_Z))
    if bad.any():
        raise DomainError(f"need finite z with Im z >= {MIN_IM_Z}, got z = {zs[bad][0]}")
    return complex(z) if zs.ndim == 0 else zs


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


def _until_cauchy(solve, groups, tol, depth, max_depth, name):
    """The module's doubling rule over ``groups`` groups, named ``name(g)``.

    ``solve(active, depth)`` gives the watched blocks of the groups in
    ``active``, shape (len(active), k, l, l). Returns (blocks, depth,
    delta) per group, its blocks as ``solve`` returned them.
    """
    out = [None] * groups
    active, prev, last = list(range(groups)), None, None
    # a non-finite coefficient surfaces as the ConvergenceError below, not as
    # numpy warnings on the way there
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while depth <= max_depth and active:
            m = solve(active, depth)
            keep = np.ones(len(active), dtype=bool)
            if prev is not None:
                norms = np.sqrt(np.sum(np.abs(m - prev) ** 2, axis=(2, 3)))
                delta = np.max(norms, axis=1, initial=0.0)
                bad = np.flatnonzero(~np.isfinite(delta))
                if bad.size:
                    raise ConvergenceError(f"{name(active[bad[0]])} not finite at depth {depth}",
                                           last_delta=float(delta[bad[0]]), depth=depth)
                done = delta < tol
                for i in np.flatnonzero(done):
                    out[active[i]] = (m[i], depth, float(delta[i]))
                active = [g for g, stop in zip(active, done) if not stop]
                keep, last = ~done, delta[~done]
            # the copy keeps each block's memory order, so |M - M_prev|_F sums
            # its entries in the order matblock.frobenius_norm would
            prev = m[keep]
            depth *= 2
    if active:
        raise ConvergenceError(f"{name(active[0])} not Cauchy at depth {max_depth}",
                               last_delta=None if last is None else float(last[0]), depth=max_depth)
    return out


def m_riccati(spec, z, tol=1e-10):
    """m-function by the descending corner recursion: M_1 of :func:`jost_chain`."""
    return jost_chain(spec, z, 0, tol)[1]


# Blocks one stacked banded solve holds at most (a point deeper than this is
# solved alone). Uncapped, the benchmark's jl-sweep (rand8, 8 points per
# config) raised peak RSS by 6.9 MB over per-point solves; capped, by 0.1 MB.
_STACK_BLOCKS = 2048


def _banded_corner_block(spec, zs, n_blocks):
    """(1,1) blocks of (T_N - z)^-1 for the N-block half-line truncation.

    The truncations at the P energies ``zs`` sit block-diagonally in one
    band, uncoupled, each in reverse block order (block N first), so its
    corner is the bottom-right l x l block of the inverse; returns shape
    (P, l, l). The right-hand sides, the last l unit vectors of each
    system, are zero above its last block, and partial pivoting draws a
    column's pivot and multipliers from its own block and the next (the
    rows below stay zero), so only the last 2 l rows of the factor act on
    them: ``gbtrs``'s forward steps are replayed on that window of every
    system at once, and the l x l upper triangle is back-substituted. A
    non-finite coefficient raises ValueError, a singular band LinAlgError.
    """
    from scipy.linalg import lapack  # here, so only the resolvent route loads scipy

    zs = np.asarray(zs, dtype=complex).ravel()
    l = spec.dim
    if not zs.size:
        return np.empty((0, l, l), dtype=complex)
    rows = n_blocks * l
    d, v = models.coefficient_arrays(spec, 1, n_blocks + 1)
    d, v = d[:-1][::-1], v[::-1]
    if not (np.isfinite(d).all() and np.isfinite(v).all() and np.isfinite(zs).all()):
        raise ValueError("band matrix must not contain infs or NaNs")
    # gbtrf storage (Fortran order, kl = ku = 2 l - 1): entry (row, col) at
    # ab[2 kl + row - col, col]; band[p, n, j] is column j of block n of
    # system p, block n holding V_{N-n}. D_{N-n-1} couples block n to n + 1,
    # a system's last block to none
    bw = 2 * l - 1
    store = np.zeros((zs.size * rows, 3 * bw + 1), dtype=complex)
    band = store.reshape(zs.size, n_blocks, l, 3 * bw + 1)
    for i, j in np.ndindex(l, l):
        band[:, :, j, 2 * bw + i - j] = v[:, i, j] - zs[:, None] * float(i == j)
        band[:, :-1, j, 2 * bw + l + i - j] = d[:, i, j]
        band[:, 1:, j, 2 * bw - l + i - j] = d[:, i, j]
    del d, v
    if l == 1:
        rhs = np.zeros((store.shape[0], 1), dtype=complex)
        rhs[rows - 1 :: rows] = 1.0
        off = max(store.shape[0] - 1, 1)  # f2py wants an off-diagonal entry, even on one row
        *_, sol, info = lapack.zgtsv(store[:off, 3], store[:, 2], store[-off:, 1], rhs, overwrite_b=1)
    else:
        _, piv, info = lapack.zgbtrf(store.T, bw, bw, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of the LAPACK banded solve")
    if l == 1:
        return sol[rows - 1 :: rows, :, None].copy()
    # the window: the last w rows of each system, and its factor columns;
    # piv holds 0-based rows, made local to the window
    w = min(2 * l, rows)
    at = np.arange(zs.size)
    fac = store.reshape(zs.size, rows, 3 * bw + 1)[:, rows - w :]
    piv = piv.reshape(zs.size, rows)[:, rows - w :] - (at[:, None] * rows + rows - w)
    x = np.zeros((zs.size, w, l), dtype=complex)
    x[:, w - l :] = np.eye(l)
    # gbtrs's forward steps on the window: a row swap, then the multipliers
    for r in range(w - 1):
        x[:, r], x[at, piv[:, r]] = x[at, piv[:, r]], x[:, r].copy()
        lm = min(bw, w - 1 - r)
        x[:, r + 1 : r + 1 + lm] -= fac[:, r, 2 * bw + 1 : 2 * bw + 1 + lm, None] * x[:, r, None]
    # back substitution with the l x l upper triangle at the window's end
    for k in range(w - 1, w - l - 1, -1):
        x[:, k] /= fac[:, k, 2 * bw, None]
        for i in range(w - l, k):
            x[:, i] -= fac[:, k, 2 * bw + i - k, None] * x[:, k]
    return x[:, w - l :]


def m_resolvent(spec, z, tol=1e-10):
    """m-function as the corner block of the banded-truncation resolvent.

    Independent oracle for :func:`m_riccati`: same limit, different
    algorithm (LAPACK banded LU with pivoting instead of the hand-rolled
    descending recursion). Truncation size doubles until Cauchy.
    Batch-of-one form of :func:`m_resolvent_grid`.
    """
    return m_resolvent_grid(spec, [z], tol)[0]


def m_resolvent_grid(spec, zs, tol=1e-10):
    """:func:`m_resolvent` at every z of ``zs``; a list of ``WeylM``, in order.

    Each doubling solves every point that is not yet Cauchy, in stacks of at
    most ``_STACK_BLOCKS`` blocks (one :func:`_banded_corner_block` call a
    stack), and each point stops at the truncation it reaches on its own;
    one :func:`_im_m_eigenvalues` call guards every M.
    """
    zs = _require_upper([complex(z) for z in zs]).tolist()
    if not zs:
        return []

    def solve(active, depth):
        per = max(_STACK_BLOCKS // depth, 1)
        stacks = [[zs[k] for k in active[a : a + per]] for a in range(0, len(active), per)]
        return np.concatenate([_banded_corner_block(spec, s, depth) for s in stacks])[:, None]

    found = _until_cauchy(solve, len(zs), tol, INITIAL_DEPTH, RESOLVENT_MAX_DEPTH,
                          lambda k: f"resolvent truncation for z = {zs[k]}")
    ms, depths, deltas = zip(*found)
    _im_m_eigenvalues(np.concatenate(ms), np.array(zs), depths, deltas)
    return [WeylM(z, m[0], n, d) for z, (m, n, d) in zip(zs, found)]


# ---------------------------------------------------------------------------
# Stable Jost blocks and identities.


def jost_chain(spec, z, n_max, tol=1e-12):
    """Square-summable solution blocks F_0..F_n_max, built stably.

    Uses F_k = -M_k D_{k-1} F_{k-1} with the corner-resolvent chain M_k,
    which decays like the true Jost solution instead of cancelling two
    exponentially growing tracks. The descent stops when M_1 and the probe
    block M_n_max are both Cauchy. Returns (blocks, M_1 WeylM).
    """
    return _jost_chain(spec, _require_upper(z), n_max, tol, None)


def _jost_chain(spec, z, n_max, tol, descents):
    """:func:`jost_chain`; with a dict ``descents``, each descent is kept there
    by depth with its chain to depth / 4, and a depth already in it is not
    descended again (a later call with a larger n_max still starts at or
    above 4 n_max, so the kept chain reaches its probe)."""
    n_max = int(n_max)
    probe = max(n_max, 1)
    chain = None

    def solve(active, depth):
        nonlocal chain
        if descents is None:
            m1, chain = _riccati_descent(spec, np.array([z]), depth, collect_to=probe)
        else:
            if depth not in descents:
                descents[depth] = _riccati_descent(spec, np.array([z]), depth, collect_to=depth // 4)
            m1, chain = descents[depth]
        return np.stack([m1[0], chain[probe][0]])[None]

    # start at the first doubling of INITIAL_DEPTH that reaches 4 * probe
    start = max(INITIAL_DEPTH, 1 << (4 * probe - 1).bit_length())
    [(m, depth, delta)] = _until_cauchy(solve, 1, tol, start, RICCATI_MAX_DEPTH,
                                        lambda _: f"riccati descent for z = {z}")
    _im_m_eigenvalues(m[:1], np.array([z]), (depth,), (delta,))
    l = spec.dim
    blocks = np.empty((n_max + 1, l, l), dtype=complex)
    blocks[0] = np.eye(l)
    ds = models.coefficient_arrays(spec, 0, probe)[0]
    for k in range(1, n_max + 1):
        blocks[k] = -chain[k][0] @ ds[k - 1] @ blocks[k - 1]
    return blocks, WeylM(z, m[0], depth, delta)


@dataclass
class HerglotzCheck:
    residual: float
    n_terms: int
    tail_estimate: float
    slow_decay: bool


# the terms the sum starts at, and the most it doubles to before it
# reports slow decay
HERGLOTZ_START_TERMS = 256
HERGLOTZ_MAX_TERMS = 2**15


def herglotz_identity_check(spec, z):
    """Defect of D0 Im[M] D0 = Im[z] * sum_k F_k^* F_k.

    The sum starts at ``HERGLOTZ_START_TERMS`` terms and doubles until the
    geometric tail estimate drops below 1e-12 of the running total; slow
    Jost decay (z too close to the spectrum) sets the ``slow_decay`` flag.
    """
    z = _require_upper(z)
    d0 = spec.coefficient_at(0)[0]
    n = HERGLOTZ_START_TERMS
    slow = False
    descents = {}
    while True:
        # a chain to n starts at depth 4 n, so shallower descents are done with
        for depth in [d for d in descents if d < 4 * n]:
            del descents[depth]
        blocks, m1 = _jost_chain(spec, z, n, 1e-12, descents)
        term_norms = np.array(
            [float(np.sum(np.abs(blocks[k]) ** 2)) for k in range(n - 8, n + 1)]
        )
        ratios = term_norms[1:] / np.maximum(term_norms[:-1], 1e-300)
        rho = float(np.exp(np.mean(np.log(np.maximum(ratios, 1e-300)))))
        total = np.einsum("kji,kjl->il", blocks[1:].conj(), blocks[1:])
        tail = term_norms[-1] * rho / (1.0 - rho) if rho < 1 else math.inf
        total_scale = max(float(np.trace(total).real), 1e-300)
        if tail <= 1e-12 * total_scale:
            break
        if n >= HERGLOTZ_MAX_TERMS:
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


def herglotz_identity_residual(spec, z) -> float:
    return herglotz_identity_check(spec, z).residual


def green_block(spec, p, q, z):
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
    f_blocks, _ = jost_chain(spec, z, hi)
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


def _ladder_verdicts(xs, y_ladder, eigs, depths=(), last_deltas=()):
    """One ``BoundaryRank`` per energy from the ascending eigenvalues of Im M,
    shape (rungs, energies, l).

    An eigenvalue is retained at rung k when it clears the relative cut
    ``LADDER_TAU_REL`` AND persists (moves by less than ``LADDER_REL_CHANGE``, 20%) from the
    previous rung; eigenvalues heading to zero with y shrink by ~
    y_k/y_{k-1} per rung and drop out even though they stay comparable to
    each other, which is what makes the rank-0 region detectable at finite y.
    """
    cut = LADDER_TAU_REL * np.maximum(eigs[..., -1:], 1e-12)
    kept = eigs > cut
    kept[1:] &= np.abs(eigs[1:] - eigs[:-1]) < LADDER_REL_CHANGE * np.maximum(eigs[:-1], 1e-12)
    ranks = np.sum(kept, axis=-1)
    traces = np.sum(np.clip(eigs, 0.0, None), axis=-1)
    # the last rung k >= 2 whose rank repeats the rung before it
    rungs = np.arange(2, len(ranks))[:, None]
    stabilized = np.max(np.where(ranks[2:] == ranks[1:-1], rungs, -1), axis=0, initial=-1)
    logs_y = np.log(np.asarray(y_ladder))
    slopes = np.polyfit(logs_y, np.log(np.maximum(traces, 1e-300)), 1)[0]
    out = []
    for j, x in enumerate(xs):
        k = int(stabilized[j]) if stabilized[j] >= 0 else None
        out.append(BoundaryRank(
            x=float(x),
            y_ladder=tuple(y_ladder),
            ranks=ranks[:, j].tolist(),
            eigenvalues=list(eigs[:, j]),
            traces=traces[:, j].tolist(),
            rank=int(ranks[k, j]) if k is not None else None,
            stabilized_rung=k,
            trace_growth=-float(slopes[j]),
            indeterminate=k is None,
            depths=tuple(depths),
            last_deltas=tuple(last_deltas),
        ))
    return out


def im_m_boundary(spec, x, y_ladder=DEFAULT_Y_LADDER):
    """Rank of Im M(x + iy) down a decreasing y ladder.

    The reported rank counts eigenvalues of Im M above ``LADDER_TAU_REL``
    times the largest one at the smallest stabilized rung (same rank at two
    consecutive rungs, retained eigenvalues moving < 20%). A ladder that
    never stabilizes yields rank None and ``indeterminate``. The trace
    growth exponent g (tr Im M ~ y^-g as y drops) doubles as a
    singular-support indicator. Batch-of-one form of
    :func:`im_m_boundary_grid`, so each rung takes the route and depth cap
    of :func:`m_riccati_rungs` (``DECIMATION_MAX_DEPTH`` by decimation,
    else ``LADDER_MAX_DEPTH``), not ``m_riccati``'s ``RICCATI_MAX_DEPTH``.
    """
    return im_m_boundary_grid(spec, [x], y_ladder)[0]


# Batched ladder over an energy grid (shared by the scan engine).


def _fro(x):
    """|x|_F over the leading two axes (the entries of component-major cells)."""
    return np.sqrt(np.sum(np.abs(x) ** 2, axis=(0, 1)))


def _cell_product(x, y):
    """X Y for component-major cells x (n, q, ...) and y (q, m, ...): the sum
    over k = 0 .. q - 1, in order, of column k of X times row k of Y."""
    out = x[:, 0, None] * y[None, 0]
    for k in range(1, x.shape[1]):
        out += x[:, k, None] * y[None, k]
    return out


def _cell_solve(a, b):
    """A^-1 B for component-major cells a (n, n, ...) and b (n, m, ...).

    Gaussian elimination with partial pivoting on [A | B], all cells at
    once: at column k each cell's pivot is its entry of largest
    |re| + |im| on or below the diagonal (the first of equals, as LAPACK's
    izamax), that row swaps with row k, and the rows below subtract their
    multiples of it; back substitution runs column by column. An exactly
    zero pivot in any cell (a singular A) raises LinAlgError, as LAPACK's
    gesv reports it.
    """
    n = len(a)
    w = np.concatenate([a, b], axis=1)
    for k in range(n):
        if k + 1 < n:
            col = w[k:, k]
            piv = k + np.argmax(np.abs(col.real) + np.abs(col.imag), axis=0)
            for i in range(k + 1, n):
                at = piv == i
                if at.any():
                    w[k, k:], w[i, k:] = np.where(at, w[i, k:], w[k, k:]), np.where(at, w[k, k:], w[i, k:])
        if np.any(w[k, k] == 0):
            raise np.linalg.LinAlgError("Singular matrix")
        w[k + 1:, k + 1:] -= (w[k + 1:, k] / w[k, k])[:, None] * w[k, None, k + 1:]
    x = w[:, n:]
    for k in reversed(range(n)):
        x[k] /= w[k, k]
        x[:k] -= w[:k, k, None] * x[k][None]
    return x


def _decimation(spec, z):
    """``solve`` closure of the decimation route over a (rungs x energies) z.

    One cell is the p l x p l block-tridiagonal piece of T - z on sites
    1..p (V_1..V_p - z on the diagonal, D_1..D_{p-1} beside it), and D_p
    couples a cell to the next. Each step removes every other cell of the
    chain through one solve, e^-1 [a | b]: the surface block s (first
    cell), the bulk block e (every other cell, the last one included) and
    the couplings a (to the right) and b (to the left) then describe the
    chain of half as many cells. After k steps the surface block is the
    whole truncation at depth p 2^k reduced to its first cell, so M_1 is
    the top-left l x l block of its inverse.

    The cells of all points are held component-major, shape (p l, p l,
    rungs, energies), and every cell operation is written out over them:
    a product is :func:`_cell_product`, and both solves, e^-1 [a | b] and
    s^-1 applied to the first l columns of the identity, are one Gaussian
    elimination with partial pivoting, :func:`_cell_solve`, with no
    per-cell LAPACK or BLAS call.

    Also returns ``rounding``, which maps each group to a bound on the
    rounding error |dM|_F of its last solve at each of its points.
    Elimination leaves a backward error of about eps g in T - z, where g is
    the largest block norm it formed (Wilkinson's growth); that moves M by
    at most |G e_1|^2 = |Im M| / y times as much (G = (T_N - z)^-1). g stays
    of order |T - z| except near energies where short segments of the chain
    resonate; there it reaches ~1/y, and the actual error grows like
    eps / y^2. ``DECIMATION_ROUNDING`` is the constant in front of eps g
    |Im M|_F / y.
    """
    p, l = spec.period, spec.dim
    pl = p * l
    d, v = models.coefficient_arrays(spec, 1, p + 1)
    cell, k = np.zeros((p, l, p, l), dtype=complex), np.arange(p)
    cell[k, :, k] = v
    cell[k[:-1], :, k[1:]] = cell[k[1:], :, k[:-1]] = d[:-1]
    cell = cell.reshape(pl, pl)[..., None, None]
    right = np.zeros((pl, pl, 1, 1), dtype=complex)
    right[-l:, :l] = d[-1][..., None, None]
    surface = cell - z * np.eye(pl)[..., None, None]
    # the state of the groups in ``groups``, reduced to depth ``reached``;
    # the last entry is the largest block norm formed so far at each point
    groups, reached = list(range(len(z))), p
    state = (surface, surface, np.broadcast_to(right, surface.shape),
             np.broadcast_to(right.transpose(1, 0, 2, 3), surface.shape),
             np.maximum(_fro(surface), _fro(right)))
    first_cols = np.eye(pl, l)[..., None, None]
    rounding = {}

    def solve(active, depth):
        nonlocal groups, reached, state
        rows = [groups.index(g) for g in active]
        s, e, a, b, grown = (x[..., rows, :] for x in state)
        while reached < depth:
            x = _cell_solve(e, np.concatenate([a, b], axis=1))
            ea, eb = x[:, :pl], x[:, pl:]
            aeb, bea = _cell_product(a, eb), _cell_product(b, ea)
            s, e = s - aeb, e - aeb - bea
            a, b = _cell_product(a, ea), _cell_product(b, eb)
            grown = np.maximum.reduce([grown, _fro(aeb), _fro(bea), _fro(e)])
            reached *= 2
        groups, state = list(active), (s, e, a, b, grown)
        m = _cell_solve(s, np.broadcast_to(first_cols, (pl, l) + s.shape[2:]))[:l]
        bound = DECIMATION_ROUNDING * np.finfo(float).eps * grown * _fro(m.imag) / z[active].imag
        rounding.update(zip(active, bound))
        return np.ascontiguousarray(m.transpose(2, 3, 0, 1))

    return solve, rounding


def _decimates(spec):
    """Whether the rank ladder takes the decimation route for ``spec``."""
    return (isinstance(spec, models.PeriodicSpec) and INITIAL_DEPTH % spec.period == 0
            and spec.period * spec.dim <= DECIMATION_MAX_CELL)


def _descended_rungs(spec, z):
    """:func:`_until_cauchy` over the rungs of z by one Riccati descent per doubling."""
    shape = (z.shape[1], spec.dim, spec.dim)

    def solve(active, depth):
        return _riccati_descent(spec, z[active].ravel(), depth)[0].reshape(len(active), *shape)

    return _until_cauchy(solve, len(z), LADDER_TOL, INITIAL_DEPTH, LADDER_MAX_DEPTH,
                         lambda k: f"riccati descent for y = {z[k, 0].imag}")


def m_riccati_rungs(spec, z):
    """M_1 over a (rungs x energies) grid of z with depth doubling.

    Each doubling advances every rung that is not yet Cauchy to
    ``LADDER_TOL`` (a rung is one group); a rung stops at the depth it
    reaches on its own. A periodic model whose period divides
    ``INITIAL_DEPTH`` and whose cell is at most ``DECIMATION_MAX_CELL`` wide
    takes the decimation route (:func:`_decimation`, one step per doubling,
    capped at ``DECIMATION_MAX_DEPTH``); every other model, and every
    decimated rung whose rounding bound exceeds ``LADDER_TOL``, runs one
    Riccati descent per doubling, capped at ``LADDER_MAX_DEPTH``. Both give the zero-seed
    truncation at the same depths. Returns (m of shape (rungs, energies,
    l, l), depths, last_deltas).
    """
    z = _require_upper(z)
    if _decimates(spec):
        solve, rounding = _decimation(spec, z)
        rungs = _until_cauchy(solve, len(z), LADDER_TOL, INITIAL_DEPTH, DECIMATION_MAX_DEPTH,
                              lambda k: f"decimation for y = {z[k, 0].imag}")
        # a rung the rounding bound cannot vouch for is the descent's
        redo = [k for k in range(len(z)) if np.max(rounding[k], initial=0.0) > LADDER_TOL]
        for k, rung in zip(redo, _descended_rungs(spec, z[redo])):
            rungs[k] = rung
    else:
        rungs = _descended_rungs(spec, z)
    ms, depths, deltas = zip(*rungs)
    return np.stack(ms), np.array(depths), np.array(deltas)


def m_riccati_grid(spec, xs, y):
    """M_1 at z = x_j + iy over a whole grid, by the route of :func:`m_riccati_rungs`.

    One-rung form of :func:`m_riccati_rungs`; returns (m, depth, delta).
    """
    xs = np.asarray(xs, dtype=float)
    m, depths, deltas = m_riccati_rungs(spec, (xs + 1j * y)[None, :])
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


def check_y_ladder(y_ladder):
    """``y_ladder`` as a tuple of floats; InvalidInputError unless it is a valid
    ladder (a rank needs a rung k >= 2 that repeats the rung before it)."""
    y_ladder = tuple(float(y) for y in y_ladder)
    if len(y_ladder) < 3 or any(b >= a for a, b in zip(y_ladder, y_ladder[1:])) or y_ladder[-1] <= 0:
        raise InvalidInputError("y ladder must be at least three strictly decreasing positive values")
    return y_ladder


def im_m_boundary_grid(spec, xs, y_ladder=DEFAULT_Y_LADDER):
    """:func:`im_m_boundary` over a grid, all rungs in one fused descent."""
    xs = np.asarray(xs, dtype=float)
    y_ladder = check_y_ladder(y_ladder)
    with np.errstate(invalid="ignore"):  # 1j * inf has a NaN real part, which the domain check rejects
        z = xs[None, :] + 1j * np.asarray(y_ladder)[:, None]
    m, depths, deltas = m_riccati_rungs(spec, z)
    depths = tuple(int(d) for d in depths)
    deltas = tuple(float(d) for d in deltas)
    eigs = _im_m_eigenvalues(m, z, depths, deltas)
    return _ladder_verdicts(xs, y_ladder, eigs, depths, deltas)


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
    verdict: bool | None
    status: str = "ok"  # ok | condition-overflow | cutoff-unresolved
    solver_residual: float = float("nan")
    lower: float | None = None  # k1 * ratio; None on a point without a verdict
    upper: float | None = None  # k2 * ratio * condition_term; None there too


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


def jl_bounds(spec, x, y, *, slack=1e-9):
    """Evaluate k1 * ratio <= ||M||_F <= k2 * ratio * condition_term at (x, y).

    ratio = ||psi||_L / ||phi||_L and condition_term = ||phi||_L^2 /
    s_l[phi]_L^2 at the matched cutoff L(y); ||M||_F comes from the
    resolvent route, Cauchy to ``JL_M_TOL``. A report gets no verdict and no
    bounds when the cutoff solver's residual is not within
    ``JL_RESIDUAL_TOL`` (NaN included), status ``cutoff-unresolved``, or
    when the truncated smallest singular value vanishes, status
    ``condition-overflow``. Batch-of-one form of :func:`jl_bounds_grid`.
    """
    return jl_bounds_grid(spec, [x], [y], slack=slack)[0]


def jl_bounds_grid(spec, xs, ys, *, slack=1e-9):
    """:func:`jl_bounds` at every point (xs[j], ys[j]), in order.

    k1 and k2 are computed once, every M by one :func:`m_resolvent_grid`
    call and every cutoff by one :func:`truncnorm.solve_l_grid` pass; the
    report fields of the points that cross together are computed at once
    (squares on Python floats, as in truncnorm), and their tracks dropped.
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys):
        raise InvalidInputError("need one y per x")
    _, k1, k2 = jl_constants(spec)
    ms = m_resolvent_grid(spec, [complex(x, y) for x, y in zip(xs, ys)], tol=JL_M_TOL)
    reports = [None] * len(xs)
    for idx, solves in truncnorm.solve_l_grid(spec, xs, ys):
        wave = _jl_reports(spec, [xs[j] for j in idx], [ys[j] for j in idx], solves,
                           [ms[j] for j in idx], k1, k2, slack)
        for j, report in zip(idx, wave):
            reports[j] = report
        del solves  # their tracks go before the next point grows
    return reports


def _jl_reports(spec, xs, ys, solves, ms, k1, k2, slack):
    def squares(values):
        return np.array([v**2 for v in values.tolist()])

    norm_phi = np.array([s.phi_norm for s in solves])
    norm_psi = np.array([s.psi_norm for s in solves])
    s_l_phi = truncnorm.truncated_values([s.phi for s in solves], [s.l_value for s in solves],
                                         spec.dim)
    m_norm = np.array([m.frobenius_norm for m in ms])
    ratio = norm_psi / norm_phi
    s_l_sq = squares(s_l_phi)
    starved = s_l_sq < 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        condition = np.where(starved, math.nan, squares(norm_phi) / s_l_sq)
    lower = k1 * ratio
    upper = k2 * ratio * condition
    verdict = (lower <= m_norm + slack) & (m_norm <= upper + slack)
    reports = []
    for j, (x, y, solve) in enumerate(zip(xs, ys, solves)):
        report = JLBoundReport(x=x, y=y, l_cutoff=solve.l_value, ratio=float(ratio[j]),
                               condition_term=float(condition[j]), k1=k1, k2=k2,
                               m_norm=float(m_norm[j]), verdict=None,
                               solver_residual=solve.residual)
        if not solve.residual <= JL_RESIDUAL_TOL:  # a NaN residual too
            report.status = "cutoff-unresolved"
        elif starved[j]:
            report.status = "condition-overflow"
        else:
            report.verdict = bool(verdict[j])
            report.lower, report.upper = float(lower[j]), float(upper[j])
        reports.append(report)
    return reports
