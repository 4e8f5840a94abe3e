"""Truncated norms and singular values of solution tracks, and the cutoff
equation 2 y ||D0^-1|| ||psi||_L ||phi||_L = 1 that fixes L(y).

The truncated norm at real L >= 1 interpolates linearly in the squares:

    ||B||_L^2 = sum_{n=1}^{floor(L)} ||B_n||^2 + (L - floor(L)) ||B_{floor(L)+1}||^2

so on every unit interval the squared norm is affine in the fractional part
and the matching condition becomes a quadratic with a unique root.

Both are batched: :func:`truncated_values` reads many tracks at their own
cutoffs at once, and :func:`solve_l_grid` solves the cutoff equation at
many points at once, in stacks split by one rule bounded by
``GROW_BLOCKS``, one kernel run per stack and doubling, handing each point
back as soon as it has crossed. The single-track and single-point
functions are batches of one. Powers and the target's log2 are taken on
Python floats, point by point: numpy's array ``power`` and ``exp2`` round
differently from the scalar ``pow`` in a few percent of inputs, and every
point gets the bits it would get alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matblock, recurrence, scaling
from .errors import InvalidInputError, TargetUnreachableError, TrackTooShortError

MAX_TRACK_BLOCKS = 2**24
INITIAL_TRACK_BLOCKS = 16
# Blocks one stack of :func:`solve_l_grid` holds at most once it doubles
# (two tracks a point): a stack at n_max blocks holds max(GROW_BLOCKS //
# (4 n_max), 1) points, 64 at the start, and the points a doubling leaves
# uncrossed are split by the same rule, so at most one sibling stack waits
# per doubling level, whatever the length of the sweep.
GROW_BLOCKS = 2**12


def _pows(exps):
    """2.0 ** e for every entry, as Python floats (see the module docstring)."""
    return np.array([2.0**e for e in exps.tolist()])


def _floor_terms(tracks, fl, k=None):
    """Scaled ||B||_f^2 (``k`` None) or s_k[B]_f^2 of every ``tracks[j]`` at f =
    ``fl[j]``, and the term of block f + 1: (sum_m, sum_e, term_m, term_e)."""
    rows = list(zip(tracks, fl.tolist()))
    sq = np.array([t.sv_mant[f + 1] for t, f in rows]) ** 2
    if k is None:
        sums = [(t.cum_fro2_m[f], t.cum_fro2_e[f]) for t, f in rows]
        term = np.sum(sq, axis=1)
    else:
        sums = [(t.cum_sv2_m[f, k - 1], t.cum_sv2_e[f, k - 1]) for t, f in rows]
        term = sq[:, k - 1]
    sum_m, sum_e = (np.array(c) for c in zip(*sums))
    return sum_m, sum_e, term, np.array([2 * t.exp2[f + 1] for t, f in rows])


def truncated_sq_batch(tracks, l_values, k=None):
    """||B||_L^2 (``k`` None) or s_k[B]_L^2 of every ``tracks[j]`` at
    ``l_values[j]``, from the tracks' prefix sums, as a scaled (mantissa,
    exponent) pair of arrays, empty for no tracks."""
    l_values = np.asarray(l_values, dtype=float)
    if l_values.shape != (len(tracks),):
        raise InvalidInputError(f"need one cutoff per track, got {l_values.size} for {len(tracks)}")
    if k is not None and not all(1 <= int(k) <= t.dim for t in tracks):
        raise InvalidInputError(f"singular index {k} outside 1..{tracks[0].dim}")
    if not np.all(l_values >= 1.0):
        raise InvalidInputError("truncation cutoff must be >= 1")
    fl = np.floor(l_values).astype(np.int64)
    for t, f, l_value in zip(tracks, fl.tolist(), l_values.tolist()):
        if f + 1 > t.n_max:
            raise TrackTooShortError(
                f"cutoff {l_value} needs block {f + 1}, track ends at {t.n_max}", needed=f + 1
            )
    if not tracks:
        return np.zeros(0), np.zeros(0, dtype=np.int64)
    sum_m, sum_e, term_m, term_e = _floor_terms(tracks, fl, k)
    return scaling.add(sum_m, sum_e, (l_values - fl) * term_m, term_e)


def truncated_values(tracks, l_values, k=None):
    """||B||_L (``k`` None) or s_k[B]_L of every ``tracks[j]`` at ``l_values[j]``."""
    return np.sqrt(scaling.to_float(*truncated_sq_batch(tracks, l_values, k)))


def truncated_norm(track, l_value) -> float:
    """||B||_L with Frobenius norms per block; nondecreasing in L."""
    return float(truncated_values([track], [l_value])[0])


def truncated_singular(track, k, l_value) -> float:
    """s_k[B]_L, the truncated k-th singular value."""
    return float(truncated_values([track], [l_value], k)[0])


@dataclass
class SolveLResult:
    l_value: float  # the cutoff L(y) of one point
    phi: recurrence.SolutionTrack
    psi: recurrence.SolutionTrack
    residual: float  # |2 y ||D0^-1||_F ||psi||_L ||phi||_L - 1|
    phi_norm: float  # ||phi||_L and ||psi||_L at the solved cutoff
    psi_norm: float


def solve_l_of_y(spec, x, y):
    """Find L >= 1 with 2 y ||D0^-1||_F ||psi||_L ||phi||_L = 1.

    Batch-of-one form of :func:`solve_l_grid`.
    """
    return next(solve_l_grid(spec, [x], [y]))[1][0]


def _crossings(phis, psis, log2_target_sq):
    """Smallest m < n_max with ||psi||_m^2 ||phi||_m^2 >= target^2 per
    point (-1 where there is none), and the log2 products."""
    prod = sum(
        scaling.log2(np.stack([t.cum_fro2_m for t in ts]), np.stack([t.cum_fro2_e for t in ts]))
        for ts in (phis, psis)
    )
    hit = prod[:, :-1] >= log2_target_sq[:, None]
    return np.where(hit.any(axis=1), hit.argmax(axis=1), -1), prod


def _factors(tracks, m_idx):
    """Scaled a = ||B||_{m-1}^2 and b = ||B_m||^2 of every track, and
    log2(a + b), the scale each factor of the quadratic is taken in."""
    a_m, a_e, b_m, b_e = _floor_terms(tracks, m_idx - 1)
    q_log2 = scaling.log2(*scaling.add(a_m, a_e, b_m, b_e))

    def rel(m_val, e_val):
        lg = scaling.log2(m_val, e_val)
        finite = np.isfinite(lg)
        return np.where(finite, _pows(np.where(finite, lg - q_log2, 0.0)), 0.0)

    return q_log2, rel(a_m, a_e), rel(b_m, b_e)


def _advance(spec, xs, phis, psis):
    """One stack's tracks started (Dirichlet/Neumann pairs of
    ``INITIAL_TRACK_BLOCKS`` blocks, for no tracks yet) or doubled, in one
    kernel run: the new (phis, psis)."""
    if not phis:
        pairs = recurrence.dirichlet_neumann_grid(spec, xs, INITIAL_TRACK_BLOCKS)
        return [phi for phi, _ in pairs], [psi for _, psi in pairs]
    grown = recurrence.extend_tracks(phis + psis, min(2 * phis[0].n_max, MAX_TRACK_BLOCKS))
    return grown[: len(phis)], grown[len(phis) :]


def _stacks(group, phis, psis, n_max):
    """Points ``group`` and their tracks of ``n_max`` blocks in stacks of
    ``max(GROW_BLOCKS // (4 n_max), 1)`` points, the first stack last."""
    per = max(GROW_BLOCKS // (4 * n_max), 1)
    return [(group[a : a + per], phis[a : a + per], psis[a : a + per])
            for a in reversed(range(0, group.size, per))]


def solve_l_grid(spec, xs, ys):
    """:func:`solve_l_of_y` at every point (xs[j], ys[j]).

    A generator: yields (indices, results) each time some points cross
    their target, ``results[i]`` the ``SolveLResult`` of point
    ``indices[i]``, and keeps no track of a point it has yielded, so a
    caller that reads and drops them holds few tracks at once.

    Each point starts from its Dirichlet/Neumann pair at real x, of
    ``INITIAL_TRACK_BLOCKS`` blocks. Points run in stacks that carry their
    own tracks, one kernel run a stack and step, last in, first out: a
    stack at n_max blocks holds ``max(GROW_BLOCKS // (4 n_max), 1)``
    points. Until its integer-L product crosses the target, a point's
    tracks double; after every step the uncrossed points of a stack are
    split by the same rule, and the first of the new stacks runs next.
    Every point ends at the length it would reach alone. The unit interval
    [m-1, m] of the crossing is then solved for the crossed points at once
    as a quadratic in the fractional part (affine times affine equals a
    constant), with a Newton polish, and ||phi||_L and ||psi||_L are read
    at the root. Unequal numbers of x and y, a non-finite x or y, a y <= 0,
    or a y whose target 1 / (2 y ||D0^-1||_F) is not a positive finite
    float raises InvalidInputError before any track is built; a product that
    cannot reach its target within ``MAX_TRACK_BLOCKS`` blocks raises
    TargetUnreachableError.
    """
    xs, ys = [float(x) for x in xs], [float(y) for y in ys]
    if len(xs) != len(ys):
        raise InvalidInputError(f"need one y per x, got {len(ys)} for {len(xs)}")
    if not all(math.isfinite(x) for x in xs) or not all(0 < y < math.inf for y in ys):
        raise InvalidInputError("need finite x and finite y > 0")
    d0_inv_norm = matblock.frobenius_norm(matblock.invert(spec.coefficient_at(0)[0]))
    y = np.array(ys)
    with np.errstate(over="ignore", divide="ignore"):  # an inf or a 0 is rejected below
        target = 1.0 / (2.0 * y * d0_inv_norm)  # want ||psi||_L ||phi||_L = target
    if not np.all(np.isfinite(target) & (target > 0)):
        raise InvalidInputError("cutoff target 1 / (2 y ||D0^-1||_F) out of float range")
    log2_target_sq = np.array([2.0 * math.log2(t) for t in target.tolist()])

    # stacks of points whose tracks share one length, run last in, first
    # out; each starts or doubles its tracks, hands back its crossed points
    # and splits the rest by the same rule
    pending = _stacks(np.arange(len(ys)), (), (), INITIAL_TRACK_BLOCKS)
    while pending:
        group, phis, psis = pending.pop()
        phis, psis = _advance(spec, [xs[j] for j in group.tolist()], phis, psis)
        n_max = phis[0].n_max
        m_idx, prod = _crossings(phis, psis, log2_target_sq[group])
        left = m_idx < 0
        if left.any() and n_max >= MAX_TRACK_BLOCKS:
            i = int(np.flatnonzero(left)[0])
            attained = 2.0 * ys[group[i]] * d0_inv_norm * math.sqrt(2.0 ** float(prod[i, -2]))
            raise TargetUnreachableError(
                f"cutoff equation unreachable within {MAX_TRACK_BLOCKS} blocks "
                f"(attained f = {attained:.6g})",
                attained=attained,
                max_length=MAX_TRACK_BLOCKS,
            )
        done = np.flatnonzero(~left).tolist()
        if done:
            yield group[done].tolist(), _solved([phis[i] for i in done], [psis[i] for i in done],
                                                m_idx[done], y[group[done]], d0_inv_norm,
                                                log2_target_sq[group[done]])
        rest = np.flatnonzero(left).tolist()
        pending += _stacks(group[rest], [phis[i] for i in rest], [psis[i] for i in rest], n_max)


def _solved(phis, psis, m_idx, y, d0_inv_norm, log2_target_sq):
    """``SolveLResult`` of every point whose product crosses at ``m_idx``."""
    l_value = _interval_roots(psis, phis, m_idx, log2_target_sq)
    phi_norm = truncated_values(phis, l_value)
    psi_norm = truncated_values(psis, l_value)
    residual = np.abs(2.0 * y * d0_inv_norm * psi_norm * phi_norm - 1.0)
    return [SolveLResult(*fields) for fields in zip(
        l_value.tolist(), phis, psis, residual.tolist(), phi_norm.tolist(), psi_norm.tolist())]


def _interval_roots(psis, phis, m_idx, log2_target_sq):
    """L in [m-1, m] with ||psi||_L^2 ||phi||_L^2 = target^2 at every point.

    Every m is at least 2 (the sums start at n = 1 and psi_1 = 0), so L >= 1.
    Factors on [m-1, m]: (a1 + b1 t)(a2 + b2 t) = target^2, t in [0, 1];
    each factor is rescaled by its own magnitude so the quadratic has O(1)
    coefficients regardless of how unbalanced phi and psi have grown.
    """
    q1_log2, a1, b1 = _factors(psis, m_idx)
    q2_log2, a2, b2 = _factors(phis, m_idx)
    rhs = _pows(log2_target_sq - q1_log2 - q2_log2)

    def clip0(v):  # max(v, 0.0), NaN kept
        return np.where(0.0 > v, 0.0, v)

    with np.errstate(divide="ignore", invalid="ignore"):
        # quadratic A t^2 + B t + C = 0 with the product increasing on [0, 1]
        qa = b1 * b2
        qb = a1 * b2 + a2 * b1
        qc = a1 * a2 - rhs
        root = qb + np.sqrt(clip0(qb * qb - 4.0 * qa * qc))
        t = np.where(qa > 0, np.where(root > 0, (2.0 * clip0(-qc)) / root, 0.0),
                     np.where(qb > 0, clip0(-qc) / qb, 0.0))  # 0: locally flat, left endpoint
        # Newton polish on g(t) = (a1+b1 t)(a2+b2 t) - rhs; a point stops at dg <= 0
        live = np.ones(t.shape, dtype=bool)
        for _ in range(3):
            g = (a1 + b1 * t) * (a2 + b2 * t) - rhs
            dg = b1 * (a2 + b2 * t) + b2 * (a1 + b1 * t)
            live &= ~(dg <= 0)
            t = np.where(live, t - g / dg, t)
    t = clip0(t)
    t = np.where(1.0 < t, 1.0, t)
    return (m_idx - 1) + t
