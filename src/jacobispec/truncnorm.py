"""Truncated norms and singular values of solution tracks, and the cutoff
equation 2 y ||D0^-1|| ||psi||_L ||phi||_L = 1 that fixes L(y).

The truncated norm at real L >= 1 interpolates linearly in the squares:

    ||B||_L^2 = sum_{n=1}^{floor(L)} ||B_n||^2 + (L - floor(L)) ||B_{floor(L)+1}||^2

so on every unit interval the squared norm is affine in the fractional part
and the matching condition becomes a quadratic with a unique root.

Both are batched: :func:`truncated_values` reads many tracks at their own
cutoffs at once, and :func:`solve_l_grid` solves the cutoff equation at
many points at once, growing the tracks of the points that have not
crossed their target in one kernel run per doubling (one point at a time
past ``GROW_BLOCKS`` blocks) and handing each point back as soon as it
has crossed. The single-track and single-point functions are batches of
one. Powers and the target's log2 are taken on Python floats, point by
point: numpy's array ``power`` and ``exp2`` round differently from the
scalar ``pow`` in a few percent of inputs, and every point gets the bits
it would get alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matblock, recurrence, scaling
from .errors import InvalidInputError, TargetUnreachableError, TrackTooShortError

MAX_TRACK_BLOCKS = 2**24
INITIAL_TRACK_BLOCKS = 16
# Blocks one stacked doubling of :func:`solve_l_grid` holds at most (two
# tracks a point); past it every point doubles alone, one after another, so
# a sweep holds at most one such stack more than its deepest point needs.
GROW_BLOCKS = 2**12


def _pows(exps):
    """2.0 ** e for every entry, as Python floats (see the module docstring)."""
    return np.array([2.0**e for e in exps.tolist()])


def truncated_sq_batch(tracks, l_values, k=None):
    """||B||_L^2 (``k`` None) or s_k[B]_L^2 of every ``tracks[j]`` at
    ``l_values[j]``, from the tracks' prefix sums, as a scaled (mantissa,
    exponent) pair of arrays."""
    l_values = np.asarray(l_values, dtype=float)
    if k is not None and not all(1 <= int(k) <= t.dim for t in tracks):
        raise InvalidInputError(f"singular index {k} outside 1..{tracks[0].dim}")
    if not np.all(l_values >= 1.0):
        raise InvalidInputError("truncation cutoff must be >= 1")
    fl = np.floor(l_values).astype(np.int64)
    rows = list(zip(tracks, fl.tolist()))
    for (t, f), l_value in zip(rows, l_values.tolist()):
        if f + 1 > t.n_max:
            raise TrackTooShortError(
                f"cutoff {l_value} needs block {f + 1}, track ends at {t.n_max}", needed=f + 1
            )
    sq = np.array([t.sv_mant[f + 1] for t, f in rows]) ** 2
    if k is None:
        cum = [(t.cum_fro2_m[f], t.cum_fro2_e[f]) for t, f in rows]
        step = np.sum(sq, axis=1)
    else:
        cum = [(t.cum_sv2_m[f, int(k) - 1], t.cum_sv2_e[f, int(k) - 1]) for t, f in rows]
        step = sq[:, int(k) - 1]
    cum_m, cum_e = (np.array(c) for c in zip(*cum))
    e_next = np.array([2 * t.exp2[f + 1] for t, f in rows])
    return scaling.add(cum_m, cum_e, (l_values - fl) * step, e_next)


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
    l_value: float
    phi: recurrence.SolutionTrack
    psi: recurrence.SolutionTrack
    residual: float
    target: float
    status: str = "ok"  # ok | boundary
    phi_norm: float = math.nan  # ||phi||_L and ||psi||_L at the solved cutoff
    psi_norm: float = math.nan

    @property
    def tracks(self):
        return self.phi, self.psi


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
    rows = list(zip(tracks, m_idx.tolist()))
    a_m = np.array([t.cum_fro2_m[m - 1] for t, m in rows])
    a_e = np.array([t.cum_fro2_e[m - 1] for t, m in rows])
    b_m = np.sum(np.array([t.sv_mant[m] for t, m in rows]) ** 2, axis=1)
    b_e = np.array([2 * t.exp2[m] for t, m in rows])
    q_log2 = scaling.log2(*scaling.add(a_m, a_e, b_m, b_e))

    def rel(m_val, e_val):
        lg = scaling.log2(m_val, e_val)
        finite = np.isfinite(lg)
        return np.where(finite, _pows(np.where(finite, lg - q_log2, 0.0)), 0.0)

    return q_log2, rel(a_m, a_e), rel(b_m, b_e)


def _grow(phis, psis, group):
    """Double the tracks of the points of ``group`` in one kernel run."""
    n_new = min(2 * phis[group[0]].n_max, MAX_TRACK_BLOCKS)
    grown = recurrence.extend_tracks([phis[j] for j in group] + [psis[j] for j in group], n_new)
    for j, phi, psi in zip(group.tolist(), grown, grown[group.size:]):
        phis[j], psis[j] = phi, psi


def solve_l_grid(spec, xs, ys):
    """:func:`solve_l_of_y` at every point (xs[j], ys[j]).

    A generator: yields (indices, results) each time some points cross
    their target, ``results[i]`` the ``SolveLResult`` of point
    ``indices[i]``, and keeps no track of a point it has yielded, so a
    caller that reads and drops them holds few tracks at once.

    Each point starts from its Dirichlet/Neumann pair at real x, of
    ``INITIAL_TRACK_BLOCKS`` blocks, all from one kernel run. Until its
    integer-L product crosses the target, a point's tracks double; points
    that have not crossed double together in one
    :func:`recurrence.extend_tracks` call while their stack holds at most
    ``GROW_BLOCKS`` blocks, and past that each point doubles alone
    until it crosses, before the next starts. Every point ends at the
    length it would reach alone. The unit interval [m-1, m] of the
    crossing is then solved for the crossed points at once as a quadratic
    in the fractional part (affine times affine equals a constant), with a
    Newton polish, and ||phi||_L and ||psi||_L are read at the root. Raises
    TargetUnreachableError, for the first such point, if a product cannot
    reach its target within ``MAX_TRACK_BLOCKS`` blocks.
    """
    ys = [float(y) for y in ys]
    if any(y <= 0 for y in ys):
        raise InvalidInputError("y must be positive")
    if not ys:
        return
    d0_inv_norm = matblock.frobenius_norm(matblock.invert(spec.coefficient_at(0)[0]))
    phis, psis = (list(ts) for ts in zip(*recurrence.dirichlet_neumann_grid(
        spec, xs, INITIAL_TRACK_BLOCKS)))
    y = np.array(ys)
    target = 1.0 / (2.0 * y * d0_inv_norm)  # want ||psi||_L ||phi||_L = target
    log2_target_sq = np.array([2.0 * math.log2(t) for t in target.tolist()])

    # groups of points whose tracks share one length, run last in, first
    # out; a group marked True doubles its tracks before it looks for crossings
    pending = [(np.arange(len(ys)), False)]
    while pending:
        group, grow = pending.pop()
        if grow:
            _grow(phis, psis, group)
        n_max = phis[group[0]].n_max
        m_idx, prod = _crossings([phis[j] for j in group], [psis[j] for j in group],
                                 log2_target_sq[group])
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
        done = group[~left].tolist()
        if done:
            yield done, _solved([phis[j] for j in done], [psis[j] for j in done], m_idx[~left],
                                y[done], d0_inv_norm, target[done], log2_target_sq[done])
            for j in done:
                phis[j] = psis[j] = None
        group = group[left]
        if 4 * group.size * n_max > GROW_BLOCKS:  # two tracks of 2 n_max blocks a point
            pending += [(group[i : i + 1], True) for i in reversed(range(group.size))]
        elif group.size:
            pending.append((group, True))


def _solved(phis, psis, m_idx, y, d0_inv_norm, target, log2_target_sq):
    """``SolveLResult`` of every point whose product crosses at ``m_idx``."""
    # m = 0 is only possible if the target is non-positive at L = 1, i.e.
    # huge y; psi_1 = 0 makes the product vanish there: the boundary L = 1
    l_value = np.ones(len(phis))
    inner = np.flatnonzero(m_idx > 0)
    if inner.size:
        l_value[inner] = _interval_roots(
            [psis[j] for j in inner], [phis[j] for j in inner], m_idx[inner], log2_target_sq[inner]
        )
    phi_norm = truncated_values(phis, l_value)
    psi_norm = truncated_values(psis, l_value)
    residual = np.abs(2.0 * y * d0_inv_norm * psi_norm * phi_norm - 1.0)
    return [
        SolveLResult(lv, phi, psi, r if m > 0 else math.nan, tg, "ok" if m > 0 else "boundary", fp, fq)
        for lv, phi, psi, r, tg, m, fp, fq in zip(
            l_value.tolist(), phis, psis, residual.tolist(), target.tolist(), m_idx.tolist(),
            phi_norm.tolist(), psi_norm.tolist())
    ]


def _interval_roots(psis, phis, m_idx, log2_target_sq):
    """L in [m-1, m] with ||psi||_L^2 ||phi||_L^2 = target^2 at every point.

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
    l_value = (m_idx - 1) + t
    return np.where(l_value < 1.0, 1.0, l_value)
