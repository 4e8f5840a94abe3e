"""Truncated norms and singular values of solution tracks, and the cutoff
equation 2 y ||D0^-1|| ||psi||_L ||phi||_L = 1 that fixes L(y).

The truncated norm at real L >= 1 interpolates linearly in the squares:

    ||B||_L^2 = sum_{n=1}^{floor(L)} ||B_n||^2 + (L - floor(L)) ||B_{floor(L)+1}||^2

so on every unit interval the squared norm is affine in the fractional part
and the matching condition becomes a quadratic with a unique root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matblock, recurrence, scaling
from .errors import InvalidInputError, TargetUnreachableError, TrackTooShortError

MAX_TRACK_BLOCKS = 2**24
INITIAL_TRACK_BLOCKS = 16


def _split_l(track, l_value):
    l_value = float(l_value)
    if l_value < 1.0:
        raise InvalidInputError("truncation cutoff must be >= 1")
    fl = int(math.floor(l_value))
    frac = l_value - fl
    needed = fl + 1
    if needed > track.n_max:
        raise TrackTooShortError(
            f"cutoff {l_value} needs block {needed}, track ends at {track.n_max}",
            needed=needed,
        )
    return fl, frac


def truncated_sq_scaled(track, l_value, k=None):
    """||B||_L^2 (``k`` None) or s_k[B]_L^2 from the track's prefix sums, as
    a scaled (mantissa, exponent) pair."""
    if k is not None and not 1 <= int(k) <= track.dim:
        raise InvalidInputError(f"singular index {k} outside 1..{track.dim}")
    fl, frac = _split_l(track, l_value)
    sq = track.sv_mant[fl + 1] ** 2
    if k is None:
        cum_m, cum_e, step = track.cum_fro2_m[fl], track.cum_fro2_e[fl], np.sum(sq)
    else:
        col = int(k) - 1
        cum_m, cum_e, step = track.cum_sv2_m[fl, col], track.cum_sv2_e[fl, col], sq[col]
    return scaling.add(cum_m, cum_e, frac * step, 2 * int(track.exp2[fl + 1]))


def truncated_norm(track, l_value) -> float:
    """||B||_L with Frobenius norms per block; nondecreasing in L."""
    return float(np.sqrt(scaling.to_float(*truncated_sq_scaled(track, l_value))))


def truncated_singular(track, k, l_value) -> float:
    """s_k[B]_L, the truncated k-th singular value."""
    return float(np.sqrt(scaling.to_float(*truncated_sq_scaled(track, l_value, k))))


@dataclass
class SolveLResult:
    l_value: float
    phi: recurrence.SolutionTrack
    psi: recurrence.SolutionTrack
    residual: float
    target: float
    status: str = "ok"  # ok | boundary

    @property
    def tracks(self):
        return self.phi, self.psi


def solve_l_of_y(spec, x, y, *, tracks=None):
    """Find L >= 1 with 2 y ||D0^-1||_F ||psi||_L ||phi||_L = 1.

    Dirichlet/Neumann tracks at real ``x`` (``tracks``, or a fresh pair of
    ``INITIAL_TRACK_BLOCKS`` blocks) are grown by doubling, both in one
    kernel run, until the integer-L product crosses the target, then the
    unit interval is solved as a quadratic in the fractional part (affine
    times affine equals a constant), with a Newton polish. Raises
    TargetUnreachableError if the product cannot reach the target within
    ``MAX_TRACK_BLOCKS`` blocks.
    """
    y = float(y)
    if y <= 0:
        raise InvalidInputError("y must be positive")
    d0 = spec.coefficient_at(0)[0]
    d0_inv_norm = matblock.frobenius_norm(matblock.invert(d0))
    target = 1.0 / (2.0 * y * d0_inv_norm)  # want ||psi||_L ||phi||_L = target
    log2_target_sq = 2.0 * math.log2(target)

    if tracks is not None:
        phi, psi = tracks
    else:
        phi, psi = recurrence.dirichlet_neumann(spec, x, INITIAL_TRACK_BLOCKS)

    def product_log2():
        return scaling.log2(phi.cum_fro2_m, phi.cum_fro2_e) + scaling.log2(
            psi.cum_fro2_m, psi.cum_fro2_e
        )

    while True:
        prod = product_log2()
        # crossing index: smallest m with ||psi||_m^2 ||phi||_m^2 >= target^2
        hit = np.nonzero(prod >= log2_target_sq)[0]
        if hit.size and hit[0] <= phi.n_max - 1:
            m_idx = int(hit[0])
            break
        if phi.n_max >= MAX_TRACK_BLOCKS:
            attained = 2.0 * y * d0_inv_norm * math.sqrt(2.0 ** float(prod[-2]))
            raise TargetUnreachableError(
                f"cutoff equation unreachable within {MAX_TRACK_BLOCKS} blocks "
                f"(attained f = {attained:.6g})",
                attained=attained,
                max_length=MAX_TRACK_BLOCKS,
            )
        phi, psi = recurrence.extend_tracks((phi, psi), min(2 * phi.n_max, MAX_TRACK_BLOCKS))

    if m_idx == 0:
        # only possible if the target is non-positive at L = 1, i.e. huge y;
        # psi_1 = 0 makes the product vanish there, so return the boundary
        return SolveLResult(1.0, phi, psi, float("nan"), target, status="boundary")

    # factors on [m-1, m]: (a1 + b1 t)(a2 + b2 t) = target^2, t in [0, 1];
    # each factor is rescaled by its own magnitude so the quadratic has O(1)
    # coefficients regardless of how unbalanced phi and psi have grown
    def factor(track):
        a_m, a_e = track.cum_fro2_m[m_idx - 1], track.cum_fro2_e[m_idx - 1]
        b_m = float(np.sum(track.sv_mant[m_idx] ** 2))
        b_e = 2 * int(track.exp2[m_idx])
        q_m, q_e = scaling.add(a_m, a_e, b_m, b_e)  # scale reference a + b
        q_log2 = float(scaling.log2(q_m, q_e))
        return q_log2, a_m, a_e, b_m, b_e

    q1_log2, a1_m, a1_e, b1_m, b1_e = factor(psi)
    q2_log2, a2_m, a2_e, b2_m, b2_e = factor(phi)

    def rel(m_val, e_val, ref_log2):
        lg = scaling.log2(m_val, e_val)
        return float(2.0 ** (lg - ref_log2)) if np.isfinite(lg) else 0.0

    a1 = rel(a1_m, a1_e, q1_log2)
    b1 = rel(b1_m, b1_e, q1_log2)
    a2 = rel(a2_m, a2_e, q2_log2)
    b2 = rel(b2_m, b2_e, q2_log2)
    rhs = 2.0 ** (log2_target_sq - q1_log2 - q2_log2)

    # quadratic A t^2 + B t + C = 0 with the product increasing on [0, 1]
    qa = b1 * b2
    qb = a1 * b2 + a2 * b1
    qc = a1 * a2 - rhs
    if qa > 0:
        disc = max(qb * qb - 4.0 * qa * qc, 0.0)
        t = (2.0 * max(-qc, 0.0)) / (qb + math.sqrt(disc)) if qb + math.sqrt(disc) > 0 else 0.0
    elif qb > 0:
        t = max(-qc, 0.0) / qb
    else:
        t = 0.0  # locally flat product, left endpoint
    # Newton polish on g(t) = (a1+b1 t)(a2+b2 t) - rhs
    for _ in range(3):
        g = (a1 + b1 * t) * (a2 + b2 * t) - rhs
        dg = b1 * (a2 + b2 * t) + b2 * (a1 + b1 * t)
        if dg <= 0:
            break
        t -= g / dg
    t = min(max(t, 0.0), 1.0)
    l_value = (m_idx - 1) + t
    if l_value < 1.0:
        l_value = 1.0
    residual = abs(
        2.0 * y * d0_inv_norm * truncated_norm(psi, l_value) * truncated_norm(phi, l_value)
        - 1.0
    )
    return SolveLResult(float(l_value), phi, psi, float(residual), target)
