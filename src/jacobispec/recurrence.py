"""Solution tracks, transfer matrices, cocycles, Wronskians, Jost assembly.

The eigenvalue recurrence

    D_n B_{n+1} + D_{n-1} B_{n-1} + (V_n - z) B_n = 0

is propagated block-by-block. Outside the AC region solutions grow
exponentially, so a track stores each block as a float mantissa plus a
power-of-two exponent: whenever the running pair's Frobenius norm leaves
[1e-100, 1e100] both sliding blocks are rescaled by a power of two and the
shift is recorded. Norms and singular values are exact in this (mantissa,
exponent) representation; plain-float accessors raise TrackOverflowError
once a value no longer fits.
"""

from __future__ import annotations

import math

import numpy as np

from . import matblock, scaling
from .errors import DomainError, InvalidInputError, SingularBlockError, TrackOverflowError

RESCALE_HIGH = 1e100
RESCALE_LOW = 1e-100


def _as_z(z):
    z = complex(z)
    return z.real if z.imag == 0.0 else z


class SolutionTrack:
    """An immutable run of recurrence blocks B_0..B_N at one energy.

    Carries per-step singular values of the stored mantissas, the exponent
    ledger, and running truncated-norm accumulators (cumulative sums of
    squared Frobenius norms and squared singular values, in scaled form).
    """

    def __init__(self, spec, z, blocks, exp2, kind="generic"):
        self.spec = spec
        self.z = _as_z(z)
        self.kind = kind
        self.blocks = blocks
        self.exp2 = exp2
        self.overflow_scaled = bool(np.any(exp2 != 0))
        sv_sq = matblock.batched_singular_sq(blocks)
        self.sv_mant = np.sqrt(sv_sq)
        fro2 = np.sum(sv_sq, axis=1)
        # truncation sums start at n = 1; index m holds sum over 1..m
        tm = np.concatenate(([0.0], fro2[1:]))
        te = np.concatenate(([np.int64(0)], 2 * exp2[1:]))
        self.cum_fro2_m, self.cum_fro2_e = scaling.cumulative(tm, te)
        tm_k = np.concatenate((np.zeros((1, sv_sq.shape[1])), sv_sq[1:]), axis=0)
        te_k = np.repeat(te[:, None], sv_sq.shape[1], axis=1)
        self.cum_sv2_m, self.cum_sv2_e = scaling.cumulative(tm_k, te_k)

    @property
    def dim(self):
        return self.blocks.shape[-1]

    @property
    def n_max(self):
        return self.blocks.shape[0] - 1

    def _check(self, n):
        n = int(n)
        if not 0 <= n <= self.n_max:
            raise InvalidInputError(f"index {n} outside track range 0..{self.n_max}")
        return n

    def block_scaled(self, n):
        n = self._check(n)
        return self.blocks[n], int(self.exp2[n])

    def block(self, n):
        mant, e = self.block_scaled(n)
        if e > 1000 and np.any(mant != 0):
            raise TrackOverflowError(f"block {n} exceeds float range (exp2 = {e})")
        return np.ldexp(1.0, max(e, -1074)) * mant if e else mant.copy()

    def singular_values_at(self, n):
        n = self._check(n)
        e = int(self.exp2[n])
        if e > 1000:
            raise TrackOverflowError(f"singular values at {n} exceed float range")
        return self.sv_mant[n] * np.ldexp(1.0, max(e, -1074))

    def singular_values_scaled(self, n):
        n = self._check(n)
        return self.sv_mant[n], int(self.exp2[n])

    def frobenius_norm_at(self, n):
        return float(np.sqrt(np.sum(self.singular_values_at(n) ** 2)))

    def recurrence_residual(self, n):
        """Relative defect of the recurrence at interior index n.

        Computed at the local scale (largest block exponent of the triple),
        so it is meaningful even deep inside the overflow-scaled regime.
        """
        n = self._check(n)
        if not 1 <= n <= self.n_max - 1:
            raise InvalidInputError("residual needs an interior index")
        d_n, v_n = self.spec.coefficient_at(n)
        d_prev, _ = self.spec.coefficient_at(n - 1)
        e_ref = int(max(self.exp2[n - 1 : n + 2]))
        parts = []
        for k in (n - 1, n, n + 1):
            shift = int(self.exp2[k]) - e_ref
            parts.append(np.ldexp(1.0, max(shift, -1074)) * self.blocks[k])
        b_prev, b_cur, b_next = parts
        defect = d_n @ b_next + d_prev @ b_prev + (v_n - self.z * np.eye(self.dim)) @ b_cur
        scale = max(
            matblock.frobenius_norm(d_n @ b_next),
            matblock.frobenius_norm(d_prev @ b_prev),
            matblock.frobenius_norm(b_cur) * (abs(self.z) + matblock.frobenius_norm(v_n)),
            1e-300,
        )
        return matblock.frobenius_norm(defect) / scale

    def extended(self, n_new):
        """A longer track continuing this one (self is left untouched)."""
        n_new = int(n_new)
        if n_new <= self.n_max:
            return self
        e_last = int(self.exp2[-1])
        shift = int(self.exp2[-2]) - e_last
        b_prev = np.ldexp(1.0, max(shift, -1074)) * self.blocks[-2]
        blocks, exp2 = _propagate(
            self.spec,
            self.z,
            self.n_max,
            n_new,
            b_prev,
            self.blocks[-1].copy(),
            e_last,
        )
        full_blocks = np.concatenate((self.blocks[:-1], blocks), axis=0)
        full_exp = np.concatenate((self.exp2[:-1], exp2))
        return SolutionTrack(self.spec, self.z, full_blocks, full_exp, kind=self.kind)


def _propagate(spec, z, n_start, n_stop, b_prev, b_cur, exp_cur):
    """Run the recurrence from index n_start up to n_stop inclusive.

    ``b_prev``/``b_cur`` are blocks n_start-1 and n_start at common scale
    2**exp_cur. Returns blocks[n_start..n_stop] and their exponents.
    """
    count = n_stop - n_start + 1
    blocks = np.empty((count,) + b_cur.shape, dtype=b_cur.dtype)
    exp2 = np.empty(count, dtype=np.int64)
    blocks[0] = b_cur
    exp2[0] = exp_cur
    eye = np.eye(spec.dim, dtype=b_cur.dtype)
    d_prev = spec.coefficient_at(n_start - 1)[0] if n_start >= 1 else None
    for i, n in enumerate(range(n_start, n_stop)):
        d_n, v_n = spec.coefficient_at(n)
        if d_prev is None:
            d_prev = spec.coefficient_at(n - 1)[0]
        rhs = (z * eye - v_n) @ b_cur - d_prev @ b_prev
        try:
            b_next = np.linalg.solve(d_n, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularBlockError(f"D_{n} is singular, recurrence stops") from exc
        nrm = math.sqrt(float(np.sum(np.abs(b_next) ** 2)))
        if nrm > RESCALE_HIGH or (0.0 < nrm < RESCALE_LOW and float(np.max(np.abs(b_cur))) < RESCALE_LOW):
            shift = int(math.ceil(math.log2(nrm)))
            factor = np.ldexp(1.0, -shift)
            b_next = b_next * factor
            b_cur = b_cur * factor
            exp_cur += shift
        b_prev = b_cur
        b_cur = b_next
        d_prev = d_n
        blocks[i + 1] = b_cur
        exp2[i + 1] = exp_cur
    return blocks, exp2


def _build_track(spec, z, n_max, b0, b1, kind):
    z = _as_z(z)
    dtype = complex if isinstance(z, complex) else float
    b0 = np.asarray(b0, dtype=dtype)
    b1 = np.asarray(b1, dtype=dtype)
    blocks, exp2 = _propagate(spec, z, 1, n_max, b0, b1, 0)
    full = np.concatenate((b0[None], blocks), axis=0)
    exps = np.concatenate(([np.int64(0)], exp2))
    return SolutionTrack(spec, z, full, exps, kind=kind)


def dirichlet_neumann(spec, z, n_max):
    """Dirichlet (0, I) and Neumann (I, 0) matrix solutions up to index n_max."""
    if n_max < 2:
        raise InvalidInputError("need n_max >= 2")
    l = spec.dim
    phi = _build_track(spec, z, n_max, np.zeros((l, l)), np.eye(l), kind="dirichlet")
    psi = _build_track(spec, z, n_max, np.eye(l), np.zeros((l, l)), kind="neumann")
    return phi, psi


def track_from_blocks(spec, z, blocks, kind="generic"):
    """Wrap externally supplied blocks (e.g. a non-solution test sequence)."""
    arr = np.asarray(blocks)
    return SolutionTrack(spec, z, arr, np.zeros(arr.shape[0], dtype=np.int64), kind=kind)


# ---------------------------------------------------------------------------
# Transfer matrices and cocycles.


def transfer_step(d_n, d_prev, v_n, z):
    """One-step propagator [[D_n^-1 (z - V_n), -D_n^-1], [D_n, 0]].

    ``d_prev`` does not enter the matrix itself (the previous coefficient
    only appears through the propagated vector); it is accepted so callers
    can pair the step with :func:`lift_pair`.
    """
    return _transfer_steps(d_n, v_n, np.array([_as_z(z)]))[0]


def _transfer_steps(d_n, v_n, zs):
    """:func:`transfer_step` at every energy of ``zs``, shape (N, 2l, 2l)."""
    d_n = np.asarray(d_n, dtype=float)
    v_n = np.asarray(v_n, dtype=float)
    l = d_n.shape[0]
    d_inv = matblock.invert(d_n)
    out = np.zeros((zs.size, 2 * l, 2 * l), dtype=zs.dtype)
    out[:, :l, :l] = d_inv @ (zs[:, None, None] * np.eye(l) - v_n)
    out[:, :l, l:] = -d_inv
    out[:, l:, :l] = d_n
    return out


def lift_pair(u_n, u_prev, d_prev):
    """Stack (u_n, D_{n-1} u_{n-1}) into the 2l-row vector the cocycle acts on."""
    u_n = np.atleast_2d(u_n)
    u_prev = np.atleast_2d(u_prev)
    return np.concatenate((u_n, np.asarray(d_prev) @ u_prev), axis=0)


def cocycle_product(spec, z, n):
    """A_n = alpha_{n-1} ... alpha_1 (A_0 = A_1 = I), with exponent ledger.

    Returns (mantissa matrix, exp2); the product is rescaled by powers of
    two whenever its Frobenius norm exceeds 1e100.
    """
    acc, exp2 = cocycle_products(spec, np.array([_as_z(z)]), n)
    return acc[0], int(exp2[0])


def cocycle_products(spec, zs, n):
    """:func:`cocycle_product` for a vector of energies as one stacked product.

    Returns mantissas of shape (N, 2l, 2l) and the int64 exp2 ledger (N,);
    each product is rescaled on its own, by the same rule.
    """
    n = int(n)
    if n < 0:
        raise InvalidInputError("cocycle index must be >= 0")
    zs = np.asarray(zs)
    zs = zs.astype(complex if np.iscomplexobj(zs) else float)
    l = spec.dim
    acc = np.tile(np.eye(2 * l, dtype=zs.dtype), (zs.size, 1, 1))
    exp2 = np.zeros(zs.size, dtype=np.int64)
    for k in range(1, n):
        d_k, v_k = spec.coefficient_at(k)
        acc = _transfer_steps(d_k, v_k, zs) @ acc
        nrm = np.sqrt(np.sum(np.abs(acc) ** 2, axis=(1, 2)))
        hot = nrm > RESCALE_HIGH
        if np.any(hot):
            shift = np.zeros(zs.size, dtype=np.int64)
            shift[hot] = np.ceil(np.log2(nrm[hot]))
            acc = acc * np.ldexp(1.0, -shift)[:, None, None]
            exp2 += shift
    return acc, exp2


# ---------------------------------------------------------------------------
# Wronskians and the Green formula.


def wronskian(track_a, track_b, n, spec=None):
    """W_[A,B](n) = A_{n-1}^t D_{n-1} B_n - A_n^t D_{n-1} B_{n-1}."""
    spec = spec if spec is not None else track_a.spec
    n = int(n)
    if n < 1:
        raise InvalidInputError("Wronskian needs n >= 1")
    d_prev = spec.coefficient_at(n - 1)[0]
    a_prev, a_n = track_a.block(n - 1), track_a.block(n)
    b_prev, b_n = track_b.block(n - 1), track_b.block(n)
    return a_prev.T @ d_prev @ b_n - a_n.T @ d_prev @ b_prev


def green_formula_residual(track_a, track_b, m, n, spec=None, *, action="eigen", z_ref=None):
    """Defect of the summed Green identity between indices m and n.

    action="eigen" (default) substitutes H(u) = z_ref * u for both tracks
    at a single reference energy (track A's by default); the summed term
    then cancels and the residual measures the Wronskian increment
    W(n+1) - W(m), which vanishes exactly when both tracks solve the same
    eigenvalue equation. action="operator" applies the true coefficient
    action, for which the identity is algebraic in any sequences; this mode
    exists to cross-check arbitrary block sequences against brute force.
    """
    spec = spec if spec is not None else track_a.spec
    m, n = int(m), int(n)
    if not (0 <= m < n):
        raise InvalidInputError("need 0 <= m < n")
    if action not in ("eigen", "operator"):
        raise InvalidInputError("action must be 'eigen' or 'operator'")
    if action == "operator" and (m < 1 or n + 1 > track_a.n_max or n + 1 > track_b.n_max):
        raise InvalidInputError("operator action needs blocks m-1 .. n+1 on both tracks")
    l = track_a.dim
    total = np.zeros((l, l), dtype=complex)
    for k in range(m, n + 1):
        a_k = track_a.block(k)
        b_k = track_b.block(k)
        if action == "eigen":
            z = _as_z(z_ref) if z_ref is not None else track_a.z
            hb = z * b_k
            ha = z * a_k
        else:
            d_k, v_k = spec.coefficient_at(k)
            d_km1 = spec.coefficient_at(k - 1)[0]
            hb = d_km1 @ track_b.block(k - 1) + d_k @ track_b.block(k + 1) + v_k @ b_k
            ha = d_km1 @ track_a.block(k - 1) + d_k @ track_a.block(k + 1) + v_k @ a_k
        total = total + (a_k.T @ hb - ha.T @ b_k)
    delta_w = wronskian(track_a, track_b, n + 1, spec) - wronskian(track_a, track_b, m, spec)
    return float(matblock.frobenius_norm(total - delta_w))


# ---------------------------------------------------------------------------
# Jost assembly and the half-plane identity behind the subordinacy bounds.


def jost_assemble(phi_track, psi_track, m_matrix, d0=None):
    """F_n = psi_n - phi_n M D_0 from same-energy tracks at Im z > 0.

    By the initial conditions this gives F_0 = I and F_1 = -M D_0 exactly.
    The assembly loses accuracy once the growing parts of phi/psi dominate
    the decaying F (n beyond a few dozen); long Jost runs should use the
    corner-resolvent chain in the Weyl module instead.
    """
    if isinstance(phi_track.z, float) or phi_track.z != psi_track.z:
        raise DomainError("tracks must share one energy with Im z > 0")
    if phi_track.z.imag <= 0:
        raise DomainError("Jost assembly needs Im z > 0")
    spec = phi_track.spec
    m_matrix = np.asarray(m_matrix)
    if m_matrix.shape != (phi_track.dim, phi_track.dim):
        raise InvalidInputError("M block has the wrong dimensions")
    d0 = np.asarray(d0) if d0 is not None else spec.coefficient_at(0)[0]
    md0 = m_matrix @ d0
    n_max = min(phi_track.n_max, psi_track.n_max)
    blocks = np.empty((n_max + 1, phi_track.dim, phi_track.dim), dtype=complex)
    for k in range(n_max + 1):
        blocks[k] = psi_track.block(k) - phi_track.block(k) @ md0
    return SolutionTrack(spec, phi_track.z, blocks, np.zeros(n_max + 1, dtype=np.int64), kind="jost")


def jl_identity_residual(phi_x, psi_x, f_track, m_matrix, x, y, n_max):
    """Max relative defect of the half-plane solution identity up to n_max.

    Checks F_n(z) against
        psi_n(x) - phi_n(x) M(z) D_0
        - i y psi_n(x) sum_{k<=n} D_0^-1 phi_k(x)^t F_k(z)
        + i y phi_n(x) sum_{k<=n} D_0^-1 psi_k(x)^t F_k(z)
    with z = x + i y. Partial sums are Kahan-compensated. The residual at n
    is normalized by the largest participating term norm.
    """
    n_max = int(n_max)
    if n_max < 1 or n_max > min(phi_x.n_max, psi_x.n_max, f_track.n_max):
        raise InvalidInputError("n_max outside the common track range")
    spec = phi_x.spec
    l = phi_x.dim
    d0 = spec.coefficient_at(0)[0]
    d0_inv = matblock.invert(d0)
    md0 = np.asarray(m_matrix) @ d0
    alpha = np.zeros((l, l), dtype=complex)
    beta = np.zeros((l, l), dtype=complex)
    comp_a = np.zeros_like(alpha)
    comp_b = np.zeros_like(beta)
    worst = 0.0
    iy = 1j * float(y)
    for n in range(1, n_max + 1):
        f_n = f_track.block(n)
        phi_n = phi_x.block(n)
        psi_n = psi_x.block(n)
        # Kahan step for both running sums
        ta = d0_inv @ phi_n.T @ f_n - comp_a
        sa = alpha + ta
        comp_a = (sa - alpha) - ta
        alpha = sa
        tb = d0_inv @ psi_n.T @ f_n - comp_b
        sb = beta + tb
        comp_b = (sb - beta) - tb
        beta = sb
        terms = (psi_n, -phi_n @ md0, -iy * (psi_n @ alpha), iy * (phi_n @ beta))
        predicted = terms[0] + terms[1] + terms[2] + terms[3]
        scale = max(
            matblock.frobenius_norm(f_n),
            max(matblock.frobenius_norm(t) for t in terms),
            1e-300,
        )
        worst = max(worst, matblock.frobenius_norm(f_n - predicted) / scale)
    return worst
