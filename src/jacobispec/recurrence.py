"""Solution tracks, transfer matrices, cocycles, Wronskians, Jost assembly.

The eigenvalue recurrence

    D_n B_{n+1} + D_{n-1} B_{n-1} + (V_n - z) B_n = 0

is stepped by one batched kernel, :func:`forward`, which every track and
every Cesaro sweep runs on. The kernel holds a batch of N blocks
component-major, as one (l, l, N) array whose [i, j] row carries entry
(i, j) of every block: for l <= 2 a block product is then a few
elementwise operations on length-N rows instead of N small matmuls. Each
B_n is written as one row of a (K, l, l, N) buffer of the caller's, K rows
at a time. Outside the AC region solutions grow exponentially, so blocks
are kept as a float mantissa plus a power-of-two exponent: every 8 steps
(at absolute indices n = 0 mod 8) the sliding pair is checked, and once
its largest entry leaves [2^-120, 2^120] both blocks are shifted by a
power of two and the shift is recorded. Norms and singular values are
exact in this (mantissa, exponent) representation; plain-float accessors
raise TrackOverflowError once a value no longer fits.
"""

from __future__ import annotations

import numpy as np

from . import matblock, models, scaling
from .errors import (DomainError, InvalidInputError, JacobiSpecError, SingularBlockError,
                     TrackOverflowError)

# Largest entries are kept within 2^+-120, checked every 8 steps; this keeps
# every intermediate of the closed-form singular values finite for per-step
# growth factors up to ~1e4.
_RESCALE_LOG2 = 120
_RESCALE_EVERY = 8
# coefficient steps the forward kernel reads at once
_CHUNK = 256


def _as_z(z):
    z = complex(z)
    return z.real if z.imag == 0.0 else z


class SolutionTrack:
    """An immutable run of recurrence blocks B_0..B_N at one energy.

    Carries per-step singular values of the stored mantissas, the exponent
    ledger, and running truncated-norm accumulators (cumulative sums of
    squared Frobenius norms and squared singular values, in scaled form).
    ``sums`` takes these from :func:`_truncation_sums` of a stack the track
    belongs to; without it the track computes its own.
    """

    def __init__(self, spec, z, blocks, exp2, kind="generic", sums=None):
        self.spec = spec
        self.z = _as_z(z)
        self.kind = kind
        self.blocks = blocks
        self.exp2 = exp2
        self.overflow_scaled = bool(np.any(exp2 != 0))
        if sums is None:
            sums = (a[:, 0] for a in _truncation_sums(blocks[:, None], exp2[:, None]))
        self.sv_mant, cum_m, cum_e = sums
        l = self.sv_mant.shape[1]
        self.cum_sv2_m, self.cum_sv2_e = cum_m[:, :l], cum_e[:, :l]
        self.cum_fro2_m, self.cum_fro2_e = cum_m[:, l], cum_e[:, l]

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
        (d_prev, d_n), (_, v_n) = models.coefficient_arrays(self.spec, n - 1, n + 1)
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
        return extend_tracks([self], n_new)[0]


def _inverses(d):
    """D^-1 of a stack of blocks, cut short before the first singular one."""
    try:
        return np.linalg.inv(d)
    except np.linalg.LinAlgError:
        for k, block in enumerate(d):
            try:
                np.linalg.inv(block)
            except np.linalg.LinAlgError:
                return np.linalg.inv(d[:k])


def _pow2_shift(mags):
    """Exponents that bring magnitudes back into [2^-120, 2^120].

    Returns the int64 frexp exponent of every positive entry of ``mags``
    outside that range (0 for the others), or None when all are inside.
    """
    hot = (mags > 2.0**_RESCALE_LOG2) | ((mags > 0) & (mags < 2.0**-_RESCALE_LOG2))
    if not np.any(hot):
        return None
    _, e = np.frexp(mags)
    return np.where(hot, e, 0).astype(np.int64)


def _product(m, b):
    """M B for a component-major stack ``b`` of shape (l, l, G, B).

    ``m`` carries M by columns: m[j] is column j of every member's M, of
    shape (l, 1, G, 1). For l <= 2 the product is the written-out sum
    M[:, 0] B[0] + M[:, 1] B[1], in the summation order of a matmul;
    larger l runs one stacked matmul.
    """
    if len(m) > 2:
        return (m[:, :, 0].transpose(2, 3, 1, 0) @ b.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1)
    out = m[0] * b[0]
    if len(m) == 2:
        out += m[1] * b[1]
    return out


def forward(specs, zs, b_prev, b_cur, n_start, exp2, n_stop, out):
    """Step the recurrence for a batch of energies into the caller's buffer.

    ``zs`` holds N energies; ``b_prev``/``b_cur`` are the (N, l, l) blocks
    n_start - 1 and n_start, entry j at scale 2**exp2[j] (int64 ledger).
    ``specs`` is a tuple of G member models of one dimension: the batch
    splits into G equal contiguous groups, and group g steps with the
    coefficients of specs[g].
    B_{n+1} = D_n^-1 (z B_n - V_n B_n - D_{n-1} B_{n-1}); B_n_start ..
    B_n_stop are written into ``out``, a (K, l, l, N) component-major
    buffer, K rows at a time. After each fill the generator yields the
    list of its rows' ledgers; the next fill starts again at row 0 once
    the next item is requested. Coefficients are read in chunks of up to
    _CHUNK steps, none past n_stop, through
    :func:`models.coefficient_arrays`, D^-1 from one stacked inverse; a
    singular D_n raises SingularBlockError at the step that needs D_n^-1.
    At an index where every member has D = I the
    products with D_{n-1} and D_n^-1 are skipped (exact, as 1.0 * x = x).
    After the step from an index n = 0 mod 8 the pair is shifted by
    :func:`_pow2_shift` of its largest entry, and TrackOverflowError is
    raised if an entry is no longer finite (growth beyond float range
    within 8 steps, or NaN). A failing step first yields the rows written
    before it. The ledger array is replaced, never mutated, at each shift,
    so the rows of a rescale period share one ledger and a caller detects
    a rescale by identity.
    """
    g, l = len(specs), b_cur.shape[-1]
    zz = np.asarray(zs).reshape(g, -1)
    b_prev, b_cur = (np.ascontiguousarray(b.transpose(1, 2, 0)).reshape(l, l, *zz.shape)
                     for b in (b_prev, b_cur))
    n, ledgers = n_start, []
    try:
        while True:
            size = min(_CHUNK, n_stop + 1 - n)
            d, v = (np.stack(arrays, axis=1) for arrays in zip(*(
                models.coefficient_arrays(spec, n - 1, n + size) for spec in specs)))
            d_inv = _inverses(d[1:])
            plain = np.all(d == np.eye(l), axis=(1, 2, 3)).tolist()
            # (steps, l, l, 1, G, 1): [k, j, i] is entry (i, j) of every member
            d, d_inv, v = (np.ascontiguousarray(a.transpose(0, 3, 2, 1))[:, :, :, None, :, None]
                           for a in (d, d_inv, v))
            for k in range(size):
                out[len(ledgers)] = b_cur.reshape(l, l, -1)
                ledgers.append(exp2)
                if n == n_stop or len(ledgers) == len(out):
                    yield ledgers
                    if n == n_stop:
                        return
                    ledgers = []
                if k == len(d_inv):
                    raise SingularBlockError(f"D_{n} is singular, recurrence stops")
                t = zz * b_cur
                t -= _product(v[k + 1], b_cur)
                t -= b_prev if plain[k] else _product(d[k], b_prev)
                b_prev, b_cur = b_cur, t if plain[k + 1] else _product(d_inv[k], t)
                if n % _RESCALE_EVERY == 0:
                    pair = np.abs(np.concatenate((b_prev, b_cur)).reshape(2 * l * l, -1))
                    mags = pair.max(axis=0)
                    if not np.isfinite(mags).all():
                        raise TrackOverflowError(f"blocks left float range before index {n + 1}")
                    shift = _pow2_shift(mags)
                    if shift is not None:
                        factor = np.ldexp(1.0, -shift).reshape(zz.shape)
                        # B_n may still be the caller's b_cur: it gets a new array
                        b_cur *= factor
                        b_prev = b_prev * factor
                        exp2 = exp2 + shift
                n += 1
    except JacobiSpecError:
        if ledgers:
            yield ledgers
        raise


def _truncation_sums(blocks, exp2):
    """Singular values and truncation sums of T tracks side by side.

    ``blocks`` (n+1, T, l, l) and ``exp2`` (n+1, T) hold the tracks.
    Returns the singular-value mantissas (n+1, T, l) and the scaled
    running sums (n+1, T, l+1) from one :func:`matblock.batched_singular_sq`
    and one :func:`scaling.cumulative` call: columns 0..l-1 hold the squared
    singular values, column l their sum (the squared Frobenius norm), all
    on the track's 2 * exp2 ledger; sums start at n = 1, so index m holds
    the sum over 1..m. Each track's sums are the ones it would get alone.
    """
    n1, count, l = blocks.shape[0], blocks.shape[1], blocks.shape[-1]
    sv_sq = matblock.batched_singular_sq(blocks.reshape(-1, l, l)).reshape(n1, count, l)
    tm = np.concatenate((sv_sq, np.sum(sv_sq, axis=2, keepdims=True)), axis=2)
    tm[0] = 0.0
    te = np.repeat(2 * exp2[:, :, None], l + 1, axis=2)
    te[0] = 0
    return (np.sqrt(sv_sq), *scaling.cumulative(tm, te))


def _continued(spec, zs, kinds, blocks, exp2, n_new):
    """One SolutionTrack per column of rows ``blocks`` (m+1, T, l, l) on
    ledgers ``exp2`` (m+1, T), continued to block n_new by one kernel run
    from the last two rows (row m - 1 shifted onto row m's ledger)."""
    m, count, l = blocks.shape[0] - 1, blocks.shape[1], blocks.shape[-1]
    rows = np.empty((n_new + 1, l, l, count), dtype=blocks.dtype)
    rows[:m] = blocks[:m].transpose(0, 2, 3, 1)
    exps = np.empty((n_new + 1, count), dtype=np.int64)
    exps[:m] = exp2[:m]
    b_prev = np.ldexp(1.0, np.maximum(exp2[m - 1] - exp2[m], -1074))[:, None, None] * blocks[m - 1]
    with np.errstate(over="ignore", invalid="ignore"):  # the rescale check raises instead
        for ledgers in forward((spec,), zs, b_prev, blocks[m], m, exp2[m], n_new, rows[m:]):
            exps[m : m + len(ledgers)] = ledgers
    blocks = rows.transpose(0, 3, 1, 2)
    sums = _truncation_sums(blocks, exps)
    return [SolutionTrack(spec, z, blocks[:, k], exps[:, k], kind, [a[:, k] for a in sums])
            for k, (z, kind) in enumerate(zip(zs, kinds))]


def extend_tracks(tracks, n_new):
    """Tracks continued to block n_new, all in one kernel run.

    The tracks share one spec and one length; each keeps its own energy,
    kind and exponent ledger, and comes out bit for bit as a fresh run to
    n_new would. Tracks that already reach n_new are returned as they are.
    """
    n_new = int(n_new)
    if n_new <= tracks[0].n_max:
        return list(tracks)
    return _continued(tracks[0].spec, np.array([t.z for t in tracks]), [t.kind for t in tracks],
                      np.stack([t.blocks for t in tracks], axis=1),
                      np.stack([t.exp2 for t in tracks], axis=1), n_new)


def dirichlet_neumann_grid(spec, zs, n_max):
    """Dirichlet (0, I) and Neumann (I, 0) solutions up to n_max at every z.

    Returns a list of (phi, psi), one pair per energy of ``zs``; all 2N
    tracks run as one batch of the kernel and take their truncation sums
    from one :func:`_truncation_sums` call. A batch holding any non-real
    energy runs in complex arithmetic.
    """
    if n_max < 2:
        raise InvalidInputError("need n_max >= 2")
    zs = [_as_z(z) for z in zs]
    l = spec.dim
    dtype = complex if any(isinstance(z, complex) for z in zs) else float
    # rows B_0, B_1 on a zero ledger; entry 2j is phi_j, entry 2j + 1 is psi_j
    head = np.zeros((2, 2 * len(zs), l, l), dtype=dtype)
    head[0, 1::2] = head[1, 0::2] = np.eye(l)
    tracks = _continued(spec, np.repeat(np.array(zs, dtype=dtype), 2),
                        ("dirichlet", "neumann") * len(zs), head,
                        np.zeros((2, 2 * len(zs)), dtype=np.int64), n_max)
    return list(zip(tracks[0::2], tracks[1::2]))


def dirichlet_neumann(spec, z, n_max):
    """Dirichlet (0, I) and Neumann (I, 0) matrix solutions up to index n_max."""
    return dirichlet_neumann_grid(spec, [z], n_max)[0]


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

    Returns (mantissa matrix, exp2); the product is shifted by a power of
    two (:func:`_pow2_shift`) whenever its largest entry leaves 2^+-120.
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
    coeffs = zip(*models.coefficient_arrays(spec, 1, n)) if n > 1 else ()
    for d_k, v_k in coeffs:
        acc = _transfer_steps(d_k, v_k, zs) @ acc
        shift = _pow2_shift(np.max(np.abs(acc), axis=(1, 2)))
        if shift is not None:
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


def green_formula_residual(track_a, track_b, m, n, spec=None, *, z_ref=None):
    """Defect of the summed Green identity between indices m and n.

    Substitutes H(u) = z_ref * u for both tracks at a single reference
    energy (track A's by default); the summed term then cancels and the
    residual measures the Wronskian increment W(n+1) - W(m), which vanishes
    exactly when both tracks solve the same eigenvalue equation.
    """
    spec = spec if spec is not None else track_a.spec
    m, n = int(m), int(n)
    if not (0 <= m < n):
        raise InvalidInputError("need 0 <= m < n")
    l = track_a.dim
    total = np.zeros((l, l), dtype=complex)
    z = _as_z(z_ref) if z_ref is not None else track_a.z
    for k in range(m, n + 1):
        a_k, b_k = track_a.block(k), track_b.block(k)
        total = total + (a_k.T @ (z * b_k) - (z * a_k).T @ b_k)
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
