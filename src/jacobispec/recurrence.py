"""Solution tracks, transfer matrices, cocycles, Wronskians, Jost assembly.

The eigenvalue recurrence

    D_n B_{n+1} + D_{n-1} B_{n-1} + (V_n - z) B_n = 0

is stepped by one batched kernel, :func:`forward`, which every track and
every Cesaro sweep runs on. The kernel holds a batch of N blocks
component-major, as one (l, l, N) array whose [i, j] row carries entry
(i, j) of every block: for l <= 2 a block product is then a few
elementwise operations on length-N rows instead of N small matmuls. For
l = 1 the step is four in-place ufuncs on (G, B) arrays that take turns
as B_{n+1}. Each B_n is written as one row of a (K, l, l, N) buffer of the
caller's, K rows at a time. Outside the AC region solutions grow
exponentially, so blocks are kept as a float mantissa plus a power-of-two
exponent per member: every 8 steps (at absolute indices n = 0 mod 8) the
sliding pair is checked, and each member whose largest entry has left
[2^-120, 2^120] has both its blocks shifted by a power of two and the
shift recorded; the members inside the window are not touched. Norms
and singular values are exact in this (mantissa, exponent)
representation; plain-float accessors raise TrackOverflowError once a
value no longer fits.
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
    belongs to; without it the track computes its own. Either way the
    ledger may change only between rescale periods.
    """

    def __init__(self, spec, z, blocks, exp2, sums=None):
        self.spec = spec
        self.z = _as_z(z)
        self.blocks = blocks
        self.exp2 = exp2
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

    def block(self, n):
        """Block n as plain floats; TrackOverflowError once its largest
        entry, 2^e times the mantissa's, is not below 2^1024."""
        n = self._check(n)
        mant, e = self.blocks[n], int(self.exp2[n])
        top = np.abs(mant).max()
        if top and np.frexp(top)[1] + e > 1024:
            raise TrackOverflowError(f"block {n} exceeds float range (exp2 = {e})")
        if mant.dtype.kind != "c":
            return np.ldexp(mant, e)
        return np.ldexp(mant.real, e) + 1j * np.ldexp(mant.imag, e)

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


def _pow2_shift(mags, blocks, exp2):
    """Shift the members whose largest magnitude ``mags`` left [2^-120, 2^120].

    ``blocks`` are (entries, members) arrays. Only the hot members are
    scaled, in place, by 2^-e, e the frexp exponent of their magnitude (0
    for a member at 0). Returns the ledger plus e at those members as a
    new array, or ``exp2`` itself when none is hot.
    """
    hot = ((mags > 2.0**_RESCALE_LOG2) | (mags < 2.0**-_RESCALE_LOG2)).nonzero()[0]
    if not hot.size:
        return exp2
    e = np.frexp(mags[hot])[1]
    factor = np.ldexp(1.0, -e)
    for row in (row for b in blocks for row in b):
        row[hot] *= factor
    exp2 = exp2.copy()
    exp2[hot] += e
    return exp2


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
    buffer, K rows at a time. After each fill the generator yields the list
    of its rows' ledgers; the next fill starts again at row 0 once the next
    item is requested. Coefficients are read in chunks of up to _CHUNK
    steps, none past n_stop, through :func:`models.coefficient_arrays`, D^-1
    from one stacked inverse; a singular D_n raises SingularBlockError at
    the step that needs D_n^-1. At an index where every member has D = I the
    products with D_{n-1} and D_n^-1 are skipped (exact, as 1.0 * x = x).
    For l = 1 the step is z B_n, then - V_n B_n, then - B_{n-1}
    (or - D_{n-1} B_{n-1}), then D_n^-1 when D_n != 1, as in-place ufuncs on
    (G, B) arrays, B_{n+1} into the one of three scratch arrays that holds
    neither B_n nor B_{n-1}; l >= 2 takes the same steps through
    :func:`_product`. After the step from an index n = 0 mod 8,
    TrackOverflowError is raised if an entry of the pair is no longer finite
    (growth beyond float range within 8 steps, or NaN); else
    :func:`_pow2_shift` shifts the members whose largest entry left the
    window. A failing step first yields the rows written before it. The
    ledger array is replaced, never mutated, at each shift, so the rows of a
    rescale period share one ledger and a caller detects a rescale by
    identity.
    """
    g, l = len(specs), b_cur.shape[-1]
    zz = np.asarray(zs).reshape(g, -1)
    # the pair, copied as a rescale shifts it in place: (l, l, G, B), or (G, B) for l = 1
    shape = zz.shape if l == 1 else (l, l, *zz.shape)
    b_prev, b_cur = (np.array(b.transpose(1, 2, 0), order="C").reshape(shape)
                     for b in (b_prev, b_cur))
    # l = 1 steps into scratch[n % 3], which is never B_n or B_{n-1}
    scratch = [np.empty(shape, np.result_type(zz, b_prev, b_cur)) for _ in range(4 if l == 1 else 0)]
    n, ledgers = n_start, []
    try:
        while True:
            size = min(_CHUNK, n_stop + 1 - n)
            d, v = (np.stack(arrays, axis=1) for arrays in zip(*(
                models.coefficient_arrays(spec, n - 1, n + size) for spec in specs)))
            d_inv = _inverses(d[1:])
            plain = np.all(d == np.eye(l), axis=(1, 2, 3)).tolist()
            # (steps, l, l, 1, G, 1): [k, j, i] is entry (i, j) of every member; l = 1: (steps, G, 1)
            d, d_inv, v = (np.ascontiguousarray(a.transpose(0, 3, 2, 1)).reshape(
                len(a), *((g, 1) if l == 1 else (l, l, 1, g, 1))) for a in (d, d_inv, v))
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
                if l == 1:
                    t, vb = scratch[n % 3], scratch[3]
                    np.multiply(zz, b_cur, out=t)
                    np.subtract(t, np.multiply(v[k + 1], b_cur, out=vb), out=t)
                    np.subtract(t, b_prev if plain[k] else np.multiply(d[k], b_prev, out=vb), out=t)
                    if not plain[k + 1]:
                        np.multiply(d_inv[k], t, out=t)
                else:
                    t = zz * b_cur
                    t -= _product(v[k + 1], b_cur)
                    t -= b_prev if plain[k] else _product(d[k], b_prev)
                    if not plain[k + 1]:
                        t = _product(d_inv[k], t)
                b_prev, b_cur = b_cur, t
                if n % _RESCALE_EVERY == 0:
                    mags = np.maximum(np.abs(b_prev), np.abs(b_cur)).reshape(l * l, -1)
                    mags = mags[0] if l == 1 else mags.max(axis=0)
                    if not mags.max(initial=0.0) < np.inf:  # NaN fails too
                        raise TrackOverflowError(f"blocks left float range before index {n + 1}")
                    pair = (b_prev.reshape(l * l, -1), b_cur.reshape(l * l, -1))
                    exp2 = _pow2_shift(mags, pair, exp2)
                n += 1
    except JacobiSpecError:
        if ledgers:
            yield ledgers
        raise


def _period_ledger(first, later):
    """``first``, the ledger of a rescale period's first row, after checking
    that ``later`` rows of the period carry the same; InvalidInputError if
    not. The rows of a period are summed raw, so they must share it."""
    if later is not first and np.any(later != first):
        raise InvalidInputError("a track's exponent ledger changes inside a rescale period")
    return first


def _truncation_sums(blocks, exp2):
    """Singular values and truncation sums of T tracks side by side.

    ``blocks`` (n+1, T, l, l) and ``exp2`` (n+1, T) hold the tracks.
    Returns the singular-value mantissas (n+1, T, l) and the scaled
    running sums (n+1, T, l+1) from one :func:`matblock.batched_singular_sq`
    call: columns 0..l-1 hold the squared singular values, column l their
    sum (the squared Frobenius norm), all on the track's 2 * exp2 ledger;
    index m holds the sum over n = 1..m. By the rule of :mod:`scaling`, the
    rescale periods (n = 1..8, 9..16, ...) are taken in order: a period's
    rows are summed raw by one cumsum and read by one :func:`scaling.add`
    onto the fold before it, and its last row is the fold after it. These
    are the bits of the Cesaro sweep's sum at cutoff m, each track's own.
    InvalidInputError if a ledger changes inside a period.
    """
    n1, count, l = blocks.shape[0], blocks.shape[1], blocks.shape[-1]
    sv_sq = matblock.batched_singular_sq(blocks.reshape(-1, l, l)).reshape(n1, count, l)
    raw = np.concatenate((sv_sq, np.sum(sv_sq, axis=2, keepdims=True)), axis=2)
    cum_m, cum_e = (np.zeros((n1, count, l + 1), dtype=t) for t in (float, np.int64))
    for a in range(1, n1, _RESCALE_EVERY):
        r = min(a + _RESCALE_EVERY, n1)
        ledger = _period_ledger(exp2[a], exp2[a:r])
        cum_m[a:r], cum_e[a:r] = scaling.add(cum_m[a - 1], cum_e[a - 1], np.cumsum(raw[a:r], axis=0),
                                             2 * ledger[:, None])
    return np.sqrt(sv_sq), cum_m, cum_e


def _continued(spec, zs, blocks, exp2, n_new):
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
    return [SolutionTrack(spec, z, blocks[:, k], exps[:, k], [a[:, k] for a in sums])
            for k, z in enumerate(zs)]


def extend_tracks(tracks, n_new):
    """Tracks continued to block n_new, all in one kernel run.

    The tracks must share one model object and one length
    (InvalidInputError otherwise); each keeps its own energy and exponent
    ledger, and comes out bit for bit as a fresh run to n_new would.
    Tracks that already reach n_new, or no tracks, are returned as they are.
    """
    n_new = int(n_new)
    if any(t.spec is not tracks[0].spec or t.n_max != tracks[0].n_max for t in tracks):
        raise InvalidInputError("tracks to extend must share one model and one length")
    if not tracks or n_new <= tracks[0].n_max:
        return list(tracks)
    return _continued(tracks[0].spec, np.array([t.z for t in tracks]),
                      np.stack([t.blocks for t in tracks], axis=1),
                      np.stack([t.exp2 for t in tracks], axis=1), n_new)


def dirichlet_neumann_grid(spec, zs, n_max):
    """Dirichlet (0, I) and Neumann (I, 0) solutions up to n_max at every z.

    Returns a list of (phi, psi), one pair per energy of ``zs``; all 2N
    tracks run as one batch of the kernel and take their truncation sums
    from one :func:`_truncation_sums` call. A batch holding any non-real
    energy runs in complex arithmetic; no energies give an empty list.
    """
    if n_max < 2:
        raise InvalidInputError("need n_max >= 2")
    zs = [_as_z(z) for z in zs]
    l = spec.dim
    dtype = complex if any(isinstance(z, complex) for z in zs) else float
    # rows B_0, B_1 on a zero ledger; entry 2j is phi_j, entry 2j + 1 is psi_j
    head = np.zeros((2, 2 * len(zs), l, l), dtype=dtype)
    head[0, 1::2] = head[1, 0::2] = np.eye(l)
    tracks = _continued(spec, np.repeat(np.array(zs, dtype=dtype), 2), head,
                        np.zeros((2, 2 * len(zs)), dtype=np.int64), n_max)
    return list(zip(tracks[0::2], tracks[1::2]))


def dirichlet_neumann(spec, z, n_max):
    """Dirichlet (0, I) and Neumann (I, 0) matrix solutions up to index n_max."""
    return dirichlet_neumann_grid(spec, [z], n_max)[0]


# ---------------------------------------------------------------------------
# Transfer matrices and cocycles.


def transfer_step(d_n, v_n, z):
    """One-step propagator [[D_n^-1 (z - V_n), -D_n^-1], [D_n, 0]], acting on
    the vector (u_n, D_{n-1} u_{n-1})."""
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
        exp2 = _pow2_shift(np.max(np.abs(acc), axis=(1, 2)), (acc.reshape(zs.size, 4 * l * l).T,), exp2)
    return acc, exp2


# ---------------------------------------------------------------------------
# Wronskians and the Green formula.


def wronskian(track_a, track_b, n):
    """W_[A,B](n) = A_{n-1}^t D_{n-1} B_n - A_n^t D_{n-1} B_{n-1}, D from track A's model."""
    n = int(n)
    if n < 1:
        raise InvalidInputError("Wronskian needs n >= 1")
    d_prev = track_a.spec.coefficient_at(n - 1)[0]
    a_prev, a_n = track_a.block(n - 1), track_a.block(n)
    b_prev, b_n = track_b.block(n - 1), track_b.block(n)
    return a_prev.T @ d_prev @ b_n - a_n.T @ d_prev @ b_prev


def green_formula_residual(track_a, track_b, m, n):
    """Defect of the summed Green identity between indices m and n.

    Substitutes H(u) = z u for each track at its own energy, so the summed
    term sum_k a_k^t (z_b b_k) - (z_a a_k)^t b_k is (z_b - z_a) sum_k
    a_k^t b_k, and returns its Frobenius distance from the Wronskian
    increment W(n+1) - W(m); both tracks solving their eigenvalue
    equations makes it vanish.
    """
    m, n = int(m), int(n)
    if not (0 <= m < n):
        raise InvalidInputError("need 0 <= m < n")
    l = track_a.dim
    total = np.zeros((l, l), dtype=complex)
    for k in range(m, n + 1):
        a_k, b_k = track_a.block(k), track_b.block(k)
        total = total + (a_k.T @ (track_b.z * b_k) - (track_a.z * a_k).T @ b_k)
    delta_w = wronskian(track_a, track_b, n + 1) - wronskian(track_a, track_b, m)
    return float(matblock.frobenius_norm(total - delta_w))


# ---------------------------------------------------------------------------
# Jost assembly and the half-plane identity behind the subordinacy bounds.


def jost_assemble(phi_track, psi_track, m_matrix):
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
    md0 = m_matrix @ spec.coefficient_at(0)[0]
    n_max = min(phi_track.n_max, psi_track.n_max)
    blocks = np.empty((n_max + 1, phi_track.dim, phi_track.dim), dtype=complex)
    for k in range(n_max + 1):
        blocks[k] = psi_track.block(k) - phi_track.block(k) @ md0
    return SolutionTrack(spec, phi_track.z, blocks, np.zeros(n_max + 1, dtype=np.int64))


def jl_identity_residual(phi_x, psi_x, f_track, m_matrix, y, n_max):
    """Max relative defect of the half-plane solution identity up to n_max.

    Checks F_n(z) against
        psi_n(x) - phi_n(x) M(z) D_0
        - i y psi_n(x) sum_{k<=n} D_0^-1 phi_k(x)^t F_k(z)
        + i y phi_n(x) sum_{k<=n} D_0^-1 psi_k(x)^t F_k(z)
    with z = x + i y, x the energy of phi_x and psi_x. Partial sums are
    Kahan-compensated; the residual at n is normalized by its largest term.
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
