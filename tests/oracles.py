"""Independent brute-force oracles used only by the tests.

These deliberately avoid the production code paths: the eigensolver is a
hand-rolled cyclic Jacobi sweep, recurrences are recomputed with plain
floats, truncated sums are naive loops.
"""

import functools
import math

import numpy as np


def jacobi_eigvalsh(a, sweeps=60, tol=1e-14):
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi rotations.

    Each sweep annihilates every off-diagonal pair (p, q) with a complex
    Givens rotation; returns eigenvalues in descending order.
    """
    m = np.array(a, dtype=complex)
    n = m.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.abs(m - np.diag(np.diag(m))) ** 2))
        scale = max(np.sqrt(np.sum(np.abs(np.diag(m)) ** 2)), 1e-300)
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                if abs(apq) == 0.0:
                    continue
                app = m[p, p].real
                aqq = m[q, q].real
                # complex Jacobi rotation diagonalizing the 2x2 block
                tau = (aqq - app) / (2.0 * abs(apq))
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                phase = apq / abs(apq)
                rot = np.eye(n, dtype=complex)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s * phase
                rot[q, p] = -s * np.conj(phase)
                m = rot.conj().T @ m @ rot
    return np.sort(np.diag(m).real)[::-1]


def singular_values_oracle(a):
    """Singular values as sqrt of the Jacobi-sweep eigenvalues of A* A."""
    a = np.asarray(a)
    gram = a.conj().T @ a
    return np.sqrt(np.clip(jacobi_eigvalsh(gram), 0.0, None))


def operator_norm_lower_bound(a, trials=10**4, seed=0):
    """max ||A u|| over random unit vectors; a lower bound on ||A||."""
    rng = np.random.default_rng(seed)
    a = np.asarray(a)
    n = a.shape[1]
    u = rng.normal(size=(trials, n)) + 1j * rng.normal(size=(trials, n))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return float(np.max(np.linalg.norm(u @ a.T, axis=1)))


def direct_recurrence(spec, z, n_max, b0, b1):
    """Plain-float propagation of the eigenvalue recurrence (no scaling)."""
    l = spec.dim
    dtype = complex if complex(z).imag != 0 else float
    out = np.zeros((n_max + 1, l, l), dtype=dtype)
    out[0] = b0
    out[1] = b1
    eye = np.eye(l)
    for n in range(1, n_max):
        d_n, v_n = spec.coefficient_at(n)
        d_prev = spec.coefficient_at(n - 1)[0]
        out[n + 1] = np.linalg.solve(d_n, (z * eye - v_n) @ out[n] - d_prev @ out[n - 1])
    return out


def truncated_norm_direct(blocks, l_value):
    """Naive interpolated truncated norm over explicit blocks."""
    fl = int(np.floor(l_value))
    frac = l_value - fl
    total = sum(float(np.sum(np.abs(blocks[n]) ** 2)) for n in range(1, fl + 1))
    total += frac * float(np.sum(np.abs(blocks[fl + 1]) ** 2))
    return np.sqrt(total)


def truncated_singular_direct(blocks, k, l_value):
    fl = int(np.floor(l_value))
    frac = l_value - fl
    vals = [np.linalg.svd(blocks[n], compute_uv=False)[k - 1] for n in range(fl + 2)]
    total = sum(v**2 for v in vals[1 : fl + 1]) + frac * vals[fl + 1] ** 2
    return np.sqrt(total)


def dense_halfline_matrix(spec, n_blocks):
    """Dense (N l) x (N l) truncation of the Dirichlet half-line operator."""
    l = spec.dim
    big = np.zeros((n_blocks * l, n_blocks * l))
    for k in range(n_blocks):
        d_k, v_k = spec.coefficient_at(k + 1)
        big[k * l : (k + 1) * l, k * l : (k + 1) * l] = v_k
        if k < n_blocks - 1:
            big[k * l : (k + 1) * l, (k + 1) * l : (k + 2) * l] = d_k
            big[(k + 1) * l : (k + 2) * l, k * l : (k + 1) * l] = d_k
    return big


def green_sum_direct(spec, z, m, n, track_a, track_b):
    """Brute-force evaluation of the summed Green identity defect."""
    total = np.zeros((spec.dim, spec.dim), dtype=complex)
    for k in range(m, n + 1):
        a_k = track_a.block(k)
        b_k = track_b.block(k)
        total = total + a_k.T @ (track_b.z * b_k) - (track_a.z * a_k).T @ b_k
    d_m = spec.coefficient_at(m - 1)[0]
    d_n = spec.coefficient_at(n)[0]
    w_m = track_a.block(m - 1).T @ d_m @ track_b.block(m) - track_a.block(m).T @ d_m @ track_b.block(m - 1)
    w_n1 = track_a.block(n).T @ d_n @ track_b.block(n + 1) - track_a.block(n + 1).T @ d_n @ track_b.block(n)
    return float(np.sqrt(np.sum(np.abs(total - (w_n1 - w_m)) ** 2)))


def riccati_grid_direct(spec, xs, y, tol=1e-8, max_depth=2**17, initial_depth=64):
    """Per-rung Riccati descent with full-block inverses, depth doubling.

    Returns (m, depth, delta) like ``weyl.m_riccati_grid``: every step
    inverts the whole l x l blocks with numpy, no componentwise forms.
    """
    xs = np.asarray(xs, dtype=float)
    l = spec.dim
    z = (xs + 1j * y)[:, None, None]
    eye = np.eye(l)
    depth = initial_depth
    prev = None
    while depth <= max_depth:
        m = np.zeros((xs.size, l, l), dtype=complex)
        for n in range(depth, 0, -1):
            d_n, v_n = spec.coefficient_at(n)
            m = np.linalg.inv((v_n - z * eye) - d_n @ m @ d_n)
        if prev is not None:
            delta = float(np.max(np.sqrt(np.sum(np.abs(m - prev) ** 2, axis=(1, 2)))))
            if delta < tol:
                return m, depth, delta
        prev = m
        depth *= 2
    raise AssertionError("reference descent not Cauchy")


def propagate_reference(spec, z, n_max, b0, b1):
    """Track blocks 0..n_max as (mantissas, exp2), one energy at a time.

    ``np.linalg.solve`` at every step; the pair is rescaled by a power of
    two whenever the new block's Frobenius norm leaves [1e-100, 1e100].
    """
    blocks = np.empty((n_max + 1,) + np.shape(b0), dtype=complex if complex(z).imag else float)
    exp2 = np.zeros(n_max + 1, dtype=np.int64)
    blocks[0], blocks[1] = b0, b1
    b_prev, b_cur = blocks[0].copy(), blocks[1].copy()
    eye = np.eye(spec.dim)
    exp_cur = 0
    for n in range(1, n_max):
        d_n, v_n = spec.coefficient_at(n)
        d_prev = spec.coefficient_at(n - 1)[0]
        b_next = np.linalg.solve(d_n, (z * eye - v_n) @ b_cur - d_prev @ b_prev)
        nrm = np.sqrt(np.sum(np.abs(b_next) ** 2))
        if nrm > 1e100 or (0.0 < nrm < 1e-100 and np.max(np.abs(b_cur)) < 1e-100):
            shift = int(np.ceil(np.log2(nrm)))
            b_next = b_next * np.ldexp(1.0, -shift)
            b_cur = b_cur * np.ldexp(1.0, -shift)
            exp_cur += shift
        b_prev, b_cur = b_cur, b_next
        blocks[n + 1] = b_cur
        exp2[n + 1] = exp_cur
    return blocks, exp2


def batched_singular_sq_reference(blocks):
    """Squared singular values of a stack of 2x2 blocks, descending.

    The trace/determinant closed form as ``matblock.batched_singular_sq``
    first wrote it: abs()**2 terms, np.clip and np.stack, with the same
    power-of-two renormalisation of each block outside 1e+-70. The
    production form must reproduce it bit for bit.
    """
    blocks = np.asarray(blocks)
    amax = np.max(np.abs(blocks), axis=(-2, -1))
    far = (amax > 1e70) | ((amax > 0) & (amax < 1e-70))
    if np.any(far):
        e = np.where(far, np.frexp(amax)[1], 0)
        scaled = blocks * np.ldexp(1.0, -e)[..., None, None]
        return batched_singular_sq_reference(scaled) * np.ldexp(np.ones_like(amax), 2 * e)[..., None]
    a = blocks[..., 0, 0]
    b = blocks[..., 0, 1]
    c = blocks[..., 1, 0]
    d = blocks[..., 1, 1]
    t = (np.abs(a) ** 2 + np.abs(b) ** 2 + np.abs(c) ** 2 + np.abs(d) ** 2).real
    det2 = np.abs(a * d - b * c) ** 2
    safe_t = np.where(t > 0.0, t, 1.0)
    q = np.clip((det2 / safe_t) / safe_t, 0.0, 0.25)
    root = 1.0 + np.sqrt(1.0 - 4.0 * q)
    return np.stack([t * root / 2.0, t * (2.0 * q / root)], axis=-1)


def cesaro_sums_reference(spec, xs, l_grid):
    """log2 C_r(L) like ``classify._cesaro_sums``, by a loop of its own.

    For l <= 2. Same arithmetic as the production sweep (precomputed
    D^-1, max-abs 2^+-120 rescale every 8 steps), written as one
    hand-rolled loop with stacked matmuls and the reference singular
    values, so the shared stepper can be checked against it: bit for bit
    where D = I, to rounding where the matmuls' sums may round differently
    from the stepper's written-out products. Each track entry keeps its
    own scaled sum; the raw sum of its rows is folded in after every
    rescale period (n = 0 mod 8) through
    :func:`scaling_add_aligned_reference`. A cutoff reads the scaled sum
    plus the raw sum of its period so far, without folding it in, and adds
    the Dirichlet and Neumann reads.
    """
    from jacobispec import scaling

    xs = np.asarray(xs, dtype=float)
    batch, l = xs.size, spec.dim

    def coeff(n):
        d, v = spec.coefficient_at(n)
        return d, np.linalg.inv(d), v

    prev = np.zeros((2 * batch, l, l))
    prev[batch:] = np.eye(l)
    cur = np.zeros_like(prev)
    cur[:batch] = np.eye(l)
    exp2 = np.zeros(2 * batch, dtype=np.int64)
    acc_m = np.zeros((2 * batch, l))
    acc_e = np.zeros((2 * batch, l), dtype=np.int64)
    buf = np.zeros((2 * batch, l))
    x2 = np.concatenate([xs, xs])[:, None, None]
    out = np.empty((len(l_grid), batch, l))

    ck = 0
    for n in range(1, l_grid[-1] + 1):
        buf += np.abs(cur[:, :, 0]) ** 2 if l == 1 else batched_singular_sq_reference(cur)
        if n % 8 == 0:
            acc_m, acc_e = scaling_add_aligned_reference(acc_m, acc_e, buf, 2 * exp2[:, None])
            buf[:] = 0.0
        if n == l_grid[ck]:
            read_m, read_e = scaling_add_aligned_reference(acc_m, acc_e, buf, 2 * exp2[:, None])
            total = scaling_add_aligned_reference(read_m[:batch], read_e[:batch],
                                                  read_m[batch:], read_e[batch:])
            out[ck] = scaling.log2(*total) - math.log2(n)
            ck += 1
            if ck == len(l_grid):
                break
        _, d_inv, v_n = coeff(n)
        d_prev = coeff(n - 1)[0]
        prev, cur = cur, d_inv @ (x2 * cur - v_n @ cur - d_prev @ prev)
        if n % 8 == 0:
            pair = np.maximum(
                np.max(np.abs(cur.reshape(2 * batch, -1)), axis=1),
                np.max(np.abs(prev.reshape(2 * batch, -1)), axis=1),
            )
            hot = (pair > 2.0**120) | ((pair > 0) & (pair < 2.0**-120))
            if np.any(hot):
                shift = np.where(hot, np.frexp(pair)[1], 0).astype(np.int64)
                factor = np.ldexp(1.0, -shift)[:, None, None]
                cur, prev = cur * factor, prev * factor
                exp2 = exp2 + shift
    return out


def _truncation_blocks(spec, z, n_blocks):
    """V_n - z (n = 1..N) and D_n (n = 1..N-1), one ``coefficient_at`` call a block."""
    l = spec.dim
    vs = np.empty((n_blocks, l, l), dtype=complex)
    ds = np.empty((max(n_blocks - 1, 0), l, l))
    for k in range(n_blocks):
        d_k, v_k = spec.coefficient_at(k + 1)
        vs[k] = v_k - z * np.eye(l)
        if k < n_blocks - 1:
            ds[k] = d_k
    return vs, ds


def _band_storage(vs, ds, rows_above):
    """Block-tridiagonal band, diagonal blocks ``vs`` and couplings ``ds``, in
    LAPACK band storage with ``rows_above`` rows above the diagonal row."""
    n_blocks, l = vs.shape[:2]
    bw = 2 * l - 1
    ab = np.zeros((rows_above + bw + 1, n_blocks * l), dtype=complex)
    rows_l = np.arange(l)

    def scatter(blocks, block_row0, block_col0):
        count = blocks.shape[0]
        i = (np.arange(count)[:, None, None] + block_row0) * l + rows_l[None, :, None]
        j = (np.arange(count)[:, None, None] + block_col0) * l + rows_l[None, None, :]
        ab[rows_above + i - j, j] = blocks

    scatter(vs, 0, 0)
    if n_blocks > 1:
        scatter(ds.astype(complex), 0, 1)
        scatter(ds.astype(complex), 1, 0)
    return ab


def banded_corner_block_top_down(spec, z, n_blocks):
    """(1,1) block of (T_N - z)^-1 solved in block order 1..N by ``solve_banded``."""
    import scipy.linalg

    vs, ds = _truncation_blocks(spec, z, n_blocks)
    l = spec.dim
    bw = 2 * l - 1
    rhs = np.zeros((n_blocks * l, l), dtype=complex)
    rhs[:l, :] = np.eye(l)
    return scipy.linalg.solve_banded((bw, bw), _band_storage(vs, ds, bw), rhs)[:l, :]


def banded_corner_block_reference(spec, z, n_blocks):
    """``weyl._banded_corner_block`` for one z, as a plain loop over one system.

    The band is filled block by block in reverse order (block N first), so
    the corner is the bottom-right block of the inverse. For l = 1 ``zgtsv``
    solves it with the last unit vector; otherwise ``zgbtrf`` factors it,
    every forward step of ``gbtrs`` runs on the full-length right-hand sides
    (the last l unit vectors), and the last l rows are back-substituted.
    """
    from scipy.linalg import lapack

    vs, ds = _truncation_blocks(spec, z, n_blocks)
    l = spec.dim
    bw = 2 * l - 1
    rows = n_blocks * l
    ab = _band_storage(vs[::-1], ds[::-1], 2 * bw)
    if l == 1:
        rhs = np.zeros((rows, 1), dtype=complex)
        rhs[-1] = 1.0
        *_, x, info = lapack.zgtsv(ab[3, :-1], ab[2], ab[1, 1:], rhs)
        assert info == 0
        return x[-1:]
    lu, piv, info = lapack.zgbtrf(ab, bw, bw)
    assert info == 0
    b = np.zeros((rows, l), dtype=complex)
    b[rows - l :] = np.eye(l)
    for j in range(rows - 1):
        b[[j, piv[j]]] = b[[piv[j], j]]
        lm = min(bw, rows - 1 - j)
        b[j + 1 : j + 1 + lm] -= lu[2 * bw + 1 : 2 * bw + 1 + lm, j, None] * b[j]
    x = b[rows - l :]
    for k in range(l - 1, -1, -1):
        col = rows - l + k
        x[k] /= lu[2 * bw, col]
        for i in range(k):
            x[i] -= lu[2 * bw + i - k, col] * x[k]
    return x


def validate_model_reference(spec, window, min_singular=1e-12, symmetry_tol=1e-10):
    """The per-index hypothesis scan: (min s_l, max s_1, max defect, offenders)."""
    two_sided = getattr(spec, "supports_negative", False)
    indices = range(-window, window + 1) if two_sided else range(0, window + 1)
    min_sl, max_s1, max_defect, offenders = np.inf, 0.0, 0.0, []
    for n in indices:
        d, v = spec.coefficient_at(n)
        s = np.linalg.svd(d, compute_uv=False)
        defect = max(
            float(np.sqrt(np.sum(np.abs(d - d.T) ** 2))),
            float(np.sqrt(np.sum(np.abs(v - v.T) ** 2))),
        )
        if s[-1] < min_singular or defect > symmetry_tol:
            offenders.append(int(n))
        min_sl = min(min_sl, float(s[-1]))
        max_s1 = max(max_s1, float(s[0]))
        max_defect = max(max_defect, defect)
    return min_sl, max_s1, max_defect, offenders


def limit_point_sum_reference(spec, n_terms):
    """sum_{k <= n_terms} 1/s_1[D_k], one SVD per index."""
    terms = np.empty(n_terms + 1)
    for k in range(n_terms + 1):
        terms[k] = 1.0 / float(np.linalg.svd(spec.coefficient_at(k)[0], compute_uv=False)[0])
    return float(np.sum(terms))


def ladder_verdict_reference(y_ladder, eig_list, tau_rel, rel_change=0.2):
    """The rank ladder's verdict at one energy, one rung at a time.

    ``eig_list`` holds the ascending eigenvalues of Im M at each rung.
    Returns (ranks, traces, stabilized rung, rank, trace growth) as the
    per-point loop that ``weyl._ladder_verdicts`` replaced computed them.
    """
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
    rank = ranks[stabilized] if stabilized is not None else None
    return ranks, traces, stabilized, rank, -slope


def normalize(mant, exp2):
    """Renormalize so the mantissa sits in [0.5, 1) (zero stays zero)."""
    m, de = np.frexp(mant)
    return m, np.asarray(exp2) + de


def scaling_add_reference(m1, e1, m2, e2):
    """``scaling.add`` as first written: asarray, np.clip and astype."""
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    e1 = np.asarray(e1)
    e2 = np.asarray(e2)
    e = np.where(m1 == 0, e2, np.where(m2 == 0, e1, np.maximum(e1, e2)))
    s1 = np.clip(e1 - e, -1100, 0)
    s2 = np.clip(e2 - e, -1100, 0)
    total = np.ldexp(m1, s1.astype(np.int64)) + np.ldexp(m2, s2.astype(np.int64))
    return normalize(total, e)


def scaling_add_aligned_reference(m1, e1, m2, e2):
    """:func:`scaling_add_reference` on mantissas normalized by ``frexp``
    first, so each term is aligned by its magnitude, not its exponent."""
    (f1, d1), (f2, d2) = np.frexp(m1), np.frexp(m2)
    return scaling_add_reference(f1, np.asarray(e1) + d1, f2, np.asarray(e2) + d2)


_NO_TERM = -(2**62)  # a zero term's exponent in the sentinel references below


def scaling_add_sentinel_reference(m1, e1, m2, e2):
    """``scaling.add`` by the sentinel formulation: each term's magnitude
    exponent, or -2^62 for a zero term, by ``np.where`` over whole arrays;
    shifts onto the larger, clamped at -1100 before the int32 cast; an
    all-zero sum keeps e2. Exact while exponents stay well inside +-2^61."""
    (f1, d1), (f2, d2) = np.frexp(m1), np.frexp(m2)
    a = np.where(f1 != 0, d1 + np.asarray(e1, dtype=np.int64), _NO_TERM)
    b = np.where(f2 != 0, d2 + np.asarray(e2, dtype=np.int64), _NO_TERM)
    ref = np.maximum(a, b)
    low = -1100
    m, de = np.frexp(np.ldexp(f1, np.maximum(a - ref, low).astype(np.int32))
                     + np.ldexp(f2, np.maximum(b - ref, low).astype(np.int32)))
    return m, np.where(ref == _NO_TERM, e2, ref) + de


def scaling_add_all_sentinel_reference(mants, exps):
    """``scaling.add_all_into`` by the sentinel formulation of
    :func:`scaling_add_sentinel_reference` on the stacked terms, which are
    added in order by ``functools.reduce`` (never paired); an all-zero sum
    keeps the last term's exponent."""
    f, d = np.frexp(mants)
    e = np.where(f != 0, d + exps, _NO_TERM)
    ref = e.max(axis=0)
    shift = np.maximum(e - ref, -1100).astype(np.int32)
    m, de = np.frexp(functools.reduce(np.add, np.ldexp(f, shift)))
    return m, np.where(ref == _NO_TERM, exps[-1], ref) + de


def forward_scalar_reference(specs, zs, b_prev, b_cur, n_start, exp2, n_stop):
    """Blocks n_start..n_stop of an l = 1 kernel batch, in plain numpy.

    The arguments are those of ``recurrence.forward`` without its buffer;
    ``b_prev``/``b_cur``/``exp2`` hold one value per energy. Each member (a
    contiguous group of energies, as in the kernel) runs on its own, with
    its coefficients read one index at a time: t = z B_n, t -= V_n B_n,
    t -= D_{n-1} B_{n-1}, B_{n+1} = (1 / D_n) t, every product taken, as
    one by 1.0 is exact. After the step from each n = 0 mod 8 the whole
    group is multiplied by 2^-e, with e the frexp exponent of max(|B_n|,
    |B_{n+1}|) outside [2^-120, 2^120] and 0 inside, and e joins the
    ledger. Returns the rows and ledgers, each (n_stop - n_start + 1, N).
    """
    zs = np.asarray(zs)
    groups = np.split(np.arange(zs.size), len(specs))
    dtype = np.result_type(zs, b_prev, b_cur)
    rows = np.empty((n_stop - n_start + 1, zs.size), dtype=dtype)
    ledgers = np.empty(rows.shape, dtype=np.int64)
    for spec, idx in zip(specs, groups):
        z = zs[idx]
        prev, cur = np.asarray(b_prev).reshape(-1)[idx], np.asarray(b_cur).reshape(-1)[idx]
        ledger = np.asarray(exp2)[idx].copy()
        for n in range(n_start, n_stop + 1):
            rows[n - n_start, idx], ledgers[n - n_start, idx] = cur, ledger
            if n == n_stop:
                break
            d_prev = spec.coefficient_at(n - 1)[0][0, 0]
            d_n, v_n = (c[0, 0] for c in spec.coefficient_at(n))
            t = z * cur
            t -= v_n * cur
            t -= d_prev * prev
            prev, cur = cur, (1.0 / d_n) * t
            if n % 8 == 0:
                mags = np.maximum(np.abs(prev), np.abs(cur))
                hot = (mags > 2.0**120) | ((mags > 0) & (mags < 2.0**-120))
                e = np.where(hot, np.frexp(mags)[1], 0)
                prev, cur = prev * np.ldexp(1.0, -e), cur * np.ldexp(1.0, -e)
                ledger = ledger + e
    return rows, ledgers


def cesaro_sums_stepwise(spec, xs, l_grid):
    """``classify._cesaro_sums`` one kernel step at a time.

    One singular-value call per step on the (N, l, l) view of a one-row
    kernel buffer, added into raw sums with ``buf +=``. Each track entry's
    raw sum is folded into its scaled sum after every rescale period
    (n = 0 mod 8, so it never spans a ledger change) through
    :func:`scaling_add_aligned_reference`. A cutoff reads the scaled sum
    plus the raw sum of its period so far, without folding it in, and adds
    the Dirichlet and Neumann reads. The chunked sweep must reproduce it
    bit for bit.
    """
    from jacobispec import matblock, recurrence, scaling
    from jacobispec.errors import TrackOverflowError

    members = tuple(spec) if isinstance(spec, (list, tuple)) else (spec,)
    xs = np.asarray(xs, dtype=float)
    g, batch, l = len(members), xs.size, members[0].dim
    eye = np.eye(l)
    prev = np.zeros((g, 2 * batch, l, l))
    prev[:, batch:] = eye
    cur = np.zeros_like(prev)
    cur[:, :batch] = eye
    ledger = np.zeros(g * 2 * batch, dtype=np.int64)
    acc_m = np.zeros((g * 2 * batch, l))
    acc_e = np.zeros((g * 2 * batch, l), dtype=np.int64)
    buf = np.zeros((g * 2 * batch, l))
    out = np.empty((len(l_grid), g, batch, l))
    ck = 0

    zs = np.tile(np.concatenate([xs, xs]), g)
    row = np.empty((1, l, l, zs.size))  # a buffer of one row: one fill per step
    steps = recurrence.forward(members, zs, prev.reshape(-1, l, l), cur.reshape(-1, l, l), 1, ledger,
                               l_grid[-1], row)
    for n, (exp2,) in enumerate(steps, 1):
        buf += matblock.batched_singular_sq(row[0].transpose(2, 0, 1)).reshape(buf.shape)
        if n % 8 == 0:
            acc_m, acc_e = scaling_add_aligned_reference(acc_m, acc_e, buf, 2 * exp2[:, None])
            buf[:] = 0.0
        if n == l_grid[ck]:
            read = scaling_add_aligned_reference(acc_m, acc_e, buf, 2 * exp2[:, None])
            if not np.isfinite(read[0]).all():
                raise TrackOverflowError(f"Cesaro sums left float range by L = {n}")
            m, e = (v.reshape(g, 2, batch, l) for v in read)
            total = scaling_add_aligned_reference(m[:, 0], e[:, 0], m[:, 1], e[:, 1])
            out[ck] = scaling.log2(*total) - math.log2(n)
            ck += 1
            if ck == len(l_grid):
                return out.reshape(len(l_grid), g * batch, l)


def truncated_sq_reference(track, l_value, k=None):
    """||B||_L^2 (``k`` None) or s_k[B]_L^2 of one track, as a scaled pair,
    read entry by entry off its prefix sums."""
    from jacobispec import scaling

    fl = int(math.floor(l_value))
    frac = l_value - fl
    sq = track.sv_mant[fl + 1] ** 2
    if k is None:
        cum_m, cum_e, step = track.cum_fro2_m[fl], track.cum_fro2_e[fl], np.sum(sq)
    else:
        col = int(k) - 1
        cum_m, cum_e, step = track.cum_sv2_m[fl, col], track.cum_sv2_e[fl, col], sq[col]
    return scaling.add(cum_m, cum_e, frac * step, 2 * int(track.exp2[fl + 1]))


def _truncated_reference(track, l_value, k=None):
    from jacobispec import scaling

    return float(np.sqrt(scaling.to_float(*truncated_sq_reference(track, l_value, k))))


def solve_l_of_y_reference(spec, x, y, tracks):
    """The cutoff solve one point at a time, with scalar arithmetic.

    Doubles the point's own pair of ``tracks`` (one ``extend_tracks`` call
    per doubling) until the integer-L product crosses the target, then
    solves the quadratic on [m-1, m] with a Newton polish. Returns
    (L, phi, psi, residual, target, status).
    """
    from jacobispec import matblock, recurrence, scaling, truncnorm
    from jacobispec.errors import TargetUnreachableError

    d0 = spec.coefficient_at(0)[0]
    d0_inv_norm = matblock.frobenius_norm(matblock.invert(d0))
    target = 1.0 / (2.0 * y * d0_inv_norm)
    log2_target_sq = 2.0 * math.log2(target)
    phi, psi = tracks
    while True:
        prod = scaling.log2(phi.cum_fro2_m, phi.cum_fro2_e) + scaling.log2(
            psi.cum_fro2_m, psi.cum_fro2_e)
        hit = np.nonzero(prod >= log2_target_sq)[0]
        if hit.size and hit[0] <= phi.n_max - 1:
            m_idx = int(hit[0])
            break
        if phi.n_max >= truncnorm.MAX_TRACK_BLOCKS:
            attained = 2.0 * y * d0_inv_norm * math.sqrt(2.0 ** float(prod[-2]))
            raise TargetUnreachableError("cutoff equation unreachable", attained=attained,
                                         max_length=truncnorm.MAX_TRACK_BLOCKS)
        phi, psi = recurrence.extend_tracks(
            (phi, psi), min(2 * phi.n_max, truncnorm.MAX_TRACK_BLOCKS))
    if m_idx == 0:
        return 1.0, phi, psi, float("nan"), target, "boundary"

    def factor(track):
        a_m, a_e = track.cum_fro2_m[m_idx - 1], track.cum_fro2_e[m_idx - 1]
        b_m = float(np.sum(track.sv_mant[m_idx] ** 2))
        b_e = 2 * int(track.exp2[m_idx])
        q_log2 = float(scaling.log2(*scaling.add(a_m, a_e, b_m, b_e)))

        def rel(m_val, e_val):
            lg = scaling.log2(m_val, e_val)
            return float(2.0 ** (lg - q_log2)) if np.isfinite(lg) else 0.0

        return q_log2, rel(a_m, a_e), rel(b_m, b_e)

    q1_log2, a1, b1 = factor(psi)
    q2_log2, a2, b2 = factor(phi)
    rhs = 2.0 ** (log2_target_sq - q1_log2 - q2_log2)
    qa = b1 * b2
    qb = a1 * b2 + a2 * b1
    qc = a1 * a2 - rhs
    if qa > 0:
        disc = max(qb * qb - 4.0 * qa * qc, 0.0)
        t = (2.0 * max(-qc, 0.0)) / (qb + math.sqrt(disc)) if qb + math.sqrt(disc) > 0 else 0.0
    elif qb > 0:
        t = max(-qc, 0.0) / qb
    else:
        t = 0.0
    for _ in range(3):
        g = (a1 + b1 * t) * (a2 + b2 * t) - rhs
        dg = b1 * (a2 + b2 * t) + b2 * (a1 + b1 * t)
        if dg <= 0:
            break
        t -= g / dg
    t = min(max(t, 0.0), 1.0)
    l_value = max((m_idx - 1) + t, 1.0)
    residual = abs(2.0 * y * d0_inv_norm * _truncated_reference(psi, l_value)
                   * _truncated_reference(phi, l_value) - 1.0)
    return float(l_value), phi, psi, float(residual), target, "ok"


def jl_report_reference(spec, x, y, tracks, m_val, k1, k2, slack, starved=False):
    """One ``weyl.JLBoundReport`` from :func:`solve_l_of_y_reference`,
    point by point; ``starved`` sets s_l[phi]_L = 0, which must give a
    condition-overflow report."""
    from jacobispec import weyl

    l_cut, phi, psi, residual, _, _ = solve_l_of_y_reference(spec, x, y, tracks)
    norm_phi = _truncated_reference(phi, l_cut)
    norm_psi = _truncated_reference(psi, l_cut)
    ratio = norm_psi / norm_phi
    s_l_phi = 0.0 if starved else _truncated_reference(phi, l_cut, spec.dim)
    report = weyl.JLBoundReport(x=x, y=y, l_cutoff=l_cut, ratio=ratio, condition_term=float("nan"),
                                k1=k1, k2=k2, m_norm=m_val.frobenius_norm, verdict=None,
                                solver_residual=residual)
    if s_l_phi**2 < 1e-300:
        report.status = "condition-overflow"
        return report
    report.condition_term = norm_phi**2 / s_l_phi**2
    lower = k1 * ratio
    upper = k2 * ratio * report.condition_term
    report.verdict = bool(lower <= report.m_norm + slack and report.m_norm <= upper + slack)
    report.lower, report.upper = lower, upper
    return report


# ---------------------------------------------------------------------------
# Checking tools on solution tracks.


def lift_pair(u_n, u_prev, d_prev):
    """Stack (u_n, D_{n-1} u_{n-1}) into the 2l-row vector the cocycle acts on."""
    u_n = np.atleast_2d(u_n)
    u_prev = np.atleast_2d(u_prev)
    return np.concatenate((u_n, np.asarray(d_prev) @ u_prev), axis=0)


def singular_values_at(track, n):
    """Singular values of block n of ``track`` as plain floats."""
    from jacobispec.errors import TrackOverflowError

    n = track._check(n)
    e = int(track.exp2[n])
    top = track.sv_mant[n].max()
    if top and np.frexp(top)[1] + e > 1024:
        raise TrackOverflowError(f"singular values at {n} exceed float range")
    return np.ldexp(track.sv_mant[n], e)


def frobenius_norm_at(track, n):
    return float(np.sqrt(np.sum(singular_values_at(track, n) ** 2)))


def recurrence_residual(track, n):
    """Relative defect of the recurrence on ``track`` at interior index n.

    Computed at the local scale (largest block exponent of the triple),
    so it is meaningful even deep inside the overflow-scaled regime.
    """
    from jacobispec import matblock, models
    from jacobispec.errors import InvalidInputError

    n = track._check(n)
    if not 1 <= n <= track.n_max - 1:
        raise InvalidInputError("residual needs an interior index")
    (d_prev, d_n), (_, v_n) = models.coefficient_arrays(track.spec, n - 1, n + 1)
    e_ref = int(max(track.exp2[n - 1 : n + 2]))
    parts = []
    for k in (n - 1, n, n + 1):
        shift = int(track.exp2[k]) - e_ref
        parts.append(np.ldexp(1.0, max(shift, -1074)) * track.blocks[k])
    b_prev, b_cur, b_next = parts
    defect = d_n @ b_next + d_prev @ b_prev + (v_n - track.z * np.eye(track.dim)) @ b_cur
    scale = max(
        matblock.frobenius_norm(d_n @ b_next),
        matblock.frobenius_norm(d_prev @ b_prev),
        matblock.frobenius_norm(b_cur) * (abs(track.z) + matblock.frobenius_norm(v_n)),
        1e-300,
    )
    return matblock.frobenius_norm(defect) / scale


def ids_sturm(spec, es, n):
    """Integrated density of states k_N(E) of the n-site Dirichlet truncation
    (:func:`dense_halfline_matrix`) at every energy of ``es``, by Sturm counting.

    Factors the truncation minus E as a block LDL^T with pivots
    S_1 = V_1 - E and S_k = V_k - E - D_{k-1} S_{k-1}^-1 D_{k-1}; by
    Sylvester's law of inertia the negative eigenvalues of the pivots number
    the eigenvalues below E, and k_N(E) is that count over n l. An exactly
    singular pivot has no rule yet: it raises ZeroDivisionError.
    """
    es = np.asarray(es, dtype=float)
    l = spec.dim
    shift = es[:, None, None] * np.eye(l)
    count = np.zeros(es.size, dtype=np.int64)
    coupling = 0.0  # D_{k-1} S_{k-1}^-1 D_{k-1}, none at the first site
    for k in range(1, n + 1):
        d_k, v_k = spec.coefficient_at(k)
        pivot = (v_k - shift) - coupling
        count += np.sum(np.linalg.eigvalsh(pivot) < 0.0, axis=1)
        try:
            coupling = d_k @ np.linalg.solve(pivot, np.broadcast_to(d_k, pivot.shape))
        except np.linalg.LinAlgError as exc:
            raise ZeroDivisionError(f"pivot S_{k} is exactly singular") from exc
    return count / (n * l)
