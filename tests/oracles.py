"""Independent brute-force oracles used only by the tests.

These deliberately avoid the production code paths: the eigensolver is a
hand-rolled cyclic Jacobi sweep, recurrences are recomputed with plain
floats, truncated sums are naive loops.
"""

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
        z_ref = track_a.z
        total = total + a_k.T @ (z_ref * b_k) - (z_ref * a_k).T @ b_k
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
