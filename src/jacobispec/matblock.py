"""Dense l-by-l block kernel: norms, singular values, inverses, PSD square roots.

Blocks are plain numpy arrays (real or complex, square). Everything here is
a pure function; nothing mutates its input.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InvalidInputError, SingularBlockError

# Relative floor for invert(): blocks with s_l <= RCOND_FLOOR * s_1 are
# treated as singular.
RCOND_FLOOR = 1e-12

# Absolute eigenvalue tolerance below which a Hermitian block still counts
# as positive semidefinite.
PSD_EIG_TOL = 1e-10


def as_block(a) -> np.ndarray:
    """Coerce to a square 2-d array, rejecting non-finite entries."""
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("block contains NaN or Inf entries")
    return arr


def frobenius_norm(a) -> float:
    """sqrt(trace(A* A)), i.e. the entrywise l2 norm."""
    arr = as_block(a)
    return float(np.sqrt(np.sum(np.abs(arr) ** 2)))


def singular_values(a) -> np.ndarray:
    """Singular values of a square block, sorted descending.

    Defined as the eigenvalues of sqrt(A* A); computed by LAPACK SVD,
    which is equivalent and does not square the condition number.
    """
    arr = as_block(a)
    return np.linalg.svd(arr, compute_uv=False)


def operator_norm(a) -> float:
    """Largest singular value (spectral norm)."""
    return float(singular_values(a)[0])


def psd_sqrt(a, eig_tol: float = PSD_EIG_TOL) -> np.ndarray:
    """Unique PSD square root of a Hermitian PSD block.

    Raises DomainError if the block is not Hermitian within ``eig_tol``
    or has an eigenvalue below ``-eig_tol``.
    """
    arr = as_block(a)
    herm_defect = frobenius_norm(arr - arr.conj().T)
    if herm_defect > eig_tol * max(1.0, frobenius_norm(arr)):
        raise DomainError(f"block is not Hermitian (defect {herm_defect:.3e})")
    sym = (arr + arr.conj().T) / 2
    w, v = np.linalg.eigh(sym)
    if w[0] < -eig_tol:
        raise DomainError(f"block is not PSD (smallest eigenvalue {w[0]:.3e})")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    if arr.dtype.kind != "c":
        root = root.real
    return root


def invert(a, rcond: float = RCOND_FLOOR) -> np.ndarray:
    """Inverse of a well-conditioned block.

    Raises SingularBlockError (carrying s_l) when s_l <= rcond * s_1.
    """
    arr = as_block(a)
    s = np.linalg.svd(arr, compute_uv=False)
    if s[-1] <= rcond * s[0]:
        raise SingularBlockError(
            f"block is numerically singular (s_l = {s[-1]:.3e}, s_1 = {s[0]:.3e})",
            smallest_singular_value=float(s[-1]),
        )
    return np.linalg.inv(arr)


def is_symmetric(a, tol: float = 1e-12) -> bool:
    arr = np.asarray(a)
    return frobenius_norm(arr - arr.T) <= tol * max(1.0, frobenius_norm(arr))


# ---------------------------------------------------------------------------
# Batched helpers for scan workloads. Shapes are (batch, l, l) -> (batch, l).
# These avoid per-block Python overhead in the classifier's inner loops.


def _modulus_sq(x):
    """|x|^2 elementwise, as x * x for real input."""
    if x.dtype.kind == "c":
        x = np.abs(x)
    return x * x


def batched_singular_sq(blocks: np.ndarray) -> np.ndarray:
    """Squared singular values of a stack of blocks, sorted descending.

    Closed forms for l = 1 and l = 2 (via trace/determinant of A* A, with
    the small value recovered stably from the determinant); eigvalsh of
    A* A for larger l. Any strides are accepted, e.g. a moveaxis view.
    A (C, N, l, l) stack gives the bits of C calls on its (N, l, l) stacks.
    """
    blocks = np.asarray(blocks)
    l = blocks.shape[-1]
    if l == 1:
        return _modulus_sq(blocks[..., 0, 0])[..., None]
    if l == 2:
        sq = _modulus_sq(blocks)
        t = sq[..., 0, 0] + sq[..., 0, 1]
        t += sq[..., 1, 0]
        t += sq[..., 1, 1]
        # amax^2 <= t <= 4 amax^2, so a t well inside (0, inf) rules out
        # both zero blocks and the renormalisation (entries beyond ~1e154
        # reach it through an overflowing t, with numpy's overflow warning)
        safe_t = t
        if not 1e-138 <= t.min(initial=1.0) <= t.max(initial=1.0) <= 1e139:
            amax = np.abs(blocks).max(axis=(-2, -1))
            if np.any((amax > 1e70) & (amax < np.inf)) or np.any((amax > 0) & (amax < 1e-70)):
                if blocks.ndim > 3:  # stack by stack, as the docstring says
                    return np.stack([batched_singular_sq(b) for b in blocks])
                # renormalize by an exact power of two so det products stay
                # finite; a block with an inf entry has no scale to take out
                _, e = np.frexp(amax)
                factor = np.ldexp(1.0, -e)
                scaled = blocks * factor[..., None, None]
                return batched_singular_sq(scaled) * np.ldexp(np.ones_like(amax), 2 * e)[..., None]
            safe_t = np.where(t > 0.0, t, 1.0)
        det = blocks[..., 0, 0] * blocks[..., 1, 1]
        det -= blocks[..., 0, 1] * blocks[..., 1, 0]
        # s^2 solve via q = det2 / t^2 in [0, 1/4], formed without t*t so
        # mantissas near 1e150 cannot overflow the intermediate
        q = _modulus_sq(det)
        q /= safe_t
        q /= safe_t
        # q >= 0 already (a ratio of squares), so only the upper clip acts
        np.minimum(q, 0.25, out=q)
        root = q * 4.0
        np.subtract(1.0, root, out=root)
        np.sqrt(root, out=root)
        root += 1.0
        out = np.empty(t.shape + (2,))
        np.multiply(t, root, out=out[..., 0])
        out[..., 0] /= 2.0
        q *= 2.0
        q /= root
        np.multiply(t, q, out=out[..., 1])
        return out
    gram = np.einsum("...ji,...jk->...ik", blocks.conj(), blocks)
    w = np.linalg.eigvalsh(gram)
    return np.clip(w[..., ::-1], 0.0, None)


def batched_inv(blocks: np.ndarray) -> np.ndarray:
    """Inverses of a stack of blocks; LinAlgError if any block is singular."""
    return np.linalg.inv(blocks)
