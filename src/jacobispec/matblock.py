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


def batched_singular_sq(blocks: np.ndarray) -> np.ndarray:
    """Squared singular values of a stack of blocks, sorted descending.

    Closed forms for l = 1 and l = 2 (via trace/determinant of A* A, with
    the small value recovered stably from the determinant); eigvalsh of
    A* A for larger l.
    """
    blocks = np.asarray(blocks)
    l = blocks.shape[-1]
    if l == 1:
        return np.abs(blocks[..., 0, 0])[..., None] ** 2
    if l == 2:
        amax = np.max(np.abs(blocks), axis=(-2, -1))
        if np.any(amax > 1e70) or np.any((amax > 0) & (amax < 1e-70)):
            # renormalize by an exact power of two so det products stay finite
            _, e = np.frexp(amax)
            factor = np.ldexp(1.0, -e)
            scaled = blocks * factor[..., None, None]
            return batched_singular_sq(scaled) * np.ldexp(np.ones_like(amax), 2 * e)[..., None]
        a = blocks[..., 0, 0]
        b = blocks[..., 0, 1]
        c = blocks[..., 1, 0]
        d = blocks[..., 1, 1]
        t = (np.abs(a) ** 2 + np.abs(b) ** 2 + np.abs(c) ** 2 + np.abs(d) ** 2).real
        det2 = np.abs(a * d - b * c) ** 2
        # s^2 solve via q = det2 / t^2 in [0, 1/4], formed without t*t so
        # mantissas near 1e150 cannot overflow the intermediate
        safe_t = np.where(t > 0.0, t, 1.0)
        q = np.clip((det2 / safe_t) / safe_t, 0.0, 0.25)
        root = 1.0 + np.sqrt(1.0 - 4.0 * q)
        s1 = t * root / 2.0
        s2 = t * (2.0 * q / root)
        return np.stack([s1, s2], axis=-1)
    gram = np.einsum("...ji,...jk->...ik", blocks.conj(), blocks)
    w = np.linalg.eigvalsh(gram)
    return np.clip(w[..., ::-1], 0.0, None)


def batched_inv(blocks: np.ndarray) -> np.ndarray:
    """Inverses of a stack of blocks; LinAlgError if any block is singular."""
    return np.linalg.inv(blocks)
