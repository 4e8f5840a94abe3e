"""Dense l-by-l block kernel: norms, singular values and inverses.

Blocks are plain numpy arrays (real or complex, square). Everything here is
a pure function; nothing mutates its input.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, SingularBlockError

# The two rules of the paper's hypotheses (D_n, V_n self-adjoint, D_n
# boundedly invertible), each written once: a block is singular when
# s_l <= RCOND_FLOOR * s_1 (is_singular), asymmetric when
# |A - A^t|_F > SYMMETRIC_TOL * max(1, |A|_F) (asymmetry).
RCOND_FLOOR = 1e-12
SYMMETRIC_TOL = 1e-12


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


def is_singular(s):
    """The singular rule: s_l <= ``RCOND_FLOOR`` * s_1, for singular values
    ``s`` sorted descending along the last axis (one block or a stack)."""
    return s[..., -1] <= RCOND_FLOOR * s[..., 0]


def asymmetry(a):
    """|A - A^t|_F of a block or a stack (..., l, l), and the asymmetric
    rule: that defect exceeds ``SYMMETRIC_TOL`` * max(1, |A|_F)."""
    defect = np.linalg.norm(a - np.swapaxes(a, -1, -2), axis=(-2, -1))
    return defect, defect > SYMMETRIC_TOL * np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1)))


def invert(a) -> np.ndarray:
    """Inverse of a block that is not singular by :func:`is_singular`.

    Raises SingularBlockError (carrying s_l) otherwise.
    """
    arr = as_block(a)
    s = np.linalg.svd(arr, compute_uv=False)
    if is_singular(s):
        raise SingularBlockError(
            f"block is numerically singular (s_l = {s[-1]:.3e}, s_1 = {s[0]:.3e})",
            smallest_singular_value=float(s[-1]),
        )
    return np.linalg.inv(arr)


def is_symmetric(a) -> bool:
    return not asymmetry(as_block(a))[1]


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
    Every block gets the bits it would get alone, in any stack of any shape.
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
            far = ((amax > 1e70) & (amax < np.inf)) | ((amax > 0) & (amax < 1e-70))
            if far.any():
                # renormalize each far block by an exact power of two so det
                # products stay finite; the others (an inf block has no scale
                # to take out) are scaled by 2^0, exactly
                e = np.where(far, np.frexp(amax)[1], 0)
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
