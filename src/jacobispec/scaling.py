"""Power-of-two scaled nonnegative reals: value = mant * 2**exp2.

Solution sequences grow (or decay) exponentially outside the AC region, so
running sums of squared norms leave float64 range long before the scans
finish. These helpers keep (mantissa, exponent) pairs normalized and add
them without ever materializing the full value. All functions accept
scalars or same-shaped numpy arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import TrackOverflowError

_MAX_FLOAT_EXP = 1000  # safe ldexp range for float64


def normalize(mant, exp2):
    """Renormalize so the mantissa sits in [1, 2) (zero stays zero)."""
    m, de = np.frexp(mant)
    return m, np.asarray(exp2) + de


def _shift(e_from, e):
    """clip(e_from - e, -_MAX_FLOAT_EXP - 100, 0), as two ufunc calls."""
    return np.maximum(np.minimum(e_from - e, 0), -_MAX_FLOAT_EXP - 100)


def add(m1, e1, m2, e2):
    """(m1*2^e1) + (m2*2^e2) as a normalized pair.

    The smaller term is shifted onto the larger term's exponent; shifts
    beyond float range underflow harmlessly to zero. Exponents must be
    integers; the Cesaro sweep folds through here, so it calls ufuncs only.
    """
    e = np.where(m1 == 0, e2, np.where(m2 == 0, e1, np.maximum(e1, e2)))
    m, de = np.frexp(np.ldexp(m1, _shift(e1, e)) + np.ldexp(m2, _shift(e2, e)))
    return m, e + de


def log2(mant, exp2):
    """log2 of the pair; -inf where the mantissa is zero."""
    m = np.asarray(mant, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(m > 0, np.log2(np.where(m > 0, m, 1.0)) + exp2, -np.inf)


def to_float(mant, exp2):
    """Materialize to float64; raises TrackOverflowError if it cannot fit."""
    e = np.asarray(exp2)
    if np.any((np.asarray(mant) != 0) & (e > _MAX_FLOAT_EXP)):
        raise TrackOverflowError(
            "value exceeds float64 range; use the scaled (mantissa, exponent) form"
        )
    return np.ldexp(mant, np.clip(e, -_MAX_FLOAT_EXP - 100, _MAX_FLOAT_EXP + 100).astype(np.int64))


def cumulative(terms_mant, terms_exp):
    """Running sums of scaled terms along axis 0.

    Returns (mants, exps) with the same shape as the inputs;
    out[k] = sum_{j<=k} terms[j]. Exponents change rarely (only at rescale
    events), so the accumulation runs cumsum on constant-exponent segments
    and stitches the few segment boundaries in Python.
    """
    tm = np.asarray(terms_mant, dtype=float)
    te = np.asarray(terms_exp)
    n = tm.shape[0]
    out_m = np.empty_like(tm)
    out_e = np.empty_like(te)
    if n == 0:
        return out_m, out_e
    # segment boundaries where the exponent array changes
    if te.ndim == 1:
        change = np.nonzero(np.diff(te))[0] + 1
    else:
        change = np.nonzero(np.any(np.diff(te, axis=0), axis=tuple(range(1, te.ndim))))[0] + 1
    starts = np.concatenate(([0], change))
    stops = np.concatenate((change, [n]))
    prior_m = np.zeros(tm.shape[1:]) if tm.ndim > 1 else 0.0
    prior_e = np.zeros(te.shape[1:], dtype=te.dtype) if te.ndim > 1 else te.dtype.type(0)
    for a, b in zip(starts, stops):
        seg_e = te[a]
        seg_cum = np.cumsum(tm[a:b], axis=0)
        # fold the running total into this segment's scale (or keep the
        # prior scale when it dominates, so nothing overflows); as in add(),
        # a zero sum has no scale, since taking its exponent could push the
        # other sum into subnormals
        ref_e = np.where(
            prior_m == 0, seg_e, np.where(seg_cum[-1] == 0, prior_e, np.maximum(prior_e, seg_e))
        )
        pm = np.ldexp(prior_m, np.clip(prior_e - ref_e, -_MAX_FLOAT_EXP - 100, 0).astype(np.int64))
        shift = np.clip(seg_e - ref_e, -_MAX_FLOAT_EXP - 100, 0).astype(np.int64)
        out_m[a:b] = pm + np.ldexp(seg_cum, shift)
        out_e[a:b] = ref_e
        prior_m = out_m[b - 1]
        prior_e = out_e[b - 1]
        prior_m, prior_e = normalize(prior_m, prior_e)
        out_m[b - 1] = prior_m
        out_e[b - 1] = prior_e
    return out_m, out_e
