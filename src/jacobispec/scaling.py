"""Power-of-two scaled nonnegative reals: value = mant * 2**exp2.

Solution sequences grow (or decay) exponentially outside the AC region, so
running sums of squared norms leave float64 range long before the scans
finish. These helpers keep (mantissa, exponent) pairs normalized and add
them without ever materializing the full value. All functions accept
scalars or same-shaped numpy arrays. The sums accept unnormalized (even
subnormal) mantissas: a term is aligned by its magnitude, not its exponent.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import TrackOverflowError

_MAX_FLOAT_EXP = 1000  # safe ldexp range for float64
_NO_TERM = -(2**62)  # a zero term's exponent in add_all: below all others, far from overflow


def normalize(mant, exp2):
    """Renormalize so the mantissa sits in [0.5, 1) (zero stays zero)."""
    m, de = np.frexp(mant)
    return m, np.asarray(exp2) + de


def add(m1, e1, m2, e2):
    """(m1*2^e1) + (m2*2^e2) as a normalized pair: :func:`add_all` of two terms."""
    m1, e1, m2, e2 = np.broadcast_arrays(m1, e1, m2, e2)
    return add_all(np.array([m1, m2]), np.array([e1, e2]))


def add_all(mants, exps):
    """Sum of the terms mants[k] * 2^exps[k] along axis 0, a normalized pair.

    The term of largest magnitude (frexp exponent plus exps[k]) is the
    reference; the others are shifted onto it by powers of two, exact
    until they underflow, and added in order, one at a time (a reduce may
    pair them). So the bits are those of folding the terms in with
    :func:`add` one by one. Zero terms take no part; an all-zero sum
    keeps the last term's exponent. Exponents must be integers.
    """
    f, d = np.frexp(mants)
    e = np.where(f != 0, d + exps, _NO_TERM)
    ref = e.max(axis=0)
    shift = np.maximum(e - ref, -_MAX_FLOAT_EXP - 100).astype(np.int32)  # ldexp's fast type
    m, de = np.frexp(functools.reduce(np.add, np.ldexp(f, shift)))
    return m, np.where(ref == _NO_TERM, exps[-1], ref) + de


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


def _join(prior_m, prior_e, raw, seg_e, seg_zero):
    """A normalized prior sum plus raw * 2^seg_e, at one reference exponent.

    The reference is the larger of the two exponents (the prior's when the
    segment ``seg_zero`` adds nothing, the segment's when there is no
    prior), lowered where it would take the term of larger magnitude below
    2^-_MAX_FLOAT_EXP, so an unnormalized (even subnormal) mantissa is
    aligned by its magnitude, as in :func:`add_all`.
    """
    ref = np.where(prior_m == 0, seg_e, np.where(seg_zero, prior_e, np.maximum(prior_e, seg_e)))
    f, d = np.frexp(raw)
    mag = np.maximum(np.where(prior_m != 0, prior_e, _NO_TERM), np.where(f != 0, seg_e + d, _NO_TERM))
    ref = np.where(mag > _NO_TERM, np.minimum(ref, mag + _MAX_FLOAT_EXP), ref)
    low = -_MAX_FLOAT_EXP - 100
    pm = np.ldexp(prior_m, np.clip(prior_e - ref, low, 0).astype(np.int32))
    return pm + np.ldexp(raw, np.clip(seg_e - ref, low, -low).astype(np.int32)), ref


def cumulative(terms_mant, terms_exp):
    """Running sums of scaled terms along axis 0, each element on its own.

    Returns (mants, exps) with the same shape as the inputs;
    out[k] = sum_{j<=k} terms[j]. An element's exponent changes rarely
    (only at its rescale events), so its terms are summed raw by cumsum
    between the rows where its exponent changes (its segments), and each
    segment joins the running total of the ones before it by :func:`_join`;
    the last row of every segment is normalized. A change in one element
    does not split the segment of another, so every element's sums are the
    ones it would get alone.
    """
    tm = np.asarray(terms_mant, dtype=float)
    te = np.asarray(terms_exp)
    shape, n = tm.shape, tm.shape[0]
    if n == 0:
        return np.empty_like(tm), np.empty_like(te)
    tm, te = tm.reshape(n, -1), te.reshape(n, -1)
    start = np.ones(te.shape, dtype=bool)  # first row of a segment
    np.not_equal(te[1:], te[:-1], out=start[1:])
    # raw segment sums: one cumsum between the rows where any segment
    # starts, the others' sums carried across (the bits of an unbroken cumsum)
    raw = tm.copy()
    cuts = [0, *(np.flatnonzero(start[1:].any(axis=1)) + 1).tolist(), n]
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a:
            np.add(raw[a], raw[a - 1], out=raw[a], where=~start[a])
        np.cumsum(raw[a:b], axis=0, out=raw[a:b])
    # segments column by column, in row order: their first and last rows
    cols, first = np.nonzero(start.T)
    last = np.append(first[1:] - 1, n - 1)
    last[np.append(cols[1:] != cols[:-1], True)] = n - 1
    counts = start.sum(axis=0)
    ordinal = np.arange(cols.size) - (np.cumsum(counts) - counts)[cols]
    total_zero = raw[last, cols] == 0
    # the prior of each segment is the normalized end of the one before it
    prior_m = np.zeros(cols.size)
    prior_e = np.zeros(cols.size, dtype=te.dtype)
    for k in range(1, int(ordinal.max()) + 1):
        prev = np.flatnonzero(ordinal == k) - 1
        end = _join(prior_m[prev], prior_e[prev], raw[last[prev], cols[prev]],
                    te[first[prev], cols[prev]], total_zero[prev])
        prior_m[prev + 1], prior_e[prev + 1] = normalize(*end)
    # an element of its column's first segment has no prior: :func:`_join`
    # gives it its raw sum (plus 0.0) unless that is below
    # 2^-(_MAX_FLOAT_EXP + 1), so only the others are joined, which keeps
    # the temporaries small
    out_m = np.add(raw, 0.0, out=raw)
    out_e = te.copy()
    tiny = 2.0 ** -(_MAX_FLOAT_EXP + 1)
    later = np.arange(n)[:, None] > last[ordinal == 0]
    rows, at = np.nonzero(later | ((raw < tiny) & (raw > -tiny) & (raw != 0)))
    seg = np.searchsorted(cols * n + first, at * n + rows, side="right") - 1
    out_m[rows, at], out_e[rows, at] = _join(prior_m[seg], prior_e[seg], raw[rows, at],
                                             te[rows, at], total_zero[seg])
    out_m[last, cols], out_e[last, cols] = normalize(out_m[last, cols], out_e[last, cols])
    return out_m.reshape(shape), out_e.reshape(shape)
