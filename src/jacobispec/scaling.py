"""Power-of-two scaled nonnegative reals: value = mant * 2**exp2.

Solution sequences grow (or decay) exponentially outside the AC region, so
running sums of squared norms leave float64 range long before the scans
finish. These helpers add (mantissa, exponent) pairs into normalized pairs
without ever materializing the full value. All functions accept scalars or
same-shaped numpy arrays. The sums accept unnormalized (even subnormal)
mantissas: a term is aligned by its magnitude, not its exponent.

Running sums of a track's squared singular values, in the Cesaro sweep
and in the solution tracks alike, use :func:`add` and :func:`add_all` by
one rule: the rows of a rescale period share one exponent and are summed
raw, whole periods are folded into the scaled sum in order, and a sum read
inside a period adds that period's raw partial sum to the fold before it.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import TrackOverflowError

_MAX_FLOAT_EXP = 1000  # safe ldexp range for float64
_NO_TERM = -(2**62)  # a zero term's exponent in add_all: below all others, far from overflow


def add(m1, e1, m2, e2):
    """(m1*2^e1) + (m2*2^e2) as a normalized pair, broadcast elementwise.

    The arithmetic of :func:`add_all` on two terms, written out so that
    no broadcast or stacked copy of the operands is made.
    """
    (f1, d1), (f2, d2) = np.frexp(m1), np.frexp(m2)
    a = np.where(f1 != 0, d1 + np.asarray(e1, dtype=np.int64), _NO_TERM)
    b = np.where(f2 != 0, d2 + np.asarray(e2, dtype=np.int64), _NO_TERM)
    ref = np.maximum(a, b)
    low = -_MAX_FLOAT_EXP - 100
    m, de = np.frexp(np.ldexp(f1, np.maximum(a - ref, low).astype(np.int32))
                     + np.ldexp(f2, np.maximum(b - ref, low).astype(np.int32)))
    return m, np.where(ref == _NO_TERM, e2, ref) + de


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
