"""Power-of-two scaled nonnegative reals: value = mant * 2**exp2.

Solution sequences grow (or decay) exponentially outside the AC region, so
running sums of squared norms leave float64 range long before the scans
finish. These helpers add (mantissa, exponent) pairs into normalized pairs
without ever materializing the full value. All functions accept scalars or
same-shaped numpy arrays. The sums accept unnormalized (even subnormal)
mantissas: a term is aligned by its magnitude, not its exponent.

Running sums of a track's squared singular values, in the Cesaro sweep
and in the solution tracks alike, follow one rule, written as one loop
over rescale periods: the rows of a period share one exponent and are
summed raw, a sum read inside a period adds that period's raw partial sum
to the fold before it with :func:`add`, and whole periods are folded into
the scaled sum in order. When the folds happen does not matter:
:func:`add_all_into` over any number of terms has the bits of folding them
in one by one with :func:`add`, so the Cesaro sweep folds a held buffer
of many periods at once, and the tracks fold period by period, the
period's last read being the fold after it.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import TrackOverflowError

_MAX_FLOAT_EXP = 1000  # safe ldexp range for float64
_INT64_MIN = np.iinfo(np.int64).min


def _floor(ref, out=None):
    """The lowest exponent kept by a shift onto ``ref``, 1100 below it: a
    term further down is out of float range. No int64 wrap: a reference
    within 1100 of the bottom of the range keeps every term."""
    low = -_MAX_FLOAT_EXP - 100
    out = np.maximum(ref, _INT64_MIN - low, out=out)
    out += low
    return out


def add(m1, e1, m2, e2):
    """(m1*2^e1) + (m2*2^e2) as a normalized pair, broadcast elementwise.

    The arithmetic of :func:`add_all_into` on two terms, written out so that
    no stacked copy of the operands is made: the shifts and the sum are
    computed in place in arrays of the broadcast shape.
    """
    (f1, a), (f2, b) = np.frexp(m1), np.frexp(m2)
    a = np.add(a, e1, dtype=np.int64)
    b = np.add(b, e2, dtype=np.int64)
    ref = np.maximum(a, b, out=np.empty(np.broadcast(a, b).shape, np.int64))
    # a zero term takes no part; two zero terms keep e2 (b is e2 there)
    np.copyto(ref, a, where=f2 == 0)
    np.copyto(ref, b, where=f1 == 0)
    shift = np.maximum(a, _floor(ref), out=np.empty_like(ref))
    shift -= ref
    total = np.ldexp(f1, shift.astype(np.int32), out=np.empty(ref.shape))
    np.maximum(b, _floor(ref, out=shift), out=shift)
    shift -= ref
    total += np.ldexp(f2, shift.astype(np.int32))
    m, de = np.frexp(total, out=(total, None))
    ref += de
    return m[()], ref[()]  # scalars stay scalars


def add_all_into(mants, exps):
    """Sum of the terms mants[k] * 2^exps[k] along axis 0, a normalized pair.

    The term of largest magnitude (frexp exponent plus exps[k]) is the
    reference; the others are shifted onto it by powers of two, exact
    until they underflow, and added in order, one at a time. So the bits
    are those of folding the terms in with :func:`add` one by one, and a
    fold of the first terms, then of it with the rest, has the same bits
    as one fold of them all. Zero terms take no part; an all-zero sum
    keeps the last term's exponent. Exponents are int64 integers, exact
    over the whole range (the terms' and the sum's own binary exponents
    must be int64 too).

    The terms are overwritten: ``mants`` (float) and ``exps`` (int64, of
    the same shape), both C-ordered, end as scratch. Besides frexp's int32
    exponents the sum allocates nothing of their size, which spares a fold
    of many terms the page faults of fresh memory. The exponents are
    shifted in place, and one reduce along axis 0 adds the rows in order
    (numpy pairs the terms only of a lone sum, which is folded term by
    term).
    """
    last = exps[-1].copy()
    f, d = np.frexp(mants, out=(mants, None))
    exps += d
    np.copyto(exps, _INT64_MIN, where=f == 0)  # a zero term never sets the reference
    ref = np.asarray(exps.max(axis=0))  # an array even for a lone sum
    np.maximum(exps, _floor(ref), out=exps)
    exps -= ref
    np.copyto(d, exps)  # the clamped shifts fit: int32 is ldexp's fast type
    np.ldexp(f, d, out=f)
    m, de = np.frexp(np.add.reduce(f, axis=0) if f[0].size > 1 else functools.reduce(np.add, f))
    ref += de
    np.copyto(ref, last, where=m == 0)
    return m[()], ref[()]


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
