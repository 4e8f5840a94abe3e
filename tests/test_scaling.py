"""Property tests of the power-of-two scaled sums against exact rationals."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobispec import matblock, recurrence, scaling

from oracles import (normalize, scaling_add_all_sentinel_reference, scaling_add_reference,
                     scaling_add_sentinel_reference)

# derandomized and without an example database, so every run checks the
# same examples
PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)

mantissas = st.one_of(st.just(0.0), st.floats(min_value=2.0**-60, max_value=2.0**20))
exponents = st.integers(min_value=-1000, max_value=1000)
terms = st.tuples(mantissas, exponents)


def exact(m, e):
    return Fraction(float(m)) * Fraction(2) ** int(e)


def assert_close(got, want, rel):
    assert abs(got - want) <= rel * want


@PROPERTY
@given(terms, terms)
def test_add_matches_exact_sum(a, b):
    m, e = scaling.add(a[0], a[1], b[0], b[1])
    assert m == 0.0 or 0.5 <= m < 1.0  # normalized
    # one rounding of the aligned sum; shifts below float range drop a term
    # smaller than 2^-1000 of the result
    assert_close(exact(m, e), exact(*a) + exact(*b), Fraction(1, 2**52))


# unnormalized mantissas as the Cesaro sweep hands them over: subnormal, tiny
# or large raw sums, at exponents far from the other term's
raw_mantissas = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.0**-1000),
    st.floats(min_value=2.0**-60, max_value=2.0**60),
)
raw_terms = st.tuples(raw_mantissas, st.integers(min_value=-1000, max_value=2100))


@PROPERTY
@given(raw_terms, raw_terms)
def test_add_aligns_unnormalized_mantissas_by_magnitude(a, b):
    m, e = scaling.add(a[0], a[1], b[0], b[1])
    assert m == 0.0 or 0.5 <= m < 1.0
    assert_close(exact(m, e), exact(*a) + exact(*b), Fraction(1, 2**52))


def test_add_of_a_subnormal_mantissa_is_exact_to_rounding():
    # 3 * 2^-1074 * 2^1960 = 3 * 2^886 against 0.739 * 2^884: aligning by
    # the raw exponent 1960 once pushed the first term into subnormals
    # and lost 5.8% of the sum
    args = (0.7390851332151607, 884, 3 * 2.0**-1074, 1960)
    m, e = scaling.add(*args)
    assert_close(exact(m, e), exact(*args[:2]) + exact(*args[2:]), Fraction(1, 2**52))


@PROPERTY
@given(st.lists(raw_terms, min_size=1, max_size=12))
def test_add_all_is_the_in_order_fold_of_add(seq):
    mants = np.array([[m, 0.0] for m, _ in seq])
    exps = np.array([[e, 7] for _, e in seq])
    got_m, got_e = scaling.add_all_into(mants.copy(), exps.copy())
    fold_m, fold_e = mants[0], exps[0]
    for m, e in zip(mants[1:], exps[1:]):
        fold_m, fold_e = scaling.add(fold_m, fold_e, m, e)
    if len(seq) == 1:
        fold_m, fold_e = normalize(fold_m, fold_e)
    assert np.array_equal(got_m, fold_m) and np.array_equal(got_e[0], fold_e[0])
    assert got_m[1] == 0.0 and got_e[1] == 7  # an all-zero sum keeps the last exponent
    total = sum((exact(m, e) for m, e in seq), Fraction(0))
    assert_close(exact(got_m[0], got_e[0]), total, Fraction(len(seq), 2**52))


def test_add_matches_previous_formula():
    # scalars, zeros on either side, and exponent gaps beyond +-1100, where
    # the smaller term is shifted out of float range
    scalars = [(1.5, 3, 0.75, 2), (0.0, 7, 0.5, -3), (0.5, -3, 0.0, 7), (0.0, 0, 0.0, 5),
               (0.75, 0, 0.5, 1200), (0.75, 1200, 0.5, 0), (0.75, -1150, 0.5, 0), (0.6, 0, 0.9, -1101)]
    rng = np.random.default_rng(3)
    m1 = rng.uniform(0.5, 1.0, (3, 40, 2)) * (rng.uniform(size=(3, 40, 2)) > 0.2)
    e1 = rng.integers(-3000, 3000, (3, 40, 2))
    m2 = rng.uniform(0.0, 8.0, (3, 40, 2)) * (rng.uniform(size=(3, 40, 2)) > 0.2)
    e2 = rng.integers(-3000, 3000, (3, 40, 1))  # one ledger exponent for both columns
    for args in scalars + [(m1, e1, m2, e2)]:
        got, want = scaling.add(*args), scaling_add_reference(*args)
        assert all(np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype
                   for a, b in zip(got, want))


# terms for the pair arithmetic: zero, subnormal and unnormalized
# mantissas, at exponents close together, spread past +-1100 (a term
# shifted out of float range) or as large as +-2^40
pair_mantissas = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.0**-1022),
    st.floats(min_value=2.0**-60, max_value=2.0**60),
)
pair_exponents = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-3000, max_value=3000),
    st.integers(min_value=-(2**40), max_value=2**40),
)
pair_terms = st.tuples(pair_mantissas, pair_exponents)


def same_bits(got, want):
    return all(np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype
               and np.shape(a) == np.shape(b) for a, b in zip(got, want))


@PROPERTY
@given(st.lists(pair_terms, min_size=1, max_size=20), st.integers(min_value=0, max_value=2))
def test_add_all_matches_the_sentinel_formula(seq, zeros):
    # stacked as a lone sum, as one sum beside an all-zero one (which keeps
    # the last term's exponent), and with the first terms zeroed
    mants = np.array([m for m, _ in seq])
    exps = np.array([e for _, e in seq], dtype=np.int64)
    mants[:zeros] = 0.0
    cols_m = np.stack([mants, np.zeros_like(mants)], axis=1)
    cols_e = np.stack([exps, exps[::-1]], axis=1)
    for args in ((mants, exps), (cols_m, cols_e), (cols_m[:, :, None], cols_e[:, :, None])):
        got = scaling.add_all_into(*(a.copy() for a in args))
        assert same_bits(got, scaling_add_all_sentinel_reference(*args))


@PROPERTY
@given(st.lists(st.tuples(pair_terms, pair_terms), min_size=1, max_size=12))
def test_add_matches_the_sentinel_formula(pairs):
    (m1, e1), (m2, e2) = (np.array(v) for v in zip(*(a for a, _ in pairs))), \
        (np.array(v) for v in zip(*(b for _, b in pairs)))
    cases = [(m1, e1, m2, e2), (m1[0], int(e1[0]), m2[0], int(e2[0])),
             # one exponent for both columns, broadcast as the sums' ledgers are
             (np.stack([m1, m2], axis=1), np.stack([e1, e2], axis=1), np.stack([m2, m1], axis=1),
              e2[:, None])]
    for args in cases:
        assert same_bits(scaling.add(*args), scaling_add_sentinel_reference(*args))


def test_sums_are_exact_across_the_int64_exponent_range():
    top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
    # a spread beyond 2^63 between two terms, a zero term far above terms
    # below -2^62, and references within 1100 of either end of the range
    cases = [
        ((0.75, 2**62), (0.5, -(2**62) - 5), (0.75, 2**62)),
        ((0.5, -(2**62) - 5), (0.75, 2**62), (0.75, 2**62)),
        ((0.0, 0), (0.5, bottom + 2000), (0.5, bottom + 2000)),
        ((0.5, bottom + 2000), (0.0, 0), (0.5, bottom + 2000)),
        ((0.5, bottom + 10), (0.5, bottom + 10), (0.5, bottom + 11)),
        ((0.75, bottom + 5), (0.5, bottom + 3), (0.875, bottom + 5)),
        ((0.5, top - 2000), (0.5, top - 2000), (0.5, top - 1999)),
        ((0.5, top - 2000), (0.5, bottom + 2000), (0.5, top - 2000)),
    ]
    for (m1, e1), (m2, e2), want in cases:
        assert tuple(scaling.add(m1, e1, m2, e2)) == want
        mants, exps = np.array([[m1, 0.0], [m2, 0.0]]), np.array([[e1, e1], [e2, e2]], dtype=np.int64)
        got_m, got_e = scaling.add_all_into(mants, exps)
        assert (got_m[0], got_e[0]) == want and (got_m[1], got_e[1]) == (0.0, e2)


def _track_sums(roots, ledgers):
    """Running sums of a one-track l = 1 stack whose rows 1.. hold ``roots``,
    row n on the ledger of its rescale period, ledgers[(n - 1) // 8]; with
    the squares the sums add, as exact rationals."""
    blocks = np.array([0.0, *roots])[:, None, None, None]
    exp2 = np.array([0, *(ledgers[n // 8] for n in range(len(roots)))], dtype=np.int64)[:, None]
    _, cum_m, cum_e = recurrence._truncation_sums(blocks, exp2)
    sq = matblock.batched_singular_sq(blocks[1:, 0])[:, 0]
    return cum_m[:, 0, 0], cum_e[:, 0, 0], [exact(q, 2 * e) for q, e in zip(sq, exp2[1:, 0])]


@PROPERTY
@given(st.lists(raw_mantissas, min_size=1, max_size=40),
       st.lists(st.integers(min_value=-500, max_value=1050), min_size=5, max_size=5))
def test_truncation_sums_match_exact_running_sums(mants, ledgers):
    # unnormalized and subnormal squares on ledgers that change only at rows
    # n = 1 mod 8: a running sum joins a period at a far larger exponent
    # without being shifted out of range
    cum_m, cum_e, terms = _track_sums(np.sqrt(mants), ledgers)
    total = Fraction(0)
    for k, term in enumerate(terms, 1):
        total += term
        # every partial sum rounds at most once per term folded in
        assert_close(exact(cum_m[k], cum_e[k]), total, Fraction(2 * k, 2**52))


def test_track_sum_of_a_subnormal_square_is_exact_to_rounding():
    # the add case above as a running sum: aligning the second period by its
    # raw exponent 1960 once pushed the first period's sum into subnormals
    roots = np.zeros(9)
    roots[0], roots[8] = np.sqrt(0.7390851332151607), np.sqrt(3 * 2.0**-1074)
    cum_m, cum_e, terms = _track_sums(roots, [442, 980])
    assert terms[8] == exact(3 * 2.0**-1074, 1960)
    assert_close(exact(cum_m[9], cum_e[9]), sum(terms, Fraction(0)), Fraction(1, 2**52))
