"""Property tests of the power-of-two scaled sums against exact rationals."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobispec import scaling

from oracles import scaling_add_reference

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


@PROPERTY
@given(st.lists(terms, min_size=1, max_size=40))
def test_cumulative_matches_exact_running_sums(seq):
    tm = np.array([m for m, _ in seq])
    te = np.array([e for _, e in seq], dtype=np.int64)
    out_m, out_e = scaling.cumulative(tm, te)
    total = Fraction(0)
    for k, (m, e) in enumerate(seq):
        total += exact(m, e)
        # every partial sum rounds at most once per term folded in
        assert_close(exact(out_m[k], out_e[k]), total, Fraction(2 * (k + 1), 2**52))
