"""The integrated density of states by Sturm counting (``oracles.ids_sturm``)
against its closed forms: a route that shares nothing with the Cesaro
sweep, the rank ladder or the Floquet oracle."""

import math

import numpy as np
import pytest

from jacobispec import classify, models

from oracles import ids_sturm

# energy grids offset from the points where a pivot is exactly singular
# (E = 0 makes S_1 = V_1 - E vanish on the free chain)
OFFSET = 1e-3 * math.pi


def free_ids(es):
    """k(E) = arccos(-E/2) / pi of the free l = 1 chain, 0 and 1 off its band."""
    return np.arccos(np.clip(-np.asarray(es) / 2.0, -1.0, 1.0)) / math.pi


def test_free_chain_matches_the_closed_form(free1):
    n = 4096
    es = np.linspace(-2.5, 2.5, 129) + OFFSET
    got = ids_sturm(free1, es, n)
    assert np.max(np.abs(got - free_ids(es))) <= 2.0 / n
    assert got[0] == 0.0 and got[-1] == 1.0  # outside [-2, 2] every level is above or below


def test_diag01_is_the_mean_of_two_shifted_free_chains(diag01):
    n = 2048
    es = np.linspace(-2.5, 3.5, 129) + OFFSET
    want = 0.5 * (free_ids(es) + free_ids(es - 1.0))
    assert np.max(np.abs(ids_sturm(diag01, es, n) - want)) <= 2.0 / n


def test_counts_do_not_change_under_conjugation(diag01):
    c, s = math.cos(0.3), math.sin(0.3)
    q = np.array([[c, -s], [s, c]])
    v = q @ np.diag([0.0, 1.0]) @ q.T
    rotated = models.PeriodicSpec((np.eye(2),), (0.5 * (v + v.T),))
    es = np.linspace(-2.5, 3.5, 256) + OFFSET
    n = 1024
    assert np.array_equal(ids_sturm(rotated, es, n), ids_sturm(diag01, es, n))


@pytest.mark.parametrize("name, min_labels", [("random_bounded2", 10), ("periodic3", 5)])
def test_periodic_gaps_count_whole_periods(request, name, min_labels):
    # in a gap of a period-p model, k(E) is a multiple of 1/(p l); the
    # n-site truncation's count n l k_N(E) lies within 2 l of j n / p for an
    # integer label j (Dirichlet boundary levels sit in the gaps). The gaps
    # are where the Floquet oracle reads no open channel and no band edge
    spec = request.getfixturevalue(name)
    n, l, p = 1024, spec.dim, spec.period
    es = np.linspace(-4.5, 4.5, 513) + OFFSET
    r_flo, edge, _, _ = classify.floquet_grid(spec, es)
    gaps = es[(r_flo == 0) & ~edge]
    count = np.rint(ids_sturm(spec, gaps, n) * n * l)
    labels = np.rint(count * p / n)
    assert gaps.size > 100 and np.unique(labels).size >= min_labels
    assert np.max(np.abs(count - labels * n / p)) <= 2 * l


def test_an_exactly_singular_pivot_raises(free1):
    with pytest.raises(ZeroDivisionError, match="S_1"):
        ids_sturm(free1, [0.5, 0.0], 8)
