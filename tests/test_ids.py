"""The integrated density of states by Sturm counting (``oracles.ids_sturm``)
against its closed forms: a route that shares nothing with the Cesaro
sweep, the rank ladder or the Floquet oracle."""

import math

import numpy as np
import pytest

from jacobispec import models

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


def test_an_exactly_singular_pivot_raises(free1):
    with pytest.raises(ZeroDivisionError, match="S_1"):
        ids_sturm(free1, [0.5, 0.0], 8)
