"""Library input checks that no config can reach: each raises before any work."""

import numpy as np
import pytest

from jacobispec import classify, models, recurrence, weyl
from jacobispec.errors import DomainError, InvalidInputError


def _jost_below_axis(spec):
    phi, psi = recurrence.dirichlet_neumann(spec, 0.5 - 0.1j, 8)
    recurrence.jost_assemble(phi, psi, np.eye(1))


def _jost_wrong_m_shape(spec):
    phi, psi = recurrence.dirichlet_neumann(spec, 0.5 + 0.1j, 8)
    recurrence.jost_assemble(phi, psi, np.eye(2))


def _jl_identity_beyond_tracks(spec):
    phi, psi = recurrence.dirichlet_neumann(spec, 0.5, 8)
    recurrence.jl_identity_residual(phi, psi, phi, np.eye(1), 0.1, 9)


def _cosine(freq=(1,), phase=0.0):
    return models.CosinePolynomialMap(np.zeros((1, 1)), ((freq, np.eye(1), phase),))


@pytest.mark.parametrize("call, error", [
    (lambda spec: models.validate_model(spec, window=0), InvalidInputError),
    (lambda spec: recurrence.dirichlet_neumann_grid(spec, [0.5], 1), InvalidInputError),
    (lambda spec: recurrence.cocycle_product(spec, 0.5, -1), InvalidInputError),
    (_jost_below_axis, DomainError),
    (_jost_wrong_m_shape, InvalidInputError),
    (_jl_identity_beyond_tracks, InvalidInputError),
    (lambda spec: weyl.green_block(spec, -1, 2, 0.5 + 0.1j), InvalidInputError),
    (lambda spec: weyl.jl_bounds_grid(spec, [0.1, 0.2], [0.1]), InvalidInputError),
    (lambda spec: classify.constancy_experiment(spec, [(0.1,), (0.6,)], [0.0]), InvalidInputError),
    # every number of a model goes through models._number
    (lambda spec: _cosine(freq=(1.5,)), ValueError),
    (lambda spec: _cosine(freq=(True,)), TypeError),
    (lambda spec: _cosine(phase=float("inf")), ValueError),
    (lambda spec: models.PiecewiseArcMap((float("nan"), 1.0), (np.eye(1), np.eye(1))), ValueError),
    (lambda spec: models.DynamicalSpec((0.3,), (float("nan"),), _cosine(), _cosine()), ValueError),
    (lambda spec: models.free_model(1.5), ValueError),
    # and every entry of a block: a bool is not a number, alone or among floats
    (lambda spec: models.PeriodicSpec(([[True]],), ([[0.0]],)), TypeError),
    (lambda spec: models.PeriodicSpec(([[1.0, True], [True, 1.0]],), (np.zeros((2, 2)),)), TypeError),
    (lambda spec: models.ExplicitSpec((([[1.0]], [[False]]),)), TypeError),
    (lambda spec: models.ExplicitSpec(((np.eye(1), np.eye(1)),), left=(([[True]], [[0.0]]),)), TypeError),
    (lambda spec: models.CosinePolynomialMap([[True]]), TypeError),
    (lambda spec: models.CosinePolynomialMap(np.zeros((1, 1)), (((1,), [[True]], 0.0),)), TypeError),
    (lambda spec: models.PiecewiseArcMap((1.0,), ([[np.bool_(True)]],)), TypeError),
], ids=[
    "validation-window-zero", "dirichlet-neumann-one-block",
    "negative-cocycle-index", "jost-below-real-axis", "jost-m-of-wrong-shape",
    "jl-identity-beyond-tracks", "negative-green-index", "jl-bounds-unequal-lengths",
    "constancy-on-periodic-model", "fractional-cosine-freq", "bool-cosine-freq",
    "infinite-cosine-phase", "nan-arc-break", "nan-omega", "fractional-free-dim",
    "bool-periodic-d", "bool-in-float-block", "bool-explicit-v", "bool-left-d",
    "bool-cosine-constant", "bool-cosine-amplitude", "numpy-bool-arc-block",
])
def test_library_rejects_malformed_input(free1, call, error):
    with pytest.raises(error):
        call(free1)
