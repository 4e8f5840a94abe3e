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


@pytest.mark.parametrize("call, error", [
    (lambda spec: models.validate_model(spec, window=0), InvalidInputError),
    (lambda spec: models.limit_point_partial_sum(spec, 0), InvalidInputError),
    (lambda spec: recurrence.dirichlet_neumann_grid(spec, [0.5], 1), InvalidInputError),
    (lambda spec: recurrence.cocycle_product(spec, 0.5, -1), InvalidInputError),
    (_jost_below_axis, DomainError),
    (_jost_wrong_m_shape, InvalidInputError),
    (_jl_identity_beyond_tracks, InvalidInputError),
    (lambda spec: weyl.green_block(spec, -1, 2, 0.5 + 0.1j), InvalidInputError),
    (lambda spec: weyl.jl_bounds_grid(spec, [0.1, 0.2], [0.1]), InvalidInputError),
    (lambda spec: classify.constancy_experiment(spec, [(0.1,), (0.6,)], [0.0]), InvalidInputError),
], ids=[
    "validation-window-zero", "limit-point-terms-zero", "dirichlet-neumann-one-block",
    "negative-cocycle-index", "jost-below-real-axis", "jost-m-of-wrong-shape",
    "jl-identity-beyond-tracks", "negative-green-index", "jl-bounds-unequal-lengths",
    "constancy-on-periodic-model",
])
def test_library_rejects_malformed_input(free1, call, error):
    with pytest.raises(error):
        call(free1)
