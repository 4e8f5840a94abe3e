"""The rank ladder's decimation route against the Riccati descent, and the
batched ladder verdict against its per-point reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobispec import models, weyl
from jacobispec.errors import ConvergenceError

from oracles import ladder_verdict_reference
from test_weyl import m_free_exact

# derandomized and without an example database, so every run checks the
# same examples
PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def fro(a):
    """|a|_F over the trailing (l, l) blocks."""
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)))


def rel_fro(a, b):
    """Largest |a - b|_F / |b|_F over the trailing (l, l) blocks."""
    return float(np.max(fro(a - b) / fro(b)))


@pytest.fixture(scope="module")
def cell3():
    """A random period-1, l = 3 model: a decimated cell of width 3."""
    return _random_periodic(3, 1, 3)


@pytest.fixture(scope="module")
def cell4():
    """A random period-2, l = 2 model: the widest decimated cell, p l = 4."""
    return _random_periodic(4, 2, 2)


# every cell width the ladder decimates (1 to DECIMATION_MAX_CELL), and 16
@pytest.mark.parametrize("name", ["free1", "diag01", "cell3", "cell4", "random_bounded2"])
def test_decimation_matches_descent_at_equal_depth(name, request):
    spec = request.getfixturevalue(name)
    # x = 0 is on the grid: there every short free segment is resonant, the
    # worst case for the decimation's rounding
    xs = np.linspace(-3.2, 3.2, 65)
    ys = (1e-1, 1e-2, 1e-3)
    z = xs[None, :] + 1j * np.array(ys)[:, None]
    solve, rounding = weyl._decimation(spec, z)
    for j in range(7):
        depth = weyl.INITIAL_DEPTH * 2**j
        got = solve(list(range(len(ys))), depth)
        want = weyl._riccati_descent(spec, z.ravel(), depth)[0].reshape(got.shape)
        err = fro(got - want)
        for i in range(len(ys)):
            # within 1e-12 relative, except where the route's own rounding
            # bound is larger (near resonant energies at y = 1e-3); there
            # the bound holds
            assert np.all(err[i] <= np.maximum(1e-12 * fro(want[i]), rounding[i])), (depth, ys[i])


@pytest.mark.parametrize("y, depth", [(1e-4, 2**19), (1e-5, 2**22)])
def test_decimation_deep_rungs_match_closed_form(diag01, y, depth, monkeypatch):
    descents = []
    monkeypatch.setattr(weyl, "_riccati_descent", lambda *args: descents.append(args))
    z = 0.5 + 1j * y
    m, depths, deltas = weyl.m_riccati_rungs(diag01, np.array([[z]]))
    # beyond the descent's cap, one decimation step per doubling, and the
    # rounding bound clears tol, so the rung is not descended
    assert depths[0] == depth > weyl.LADDER_MAX_DEPTH and deltas[0] < 1e-8
    assert descents == []
    want = np.diag([m_free_exact(z), m_free_exact(z - 1.0)])
    assert np.max(np.abs(m[0, 0] - want)) <= 1e-12


@pytest.mark.parametrize("name, x, y", [("free1", 0.0, 1e-4), ("free1", 0.0, 1e-6),
                                        ("diag01", 0.5, 1e-6)])
def test_rung_the_rounding_bound_cannot_vouch_for_is_descended(name, x, y, request):
    spec = request.getfixturevalue(name)
    z = np.array([[x + 1j * y]])
    solve, rounding = weyl._decimation(spec, z)
    [(m, depth, delta)] = weyl._until_cauchy(solve, 1, 1e-8, weyl.INITIAL_DEPTH,
                                             weyl.DECIMATION_MAX_DEPTH, str)
    # Cauchy by decimation, but its rounding bound exceeds tol: at the free
    # band centre every odd segment resonates and the error grows like
    # eps / y^2 (2.5e-8 at y = 1e-4); at x = 0.5 the bound is only loose
    assert delta < 1e-8 < rounding[0][0]
    if name == "free1":
        assert abs(m[0, 0, 0] - m_free_exact(z[0, 0])) > 1e-8
    # so the rung is the descent's, which is not Cauchy at its cap, as
    # before the decimation route existed
    with pytest.raises(ConvergenceError, match="riccati descent for y") as exc:
        weyl.m_riccati_rungs(spec, z)
    assert exc.value.depth == weyl.LADDER_MAX_DEPTH


def test_descended_rungs_equal_the_descent_route(diag01, monkeypatch):
    z = np.linspace(-2.5, 3.5, 48)[None, :] + 1j * np.array(weyl.DEFAULT_Y_LADDER)[:, None]
    monkeypatch.setattr(weyl, "DECIMATION_ROUNDING", 1e30)
    redone = weyl.m_riccati_rungs(diag01, z)
    monkeypatch.setattr(weyl, "_decimates", lambda spec: False)
    descended = weyl.m_riccati_rungs(diag01, z)
    for got, want in zip(redone, descended):
        assert np.array_equal(got, want)


def test_decimation_not_cauchy_at_its_cap(diag01, monkeypatch):
    monkeypatch.setattr(weyl, "DECIMATION_MAX_DEPTH", 2**12)
    with pytest.raises(ConvergenceError, match="decimation for y = 0.0001") as exc:
        weyl.m_riccati_rungs(diag01, np.array([[0.5 + 1e-2j], [0.5 + 1e-4j]]))
    assert exc.value.depth == 2**12 and exc.value.last_delta > 1e-8


@pytest.mark.parametrize(
    "name, decimates",
    [("free1", True), ("free2", True), ("diag01", True), ("random_bounded2", False),
     ("periodic3", False), ("golden_amo", False), ("wrap_alternating", False)],
)
def test_ladder_route_choice(name, decimates, request, monkeypatch):
    spec = request.getfixturevalue(name)
    assert weyl._decimates(spec) == decimates
    calls = []
    real = weyl._riccati_descent

    def spy(spec, z, depth, collect_to=0):
        calls.append(depth)
        return real(spec, z, depth, collect_to)

    monkeypatch.setattr(weyl, "_riccati_descent", spy)
    weyl.im_m_boundary_grid(spec, np.linspace(-2.0, 2.0, 5), (0.1, 0.05, 0.03))
    assert (calls == []) == decimates


@pytest.mark.parametrize("period, l, decimates",
                         [(2, 2, True), (4, 1, True), (1, 4, True), (4, 2, False),
                          (8, 1, False), (3, 1, False), (1, 5, False)])
def test_decimation_needs_a_narrow_cell(period, l, decimates):
    # the period divides INITIAL_DEPTH and the cell p l is at most DECIMATION_MAX_CELL
    assert weyl._decimates(_random_periodic(0, period, l)) == decimates


def _random_periodic(seed, period, l):
    rng = np.random.default_rng(seed)
    ds, vs = [], []
    for _ in range(period):
        q, _ = np.linalg.qr(rng.normal(size=(l, l)))
        d = q @ np.diag(rng.uniform(0.5, 1.5, size=l) * rng.choice([-1.0, 1.0], size=l)) @ q.T
        v = rng.uniform(-1.0, 1.0, size=(l, l))
        ds.append((d + d.T) / 2)
        vs.append((v + v.T) / 2)
    spec = models.PeriodicSpec(tuple(ds), tuple(vs))
    models.validate_model(spec, window=period)
    return spec


@PROPERTY
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([1, 2, 4, 8]),
    st.sampled_from([1, 2]),
    st.floats(min_value=-3.5, max_value=3.5),
    st.floats(min_value=1e-2, max_value=1.0),
)
def test_decimation_is_herglotz_symmetric_and_the_descent(seed, period, l, x, y):
    spec = _random_periodic(seed, period, l)
    z = np.array([[complex(x, y)]])
    m = weyl._decimation(spec, z)[0]([0], weyl.INITIAL_DEPTH)[0]
    assert np.linalg.eigvalsh(m.imag)[0, 0] > 0.0
    assert rel_fro(m, np.swapaxes(m, -1, -2)) <= 1e-12
    want = weyl._riccati_descent(spec, z.ravel(), weyl.INITIAL_DEPTH)[0]
    assert rel_fro(m, want) <= 1e-12


def _component_major(a):
    """A (..., n, m) stack as component-major cells (n, m, ...)."""
    return np.moveaxis(a, (-2, -1), (0, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 16])
def test_cell_solve_and_product_match_lapack_and_blas(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(3, 40, n, n)) + 1j * rng.normal(size=(3, 40, n, n))
    if n > 1:
        # a zero leading entry in every other cell: the pivot swap is taken
        a[:, ::2, 0, 0] = 0.0
    b = rng.normal(size=(3, 40, n, 2 * n)) + 1j * rng.normal(size=(3, 40, n, 2 * n))
    got = weyl._cell_solve(_component_major(a), _component_major(b))
    assert rel_fro(np.moveaxis(got, (0, 1), (-2, -1)), np.linalg.solve(a, b)) <= 1e-12
    got = weyl._cell_product(_component_major(a), _component_major(b))
    assert rel_fro(np.moveaxis(got, (0, 1), (-2, -1)), a @ b) <= 1e-12


@pytest.mark.parametrize("singular", [[[1.0, 2.0], [2.0, 4.0]], [[0.0, 1.0], [0.0, 2.0]]])
def test_cell_solve_raises_on_a_singular_cell(singular):
    # [[1, 2], [2, 4]] leaves an exact zero pivot after its row swap, and
    # [[0, 1], [0, 2]] has no pivot in its first column at all
    a = np.tile(np.eye(2, dtype=complex)[:, :, None], (1, 1, 5))
    a[:, :, 3] = singular
    with pytest.raises(np.linalg.LinAlgError):
        weyl._cell_solve(a, np.ones((2, 1, 5), dtype=complex))


@pytest.mark.parametrize("name", ["free1", "diag01", "cell4", "random_bounded2"])
def test_ladder_on_an_empty_grid_is_empty(name, request):
    # free1, diag01 and cell4 decimate, random_bounded2 is descended
    spec = request.getfixturevalue(name)
    assert weyl.im_m_boundary_grid(spec, []) == []
    m, depths, deltas = weyl.m_riccati_rungs(spec, np.full((3, 0), 0.1j))
    assert m.shape == (3, 0, spec.dim, spec.dim) and len(depths) == len(deltas) == 3


def _assert_matches_reference(y_ladder, eigs):
    got = weyl._ladder_verdicts(np.arange(eigs.shape[1]), y_ladder, eigs)
    for j, verdict in enumerate(got):
        ranks, traces, stabilized, rank, growth = ladder_verdict_reference(
            y_ladder, list(eigs[:, j]), 1e-3
        )
        assert np.array_equal(verdict.ranks, ranks) and verdict.rank == rank
        assert verdict.stabilized_rung == stabilized and verdict.indeterminate == (rank is None)
        assert np.array_equal(verdict.traces, traces)
        assert np.array_equal(verdict.trace_growth, growth)


def test_batched_verdict_matches_per_point_reference(diag01, random_bounded2):
    for spec in (diag01, random_bounded2):
        xs = np.linspace(-3.5, 3.5, 96)
        z = xs[None, :] + 1j * np.array(weyl.DEFAULT_Y_LADDER)[:, None]
        m, _, _ = weyl.m_riccati_rungs(spec, z)
        _assert_matches_reference(weyl.DEFAULT_Y_LADDER, np.linalg.eigvalsh(m.imag))
    rng = np.random.default_rng(11)
    for rungs, l in ((2, 1), (3, 2), (5, 2), (7, 3)):
        y_ladder = tuple(np.sort(rng.uniform(1e-4, 1.0, rungs))[::-1])
        scale = np.exp(3.0 * rng.normal(size=(rungs, 200, l)))
        sign = rng.choice([1.0, 1.0, 1.0, -1e-3], size=scale.shape)
        _assert_matches_reference(y_ladder, np.sort(scale * sign, axis=-1))
