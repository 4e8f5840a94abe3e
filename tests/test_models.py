from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobispec import matblock, models
from jacobispec.errors import InvalidInputError, ModelValidationError, SingularBlockError

from oracles import validate_model_reference


def test_free_model_coefficients(free1):
    d, v = free1.coefficient_at(17)
    assert np.allclose(d, np.eye(1)) and np.allclose(v, np.zeros((1, 1)))


def test_periodic_wraps_mod_period():
    spec = models.PeriodicSpec(
        (np.eye(1), 2 * np.eye(1)), (np.zeros((1, 1)), np.eye(1))
    )
    d5, v5 = spec.coefficient_at(5)
    assert d5[0, 0] == 2.0 and v5[0, 0] == 1.0  # 5 mod 2 = 1
    for n in range(-6, 12):
        dn, vn = spec.coefficient_at(n)
        dp, vp = spec.coefficient_at(n + spec.period)
        assert np.array_equal(dn, dp) and np.array_equal(vn, vp)


def test_dynamical_cosine_sample():
    alpha = (np.sqrt(5.0) - 1.0) / 2.0
    spec = models.DynamicalSpec(
        (alpha,),
        (0.0,),
        models.CosinePolynomialMap(np.eye(1)),
        models.CosinePolynomialMap(np.zeros((1, 1)), (((1,), 2.0 * np.eye(1), 0.0),)),
    )
    _, v1 = spec.coefficient_at(1)
    assert v1[0, 0] == pytest.approx(2.0 * np.cos(2.0 * np.pi * alpha), abs=1e-15)


def test_dynamical_shift_compatibility():
    alpha = (np.sqrt(5.0) - 1.0) / 2.0
    spec = models.DynamicalSpec(
        (alpha,),
        (0.3,),
        models.CosinePolynomialMap(np.eye(1)),
        models.CosinePolynomialMap(np.zeros((1, 1)), (((1,), np.eye(1), 0.1),)),
    )
    for m in (1, 7, 250, -31):
        from_m = spec.with_phase(spec.phases(m, m + 1)[0])
        for n in (-5, 0, 3, 911):
            v_direct = spec.coefficient_at(n + m)[1][0, 0]
            v_shift = from_m.coefficient_at(n)[1][0, 0]
            assert abs(v_direct - v_shift) <= 1e-14


def test_explicit_extension_rules():
    pairs = ((np.eye(1), np.zeros((1, 1))), (2 * np.eye(1), np.eye(1)))
    wrap = models.ExplicitSpec(pairs, extension="wrap")
    const = models.ExplicitSpec(pairs, extension="constant")
    assert wrap.coefficient_at(4)[0][0, 0] == 1.0
    assert const.coefficient_at(4)[0][0, 0] == 2.0
    with pytest.raises(InvalidInputError):
        wrap.coefficient_at(-1)
    left = models.ExplicitSpec(pairs, left=((3 * np.eye(1), np.zeros((1, 1))),))
    assert left.coefficient_at(-1)[0][0, 0] == 3.0


def test_reflected_index_mapping(random_bounded2):
    refl = models.reflect(random_bounded2)
    for n in range(0, 9):
        d, v = refl.coefficient_at(n)
        assert np.array_equal(d, random_bounded2.coefficient_at(-n - 1)[0])
        assert np.array_equal(v, random_bounded2.coefficient_at(-n)[1])


def test_validate_free_model(free1):
    report = models.validate_model(free1, 100)
    assert report.passed
    assert report.min_s_l == 1.0
    assert report.max_s_1 == 1.0
    assert report.max_symmetry_defect == 0.0


def test_validate_flags_singular_block():
    pairs = [(np.eye(1), np.zeros((1, 1)))] * 6
    pairs[5] = (np.zeros((1, 1)), np.zeros((1, 1)))
    spec = models.ExplicitSpec(tuple(pairs), extension="wrap")
    with pytest.raises(ModelValidationError) as err:
        models.validate_model(spec, 10)
    assert 5 in err.value.offenders


def test_validate_extremes_match_direct_scan(random_bounded2):
    report = models.validate_model(random_bounded2, 60)
    s_l = []
    s_1 = []
    for n in range(-60, 61):
        d, _ = random_bounded2.coefficient_at(n)
        s = np.linalg.svd(d, compute_uv=False)
        s_l.append(s[-1])
        s_1.append(s[0])
    assert report.min_s_l == pytest.approx(min(s_l), abs=1e-15)
    assert report.max_s_1 == pytest.approx(max(s_1), abs=1e-15)


def test_validate_passes_on_all_fixtures(free2, diag01, random_bounded2, golden_amo):
    for spec in (free2, diag01, random_bounded2, golden_amo):
        assert models.validate_model(spec, 64).passed


def test_validate_matches_per_index_reference(random_bounded2, golden_amo):
    rng = np.random.default_rng(5)

    def near_symmetric():
        a = rng.normal(size=(2, 2))
        return a + a.T + 1e-13 * rng.normal(size=(2, 2))

    # asymmetric within the constructor's tolerance, so the defects are nonzero
    pairs = tuple((near_symmetric() + 3 * np.eye(2), near_symmetric()) for _ in range(5))
    left = tuple((near_symmetric() + 3 * np.eye(2), near_symmetric()) for _ in range(3))
    explicit = models.ExplicitSpec(pairs, extension="constant", left=left)
    for spec, window in [
        (random_bounded2, 40), (explicit, 17), (golden_amo, 33),
        (models.reflect(random_bounded2), 21), (models.reflect(golden_amo), 12),
    ]:
        report = models.validate_model(spec, window)
        min_sl, max_s1, max_defect, offenders = validate_model_reference(spec, window)
        assert (report.min_s_l, report.max_s_1, report.max_symmetry_defect) == (
            min_sl, max_s1, max_defect
        )
        assert report.offenders == offenders == []
    one, zero = np.eye(1), np.zeros((1, 1))
    singular = models.ExplicitSpec(
        ((one, zero), (zero, one), (2 * one, zero)), extension="wrap", left=((one, zero), (zero, one))
    )
    with pytest.raises(ModelValidationError) as err:
        models.validate_model(singular, 10)
    report = err.value.report
    assert (report.min_s_l, report.max_s_1, report.max_symmetry_defect, report.offenders) == (
        validate_model_reference(singular, 10)
    )
    assert report.offenders == [-10, -8, -6, -4, -2, 1, 4, 7, 10]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.0, max_value=15.0),
    st.floats(min_value=-14.0, max_value=6.0),
)
def test_validation_fails_exactly_where_invert_raises(seed, period, l, log_cond, log_scale):
    # D = Q diag(s) Q^t, symmetrised: |s| runs geometrically from
    # 10^log_scale down by a condition number of 10^log_cond (for l >= 2)
    rng = np.random.default_rng(seed)
    ds, vs = [], []
    for _ in range(period):
        q, _ = np.linalg.qr(rng.normal(size=(l, l)))
        s = 10.0 ** (log_scale - log_cond * np.linspace(0.0, 1.0, l)) * rng.choice([-1.0, 1.0], size=l)
        d = q @ np.diag(s) @ q.T
        v = rng.uniform(-1.0, 1.0, size=(l, l))
        ds.append((d + d.T) / 2)
        vs.append((v + v.T) / 2)
    spec = models.PeriodicSpec(tuple(ds), tuple(vs))
    window = 2 * period
    inverts = True
    for n in range(-window, window + 1):
        try:
            matblock.invert(spec.coefficient_at(n)[0])
        except SingularBlockError:
            inverts = False
    try:
        models.validate_model(spec, window)
        validates = True
    except ModelValidationError:
        validates = False
    assert validates == inverts


def test_piecewise_arc_map():
    arc = models.PiecewiseArcMap((0.5, 1.0), (np.eye(1), 2 * np.eye(1)))
    values = arc.sample(np.array([[0.2], [0.7], [0.5]]))[:, 0, 0]
    assert values.tolist() == [1.0, 2.0, 2.0]  # arcs are [b_{i-1}, b_i)


@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("torus_dim", [1, 2])
def test_constant_map_is_cosine_map_with_no_terms(l, torus_dim):
    # a constant map repeats its block bit for bit at every torus point,
    # and the config's `constant` kind builds exactly that map
    rng = np.random.default_rng(l * 10 + torus_dim)
    c = rng.standard_normal((l, l))
    c = c + c.T
    theta = rng.uniform(0.0, 1.0, (7, torus_dim))
    built = models.sampling_map_from_config({"kind": "constant", "matrix": c.tolist()})
    assert isinstance(built, models.CosinePolynomialMap) and built.terms == ()
    expected = np.repeat(c[None], 7, 0)
    for m in (models.CosinePolynomialMap(c), built):
        values = m.sample(theta)
        assert values.shape == expected.shape and values.tobytes() == expected.tobytes()


def test_sampling_map_roundtrip():
    # the config dict parses to the map built directly
    m = models.CosinePolynomialMap(np.zeros((2, 2)), (((1,), np.eye(2), 0.25),))
    again = models.sampling_map_from_config({
        "kind": "cosine", "constant": [[0.0, 0.0], [0.0, 0.0]],
        "terms": [{"freq": [1], "amplitude": [[1.0, 0.0], [0.0, 1.0]], "phase": 0.25}],
    })
    theta = np.array([[0.37], [0.9]])
    assert np.array_equal(m.sample(theta), again.sample(theta))


def test_arc_map_from_config():
    # the config dict parses to the map built directly; breaks must rise to
    # 1.0 and every arc needs its block
    m = models.PiecewiseArcMap((0.3, 1.0), (np.eye(1), 2 * np.eye(1)))
    again = models.sampling_map_from_config({"kind": "arcs", "breaks": [0.3, 1.0],
                                             "matrices": [[[1.0]], [[2.0]]]})
    theta = np.array([[0.1], [0.3], [0.95]])
    assert np.array_equal(m.sample(theta), again.sample(theta))
    for breaks, mats in (([0.6, 0.3, 1.0], [[[1.0]]] * 3), ([0.5], [[[1.0]]]),
                         ([0.5, 1.0], [[[1.0]]])):
        with pytest.raises(InvalidInputError, match="arc breaks|one block per arc"):
            models.sampling_map_from_config({"kind": "arcs", "breaks": breaks, "matrices": mats})


def test_spec_config_roundtrip(random_bounded2, golden_amo):
    # each config dict parses to the model built directly, and so does its reflection
    cases = [
        (random_bounded2, {"kind": "periodic", "ds": [d.tolist() for d in random_bounded2.ds],
                           "vs": [v.tolist() for v in random_bounded2.vs]}),
        (golden_amo, {"kind": "dynamical", "alpha": [(np.sqrt(5.0) - 1.0) / 2.0], "omega": [0.0],
                      "f_d": {"kind": "constant", "matrix": [[1.0]]},
                      "f_v": {"kind": "cosine", "constant": [[0.0]],
                              "terms": [{"freq": [1], "amplitude": [[0.5]]}]}}),
    ]
    for spec, cfg in cases:
        for want, got in ((spec, models.spec_from_config(cfg)),
                          (models.reflect(spec), models.spec_from_config({"kind": "reflected", "base": cfg}))):
            for n in (-3, 0, 5):
                for a, b in zip(want.coefficient_at(n), got.coefficient_at(n)):
                    assert np.array_equal(a, b)


def test_rationality_probe_flags_rational():
    spec = models.DynamicalSpec(
        (0.25,), (0.0,),
        models.CosinePolynomialMap(np.eye(1)), models.CosinePolynomialMap(np.zeros((1, 1))),
    )
    probe = spec.rationality_report()
    assert probe[0]["terminates_within_depth"]
    golden = models.DynamicalSpec(
        ((np.sqrt(5) - 1) / 2,), (0.0,),
        models.CosinePolynomialMap(np.eye(1)), models.CosinePolynomialMap(np.zeros((1, 1))),
    )
    assert not golden.rationality_report()[0]["terminates_within_depth"]


def test_two_torus_sampling():
    # d = 2 rotation with a mixed-frequency cosine term
    alpha = ((np.sqrt(5) - 1) / 2, np.sqrt(2) - 1)
    f_v = models.CosinePolynomialMap(
        np.zeros((1, 1)), (((1, -2), 0.7 * np.eye(1), 0.125),)
    )
    spec = models.DynamicalSpec(alpha, (0.1, 0.9), models.CosinePolynomialMap(np.eye(1)), f_v)
    theta = spec.phases(5, 6)[0]
    want = 0.7 * np.cos(2 * np.pi * (theta[0] - 2 * theta[1] + 0.125))
    assert spec.coefficient_at(5)[1][0, 0] == pytest.approx(want, abs=1e-14)
    for m in (3, -11):
        from_m = spec.with_phase(spec.phases(m, m + 1)[0])
        for n in (0, 17):
            assert from_m.coefficient_at(n)[1][0, 0] == pytest.approx(
                spec.coefficient_at(n + m)[1][0, 0], abs=1e-13
            )


def test_reflect_explicit_with_left_extension():
    pairs = ((np.eye(1), np.zeros((1, 1))), (2 * np.eye(1), 0.5 * np.eye(1)))
    left = ((3 * np.eye(1), 0.25 * np.eye(1)),)
    spec = models.ExplicitSpec(pairs, extension="wrap", left=left)
    refl = models.reflect(spec)
    # D~_0 = D_{-1} comes from the left list; V~_0 = V_0 from the right list
    assert refl.coefficient_at(0)[0][0, 0] == 3.0
    assert refl.coefficient_at(0)[1][0, 0] == 0.0
    assert refl.coefficient_at(1)[1][0, 0] == 0.25
    no_left = models.ExplicitSpec(pairs)
    with pytest.raises(InvalidInputError):
        models.reflect(no_left)


def test_coefficient_arrays_match_stacked_lookups(random_bounded2, golden_amo):
    pairs = ((np.eye(2), np.zeros((2, 2))), (2 * np.eye(2), np.diag([1.0, -1.0])))
    left = ((3 * np.eye(2), 0.25 * np.eye(2)),)
    cases = [
        (random_bounded2, -11, 30),
        (models.ExplicitSpec(pairs, extension="wrap", left=left), -4, 9),
        (models.ExplicitSpec(pairs, extension="constant"), 0, 7),
        (golden_amo, -5, 40),
        (models.reflect(random_bounded2), -3, 20),
        (models.reflect(golden_amo), 0, 25),
    ]
    for spec, n0, n1 in cases:
        d, v = models.coefficient_arrays(spec, n0, n1)
        assert d.shape == v.shape == (n1 - n0, spec.dim, spec.dim)
        for k, n in enumerate(range(n0, n1)):
            d_n, v_n = spec.coefficient_at(n)
            assert np.array_equal(d[k], d_n) and np.array_equal(v[k], v_n)
    with pytest.raises(InvalidInputError):
        models.coefficient_arrays(random_bounded2, 5, 5)


def _phase_reference(spec, n):
    """T^n omega by Python-int arithmetic on the exact rotation numbers."""
    out = []
    for w, a in zip(spec.omega, spec.alpha):
        p, q = Fraction(a).numerator, Fraction(a).denominator
        out.append((w + ((n * p) % q) / q) % 1.0)
    return np.array(out)


def _families():
    """One model of every built-in family and sampling map, with its reflection."""
    golden = (np.sqrt(5) - 1) / 2
    cos2 = models.CosinePolynomialMap(
        np.diag([0.5, -0.25]),
        (((1, -2), np.array([[0.7, 0.1], [0.1, 0.0]]), 0.125),
         ((3, 1), np.eye(2), 0.0),
         ((0, 5), np.array([[0.0, 0.2], [0.2, 0.3]]), -0.4)),
    )
    arcs = models.PiecewiseArcMap((0.3, 0.55, 1.0), (np.eye(1), 2 * np.eye(1), 0.5 * np.eye(1)))
    pairs = ((np.eye(2), np.zeros((2, 2))), (2 * np.eye(2), np.diag([1.0, -1.0])),
             (np.diag([1.0, 3.0]), np.ones((2, 2))))
    left = ((3 * np.eye(2), 0.25 * np.eye(2)), (np.diag([2.0, 1.0]), np.eye(2)))
    specs = [
        models.DynamicalSpec((golden, np.sqrt(2) - 1), (0.1, 0.9),
                             models.CosinePolynomialMap(np.diag([1.0, 2.0])), cos2),
        models.DynamicalSpec((golden,), (0.3,), models.CosinePolynomialMap(np.eye(1)), arcs),
        # a denominator above 2^64 takes the Python-int path
        models.DynamicalSpec((golden * 2.0**-20, 0.25), (0.2, 0.7),
                             models.CosinePolynomialMap(np.eye(2)), cos2),
        models.ExplicitSpec(pairs, extension="wrap", left=left),
        models.ExplicitSpec(pairs, extension="constant", left=left),
        models.ExplicitSpec(pairs, extension="constant"),
    ]
    return specs + [models.reflect(s) for s in specs if s.supports_negative]


@pytest.mark.parametrize("n0, n1", [(0, 300), (-257, 40), (1, 4097),
                                    (2**40 - 7, 2**40 + 9), (-2**40 - 9, -2**40 + 7)])
def test_coefficient_arrays_exact_for_every_family(n0, n1):
    for spec in _families():
        if n0 < 0 and not spec.supports_negative:
            continue
        d, v = models.coefficient_arrays(spec, n0, n1)
        assert d.shape == v.shape == (n1 - n0, spec.dim, spec.dim)
        for k in range(0, n1 - n0, max(1, (n1 - n0) // 64)):
            d_n, v_n = spec.coefficient_at(n0 + k)
            assert np.array_equal(d[k], d_n) and np.array_equal(v[k], v_n)
        # reading a sub-range gives the same blocks
        mid = (n0 + n1) // 2
        d2, v2 = models.coefficient_arrays(spec, mid - 3, mid + 5)
        assert np.array_equal(d2, d[mid - 3 - n0: mid + 5 - n0])
        assert np.array_equal(v2, v[mid - 3 - n0: mid + 5 - n0])
        if isinstance(spec, models.DynamicalSpec):
            # the uint64 orbit against exact integer arithmetic, wraparound included
            theta = spec.phases(n0, n1)
            for k in (0, 1, n1 - n0 - 1):
                assert np.array_equal(theta[k], _phase_reference(spec, n0 + k))


@pytest.mark.parametrize("alpha", [1e-300, 2.0**-1000, 5e-324])
def test_tiny_rotation_number_phases_match_fraction_arithmetic(alpha):
    # q = 2^1049 for alpha = 1e-300 is beyond float range; negative n puts
    # n p mod q close to q
    f_v = models.CosinePolynomialMap(np.zeros((1, 1)), (((1,), 0.5 * np.eye(1), 0.0),))
    spec = models.DynamicalSpec((alpha,), (0.3,), models.CosinePolynomialMap(np.eye(1)), f_v)
    theta = spec.phases(-5, 6)[:, 0]
    want = [(0.3 + float(n * Fraction(alpha) % 1)) % 1.0 for n in range(-5, 6)]
    assert np.array_equal(theta, want)
    d, v = models.coefficient_arrays(spec, -5, 6)
    assert np.all(np.isfinite(v))


def test_coefficient_arrays_of_a_duck_typed_model():
    class Ramp:
        dim = 1

        def coefficient_at(self, n):
            return np.eye(1), float(n) * np.eye(1)

    d, v = models.coefficient_arrays(Ramp(), -2, 3)
    assert np.array_equal(v[:, 0, 0], [-2.0, -1.0, 0.0, 1.0, 2.0]) and np.all(d == 1.0)
