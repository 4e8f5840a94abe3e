"""Operator families (D_n, V_n): explicit lists, periodic blocks, torus rotations.

A model is anything with ``dim`` and ``coefficient_at(n) -> (D_n, V_n)`` for
integer n (negative indices where the family supports a left half-line).
The built-in families also give ``coefficient_arrays(n0, n1)``, the blocks of
a whole index range computed without a per-index loop; every multi-index read
in the package goes through :func:`coefficient_arrays`.
All coefficient blocks are real symmetric; D_n must be invertible; these
hypotheses are checked by :func:`validate_model` (over ``VALIDATION_WINDOW``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import matblock
from .errors import InvalidInputError, ModelValidationError

SYMMETRY_TOL = 1e-10
MIN_SINGULAR = 1e-12
# share of limit_point_partial_sum that its window's second half must carry
LIMIT_POINT_TAIL_SHARE = 0.05
RATIONALITY_DEPTH = 20  # partial quotients the rotation-number probe expands
VALIDATION_WINDOW = 100  # see validate_model


def _sym_block(a, name="block"):
    arr = np.array(a, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    arr = matblock.as_block(arr)
    if not matblock.is_symmetric(arr):
        raise InvalidInputError(f"{name} must be real symmetric")
    return arr


# ---------------------------------------------------------------------------
# Sampling maps for dynamically defined models: a small closed library, each
# kind read from a run config by :func:`sampling_map_from_config`.


class SamplingMap:
    """Maps torus points (d-vectors in [0,1)) to real symmetric blocks."""

    dim: int

    def sample(self, theta: np.ndarray) -> np.ndarray:
        """The blocks at an (n, d) array of points, as an (n, l, l) array."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantMap(SamplingMap):
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _sym_block(self.matrix, "constant map"))

    @property
    def dim(self):
        return self.matrix.shape[0]

    def sample(self, theta):
        return np.repeat(self.matrix[None], len(theta), axis=0)


@dataclass(frozen=True)
class CosinePolynomialMap(SamplingMap):
    """f(theta) = C0 + sum_t A_t cos(2 pi (k_t . theta + phase_t)).

    Every amplitude block is symmetric, so the values are symmetric for
    free. Frequency vectors k_t are integer.
    """

    constant: np.ndarray
    terms: tuple = ()  # of (freq tuple, amplitude block, phase)

    def __post_init__(self):
        object.__setattr__(self, "constant", _sym_block(self.constant, "cosine constant"))
        cooked = []
        for freq, amp, phase in self.terms:
            freq = tuple(int(f) for f in np.atleast_1d(freq))
            cooked.append((freq, _sym_block(amp, "cosine amplitude"), float(phase)))
        object.__setattr__(self, "terms", tuple(cooked))

    @property
    def dim(self):
        return self.constant.shape[0]

    def sample(self, theta):
        out = np.repeat(self.constant[None], len(theta), axis=0)
        for freq, amp, phase in self.terms:
            # k . theta summed column by column, the same at every batch size
            arg = sum(k * theta[:, i] for i, k in enumerate(freq)) + phase
            out = out + amp * np.cos(2.0 * np.pi * arg)[:, None, None]
        return out


@dataclass(frozen=True)
class PiecewiseArcMap(SamplingMap):
    """Piecewise-constant over arcs of the 1-d torus.

    ``breaks`` are arc endpoints 0 < b_1 < ... < b_m = 1; arc i is
    [b_{i-1}, b_i) with b_0 = 0.
    """

    breaks: tuple
    matrices: tuple

    def __post_init__(self):
        breaks = tuple(float(b) for b in self.breaks)
        if not breaks or abs(breaks[-1] - 1.0) > 1e-15 or any(
            b2 <= b1 for b1, b2 in zip((0.0,) + breaks, breaks)
        ):
            raise InvalidInputError("arc breaks must increase to 1.0")
        mats = tuple(_sym_block(m, "arc block") for m in self.matrices)
        if len(mats) != len(breaks):
            raise InvalidInputError("need one block per arc")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "matrices", mats)

    @property
    def dim(self):
        return self.matrices[0].shape[0]

    def sample(self, theta):
        idx = np.searchsorted(self.breaks, theta[:, 0] % 1.0, side="right")
        return np.array(self.matrices)[np.minimum(idx, len(self.matrices) - 1)]


# Config sections are checked by their readers: kind -> (required, optional keys).
_MAP_SCHEMA = {
    "constant": (("matrix",), ()),
    "cosine": (("constant",), ("terms",)),
    "arcs": (("breaks", "matrices"), ()),
}
_MODEL_SCHEMA = {
    "free": ((), ("dim",)),
    "explicit": (("pairs",), ("extension", "left")),
    "periodic": (("ds", "vs"), ()),
    "dynamical": (("alpha", "omega", "f_d", "f_v"), ()),
    "reflected": (("base",), ()),
}


def _checked_kind(section, cfg, schema):
    """``cfg["kind"]``, once ``cfg`` has every key its kind needs and no other."""
    kind = cfg.get("kind") if isinstance(cfg, dict) else None
    if kind not in schema:
        raise InvalidInputError(f"unknown {section} kind {kind!r}")
    required, optional = schema[kind]
    if not set(required) <= cfg.keys() <= {"kind", *required, *optional}:
        raise InvalidInputError(f"{section} of kind {kind} takes {list(required)} and "
                                f"optionally {list(optional)}, got {sorted(cfg)}")
    return kind


def sampling_map_from_config(cfg: dict, *, section: str = "sampling map") -> SamplingMap:
    kind = _checked_kind(section, cfg, _MAP_SCHEMA)
    if kind == "constant":
        return ConstantMap(cfg["matrix"])
    if kind == "cosine":
        terms = cfg.get("terms", [])
        if not all(isinstance(t, dict) and {"freq", "amplitude"} <= t.keys()
                   <= {"freq", "amplitude", "phase"} for t in terms):
            raise InvalidInputError(f"each {section} term takes freq, amplitude and optionally phase")
        terms = tuple((t["freq"], t["amplitude"], t.get("phase", 0.0)) for t in terms)
        return CosinePolynomialMap(cfg["constant"], terms)
    return PiecewiseArcMap(cfg["breaks"], cfg["matrices"])


# ---------------------------------------------------------------------------
# Operator families. Each computes ``coefficient_arrays(n0, n1)`` for a whole
# index range; ``coefficient_at`` is the batch of one.


def _coefficient_at(spec, n: int):
    """(D_n, V_n): ``spec.coefficient_arrays`` for a batch of one."""
    n = int(n)
    d, v = spec.coefficient_arrays(n, n + 1)
    return d[0], v[0]


@dataclass(frozen=True)
class ExplicitSpec:
    """A finite list of (D_n, V_n) pairs plus an extension rule.

    ``extension`` is "wrap" (periodic continuation of the list) or
    "constant" (repeat the last pair). Negative indices need ``left``,
    a list of pairs for n = -1, -2, ... continued by the same rule.
    """

    pairs: tuple
    extension: str = "wrap"
    left: tuple = ()

    def __post_init__(self):
        if self.extension not in ("wrap", "constant"):
            raise InvalidInputError("extension must be 'wrap' or 'constant'")
        cooked = tuple((_sym_block(d, "D"), _sym_block(v, "V")) for d, v in self.pairs)
        if not cooked:
            raise InvalidInputError("explicit model needs at least one (D, V) pair")
        left = tuple((_sym_block(d, "D"), _sym_block(v, "V")) for d, v in self.left)
        object.__setattr__(self, "pairs", cooked)
        object.__setattr__(self, "left", left)
        # the right list, then the left one; coefficient_arrays indexes into it
        object.__setattr__(self, "_table", tuple(np.array(t) for t in zip(*cooked + left)))

    @property
    def dim(self):
        return self.pairs[0][0].shape[0]

    coefficient_at = _coefficient_at

    def coefficient_arrays(self, n0: int, n1: int):
        n = np.arange(n0, n1)
        if n0 < 0 and not self.left:
            raise InvalidInputError("explicit model has no declared left extension for n < 0")
        right = n >= 0
        idx = np.where(right, n, -n - 1)
        size = np.where(right, len(self.pairs), len(self.left))
        idx = np.minimum(idx, size - 1) if self.extension == "constant" else idx % size
        idx = idx + np.where(right, 0, len(self.pairs))
        return tuple(t[idx] for t in self._table)

    @property
    def supports_negative(self):
        return bool(self.left)


@dataclass(frozen=True)
class PeriodicSpec:
    """Period-p blocks, defined on the whole line via n mod p."""

    ds: tuple
    vs: tuple

    def __post_init__(self):
        ds = tuple(_sym_block(d, "D") for d in self.ds)
        vs = tuple(_sym_block(v, "V") for v in self.vs)
        if not ds or len(ds) != len(vs):
            raise InvalidInputError("periodic model needs equal-length D and V lists")
        object.__setattr__(self, "ds", ds)
        object.__setattr__(self, "vs", vs)
        object.__setattr__(self, "_table", (np.array(ds), np.array(vs)))

    @property
    def period(self):
        return len(self.ds)

    @property
    def dim(self):
        return self.ds[0].shape[0]

    coefficient_at = _coefficient_at

    def coefficient_arrays(self, n0: int, n1: int):
        idx = np.arange(n0, n1) % self.period
        return tuple(t[idx] for t in self._table)

    supports_negative = True


@dataclass(frozen=True)
class DynamicalSpec:
    """Coefficients sampled along a torus-rotation orbit.

    D_n = f_D(T^n omega), V_n = f_V(T^n omega) with T(omega) = omega + alpha
    mod 1 componentwise. The orbit is evaluated exactly: each float alpha_i
    is a dyadic rational p/q, and n*alpha_i mod 1 = (n*p mod q)/q in integer
    arithmetic, so phases never drift. Each cosine freq of f_D and f_V has
    one entry per torus coordinate, and an arcs map needs a 1-d torus.
    """

    alpha: tuple
    omega: tuple
    f_d: SamplingMap
    f_v: SamplingMap

    def __post_init__(self):
        alpha = tuple(float(a) % 1.0 for a in np.atleast_1d(self.alpha))
        omega = tuple(float(w) % 1.0 for w in np.atleast_1d(self.omega))
        if len(alpha) != len(omega):
            raise InvalidInputError("alpha and omega must have the same torus dimension")
        if self.f_d.dim != self.f_v.dim:
            raise InvalidInputError("f_D and f_V must produce blocks of equal size")
        d = len(alpha)
        for f in (self.f_d, self.f_v):
            if isinstance(f, PiecewiseArcMap) and d != 1:
                raise InvalidInputError(f"an arcs map needs a 1-d torus, got {d}-d")
            if isinstance(f, CosinePolynomialMap) and any(len(k) != d for k, _, _ in f.terms):
                raise InvalidInputError(f"a cosine freq needs {d} entries, one per torus coordinate")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "_alpha_frac", tuple(Fraction(a) for a in alpha))

    @property
    def torus_dim(self):
        return len(self.alpha)

    @property
    def dim(self):
        return self.f_v.dim

    def phases(self, n0: int, n1: int) -> np.ndarray:
        """T^n omega for n0 <= n < n1, an (n1 - n0, torus_dim) array.

        alpha_i = p/q with q a power of two: for q <= 2^64, n*p mod q is
        exact in uint64 wraparound, as q divides 2^64, and so is dividing by
        q; a larger q (beyond float range for alpha below ~2^-971) falls
        back to Python ints and their correctly rounded true division. So
        no phase drifts.
        """
        n = np.arange(n0, n1, dtype=np.int64).astype(np.uint64)
        out = np.empty((n.size, self.torus_dim))
        for i, (w, af) in enumerate(zip(self.omega, self._alpha_frac)):
            p, q = af.numerator, af.denominator
            if q <= 2**64:
                frac = ((n * np.uint64(p)) & np.uint64(q - 1)) / float(q)
            else:
                frac = np.array([k * p % q / q for k in range(n0, n1)])
            out[:, i] = (w + frac) % 1.0
        return out

    coefficient_at = _coefficient_at

    def coefficient_arrays(self, n0: int, n1: int):
        theta = self.phases(n0, n1)
        return self.f_d.sample(theta), self.f_v.sample(theta)

    def with_phase(self, omega) -> "DynamicalSpec":
        """The family started at ``omega``; from ``phases(m, m + 1)[0]`` its n is this one's n + m."""
        return DynamicalSpec(self.alpha, omega, self.f_d, self.f_v)

    supports_negative = True

    def rationality_report(self) -> dict:
        """Continued-fraction probe of the rotation numbers.

        A float can never certify irrationality; this records whether the
        expansion terminates within ``RATIONALITY_DEPTH`` partial quotients
        (it does for visibly rational alpha such as 1/3) so reports can flag
        suspect orbits. Heuristic only.
        """
        out = {}
        for i, a in enumerate(self.alpha):
            x = a
            quotients = []
            for _ in range(RATIONALITY_DEPTH):
                ai = int(np.floor(x))
                quotients.append(ai)
                frac = x - ai
                if frac < 1e-15:
                    break
                x = 1.0 / frac
            out[i] = {
                "terminates_within_depth": len(quotients) < RATIONALITY_DEPTH,
                "partial_quotients": quotients,
            }
        return out


@dataclass(frozen=True)
class ReflectedSpec:
    """Index reflection mapping the left half-line onto the right.

    With u~_m := u_{-m}, the eigenvalue equation for n <= -1 becomes the
    right half-line equation with D~_n = D_{-n-1} and V~_n = V_{-n}.
    """

    base: object

    @property
    def dim(self):
        return self.base.dim

    coefficient_at = _coefficient_at

    def coefficient_arrays(self, n0: int, n1: int):
        # one read of the base over [-n1, -n0], sliced and reversed
        d, v = coefficient_arrays(self.base, -n1, -n0 + 1)
        return d[-2::-1], v[:0:-1]

    @property
    def supports_negative(self):
        return True


def reflect(spec):
    """Left half-line companion of ``spec`` (see ReflectedSpec)."""
    if not getattr(spec, "supports_negative", False):
        raise InvalidInputError(
            "model does not define coefficients for n < 0; declare a left extension"
        )
    return ReflectedSpec(spec)


def free_model(l: int = 1):
    """D = I, V = 0: the constant-coefficient reference family."""
    if l < 1:
        raise InvalidInputError("model dimension must be >= 1")
    return PeriodicSpec((np.eye(l),), (np.zeros((l, l)),))


def spec_from_config(cfg: dict, *, section: str = "model"):
    """The model a config section describes; malformed input raises InvalidInputError."""
    kind = _checked_kind(section, cfg, _MODEL_SCHEMA)
    if kind == "reflected":
        return ReflectedSpec(spec_from_config(cfg["base"], section=f"{section}.base"))
    try:
        if kind == "free":
            return free_model(int(cfg.get("dim", 1)))
        if kind == "explicit":
            pairs, left = cfg["pairs"], cfg.get("left", [])
            if not all(isinstance(p, list) and len(p) == 2 for p in [*pairs, *left]):
                raise InvalidInputError(f"{section}: pairs and left must be lists of [D, V] pairs")
            return ExplicitSpec(pairs, cfg.get("extension", "wrap"), left)
        if kind == "periodic":
            return PeriodicSpec(cfg["ds"], cfg["vs"])
        f_d, f_v = (sampling_map_from_config(cfg[k], section=f"{section}.{k}") for k in ("f_d", "f_v"))
        return DynamicalSpec(cfg["alpha"], cfg["omega"], f_d, f_v)
    except (TypeError, ValueError) as exc:  # a value that is not numbers of the right shape
        raise InvalidInputError(f"{section} ({kind}): {exc}") from exc


def coefficient_arrays(spec, n0: int, n1: int):
    """(D, V) for n0 <= n < n1 as two (n1 - n0, l, l) arrays.

    The built-in families compute them without a per-index loop; any other
    model stacks ``coefficient_at`` one index at a time.
    """
    n0, n1 = int(n0), int(n1)
    if n1 <= n0:
        raise InvalidInputError(f"empty coefficient range {n0}..{n1}")
    if hasattr(spec, "coefficient_arrays"):
        return spec.coefficient_arrays(n0, n1)
    ds, vs = zip(*(spec.coefficient_at(n) for n in range(n0, n1)))
    return np.array(ds), np.array(vs)


# ---------------------------------------------------------------------------
# Hypothesis validation and the limit-point sufficient condition.


@dataclass
class ValidationReport:
    window: int
    min_s_l: float
    max_s_1: float
    max_symmetry_defect: float
    offenders: list = field(default_factory=list)
    passed: bool = True
    two_sided: bool = False

    def summary(self) -> str:
        lo = -self.window if self.two_sided else 0
        lines = [
            f"window n in [{lo}, {self.window}]",
            f"min s_l[D] = {self.min_s_l:.17g}",
            f"max s_1[D] = {self.max_s_1:.17g}",
            f"max symmetry defect = {self.max_symmetry_defect:.17g}",
            f"passed = {self.passed}",
        ]
        if self.offenders:
            lines.append(f"offending n = {self.offenders}")
        return "\n".join(lines)


def validate_model(spec, window: int = VALIDATION_WINDOW) -> ValidationReport:
    """Check the standing hypotheses over |n| <= window.

    Verifies every D_n, V_n is symmetric, every D_n has smallest singular
    value above ``MIN_SINGULAR``, and records the extreme singular values.
    Raises ModelValidationError (with the report attached) on violation.
    """
    if window < 1:
        raise InvalidInputError("validation window must be >= 1")
    two_sided = getattr(spec, "supports_negative", False)
    lo = -window if two_sided else 0
    ds, vs = coefficient_arrays(spec, lo, window + 1)
    s = np.linalg.svd(ds, compute_uv=False)
    defect = np.maximum(
        np.linalg.norm(ds - ds.transpose(0, 2, 1), axis=(1, 2)),
        np.linalg.norm(vs - vs.transpose(0, 2, 1), axis=(1, 2)),
    )
    bad = (s[:, -1] < MIN_SINGULAR) | (defect > SYMMETRY_TOL)
    offenders = (np.flatnonzero(bad) + lo).tolist()
    report = ValidationReport(
        window=window,
        min_s_l=float(np.min(s[:, -1])),
        max_s_1=float(np.max(s[:, 0])),
        max_symmetry_defect=float(np.max(defect)),
        offenders=offenders,
        passed=not offenders,
        two_sided=two_sided,
    )
    if offenders:
        raise ModelValidationError(
            f"model violates standing hypotheses at n = {offenders[:8]}"
            + ("..." if len(offenders) > 8 else ""),
            report=report,
            offenders=offenders,
        )
    return report


def limit_point_partial_sum(spec, n_terms: int):
    """Partial sum of 1/||D_k|| over k = 0..n_terms and a divergence verdict.

    The sufficient condition for the limit point case needs the full series
    to diverge, which a finite window cannot prove. Decision rule: the
    verdict is "sufficient-condition-met" when the second half of the window
    still contributes at least ``LIMIT_POINT_TAIL_SHARE`` of the total (bounded
    coefficients give a linearly growing sum, so the tail share stays near
    1/2; summable tails collapse to ~0). Otherwise "inconclusive".
    """
    if n_terms < 1:
        raise InvalidInputError("n_terms must be >= 1")
    ds, _ = coefficient_arrays(spec, 0, n_terms + 1)
    terms = 1.0 / np.linalg.svd(ds, compute_uv=False)[:, 0]
    total = float(np.sum(terms))
    half = float(np.sum(terms[: (n_terms + 1) // 2]))
    tail_share = (total - half) / total if total > 0 else 0.0
    verdict = "sufficient-condition-met" if tail_share >= LIMIT_POINT_TAIL_SHARE else "inconclusive"
    return total, verdict
