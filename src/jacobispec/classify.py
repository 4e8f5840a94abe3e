"""Cesaro-mean multiplicity classification, the Floquet oracle for periodic
families, energy-grid scans, and the phase-constancy experiment.

The classifier decides, per energy x and per r = 1..l, whether

    C_r(L) = (1/L) sum_{n<=L} s_{l-r+1}^2[phi_n(x)] + s_{l-r+1}^2[psi_n(x)]

stays bounded as L runs over a dyadic grid; boundedness is read off the
log-log slope (bounded means slope near 0, exponential growth means slope
far above 1). The largest bounded r estimates the AC multiplicity at x.

The forward kernel writes the sweep's blocks into one chunk buffer of
whole rescale periods (8 steps), at most ``CESARO_CHUNK_BYTES`` (256 KiB),
that every chunk reuses, and the sweep takes one singular-value call per
chunk. The rows of each period share one exponent ledger, so they are
summed raw, and the period sums join each track entry's scaled sum in one
magnitude-aligned sum per chunk. That has the bits of folding in each
period and each cutoff's piece in order, so an energy's sums depend
neither on its batch nor on the chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matblock, models, recurrence, scaling, weyl
from .errors import InvalidInputError, JacobiSpecError, TrackOverflowError

DEFAULT_L_GRID = tuple(2**k for k in range(8, 17))
OVERFLOW_LOG2 = 830.0  # log2 of ~1e250; C_r beyond this is flagged unbounded
FLOQUET_AMBIGUITY = 10.0  # see floquet_grid
BAND_EDGE_COARSE = 2048
BAND_EDGE_TOL = 1e-9
# kernel blocks a Cesaro sweep buffers per singular-value call (256 KiB)
CESARO_CHUNK_BYTES = 2**18


def _members(spec):
    """A model, or a sequence of member models, as a tuple of members."""
    return tuple(spec) if isinstance(spec, (list, tuple)) else (spec,)


def _cesaro_sums(spec, xs, l_grid):
    """log2 of C_r(L) on the grid, streamed over a whole energy batch.

    ``spec`` is one model or a sequence of G member models of one
    dimension, all stepped as one batch of the forward kernel. Returns
    log2_c of shape (len(l_grid), G * B, l), member-major; the trailing
    axis is ordered by descending singular index (column j holds s_{j+1}),
    so C_r lives in column l - r. Each chunk of steps (module docstring)
    gets one singular-value call. Each track entry (phi or psi of one
    energy and member) keeps its own scaled sum, to which the chunk's
    period sums are added by one :func:`scaling.add_all` call; phi and psi
    are added at each cutoff.
    """
    members = _members(spec)
    xs = np.asarray(xs, dtype=float)
    g, batch, l = len(members), xs.size, members[0].dim
    l_grid = tuple(int(v) for v in l_grid)
    if len(l_grid) < 2 or any(b <= a for a, b in zip(l_grid, l_grid[1:])) or l_grid[0] < 2:
        raise InvalidInputError("cutoff grid must be at least two increasing integers >= 2")
    if batch == 0:
        return np.empty((len(l_grid), 0, l))
    eye = np.eye(l)
    prev = np.zeros((g, 2 * batch, l, l))
    prev[:, batch:] = eye
    cur = np.zeros_like(prev)
    cur[:, :batch] = eye
    ledger = np.zeros(g * 2 * batch, dtype=np.int64)
    acc_m, acc_e = np.zeros((ledger.size, l)), np.zeros((ledger.size, l), dtype=np.int64)
    out = np.empty((len(l_grid), g, batch, l))
    period = recurrence._RESCALE_EVERY
    chunk = np.empty((period * max(1, CESARO_CHUNK_BYTES // (8 * period * l * l * ledger.size)),
                      l, l, ledger.size))
    ck = 0

    def account(first, exps):
        # rows first, first + 1, ... (first = 1 mod period) with their
        # ledgers: one singular-value call, one sum of each period's rows (a
        # cutoff inside a period cuts it), one scaled sum per cutoff and end
        nonlocal acc_m, acc_e, ck
        k = len(exps)
        sq = matblock.batched_singular_sq(chunk[:k].transpose(0, 3, 1, 2))
        periods = np.add.reduce(sq[: k - k % period].reshape(-1, period, *acc_m.shape), axis=1)
        cuts = {n + 1 - first for n in l_grid[ck:] if n < first + k}
        stops = sorted(cuts.union(min(b, k) for b in range(period, k + period, period)))
        terms_m = np.empty((len(stops) + 1, *acc_m.shape))  # the sums so far, then the pieces
        terms_e = np.empty(terms_m.shape, dtype=np.int64)
        terms_m[0], terms_e[0], a, start = acc_m, acc_e, 0, 0
        for j, b in enumerate(stops, 1):
            assert all(exp2 is exps[a] for exp2 in exps[a:b]), "a ledger changed inside a period"
            terms_m[j] = periods[a // period] if b - a == period else np.add.reduce(sq[a:b])
            terms_e[j], a = 2 * exps[a][:, None], b
            if b in cuts or b == k:
                acc_m, acc_e = scaling.add_all(terms_m[start : j + 1], terms_e[start : j + 1])
                terms_m[j], terms_e[j], start = acc_m, acc_e, j
            if b in cuts:
                if not np.isfinite(acc_m).all():
                    # blocks left float range between the kernel's rescale checks
                    raise TrackOverflowError(f"Cesaro sums left float range by L = {l_grid[ck]}")
                m, e = (v.reshape(g, 2, batch, l) for v in (acc_m, acc_e))
                out[ck] = scaling.log2(*scaling.add(m[:, 0], e[:, 0], m[:, 1], e[:, 1]))
                out[ck] -= math.log2(l_grid[ck])
                ck += 1

    zs = np.tile(np.concatenate([xs, xs]), g)
    steps = recurrence.forward(members, zs, prev.reshape(-1, l, l), cur.reshape(-1, l, l), 1, ledger,
                               l_grid[-1], chunk)
    first = 1
    # a failing step first hands out the rows before it, so a checkpoint among
    # them fails as it would step by step; out-of-range values raise, not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for exps in steps:
            account(first, exps)
            first += len(exps)
    return out.reshape(len(l_grid), g * batch, l)


@dataclass
class CesaroProfile:
    """Per-energy growth record of the truncated Cesaro means."""

    x: float
    dim: int
    l_grid: tuple
    log2_c: np.ndarray  # (len(l_grid), l); column r-1 belongs to C_r
    slopes: np.ndarray  # (l,)
    intercepts: np.ndarray
    overflow: np.ndarray  # (l,) bool


def _fit_profiles(xs, log2_c, l_grid, dim):
    logs = np.log2(np.asarray(l_grid, dtype=float))
    xbar = logs.mean()
    denom = float(np.sum((logs - xbar) ** 2))
    # zero sums fit as flat; belt-and-braces against any stray non-finite
    y = np.clip(np.nan_to_num(log2_c, nan=0.0, posinf=1e9, neginf=-1074.0), -1074.0, None)
    ybar = y.mean(axis=0)
    slopes = np.einsum("g,gbl->bl", logs - xbar, y - ybar) / denom
    intercepts = ybar - slopes * xbar
    overflow = np.any(log2_c > OVERFLOW_LOG2, axis=0)
    profiles = []
    for j, x in enumerate(np.atleast_1d(xs)):
        # flip from descending-singular-index order into r = 1..l order
        profiles.append(
            CesaroProfile(
                x=float(x),
                dim=dim,
                l_grid=tuple(l_grid),
                log2_c=log2_c[:, j, ::-1].copy(),
                slopes=slopes[j, ::-1].copy(),
                intercepts=intercepts[j, ::-1].copy(),
                overflow=overflow[j, ::-1].copy(),
            )
        )
    return profiles


def cesaro_profile(spec, x, l_grid=DEFAULT_L_GRID):
    """Cesaro growth profile of one energy (see module docstring)."""
    return cesaro_profiles_grid(spec, [x], l_grid)[0]


def cesaro_profiles_grid(spec, xs, l_grid=DEFAULT_L_GRID):
    """Cesaro growth profiles at every energy of ``xs``, from one sweep.

    ``spec`` may be a sequence of member models; the profiles then come
    back member-major, member g's profile at xs[j] at g * len(xs) + j.
    """
    members = _members(spec)
    xs = np.asarray(xs, dtype=float)
    log2_c = _cesaro_sums(members, xs, l_grid)
    return _fit_profiles(np.tile(xs, len(members)), log2_c, l_grid, members[0].dim)


def classify_multiplicity(profile, slope_threshold=0.2):
    """Largest r whose Cesaro mean stays bounded, with a confidence flag.

    r_ces is the largest r with slope below the threshold and no overflow
    marker (0 when none qualifies). Slopes landing in the gray zone
    (threshold, 2*threshold) flag the verdict low-confidence.
    """
    r_ces = 0
    low_conf = False
    for r in range(1, profile.dim + 1):
        slope = float(profile.slopes[r - 1])
        if not profile.overflow[r - 1] and slope < slope_threshold:
            r_ces = r
        if slope_threshold < slope < 2.0 * slope_threshold:
            low_conf = True
    return r_ces, low_conf


# ---------------------------------------------------------------------------
# Floquet oracle for periodic families.


@dataclass
class FloquetResult:
    x: float
    r_flo: int
    band_edge: bool
    eigenvalues: np.ndarray
    log2_scale: int


def floquet_grid(spec, xs, eps=1e-6):
    """Elliptic-pair counts of the period monodromy over a vector of real x.

    Eigenvalues of the one-period transfer product come in (lambda,
    1/lambda) pairs; those on the unit circle (within ``eps``) mark open
    channels, so r_flo = count/2. An odd count, or a modulus off the circle
    by at least ``eps`` but less than ``FLOQUET_AMBIGUITY`` eps, raises the
    band-edge flag. Returns arrays (r_flo, band_edge, eigenvalue mantissas,
    exp2 ledger).
    """
    period = getattr(spec, "period", None)
    if period is None:
        raise InvalidInputError("Floquet oracle needs a periodic model")
    mono, exp2 = recurrence.cocycle_products(spec, np.asarray(xs, dtype=float), period + 1)
    lam = np.linalg.eigvals(mono)
    # |true eigenvalue| = |lam| * 2^exp2, recovered through logs so the
    # ledger never has to be materialized
    with np.errstate(divide="ignore"):
        log_mod = np.log(np.abs(lam)) + exp2[:, None] * math.log(2.0)
    dist = np.abs(np.expm1(log_mod))  # exactly | |lambda| - 1 |
    ambiguous = np.any((dist >= eps) & (dist < FLOQUET_AMBIGUITY * eps), axis=1)
    count = np.sum(dist < eps, axis=1)
    return count // 2, (count % 2 == 1) | ambiguous, lam, exp2


def floquet_multiplicity(spec, x, eps=1e-6):
    """Floquet verdict at one real x (see :func:`floquet_grid`)."""
    r_flo, edge, lam, exp2 = floquet_grid(spec, [float(x)], eps)
    return FloquetResult(
        x=float(x),
        r_flo=int(r_flo[0]),
        band_edge=bool(edge[0]),
        eigenvalues=lam[0],
        log2_scale=int(exp2[0]),
    )


def floquet_band_edges(spec, lo, hi, eps=1e-6):
    """Multiplicity-transition energies of a periodic family in [lo, hi].

    A scan of ``BAND_EDGE_COARSE`` points, then bisection of every
    transition interval together until it is ``BAND_EDGE_TOL`` wide.
    """
    xs = np.linspace(float(lo), float(hi), BAND_EDGE_COARSE)
    mult = floquet_grid(spec, xs, eps)[0]
    cut = np.nonzero(np.diff(mult))[0]
    a, b, ra = xs[cut], xs[cut + 1], mult[cut]
    live = b - a > BAND_EDGE_TOL
    while np.any(live):
        mid = 0.5 * (a[live] + b[live])
        same = floquet_grid(spec, mid, eps)[0] == ra[live]
        a[live] = np.where(same, mid, a[live])
        b[live] = np.where(same, b[live], mid)
        live = b - a > BAND_EDGE_TOL
    return (0.5 * (a + b)).tolist()


# ---------------------------------------------------------------------------
# Energy-grid scans.


@dataclass
class ScanParams:
    l_grid: tuple = DEFAULT_L_GRID
    slope_threshold: float = 0.2
    y_ladder: tuple = weyl.DEFAULT_Y_LADDER
    tau_rel: float = 1e-3
    rank_tol: float = 1e-8
    floquet_eps: float = 1e-6
    edge_exclusion: float = 0.05
    with_rank: bool = True
    with_floquet: bool = True  # effective only for periodic models


@dataclass
class ScanRecord:
    x: float
    r_ces: int
    slopes: tuple
    low_confidence: bool
    r_rank: int | None = None
    trace_growth: float = float("nan")
    r_flo: int | None = None
    flags: list = field(default_factory=list)
    error: str = ""


def _chunk_records(spec, xs, params):
    records = []
    profiles = cesaro_profiles_grid(spec, xs, params.l_grid)
    ranks = None
    if params.with_rank:
        ranks = weyl.im_m_boundary_grid(
            spec, xs, params.y_ladder, params.tau_rel, params.rank_tol
        )
    r_flo = band_edge = None
    if getattr(spec, "period", None) is not None and params.with_floquet:
        r_flo, band_edge, _, _ = floquet_grid(spec, xs, params.floquet_eps)
    for j, x in enumerate(xs):
        prof = profiles[j]
        r_ces, low_conf = classify_multiplicity(prof, params.slope_threshold)
        rec = ScanRecord(
            x=float(x),
            r_ces=r_ces,
            slopes=tuple(float(s) for s in prof.slopes),
            low_confidence=low_conf,
        )
        if low_conf:
            rec.flags.append("low-confidence")
        if ranks is not None:
            br = ranks[j]
            rec.r_rank = br.rank
            rec.trace_growth = br.trace_growth
            rec.flags.extend(br.flags())
        if r_flo is not None:
            rec.r_flo = int(r_flo[j])
            if band_edge[j]:
                rec.flags.append("band-edge")
            rec.flags.append("ces=flo" if rec.r_flo == r_ces else "ces!=flo")
            if rec.r_rank is not None:
                rec.flags.append("rank=flo" if rec.r_rank == rec.r_flo else "rank!=flo")
        records.append(rec)
    return records


# Numeric failures at an energy become error rows; anything else is a
# programming error and propagates.
_POINT_FAILURES = (JacobiSpecError, np.linalg.LinAlgError, FloatingPointError)


def _chunk_safe(spec, xs, params):
    """Records of ``xs``; after a numeric failure each half is rerun, so a
    bad energy costs at most 2 log2(len(xs)) reruns and becomes its own
    error row while the rest of the scan survives."""
    try:
        return _chunk_records(spec, xs, params)
    except _POINT_FAILURES as exc:
        if len(xs) > 1:
            half = len(xs) // 2
            return _chunk_safe(spec, xs[:half], params) + _chunk_safe(spec, xs[half:], params)
        return [ScanRecord(x=float(xs[0]), r_ces=-1, slopes=(), low_confidence=True,
                           flags=["error"], error=f"{type(exc).__name__}: {exc}")]


def scan_energy_grid(spec, x_grid, params=None):
    """Classify every energy on the grid; deterministic order, errors kept.

    The whole grid runs as one batch: each step costs mostly numpy call
    overhead, so one wide batch beats splitting the grid over threads.
    """
    params = params or ScanParams()
    xs = np.asarray(x_grid, dtype=float)
    if xs.size == 0:
        return []
    return _chunk_safe(spec, xs, params)


def agreement_summary(records, edges=None, exclusion=0.05):
    """Cesaro-vs-Floquet and rank-vs-Floquet agreement away from band edges."""
    edges = list(edges or [])

    def non_edge(x):
        return all(abs(x - e) > exclusion for e in edges)

    eligible = [r for r in records if not r.error and non_edge(r.x) and "band-edge" not in r.flags]
    ces = [r for r in eligible if r.r_flo is not None]
    ces_agree = sum(1 for r in ces if r.r_ces == r.r_flo)
    ranked = [r for r in ces if r.r_rank is not None]
    rank_agree = sum(1 for r in ranked if r.r_rank == r.r_flo)
    return {
        "n_records": len(records),
        "n_eligible": len(eligible),
        "ces_vs_floquet": ces_agree / len(ces) if ces else float("nan"),
        "rank_vs_floquet": rank_agree / len(ranked) if ranked else float("nan"),
        "n_rank_determinate": len(ranked),
    }


# ---------------------------------------------------------------------------
# Phase-constancy experiment for dynamically defined families.


@dataclass
class PhaseClassification:
    phase: tuple
    r_plus: np.ndarray
    r_minus: np.ndarray
    full_multiplicity: np.ndarray
    determinate: np.ndarray


@dataclass
class ConstancyReport:
    x_grid: np.ndarray
    phases: list
    classifications: list
    pairwise: dict

    def summary(self):
        lines = []
        for (i, j), stats in sorted(self.pairwise.items()):
            lines.append(
                f"phases {i} vs {j}: agreement {stats['agreement']:.4f} "
                f"over {stats['n_joint_determinate']} determinate points; "
                f"sym-diff by even multiplicity: "
                + ", ".join(
                    f"2k={m}: {v:.4f}" for m, v in sorted(stats["sym_diff_by_even"].items())
                )
            )
        return "\n".join(lines)


def constancy_experiment(spec, phases, x_grid, params=None):
    """Compare whole-line multiplicity classifications across phases.

    The whole-line AC multiplicity at x is estimated as r_plus + r_minus
    (right plus reflected-left half-line Cesaro multiplicities), which is
    even exactly when the two half-lines agree. Every phase and both
    half-lines run as members of one Cesaro sweep. For each phase pair the
    report carries the agreement fraction over jointly determinate points
    and the symmetric-difference fraction of each even-multiplicity set.
    """
    if len(phases) < 2:
        raise InvalidInputError("need at least two phases")
    if not hasattr(spec, "with_phase"):
        raise InvalidInputError("constancy experiment needs a dynamical model")
    params = params or ScanParams()
    xs = np.asarray(x_grid, dtype=float)
    phases = [tuple(float(t) for t in np.atleast_1d(p)) for p in phases]
    right = [spec.with_phase(phase) for phase in phases]
    members = [m for s in right for m in (s, models.reflect(s))]
    profiles = cesaro_profiles_grid(members, xs, params.l_grid)
    # (phase, side, energy) -> (r, low confidence)
    verdicts = np.array([classify_multiplicity(p, params.slope_threshold) for p in profiles],
                        dtype=int).reshape(len(phases), 2, xs.size, 2)
    results = [
        PhaseClassification(
            phase=phase,
            r_plus=r[0, :, 0],
            r_minus=r[1, :, 0],
            full_multiplicity=r[0, :, 0] + r[1, :, 0],
            determinate=r[0, :, 1] + r[1, :, 1] == 0,
        )
        for phase, r in zip(phases, verdicts)
    ]

    pairwise = {}
    l = spec.dim
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            a, b = results[i], results[j]
            joint = a.determinate & b.determinate
            n_joint = int(np.sum(joint))
            agree = (
                float(np.sum(a.full_multiplicity[joint] == b.full_multiplicity[joint]) / n_joint)
                if n_joint
                else float("nan")
            )
            by_even = {}
            for k in range(1, l + 1):
                m = 2 * k
                sa = joint & (a.full_multiplicity == m)
                sb = joint & (b.full_multiplicity == m)
                union = int(np.sum(sa | sb))
                sym = int(np.sum(sa ^ sb))
                by_even[m] = sym / union if union else 0.0
            pairwise[(i, j)] = {
                "agreement": agree,
                "n_joint_determinate": n_joint,
                "n_indeterminate": int(np.sum(~joint)),
                "sym_diff_by_even": by_even,
            }
    return ConstancyReport(
        x_grid=xs, phases=phases, classifications=results, pairwise=pairwise,
    )
