"""Cesaro-mean multiplicity classification, the Floquet oracle for periodic
families, energy-grid scans, and the phase-constancy experiment.

The classifier decides, per energy x and per r = 1..l, whether

    C_r(L) = (1/L) sum_{n<=L} s_{l-r+1}^2[phi_n(x)] + s_{l-r+1}^2[psi_n(x)]

stays bounded as L runs over a dyadic grid; boundedness is read off the
log-log slope (bounded: slope below ``SLOPE_THRESHOLD``; exponential growth:
slope far above 1). The largest bounded r estimates the AC multiplicity at x.
The Floquet oracle counts multipliers within ``FLOQUET_EPS`` of the unit
circle; agreement with it is read ``EDGE_EXCLUSION`` or more off its edges.

The forward kernel writes the sweep's blocks into one chunk buffer of
whole rescale periods (8 steps), at most ``CESARO_CHUNK_BYTES`` (256 KiB),
that every chunk reuses, and the sweep takes one singular-value call per
chunk. The sums follow the rule of :mod:`scaling` in the loop over rescale
periods that the solution tracks run too: a period's rows share one
ledger and are summed raw, a cutoff inside a period reads the fold before
it plus the period's raw sum so far, and then the whole period is folded
in. The raw sums of whole periods are held, as many as fit in
``CESARO_CHUNK_BYTES``, and folded by one magnitude-aligned sum only when
the buffer is full or a cutoff reads the fold; any such grouping has the
bits of folding period by period. A cutoff never cuts a period, so an
energy's sums depend neither on its batch, the chunk size, the fold
schedule nor the other cutoffs, and they equal the phi + psi sums of its
tracks bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matblock, models, recurrence, scaling, weyl
from .errors import InvalidInputError, JacobiSpecError, TrackOverflowError

DEFAULT_L_GRID = tuple(2**k for k in range(8, 17))
OVERFLOW_LOG2 = 830.0  # log2 of ~1e250; C_r beyond this is flagged unbounded
FLOQUET_EPS = 1e-6  # see floquet_grid
FLOQUET_AMBIGUITY = 10.0  # see floquet_grid
BAND_EDGE_COARSE = 2048
BAND_EDGE_TOL = 1e-9
# kernel blocks a Cesaro sweep buffers per singular-value call (256 KiB)
CESARO_CHUNK_BYTES = 2**18
EDGE_EXCLUSION = 0.05  # see agreement_summary
SLOPE_THRESHOLD = 0.2  # see classify_multiplicity
N_RANDOM_PHASES = 2  # phases a constancy run draws from its seed when given none


def _members(spec):
    """A model, or a sequence of member models, as a tuple of members."""
    return tuple(spec) if isinstance(spec, (list, tuple)) else (spec,)


def check_l_grid(l_grid):
    """``l_grid`` as a tuple of ints; InvalidInputError unless it is a valid cutoff grid."""
    l_grid = tuple(int(v) for v in l_grid)
    if len(l_grid) < 2 or any(b <= a for a, b in zip(l_grid, l_grid[1:])) or l_grid[0] < 2:
        raise InvalidInputError("cutoff grid must be at least two increasing integers >= 2")
    return l_grid


def _cesaro_sums(spec, xs, l_grid):
    """log2 of C_r(L) on the grid, streamed over a whole energy batch.

    ``spec`` is one model or a sequence of G member models of one
    dimension, all stepped as one batch of the forward kernel. Returns
    log2_c of shape (len(l_grid), G * B, l), member-major; the trailing
    axis is ordered by descending singular index (column j holds s_{j+1}),
    so C_r lives in column l - r. Each chunk of steps (module docstring)
    gets one singular-value call, and then one pass per rescale period.
    Each track entry (phi or psi of one energy and member) keeps its own
    scaled sum. A cutoff in the period reads the fold plus the period's
    raw partial sum by one :func:`scaling.add`, then adds phi and psi. A
    whole period's raw sum goes into the next slot of a buffer of
    ``CESARO_CHUNK_BYTES // (8 l N)`` periods (N track entries), held
    across chunks; one :func:`scaling.add_all_into` folds them into the
    scaled sums when the buffer is full or before a cutoff reads them.
    InvalidInputError if a period's first and last rows have different
    ledgers.
    """
    members = _members(spec)
    xs = np.asarray(xs, dtype=float)
    g, batch, l = len(members), xs.size, members[0].dim
    l_grid = check_l_grid(l_grid)
    if batch == 0:
        return np.empty((len(l_grid), 0, l))
    eye = np.eye(l)
    prev = np.zeros((g, 2 * batch, l, l))
    prev[:, batch:] = eye
    cur = np.zeros_like(prev)
    cur[:, :batch] = eye
    ledger = np.zeros(g * 2 * batch, dtype=np.int64)
    out = np.empty((len(l_grid), g, batch, l))
    period = recurrence._RESCALE_EVERY
    chunk = np.empty((period * max(1, CESARO_CHUNK_BYTES // (8 * period * l * l * ledger.size)),
                      l, l, ledger.size))
    # row 0: each track entry's fold so far; rows 1..: the raw sums of the
    # whole periods held since, each on its period's 2 * ledger
    hold = max(1, CESARO_CHUNK_BYTES // (8 * l * ledger.size))
    held_m = np.zeros((hold + 1, ledger.size, l))
    held_e = np.zeros(held_m.shape, dtype=np.int64)
    held = ck = 0

    def fold():
        nonlocal held
        held_m[0], held_e[0] = scaling.add_all_into(held_m[: held + 1], held_e[: held + 1])
        held = 0

    def account(first, exps):
        # rows first, first + 1, ... (first = 1 mod period; whole periods but
        # in the last fill) with their ledgers: one singular-value call, then
        # period by period the reads of its cutoffs and, for a whole period,
        # its raw sum into the next held slot
        nonlocal held, ck
        k = len(exps)
        sq = matblock.batched_singular_sq(chunk[:k].transpose(0, 3, 1, 2))
        for a in range(0, k, period):
            r = min(a + period, k)
            exp2 = recurrence._period_ledger(exps[a], exps[r - 1])
            while ck < len(l_grid) and l_grid[ck] < first + r:
                if held:
                    fold()
                m, e = scaling.add(held_m[0], held_e[0], np.add.reduce(sq[a : l_grid[ck] + 1 - first]),
                                   2 * exp2[:, None])
                if not np.isfinite(m).all():
                    # blocks left float range between the kernel's rescale checks
                    raise TrackOverflowError(f"Cesaro sums left float range by L = {l_grid[ck]}")
                m, e = (v.reshape(g, 2, batch, l) for v in (m, e))
                out[ck] = scaling.log2(*scaling.add(m[:, 0], e[:, 0], m[:, 1], e[:, 1]))
                out[ck] -= math.log2(l_grid[ck])
                ck += 1
            if r - a == period:
                held += 1
                np.add.reduce(sq[a:r], out=held_m[held])
                np.multiply(exp2[:, None], 2, out=held_e[held])
                if held == hold:
                    fold()

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
    overflow: np.ndarray  # (l,) bool


def _fit_profiles(xs, log2_c, l_grid, dim):
    logs = np.log2(np.asarray(l_grid, dtype=float))
    xbar = logs.mean()
    denom = float(np.sum((logs - xbar) ** 2))
    # every sum is finite (a non-finite one raises) and >= 1 / L, as s^2[phi_1] = 1
    slopes = np.einsum("g,gbl->bl", logs - xbar, log2_c - log2_c.mean(axis=0)) / denom
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


def classify_multiplicity(profile):
    """Largest r whose Cesaro mean stays bounded, with a confidence flag.

    r_ces is the largest r with slope below ``SLOPE_THRESHOLD`` and no
    overflow marker (0 when none qualifies). Slopes landing in the gray
    zone (threshold, 2*threshold) flag the verdict low-confidence.
    """
    r_ces = 0
    low_conf = False
    for r in range(1, profile.dim + 1):
        slope = float(profile.slopes[r - 1])
        if not profile.overflow[r - 1] and slope < SLOPE_THRESHOLD:
            r_ces = r
        if SLOPE_THRESHOLD < slope < 2.0 * SLOPE_THRESHOLD:
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


def floquet_grid(spec, xs):
    """Elliptic-pair counts of the period monodromy over a vector of real x.

    Eigenvalues of the one-period transfer product come in (lambda,
    1/lambda) pairs; those on the unit circle (within ``FLOQUET_EPS``)
    mark open channels, so r_flo = count/2. An odd count, a modulus off
    the circle by at least ``FLOQUET_EPS`` but less than
    ``FLOQUET_AMBIGUITY`` times it, or a multiplier on the circle within
    ``FLOQUET_EPS`` of +1 or -1 raises the band-edge flag. Returns arrays
    (r_flo, band_edge, eigenvalue mantissas, exp2 ledger).
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
    ambiguous = np.any((dist >= FLOQUET_EPS) & (dist < FLOQUET_AMBIGUITY * FLOQUET_EPS), axis=1)
    on = dist < FLOQUET_EPS
    # a multiplier on the circle near +-1: an (anti)periodic solution, only at an edge
    re, im = (np.ldexp(np.where(on, part, 0.0), exp2[:, None]) for part in (lam.real, lam.imag))
    periodic = np.any(on & (np.hypot(np.abs(re) - 1.0, im) < FLOQUET_EPS), axis=1)
    count = np.sum(on, axis=1)
    return count // 2, (count % 2 == 1) | ambiguous | periodic, lam, exp2


def floquet_multiplicity(spec, x):
    """Floquet verdict at one real x (see :func:`floquet_grid`)."""
    r_flo, edge, lam, exp2 = floquet_grid(spec, [float(x)])
    return FloquetResult(
        x=float(x),
        r_flo=int(r_flo[0]),
        band_edge=bool(edge[0]),
        eigenvalues=lam[0],
        log2_scale=int(exp2[0]),
    )


def floquet_band_edges(spec, lo, hi):
    """Multiplicity-transition energies of a periodic family in [lo, hi].

    A scan of ``BAND_EDGE_COARSE`` points, then bisection of every
    transition interval together until it is ``BAND_EDGE_TOL`` wide.
    """
    xs = np.linspace(float(lo), float(hi), BAND_EDGE_COARSE)
    mult = floquet_grid(spec, xs)[0]
    cut = np.nonzero(np.diff(mult))[0]
    a, b, ra = xs[cut], xs[cut + 1], mult[cut]
    live = b - a > BAND_EDGE_TOL
    while np.any(live):
        mid = 0.5 * (a[live] + b[live])
        same = floquet_grid(spec, mid)[0] == ra[live]
        a[live] = np.where(same, mid, a[live])
        b[live] = np.where(same, b[live], mid)
        live = b - a > BAND_EDGE_TOL
    return (0.5 * (a + b)).tolist()


# ---------------------------------------------------------------------------
# Energy-grid scans.


@dataclass
class ScanParams:
    l_grid: tuple = DEFAULT_L_GRID
    y_ladder: tuple = weyl.DEFAULT_Y_LADDER
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
        ranks = weyl.im_m_boundary_grid(spec, xs, params.y_ladder)
    r_flo = band_edge = None
    if getattr(spec, "period", None) is not None and params.with_floquet:
        r_flo, band_edge, _, _ = floquet_grid(spec, xs)
    for j, x in enumerate(xs):
        prof = profiles[j]
        r_ces, low_conf = classify_multiplicity(prof)
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


def agreement_summary(records, edges=None):
    """Cesaro-vs-Floquet and rank-vs-Floquet agreement more than
    ``EDGE_EXCLUSION`` away from the band edges ``edges``."""
    edges = list(edges or [])

    def non_edge(x):
        return all(abs(x - e) > EDGE_EXCLUSION for e in edges)

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
    verdicts = np.array([classify_multiplicity(p) for p in profiles],
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
                "sym_diff_by_even": by_even,
            }
    return ConstancyReport(
        x_grid=xs, phases=phases, classifications=results, pairwise=pairwise,
    )
