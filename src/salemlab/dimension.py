"""Estimators for box-counting, covering-sum, ball-mass and Fourier-decay exponents.

A Fourier fit screens all its bands' frequencies in one cheap sweep and runs
the exact kernel only where a band's supremum can be.  SALEMLAB_THREADS > 1
splits the screen into contiguous slices on a thread pool; every frequency
is computed on its own, so identical parameters and seed give identical
output regardless of pool size.  numpy and the pool load where a sweep runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from . import thread_count
from .constructions import Scheme, StageReport
from .geometry import IntervalUnion, diameter
from .measures import Measure, PiecewiseUniformMeasure, natural_measure

if TYPE_CHECKING:
    import numpy as np

_GOLDEN = 0.6180339887498949


class FitError(ValueError):
    """Raised when a regression is underdetermined or a gate fails."""


@dataclass(frozen=True)
class DecayFit:
    """Fitted power-law exponent with regression diagnostics.

    The multiplicative constant of the fitted law is exp(intercept).
    """

    exponent: float
    intercept: float
    r_squared: float
    scale_range: tuple[float, float]
    sample_count: int


@dataclass(frozen=True)
class DimensionReport:
    scheme: str
    stage: int
    piece_count: int
    min_diam: float
    hdim_est: float
    frostman_est: float
    fourier_raw: float
    fourier_dim: float
    salem_defect: float
    box_fit: DecayFit
    frostman_fit: DecayFit
    fourier_fit: DecayFit
    declared_hdim: float | None = None
    declared_fdim: float | None = None


def _least_squares(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Slope, intercept, r^2; constant data counts as a perfect flat fit."""
    n = len(xs)
    if n < 2:
        raise FitError("need at least two samples to fit")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        raise FitError("degenerate abscissa: all scales equal")
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    sst = math.fsum((y - my) ** 2 for y in ys)
    if sst == 0.0:
        return slope, my - slope * mx, 1.0
    ssr = math.fsum((y - (my + slope * (x - mx))) ** 2 for x, y in zip(xs, ys))
    return slope, my - slope * mx, 1.0 - ssr / sst


def _log(q: Fraction) -> float:
    """log q > 0: of its float, or of its integers where the float underflows to 0."""
    return math.log(float(q)) if float(q) > 0 else math.log(q.numerator) - math.log(q.denominator)


def clamp_dimension(raw: float, d: int = 1) -> float:
    """Clamp a raw exponent into the admissible range [0, d]."""
    return min(max(raw, 0.0), float(d))


def covering_sum(cover, s: float) -> float:
    """sum(diam(E)^s) over the cover elements.

    Accepts an IntervalUnion (its pieces are the cover), an iterable of
    IntervalUnions, or raw (a, b) endpoint pairs.
    """
    if s < 0:
        raise FitError("exponent must be nonnegative")
    if isinstance(cover, IntervalUnion):  # int true division: the floats of the Fraction diameters
        D, lefts, rights = cover.int_ends
        diams = [(r - l) / D for l, r in zip(lefts, rights)]
    else:
        diams = [float(diameter(e) if isinstance(e, IntervalUnion) else Fraction(e[1]) - Fraction(e[0])) for e in cover]
    return math.fsum(d**s for d in diams)


def box_count_fit(reports: Sequence[StageReport], scale: str = "max") -> DecayFit:
    """Least-squares slope of log N against -log delta over the stage ladder.

    `scale` picks which per-stage diameter statistic anchors the abscissa.
    Stages whose pieces are all degenerate are skipped.
    """
    if scale not in ("max", "min"):
        raise FitError("scale must be 'max' or 'min'")
    xs, ys = [], []
    for rep in reports:
        delta = rep.max_diam if scale == "max" else rep.min_diam
        if delta <= 0 or rep.piece_count < 1:
            continue
        xs.append(-_log(delta))
        ys.append(math.log(rep.piece_count))
    if len(set(xs)) < 2:
        raise FitError("need at least two distinct scales")
    slope, intercept, r2 = _least_squares(xs, ys)
    return DecayFit(slope, intercept, r2, (min(xs), max(xs)), len(xs))


def frostman_fit(
    mu: PiecewiseUniformMeasure,
    centers: Sequence,
    radii: Sequence,
    ambient_dim: int = 1,
) -> DecayFit:
    """Fit the ball-mass growth sup_x mu(B(x, r)) ~ c r^s.

    The exponent is clamped into [0, ambient_dim].
    """
    radii = sorted({Fraction(r) if not isinstance(r, Fraction) else r for r in radii})
    if len(radii) < 4:
        raise FitError("need at least four distinct radii")
    if radii[0] <= 0:
        raise FitError("radii must be positive")
    xs, ys = [], []
    for r, sup in zip(radii, mu.max_ball_masses(centers, radii)):
        if sup <= 0.0:
            continue
        xs.append(_log(r))
        ys.append(math.log(sup))
    if len(xs) < 2:
        raise FitError("ball masses vanished at every scale")
    slope, intercept, r2 = _least_squares(xs, ys)
    return DecayFit(clamp_dimension(slope, ambient_dim), intercept, r2, (min(xs), max(xs)), len(xs))


def default_frostman_centers(mu: PiecewiseUniformMeasure, cap: int = 128) -> list[Fraction]:
    """Piece endpoints and midpoints, evenly thinned to the cap; numerators over 2D until then."""
    D, lefts, rights = mu.int_ends
    pts: list[int] = []
    for l, r in zip(lefts, rights):
        pts.append(2 * l)
        if r > l:
            pts.append(l + r)
            pts.append(2 * r)
    # disjoint pieces already give strictly increasing points
    if any(r >= l2 for r, l2 in zip(rights, lefts[1:])):
        pts = sorted(set(pts))
    if len(pts) > cap:
        step = (len(pts) - 1) / (cap - 1)
        pts = [pts[round(i * step)] for i in range(cap)]
    return [Fraction(n, 2 * D) for n in pts]


def default_frostman_radii(mu: PiecewiseUniformMeasure, min_scales: int = 6) -> list[Fraction]:
    """Geometric radii from diam/4 down to the smallest piece diameter.

    Radii below the finest piece scale are excluded: there the stage set is
    interval-like and every mass reading saturates at slope 1.
    """
    diam = mu.diameter()
    if diam <= 0:
        return [Fraction(1, 2**j) for j in range(2, 2 + max(min_scales, 4))]
    D, lefts, rights = mu.int_ends
    floor = Fraction(min((r - l for l, r in zip(lefts, rights) if r > l), default=diam * D / 2**10), D)
    radii = []
    r = diam / 4
    while r >= floor and len(radii) < 40:
        radii.append(r)
        r /= 2
    while len(radii) < max(min_scales, 4):
        radii.append(radii[-1] / 2 if radii else diam / 4)
    return radii


def _band_samples(lo: float, hi: float, count: int, seed: int) -> "np.ndarray":
    """Logarithmic lattice with seeded low-discrepancy jitter.

    The jitter keeps the lattice incommensurate with self-similar frequency
    ladders that a bare geometric grid could alias against.
    """
    import numpy as np

    u0 = (seed * _GOLDEN) % 1.0
    i = np.arange(count)
    jitter = (u0 + i * _GOLDEN) % 1.0
    frac = (i + jitter) / count
    return lo * (hi / lo) ** frac


def fourier_decay_fit(
    mu: Measure,
    xi_max: float = 2.0**16,
    bands: int = 10,
    samples_per_band: int = 128,
    seed: int = 0,
    ambient_dim: int = 1,
) -> DecayFit:
    """Power-law fit of per-band suprema of |mu^|.

    Bands are the top `bands` dyadic intervals below xi_max; within each,
    the supremum is taken over jittered log-lattice samples plus the
    measure's resonant candidates.  One `fourier_screen` call (one per thread)
    brackets each modulus; one `fourier_modulus_many` call on the frequencies
    whose upper end reaches their band's best lower end, the arg-max among
    them, gives each supremum as the exact kernel's float.  The fitted exponent
    is the raw decay rate (-2 * slope); clamp it with `clamp_dimension`.
    """
    if bands < 4:
        raise FitError("need at least four bands")
    if samples_per_band < 64:
        raise FitError("need at least 64 samples per dyadic band")
    j_hi = math.floor(math.log2(xi_max))
    if j_hi - bands < 1:
        raise FitError("xi_max too small for the requested band count")
    import numpy as np

    edges = [(2.0**j, 2.0 ** (j + 1)) for j in range(j_hi - bands, j_hi)]
    per_band = []
    for lo, hi in edges:
        resonant = np.array(mu.resonant_frequencies(lo, hi), dtype=float)
        per_band.append(np.concatenate([_band_samples(lo, hi, samples_per_band, seed), resonant]))
    xis = np.concatenate(per_band)
    threads = thread_count()
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(mu.fourier_screen, np.array_split(xis, threads)))
        approx, slack = (np.concatenate(p) for p in zip(*parts))
    else:
        approx, slack = mu.fourier_screen(xis)
    cuts = np.cumsum([len(b) for b in per_band])[:-1]
    keep = [a + s >= np.max(a - s) for a, s in zip(np.split(approx, cuts), np.split(slack, cuts))]
    mods = mu.fourier_modulus_many(xis[np.concatenate(keep)])
    sups = [float(np.max(m)) for m in np.split(mods, np.cumsum([np.count_nonzero(k) for k in keep])[:-1])]
    xs = [math.log(math.sqrt(lo * hi)) for lo, hi in edges]
    ys = [math.log(max(sup, 1e-300)) for sup in sups]
    slope, intercept, r2 = _least_squares(xs, ys)
    return DecayFit(-2.0 * slope, intercept, r2, (min(xs), max(xs)), len(xs))


def salem_report(
    scheme: Scheme,
    stage: int,
    xi_max: float = 2.0**16,
    bands: int = 10,
    samples_per_band: int = 128,
    seed: int = 0,
    fit_lo: int = 1,
) -> DimensionReport:
    """Box, Frostman and Fourier readings for one scheme at one stage.

    The box fit runs over the stage ladder fit_lo..stage; the Frostman fit
    uses the natural measure of the stage set; the Fourier fit uses the
    scheme's decay measure (the singular product measure for Cantor-type
    schemes, the natural stage measure otherwise, where the reading is a
    diagnostic rather than a certified value).
    """
    return salem_report_with_measure(scheme, stage, xi_max, bands, samples_per_band, seed, fit_lo)[0]


def salem_report_with_measure(
    scheme: Scheme,
    stage: int,
    xi_max: float = 2.0**16,
    bands: int = 10,
    samples_per_band: int = 128,
    seed: int = 0,
    fit_lo: int = 1,
) -> tuple[DimensionReport, Measure]:
    """`salem_report` and the decay measure its Fourier fit used.

    The stage set and its natural measure are built once per call.  The
    scheme keeps every stage it has built (one memo) and keeps no measure.
    """
    stage_set = scheme.stage(stage)
    reports = scheme.reports(fit_lo, stage, stage_set)
    box = box_count_fit(reports)
    ladders = scheme.block_ladders(stage)
    if ladders:
        # block towers: the union ladder mixes block births into the count,
        # so the dimension estimate is the sup of per-block fits (blocks
        # pairwise share at most a point by construction)
        block_fits = [box_count_fit(lad).exponent for lad in ladders if len(lad) >= 2]
        hdim = countable_union_sup(block_fits, True)
    else:
        hdim = box.exponent
    mu_nat = natural_measure(stage_set)
    fro = frostman_fit(mu_nat, default_frostman_centers(mu_nat), default_frostman_radii(mu_nat))
    mu_dec = scheme.decay_measure(stage, mu_nat)
    fou = fourier_decay_fit(mu_dec, xi_max, bands, samples_per_band, seed)
    fdim = clamp_dimension(fou.exponent, 1)
    last = reports[-1]
    return DimensionReport(
        scheme=scheme.name,
        stage=stage,
        piece_count=last.piece_count,
        min_diam=float(last.min_diam),
        hdim_est=hdim,
        frostman_est=fro.exponent,
        fourier_raw=fou.exponent,
        fourier_dim=fdim,
        salem_defect=hdim - fdim,
        box_fit=box,
        frostman_fit=fro,
        fourier_fit=fou,
        declared_hdim=scheme.declared_hdim,
        declared_fdim=scheme.declared_fdim,
    ), mu_dec


def countable_union_sup(reports: Sequence, blocks_almost_disjoint: bool) -> float:
    """Sup of per-block dimension estimates.

    Valid only when distinct blocks share at most single points; without
    that gate sup-stability of the Fourier reading fails, so the call is
    refused.
    """
    if not blocks_almost_disjoint:
        raise FitError(
            "blocks must be pairwise almost disjoint for the sup rule to apply"
        )
    vals = [r.hdim_est if isinstance(r, DimensionReport) else float(r) for r in reports]
    if not vals:
        raise FitError("no block reports given")
    return max(vals)
