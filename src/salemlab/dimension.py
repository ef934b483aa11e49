"""Estimators for box-counting, covering-sum, ball-mass and Fourier-decay exponents.

A Fourier fit screens all its bands' frequencies in one cheap sweep and runs
the exact kernel only where a band's supremum can be; the jittered lattice
is computed once for every band, and the bands' best screened values, keep
mask and sups come from reductions over the band offsets.  numpy loads where
a sweep runs.  A report fits once per `Scheme.decay_key` and fit arguments.
A report's Frostman fit takes its default centres and radii as integer
numerators over one denominator (`_frostman_grid`) and builds no Fraction;
the public Fraction functions convert to and from that rule.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import SAMPLES_BOUND
from .constructions import Scheme, StageReport
from .geometry import IntervalUnion, _common_numerators, as_fraction
from .measures import Measure, PiecewiseUniformMeasure, natural_measure

if TYPE_CHECKING:
    import numpy as np

_GOLDEN = 0.6180339887498949


class FitError(ValueError):
    """Raised when a regression is underdetermined or a gate fails."""


class DecayFit(NamedTuple):
    """Fitted power-law exponent with regression diagnostics.

    The multiplicative constant of the fitted law is exp(intercept).
    """

    exponent: float
    intercept: float
    r_squared: float
    scale_range: tuple[float, float]
    sample_count: int


class DimensionReport(NamedTuple):
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
    """Slope, intercept, r^2 of at least two distinct xs (each caller checks); constant ys fit flat with r^2 = 1."""
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    sst = math.fsum((y - my) ** 2 for y in ys)
    if sst == 0.0:
        return slope, my - slope * mx, 1.0
    ssr = math.fsum((y - (my + slope * (x - mx))) ** 2 for x, y in zip(xs, ys))
    return slope, my - slope * mx, 1.0 - ssr / sst


def _log(n: int, d: int) -> float:
    """log(n / d) > 0: of its float, or of its reduced integers where the float underflows to 0."""
    q = n / d
    if q > 0:
        return math.log(q)
    g = math.gcd(n, d)
    return math.log(n // g) - math.log(d // g)


def clamp_dimension(raw: float, d: int = 1) -> float:
    """Clamp a raw exponent into the admissible range [0, d]."""
    return min(max(raw, 0.0), float(d))


def covering_sum(cover, s: float) -> float:
    """sum(diam(E)^s) over the cover elements.

    Accepts an IntervalUnion (its pieces are the cover) or raw (a, b)
    endpoint pairs.
    """
    if s < 0:
        raise FitError("exponent must be nonnegative")
    if isinstance(cover, IntervalUnion):  # int true division: the floats of the Fraction diameters
        D, lefts, rights = cover.int_ends
        diams = [(r - l) / D for l, r in zip(lefts, rights)]
    else:
        diams = [float(as_fraction(b) - as_fraction(a)) for a, b in cover]
    return math.fsum(d**s for d in diams)


def box_count_fit(reports: Sequence[StageReport]) -> DecayFit:
    """Least-squares slope of log N against -log delta over the stage ladder.

    delta is a stage's largest piece diameter.  Stages whose pieces are all
    degenerate are skipped.
    """
    xs, ys = [], []
    for rep in reports:
        delta = rep.max_diam
        if delta.numerator <= 0 or rep.piece_count < 1:
            continue
        xs.append(-_log(delta.numerator, delta.denominator))
        ys.append(math.log(rep.piece_count))
    if len(set(xs)) < 2:
        raise FitError("need at least two distinct scales")
    slope, intercept, r2 = _least_squares(xs, ys)
    return DecayFit(slope, intercept, r2, (min(xs), max(xs)), len(xs))


def frostman_fit(mu: PiecewiseUniformMeasure, centers: Sequence, radii: Sequence) -> DecayFit:
    """Fit the ball-mass growth sup_x mu(B(x, r)) ~ c r^s.

    The exponent is clamped into [0, 1].
    """
    radii = sorted(set(map(as_fraction, radii)))
    if len(radii) < 4:
        raise FitError("need at least four distinct radii")
    if radii[0].numerator <= 0:
        raise FitError("radii must be positive")
    return _frostman_fit(mu, *_common_numerators(mu.int_ends[0], [as_fraction(c) for c in centers], radii))


def _frostman_fit(mu: PiecewiseUniformMeasure, E: int, cn: list[int], rn: list[int]) -> DecayFit:
    """`frostman_fit` of the centres cn / E and the increasing radii rn / E > 0, where D divides E."""
    xs, ys = [], []
    for r, sup in zip(rn, mu._max_ball_masses(E, cn, rn)):
        if sup <= 0.0:
            continue
        xs.append(_log(r, E))
        ys.append(math.log(sup))
    if len(set(xs)) < 2:  # distinct radii whose logs round to one float leave no slope either
        raise FitError("ball masses vanished at every scale" if len(xs) < 2 else "degenerate abscissa: all scales equal")
    slope, intercept, r2 = _least_squares(xs, ys)
    return DecayFit(clamp_dimension(slope), intercept, r2, (min(xs), max(xs)), len(xs))


def _frostman_grid(mu: PiecewiseUniformMeasure) -> tuple[int, list[int], list[int]]:
    """The default centres and radii as numerators over one denominator E = 2D 2^J.

    Centres: piece endpoints and midpoints, evenly thinned to 128.  Radii:
    J of them, from diam/4 halving down to the smallest piece length, at least
    6 and at most 40, so span 2^(J-1-i) / E for i < J (span
    the support's numerator length; 1/4, 1/8, ... for a single point); the
    list is increasing.  Radii below the finest piece scale are excluded:
    there the stage set is interval-like and every mass reading saturates at
    slope 1; without intervals the floor is diam / 2^10.
    """
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
    if len(pts) > 128:
        step = (len(pts) - 1) / 127
        pts = [pts[round(i * step)] for i in range(128)]
    span = rights[-1] - lefts[0]
    floor = min((r - l for l, r in zip(lefts, rights) if r > l), default=0)
    # the radii span / (D 2^(2+i)) at or above the floor: i <= log2(span / floor) - 2
    above = min((span // floor).bit_length() - 2, 40) if floor else 9 if span else 0
    J = max(above, 6)
    return 2 * D << J, [p << J for p in pts], [(span or D) << i for i in range(J)]


def default_frostman_centers(mu: PiecewiseUniformMeasure) -> list[Fraction]:
    """Piece endpoints and midpoints, evenly thinned to 128 (see `_frostman_grid`)."""
    E, cn, _ = _frostman_grid(mu)
    return [Fraction(c, E) for c in cn]


def default_frostman_radii(mu: PiecewiseUniformMeasure) -> list[Fraction]:
    """Geometric radii from diam/4 down to the smallest piece diameter (see `_frostman_grid`)."""
    E, _, rn = _frostman_grid(mu)
    return [Fraction(r, E) for r in reversed(rn)]


def _band_grid(count: int, seed: int) -> "np.ndarray":
    """Logarithmic lattice on [1, 2) with seeded low-discrepancy jitter; a
    dyadic band [lo, 2 lo) samples lo times it.

    The jitter keeps the lattice incommensurate with self-similar frequency
    ladders that a bare geometric grid could alias against.
    """
    import numpy as np

    u0 = (seed * _GOLDEN) % 1.0
    i = np.arange(count)
    jitter = (u0 + i * _GOLDEN) % 1.0
    return 2.0 ** ((i + jitter) / count)


def _band_edges(xi_max: float, bands: int, samples_per_band: int) -> list[tuple[float, float]]:
    """The top `bands` dyadic bands below xi_max; FitError for arguments no Fourier fit takes."""
    try:
        bands, samples_per_band = index(bands), index(samples_per_band)
    except TypeError:
        raise FitError("bands and samples_per_band must be integers") from None
    if bands < 4:
        raise FitError("need at least four bands")
    if samples_per_band < 64:
        raise FitError("need at least 64 samples per dyadic band")
    if samples_per_band > SAMPLES_BOUND:
        raise FitError(f"at most {SAMPLES_BOUND} samples per dyadic band")
    if not 0 < xi_max < math.inf:  # also NaN
        raise FitError("xi_max must be a finite positive number")
    j_hi = math.floor(math.log2(xi_max))
    if j_hi - bands < 1:
        raise FitError("xi_max too small for the requested band count")
    if j_hi > 512:  # the top band's lo * hi = 2^(2 j_hi - 1) overflows the abscissa's float
        raise FitError("xi_max too large: it must stay below 2^513")
    return [(2.0**j, 2.0 ** (j + 1)) for j in range(j_hi - bands, j_hi)]


def fourier_decay_fit(
    mu: Measure,
    xi_max: float = 2.0**16,
    bands: int = 10,
    samples_per_band: int = 128,
    seed: int = 0,
) -> DecayFit:
    """Power-law fit of per-band suprema of |mu^|.

    Bands are the top `bands` dyadic intervals below xi_max; within each,
    the supremum is taken over jittered log-lattice samples plus the
    measure's resonant candidates.  One `fourier_screen` call brackets each
    modulus; one `fourier_modulus_many` call on the frequencies
    whose upper end reaches their band's best lower end, the arg-max among
    them, gives each supremum as the exact kernel's float.  Every measure
    takes this path: where the screen is exact (slack 0: product measures,
    one piece) it keeps only each band's arg-max, whose float the kernel
    gives again.  The fitted exponent is the raw decay rate (-2 * slope);
    clamp it with `clamp_dimension`.  No band may end above `mu.float_ceiling`.
    """
    edges = _band_edges(xi_max, bands, samples_per_band)
    if edges[-1][1] > mu.float_ceiling:
        raise FitError(f"xi_max too large: top band end {edges[-1][1]:.10g} above float ceiling {mu.float_ceiling:.10g}")
    import numpy as np

    grid = _band_grid(samples_per_band, seed)
    resonant = [mu.resonant_frequencies(lo, hi) for lo, hi in edges]
    xis = np.concatenate([part for (lo, _), res in zip(edges, resonant) for part in (lo * grid, res)])
    starts = np.cumsum([0] + [samples_per_band + len(res) for res in resonant[:-1]])
    approx, slack = mu.fourier_screen(xis)
    best = np.maximum.reduceat(approx - slack, starts)  # each band's best lower end
    # keep a frequency where its upper end reaches its band's best lower end
    keep = approx + slack >= np.repeat(best, np.diff(starts, append=len(xis)))
    kept = np.cumsum(keep)[starts] - keep[starts]  # each band's first kept frequency; every band keeps its arg-max
    sups = np.maximum.reduceat(mu.fourier_modulus_many(xis[keep]), kept)
    xs = [math.log(math.sqrt(lo * hi)) for lo, hi in edges]
    ys = [math.log(max(sup, 1e-300)) for sup in sups.tolist()]
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

    The stage set and its natural measure are built once per call.  The scheme keeps every stage it
    has built and, per `decay_key` (unless None) and fit arguments (xi_max read as its top band's end
    2^floor(log2 xi_max), all the fit reads of it), the decay measure and its Fourier fit (one memo each).
    """
    stage_set = scheme.stage(stage)
    reports = scheme.reports(fit_lo, stage)
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
    fro = _frostman_fit(mu_nat, *_frostman_grid(mu_nat))
    top = _band_edges(xi_max, bands, samples_per_band)[-1][1]  # a bad argument raises before any lookup
    args = (scheme.decay_key(stage), top, bands, samples_per_band, seed)
    fits = {} if args[0] is None else vars(scheme).setdefault("_decay_fit_memo", {})
    if args not in fits:
        mu_dec = scheme.decay_measure(stage, mu_nat)
        fits[args] = mu_dec, fourier_decay_fit(mu_dec, xi_max, bands, samples_per_band, seed)
    mu_dec, fou = fits[args]
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
