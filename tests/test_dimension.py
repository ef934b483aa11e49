import math
from collections import Counter
from fractions import Fraction as F

import pytest

from salemlab import cli, dimension, measures
from salemlab.bitseq import BitSequence
from salemlab.constructions import (
    CantorScheme,
    FpScheme,
    IntervalScheme,
    JarnikScheme,
    Scheme,
    StageReport,
    cantor_stage,
)
from salemlab.dimension import (
    DecayFit,
    FitError,
    box_count_fit,
    clamp_dimension,
    countable_union_sup,
    covering_sum,
    default_frostman_centers,
    default_frostman_radii,
    fourier_decay_fit,
    frostman_fit,
    salem_report,
)
from salemlab.geometry import IntervalUnion
from salemlab.measures import (
    SelfSimilarProductMeasure,
    affine_pushforward,
    natural_measure,
)

LOG23 = math.log(2) / math.log(3)

MIDDLE_THIRD = SelfSimilarProductMeasure(
    branching=2, offsets=((F(0), F(2, 3)),), contractions=(F(1, 3),)
)


class TestCoveringSum:
    def test_unit_interval(self):
        assert covering_sum(IntervalUnion.full(), 1.0) == 1.0

    def test_cantor_critical_exponent_is_unity(self):
        for k in range(1, 13):
            val = covering_sum(cantor_stage(3, k), LOG23)
            assert abs(val - 1.0) < 1e-12

    def test_cantor_stage_two_at_exponent_one(self):
        assert covering_sum(cantor_stage(3, 2), 1.0) == pytest.approx(4 / 9, abs=1e-15)

    def test_accepts_raw_pairs(self):
        assert covering_sum([(F(0), F(1, 2)), (F(1, 2), F(1))], 1.0) == pytest.approx(1.0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(FitError):
            covering_sum(IntervalUnion.full(), -0.5)


class TestBoxCountFit:
    def test_middle_third(self):
        fit = box_count_fit(CantorScheme(3).reports(1, 12))
        assert abs(fit.exponent - LOG23) < 1e-9
        assert fit.r_squared > 0.999999

    def test_quarter_cantor(self):
        fit = box_count_fit(CantorScheme(4).reports(1, 12))
        assert abs(fit.exponent - 0.5) < 1e-9

    def test_single_stage_underdetermined(self):
        with pytest.raises(FitError):
            box_count_fit(CantorScheme(3).reports(2, 2))

    def test_degenerate_scales_rejected(self):
        reps = [StageReport(1, 10, F(0), F(0)), StageReport(2, 20, F(0), F(0))]
        with pytest.raises(FitError):
            box_count_fit(reps)

    def test_abscissa_is_the_largest_piece_diameter(self):
        # N = 1/max_diam gives slope 1; the smallest diameters would give 1/2
        reps = [StageReport(1, 4, F(1, 16), F(1, 4)), StageReport(2, 16, F(1, 256), F(1, 16))]
        fit = box_count_fit(reps)
        assert fit.exponent == pytest.approx(1.0)
        assert fit.scale_range == pytest.approx((math.log(4), math.log(16)))


class TestFrostmanFit:
    def test_uniform_reads_one(self):
        mu = natural_measure(IntervalUnion.full())
        radii = [F(1, 2**j) for j in range(2, 9)]
        fit = frostman_fit(mu, [F(1, 2)], radii)
        assert abs(fit.exponent - 1.0) < 1e-9

    def test_dirac_reads_zero(self):
        mu = natural_measure(IntervalUnion([(F(1, 2), F(1, 2))]))
        radii = [F(1, 2**j) for j in range(2, 9)]
        fit = frostman_fit(mu, [F(1, 2), F(1, 4)], radii)
        assert fit.exponent == 0.0
        assert fit.r_squared == 1.0

    def test_middle_third_stage_eight(self):
        mu = natural_measure(cantor_stage(3, 8))
        radii = [F(1, 3**j) for j in range(1, 9)]
        fit = frostman_fit(mu, default_frostman_centers(mu), radii)
        assert abs(fit.exponent - LOG23) < 0.05

    def test_radii_gate(self):
        mu = natural_measure(IntervalUnion.full())
        with pytest.raises(FitError):
            frostman_fit(mu, [F(1, 2)], [F(1, 2), F(1, 4)])

    def test_default_radii_respect_min_piece(self):
        mu = natural_measure(cantor_stage(3, 5))
        radii = default_frostman_radii(mu)
        assert len(radii) >= 4
        assert min(radii) >= F(1, 3**5) / 2


class TestFourierDecayFit:
    def test_uniform_raw_two(self):
        mu = natural_measure(IntervalUnion.full())
        fit = fourier_decay_fit(mu, seed=7)
        assert abs(fit.exponent - 2.0) < 0.1
        assert clamp_dimension(fit.exponent) == 1.0

    def test_middle_third_raw_negligible(self):
        fit = fourier_decay_fit(MIDDLE_THIRD, seed=7)
        assert fit.exponent <= 0.05

    def test_dirac_raw_exactly_zero(self):
        mu = natural_measure(IntervalUnion([(F(1, 3), F(1, 3))]))
        fit = fourier_decay_fit(mu, seed=7)
        assert fit.exponent == 0.0
        assert fit.r_squared == 1.0

    def test_band_gate(self):
        mu = natural_measure(IntervalUnion.full())
        with pytest.raises(FitError):
            fourier_decay_fit(mu, bands=3)
        with pytest.raises(FitError):
            fourier_decay_fit(mu, xi_max=16.0, bands=10)
        with pytest.raises(FitError):
            fourier_decay_fit(mu, samples_per_band=32)
        for bad in ({"samples_per_band": 128.0}, {"bands": 10.0}):  # refused before numpy or range reads it
            with pytest.raises(FitError):
                fourier_decay_fit(mu, **bad)

    def test_deterministic_given_seed(self):
        mu = natural_measure(cantor_stage(3, 4))
        a = fourier_decay_fit(mu, seed=13)
        b = fourier_decay_fit(mu, seed=13)
        assert a == b

    def test_affine_invariance_of_exponent(self):
        base_u = fourier_decay_fit(natural_measure(IntervalUnion.full()), seed=7)
        base_c = fourier_decay_fit(MIDDLE_THIRD, seed=7)
        for a in (F(1, 3), F(2)):
            for t in (F(0), F(1, 2)):
                mu = affine_pushforward(natural_measure(IntervalUnion.full()), a, t)
                nu = affine_pushforward(MIDDLE_THIRD, a, t)
                du = fourier_decay_fit(mu, seed=7).exponent - base_u.exponent
                dc = fourier_decay_fit(nu, seed=7).exponent - base_c.exponent
                assert abs(du) <= 0.05
                assert abs(dc) <= 0.05


class TestSalemReport:
    def test_cantor_defect(self):
        rep = salem_report(CantorScheme(3), 10, seed=7)
        assert rep.hdim_est == pytest.approx(LOG23, abs=1e-6)
        assert rep.fourier_dim <= 0.05
        assert rep.salem_defect >= 0.55
        assert rep.declared_hdim == pytest.approx(LOG23)

    def test_interval_no_defect(self):
        rep = salem_report(IntervalScheme(), 10, seed=7)
        assert rep.hdim_est == pytest.approx(1.0, abs=1e-9)
        assert rep.fourier_dim == pytest.approx(1.0, abs=0.05)
        assert abs(rep.salem_defect) <= 0.05

    def test_fourier_below_hausdorff_invariant(self):
        for scheme, stage in ((CantorScheme(3), 10), (IntervalScheme(), 10)):
            rep = salem_report(scheme, stage, seed=7)
            assert rep.fourier_dim <= rep.hdim_est + 0.1

    def test_fp_scheme_report(self):
        rep = salem_report(FpScheme(0.5, BitSequence.zero()), 6, seed=7, fit_lo=1)
        assert abs(rep.hdim_est - 0.5) < 0.05


class TestCountableUnionSup:
    def test_sup_of_block_dims(self):
        p = 0.8
        dims = [p * (1 - 2.0**-m) for m in range(1, 12)]
        assert countable_union_sup(dims, True) == pytest.approx(max(dims))
        assert max(dims) < p

    def test_single_block(self):
        assert countable_union_sup([0.4], True) == 0.4

    def test_overlap_refusal(self):
        with pytest.raises(FitError):
            countable_union_sup([0.4, 0.5], False)

    def test_accepts_reports(self):
        rep = salem_report(CantorScheme(3), 8, seed=7)
        assert countable_union_sup([rep], True) == rep.hdim_est


def reference_band_samples(lo: float, hi: float, count: int, seed: int):
    """The jittered log-lattice on [lo, hi), computed per band."""
    import numpy as np

    u0 = (seed * dimension._GOLDEN) % 1.0
    i = np.arange(count)
    jitter = (u0 + i * dimension._GOLDEN) % 1.0
    frac = (i + jitter) / count
    return lo * (hi / lo) ** frac


def reference_band_fit(mu, seed: int, xi_max: float = 2.0**16, bands: int = 10, samples: int = 128) -> DecayFit:
    """fourier_decay_fit as one sweep per band: the vector kernel for piecewise
    measures, the scalar transform for product measures."""
    import numpy as np

    j_hi = math.floor(math.log2(xi_max))
    xs, ys = [], []
    for j in range(j_hi - bands, j_hi):
        lo, hi = 2.0**j, 2.0 ** (j + 1)
        xis = reference_band_samples(lo, hi, samples, seed)
        resonant = mu.resonant_frequencies(lo, hi)
        if isinstance(mu, SelfSimilarProductMeasure):
            sup = max(mu.fourier_modulus(x) for x in [*xis, *resonant])
        else:
            sup = float(np.max(mu.fourier_modulus_many(np.concatenate([xis, np.array(resonant, dtype=float)]))))
        xs.append(math.log(math.sqrt(lo * hi)))
        ys.append(math.log(max(sup, 1e-300)))
    slope, intercept, r2 = dimension._least_squares(xs, ys)
    return DecayFit(-2.0 * slope, intercept, r2, (min(xs), max(xs)), len(xs))


FIT_MEASURES = {
    "natural cantor:3 stage 6": lambda: natural_measure(cantor_stage(3, 6)),
    "natural jarnik:1.0 stage 4": lambda: natural_measure(JarnikScheme(1.0).stage(4)),
    "cantor:3 product": lambda: CantorScheme(3).decay_measure(6),
    "gcantor:0.5 product": lambda: cli.parse_scheme("gcantor:0.5").decay_measure(6),
    "single atom": lambda: measures.PiecewiseUniformMeasure([(F(1, 3), F(1, 3), 1.0)]),
    "interval [0, 1]": lambda: natural_measure(IntervalUnion.full()),  # the one-piece measure `interval` fits
    # 400 distinct lengths k / N on [k^2, k^2 + k] / N: 400 pairs, so 400 chunks in the screen
    "natural 400 lengths": lambda: natural_measure(IntervalUnion([(F(k * k, 160801), F(k * k + k, 160801))
                                                                  for k in range(1, 401)])),
}


class TestFusedSweep:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", FIT_MEASURES)
    def test_one_sweep_equals_the_per_band_loop(self, name, seed):
        mu = FIT_MEASURES[name]()
        assert fourier_decay_fit(mu, seed=seed) == reference_band_fit(mu, seed)


class TestTowerReports:
    def test_pi03_sup_prediction(self):
        from salemlab.bitseq import BitMatrix
        from salemlab.constructions import Pi03Scheme

        sch = Pi03Scheme(0.8, BitMatrix.zero())
        rep = salem_report(sch, 7, seed=7)
        assert abs(rep.hdim_est - 0.8) < 0.05
        # accumulation tail is excluded from the ladder statistics
        assert all(r.max_diam < F(1, 2) for r in sch.reports(2, 5))

    def test_salemgap_head_pins_dimension(self):
        from salemlab.bitseq import BitMatrix
        from salemlab.constructions import SalemGapScheme

        rep = salem_report(SalemGapScheme(0.8, BitMatrix.zero()), 7, seed=7)
        assert abs(rep.hdim_est - 0.8) < 0.02

    def test_block_fit_sup_matches_block_dims(self):
        from salemlab.bitseq import BitMatrix
        from salemlab.constructions import Pi03Scheme

        sch = Pi03Scheme(0.8, BitMatrix.zero())
        fits = [box_count_fit(lad).exponent for lad in sch.block_ladders(6)]
        for m, got in enumerate(fits, start=1):
            assert abs(got - sch.q_m(m)) < 0.01
        assert countable_union_sup(fits, True) == pytest.approx(max(fits))


# one spec of every kind in the README table, at a small top stage
SPEC_TOPS = {
    "cantor:3": 4,
    "gcantor:0.5": 4,
    "interval": 4,
    "jarnik:1.0": 3,
    "salpha:1.0": 3,
    "fp:0.5:x=11(0)": 3,
    "pi03:0.8:rows=1;(01);0": 3,
    "salemgap:0.63:rows=1;0": 3,
    "weihrauch:xs=1;0;(10)": 3,
}


def _scheme_classes(cls=Scheme):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_scheme_classes(sub))
    return out


def count_top_builds(monkeypatch, top: int) -> tuple[Counter, list]:
    """Count the builds of stage(top) (calls that miss the stage memo) and the
    decay_measure(top) calls on the schemes cli.parse_scheme returns, and every
    natural_measure call."""
    counts: Counter = Counter()
    made: list = []
    parse = cli.parse_scheme

    def parse_and_keep(spec):
        made.append(parse(spec))
        return made[-1]

    def counting(name, fn):
        def wrapped(self, k, *args, **kwargs):
            built = name == "stage" and k in vars(self).get("_stage_memo", {})
            if k == top and any(self is s for s in made) and not built:
                counts[name] += 1
            return fn(self, k, *args, **kwargs)

        return wrapped

    def counting_measure(fn):
        def wrapped(*args, **kwargs):
            counts["natural_measure"] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(cli, "parse_scheme", parse_and_keep)
    for cls in _scheme_classes():
        for name in ("stage", "decay_measure"):
            if name in cls.__dict__:
                monkeypatch.setattr(cls, name, counting(name, cls.__dict__[name]))
    for module in (measures, dimension):
        monkeypatch.setattr(module, "natural_measure", counting_measure(module.natural_measure))
    return counts, made


@pytest.mark.parametrize("spec", sorted(SPEC_TOPS))
def test_salem_report_builds_top_stage_and_measures_once(spec, monkeypatch):
    top = SPEC_TOPS[spec]
    counts, _ = count_top_builds(monkeypatch, top)
    salem_report(cli.parse_scheme(spec), top, samples_per_band=64, seed=1)
    assert counts["stage"] == 1
    assert counts["natural_measure"] == 1
    assert counts["decay_measure"] <= 1


@pytest.mark.parametrize("spec", sorted(SPEC_TOPS))
def test_cli_report_builds_top_stage_and_measures_once(spec, monkeypatch, tmp_path, capsys):
    top = SPEC_TOPS[spec]
    counts, made = count_top_builds(monkeypatch, top)
    argv = ["report", spec, "--stage", str(top), "--samples", "64", "--seed", "1", "--out", str(tmp_path / "r")]
    assert cli.main(argv) == 0
    assert len(made) == 1
    assert counts["stage"] == 1
    assert counts["natural_measure"] == 1
    assert counts["decay_measure"] <= 1


@pytest.mark.parametrize("spec", sorted(SPEC_TOPS))
def test_cli_build_builds_top_stage_once(spec, monkeypatch, tmp_path, capsys):
    top = SPEC_TOPS[spec]
    counts, made = count_top_builds(monkeypatch, top)
    assert cli.main(["build", spec, "--stage", str(top), "--out", str(tmp_path / "b")]) == 0
    assert len(made) == 1
    assert counts["stage"] == 1
    assert counts["natural_measure"] == 0


def count_fits(monkeypatch) -> Counter:
    """Count the `fourier_decay_fit` runs of a report by their (xi_max, bands, samples_per_band, seed)."""
    counts: Counter = Counter()
    fit = dimension.fourier_decay_fit

    def counting(mu, *args):
        counts[args] += 1
        return fit(mu, *args)

    monkeypatch.setattr(dimension, "fourier_decay_fit", counting)
    return counts


def held(scheme) -> list:
    """Every value a scheme holds in its attributes, through dicts, lists and tuples."""
    out, todo = [], list(vars(scheme).values())
    while todo:
        out.append(todo.pop())
        if isinstance(out[-1], dict):
            todo.extend(out[-1].values())
        elif isinstance(out[-1], (list, tuple)):
            todo.extend(out[-1])
    return out


def test_a_cantor_ladder_fits_once_per_parameter_tuple(monkeypatch):
    """Every stage of a Cantor scheme reads the one limit measure, so its ladder fits once per tuple."""
    counts = count_fits(monkeypatch)
    scheme = cli.parse_scheme("cantor:3")
    for k in range(2, 9):
        for seed in (1, 2):
            salem_report(scheme, k, samples_per_band=64, seed=seed)
    assert counts == {(2.0**16, 10, 64, 1): 1, (2.0**16, 10, 64, 2): 1}


def test_a_natural_measure_ladder_fits_every_stage_and_keeps_no_measure(monkeypatch):
    counts = count_fits(monkeypatch)
    scheme = cli.parse_scheme("jarnik:1.0")
    for k in range(2, 6):
        salem_report(scheme, k, samples_per_band=64, seed=1)
    assert counts == {(2.0**16, 10, 64, 1): 4}
    assert not any(isinstance(x, measures.PiecewiseUniformMeasure) for x in held(scheme))


def test_the_decay_fit_memo_reads_xi_max_as_its_top_band(monkeypatch):
    """xi_max = 2^16 and 70000 give the same top band 2^16, so one fit serves both reports."""
    counts = count_fits(monkeypatch)
    scheme = cli.parse_scheme("cantor:3")
    first = salem_report(scheme, 4, xi_max=2**16, samples_per_band=64, seed=1)
    second = salem_report(scheme, 4, xi_max=70000, samples_per_band=64, seed=1)
    assert counts == {(2**16, 10, 64, 1): 1}
    assert first == second == salem_report(cli.parse_scheme("cantor:3"), 4, xi_max=70000, samples_per_band=64, seed=1)


# a float count equal to the warm fit's is refused too, though it would hash to the same memo key
@pytest.mark.parametrize("bad", [{"bands": 3}, {"samples_per_band": 32}, {"samples_per_band": 64.0}, {"bands": 10.0}])
def test_a_warm_scheme_still_refuses_bad_fit_arguments(bad, monkeypatch):
    scheme = cli.parse_scheme("cantor:3")
    salem_report(scheme, 4, samples_per_band=64, seed=1)
    counts = count_fits(monkeypatch)
    with pytest.raises(FitError):
        salem_report(scheme, 4, **{"samples_per_band": 64, "seed": 1, **bad})
    assert not counts  # refused before the lookup, so no fit ran either
