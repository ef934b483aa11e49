"""Spans and counters for the traced benchmark run.

Spans are recorded only here, around calls into the public functions and
methods of each ``salemlab`` module: ``instrument`` swaps those attributes
for timing wrappers in the traced process and ``Instrumentation.restore``
puts the originals back.  Nothing under ``src/`` knows about tracing.

Layers are the ``src/salemlab`` modules.  ``bitseq`` and ``primes`` are
folded into ``constructions``: they are reached only through it and
through the CLI's spec parsing.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter

LAYERS = ("cli", "constructions", "geometry", "measures", "dimension", "numberfield")

# per-layer metric -> span name whose outermost calls it sums
SPAN_TIMES = {
    "constructions.stage_s": "constructions.stage",
    "constructions.ladder_s": "constructions.ladder",
    "constructions.decay_measure_s": "constructions.decay_measure",
    "geometry.metric_s": "geometry.hausdorff_metric",
    "geometry.radial_s": "constructions.radial_reports",
    "geometry.partition_s": "geometry.simplex_partition_1d",
    "geometry.json_s": "geometry.json",
    "cli.parse_s": "cli.parse_scheme",
    "measures.build_s": "measures.natural_measure",
    "measures.transform_s": "measures.transform",
    "measures.ball_mass_s": "measures.ball_mass",
    "dimension.box_fit_s": "dimension.box_count_fit",
    "dimension.frostman_s": "dimension.frostman_fit",
    "dimension.fourier_fit_s": "dimension.fourier_decay_fit",
    "numberfield.blocks_s": "numberfield.gaussian_block_reports",
}

COUNTS = (
    "constructions.pieces",
    "constructions.denominator_bits_max",
    "geometry.metric_pieces",
    "geometry.radial_cells",
    "geometry.radial_boxes",
    "measures.transform_evals",
    "measures.ball_mass_calls",
    "dimension.frostman_ball_masses",
    "dimension.fourier_evals",
    "numberfield.boxes",
    "cli.output_bytes",
)

# every metric a traced run reports, in output order
PER_LAYER = (
    list(SPAN_TIMES)
    + ["cli.write_s"]
    + [c for c in COUNTS if c != "geometry.radial_boxes"]
    + ["geometry.radial_hit_ratio"]
    + [f"{layer}.self_s" for layer in LAYERS]
    + [f"{layer}.errors" for layer in LAYERS]
    + ["trace.spans", "trace.overhead_s"]
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bits_max"):
        return "bits"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


class Tracer:
    """Spans kept in memory as [name, start, end, parent, op, error]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.op, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list, error: bool = False) -> None:
        rec[2] = time.perf_counter()
        rec[5] = error
        self._stack.pop()

    def close_all(self) -> None:
        """Close spans still open when the process is stopped (a missed deadline)."""
        now = time.perf_counter()
        for idx in reversed(self._stack):
            self.spans[idx][2] = now
            self.spans[idx][5] = True
        self._stack.clear()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def bump(self, key: str, n: int) -> None:
        self.counts[key] += n

    def bump_max(self, key: str, n: int) -> None:
        self.counts[key] = max(self.counts[key], n)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _wrap(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        outermost = not tracer.inside(name)
        rec = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(rec, error=True)
            raise
        tracer.close(rec)
        if count is not None and outermost:
            # counting is tracing work: its time lands in the "trace" layer
            crec = tracer.open("trace.count")
            count(tracer, args, result)
            tracer.close(crec)
        return result

    return traced


def _count_stage(t: Tracer, args, union) -> None:
    t.bump("constructions.pieces", len(union))
    bits = max((max(a.denominator, b.denominator).bit_length() for a, b in union.pieces), default=0)
    t.bump_max("constructions.denominator_bits_max", bits)


def _count_metric(t: Tracer, args, result) -> None:
    t.bump("geometry.metric_pieces", len(args[0]) + len(args[1]))


def _count_radial(t: Tracer, args, reports) -> None:
    for rep in reports:
        side = 2 * 2 ** rep.stage  # cells per axis at side 2^-j on [-1, 1]
        t.bump("geometry.radial_cells", side * side)
        t.bump("geometry.radial_boxes", rep.piece_count)


def _count_many(t: Tracer, args, result) -> None:
    mu, xis = args[0], args[1]
    t.bump("measures.transform_evals", len(xis) * len(mu.pieces))
    if t.inside("dimension.fourier_decay_fit"):
        t.bump("dimension.fourier_evals", len(xis))


def _count_product(t: Tracer, args, result) -> None:
    mu, xi = args[0], args[1]
    depth = args[2] if len(args) > 2 and args[2] is not None else mu.auto_depth(xi)
    t.bump("measures.transform_evals", depth * mu.branching)
    if t.inside("dimension.fourier_decay_fit"):
        t.bump("dimension.fourier_evals", 1)


def _count_ball(t: Tracer, args, result) -> None:
    t.bump("measures.ball_mass_calls", 1)


def _count_frostman(t: Tracer, args, result) -> None:
    centers, radii = args[1], args[2]
    t.bump("dimension.frostman_ball_masses", len(centers) * len(set(radii)))


def _count_blocks(t: Tracer, args, reports) -> None:
    t.bump("numberfield.boxes", sum(r.piece_count for r in reports))


class Instrumentation:
    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, wrapper) -> None:
        # a class keeps its own __dict__ entry (a classmethod stays one)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap the public calls of every layer with spans; returns the undo handle."""
    from salemlab import cli, constructions, dimension, geometry, measures, numberfield

    inst = Instrumentation()

    def fn(owner, attr, name, count=None):
        inst.patch(owner, attr, _wrap(tracer, name, getattr(owner, attr), count))

    def method(cls, attr, name, count=None):
        if attr in cls.__dict__:
            inst.patch(cls, attr, _wrap(tracer, name, cls.__dict__[attr], count))

    schemes = [constructions.Scheme, *_subclasses(constructions.Scheme)]
    for cls in schemes:
        method(cls, "stage", "constructions.stage", _count_stage)
        method(cls, "reports", "constructions.ladder")
        method(cls, "block_ladders", "constructions.ladder")
        method(cls, "decay_measure", "constructions.decay_measure")
    fn(constructions, "radial_reports", "constructions.radial_reports", _count_radial)
    fn(constructions, "phi_transform", "constructions.phi_transform")

    fn(geometry, "hausdorff_metric", "geometry.hausdorff_metric", _count_metric)
    fn(cli, "hausdorff_metric", "geometry.hausdorff_metric", _count_metric)
    fn(geometry, "simplex_partition_1d", "geometry.simplex_partition_1d")
    method(geometry.IntervalUnion, "to_json", "geometry.json")
    from_json = geometry.IntervalUnion.__dict__["from_json"].__func__
    inst.patch(geometry.IntervalUnion, "from_json", classmethod(_wrap(tracer, "geometry.json", from_json)))

    fn(measures, "natural_measure", "measures.natural_measure")
    fn(measures, "ball_mass", "measures.ball_mass", _count_ball)
    pum, sspm = measures.PiecewiseUniformMeasure, measures.SelfSimilarProductMeasure
    method(pum, "fourier_eval_many", "measures.transform", _count_many)
    method(pum, "fourier_modulus_many", "measures.transform", _count_many)
    method(sspm, "fourier_eval", "measures.transform", _count_product)
    method(sspm, "fourier_modulus", "measures.transform", _count_product)

    fn(dimension, "box_count_fit", "dimension.box_count_fit")
    fn(dimension, "frostman_fit", "dimension.frostman_fit", _count_frostman)
    fn(dimension, "fourier_decay_fit", "dimension.fourier_decay_fit")
    fn(dimension, "default_frostman_centers", "dimension.default_frostman_centers")
    fn(dimension, "default_frostman_radii", "dimension.default_frostman_radii")
    fn(numberfield, "gaussian_block_reports", "numberfield.gaussian_block_reports", _count_blocks)

    fn(cli, "parse_scheme", "cli.parse_scheme")
    for cmd in ("cmd_build", "cmd_metric", "cmd_reduce", "cmd_report", "cmd_sweep"):
        fn(cli, cmd, "cli.command")
    # the CLI's report goes through the replay, so its phases get spans too
    inst.patch(dimension, "salem_report", replay_report)
    return inst


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def replay_report(scheme, stage, xi_max=2.0**16, bands=10, samples_per_band=128, seed=0, fit_lo=1):
    """``salem_report`` replayed through the public calls, in its order.

    Every call goes through a module attribute, so an instrumented process
    records one span per phase.  The result must equal ``salem_report``'s.
    """
    from salemlab import dimension as dim
    from salemlab import measures

    reports = scheme.reports(fit_lo, stage)
    box = dim.box_count_fit(reports)
    ladders = scheme.block_ladders(stage)
    if ladders:
        block_fits = [dim.box_count_fit(lad).exponent for lad in ladders if len(lad) >= 2]
        hdim = dim.countable_union_sup(block_fits, True)
    else:
        hdim = box.exponent
    mu_nat = measures.natural_measure(scheme.stage(stage))
    fro = dim.frostman_fit(
        mu_nat, dim.default_frostman_centers(mu_nat), dim.default_frostman_radii(mu_nat)
    )
    fou = dim.fourier_decay_fit(scheme.decay_measure(stage), xi_max, bands, samples_per_band, seed)
    fdim = dim.clamp_dimension(fou.exponent, 1)
    last = reports[-1]
    return dim.DimensionReport(
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
    )


def layer_metrics(spans: list[list], counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all spans of that pass)."""
    out: dict[str, float] = {m: 0.0 for m in SPAN_TIMES}
    out["cli.write_s"] = 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.errors"] = 0
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op, _err in spans:
        if parent is not None:
            child_time[parent] += end - start
    by_name = {v: k for k, v in SPAN_TIMES.items()}
    for i, (name, start, end, parent, _op, err) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        metric = by_name.get(name)
        if metric is not None and not _has_ancestor(spans, parent, name):
            out[metric] += dur
        if layer in LAYERS:
            out[f"{layer}.self_s"] += dur - child_time[i]
            out[f"{layer}.errors"] += int(err)
        if name == "cli.command":
            out["cli.write_s"] += dur - child_time[i]
    for c in COUNTS:
        out[c] = counts.get(c, 0)
    boxes, cells = out.pop("geometry.radial_boxes"), out["geometry.radial_cells"]
    out["geometry.radial_hit_ratio"] = boxes / cells if cells else 0.0
    out["trace.spans"] = len(spans)
    return out


def _has_ancestor(spans, parent, name) -> bool:
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
