"""Tests of the benchmark itself: seeded inputs, the traced replay, the gate."""

import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import bench_trace as bt  # noqa: E402
import bench_workloads as bw  # noqa: E402


def _inputs(workload, seed):
    """Everything a workload's ops receive, for one seed."""
    if workload == "cli-matrix":
        return [(op.sig, op.argv, op.outputs) for op in bw.cli_matrix_ops(seed)]
    setup, ops = bw.in_process_ops(workload, seed)
    extra = (bw._ball_queries(seed),) if workload == "geometry-queries" else ()
    return [op.sig for op in ops], extra


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(workload):
    assert _inputs(workload, 5) == _inputs(workload, 5)
    assert _inputs(workload, 5) != _inputs(workload, 6)


def test_seeded_sets_repeat():
    from salemlab.constructions import cantor_stage

    base = cantor_stage(3, 9)
    assert bw._seeded_subset(base, 3) == bw._seeded_subset(base, 3)
    assert bw._seeded_subset(base, 3) != bw._seeded_subset(base, 4)


REPLAY_CASES = [
    ("cantor:3", 6), ("interval", 5), ("jarnik:1.0", 4), ("salpha:1.0", 4),
    ("fp:0.5:x=11(0)", 4), ("pi03:0.8:rows=1;(01);0", 4),
    ("salemgap:0.63:rows=1;0", 4), ("weihrauch:xs=1;0;(10)", 3),
]


@pytest.mark.parametrize("spec,stage", REPLAY_CASES)
def test_traced_replay_equals_salem_report(spec, stage):
    from salemlab import cli, dimension

    expected = dimension.salem_report(cli.parse_scheme(spec), stage, seed=11)
    scheme = cli.parse_scheme(spec)
    tracer = bt.Tracer()
    inst = bt.instrument(tracer)
    try:
        got = bt.replay_report(scheme, stage, seed=11)
    finally:
        inst.restore()
    assert repr(got) == repr(expected)
    top = [s[0] for s in tracer.spans if s[3] is None and not s[0].startswith("trace.")]
    assert top[:3] == ["constructions.ladder", "dimension.box_count_fit", "constructions.ladder"]
    assert top[-7:] == [
        "constructions.stage", "measures.natural_measure",
        "dimension.default_frostman_centers", "dimension.default_frostman_radii",
        "dimension.frostman_fit", "constructions.decay_measure", "dimension.fourier_decay_fit",
    ]


def test_restore_puts_the_originals_back():
    from salemlab import constructions, dimension, geometry

    before = (dimension.salem_report, geometry.hausdorff_metric,
              constructions.CantorScheme.__dict__["stage"], geometry.IntervalUnion.from_json)
    bt.instrument(bt.Tracer()).restore()
    after = (dimension.salem_report, geometry.hausdorff_metric,
             constructions.CantorScheme.__dict__["stage"], geometry.IntervalUnion.from_json)
    assert before == after


def test_self_time_excludes_children():
    spans = [
        ["constructions.ladder", 0.0, 1.0, None, 0, False],
        ["constructions.stage", 0.2, 0.5, 0, 0, False],
        ["constructions.stage", 0.25, 0.4, 1, 0, True],
    ]
    m = bt.layer_metrics(spans, {})
    assert m["constructions.ladder_s"] == pytest.approx(1.0)
    assert m["constructions.stage_s"] == pytest.approx(0.3)  # outermost stage call only
    assert m["constructions.self_s"] == pytest.approx(1.0)
    assert m["constructions.errors"] == 1
    assert set(bt.PER_LAYER) <= set(m) | {"trace.overhead_s"}


def _cli_op(sig_prefix):
    return next(op for op in bw.cli_matrix_ops(0) if op.sig.startswith(sig_prefix))


def test_flipped_output_byte_is_a_failed_op(tmp_path):
    op = _cli_op("cli build interval")
    digests = bw.load_digests()
    assert op.sig in digests, "shipped digests must cover this seed-free op"
    child, res = bw.run_cli_op(op, tmp_path)
    assert child.code == 0
    assert bw.check(op, res, digests)[1] is None
    name = op.outputs[0]
    data = bytearray(res.files[name])
    data[len(data) // 2] ^= 0x01
    res.files[name] = bytes(data)
    assert bw.check(op, res, digests)[1] == "digest mismatch"


def test_unrecorded_output_is_checked_by_invariants(tmp_path):
    op = _cli_op("cli sweep interval")
    op.sig += " (unrecorded)"
    child, res = bw.run_cli_op(op, tmp_path)
    assert bw.check(op, res, {})[1] is None
    name = op.outputs[0]
    lines = res.files[name].split(b"\n")
    row = lines[1].split(b",")
    row[3] = b"1.5"
    lines[1] = b",".join(row)
    res.files[name] = b"\n".join(lines)
    assert bw.check(op, res, {})[1] == "|mu^| > 1 in sweep"


def test_child_is_stopped_at_its_deadline(tmp_path):
    t0 = time.perf_counter()
    child = bw.run_child([sys.executable, "-c", "import time; time.sleep(30)"], tmp_path, 0.5)
    assert child.code is None
    assert time.perf_counter() - t0 < 10


def test_benchmark_json_names_what_run_prints():
    import json

    import run

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {m: bt.unit_of(m) for m in bt.PER_LAYER}
    assert [w["name"] for w in spec["workloads"]] == list(bw.WORKLOADS)


def test_end_to_end_uses_per_op_medians_and_leaves_deadlines_unscaled():
    import run

    def op(lat, scale=0.5, status="ok"):
        return {"latency_s": lat, "scale": scale, "status": status}

    ops_a = [op(1.0), op(6.0, 1.0, "known_defect")] + [op(0.1 * i) for i in range(1, 13)]
    ops_b = [op(3.0), op(6.0, 1.0, "known_defect")] + [op(0.1 * i) for i in range(1, 13)]
    ops_c = [op(2.0), op(6.0, 1.0, "known_defect")] + [op(0.1 * i) for i in range(1, 13)]
    passes = [{"ops": o, "maxrss_kb": 1024} for o in (ops_a, ops_b, ops_c)]
    m, _ = run.end_to_end(passes, [[0.2, 0.5], [0.4, 0.5], [0.6, 0.5]])
    per_op = [1.0] + [0.05 * i for i in range(1, 13)]  # scaled medians of the completed ops
    assert m["wall_s"] == pytest.approx(sum(per_op) + 6.0)
    assert m["op_p50_s"] == pytest.approx(sorted(per_op)[6])
    assert m["op_tail_s"] == pytest.approx(sorted(per_op)[13 - 11])
    assert m["setup_s"] == pytest.approx(0.2)
    assert m["success_rate"] == pytest.approx(39 / 42)
