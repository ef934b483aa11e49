"""salemlab benchmark: run one workload at one seed and print its metrics.

Usage:
    python3 perfbench/run.py --workload cli-matrix --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  The run repeats the workload's op list in whole passes until
``--seconds`` have gone by (at least one pass).  Each pass of an
in-process workload runs in a fresh child process, so module-level caches
start cold in every pass and are warm within it.  Only one process is busy
at a time and ``SALEMLAB_THREADS=1`` is pinned.

With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` passes alternate untraced and traced, and it holds the
per-layer metrics of the traced passes plus the tracing overhead.  Details,
per-op failures and provenance are printed on the lines before, and the
whole result (and, when traced, every span) is written under
``.perfbench_work/results/``.

``--record`` runs one pass and stores the digests of its outputs as the
expected outputs for this seed in ``perfbench/digests.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_trace as bt  # noqa: E402
import bench_workloads as bw  # noqa: E402

SETUP_SAMPLES = 9
MAX_RUN_S = 140.0  # stop starting passes after this, whatever --seconds says
PASS_DEADLINE_S = 150.0
TAIL_BEYOND = 10  # op_tail_s: the highest percentile with this many samples beyond it


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


def _outcome(op: bw.Op, latency: float, scale: float, value, error: str | None, digests: dict) -> dict:
    out = {"sig": op.sig, "latency_s": latency, "scale": scale, "status": "ok", "reason": None,
           "digest": None}
    if error is not None:
        out.update(status="failed", reason=error)
    elif latency > bw.OP_DEADLINE_S:
        out.update(status="failed", reason="deadline")
    else:
        out["digest"], reason = bw.check(op, value, digests)
        if reason is not None:
            out.update(status="failed", reason=reason)
    return out


def in_process_pass(workload: str, seed: int, traced: bool, setup_only: bool, digests: dict) -> dict:
    """One pass in this (fresh) process: set up, then run every op once."""
    ref_before = bw.reference_loop()
    t0 = time.perf_counter()
    sys.path.insert(0, str(bw.SRC))
    import salemlab  # noqa: F401  (imports are part of set-up)

    tracer = bt.Tracer()
    inst = bt.instrument(tracer) if traced else None
    tracer.op = "setup"
    rec = tracer.open("bench.setup")
    setup, ops = bw.in_process_ops(workload, seed, bt.replay_report if traced else None)
    setup()
    tracer.close(rec)
    setup_s = time.perf_counter() - t0
    ref_prev = bw.reference_loop()
    setup = [setup_s, bw.scale(ref_before, ref_prev, bw.REFERENCE_NOMINAL_S)]
    if setup_only:
        return {"setup": setup}
    done = []
    for i, op in enumerate(ops):
        tracer.op = i
        rec = tracer.open("bench.op")
        t = time.perf_counter()
        try:
            value, error = op.run(), None
        except Exception as e:  # a failing op is counted, the pass goes on
            value, error = None, f"{type(e).__name__}: {e}"
        latency = time.perf_counter() - t
        tracer.close(rec, error=error is not None)
        ref_next = bw.reference_loop()
        done.append((op, latency, bw.scale(ref_prev, ref_next, bw.REFERENCE_NOMINAL_S), value, error))
        ref_prev = ref_next
    if inst is not None:
        inst.restore()  # checks below are not traced
    results = [_outcome(*d, digests) for d in done]
    out = {"setup": setup, "ops": results,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if traced:
        out.update(tracer.dump())
    return out


def child_pass(workload: str, seed: int, traced: bool, setup_only: bool, workdir: Path, record: bool) -> dict:
    out = workdir / "_pass.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--pass-out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    if record:
        cmd.append("--record")
    with (workdir / "_pass_stderr").open("wb") as err:
        child = bw.run_child(cmd, workdir, PASS_DEADLINE_S, stderr=err)
    if child.code != 0:
        tail = (workdir / "_pass_stderr").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"pass child ended with {child.code}:\n{tail}")
    return json.loads(out.read_text())


def cli_pass(seed: int, traced: bool, workdir: Path, digests: dict) -> dict:
    """One pass of cli-matrix: every CLI op as its own child, one at a time."""
    tracer = bt.Tracer()
    results, rss, out_bytes = [], [], 0
    ref_prev = bw.reference_child(workdir)
    for i, op in enumerate(bw.cli_matrix_ops(seed)):
        spans_out = workdir / "_spans.json" if traced else None
        if spans_out is not None:
            spans_out.unlink(missing_ok=True)
        tracer.op = i
        op_idx = len(tracer.spans)
        rec = tracer.open("bench.op")
        child, res = bw.run_cli_op(op, workdir, spans_out)
        tracer.close(rec, error=res is None or res.code != 0)
        ref_next = bw.reference_child(workdir)
        scale, ref_prev = bw.scale(ref_prev, ref_next, bw.REFERENCE_CHILD_NOMINAL_S), ref_next
        if spans_out is not None and spans_out.exists():
            _merge_child_spans(tracer, json.loads(spans_out.read_text()), op_idx, i)
        if res is None:
            status = ("known_defect", op.known_defect) if op.known_defect else ("failed", "deadline")
            # a deadline is wall-clock time, so it is not scaled
            results.append({"sig": op.sig, "latency_s": child.latency_s, "scale": 1.0,
                            "status": status[0], "reason": status[1], "digest": None})
            continue
        rss.append(child.maxrss_kb)
        out_bytes += len(res.stdout) + sum(len(v) for v in res.files.values())
        results.append(_outcome(op, child.latency_s, scale, res, None, digests))
    out = {"ops": results, "maxrss_kb": max(rss, default=0)}
    if traced:
        tracer.counts["cli.output_bytes"] = out_bytes
        out.update(tracer.dump())
    return out


def _merge_child_spans(tracer: bt.Tracer, dump: dict, op_idx: int, op_id: int) -> None:
    base = len(tracer.spans)
    for name, start, end, parent, _op, err in dump["spans"]:
        tracer.spans.append([name, start, end, op_idx if parent is None else base + parent, op_id, err])
    for key, value in dump["counts"].items():
        if key.endswith("_max"):
            tracer.bump_max(key, value)
        else:
            tracer.bump(key, value)


def run_pass(args, traced: bool, workdir: Path, digests: dict) -> dict:
    t0 = time.perf_counter()
    if args.workload == "cli-matrix":
        p = cli_pass(args.seed, traced, workdir, digests)
    else:
        p = child_pass(args.workload, args.seed, traced, False, workdir, args.record)
    p["traced"] = traced
    p["elapsed_s"] = time.perf_counter() - t0
    p["wall_s"] = sum(scaled(o) for o in p["ops"])
    return p


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------


def cli_setup_samples(workdir: Path) -> list[list[float]]:
    """Start-up of a child that only imports salemlab.cli, as [seconds, scale]."""
    cmd = [sys.executable, "-c", "import salemlab.cli"]
    samples = []
    ref_prev = bw.reference_child(workdir)
    for _ in range(SETUP_SAMPLES):
        child = bw.run_child(cmd, workdir, bw.CLI_DEADLINE_S)
        if child.code != 0:
            raise RuntimeError("importing salemlab.cli failed")
        ref_next = bw.reference_child(workdir)
        samples.append([child.latency_s, bw.scale(ref_prev, ref_next, bw.REFERENCE_CHILD_NOMINAL_S)])
        ref_prev = ref_next
    return samples


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail_of(latencies: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None
    return sorted(latencies)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def scaled(sample) -> float:
    """Seconds at the nominal host speed: an op dict or a [seconds, scale] pair."""
    seconds, scale = (sample["latency_s"], sample["scale"]) if isinstance(sample, dict) else sample
    return seconds * scale


def end_to_end(passes: list[dict], setup: list[list[float]]) -> tuple[dict, list[str]]:
    """Each op's latency is the median over the run's passes of its scaled latency."""
    by_op = list(zip(*(p["ops"] for p in passes)))
    per_op = [statistics.median(scaled(o) for o in runs) for runs in by_op]
    done = [statistics.median(scaled(o) for o in runs if o["status"] == "ok")
            for runs in by_op if any(o["status"] == "ok" for o in runs)]
    tail = tail_of(done)
    ops = [o for p in passes for o in p["ops"]]
    ok = sum(o["status"] == "ok" for o in ops)
    metrics = {
        "wall_s": sum(per_op),
        "op_p50_s": statistics.median(done),
        "op_tail_s": tail[0],
        "setup_s": statistics.median(scaled(x) for x in setup),
        "peak_rss_mb": max(p["maxrss_kb"] for p in passes) / 1024.0,
        "success_rate": ok / len(ops),
    }
    raw_wall = statistics.median(sum(o["latency_s"] for o in p["ops"]) for p in passes)
    notes = [
        f"passes {len(passes)}; ops per pass {len(by_op)}; completed ops {len(done)}, "
        f"each the median of {len(passes)} samples",
        f"op_tail_s is p{tail[1]:.1f} ({TAIL_BEYOND} completed ops beyond it)",
        f"setup_s samples {len(setup)}",
        f"error_rate {(len(ops) - ok) / len(ops):.6f} ({len(ops) - ok} of {len(ops)} ops did not succeed)",
        f"unscaled: wall {raw_wall!r} s; setup {statistics.median(x[0] for x in setup)!r} s; "
        f"median host-speed scale {statistics.median(o['scale'] for o in ops)!r}",
    ]
    return metrics, notes


UNITS = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB", "success_rate": "ratio"}


def provenance(args) -> dict:
    try:
        top = subprocess.run(["git", "-C", str(bw.ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == bw.ROOT else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((bw.SRC / "salemlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "SALEMLAB_THREADS": os.environ["SALEMLAB_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=bw.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="store this seed's output digests")
    ap.add_argument("--pass-out", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (bw.SRC / "salemlab" / "__init__.py").is_file():
        print(f"error: no salemlab sources under {bw.SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ["SALEMLAB_THREADS"] = "1"
    digests = {} if args.record else bw.load_digests()
    if args.pass_out:
        res = in_process_pass(args.workload, args.seed, bool(args.trace), args.setup_only, digests)
        Path(args.pass_out).write_text(json.dumps(res))
        return 0

    results_dir = bw.ROOT / ".perfbench_work" / "results"
    workdir = bw.ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results_dir.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir, results_dir, digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path, results_dir: Path, digests: dict) -> int:
    t_start = time.perf_counter()
    if args.workload == "cli-matrix" and not args.trace:
        setup = cli_setup_samples(workdir)
    else:
        setup = []
    passes: list[dict] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        p = run_pass(args, traced, workdir, digests)
        passes.append(p)
        if "setup" in p:
            setup.append(p["setup"])
        elapsed = time.perf_counter() - t_start
        kinds = {q["traced"] for q in passes}
        if args.record or elapsed >= MAX_RUN_S:
            break
        if (len(kinds) == 2 or not args.trace) and elapsed + p["elapsed_s"] > args.seconds:
            break
    if args.workload != "cli-matrix" and not args.trace and not args.record:
        while len(setup) < SETUP_SAMPLES:
            setup.append(child_pass(args.workload, args.seed, False, True, workdir, False)["setup"])

    ops = [o for p in passes for o in p["ops"]]
    failed = [o for o in ops if o["status"] == "failed"]
    for o in failed:
        print(f"FAILED op: {o['sig']}: {o['reason']}")
    for sig in sorted({o["sig"] for o in ops if o["status"] == "known_defect"}):
        reason = next(o["reason"] for o in ops if o["sig"] == sig)
        print(f"known defect op: {sig}: {reason}")

    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [bt.layer_metrics(p["spans"], p["counts"]) for p in traced]
        metrics = bt.median_metrics(per_pass)
        metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                       - statistics.median(p["wall_s"] for p in plain))
        units = {m: bt.unit_of(m) for m in bt.PER_LAYER}
        notes = [f"traced passes {len(traced)}, untraced passes {len(plain)}"]
        spans = [{"spans": p["spans"], "counts": p["counts"]} for p in traced]
        (results_dir / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(spans))
    else:
        metrics, notes = end_to_end(plain, setup)
        units = UNITS

    prov = provenance(args)
    prov["ops_per_pass"] = len(passes[0]["ops"])
    if args.record:
        new = {o["sig"]: o["digest"] for o in ops if o["status"] == "ok"}
        bw.record_digests(new)
        notes.append(f"recorded {len(new)} digests")
    for line in notes:
        print(line)
    for name in units:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    print("provenance " + json.dumps(prov))
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    saved_ops = [{k: o[k] for k in ("sig", "latency_s", "scale", "status", "reason")} for o in ops]
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "provenance": prov, "notes": notes, "ops": saved_ops}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
