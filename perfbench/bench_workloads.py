"""Workload definitions: the op list of each workload, built from a seed.

An op is one call into the program.  Its ``sig`` names every input the op
gets, so two ops with equal signatures must produce equal outputs; the
recorded SHA-256 digests in ``digests.json`` are keyed by it.  Ops whose
signature has no recorded digest are checked by invariants instead.
"""

from __future__ import annotations

import csv
import fcntl
import hashlib
import io
import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
TRACED_CLI = BENCH_DIR / "traced_cli.py"

WORKLOADS = ("cli-matrix", "stage-ladder", "geometry-queries")

# Every CLI child gets this deadline and address-space cap.  The slowest
# op that finishes (report jarnik:1.0 at stage 7) takes about 2 s on a
# 2-core host; the cap keeps the gcantor blow-up below from exhausting
# memory.
CLI_DEADLINE_S = 6.0
CHILD_MEMORY_BYTES = 2 << 30
# an in-process op that finishes after this counts as a missed deadline
OP_DEADLINE_S = 60.0

# Known defect kept in the op list on purpose: GeneralizedCantorScheme's
# decay_measure calls _ensure(max(k, 24)), which builds 2^24 stage pieces
# only to read 24 contraction ratios, so `report` and `sweep` on gcantor
# run for minutes and take gigabytes.  Until that is fixed these ops end
# at the deadline.
GCANTOR_DEFECT = "deadline (decay_measure -> _ensure(max(k, 24)) builds 2^24 pieces)"

# (spec, CLI stage, stage-ladder range) for each spec kind of the README
# table.  Stages are chosen so that every op that finishes stays well
# inside the CLI deadline and a 35 s run holds four or more stage-ladder
# passes.
# gcantor has no ladder: an in-process op cannot be stopped at a deadline.
SPECS = (
    ("cantor:3", 12, (2, 11)),
    ("gcantor:0.5", 8, None),
    ("interval", 10, (2, 10)),
    ("jarnik:1.0", 7, (2, 6)),
    ("salpha:1.0", 6, (2, 6)),
    ("fp:0.5:x=11(0)", 6, (2, 7)),
    ("pi03:0.8:rows=1;(01);0", 5, (3, 4)),
    ("salemgap:0.63:rows=1;0", 6, (3, 6)),
    ("weihrauch:xs=1;0;(10)", 5, (3, 4)),
)
METRIC_FILES = ("gcantor", "fp")  # stage files the metric op compares (2 s)


# Host-speed scaling.  On a shared host the same work takes 0.4 s in one
# minute and 0.7 s in the next (CPU time tracks wall time, so this is
# contention, not scheduling).  reference.work(), a fixed job that is
# this benchmark's own code, is timed between ops, the same way the ops
# run: in-process between in-process ops, as a fresh child between CLI
# children.  Each op's latency is multiplied by its scale, the nominal
# reference time over the mean of the reference times just before and
# after the op.  The nominal times, typical on a shared 2-core 2.0 GHz
# Xeon host, only fix the unit.
REFERENCE_NOMINAL_S = 0.018
REFERENCE_CHILD_NOMINAL_S = 0.100
REFERENCE_SCRIPT = BENCH_DIR / "reference.py"


def reference_loop() -> float:
    """Seconds reference.work() takes in this process right now."""
    t0 = time.perf_counter()
    reference.work()
    return time.perf_counter() - t0


def reference_child(cwd: Path) -> float:
    """Seconds a fresh interpreter running reference.py takes right now."""
    return run_child([sys.executable, str(REFERENCE_SCRIPT)], cwd, CLI_DEADLINE_S).latency_s


def scale(ref_before: float, ref_after: float, nominal: float) -> float:
    """Factor that takes an op's seconds to seconds at the nominal host speed."""
    return 2 * nominal / (ref_before + ref_after)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["SALEMLAB_THREADS"] = "1"
    return env


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_BYTES, CHILD_MEMORY_BYTES))


@dataclass
class Child:
    code: int | None  # None: stopped at the deadline
    latency_s: float
    maxrss_kb: int


def run_child(cmd: list[str], cwd: Path, deadline: float, stdout=None, stderr=None) -> Child:
    """Run one child to completion or deadline; wait until it has ended.

    The child is asked to stop with SIGTERM at the deadline (a traced child
    then writes its spans) and killed if it is still there 5 s later.
    """
    stopped = threading.Event()
    exited = threading.Event()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=stdout or subprocess.DEVNULL, stderr=stderr or subprocess.DEVNULL,
        preexec_fn=_cap_memory,
    )

    def stop() -> None:
        stopped.set()
        os.kill(proc.pid, signal.SIGTERM)
        if not exited.wait(5.0):
            os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(deadline, stop)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        latency = time.perf_counter() - t0
        exited.set()
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if stopped.is_set() else proc.returncode
    return Child(code, latency, usage.ru_maxrss)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def record_digests(new: dict[str, str]) -> None:
    """Merge digests into digests.json; a lock lets several recorders run at once."""
    with open(BENCH_DIR / ".digests.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        merged = load_digests()
        merged.update(new)
        DIGESTS.write_text(json.dumps(dict(sorted(merged.items())), indent=1) + "\n")


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


@dataclass
class Op:
    sig: str
    encode: Callable[[object], bytes]
    invariant: Callable[[object], str | None]  # failure reason or None
    run: Callable[[], object] | None = None  # in-process call
    argv: list[str] = field(default_factory=list)  # CLI arguments
    outputs: tuple[str, ...] = ()  # files the CLI op writes
    known_defect: str | None = None


@dataclass
class CliResult:
    code: int
    stdout: bytes
    files: dict[str, bytes]


def encode_cli(res: CliResult) -> bytes:
    parts = [f"exit {res.code}\n".encode(), res.stdout]
    for name in sorted(res.files):
        parts.append(f"\n--- {name} {len(res.files[name])}\n".encode())
        parts.append(res.files[name])
    return b"".join(parts)


def check(op: Op, result, digests: dict[str, str]) -> tuple[str, str | None]:
    """Digest of the op's output, and the reason it failed (None when it passed)."""
    digest = sha256(op.encode(result))
    expected = digests.get(op.sig)
    if expected is not None:
        return digest, None if digest == expected else "digest mismatch"
    try:
        return digest, op.invariant(result)
    except Exception as e:  # malformed output is a failed op, not a crash
        return digest, f"invalid output ({type(e).__name__}: {e})"


def _csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode())))


def _sweep_ok(data: bytes) -> str | None:
    rows = _csv_rows(data)
    if rows[0] != ["xi", "re", "im", "modulus", "config"] or len(rows) < 2:
        return "sweep csv malformed"
    if any(float(r[3]) > 1.0 + 1e-9 for r in rows[1:]):
        return "|mu^| > 1 in sweep"
    return None


def _cli_invariant(cmd: str):
    def inv(res: CliResult) -> str | None:
        if res.code != 0:
            return f"exit {res.code}"
        if cmd == "build":
            (json_name,) = [n for n in res.files if n.endswith(".json")]
            obj = json.loads(res.files[json_name])
            return None if obj["pieces"] else "empty stage"
        if cmd == "report":
            (csv_name,) = [n for n in res.files if n.endswith(".csv") and "_sweep" not in n]
            header, row = _csv_rows(res.files[csv_name])
            fdim = float(row[header.index("fourier_dim")])
            if not 0.0 <= fdim <= 1.0:
                return "fourier_dim outside [0, 1]"
            (sweep_name,) = [n for n in res.files if "_sweep" in n]
            return _sweep_ok(res.files[sweep_name])
        if cmd == "sweep":
            return _sweep_ok(next(iter(res.files.values())))
        if cmd == "metric":
            value = float(res.stdout)
            return None if 0.0 <= value <= 1.0 else "metric outside [0, 1]"
        if cmd == "reduce":
            return None if json.loads(res.stdout)["rows"] else "no rows"
        return None

    return inv


def _seeded_rows(rng: random.Random) -> str:
    rows = []
    for _ in range(3):
        prefix = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
        period = "".join(rng.choice("01") for _ in range(rng.randint(1, 2)))
        rows.append(f"{prefix}({period})")
    return ";".join(rows)


def cli_matrix_ops(seed: int) -> list[Op]:
    """build / report / sweep for every spec kind, then metric and reduce."""
    ops: list[Op] = []
    for spec, stage, _ in SPECS:
        base = spec.split(":")[0]
        defect = GCANTOR_DEFECT if base == "gcantor" else None
        for cmd, argv, outputs in (
            ("build", ["build", spec, "--stage", str(stage), "--out", base], (f"{base}.json", f"{base}.csv")),
            ("report", ["report", spec, "--stage", str(stage), "--seed", str(seed), "--out", f"r_{base}"],
             (f"r_{base}.csv", f"r_{base}_sweep.csv")),
            ("sweep", ["sweep", spec, "--stage", str(stage), "--seed", str(seed), "--out", f"s_{base}.csv"],
             (f"s_{base}.csv",)),
        ):
            ops.append(Op(
                sig="cli " + " ".join(argv), encode=encode_cli, invariant=_cli_invariant(cmd),
                argv=argv, outputs=outputs, known_defect=defect if cmd != "build" else None,
            ))
    argv = ["metric", *(f"{name}.json" for name in METRIC_FILES)]
    ops.append(Op(sig="cli " + " ".join(argv), encode=encode_cli,
                  invariant=_cli_invariant("metric"), argv=argv))
    rows = _seeded_rows(random.Random(f"cli-matrix:{seed}"))
    argv = ["reduce", "--map", "phi", "--rows", rows]
    ops.append(Op(sig="cli " + " ".join(argv), encode=encode_cli,
                  invariant=_cli_invariant("reduce"), argv=argv))
    return ops


def run_cli_op(op: Op, workdir: Path, traced_out: Path | None = None) -> tuple[Child, CliResult | None]:
    """Run one CLI op as a child in workdir; collect its outputs if it finished."""
    for name in op.outputs:
        (workdir / name).unlink(missing_ok=True)
    if traced_out is None:
        cmd = [sys.executable, "-m", "salemlab.cli", *op.argv]
    else:
        cmd = [sys.executable, str(TRACED_CLI), str(traced_out), *op.argv]
    out_path, err_path = workdir / "_stdout", workdir / "_stderr"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        child = run_child(cmd, workdir, CLI_DEADLINE_S, out, err)
    if child.code is None:
        return child, None
    files = {n: (workdir / n).read_bytes() for n in op.outputs if (workdir / n).exists()}
    return child, CliResult(child.code, out_path.read_bytes(), files)


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def _report_invariant(rep) -> str | None:
    vals = (rep.hdim_est, rep.frostman_est, rep.fourier_raw, rep.salem_defect)
    if rep.piece_count < 1 or not all(math.isfinite(v) for v in vals):
        return "report field not finite"
    if not 0.0 <= rep.fourier_dim <= 1.0 or not 0.0 <= rep.frostman_est <= 1.0:
        return "dimension outside [0, 1]"
    return None


def stage_ladder_ops(seed: int, replay=None) -> tuple[Callable[[], None], list[Op]]:
    """Consecutive-stage reports on one Scheme object per spec.

    Returns (setup, ops); setup parses the specs into the Scheme objects
    the ops share.  ``replay`` replaces ``salem_report`` in traced runs.
    """
    schemes: dict[str, object] = {}

    def setup() -> None:
        from salemlab import cli

        for spec, _, rng in SPECS:
            if rng is not None:
                schemes[spec] = cli.parse_scheme(spec)

    def report_op(spec: str, k: int) -> Op:
        def run():
            from salemlab import dimension

            return (replay or dimension.salem_report)(schemes[spec], k, seed=seed)

        return Op(sig=f"salem_report {spec} stage={k} seed={seed}", run=run,
                  encode=lambda r: repr(r).encode(), invariant=_report_invariant)

    ops = [report_op(spec, k) for spec, _, rng in SPECS if rng is not None
           for k in range(rng[0], rng[1] + 1)]
    return setup, ops


def _ball_queries(seed: int, centers: int = 250, radii: int = 8) -> list[tuple[Fraction, list[Fraction]]]:
    """Seeded centers in [0, 1], each with an increasing radius ladder."""
    rng = random.Random(f"geometry-queries:{seed}")
    out = []
    for _ in range(centers):
        x = Fraction(rng.randrange(0, 3**12 + 1), 3**12)
        r0 = Fraction(rng.randrange(1, 64), 2**16)
        out.append((x, [r0 * 2**i for i in range(radii)]))
    return out


def _seeded_subset(union, seed: int):
    from salemlab.geometry import IntervalUnion

    rng = random.Random(f"geometry-queries:subset:{seed}")
    keep = [p for p in union.pieces if rng.random() < 0.5] or [union.pieces[0]]
    return IntervalUnion(keep)


def geometry_query_ops(seed: int) -> tuple[Callable[[], None], list[Op]]:
    """Queries only: stage sets and measures are built in setup."""
    sets: dict[str, object] = {}
    # grid steps vary with the seed but keep the cell count (the cost) near 42
    rng = random.Random(f"geometry-queries:grid:{seed}")
    grids = [Fraction(1, rng.randint(40, 44)) for _ in range(3)]
    queries = _ball_queries(seed)

    def setup() -> None:
        from salemlab import cli, constructions, measures

        for spec, ks in METRIC_PAIRS:
            scheme = cli.parse_scheme(spec)
            for k in ks:
                sets[f"{spec}@{k}"] = scheme.stage(k)
        sets["radial"] = constructions.cantor_stage(3, RADIAL_STAGE)
        sets["mass"] = measures.natural_measure(constructions.cantor_stage(3, 10))
        sets["subset"] = _seeded_subset(constructions.cantor_stage(3, 9), seed)

    ops: list[Op] = []
    for spec, (k0, k1) in METRIC_PAIRS:
        def metric(a=f"{spec}@{k0}", b=f"{spec}@{k1}"):
            from salemlab import geometry

            return geometry.hausdorff_metric(sets[a], sets[b])

        ops.append(Op(sig=f"hausdorff_metric {spec} {k0}->{k1}", run=metric,
                      encode=lambda d: f"{d.value!r} {d.exact}".encode(),
                      invariant=_metric_invariant(sets, f"{spec}@{k0}", f"{spec}@{k1}")))
    for j in range(1, RADIAL_DEPTH + 1):
        def radial(j=j):
            from salemlab import constructions

            return constructions.radial_reports(sets["radial"], [j])

        ops.append(Op(sig=f"radial_reports cantor_stage(3,{RADIAL_STAGE}) j={j}", run=radial,
                      encode=lambda r: repr(r).encode(),
                      invariant=lambda r: None if r[0].piece_count > 0 else "empty radial cover"))
    batch = 25
    for i in range(0, len(queries), batch):
        def masses(chunk=queries[i:i + batch]):
            from salemlab import measures

            mu = sets["mass"]
            return [[measures.ball_mass(mu, x, r) for r in radii] for x, radii in chunk]

        ops.append(Op(sig=f"ball_mass natural_measure(cantor_stage(3,10)) seed={seed} batch={i // batch}",
                      run=masses, encode=lambda v: repr(v).encode(), invariant=_mass_invariant))
    for name in ("jarnik:1.0@5", "salpha:1.0@5", "cantor:3@8"):
        for g in grids:
            def part(name=name, g=g):
                from salemlab import geometry

                return geometry.simplex_partition_1d(sets[name], g)

            ops.append(Op(sig=f"simplex_partition_1d {name} grid={g}", run=part,
                          encode=lambda parts: "\n".join(p.to_json() for p in parts).encode(),
                          invariant=_partition_invariant(name, sets)))
    for name in ("subset", "pi03:0.8:rows=1;(01);0@4", "jarnik:1.0@5"):
        def roundtrip(name=name):
            from salemlab.geometry import IntervalUnion

            text = sets[name].to_json()
            return text, IntervalUnion.from_json(text) == sets[name]

        sig = f"json_roundtrip {name}" + (f" seed={seed}" if name == "subset" else "")
        ops.append(Op(sig=sig, run=roundtrip, encode=lambda r: r[0].encode(),
                      invariant=lambda r: None if r[1] else "json round trip changed the set"))

    def blocks():
        from salemlab import numberfield

        return numberfield.gaussian_block_reports(1.0, range(1, 4))

    ops.append(Op(sig="gaussian_block_reports 1.0 1..3", run=blocks, encode=lambda r: repr(r).encode(),
                  invariant=lambda r: None if all(x.piece_count > 0 for x in r) else "empty block"))
    return setup, ops


# (spec, (k, k+1)) pairs for the exact metric, which is quadratic in the
# piece count; with the finest radial covers these are the slow queries
# (about 0.5 s each), the rest are many cheap ones
METRIC_PAIRS = (
    ("cantor:3", (7, 8)),
    ("jarnik:1.0", (4, 5)),
    ("salpha:1.0", (4, 5)),
    ("pi03:0.8:rows=1;(01);0", (3, 4)),
)
RADIAL_STAGE = 6
RADIAL_DEPTH = 6


def _metric_invariant(sets: dict, a: str, b: str):
    def inv(d) -> str | None:
        from salemlab import geometry

        if not 0 <= d.value <= 1:
            return "metric outside [0, 1]"
        return None if geometry.hausdorff_metric(sets[b], sets[a]) == d else "metric not symmetric"

    return inv


def _mass_invariant(values) -> str | None:
    for ladder in values:
        if any(not 0.0 <= v <= 1.0 + 1e-12 for v in ladder):
            return "ball mass outside [0, 1]"
        if any(b < a for a, b in zip(ladder, ladder[1:])):
            return "ball mass not monotone in r"
    return None


def _partition_invariant(name: str, sets: dict):
    def inv(parts) -> str | None:
        from salemlab.geometry import IntervalUnion

        pieces = [p for part in parts for p in part.pieces]
        return None if IntervalUnion.from_intervals(pieces) == sets[name] else "partition does not re-union"

    return inv


def in_process_ops(workload: str, seed: int, replay=None):
    if workload == "stage-ladder":
        return stage_ladder_ops(seed, replay)
    return geometry_query_ops(seed)
