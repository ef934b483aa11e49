"""Experiment runner: build stage sets, compare them, fit dimension reports.

Exit codes: 0 success, 2 spec/argument parse error, 3 numeric or fit error.
One experiment per invocation; identical arguments (including --seed) give
byte-identical output files.  Each command imports the layers it runs.

A command run as a program (`python -m salemlab.cli`, or the installed
`salemlab` script) enters through `run`.  Once `main` has returned, every
output file is closed; `run` flushes both streams and ends the process with
`os._exit`, skipping the interpreter's teardown.  `main` called as a
library function returns its exit code and leaves the interpreter alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NoReturn

from . import SAMPLES_BOUND
from .geometry import GeometryError, IntervalUnion, format_fraction, hausdorff_metric

if TYPE_CHECKING:
    from .bitseq import BitMatrix, BitSequence
    from .constructions import Scheme


class SpecParseError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _positive_float(text: str) -> float:
    """argparse type: a finite number above zero."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return x


def _int_in(low: int, high: float = math.inf):
    """argparse type: an integer from `low` up to `high`."""

    def integer(text: str) -> int:
        n = int(text)  # argparse reports a ValueError as an invalid integer value
        if n < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        if n > high:
            raise argparse.ArgumentTypeError(f"expected an integer <= {high}, got {text!r}")
        return n

    return integer


def _finite(text: str) -> float:
    """A spec number: any finite float."""
    x = float(text)
    if not math.isfinite(x):
        raise SpecParseError(f"expected a finite number, got {text!r}")
    return x


def parse_bits(text: str) -> BitSequence:
    from .bitseq import BitSequence

    try:
        return BitSequence.from_string(text)
    except ValueError as e:
        raise SpecParseError(str(e)) from None


def parse_rows(text: str) -> BitMatrix:
    from .bitseq import BitMatrix

    return BitMatrix.from_rows([parse_bits(part) for part in text.split(";") if part != ""])


# kind -> its fields after the kind (each a literal prefix, then <name>) and the maker of its scheme from their texts
_SPEC_KINDS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "cantor": (("<n>",), lambda c, n: c.CantorScheme(int(n))),
    "gcantor": (("<p>",), lambda c, p: c.GeneralizedCantorScheme.for_dimension(_finite(p))),
    "interval": ((), lambda c: c.IntervalScheme()),
    "jarnik": (("<alpha>",), lambda c, alpha: c.JarnikScheme(_finite(alpha))),
    "salpha": (("<alpha>",), lambda c, alpha: c.SAlphaScheme(_finite(alpha))),
    "fp": (("<p>", "x=<bits>"), lambda c, p, x: c.FpScheme(_finite(p), parse_bits(x))),
    # a tower's rows are read before its p: keyword arguments are evaluated in the order written
    "pi03": (("<p>", "rows=<bits;bits;...>"), lambda c, p, rows: c.Pi03Scheme(x=parse_rows(rows), p=_finite(p))),
    "salemgap": (("<p>", "rows=<bits;bits;...>"),
                 lambda c, p, rows: c.SalemGapScheme(x=parse_rows(rows), p=_finite(p))),
    "weihrauch": (("xs=<bits;bits;...>",),
                  lambda c, xs: c.WeihrauchScheme([parse_bits(b) for b in xs.split(";") if b != ""])),
}


def parse_scheme(spec: str) -> Scheme:
    """Scheme mini-grammar, one `_SPEC_KINDS` entry per kind.

    cantor:<n> | gcantor:<p> | interval | jarnik:<alpha> | salpha:<alpha>
    | fp:<p>:x=<bits> | pi03:<p>:rows=<r;...> | salemgap:<p>:rows=<r;...>
    | weihrauch:xs=<r;...>

    Bits: '110' (then zeros), '11(01)' (prefix + period), '(10)'.
    """
    from . import constructions as cons

    kind, *texts = spec.split(":")
    if kind not in _SPEC_KINDS:
        raise SpecParseError(f"unknown scheme kind {kind!r} in {spec!r}")
    fields, build = _SPEC_KINDS[kind]
    prefixes = [f.partition("<")[0] for f in fields]
    try:
        if len(texts) != len(fields) or not all(map(str.startswith, texts, prefixes)):
            raise SpecParseError(f"usage: {':'.join((kind, *fields))}")
        return build(cons, *(t[len(pre):] for t, pre in zip(texts, prefixes)))
    except (ValueError, cons.ConstructionError) as e:
        raise SpecParseError(f"bad scheme spec {spec!r} (at {kind!r}): {e}") from None


def config_hash(args: argparse.Namespace, keys: list[str]) -> str:
    import hashlib

    blob = ";".join(f"{k}={getattr(args, k, None)}" for k in sorted(keys))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _stage_rows(reports, cfg: str) -> list[list]:
    """The stage CSV's rows; a diameter too long to print raises GeometryError as it is formatted."""
    return [[r.stage, r.piece_count, format_fraction(r.min_diam), format_fraction(r.max_diam), cfg]
            for r in reports]


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def cmd_build(args: argparse.Namespace) -> int:
    scheme = parse_scheme(args.spec)
    stage_set = scheme.stage(args.stage)
    cfg = config_hash(args, ["spec", "stage"])
    out = Path(args.out)
    rows, text = _stage_rows(scheme.reports(1, args.stage), cfg), stage_set.to_json()  # both before any write
    out.with_suffix(".json").write_text(text)
    _write_csv(out.with_suffix(".csv"), ["stage", "pieces", "min_diam", "max_diam", "config"], rows)
    print(f"wrote {out.with_suffix('.json')} ({len(stage_set)} pieces) and {out.with_suffix('.csv')}")
    return 0


def _read_union(path: str) -> IntervalUnion:
    """Load a set file; an unreadable or malformed file is an input error."""
    try:
        return IntervalUnion.from_json(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise SpecParseError(f"bad set file {path!r}: {e}") from None


def cmd_metric(args: argparse.Namespace) -> int:
    A, B = _read_union(args.file_a), _read_union(args.file_b)
    d = hausdorff_metric(A, B)
    if args.format == "json":
        print(json.dumps({"value": float(d), "exact": format_fraction(d.value)}))
    else:
        print(_fmt(float(d)))
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    from . import constructions as cons

    if args.map == "phi":
        mat = parse_rows(args.rows)
        try:
            out = cons.phi_transform(mat)
        except ValueError as e:  # a cumulative row whose period passes bitseq.PERIOD_BOUND
            raise SpecParseError(f"bad rows {args.rows!r}: {e}") from None
        top = out.max_row
        rows = [str(out.row(m)) for m in range(top + 1)]
        print(json.dumps({"rows": rows, "tail": str(out.tail)}))
        return 0
    # the spec the flags stand for: a value the map refuses is exit 2, and a ':' in a flag is a usage error
    scheme = parse_scheme(f"{args.map}:{args.p}:" + (f"x={args.x}" if args.map == "fp" else f"rows={args.rows}"))
    stage_set = scheme.stage(args.stage)
    Path(args.out).with_suffix(".json").write_text(stage_set.to_json())
    print(f"wrote {Path(args.out).with_suffix('.json')} ({len(stage_set)} pieces)")
    return 0


_REPORT_COLUMNS = [
    "scheme", "stage", "pieces", "min_diam", "hdim_est", "frostman_est",
    "fourier_raw", "fourier_dim", "salem_defect", "r2_box", "r2_fourier", "config",
]


def cmd_report(args: argparse.Namespace) -> int:
    from . import dimension as dim

    scheme = parse_scheme(args.spec)
    cfg = config_hash(args, ["spec", "stage", "xi_max", "bands", "samples", "seed", "fit_lo"])
    rep, mu = dim.salem_report_with_measure(
        scheme, args.stage, xi_max=args.xi_max, bands=args.bands,
        samples_per_band=args.samples, seed=args.seed, fit_lo=args.fit_lo,
    )
    out = Path(args.out)
    row = [rep.scheme, rep.stage, rep.piece_count, _fmt(rep.min_diam),
           _fmt(rep.hdim_est), _fmt(rep.frostman_est), _fmt(rep.fourier_raw),
           _fmt(rep.fourier_dim), _fmt(rep.salem_defect),
           _fmt(rep.box_fit.r_squared), _fmt(rep.fourier_fit.r_squared), cfg]
    _write_csv(out.with_suffix(".csv"), _REPORT_COLUMNS, [row])
    _write_sweep(out.parent / (out.stem + "_sweep.csv"), mu, args, cfg, vector=True)  # the fit loaded numpy
    print(
        f"{rep.scheme} stage {rep.stage}: hdim_est={_fmt(rep.hdim_est)} "
        f"fourier_dim={_fmt(rep.fourier_dim)} defect={_fmt(rep.salem_defect)}"
    )
    return 0


def _write_sweep(path: Path, mu, args: argparse.Namespace, cfg: str, vector: bool) -> None:
    """Transform of the decay measure mu on a log grid up to --xi-max; `vector`: numpy's kernel for any mu."""
    from .measures import PiecewiseUniformMeasure

    n = max(args.samples * 4, 256)
    xis = [args.xi_max ** (i / n) for i in range(1, n + 1)]
    # unless numpy is loaded already, a product measure's scalar loop is cheaper than importing it
    if vector or isinstance(mu, PiecewiseUniformMeasure):
        import numpy as np

        vals = mu.fourier_eval_many(np.array(xis))
    else:
        vals = [mu.fourier_eval(xi) for xi in xis]
    rows = ([_fmt(xi), _fmt(v.real), _fmt(v.imag), _fmt(abs(v)), cfg] for xi, v in zip(xis, map(complex, vals)))
    _write_csv(path, ["xi", "re", "im", "modulus", "config"], rows)


def cmd_sweep(args: argparse.Namespace) -> int:
    scheme = parse_scheme(args.spec)
    cfg = config_hash(args, ["spec", "stage", "xi_max", "samples", "seed"])
    _write_sweep(Path(args.out), scheme.decay_measure(args.stage), args, cfg, vector=False)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="salemlab",
        description="Finite-stage fractal constructions and dimension estimators.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a stage set and its stage report CSV")
    b.add_argument("spec")
    b.add_argument("--stage", type=_int_in(0), default=4)
    b.add_argument("--out", default="stage")
    b.set_defaults(fn=cmd_build)

    m = sub.add_parser("metric", help="Hausdorff distance between two set files")
    m.add_argument("file_a")
    m.add_argument("file_b")
    m.add_argument("--format", choices=("text", "json"), default="text")
    m.set_defaults(fn=cmd_metric)

    r = sub.add_parser("reduce", help="drive the reduction maps (fp, phi, pi03)")
    r.add_argument("--map", choices=("fp", "phi", "pi03"), required=True)
    r.add_argument("--p", default="0.5")
    r.add_argument("--x", default="0", help="bit sequence for fp")
    r.add_argument("--rows", default="", help="semicolon-separated rows for phi/pi03")
    r.add_argument("--stage", type=_int_in(0), default=4)
    r.add_argument("--out", default="reduced")
    r.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("report", help="full dimension report for a scheme")
    p.add_argument("spec")
    p.add_argument("--stage", type=_int_in(0), default=8)
    p.add_argument("--fit-lo", dest="fit_lo", type=_int_in(0), default=1)
    p.add_argument("--xi-max", dest="xi_max", type=_positive_float, default=2.0**16)
    p.add_argument("--bands", type=_int_in(4), default=10)
    p.add_argument("--samples", type=_int_in(64, SAMPLES_BOUND), default=128)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="report")
    p.set_defaults(fn=cmd_report)

    s = sub.add_parser("sweep", help="Fourier transform sweep CSV")
    s.add_argument("spec")
    s.add_argument("--stage", type=_int_in(0), default=8)
    s.add_argument("--xi-max", dest="xi_max", type=_positive_float, default=2.0**16)
    s.add_argument("--samples", type=_int_in(1, SAMPLES_BOUND), default=128)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", default="sweep.csv")
    s.set_defaults(fn=cmd_sweep)
    return ap


def _failure(e: Exception) -> tuple[int, str] | None:
    """Exit code and stderr line for a command that raised e; None lets e propagate."""
    # neither case needs the layers' error types, so neither imports them
    if isinstance(e, MemoryError):  # a stage too large to build
        return 3, "error: out of memory"
    if isinstance(e, OSError):  # an output that cannot be written (reads raise SpecParseError)
        return 2, f"error: cannot write output: {e}"
    from .constructions import ConstructionError
    from .dimension import FitError
    from .measures import MeasureError

    if isinstance(e, SpecParseError):
        return 2, f"error: {e}"
    if isinstance(e, (GeometryError, ConstructionError, MeasureError)):
        return 3, f"error: {e}"
    if isinstance(e, (FitError, ArithmeticError)):
        return 3, f"numeric error: {e}"
    return None


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.command == "report" and args.stage - args.fit_lo < 1:
            ap.error("report fits a ladder of at least two stages: --stage must exceed --fit-lo")
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, MemoryError, OSError) as e:
        failure = _failure(e)
        if failure is None:  # any other ValueError is a bug and keeps its traceback
            raise
        print(failure[1], file=sys.stderr)
        return failure[0]


def run() -> NoReturn:
    """Process entry: run `main`, flush stdout and stderr, and end the process.

    Every output file is closed before `main` returns, and the program
    registers no exit hook, so nothing is left for the interpreter's teardown
    to do.  stdout is block-buffered when it is not a terminal: a write that
    fails at this flush (a closed pipe) is exit 2, as it is inside `main`.
    An exception escaping `main` is a bug and ends through the normal exit.
    """
    code = main()
    try:
        sys.stdout.flush()
    except OSError as e:
        code, line = _failure(e)
        print(line, file=sys.stderr)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
