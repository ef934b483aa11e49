import contextlib
import io
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salemlab import SAMPLES_BOUND, cli, dimension
from salemlab.cli import _SPEC_KINDS, main, parse_bits, parse_scheme
from salemlab.bitseq import PERIOD_BOUND, BitMatrix
from salemlab.constructions import WEIHRAUCH_ROWS_BOUND, FpScheme, Pi03Scheme, SAlphaScheme, cantor_stage
from salemlab.dimension import salem_report
from salemlab.geometry import IntervalUnion


def run(args):
    return main(args)


COPRIME_ROWS = ";".join(f"({'0' * (p - 1)}1)" for p in (7, 11, 13, 17, 19, 23))  # one 1-bit per period p


class TestSchemeParsing:
    def test_known_kinds(self):
        assert parse_scheme("cantor:3").name == "cantor:3"
        assert parse_scheme("interval").name == "interval"
        assert parse_scheme("jarnik:1.0").declared_hdim == pytest.approx(2 / 3)
        assert parse_scheme("fp:0.5:x=110").p == 0.5
        assert parse_scheme("pi03:0.8:rows=0;110").p == 0.8
        assert parse_scheme("weihrauch:xs=0;0").declared_hdim == pytest.approx(0.75)

    def test_bad_specs_raise(self):
        from salemlab.cli import SpecParseError

        for spec, message in [
            ("cantor:2", "(at 'cantor'): dissection parameter must satisfy n >= 3"),
            ("jarnik:-1", "(at 'jarnik'): alpha must be nonnegative"),
            ("nope:1", None),
            # one wrong-arity or wrong-prefix spec per kind: the kind's usage line
            ("cantor", "(at 'cantor'): usage: cantor:<n>"),
            ("gcantor:0.5:1", "(at 'gcantor'): usage: gcantor:<p>"),
            ("interval:1", "(at 'interval'): usage: interval"),
            ("jarnik", "(at 'jarnik'): usage: jarnik:<alpha>"),
            ("salpha:1:2", "(at 'salpha'): usage: salpha:<alpha>"),
            ("fp:0.5", "(at 'fp'): usage: fp:<p>:x=<bits>"),
            ("pi03:0.5:x=1", "(at 'pi03'): usage: pi03:<p>:rows=<bits;bits;...>"),
            ("salemgap:0.5", "(at 'salemgap'): usage: salemgap:<p>:rows=<bits;bits;...>"),
            ("weihrauch:rows=1", "(at 'weihrauch'): usage: weihrauch:xs=<bits;bits;...>"),
            # the rows of a tower are read before its p, and a field's prefix before its value
            ("pi03:abc:rows=2", "(at 'pi03'): bad bit-sequence literal: '2'"),
            ("fp:abc:x=2", "(at 'fp'): could not convert string to float: 'abc'"),
        ]:
            with pytest.raises(SpecParseError) as err:
                parse_scheme(spec)
            unknown = f"unknown scheme kind 'nope' in {spec!r}"
            assert str(err.value) == (unknown if message is None else f"bad scheme spec {spec!r} {message}")

    def test_bits_literals(self):
        assert parse_bits("0^w").is_zero
        assert parse_bits("(10)").bit(0) == 1


class TestBuildCommand:
    def test_cantor_stage_two(self, tmp_path, capsys):
        out = tmp_path / "set"
        assert run(["build", "cantor:3", "--stage", "2", "--out", str(out)]) == 0
        stage = IntervalUnion.from_json(out.with_suffix(".json").read_text())
        assert stage == cantor_stage(3, 2)
        assert len(stage) == 4
        rows = out.with_suffix(".csv").read_text().strip().splitlines()
        assert rows[0] == "stage,pieces,min_diam,max_diam,config"
        assert len(rows) == 3

    def test_fp_zero_sequence_matches_plain_scheme(self, tmp_path):
        out = tmp_path / "fp"
        assert run(["build", "fp:0.5:x=0^w", "--stage", "3", "--out", str(out)]) == 0
        stage = IntervalUnion.from_json(out.with_suffix(".json").read_text())
        assert stage == SAlphaScheme(2.0).stage(3)

    def test_bad_spec_exit_code(self, tmp_path, capsys):
        assert run(["build", "cantor:2", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("spec", ["fp:0.5:x=1^w0", "pi03:0.5:rows=(1^w0);0", "weihrauch:xs=ω1"])
    def test_omega_inside_a_bit_literal_is_exit_two(self, spec, tmp_path, capsys):
        assert run(["build", spec, "--stage", "2", "--out", str(tmp_path / "x")]) == 2
        assert "bad bit-sequence literal" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestMetricCommand:
    def write(self, path, union):
        path.write_text(union.to_json())
        return str(path)

    def test_examples_end_to_end(self, tmp_path, capsys):
        empty = self.write(tmp_path / "empty.json", IntervalUnion.empty())
        full = self.write(tmp_path / "full.json", IntervalUnion.full())
        c1 = self.write(
            tmp_path / "c1.json", IntervalUnion([(0, F(1, 3)), (F(2, 3), 1)])
        )
        assert run(["metric", empty, empty]) == 0
        assert capsys.readouterr().out.strip() == "0"
        assert run(["metric", full, empty]) == 0
        assert capsys.readouterr().out.strip() == "1"
        assert run(["metric", c1, full, "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["exact"] == "1/6"
        assert obj["value"] == pytest.approx(1 / 6)

    @pytest.mark.parametrize("name,text", [
        ("missing.json", None),
        ("text.json", "not json"),
        ("nopieces.json", '{"space": ["0/1", "1/1"]}'),
        ("onepoint.json", '{"space": ["0/1", "1/1"], "pieces": [["1/3"]]}'),
        ("reversed.json", '{"space": ["0/1", "1/1"], "pieces": [["2/3", "1/3"]]}'),
    ])
    def test_bad_set_file_is_exit_two(self, name, text, tmp_path, capsys):
        good = self.write(tmp_path / "full.json", IntervalUnion.full())
        bad = tmp_path / name
        if text is not None:
            bad.write_text(text)
        assert run(["metric", good, str(bad)]) == 2
        assert run(["metric", str(bad), good]) == 2
        assert "bad set file" in capsys.readouterr().err


class TestReduceCommand:
    def test_phi_rows(self, capsys):
        assert run(["reduce", "--map", "phi", "--rows", "100;0"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["rows"] == ["1", "1"]
        assert obj["tail"] == "1"

    def test_pi03_reduction_writes_set(self, tmp_path):
        out = tmp_path / "p3"
        assert run(
            ["reduce", "--map", "pi03", "--p", "0.8", "--rows", "0;0",
             "--stage", "3", "--out", str(out)]
        ) == 0
        stage = IntervalUnion.from_json(out.with_suffix(".json").read_text())
        assert stage.contains_point(0)

    def test_fp_reduction_writes_set(self, tmp_path):
        out = tmp_path / "red"
        assert run(
            ["reduce", "--map", "fp", "--p", "0.5", "--x", "0", "--stage", "2",
             "--out", str(out)]
        ) == 0
        stage = IntervalUnion.from_json(out.with_suffix(".json").read_text())
        assert stage == SAlphaScheme(2.0).stage(2)

    def test_pi03_without_rows_reads_the_zero_matrix(self, tmp_path):
        out = tmp_path / "p3"
        assert run(["reduce", "--map", "pi03", "--p", "0.8", "--stage", "3", "--out", str(out)]) == 0
        stage = IntervalUnion.from_json(out.with_suffix(".json").read_text())
        assert stage == Pi03Scheme(0.8, BitMatrix.zero()).stage(3)

    def test_fp_without_x_reads_the_zero_sequence(self, tmp_path):
        out = tmp_path / "red"
        assert run(["reduce", "--map", "fp", "--p", "0.5", "--stage", "2", "--out", str(out)]) == 0
        stage = IntervalUnion.from_json(out.with_suffix(".json").read_text())
        assert stage == SAlphaScheme(2.0).stage(2)


class TestReportCommand:
    def test_cantor_report_row(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = run(
            ["report", "cantor:3", "--stage", "10", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        rows = out.with_suffix(".csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        vals = dict(zip(header, rows[1].split(",")))
        assert float(vals["hdim_est"]) == pytest.approx(math.log(2) / math.log(3), abs=1e-6)
        assert float(vals["salem_defect"]) >= 0.55
        assert vals["config"]
        sweep = (tmp_path / "rep_sweep.csv").read_text().splitlines()
        assert sweep[0] == "xi,re,im,modulus,config"
        assert len(sweep) > 100

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(
                ["report", "cantor:3", "--stage", "8", "--seed", "42", "--out", str(out)]
            ) == 0
        assert a.with_suffix(".csv").read_bytes().replace(b"a.csv", b"") == \
            b.with_suffix(".csv").read_bytes().replace(b"b.csv", b"")

    def test_jarnik_report(self, tmp_path):
        out = tmp_path / "jar"
        assert run(
            ["report", "jarnik:1.0", "--stage", "8", "--seed", "7", "--out", str(out)]
        ) == 0
        rows = out.with_suffix(".csv").read_text().strip().splitlines()
        vals = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert abs(float(vals["hdim_est"]) - 2 / 3) <= 0.1

    def test_seed_required(self, tmp_path, capsys):
        assert run(["report", "cantor:3", "--out", str(tmp_path / "x")]) == 2


class TestSweepCommand:
    def test_columns_and_determinism(self, tmp_path):
        a = tmp_path / "s1.csv"
        b = tmp_path / "s2.csv"
        for out in (a, b):
            assert run(
                ["sweep", "cantor:3", "--stage", "6", "--seed", "1", "--out", str(out)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()
        head = a.read_text().splitlines()[0]
        assert head == "xi,re,im,modulus,config"


class TestExitCodes:
    def test_numeric_error_is_exit_three(self, tmp_path, capsys):
        # band count too large for the frequency ceiling -> fit error
        code = run(
            ["report", "cantor:3", "--stage", "8", "--seed", "1",
             "--xi-max", "64", "--bands", "10", "--out", str(tmp_path / "x")]
        )
        assert code == 3

    def test_memory_error_is_exit_three_without_traceback(self, tmp_path, monkeypatch, capsys):
        import salemlab.cli as cli

        def exhausted(args):  # stands in for a stage too large to build
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_build", exhausted)
        assert run(["build", "cantor:3", "--stage", "2", "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("where", ["missing", "file"])
    @pytest.mark.parametrize("argv", [
        ["build", "cantor:3", "--stage", "4"],
        ["report", "cantor:3", "--stage", "4", "--seed", "1"],
        ["sweep", "cantor:3", "--stage", "4", "--seed", "1"],
        ["reduce", "--map", "fp", "--stage", "2"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_output_is_exit_two_without_traceback(self, argv, where, tmp_path, capsys):
        # an output directory that does not exist, or a path through a regular file
        (tmp_path / "file").write_text("")
        out = tmp_path / ("nodir" if where == "missing" else "file") / "rep"
        assert run([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output:") and err.count("\n") == 1
        assert "Traceback" not in err and str(out.parent) in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("spec", ["jarnik:{}","salpha:{}", "gcantor:{}", "fp:{}:x=1",
                                      "pi03:{}:rows=1;0", "salemgap:{}:rows=1;0"])
    def test_non_finite_spec_number_is_exit_two(self, spec, value, tmp_path, capsys):
        assert run(["build", spec.format(value), "--stage", "2", "--out", str(tmp_path / "x")]) == 2
        assert "expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-2", "abc"])
    def test_float_flag_not_finite_positive_is_exit_two(self, value, tmp_path):
        out = str(tmp_path / "x")
        assert run(["report", "cantor:3", "--stage", "3", "--seed", "1", "--xi-max", value, "--out", out]) == 2
        assert run(["sweep", "cantor:3", "--stage", "3", "--seed", "1", "--xi-max", value, "--out", out]) == 2
        assert run(["reduce", "--map", "fp", "--p", value, "--out", out]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["reduce", "--map", "fp", "--p", "2"], "'fp:2:x=0' (at 'fp'): dimension parameter must lie in (0, 1]"),
        (["reduce", "--map", "pi03", "--p", "2"], "'pi03:2:rows=' (at 'pi03'): dimension parameter must lie in (0, 1]"),
        (["reduce", "--map", "fp", "--p", "1e-5", "--stage", "1"],
         "'fp:1e-5:x=0' (at 'fp'): 3**-100000 is out of range: its binary exponent must stay within ±65536"),
        (["reduce", "--map", "fp", "--x", "1:0"], "'fp:0.5:x=1:0' (at 'fp'): usage: fp:<p>:x=<bits>"),
        (["reduce", "--map", "pi03", "--rows", "1;0:1"],
         "'pi03:0.5:rows=1;0:1' (at 'pi03'): usage: pi03:<p>:rows=<bits;bits;...>"),
    ], ids=["fp-p-2", "pi03-p-2", "fp-p-1e-5", "fp-colon", "pi03-colon"])
    def test_value_a_reduce_map_refuses_is_exit_two(self, argv, message, tmp_path, capsys):
        """reduce builds through the spec its flags stand for, so it refuses what `build` refuses, as `build` does."""
        assert run([*argv, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: bad scheme spec {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["reduce", "--map", "phi", "--rows", COPRIME_ROWS],
        ["build", f"salemgap:0.6:rows={COPRIME_ROWS}", "--stage", "1"],
        ["build", f"weihrauch:xs={COPRIME_ROWS}", "--stage", "1"],
    ], ids=["reduce-phi", "salemgap", "weihrauch"])
    def test_rows_whose_max_passes_the_period_bound_are_exit_two(self, argv, tmp_path, capsys):
        """The cumulative max of rows with periods 7, 11, 13, ... would have period 7,436,429; it is refused at
        its first period above the bound, 17,017, before that period is built."""
        assert run([*argv, "--out", str(tmp_path / "x")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: bad ") and err.endswith(f"period 17017, above the bound of {PERIOD_BOUND}\n")
        assert not list(tmp_path.iterdir())

    def test_weihrauch_rows_past_the_bound_are_exit_two_before_any_block(self, tmp_path, capsys, monkeypatch):
        def no_block(*args):
            raise AssertionError("a refused spec built a block")

        monkeypatch.setattr(FpScheme, "__init__", no_block)
        n = WEIHRAUCH_ROWS_BOUND + 1
        spec = f"weihrauch:xs={';'.join(['0'] * n)}"
        assert run(["build", spec, "--stage", "1", "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr() == (
            "", f"error: bad scheme spec {spec!r} (at 'weihrauch'): {n} rows, above the bound of {WEIHRAUCH_ROWS_BOUND}\n")
        assert not list(tmp_path.iterdir())

    def test_report_past_the_float_ceiling_is_exit_three(self, tmp_path, capsys):
        """At 1e18 the middle-third product kernel has lost its phases; the report is refused instead of reading
        the set as Salem.  Below the ceiling 2^33 it still reads no decay."""
        argv = ["report", "cantor:3", "--stage", "8", "--seed", "0", "--out", str(tmp_path / "r")]
        assert run([*argv, "--xi-max", "1e18"]) == 3
        assert capsys.readouterr() == (
            "", "numeric error: xi_max too large: top band end 5.764607523e+17 above float ceiling 8589934592\n")
        assert not list(tmp_path.iterdir())
        assert run([*argv, "--xi-max", "8e9"]) == 0
        assert " fourier_dim=0 " in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["build", "cantor:3", "--stage", "-1"],
        ["reduce", "--map", "fp", "--stage", "-1"],
        ["sweep", "cantor:3", "--stage", "-1", "--seed", "1"],
        ["report", "cantor:3", "--stage", "-1", "--seed", "1"],
        ["report", "cantor:3", "--stage", "3", "--fit-lo", "-1", "--seed", "1"],
        ["report", "cantor:3", "--stage", "3", "--fit-lo", "3", "--seed", "1"],
        ["report", "cantor:3", "--stage", "3", "--bands", "3", "--seed", "1"],
        ["report", "cantor:3", "--stage", "3", "--samples", "63", "--seed", "1"],
        ["sweep", "cantor:3", "--stage", "3", "--samples", "0", "--seed", "1"],
        ["sweep", "cantor:3", "--stage", "3", "--samples", "-5", "--seed", "1"],
        ["report", "cantor:3", "--stage", "3", "--seed", "1", "--format", "json"],
    ], ids=lambda argv: " ".join(argv))
    def test_integer_flag_out_of_range_is_exit_two(self, argv, tmp_path, capsys):
        assert run([*argv, "--out", str(tmp_path / "x")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("samples", [SAMPLES_BOUND + 1, 10**20])
    @pytest.mark.parametrize("command", ["report", "sweep"])
    def test_samples_above_the_bound_are_exit_two_before_any_work(self, command, samples, tmp_path, capsys,
                                                                  monkeypatch):
        """The parser refuses the count: neither the fit's grid nor the sweep's list is started."""
        def no_work(*args, **kwargs):
            raise AssertionError("a refused sample count reached the work")

        monkeypatch.setattr(dimension, "_band_grid", no_work)
        monkeypatch.setattr(cli, "_write_sweep", no_work)
        argv = [command, "cantor:3", "--stage", "3", "--seed", "1", "--samples"]
        assert run([*argv, str(samples), "--out", str(tmp_path / "x")]) == 2
        assert f"error: argument --samples: expected an integer <= {SAMPLES_BOUND}, got '{samples}'" \
            in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        assert cli.build_parser().parse_args([*argv, str(SAMPLES_BOUND)]).samples == SAMPLES_BOUND


# spec texts for the grammar fuzz, two lists of each, drawn equally often: numbers in range, and numbers
# out of range, at its edges, non-finite or not numbers; bit strings with and without periods, and bad ones
FUZZ_NUMBERS = (["3", "2", "0.5", "1"], ["0", "-1", "-0.5", "nan", "inf", "-inf", "1e308", "1e-300", "0.0001", "two"])
FUZZ_BITS = (["0", "1", "110", "(1)", "(10)", "11(01)", "0(1)", ""], ["()", "(2)", "1(", "(1)(0)", "1x"])


@st.composite
def fuzzed_specs(draw):
    """A spec drawn from the grammar table: a known or unknown kind, its fields with the right or a
    wrong prefix, one field too few or too many, and any number, bit string or 0-3 rows in each."""
    kind = draw(st.sampled_from(sorted(_SPEC_KINDS) + ["nope", "Cantor"]))
    fields = list(_SPEC_KINDS[kind][0] if kind in _SPEC_KINDS else ("<n>",))
    arity = draw(st.sampled_from([0, 0, 0, -1, 1]))
    fields = fields[:len(fields) - 1] if arity < 0 else fields + ["<n>"] * arity
    texts = []
    for field in fields:
        prefix, _, name = field.partition("<")
        if draw(st.integers(0, 9)) == 0:
            prefix = draw(st.sampled_from(["", "x=", "rows=", "xs=", "y="]))
        if name.startswith("bits;"):
            value = ";".join(draw(st.lists(st.one_of(*map(st.sampled_from, FUZZ_BITS)), max_size=3)))
        elif name.startswith("bits"):
            value = draw(st.one_of(*map(st.sampled_from, FUZZ_BITS)))
        else:
            value = draw(st.one_of(*map(st.sampled_from, FUZZ_NUMBERS)))
        texts.append(prefix + value)
    return ":".join([kind, *texts])


@settings(max_examples=300, deadline=None)
@given(fuzzed_specs(), st.integers(0, 2))
def test_fuzzed_specs_end_with_a_contract_exit_code(spec, stage):
    """Every spec builds or ends at once: exit 0, or exit 2 or 3 with one stderr line, never an exception."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["build", spec, "--stage", str(stage), "--out", str(Path(tmp) / "x")])
    assert code in (0, 2, 3), (spec, code)
    assert code == 0 or err.getvalue().count("\n") == 1, (spec, err.getvalue())


# one example spec of every kind in the grammar table
EXAMPLE_SPECS = ["cantor:3", "gcantor:0.5", "interval", "jarnik:1.0", "salpha:1.0", "fp:0.5:x=11(0)",
                 "pi03:0.8:rows=1;(01);0", "salemgap:0.6:rows=0;(1)", "weihrauch:xs=1;0;(10)"]


def test_example_specs_cover_every_kind():
    assert sorted(spec.split(":")[0] for spec in EXAMPLE_SPECS) == sorted(_SPEC_KINDS)


@pytest.mark.parametrize("spec", EXAMPLE_SPECS)
def test_value_contract_a_built_scheme_pickles(spec):
    """A scheme with built stages pickles, and the copy has the same stages, reports and declarations."""
    scheme = parse_scheme(spec)
    scheme.stage(3)
    again = pickle.loads(pickle.dumps(scheme))
    assert again.stage(3) == scheme.stage(3) and again.reports(0, 3) == scheme.reports(0, 3)
    assert (again.name, again.declared_hdim, again.declared_fdim) == (scheme.name, scheme.declared_hdim,
                                                                      scheme.declared_fdim)


@pytest.mark.parametrize("spec", EXAMPLE_SPECS)
def test_a_reported_scheme_pickles_with_its_kept_fits(spec):
    """A scheme that has run a report pickles with the decay fits it keeps, and the copy's next report
    equals the original's."""
    scheme, fit_args = parse_scheme(spec), {"samples_per_band": 64, "seed": 1}
    salem_report(scheme, 3, **fit_args)
    again = pickle.loads(pickle.dumps(scheme))

    def kept_fits(s):
        return {key: fit for key, (_, fit) in vars(s).get("_decay_fit_memo", {}).items()}

    assert kept_fits(again) == kept_fits(scheme)
    assert repr(salem_report(again, 4, **fit_args)) == repr(salem_report(scheme, 4, **fit_args))


# flag values for the flag-set fuzz: usual values, and edge values (most of which argparse or the command
# refuses), drawn one time in eight; --stage is always given and at most 3, and --xi-max at most 2^20, so
# no drawn run is slow (a pi03 report at the default stage 8 and --xi-max 1e154 takes about 20 s)
FUZZ_FLAGS = {
    "--stage": (["2", "3"], ["0", "1", "-1", "nan", "1e-300", "two"]),
    "--fit-lo": (["0", "1"], ["2", "3", "-1", "nan"]),  # a report refuses --fit-lo >= --stage
    "--xi-max": (["2", "64", "65536", "1048576"], ["1e-300", "5e-324", "0", "-1", "nan", "inf", "two"]),
    "--bands": (["4", "10", "16"], ["3", "0", "-1", "nan"]),
    "--samples": (["64", "128"], ["1", "63", "0", "-5", "nan"]),  # a sweep takes 1
    "--seed": (["0", "1", "-1", "12345678901234567890"], ["nan", "1e-300"]),
    "--map": (["fp", "pi03", "phi"], ["psi"]),
    "--p": (FUZZ_NUMBERS[0], FUZZ_NUMBERS[1] + ["0.5:x=1"]),
    "--x": (FUZZ_BITS[0], FUZZ_BITS[1] + ["1:0"]),
    "--rows": (["", "1;0", "(1);0", "0;(10)"], ["1;(2)", "1:0"]),
}
COMMAND_FLAGS = {
    "report": ["--fit-lo", "--xi-max", "--bands", "--samples", "--seed"],
    "sweep": ["--xi-max", "--samples", "--seed"],
    "reduce": ["--map", "--p", "--x", "--rows"],
}


@st.composite
def fuzzed_flag_sets(draw):
    """A report, sweep or reduce argument list: an example or fuzzed spec, a stage, and each of the
    command's flags left out (a required one too), or given a usual or an edge value."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command] if command == "reduce" else [command, draw(st.one_of(st.sampled_from(EXAMPLE_SPECS),
                                                                           fuzzed_specs()))]
    hows = st.sampled_from([0] * 6 + [1, None])  # usual values, edge values, or None: left out
    argv += ["--stage", draw(st.sampled_from(FUZZ_FLAGS["--stage"][draw(hows) or 0]))]
    for flag in COMMAND_FLAGS[command]:
        how = draw(hows)
        if how is not None:
            argv += [flag, draw(st.sampled_from(FUZZ_FLAGS[flag][how]))]
    return argv


@settings(max_examples=300, deadline=None)
@given(fuzzed_flag_sets())
def test_fuzzed_flag_sets_end_with_a_contract_exit_code(argv):
    """Every flag set runs or ends at once: exit 0, or exit 2 or 3 with one error line, never an exception.
    A flag argparse refuses prints its usage lines before the error line."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(Path(tmp) / "x")])
    assert code in (0, 2, 3), (argv, code)
    lines = [line for line in err.getvalue().splitlines() if not line.startswith(("usage:", " "))]
    assert lines == [] if code == 0 else len(lines) == 1 and "error" in lines[0], (argv, err.getvalue())


@pytest.mark.parametrize("spec", ["cantor:3", "gcantor:0.5"])
def test_product_measure_sweep_leaves_numpy_out(spec, tmp_path):
    code = ("import sys; from salemlab.cli import main; "
            "code = main(['sweep', sys.argv[1], '--stage', '3', '--samples', '64', '--seed', '1', '--out', sys.argv[2]]); "
            "print(code, 'numpy' in sys.modules)")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code, spec, str(tmp_path / "s.csv")], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "s.csv").read_text().count("\n") == 257  # header and 256 rows


def test_cli_import_leaves_numpy_out():
    code = "import sys, salemlab.cli; print('numpy' in sys.modules)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
