"""What each CLI command loads, the lazy package exports, and exit codes in cold children.

In-process tests cannot see which modules a command loads, because other
tests have already imported every module; each case here starts a fresh
interpreter instead.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import salemlab
from salemlab.geometry import IntervalUnion

SRC = Path(__file__).resolve().parent.parent / "src"

# runs the CLI with the given arguments (none: import only), then prints the exit
# code and the loaded salemlab, numpy, dataclasses and inspect modules as the last line
_PROBE = (
    "import json, sys\n"
    "from salemlab import cli\n"
    "code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else None\n"
    "mods = sorted(m for m in sys.modules if m.split('.')[0] in ('salemlab', 'numpy', 'dataclasses', 'inspect'))\n"
    "print(json.dumps([code, mods]))\n"
)


def _child(args: list[str], cwd: Path, timeout: float | None = None, buffered: bool = False,
           stdout=subprocess.PIPE, preexec_fn=None) -> subprocess.CompletedProcess:
    """Run a cold interpreter; `buffered` drops PYTHONUNBUFFERED, so stdout is block-buffered
    into a pipe as it is for a user who has not set it."""
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, preexec_fn=preexec_fn)


def _probe(argv: list[str], cwd: Path) -> tuple[int | None, set[str]]:
    out = _child(["-c", _PROBE, *argv], cwd)
    assert out.returncode == 0, out.stderr
    code, mods = json.loads(out.stdout.splitlines()[-1])
    return code, set(mods)


def test_cli_import_loads_geometry_alone(tmp_path):
    assert _probe([], tmp_path) == (None, {"salemlab", "salemlab.cli", "salemlab.geometry"})


def test_cli_import_loads_neither_dataclasses_nor_inspect(tmp_path):
    out = _child(["-c", "import sys, salemlab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
                 tmp_path)
    assert out.returncode == 0 and out.stdout.strip() == "[]", out.stderr


@pytest.mark.parametrize("argv", [
    ["build", "cantor:3", "--stage", "3", "--out", "s"],
    ["metric", "a.json", "b.json"],
    ["reduce", "--map", "phi", "--rows", "100;0"],
], ids=lambda argv: argv[0])
def test_commands_without_measures_load_neither_measures_nor_numpy(argv, tmp_path):
    (tmp_path / "a.json").write_text(IntervalUnion([(0, 1)]).to_json())
    (tmp_path / "b.json").write_text(IntervalUnion([(0, Fraction(1, 2))]).to_json())
    code, mods = _probe(argv, tmp_path)
    assert code == 0
    assert not mods & {"numpy", "salemlab.measures", "salemlab.dimension", "salemlab.numberfield"}
    assert not mods & {"dataclasses", "inspect"}


def test_report_loads_the_fits(tmp_path):
    code, mods = _probe(["report", "cantor:3", "--stage", "3", "--seed", "1", "--out", "r"], tmp_path)
    assert code == 0 and {"numpy", "salemlab.measures", "salemlab.dimension"} <= mods


@pytest.mark.parametrize("argv", [
    ["report", "jarnik:1.0", "--stage", "3", "--seed", "1", "--out", "r"],
    ["sweep", "jarnik:1.0", "--stage", "3", "--seed", "1", "--out", "s"],
], ids=lambda argv: argv[0])
def test_fourier_commands_do_not_load_dataclasses(argv, tmp_path):
    """numpy itself loads `inspect`, so only `dataclasses` is checked here."""
    code, mods = _probe(argv, tmp_path)
    assert code == 0 and "salemlab.measures" in mods and "dataclasses" not in mods


_EVERY_COMMAND = [
    ["build", "cantor:3"],
    ["metric", "a.json", "b.json"],
    ["reduce", "--map", "phi", "--rows", "1"],
    ["report", "cantor:3", "--stage", "3", "--seed", "1"],
    ["sweep", "cantor:3", "--seed", "1"],
]


def _run_in(cwd: Path, args: list[str], buffered: bool = False) -> tuple:
    """Exit code, stdout, stderr and every file of a cold child run in a fresh cwd holding two set files."""
    cwd.mkdir()
    (cwd / "a.json").write_text(IntervalUnion([(0, 1)]).to_json())
    (cwd / "b.json").write_text(IntervalUnion([(0, Fraction(1, 2))]).to_json())
    out = _child(args, cwd, buffered=buffered)
    return out.returncode, out.stdout, out.stderr, {f.name: f.read_bytes() for f in cwd.iterdir()}


@pytest.mark.parametrize("argv", _EVERY_COMMAND, ids=lambda argv: argv[0])
def test_thread_variable_changes_nothing_for_every_command(argv, tmp_path, monkeypatch):
    """SALEMLAB_THREADS once sized a Fourier-screen pool; the program now ignores it."""
    runs = []
    for value in (None, "abc"):
        if value is None:
            monkeypatch.delenv("SALEMLAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("SALEMLAB_THREADS", value)
        runs.append(_run_in(tmp_path / str(value), ["-m", "salemlab.cli", *argv]))
        assert runs[-1][0] == 0, runs[-1][2]
    assert runs[1] == runs[0]


# ends through sys.exit and the interpreter's teardown, as a library caller of main() does
_MAIN_THEN_SYS_EXIT = "import sys\nfrom salemlab import cli\nsys.exit(cli.main(sys.argv[1:]))\n"


@pytest.mark.parametrize("argv, code", [
    *((argv, 0) for argv in _EVERY_COMMAND),
    (["--help"], 0),
    (["build", "cantor:x"], 2),  # spec parse error
    (["report", "cantor:3", "--stage", "8", "--seed", "1", "--xi-max", "64", "--bands", "10"], 3),  # fit error
], ids=[*(argv[0] for argv in _EVERY_COMMAND), "help", "parse-error", "fit-error"])
def test_process_entry_ends_with_the_outputs_of_main(argv, code, tmp_path):
    """`python -m salemlab.cli` ends through `run` and os._exit; with stdout block-buffered into a
    pipe it gives the exit code, streams and files of main() ended by sys.exit."""
    entry = _run_in(tmp_path / "entry", ["-m", "salemlab.cli", *argv], buffered=True)
    library = _run_in(tmp_path / "library", ["-c", _MAIN_THEN_SYS_EXIT, *argv], buffered=True)
    assert entry[0] == code, entry[2]
    assert entry == library


def test_closed_stdout_is_exit_two_without_traceback(tmp_path):
    """Block-buffered output meets the closed pipe only at the final flush, after main() has returned."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = _child(["-m", "salemlab.cli", "reduce", "--map", "phi", "--rows", "1;0"], tmp_path,
                     buffered=True, stdout=write_end)
    finally:
        os.close(write_end)
    assert out.returncode == 2
    assert out.stderr == "error: cannot write output: [Errno 32] Broken pipe\n"


def test_installed_script_enters_through_run():
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    assert scripts.splitlines() == ['salemlab = "salemlab.cli:run"']


@pytest.mark.parametrize("argv, message", [
    # band count too large for the frequency ceiling: a FitError
    (["report", "cantor:3", "--stage", "8", "--seed", "1", "--xi-max", "64", "--bands", "10"],
     "numeric error: xi_max too small for the requested band count"),
    # frequency ceilings whose band abscissae overflow: FitErrors
    (["report", "cantor:3", "--stage", "3", "--seed", "1", "--xi-max", "3e154"],
     "numeric error: xi_max too large: it must stay below 2^513"),
    (["report", "cantor:3", "--stage", "3", "--seed", "1", "--xi-max", "1e200"],
     "numeric error: xi_max too large: it must stay below 2^513"),
], ids=["fit", "xi-max-3e154", "xi-max-1e200"])
def test_layer_error_is_exit_three_without_traceback(argv, message, tmp_path):
    out = _child(["-m", "salemlab.cli", *argv], tmp_path)
    assert out.returncode == 3
    assert out.stderr == message + "\n"


@pytest.mark.parametrize("argv", [
    ["report", "jarnik:1000", "--stage", "3"],
    ["report", "salpha:1000", "--stage", "3"],
    ["report", "salemgap:0.6:rows=(10);(1)", "--stage", "8"],
], ids=["jarnik", "salpha", "salemgap"])
def test_diameters_below_the_float_range_end_without_traceback(argv, tmp_path):
    """Stage diameters and piece lengths whose floats underflow to 0: the fits take
    their logs from the exact rationals and the resonances skip them."""
    out = _child(["-m", "salemlab.cli", *argv, "--seed", "1", "--out", "r"], tmp_path)
    assert out.returncode in (0, 3) and "Traceback" not in out.stderr, out.stderr


def test_resonances_below_the_float_spacing_end(tmp_path):
    """At xi ~ 1e37 one step of the resonance walk is below the float spacing; the walk still ends."""
    argv = ["report", "jarnik:1.0", "--stage", "3", "--seed", "1", "--xi-max", "1e40", "--out", "r"]
    out = _child(["-m", "salemlab.cli", *argv], tmp_path, timeout=60)
    assert out.returncode in (0, 3) and "Traceback" not in out.stderr, out.stderr


@pytest.mark.parametrize("argv", [
    ["build", "fp:0.5:x=(1)", "--stage", "12"],  # a 22528-bit endpoint in the stage JSON
    ["build", "interval", "--stage", "20000"],  # a 14286-bit diameter in the stage CSV
    ["reduce", "--map", "fp", "--x", "(1)", "--stage", "12"],
], ids=["build-json", "build-csv", "reduce-fp"])
def test_unprintable_endpoint_is_exit_three_without_output(argv, tmp_path):
    """A term over the interpreter's digit limit is a GeometryError before any file is written."""
    out = _child(["-m", "salemlab.cli", *argv], tmp_path, timeout=60)
    assert out.returncode == 3
    assert out.stderr.startswith("error: a ") and out.stderr.endswith("decimal digits, too many to print\n")
    assert out.stderr.count("\n") == 1 and not list(tmp_path.iterdir())


def _capped_address_space():  # runs in the child: a stray huge power fails there, not on the host
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


@pytest.mark.parametrize("spec, code", [
    ("salpha:1e308", 2),  # the ratio is built when the spec is parsed
    ("gcantor:1e-300", 3),  # the lengths and the radii are built with the first stage
    ("jarnik:123456.5", 3),
    ("jarnik:1e300", 3),  # an integral alpha: exact radii, under the same bound
    ("pi03:1e-5:rows=0", 2),  # a tower builds its listed blocks, and their ratios, when the spec is parsed
    ("salemgap:1e-5:rows=0", 2),
])
def test_extreme_spec_number_ends_at_once(spec, code, tmp_path):
    out = _child(["-m", "salemlab.cli", "report", spec, "--stage", "3", "--seed", "1"], tmp_path, timeout=60,
                 preexec_fn=_capped_address_space)
    assert out.returncode == code
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert "binary exponent must stay within ±65536" in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize("spec, stage", [
    ("salpha:40000", "1"),  # a 31,706-bit prime search at the first stage
    ("fp:0.0001:x=1", "2"),
    ("salemgap:0.0001:rows=1100;1", "2"),
])
def test_centre_prime_search_ends_at_its_bound(spec, stage, tmp_path):
    """A stage whose centre prime would pass 2^3072 is refused before the search starts."""
    out = _child(["-m", "salemlab.cli", "build", spec, "--stage", stage], tmp_path, timeout=60,
                 preexec_fn=_capped_address_space)
    assert out.returncode == 3 and out.stderr.count("\n") == 1 and not list(tmp_path.iterdir())
    assert out.stderr.startswith("error: the centre prime needs ") and "above the bound of 3072" in out.stderr


def test_reduce_phi_without_rows_reads_the_zero_matrix(tmp_path):
    out = _child(["-m", "salemlab.cli", "reduce", "--map", "phi"], tmp_path)
    assert out.returncode == 0 and "Traceback" not in out.stderr, out.stderr
    assert json.loads(out.stdout) == {"rows": [], "tail": "0"}


def test_package_import_loads_no_layer(tmp_path):
    out = _child(["-c", "import sys, salemlab; print(sorted(m for m in sys.modules if 'salemlab' in m))"],
                 tmp_path)
    assert out.stdout.strip() == "['salemlab']"


class TestLazyExports:
    def test_every_export_is_the_object_of_its_module(self):
        assert salemlab.__all__ and len(set(salemlab.__all__)) == len(salemlab.__all__)
        for name in salemlab.__all__:
            obj = getattr(salemlab, name)
            assert obj.__module__.startswith("salemlab.")
            assert getattr(sys.modules[obj.__module__], name) is obj

    def test_star_import_binds_all_exports(self):
        ns: dict = {}
        exec("from salemlab import *", ns)
        assert set(ns) - {"__builtins__"} == set(salemlab.__all__)

    def test_dir_lists_every_export(self):
        assert set(salemlab.__all__) <= set(dir(salemlab))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            salemlab.no_such_name
        assert not hasattr(salemlab, "no_such_name")

    def test_readme_library_tour_runs(self):
        """The README's tour names only public API that still exists."""
        readme = (SRC.parent / "README.md").read_text()
        tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        exec(tour, {})
