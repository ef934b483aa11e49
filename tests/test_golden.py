"""Byte identity of CLI outputs against the committed golden corpus.

For one spec of every scheme kind, and for two `salemgap` non-members whose
1-bits are read, `build`, `report` and `sweep` run at --seed 7 and a small
stage; every file they write must equal its copy under tests/golden/<folder>/,
where the folder is the spec's kind or its entry in FOLDERS.  After an
intended output change, rewrite the corpus with
`PYTHONPATH=src python tests/test_golden.py` and explain the changed bytes
in CHANGES.md.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest

from salemlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SPECS = (
    ("cantor:3", 6),
    ("gcantor:0.5", 6),
    ("interval", 6),
    ("jarnik:1.0", 4),
    ("salpha:1.0", 4),
    ("fp:0.5:x=11(0)", 4),
    ("pi03:0.8:rows=1;(01);0", 3),
    ("salemgap:0.63:rows=1;0", 4),
    ("weihrauch:xs=1;0;(10)", 3),
    ("salemgap:0.6:rows=0;(1)", 4),
    ("salemgap:0.6:rows=(01);0", 4),
)

# specs that share a kind with an earlier case keep their files apart
FOLDERS = {
    "salemgap:0.6:rows=0;(1)": "salemgap-bad-row1",
    "salemgap:0.6:rows=(01);0": "salemgap-bad-row0",
}

# command -> (extra arguments, files it writes)
COMMANDS = {
    "build": (["--out", "build"], ("build.json", "build.csv")),
    "report": (["--out", "report", "--seed", "7", "--samples", "64"], ("report.csv", "report_sweep.csv")),
    "sweep": (["--out", "sweep.csv", "--seed", "7", "--samples", "64"], ("sweep.csv",)),
}

CASES = [(spec, stage, cmd) for spec, stage in SPECS for cmd in COMMANDS]


def folder(spec: str) -> str:
    return FOLDERS.get(spec, spec.split(":")[0])


def run_case(spec: str, stage: int, cmd: str, workdir: Path) -> dict[str, bytes]:
    """Run one CLI command in workdir; the files it wrote, by name."""
    extra, names = COMMANDS[cmd]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        code = main([cmd, spec, "--stage", str(stage), *extra])
    finally:
        os.chdir(cwd)
    assert code == 0, f"{cmd} {spec} exited {code}"
    return {name: (workdir / name).read_bytes() for name in names}


@pytest.mark.parametrize("spec,stage,cmd", CASES, ids=[f"{folder(s)}-{c}" for s, _, c in CASES])
def test_outputs_match_golden(spec, stage, cmd, tmp_path):
    for name, data in run_case(spec, stage, cmd, tmp_path).items():
        expected = (GOLDEN / folder(spec) / name).read_bytes()
        assert data == expected, f"{folder(spec)}/{name} differs from the golden copy"


def record() -> None:
    for spec, stage, cmd in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(spec, stage, cmd, Path(tmp))
        out = GOLDEN / folder(spec)
        out.mkdir(parents=True, exist_ok=True)
        for name, data in files.items():
            (out / name).write_bytes(data)


if __name__ == "__main__":
    record()
