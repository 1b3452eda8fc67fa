"""Golden CLI outputs: stdout and exit code of analyze, decompose, radius
and spectrum on the F-fixture configs.

The files under tests/golden/ were recorded from the code as it was before
expressions were compiled once and every function of t took the
float-or-array convention, so any change to the printed bytes shows up
here.  The radius runs on the shifts with m = 2 (F7, F9) crashed with a
traceback then; they were re-recorded once radius_bound took the m-th-root
form that covers every multiplicity, and now print JSON with exit code 0.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from shiftop import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
S1 = "t+0.1*sin(2*pi*t)"

# name -> (lift, a, b): the operators of tests/conftest.py::build_fixtures
CONFIGS = {
    "F1": (S1, "2", "1"),
    "F2": (S1, "0.1", "1"),
    "F4": (S1, "2-1.9*sin(pi*t)", "1"),
    "F5": (S1, "1", "2-1.9*sin(pi*t)"),
    "F6": (S1, "(2-1.9*sin(pi*t))*cos(2*pi*t)", "cos(2*pi*t)"),
    "F7": ("1-t", "sin(2*pi*t)+0.5", "0.5"),
    "F8": ("t", "2+cos(2*pi*t)", "2"),
    "F9": ("t+0.5", "2", "1"),
}
COMMANDS = ("analyze", "decompose", "radius", "spectrum")


def _argv(command: str, cfg: str, weight: str) -> list[str]:
    argv = [command, "-c", cfg]
    if command == "radius":
        argv += ["--weight", weight]
    elif command == "spectrum":
        argv += ["--weight", weight, "--samples", "64"]
    return argv


def run_case(workdir: Path, name: str, command: str) -> tuple[int, str]:
    """(exit code, stdout) of one CLI run; the weight is the fixture's a."""
    lift, a, b = CONFIGS[name]
    cfg = workdir / f"{name}.json"
    cfg.write_text(json.dumps({"shift": {"lift": lift}, "a": a, "b": b,
                               "space": {"alpha": 1 / 3, "beta": 0.5}}), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(_argv(command, str(cfg), a))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden(tmp_path, exit_codes, name, command):
    code, out = run_case(tmp_path, name, command)
    key = f"{name}.{command}"
    assert code == exit_codes["codes"][key]
    assert out == (GOLDEN / f"{key}.out").read_text(encoding="utf-8")


def record() -> None:
    """Write the golden files from the current code."""
    import tempfile

    index_path = GOLDEN / "exit_codes.json"
    index = json.loads(index_path.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CONFIGS):
            for command in COMMANDS:
                key = f"{name}.{command}"
                index["codes"][key], out = run_case(Path(tmp), name, command)
                (GOLDEN / f"{key}.out").write_text(out, encoding="utf-8", newline="\n")
    index_path.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
