"""The README's library quick start runs and prints what its comments show,
and its CLI config is accepted as documented and lists every config field."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from shiftop import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_its_comments():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    # each print line's trailing comment is its output; "..." stands for more digits
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    got = out.getvalue().splitlines()
    assert expected == ["right_only", "{'type': 'sigma_zero', 'region': 'gamma4', 't': 0.25}",
                        "0.78366... 1.64026..."]
    assert len(got) == len(expected)
    for want, line in zip(expected, got):
        assert re.fullmatch(r"\d*".join(map(re.escape, want.split("..."))), line), (want, line)


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_cli_config_runs(tmp_path, command):
    text = README.read_text(encoding="utf-8")
    cfg = json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))
    assert cfg["oracle"]["grids"] == [256, 512, 1024]
    cfg["oracle"]["grids"] = [64, 128, 256]     # the same fields on a smaller ladder
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.run([command, "-c", str(path)])
    assert code == 0
    assert json.loads(out.getvalue())["verdict"] == "right_only"


def test_cli_config_lists_every_field():
    text = README.read_text(encoding="utf-8")
    cfg = json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))

    def paths(node, prefix=""):
        for key, val in node.items():
            if isinstance(val, dict):
                yield from paths(val, f"{prefix}{key}.")
            else:
                yield prefix + key

    assert sorted(paths(cfg)) == sorted(cli.CONFIG_FIELDS)
