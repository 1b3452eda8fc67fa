import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shiftop import cli


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "shift": {"lift": "t+0.1*sin(2*pi*t)", "orientation": "auto"},
        "a": "2",
        "b": "1",
        "space": {"alpha": 1 / 3, "beta": 0.5, "fundamental_type": True},
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and key in cfg:
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


class TestAnalyze:
    def test_two_sided_exit_zero(self, tmp_path, capsys):
        code = cli.run(["analyze", "-c", write_config(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["verdict"] == "two_sided"
        assert out["structure"]["m"] == 1

    def test_verdicts(self, tmp_path, capsys):
        cases = [
            ({"a": "2-1.9*sin(pi*t)", "b": "1"}, "right_only"),
            ({"a": "1", "b": "2-1.9*sin(pi*t)"}, "left_only"),
        ]
        for overrides, expected in cases:
            code = cli.run(["analyze", "-c", write_config(tmp_path, **overrides)])
            out = json.loads(capsys.readouterr().out)
            assert out["verdict"] == expected
            assert code == 0

    def test_invalid_indices_exit_2(self, tmp_path, capsys):
        code = cli.run(["analyze", "-c",
                        write_config(tmp_path, space={"alpha": 0.0, "beta": 0.5})])
        assert code == 2
        assert "space.alpha" in capsys.readouterr().err

    def test_bad_expression_exit_2(self, tmp_path, capsys):
        code = cli.run(["analyze", "-c", write_config(tmp_path, a="2*&")])
        assert code == 2

    def test_missing_field_exit_2(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text('{"a": "1", "b": "1"}', encoding="utf-8")
        code = cli.run(["analyze", "-c", str(path)])
        assert code == 2
        assert "shift.lift" in capsys.readouterr().err

    def test_undecidable_exit_3(self, tmp_path, capsys):
        code = cli.run(["analyze", "-c", write_config(
            tmp_path, shift={"lift": "t + 0.05 - 0.05*cos(2*pi*(t-0.5))"})])
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "undecidable"
        assert code == 3

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert cli.run(["analyze", "-c", cfg, "-o", str(out1)]) == 0
        assert cli.run(["analyze", "-c", cfg, "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestDecompose:
    def test_structure_fields(self, tmp_path, capsys):
        code = cli.run(["decompose", "-c", write_config(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["m"] == 1
        assert out["lambda_points"] == [0.0, 0.5]
        assert len(out["gamma"]) == 2
        assert out["gamma"][0]["tau_plus"] == 0.5


class TestSpectrum:
    def test_csv_annulus_row(self, tmp_path, capsys):
        code = cli.run(["spectrum", "-c", write_config(tmp_path),
                        "--weight", "1", "--samples", "512"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kind,r_in|re,r_out|im"
        assert "annulus,0.7837,1.6403" in lines

    def test_file_output_lf(self, tmp_path):
        out = tmp_path / "spec.csv"
        cli.run(["spectrum", "-c", write_config(tmp_path), "--weight", "1",
                 "-o", str(out)])
        data = out.read_bytes()
        assert b"\r" not in data
        assert data.decode("utf-8").startswith("kind,")


class TestRadius:
    def test_values(self, tmp_path, capsys):
        code = cli.run(["radius", "-c", write_config(tmp_path),
                        "--weight", "1", "--p", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["radius_lebesgue"] == pytest.approx(1.6403, abs=1e-4)
        assert out["radius_bound"] == pytest.approx(1.6403, abs=1e-4)

    def test_multiplicity_two_exit_2(self, tmp_path, capsys):
        code = cli.run(["radius", "-c", write_config(tmp_path, shift={"lift": "1-t"}),
                        "--weight", "1"])
        assert code == 2
        assert "m=1" in capsys.readouterr().err

    def test_p_out_of_range_exit_2(self, tmp_path, capsys):
        code = cli.run(["radius", "-c", write_config(tmp_path), "--weight", "1", "--p", "1"])
        assert code == 2
        assert "--p" in capsys.readouterr().err


class TestSpectrumArgs:
    def test_too_few_samples_exit_2(self, tmp_path, capsys):
        code = cli.run(["spectrum", "-c", write_config(tmp_path), "--weight", "1",
                        "--samples", "10"])
        assert code == 2
        assert "samples" in capsys.readouterr().err


class TestVerify:
    def test_agreement_two_sided(self, tmp_path, capsys):
        cfg = write_config(tmp_path, oracle={"grids": [64, 128, 256], "p": 2.0,
                                             "seed": 24301})
        code = cli.run(["verify", "-c", cfg])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["verdict"] == "two_sided"
        assert out["agreement"] == "agree"
        assert len(out["evidence"]["rungs"]) == 3

    def test_agreement_neither(self, tmp_path, capsys):
        cfg = write_config(tmp_path, shift={"lift": "1-t"},
                           a="sin(2*pi*t)+0.5", b="0.5",
                           oracle={"grids": [64, 128, 256]})
        code = cli.run(["verify", "-c", cfg])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["verdict"] == "neither"
        assert out["agreement"] == "agree"

    def test_one_sided_not_tested(self, tmp_path, capsys):
        # F4: the ladder has no one-sided test, whatever its flags say
        cfg = write_config(tmp_path, a="2-1.9*sin(pi*t)", b="1",
                           oracle={"grids": [64, 128, 256]})
        code = cli.run(["verify", "-c", cfg])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["verdict"] == "right_only"
        assert out["agreement"] == "not_tested"


class TestParser:
    def test_unknown_command(self):
        assert cli.run(["bogus"]) == 2

    def test_module_entry_point(self, tmp_path):
        # python -m shiftop.cli runs main(): a missing config exits 2
        env = dict(os.environ)
        pkg_root = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "shiftop.cli", "analyze", "-c",
             str(tmp_path / "missing.json")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "config error" in proc.stderr

    def test_missing_config_flag(self):
        assert cli.run(["analyze"]) == 2
