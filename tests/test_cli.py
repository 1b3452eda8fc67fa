import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shiftop import cli
from shiftop.oracle import invertibility_evidence


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

    @pytest.mark.parametrize("overrides, field", [
        # the tolerances block and oracle.p are retired, flatt and orcale are misspelt
        ({"tolerances": {"zero": 1e-12, "flat": 1e-11}}, "tolerances"),
        ({"space": {"flatt": 1e-11}}, "space.flatt"),
        ({"orcale": {"seed": 1}}, "orcale"),
        ({"oracle": {"p": 2.0}}, "oracle.p"),
    ])
    def test_unknown_field_exit_2(self, tmp_path, capsys, overrides, field):
        code = cli.run(["analyze", "-c", write_config(tmp_path, **overrides)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"config error: unknown config field {field}\n"

    @pytest.mark.parametrize("overrides, field", [
        ({"space": {"alpha": True, "beta": 0.5}}, "space.alpha"),
        ({"space": {"beta": False}}, "space.beta"),
    ])
    def test_bool_in_numeric_field_exit_2(self, tmp_path, capsys, overrides, field):
        code = cli.run(["analyze", "-c", write_config(tmp_path, **overrides)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"config error: config field {field} must be float, got bool\n"

    def test_undecidable_exit_3(self, tmp_path, capsys):
        code = cli.run(["analyze", "-c", write_config(
            tmp_path, shift={"lift": "t + 0.05 - 0.05*cos(2*pi*(t-0.5))"})])
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "undecidable"
        assert code == 3

    def test_non_fundamental_type_exit_3(self, tmp_path, capsys):
        # F4's operator, right_only on a space of fundamental type
        code = cli.run(["analyze", "-c", write_config(
            tmp_path, a="2-1.9*sin(pi*t)", space={"fundamental_type": False})])
        out = json.loads(capsys.readouterr().out)
        assert (out["verdict"], out["witness"]) == (
            "undecidable", {"type": "space_not_fundamental_type"})
        assert code == 3

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_coefficient_not_finite_exit_2(self, tmp_path, capsys, command):
        # 1-periodic, but undefined at t = 0.5, a node of the scan grid
        err = run_error([command, "-c", write_config(tmp_path, a="1/(t-0.5)^2")], capsys)
        assert err == "config error: a: division by zero in (1.0 / ((t - 0.5) ^ 2.0)) at t=0.5\n"

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_coefficient_not_finite_between_nodes_exit_2(self, tmp_path, capsys, command):
        # a is undefined only within 3.2e-6 of t = 2049/8192, between two nodes
        # of the scan grid; the sigma_A scan of the Gamma2 arc (0, 0.5) meets it
        a = "sqrt((sin(pi*(t-0.2501220703125)))^2-1e-10)"
        err = run_error([command, "-c", write_config(tmp_path, a=a, b="0.3")], capsys)
        assert err == ("config error: a: sqrt of negative value in "
                       "sqrt(((sin((pi * (t - 0.2501220703125))) ^ 2.0) - 1e-10)) "
                       "at t=0.2501220703125\n")

    def test_coefficient_not_finite_at_fixed_point_exit_2(self, tmp_path, capsys):
        # a is undefined only within 3e-11 of the attracting fixed point, which
        # lies between the scan nodes; eta there once printed "eta0": NaN, exit 0
        tau = "0.5484933420107154"
        a = f"sqrt((sin(pi*(t-{tau})))^2-1e-20)"
        err = run_error(["analyze", "-c", write_config(
            tmp_path, shift={"lift": "t+0.03+0.1*sin(2*pi*t)"}, a=a, b="3")], capsys)
        assert err == (f"config error: a: sqrt of negative value in "
                       f"sqrt(((sin((pi * (t - {tau}))) ^ 2.0) - 1e-20)) at t={tau}\n")

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_lift_derivative_not_finite_at_fixed_point_exit_2(self, tmp_path, capsys, command):
        # alpha' is 0/0 only at the attracting fixed point, between the scan
        # nodes; analyze once crashed on "eta0": NaN and verify said "disagree"
        tau = "0.5484933420107154"
        lift = f"t+0.03+0.1*sin(2*pi*t)+0.001*abs(sin(2*pi*(t-{tau})))"
        err = run_error([command, "-c", write_config(tmp_path, shift={"lift": lift})], capsys)
        u = f"sin(((2.0 * pi) * (t - {tau})))"
        assert err == (f"config error: shift.lift': division by zero in "
                       f"(({u} * (cos(((2.0 * pi) * (t - {tau}))) * (2.0 * pi))) / abs({u})) "
                       f"at t={tau}\n")

    def test_lift_not_finite_names_it_once(self, tmp_path, capsys):
        # the leaf names shift.lift; the CLI adds no second prefix
        lift = "t+0.05*sin(2*pi*t)+0*sqrt(t-0.5)"
        err = run_error(["analyze", "-c", write_config(tmp_path, shift={"lift": lift})], capsys)
        assert err == ("config error: shift.lift: sqrt of negative value in sqrt((t - 0.5)) "
                       "at t=0.0\n")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert cli.run(["analyze", "-c", cfg, "-o", str(out1)]) == 0
        assert cli.run(["analyze", "-c", cfg, "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def config_with(tmp_path, path, value=None):
    """The write_config config with the dotted path set to value (removed for None)."""
    cfg = json.loads(Path(write_config(tmp_path)).read_text(encoding="utf-8"))
    *parents, leaf = path.split(".")
    node = cfg
    for key in parents:
        node = node.setdefault(key, {})
    if value is None:
        node.pop(leaf, None)
    else:
        node[leaf] = value
    out = tmp_path / "edited.json"
    out.write_text(json.dumps(cfg), encoding="utf-8")
    return str(out)


def run_error(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    return captured.err


class TestConfigTable:
    # only verify reads the oracle block, so only verify checks it
    @pytest.mark.parametrize("path", sorted(cli.CONFIG_FIELDS))
    def test_wrong_type_exit_2(self, tmp_path, capsys, path):
        typ = cli.CONFIG_FIELDS[path][0]
        value = 1.5 if typ is str else "x"
        command = "verify" if path.startswith("oracle.") else "analyze"
        err = run_error([command, "-c", config_with(tmp_path, path, value)], capsys)
        got = type(value).__name__
        assert err == f"config error: config field {path} must be {typ.__name__}, got {got}\n"

    @pytest.mark.parametrize("path", sorted(p for p, (_, default) in cli.CONFIG_FIELDS.items()
                                            if default is None))
    def test_missing_required_exit_2(self, tmp_path, capsys, path):
        err = run_error(["analyze", "-c", config_with(tmp_path, path)], capsys)
        assert err == f"config error: missing required config field {path}\n"

    @pytest.mark.parametrize("section", sorted({p.split(".")[0] for p in cli.CONFIG_FIELDS
                                                if "." in p}))
    def test_unknown_subkey_exit_2(self, tmp_path, capsys, section):
        err = run_error(["analyze", "-c", config_with(tmp_path, f"{section}.bogus", 1)], capsys)
        assert err == f"config error: unknown config field {section}.bogus\n"

    @pytest.mark.parametrize("section, value", [
        ("oracle", [64, 128, 256]),
        ("shift", "t+0.1*sin(2*pi*t)"),
        ("space", [1 / 3, 0.5]),
    ])
    def test_section_not_object_exit_2(self, tmp_path, capsys, section, value):
        err = run_error(["analyze", "-c", config_with(tmp_path, section, value)], capsys)
        got = type(value).__name__
        assert err == f"config error: config field {section} must be object, got {got}\n"

    @pytest.mark.parametrize("config, message", [
        (None, "cannot read config: [Errno 2] No such file or directory: {path!r}"),
        ('{"shift": ', "config is not valid JSON: Expecting value: line 1 column 11 (char 10)"),
        ("[1, 2]", "config root must be a JSON object"),
        (("shift.orientation", "forward"),
         "shift.orientation must be one of auto|preserve|reverse"),
        (("shift.lift", "t+0.1*sin(2*pi*t"), "shift.lift: expected ')' (byte offset 16)"),
        (("shift.lift", "t+sin(2*pi*t)/(2*pi)"),
         "shift.lift: lift derivative vanishes on [0,1]; not a diffeomorphism"),
        (("shift.lift", "2*t"), "shift.lift: |L(1)-L(0)| = 2.0, expected 1 within 1e-9"),
        (("a", "t"), "coefficient a is not 1-periodic"),
    ], ids=["missing_file", "invalid_json", "root_not_object", "orientation", "lift_syntax",
            "lift_derivative_vanishes", "lift_jump", "a_not_periodic"])
    def test_config_error_exit_2(self, tmp_path, capsys, config, message):
        # config: None for no file, raw text, or a (dotted path, value) edit
        path = tmp_path / "raw.json"
        if isinstance(config, tuple):
            path = Path(config_with(tmp_path, *config))
        elif config is not None:
            path.write_text(config, encoding="utf-8")
        err = run_error(["analyze", "-c", str(path)], capsys)
        assert err == f"config error: {message.format(path=str(path))}\n"


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

    def test_multiplicity_two_json(self, tmp_path, capsys):
        # the reflection 1-t: every point has period 2 and alpha_2' = 1
        code = cli.run(["radius", "-c", write_config(tmp_path, shift={"lift": "1-t"}),
                        "--weight", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["radius_lebesgue"] == 1.0
        assert out["radius_bound"] == 1.0

    def test_p_out_of_range_exit_2(self, tmp_path, capsys):
        code = cli.run(["radius", "-c", write_config(tmp_path), "--weight", "1", "--p", "1"])
        assert code == 2
        assert "--p" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["log(t-0.5)", "1/(t-0.5)"])
    def test_undefined_weight_exit_2(self, tmp_path, capsys, weight):
        # undefined at the fixed point 0.5: no NaN/Infinity in the output
        code = cli.run(["radius", "-c", write_config(tmp_path), "--weight", weight])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "config error: --weight:" in captured.err


class TestSpectrumArgs:
    def test_too_few_samples_exit_2(self, tmp_path, capsys):
        code = cli.run(["spectrum", "-c", write_config(tmp_path), "--weight", "1",
                        "--samples", "10"])
        assert code == 2
        assert "samples" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["log(t-0.5)", "1/(t-0.5)"])
    def test_undefined_weight_exit_2(self, tmp_path, capsys, weight):
        code = cli.run(["spectrum", "-c", write_config(tmp_path), "--weight", weight])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "config error: --weight:" in captured.err


class TestVerify:
    def test_agreement_two_sided(self, tmp_path, capsys):
        cfg = write_config(tmp_path, oracle={"grids": [64, 128, 256], "seed": 24301})
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

    def test_default_oracle_is_evidence_default(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = cli.run(["verify", "-c", cfg])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        op = cli.build_operator(cli.load_config(cfg))
        evidence = invertibility_evidence(op, verdict=out["verdict"])
        assert out["evidence"] == json.loads(cli.dump_json(evidence.to_dict()))

    @pytest.mark.parametrize("oracle", [
        {"grids": [100, 200, 400]},
        {"grids": [256, 128, 64]},
        {"grids": ["a", 128, 256]},
    ])
    def test_bad_oracle_config_exit_2(self, tmp_path, capsys, oracle):
        code = cli.run(["verify", "-c", write_config(tmp_path, oracle=oracle)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("config error: oracle")

    @pytest.mark.parametrize("oracle, message", [
        ({"seed": True}, "oracle.seed must be int, got bool"),
    ])
    def test_bool_in_oracle_field_exit_2(self, tmp_path, capsys, oracle, message):
        code = cli.run(["verify", "-c", write_config(tmp_path, oracle=oracle)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert message in captured.err


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

    def test_dump_json_rejects_non_finite(self):
        with pytest.raises(ValueError):
            cli.dump_json({"x": float("nan")})

    def test_missing_config_flag(self):
        assert cli.run(["analyze"]) == 2
