"""Command line interface: JSON-config-driven analysis with JSON/CSV output.

Subcommands: analyze, spectrum, decompose, radius, verify.  Exit codes:
0 success, 2 config error, 3 undecidable verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import exprlang
from .circle import Shift, StructureError
from .indices import lebesgue, space_indices
from .analysis import OperatorSpec, decide, operator_spec
from .spectrum import SAMPLES, radius_bound, shift_spectrum, spectrum_to_csv
from .oracle import DEFAULT_LADDER, DEFAULT_SEED, invertibility_evidence

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNDECIDABLE = 3

# every config field: dotted path -> (type, default); a None default marks it required
CONFIG_FIELDS = {
    "shift.lift": (str, None), "shift.orientation": (str, "auto"),
    "a": (str, None), "b": (str, None),
    "space.alpha": (float, None), "space.beta": (float, None),
    "space.fundamental_type": (bool, True),
    "oracle.grids": (list, DEFAULT_LADDER), "oracle.seed": (int, DEFAULT_SEED),
}


class ConfigError(ValueError):
    pass


def _require(cfg: dict, path: str):
    """The config's value at path, checked against CONFIG_FIELDS."""
    typ, default = CONFIG_FIELDS[path]
    node = cfg
    keys = path.split(".")
    for k in keys[:-1]:
        node = node.get(k, {}) if isinstance(node, dict) else {}
    if not isinstance(node, dict) or keys[-1] not in node:
        if default is None:
            raise ConfigError(f"missing required config field {path}")
        return default
    val = node[keys[-1]]
    if typ is float and type(val) is int:
        val = float(val)
    # bool subclasses int, but true and false are not numbers
    if not isinstance(val, typ) or isinstance(val, bool) != (typ is bool):
        raise ConfigError(f"config field {path} must be {typ.__name__}, got {type(val).__name__}")
    return val


def load_config(path: str) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _check_fields(cfg: dict):
    """Reject unknown keys, so a misspelt field is not ignored, and non-object sections."""
    sections = {path.split(".")[0] for path in CONFIG_FIELDS}
    for key, val in cfg.items():
        if key not in sections:
            raise ConfigError(f"unknown config field {key}")
        if key not in CONFIG_FIELDS and not isinstance(val, dict):
            raise ConfigError(f"config field {key} must be object, got {type(val).__name__}")
        if isinstance(val, dict) and key not in CONFIG_FIELDS:
            for sub in val:
                if f"{key}.{sub}" not in CONFIG_FIELDS:
                    raise ConfigError(f"unknown config field {key}.{sub}")


@contextmanager
def _input_errors(name: str):
    """A ValueError is a config error; a parse error names the input (a domain error its Fn)."""
    try:
        yield
    except exprlang.ParseError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_operator(cfg: dict) -> OperatorSpec:
    _check_fields(cfg)
    lift = _require(cfg, "shift.lift")
    orientation = _require(cfg, "shift.orientation")
    if orientation not in ("auto", "preserve", "reverse"):
        raise ConfigError("shift.orientation must be one of auto|preserve|reverse")
    a_text = _require(cfg, "a")
    b_text = _require(cfg, "b")
    alpha = _require(cfg, "space.alpha")
    beta = _require(cfg, "space.beta")
    fundamental = _require(cfg, "space.fundamental_type")

    try:
        shift = Shift.from_lift(lift, orientation=orientation)
    # an EvalDomainError passes: it names its leaf, shift.lift or shift.lift'
    except (exprlang.ParseError, StructureError) as exc:
        raise ConfigError(f"shift.lift: {exc}") from exc
    with _input_errors("a"):
        a = exprlang.parse(a_text)
    with _input_errors("b"):
        b = exprlang.parse(b_text)
    try:
        space = space_indices(alpha, beta, fundamental)
    except ValueError as exc:
        raise ConfigError(f"space.alpha/space.beta: {exc}") from exc
    try:
        return operator_spec(a, b, shift, space)
    except (StructureError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def dump_json(payload: dict) -> str:
    """Sorted, indented JSON; a non-finite float raises ValueError (it is not JSON)."""
    return json.dumps(_round_floats(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _structure_dict(op: OperatorSpec) -> dict:
    ps = op.structure
    return {
        "m": ps.m,
        "orientation": ps.orientation,
        "uncertain": ps.uncertain,
        "lambda_points": list(ps.lambda_points),
        "lambda_arcs": [[a.start, a.end] for a in ps.lambda_arcs],
        "y": list(ps.y),
        "yprime": list(ps.yprime),
        "omega": [[a.start, a.end] for a in ps.omega],
        "gamma": [{"start": g.start, "end": g.end,
                   "tau_minus": g.tau_minus, "tau_plus": g.tau_plus}
                  for g in ps.gamma],
    }


def cmd_analyze(args) -> int:
    op = build_operator(load_config(args.config))
    report = decide(op)
    payload = report.to_dict()
    payload["structure"] = _structure_dict(op)
    _emit(dump_json(payload), args.output)
    return EXIT_UNDECIDABLE if report.verdict == "undecidable" else EXIT_OK


def cmd_decompose(args) -> int:
    op = build_operator(load_config(args.config))
    _emit(dump_json(_structure_dict(op)), args.output)
    return EXIT_UNDECIDABLE if op.structure.uncertain else EXIT_OK


def cmd_spectrum(args) -> int:
    op = build_operator(load_config(args.config))
    with _input_errors("--weight"):
        weight = exprlang.Fn.of(exprlang.parse(args.weight), "--weight")
        ss = shift_spectrum(weight, op.shift, op.structure, op.space, samples=args.samples)
    _emit(spectrum_to_csv(ss), args.output)
    return EXIT_OK


def cmd_radius(args) -> int:
    op = build_operator(load_config(args.config))
    with _input_errors("--weight"):
        weight = exprlang.Fn.of(exprlang.parse(args.weight), "--weight")
    try:
        lp = lebesgue(args.p)
    except ValueError as exc:
        raise ConfigError(f"--p: {exc}") from exc
    with _input_errors("--weight"):
        payload = {
            "p": args.p,
            "radius_lebesgue": radius_bound(weight, op.shift, op.structure, lp),
            "radius_bound": radius_bound(weight, op.shift, op.structure, op.space),
            "indices": {"alpha": op.space.alpha, "beta": op.space.beta},
        }
    _emit(dump_json(payload), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    op = build_operator(cfg)
    report = decide(op)
    grids = _require(cfg, "oracle.grids")
    seed = _require(cfg, "oracle.seed")
    try:
        evidence = invertibility_evidence(op, N_ladder=grids, seed=seed,
                                          verdict=report.verdict)
    except ValueError as exc:
        raise ConfigError(f"oracle: {exc}") from exc
    # the ladder tests only two-sided and nowhere-invertible behaviour
    if report.verdict == "two_sided":
        agreement = "agree" if evidence.consistent_two_sided else "disagree"
    elif report.verdict == "neither":
        agreement = "agree" if evidence.consistent_neither else "disagree"
    else:
        agreement = "not_tested"
    payload = {
        "verdict": report.verdict,
        "agreement": agreement,
        "evidence": evidence.to_dict(),
    }
    _emit(dump_json(payload), args.output)
    return EXIT_UNDECIDABLE if report.verdict == "undecidable" else EXIT_OK


@functools.cache   # one parser, built on the first call, for every run
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftop",
        description="Invertibility and spectra of a*I - b*W with a circle shift")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **extra):
        sp = sub.add_parser(name)
        sp.add_argument("-c", "--config", required=True, help="JSON config path")
        sp.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        for flag, kw in extra.items():
            sp.add_argument(flag, **kw)
        sp.set_defaults(fn=fn)
        return sp

    add("analyze", cmd_analyze)
    add("decompose", cmd_decompose)
    add("spectrum", cmd_spectrum,
        **{"--weight": {"required": True, "help": "weight expression"},
           "--samples": {"type": int, "default": SAMPLES}})
    add("radius", cmd_radius,
        **{"--weight": {"required": True, "help": "weight expression"},
           "--p": {"type": float, "default": 2.0}})
    add("verify", cmd_verify)
    return parser


def run(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    # EvalDomainError: an input expression undefined where no check evaluated it
    except (ConfigError, exprlang.EvalDomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
