"""Command line interface: JSON-config-driven analysis with JSON/CSV output.

Subcommands: analyze, spectrum, decompose, radius, verify.  Exit codes:
0 success, 2 config error, 3 undecidable verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import exprlang
from .circle import Shift, StructureError, compute_periodic_structure
from .indices import lebesgue, space_indices
from .analysis import OperatorSpec, decide, operator_spec
from .spectrum import radius_bound, shift_spectrum, spectrum_to_csv
from .oracle import invertibility_evidence

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNDECIDABLE = 3

DEFAULT_TOLERANCES = {"zero": 1e-12, "flat": 1e-11}
DEFAULT_ORACLE = {"grids": [256, 512, 1024], "p": 2.0, "seed": 0x5EED}
# every config field: top-level key -> its sub-keys (None for a leaf)
CONFIG_FIELDS = {"shift": ("lift", "orientation"), "a": None, "b": None,
                 "space": ("alpha", "beta", "fundamental_type"),
                 "tolerances": tuple(DEFAULT_TOLERANCES), "oracle": tuple(DEFAULT_ORACLE)}


class ConfigError(ValueError):
    pass


def _require(cfg: dict, path: str, typ, default=None, required=False):
    node = cfg
    keys = path.split(".")
    for k in keys[:-1]:
        node = node.get(k, {}) if isinstance(node, dict) else {}
    if not isinstance(node, dict) or keys[-1] not in node:
        if required:
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
    """Reject any key outside CONFIG_FIELDS, so a misspelt field is not ignored."""
    for key, val in cfg.items():
        if key not in CONFIG_FIELDS:
            raise ConfigError(f"unknown config field {key}")
        if isinstance(val, dict) and CONFIG_FIELDS[key]:
            for sub in val:
                if sub not in CONFIG_FIELDS[key]:
                    raise ConfigError(f"unknown config field {key}.{sub}")


def build_operator(cfg: dict) -> OperatorSpec:
    _check_fields(cfg)
    lift = _require(cfg, "shift.lift", str, required=True)
    orientation = _require(cfg, "shift.orientation", str, default="auto")
    if orientation not in ("auto", "preserve", "reverse"):
        raise ConfigError("shift.orientation must be one of auto|preserve|reverse")
    a_text = _require(cfg, "a", str, required=True)
    b_text = _require(cfg, "b", str, required=True)
    alpha = _require(cfg, "space.alpha", float, required=True)
    beta = _require(cfg, "space.beta", float, required=True)
    fundamental = _require(cfg, "space.fundamental_type", bool, default=True)
    tol_zero = _require(cfg, "tolerances.zero", float, default=DEFAULT_TOLERANCES["zero"])
    tol_flat = _require(cfg, "tolerances.flat", float, default=DEFAULT_TOLERANCES["flat"])

    try:
        shift = Shift.from_lift(lift, orientation=orientation)
    except (exprlang.ExprError, StructureError) as exc:
        raise ConfigError(f"shift.lift: {exc}") from exc
    try:
        a = exprlang.parse(a_text)
    except exprlang.ExprError as exc:
        raise ConfigError(f"a: {exc}") from exc
    try:
        b = exprlang.parse(b_text)
    except exprlang.ExprError as exc:
        raise ConfigError(f"b: {exc}") from exc
    try:
        space = space_indices(alpha, beta, fundamental)
    except ValueError as exc:
        raise ConfigError(f"space.alpha/space.beta: {exc}") from exc
    try:
        structure = compute_periodic_structure(shift, tol=tol_zero, flat_tol=tol_flat)
        return operator_spec(a, b, shift, space, structure=structure)
    except (StructureError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _round_floats(obj, digits: int = 12):
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def dump_json(payload: dict) -> str:
    return json.dumps(_round_floats(payload), sort_keys=True, indent=2) + "\n"


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
    try:
        weight = exprlang.parse(args.weight)
    except exprlang.ExprError as exc:
        raise ConfigError(f"--weight: {exc}") from exc
    try:
        ss = shift_spectrum(weight, op.shift, op.structure, op.space,
                            samples=args.samples)
    except exprlang.ExprError as exc:
        raise ConfigError(f"--weight: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _emit(spectrum_to_csv(ss), args.output)
    return EXIT_OK


def cmd_radius(args) -> int:
    op = build_operator(load_config(args.config))
    try:
        weight = exprlang.parse(args.weight)
    except exprlang.ExprError as exc:
        raise ConfigError(f"--weight: {exc}") from exc
    try:
        lp = lebesgue(args.p)
    except ValueError as exc:
        raise ConfigError(f"--p: {exc}") from exc
    try:
        payload = {
            "p": args.p,
            "radius_lebesgue": radius_bound(weight, op.shift, op.structure, lp),
            "radius_bound": radius_bound(weight, op.shift, op.structure, op.space),
            "indices": {"alpha": op.space.alpha, "beta": op.space.beta},
        }
    except exprlang.ExprError as exc:
        raise ConfigError(f"--weight: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _emit(dump_json(payload), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    op = build_operator(cfg)
    report = decide(op)
    grids = _require(cfg, "oracle.grids", list, default=DEFAULT_ORACLE["grids"])
    p = _require(cfg, "oracle.p", float, default=DEFAULT_ORACLE["p"])
    seed = _require(cfg, "oracle.seed", int, default=DEFAULT_ORACLE["seed"])
    if not all(type(n) is int for n in grids):
        raise ConfigError("oracle.grids must be a list of int")
    try:
        evidence = invertibility_evidence(op, N_ladder=tuple(grids), p=p, seed=seed,
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
           "--samples": {"type": int, "default": 512}})
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
