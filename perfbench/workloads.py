"""The four workloads: a seeded list of operations each, and their checks.

A workload is built from ``--seed`` alone.  Its ``ops`` are run in whole
passes; ``check`` runs after the timed region and returns one flag per
operation of a pass.  Every operation builds its own shifts and
operators, so each pass repeats exactly the same work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import references as ref
from references import TWO_PI
from shiftop import analysis, circle, cli, exprlang, indices, oracle, spectrum

SPACE_CFG = {"alpha": ref.SPACE[0], "beta": ref.SPACE[1]}
GRID_N = 1024          # grid of the matrix-free spectral operations
RADIUS_ITERS = 200
NEUMANN_TERMS = 40


@dataclass(frozen=True)
class Op:
    label: str
    fn: Callable[[], object]
    fault: str | None = None    # named known fault: this operation fails every time


class OpTimeout(Exception):
    """Raised from the interval timer when an operation runs over its CPU time limit."""


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def _write_config(workdir: Path | None, name: str, lift: str, a: str, b: str) -> str:
    """Write a CLI config (none when only listing inputs) and return its path."""
    path = Path(workdir or ".") / f"{name}.json"
    if workdir is not None:
        cfg = {"shift": {"lift": lift}, "a": a, "b": b, "space": SPACE_CFG}
        path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def _verdict(out) -> str | None:
    if not isinstance(out, tuple) or out[0] not in (cli.EXIT_OK, cli.EXIT_UNDECIDABLE):
        return None
    return json.loads(out[1])["verdict"]


class DecideSweep:
    """`shiftop analyze` through cli.run on fixture, seeded and fault configs.

    Seeded operators are harmonics c + r*cos(2*pi*k*t + phi) on six lifts,
    three on each lift with moving arcs, one on each Carleman lift, and one
    whose R condition walks forward orbits; each runs beside its
    rotation-conjugated twin (t -> t + c).  That mix keeps
    the median operation inside the dense cluster of moving-lift analyses
    (30-100 ms) rather than at its gap with the Carleman ones (~15 ms).
    """

    time_limit = 0.3   # CPU s per operation; the slowest other analyze takes ~0.09 s

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.ops: list[Op] = []
        self.expected: list = []   # verdict, tuple of allowed verdicts, or index of the twin
        self.inputs: list = []

        def add(name, lift, a, b, expected, fault=None):
            path = _write_config(workdir, name, lift, a, b)
            self.ops.append(Op(name, lambda: run_cli(["analyze", "-c", path]), fault))
            self.expected.append(expected)
            self.inputs.append({"name": name, "lift": lift, "a": a, "b": b})

        for name, (lift, a, b, verdict) in ref.FIXTURES.items():
            add(name, lift, a, b, (verdict,))
        seeded = [(f"L{li}-{oi}", lift, template)
                  for li, lift in enumerate(ref.LIFTS.values())
                  for oi, template in enumerate(ref.templates(lift, 3 if lift.fixed else 1))]
        seeded.append(("R_walk", ref.R_WALK[0], ref.R_WALK[1:]))
        for name, lift, template in seeded:
            a, b = ref.seeded_operator(rng, lift, *template)
            c = round(rng.uniform(0.05, 0.95), 3)
            add(name, lift.text, a.text(), b.text(), None)
            add(name + "-twin", ref.conjugate(lift.text, c, lift=True),
                ref.conjugate(a.text(), c), ref.conjugate(b.text(), c), len(self.ops) - 1)
        add("narrow_dip", *ref.NARROW_DIP, ref.narrow_dip_reference()["allowed"],
            fault="narrow_dip")
        add("orbit_stall", *ref.ORBIT_STALL, None, fault="orbit_stall")

    def check(self, outs: list, first: list) -> list[bool]:
        ok = []
        for i, (out, exp) in enumerate(zip(outs, self.expected)):
            verdict = _verdict(out)
            if verdict is None:
                good = False
            elif isinstance(exp, tuple):
                good = verdict in exp
            elif isinstance(exp, int):
                good = verdict == _verdict(outs[exp])
            else:
                good = True
            ok.append(good and out == first[i])   # byte-identical across passes
        return ok


def _duality_op(lift: str, a: str, b: str, points: tuple[float, ...]):
    shift = circle.Shift.from_lift(lift)
    op = analysis.operator_spec(a, b, shift, indices.space_indices(*ref.SPACE))
    m = op.m
    rep = analysis.decide(op)
    rep_adj = analysis.decide(analysis.adjoint_spec(op))
    reduced = None
    if m == 2:
        op_m, cond = analysis.reduce_to_fixed(op)
        reduced = (analysis.decide(op_m).right, cond)
    paths = []
    for t in points:
        limits = analysis.eta_limits(op, t)
        fwd = analysis.eta_values(op, shift.apply(t, 50 * m))
        bwd = analysis.eta_values(op, shift.apply(t, -50 * m))
        paths.append((limits, fwd, bwd))
    return rep.right, rep.left, rep_adj.right, rep_adj.left, reduced, paths


class OrbitDuality:
    """Adjoint duality, fixed-point reduction and eta two-path limits."""

    time_limit = None
    FIXTURES = ("F1", "F4", "F5", "F6", "F7", "F9")
    SEEDED_LIFTS = ("t+0.1*sin(2*pi*t)", "t+0.05*sin(4*pi*t)",
                    "t+0.03+0.1*sin(2*pi*t)", "t+0.5", "1-t")

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        cases = [(name, *ref.FIXTURES[name][:3]) for name in self.FIXTURES]
        for li, text in enumerate(self.SEEDED_LIFTS):
            lift = ref.LIFTS[text]
            a, b = ref.seeded_operator(rng, lift, *ref.templates(lift, 1)[0])
            cases.append((f"L{li}", text, a.text(), b.text()))
        self.ops = []
        self.inputs = []
        for name, lift, a, b in cases:
            points = (round(rng.uniform(0.0, 1.0), 6),)
            self.ops.append(Op(name, lambda l=lift, a=a, b=b, p=points: _duality_op(l, a, b, p)))
            self.inputs.append({"name": name, "lift": lift, "a": a, "b": b, "points": points})

    def check(self, outs: list, first: list) -> list[bool]:
        ok = []
        for out in outs:
            if not isinstance(out, tuple):
                ok.append(False)
                continue
            right, left, right_adj, left_adj, reduced, paths = out
            good = right == left_adj and left == right_adj
            if reduced is not None:
                good = good and right == (reduced[0] and reduced[1])
            for (e0m, e0p, e1m, e1p), (f0, f1), (b0, b1) in paths:
                err = max(abs(f0 - e0p), abs(f1 - e1p), abs(b0 - e0m), abs(b1 - e1m))
                good = good and err <= 1e-8
            ok.append(good)
        return ok


class VerifyLadder:
    """`shiftop verify` through cli.run on the default ladder (256, 512, 1024).

    One fixture and one constant-coefficient operator on S1 whose verdict
    follows from the eta bands (references.constant_verdict_bands).
    """

    time_limit = None

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        name = rng.choice(sorted(ref.FIXTURES))
        lift, a, b, verdict = ref.FIXTURES[name]
        bands = ref.constant_verdict_bands()
        kind = rng.choice(sorted(bands))
        lo, hi = bands[kind]
        cb = round(rng.uniform(0.5, 2.0), 4)
        ca = round(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi) * cb, 4)
        cases = [(name, lift, a, b, verdict), ("const", ref.S1.text, repr(ca), repr(cb), kind)]
        self.ops, self.expected, self.inputs = [], [], []
        for name, lift, a, b, verdict in cases:
            path = _write_config(workdir, name, lift, a, b)
            self.ops.append(Op(name, lambda p=path: run_cli(["verify", "-c", p])))
            self.expected.append(verdict)
            self.inputs.append({"name": name, "lift": lift, "a": a, "b": b, "verdict": verdict})

    def check(self, outs: list, first: list) -> list[bool]:
        ok = []
        for out, verdict in zip(outs, self.expected):
            if _verdict(out) != verdict:
                ok.append(False)
                continue
            evidence = json.loads(out[1])["evidence"]
            if verdict == "two_sided":
                ok.append(evidence["consistent_two_sided"])
            elif verdict == "neither":
                ok.append(evidence["consistent_neither"])
            else:
                ok.append(True)
        return ok


def _radius_op(lift: str, g: str):
    grid = oracle.weighted_shift_grid(exprlang.parse(g), circle.Shift.from_lift(lift),
                                      GRID_N, 2.0)
    return oracle.estimate_radius_numeric(grid, iters=RADIUS_ITERS).estimate


def _neumann_op(lift: str, a: str, b: str, f: str):
    shift = circle.Shift.from_lift(lift)
    op = analysis.operator_spec(a, b, shift, indices.lebesgue(2.0),
                                structure=circle.compute_periodic_structure(shift))
    res = oracle.neumann_apply(op, exprlang.parse(f), GRID_N, NEUMANN_TERMS)
    return res.branch, res.residual, res.measured_ratio, res.radius_bound


def _spectrum_op(lift: str, d: str):
    shift = circle.Shift.from_lift(lift)
    structure = circle.compute_periodic_structure(shift)
    space = indices.space_indices(*ref.SPACE)
    weight = exprlang.parse(d)
    ss = spectrum.shift_spectrum(weight, shift, structure, space)
    bound = spectrum.radius_bound(weight, shift, structure, space)
    return [(a.r_in, a.r_out) for a in ss.raw_annuli], bound


class SpectralRadius:
    """Matrix-free oracle (stencil matvecs) and closed-form spectra.

    Per pass: a radius estimate on each moving lift, a Neumann inverse in
    each branch on S1, and shift_spectrum + radius_bound on the two lifts
    whose fixed points are exact binary fractions (elsewhere the detected
    fixed points carry a 1e-12 error that the 1e-12 annulus check sees).
    Radius weights peak at the attracting fixed points and Neumann weights
    are constant: the estimators' documented domain, where the finite
    window of matrix powers already shows the asymptotic rate.
    """

    time_limit = None
    RADIUS_LIFTS = ("t+0.1*sin(2*pi*t)", "t+0.05*sin(4*pi*t)", "t+0.03+0.1*sin(2*pi*t)")
    SPECTRUM_LIFTS = ("t+0.1*sin(2*pi*t)", "t+0.05*sin(4*pi*t)")
    RHS = "1+0.3*sin(2*pi*t)+0.1*cos(4*pi*t)"

    def __init__(self, seed: int, workdir: Path | None):
        base = random.Random(f"{ref.TEMPLATE_SEED}:spectral")   # fixed templates
        rng = random.Random(seed)                                 # jitter
        self.ops, self.expected, self.inputs = [], [], []

        def add(label, fn, expected, **inputs):
            self.ops.append(Op(label, fn))
            self.expected.append(expected)
            self.inputs.append({"name": label, **inputs})

        def scaled(x):
            return round(x * (1.0 + rng.uniform(-ref.JITTER, ref.JITTER)), 3)

        for text in self.RADIUS_LIFTS:
            lift = ref.LIFTS[text]
            attracting = [f for f in lift.fixed if abs(lift.deriv(f)) < 1.0]
            k = len(attracting)
            c = base.uniform(0.5, 2.0)
            g = ref.Harmonic(scaled(c), scaled(base.uniform(0.0, 0.9) * c), k,
                             round(-TWO_PI * k * attracting[0], 6))
            if not ref.radius_reliable(lift.fixed, lift.deriv, g):
                raise ValueError(f"weight {g.text()} outside the estimator's domain")
            add("radius", lambda l=text, g=g.text(): _radius_op(l, g),
                ref.radius_reference(lift.fixed, lift.deriv, g)[0], lift=text, g=g.text())
        s1 = ref.S1
        # the Neumann series iterates (b/a) W, or (a/b) W^{-1} whose shift has derivative 1/alpha'
        for branch, deriv in (("dominant-a", s1.deriv), ("dominant-b", lambda t: 1 / s1.deriv(t))):
            c = scaled(base.uniform(0.1, 0.45))
            a, b = ("1", repr(c)) if branch == "dominant-a" else (repr(c), "1")
            bound = ref.radius_reference(s1.fixed, deriv, lambda t, c=c: c)[0]
            add("neumann", lambda a=a, b=b: _neumann_op(s1.text, a, b, self.RHS),
                (branch, bound), lift=s1.text, a=a, b=b)
        for text in self.SPECTRUM_LIFTS:
            lift = ref.LIFTS[text]
            c = base.uniform(0.5, 2.0)
            d = ref.jitter(ref.Harmonic(c, base.uniform(0.0, 0.9) * c, base.choice((1, 2)),
                                        base.uniform(0.0, TWO_PI)), rng)
            add("spectrum", lambda l=text, d=d.text(): _spectrum_op(l, d),
                (ref.annuli_reference(lift, d), ref.bound_reference(lift, d, ref.SPACE)),
                lift=text, d=d.text())

    def check(self, outs: list, first: list) -> list[bool]:
        ok = []
        for op, out, exp in zip(self.ops, outs, self.expected):
            if isinstance(out, BaseException):
                ok.append(False)
            elif op.label == "radius":
                ok.append(abs(out - exp) <= 0.05 * exp)
            elif op.label == "neumann":
                branch, residual, measured, bound = out
                ok.append(branch == exp[0] and residual < 1e-3
                          and abs(measured - exp[1]) <= 0.1 * exp[1]
                          and math.isclose(bound, exp[1], rel_tol=1e-9))
            else:
                annuli, bound = out
                ok.append(len(annuli) == len(exp[0])
                          and all(math.isclose(x, y, rel_tol=0.0, abs_tol=1e-12)
                                  for got, want in zip(sorted(annuli), sorted(exp[0]))
                                  for x, y in zip(got, want))
                          and math.isclose(bound, exp[1], rel_tol=0.0, abs_tol=1e-12))
        return ok


WORKLOADS = {
    "decide_sweep": DecideSweep,
    "orbit_duality": OrbitDuality,
    "verify_ladder": VerifyLadder,
    "spectral_radius": SpectralRadius,
}


def build_all(seed: int) -> dict:
    """Seeded inputs and expected values of every workload."""
    out = {}
    for name, cls in WORKLOADS.items():
        wl = cls(seed, None)
        expected = getattr(wl, "expected", None) or [None] * len(wl.inputs)
        out[name] = [dict(inp, expected=exp) for inp, exp in zip(wl.inputs, expected)]
    return out
