"""Reference values and seeded inputs for the benchmark, computed apart from shiftop.

Nothing here imports shiftop: lifts, fixed points, dilation factors, eta
values, radii and annuli are written out in closed form with ``math``
(numpy only samples the symbol of the Carleman-lift operators), so a check
never compares the program with itself.  Running the file prints
every derived reference value for one seed::

    python3 perfbench/references.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
SPACE = (1.0 / 3.0, 0.5)   # Boyd indices (alpha_X, beta_X) of every decided operator
ZERO_MARGIN = 0.01         # min circle distance of a coefficient zero from a fixed point
ETA_MARGIN = 0.01          # min |eta| at a fixed point
AMP_MARGIN = 0.1           # min ||c| - r| of a coefficient c + r*cos(...)
TEMPLATE_SEED = 7          # fixed templates covering all four verdicts; --seed jitters them
JITTER = 0.02              # relative jitter of template amplitudes, absolute of phases


@dataclass(frozen=True)
class Lift:
    """A lift with its closed-form derivative and periodic structure.

    fixed: fixed points of alpha (m = 1 lifts with moving arcs), sorted;
    empty for the Carleman lifts whose m-th iterate is the identity.
    """

    text: str
    m: int
    fixed: tuple[float, ...]
    value: object       # t -> L(t) on R
    deriv: object       # t -> L'(t)

    def arcs(self):
        """(start, end, tau_minus, tau_plus) of each moving arc, end > start."""
        out = []
        for i, s in enumerate(self.fixed):
            nxt = self.fixed[(i + 1) % len(self.fixed)]
            e = nxt + (1.0 if i == len(self.fixed) - 1 else 0.0)
            mid = 0.5 * (s + e)
            forward = self.value(mid) - mid > 0.0
            out.append((s, e, *((s, nxt) if forward else (nxt, s))))
        return out


_ASIN03 = math.asin(0.3) / TWO_PI
LIFTS = {
    lift.text: lift for lift in (
        Lift("t+0.1*sin(2*pi*t)", 1, (0.0, 0.5),
             lambda t: t + 0.1 * math.sin(TWO_PI * t),
             lambda t: 1.0 + 0.2 * math.pi * math.cos(TWO_PI * t)),
        Lift("t+0.05*sin(4*pi*t)", 1, (0.0, 0.25, 0.5, 0.75),
             lambda t: t + 0.05 * math.sin(2 * TWO_PI * t),
             lambda t: 1.0 + 0.2 * math.pi * math.cos(2 * TWO_PI * t)),
        Lift("t+0.03+0.1*sin(2*pi*t)", 1, (0.5 + _ASIN03, 1.0 - _ASIN03),
             lambda t: t + 0.03 + 0.1 * math.sin(TWO_PI * t),
             lambda t: 1.0 + 0.2 * math.pi * math.cos(TWO_PI * t)),
        Lift("t+0.5", 2, (), lambda t: t + 0.5, lambda t: 1.0),
        Lift("1-t", 2, (), lambda t: 1.0 - t, lambda t: -1.0),
        Lift("t", 1, (), lambda t: t, lambda t: 1.0),
    )
}
S1 = LIFTS["t+0.1*sin(2*pi*t)"]


def dilation(deriv: float, space=SPACE) -> tuple[float, float]:
    """min/max of |alpha'|^{-alpha_X}, |alpha'|^{-beta_X}."""
    fa, fb = abs(deriv) ** (-space[0]), abs(deriv) ** (-space[1])
    return min(fa, fb), max(fa, fb)


def circle_dist(s: float, t: float) -> float:
    d = abs(s - t) % 1.0
    return min(d, 1.0 - d)


@dataclass(frozen=True)
class Harmonic:
    """The coefficient c + r*cos(2*pi*k*t + phi)."""

    c: float
    r: float
    k: int
    phi: float

    def text(self) -> str:
        return f"{self.c!r}+{self.r!r}*cos(2*pi*{self.k}*t+{self.phi!r})"

    def __call__(self, t: float) -> float:
        return self.c + self.r * math.cos(TWO_PI * self.k * t + self.phi)

    def values(self, t: np.ndarray) -> np.ndarray:
        return self.c + self.r * np.cos(TWO_PI * self.k * t + self.phi)

    def zeros(self) -> list[float]:
        if abs(self.c) >= self.r:
            return []
        base = math.acos(-self.c / self.r)
        return sorted(((s * base - self.phi + TWO_PI * j) / (TWO_PI * self.k)) % 1.0
                      for s in (1.0, -1.0) for j in range(self.k))


def _draw_harmonic(rng: random.Random) -> Harmonic:
    while True:
        c = round(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.5), 3)
        r = round(rng.uniform(0.1, 2.0), 3)
        if abs(abs(c) - r) >= AMP_MARGIN:
            return Harmonic(c, r, rng.choice((1, 2)), round(rng.uniform(0.0, TWO_PI), 3))


def _arc_index(lift: Lift, t: float) -> int:
    for i, (s, e, _, _) in enumerate(lift.arcs()):
        if 0.0 < (t - s) % 1.0 < e - s:
            return i
    raise ValueError(f"{t!r} lies on a fixed point of {lift.text}")


def _moving_signature(lift: Lift, a: Harmonic, b: Harmonic):
    """Eta signs at the fixed points and the arcs holding the zeros of a and b.

    None unless zeros keep away from fixed points, eta keeps away from 0,
    and no zero of a and zero of b lie in two different moving arcs: such
    a pair sends the R/L orbit search through its full guard of 10**6
    steps (the fault kept once in decide_sweep), so it is left out here.
    """
    za, zb = a.zeros(), b.zeros()
    if any(circle_dist(z, f) < ZERO_MARGIN for z in za + zb for f in lift.fixed):
        return None
    signs = []
    for tau in lift.fixed:
        for d in dilation(lift.deriv(tau)):
            eta = abs(a(tau)) - abs(b(tau)) * d
            if abs(eta) < ETA_MARGIN:
                return None
            signs.append(eta > 0.0)
    arcs_a = [_arc_index(lift, z) for z in za]
    arcs_b = [_arc_index(lift, z) for z in zb]
    if arcs_a and arcs_b and len(set(arcs_a + arcs_b)) > 1:
        return None
    return tuple(signs), tuple(arcs_a), tuple(arcs_b)


def _carleman_signature(lift: Lift, a: Harmonic, b: Harmonic, n: int = 8192):
    """Number of symbol zeros; None unless they are transversal and well
    apart and no minimum of |symbol| nearly touches zero."""
    t = np.arange(n) / n
    u = lift.value(t) % 1.0
    s = a.values(t) - b.values(t) if lift.m == 1 else \
        a.values(t) * a.values(u) - b.values(t) * b.values(u)
    scale = float(np.max(np.abs(s)))
    nxt, prv = np.roll(s, -1), np.roll(s, 1)
    cross = (s < 0.0) != (nxt < 0.0)
    if np.any(np.abs(nxt - s)[cross] * n < 0.05 * scale):
        return None
    touch = ~cross & (np.abs(s) < 0.02 * scale) & (np.abs(s) <= np.abs(prv)) \
        & (np.abs(s) <= np.abs(nxt))
    if np.any(touch):
        return None
    at = t[cross]
    if len(at) > 1 and np.min(np.diff(np.append(at, at[0] + 1.0))) < 0.01:
        return None
    return len(at)


def signature(lift: Lift, a: Harmonic, b: Harmonic):
    """What decides the verdict and the work of decide() for a*I - b*W;
    None for an operator too close to a degenerate case to decide stably."""
    if lift.fixed:
        return _moving_signature(lift, a, b)
    return _carleman_signature(lift, a, b)


def templates(lift: Lift, count: int) -> list[tuple[Harmonic, Harmonic]]:
    """count fixed well-posed (a, b) pairs of harmonics on the given lift."""
    rng = random.Random(f"{TEMPLATE_SEED}:{lift.text}")
    out = []
    while len(out) < count:
        a, b = _draw_harmonic(rng), _draw_harmonic(rng)
        if signature(lift, a, b) is not None:
            out.append((a, b))
    return out


def jitter(h: Harmonic, rng: random.Random) -> Harmonic:
    return Harmonic(round(h.c * (1.0 + rng.uniform(-JITTER, JITTER)), 3),
                    round(h.r * (1.0 + rng.uniform(-JITTER, JITTER)), 3),
                    h.k, round(h.phi + rng.uniform(-JITTER, JITTER), 3))


def seeded_operator(rng: random.Random, lift: Lift, a: Harmonic, b: Harmonic):
    """A seeded variant of the template (a, b) with the same signature, so
    that every seed gives the same verdict and about the same work."""
    want = signature(lift, a, b)
    for _ in range(100):
        a2, b2 = jitter(a, rng), jitter(b, rng)
        if signature(lift, a2, b2) == want:
            return a2, b2
    return a, b


def conjugate(text: str, c: float, lift: bool = False) -> str:
    """Expression of f(t + c) (minus c for a lift): rotation conjugation."""
    out = re.sub(r"\bt\b", f"(t+{c!r})", text)
    return f"{out}-{c!r}" if lift else out


# ---------------------------------------------------------------- fixed inputs

# Hand-derived verdicts of the test suite's F fixtures (space (1/3, 1/2)).
FIXTURES = {
    "F1": ("t+0.1*sin(2*pi*t)", "2", "1", "two_sided"),
    "F2": ("t+0.1*sin(2*pi*t)", "0.1", "1", "two_sided"),
    "F4": ("t+0.1*sin(2*pi*t)", "2-1.9*sin(pi*t)", "1", "right_only"),
    "F5": ("t+0.1*sin(2*pi*t)", "1", "2-1.9*sin(pi*t)", "left_only"),
    "F6": ("t+0.1*sin(2*pi*t)", "(2-1.9*sin(pi*t))*cos(2*pi*t)", "cos(2*pi*t)", "neither"),
    "F7": ("1-t", "sin(2*pi*t)+0.5", "0.5", "neither"),
    "F8": ("t", "2+cos(2*pi*t)", "2", "neither"),
    "F9": ("t+0.5", "2", "1", "two_sided"),
}

# Zeros of a and of b in the same Gamma4 arc of S1, b's ahead of a's: the
# R condition walks a forward orbit from each zero of a past the zeros of b.
R_WALK = (S1, Harmonic(-0.237, 0.534, 1, 1.559), Harmonic(-0.536, 1.405, 1, 1.368))

# Known faults kept as operations that fail every time.
NARROW_DIP = ("t+0.1*sin(2*pi*t)", "3-4*exp(-((t-0.30007)/0.00003)^2)", "1")
ORBIT_STALL = ("t+0.1*sin(2*pi*t)", "0.857+0.867*sin(4*pi*t)", "0.63+0.892*cos(2*pi*t)")


def narrow_dip_reference() -> dict:
    """Why the narrow-dip operator cannot be two_sided.

    eta at both fixed points of S1 is positive, so the arc (0, 1/2) lies
    in Gamma2 where sigma_A = a; a(0) = 3 and a(0.30007) = -1, so sigma_A
    changes sign on the arc and neither side is invertible.
    """
    def a(t):
        return 3.0 - 4.0 * math.exp(-((t - 0.30007) / 0.00003) ** 2)
    eta = {}
    for tau in S1.fixed:
        lo, hi = dilation(S1.deriv(tau))
        eta[tau] = (abs(a(tau)) - lo, abs(a(tau)) - hi)
    in_gamma2 = all(e1 > 0.0 for _, e1 in eta.values())
    changes_sign = a(0.0) > 0.0 > a(0.30007)
    allowed = ("neither", "undecidable") if in_gamma2 and changes_sign else ()
    return {"eta": eta, "a(0.30007)": a(0.30007), "allowed": allowed}


# ---------------------------------------------------------------- verify ladder

# Constant-coefficient operators a*I - b*W on S1 with r = |a/b| in a band
# where the verdict follows from the eta signs alone: r above every
# dilation factor gives two_sided; between the largest factor at the
# repelling point 0 and the smallest at the attracting point 1/2 the arcs
# lie in Gamma4, so right_only; inside the band of the point 0 that point
# is unclassified and sigma_A vanishes: neither.  Two more bands follow
# from the same signs but are left out, because the oracle's L^2 evidence
# does not back their verdict: r below every factor (two_sided, yet the
# ladder reports consistent_neither and not consistent_two_sided) and the
# band of the point 1/2 (neither on X, but right-invertible on L^2).
def constant_verdict_bands() -> dict:
    lo0, hi0 = dilation(S1.deriv(0.0))
    lo5, hi5 = dilation(S1.deriv(0.5))
    pad = 0.01
    return {
        "two_sided": (hi5 + 0.15, hi5 + 1.0),
        "right_only": (hi0 + 0.05, lo5 - 0.05),
        "neither": (lo0 + pad, hi0 - pad),
    }


# ---------------------------------------------------------------- spectra

def radius_reference(fixed, deriv, g) -> tuple[float, float]:
    """(radius, tau) of g*W on L^2 for a shift with the given fixed points
    and derivative: max over fixed points of |g|*|alpha'|^{-1/2}."""
    return max((abs(g(f)) * abs(deriv(f)) ** -0.5, f) for f in fixed)


def radius_reliable(fixed, deriv, g) -> bool:
    """The grid estimators' documented domain: the radius is carried by an
    attracting fixed point (|alpha'| <= 1 there), and the bare weight at
    every repelling point, which grid nodes see without dilation penalty,
    stays below the radius."""
    radius, tau = radius_reference(fixed, deriv, g)
    if abs(deriv(tau)) > 1.0:
        return False
    return all(abs(g(f)) <= 0.8 * radius for f in fixed if abs(deriv(f)) > 1.0)


def annuli_reference(lift: Lift, d, space=SPACE) -> list[tuple[float, float]]:
    """One annulus per moving arc of d*W: [min |d|*min factor, max |d|*max factor]
    over the arc's two endpoints (d has no zero on the closed arc)."""
    out = []
    for _, _, tm, tp in lift.arcs():
        ends = [[abs(d(tau)) * f for f in dilation(lift.deriv(tau), space)] for tau in (tm, tp)]
        out.append((min(lo for lo, _ in ends), max(hi for _, hi in ends)))
    return out


def bound_reference(lift: Lift, g, space) -> float:
    """max over fixed points of |g| * max dilation factor (the sharp bound)."""
    return max(abs(g(tau)) * dilation(lift.deriv(tau), space)[1] for tau in lift.fixed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import build_all  # imports shiftop; the checks above do not
    out = {
        "fixtures": {k: v[3] for k, v in FIXTURES.items()},
        "narrow_dip": narrow_dip_reference(),
        "constant_verdict_bands": constant_verdict_bands(),
        "workloads": build_all(args.seed),
    }
    print(json.dumps(out, indent=1, default=str))


if __name__ == "__main__":
    main()
