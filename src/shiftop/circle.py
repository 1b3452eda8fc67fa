"""Circle geometry, shift maps, orbits, and periodic-point structure.

The curve is the unit-length circle [0, 1) with wraparound metric.  A
shift is given by a monotone lift L with L(t+1) = L(t) + sigma; iterates,
inverses, and powers are all handled through the extended lift, so
numerically-defined shifts (inverse and composed lifts) work the same way
as symbolic ones.

Each shift tabulates one period of sigma*L, an increasing function, on 257
nodes.  An inverse solve L(x) = y looks y up in that table for a bracket
cell of width 1/256 and an interpolated start point, then takes Newton
steps that are replaced by bisection whenever they leave the bracket or
stop halving the residual (the safeguarded Newton method, "rtsafe" in
Press et al., Numerical Recipes, section 9.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exprlang import SCAN_CELLS, ZERO_TOL, ZeroHit, as_function, differentiate, find_zeros, parse

__all__ = [
    "wrap", "circle_dist", "Arc", "GammaArc", "Shift", "PeriodicStructure",
    "StructureError", "NoPeriodicStructureError",
    "detect_orientation_and_multiplicity", "compute_periodic_structure",
    "orbit_product", "orbit_limit_endpoints",
]

ORBIT_GUARD = 10 ** 6
POINT_TOL = 1e-9
# the grid of the lift and coefficient checks and of the periodic-structure scan
SCAN_GRID = np.linspace(0.0, 1.0, SCAN_CELLS + 1)
_M_MAX = 16   # highest multiplicity the structure scan tries
# table nodes for inverse solves, and a step cap above the 45 halvings
# that bisection alone needs to narrow a 1/256 cell to one ulp
_TABLE_X = np.linspace(0.0, 1.0, 257)
_SOLVE_CAP = 48
_EPS = float(np.finfo(float).eps)


class StructureError(ValueError):
    """Inconsistent or undetectable periodic structure."""


class NoPeriodicStructureError(StructureError):
    """No periodic points found up to the requested multiplicity bound."""


def wrap(x):
    """Reduce to [0, 1)."""
    return x - np.floor(x)


def circle_dist(s, t):
    """Wraparound metric d(s,t) = min(|s-t|, 1-|s-t|)."""
    d = np.abs(wrap(s) - wrap(t))
    return np.minimum(d, 1.0 - d)


@dataclass(frozen=True)
class Arc:
    """Arc traversed positively from start to end.

    start lies in [0, 1); end in (start, start+1], so a full circle is
    (0, 1) and wrapping arcs simply have end > 1.
    """

    start: float
    end: float

    def __post_init__(self):
        if not 0.0 <= self.start < 1.0:
            raise ValueError("arc start must lie in [0,1)")
        if not self.start < self.end <= self.start + 1.0:
            raise ValueError("arc end must lie in (start, start+1]")

    @property
    def length(self) -> float:
        return self.end - self.start

    def offset(self, t) -> float:
        """Positive offset of t from start, in [0, 1)."""
        return wrap(t - self.start)

    def contains(self, t) -> bool:
        off = self.offset(t)
        return 0.0 < off < self.length or (off == 0.0 and self.length == 1.0)

    def midpoint(self) -> float:
        return float(wrap(self.start + 0.5 * self.length))


@dataclass(frozen=True)
class GammaArc(Arc):
    """Component of the moving region, with its repelling/attracting ends."""

    tau_minus: float = 0.0
    tau_plus: float = 0.0


class Shift:
    """Circle diffeomorphism given by a monotone lift.

    lift_ext is the lift on all of R (L(x+1) = L(x) + orientation);
    deriv is alpha'(t) as a function on the circle.  Both follow the
    float-or-array convention of ``exprlang.as_function``.
    """

    def __init__(self, lift_ext: Callable, deriv: Callable, orientation: int):
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        self.lift_ext = lift_ext
        self.deriv = deriv
        self.orientation = orientation
        self._inv: Shift | None = None
        # one period of sigma*L, increasing: the lookup table of _solve_inverse
        self._table = orientation * lift_ext(_TABLE_X)
        steps = np.diff(self._table)
        if not np.all(steps > 0.0):
            k = int(np.argmin(steps))
            raise StructureError(f"lift is not strictly monotone near t={_TABLE_X[k]:.6f}")

    @classmethod
    def from_lift(cls, lift, orientation: str = "auto") -> "Shift":
        """Build and validate a shift from a lift expression (string or Expr)."""
        lift_expr = parse(lift) if isinstance(lift, str) else lift
        lf = as_function(lift_expr)
        df = as_function(differentiate(lift_expr))

        ls = lf(SCAN_GRID)
        if not np.all(np.isfinite(ls)):
            raise StructureError("lift evaluates to non-finite values on [0,1]")
        jump = ls[-1] - ls[0]
        if abs(abs(jump) - 1.0) > 1e-9:
            raise StructureError(f"|L(1)-L(0)| = {abs(jump)!r}, expected 1 within 1e-9")
        sigma = 1 if jump > 0 else -1
        if orientation == "preserve" and sigma != 1:
            raise StructureError("lift is decreasing but orientation 'preserve' was requested")
        if orientation == "reverse" and sigma != -1:
            raise StructureError("lift is increasing but orientation 'reverse' was requested")
        diffs = np.diff(ls) * sigma
        if np.min(diffs) <= 0.0:
            k = int(np.argmin(diffs))
            raise StructureError(f"lift is not strictly monotone near t={SCAN_GRID[k]:.6f}")
        ds = df(SCAN_GRID)
        if not np.all(np.isfinite(ds)) or np.min(np.abs(ds)) <= 0.0:
            raise StructureError("lift derivative vanishes on [0,1]; not a diffeomorphism")

        def lift_ext(x):
            n = np.floor(x)
            return lf(x - n) + sigma * n

        return cls(lift_ext, lambda t: df(wrap(t)), sigma)

    def __call__(self, t):
        return wrap(self.lift_ext(t))

    def _solve_inverse(self, y):
        """Solve L(x) = y for the extended lift, elementwise.

        g(x) = sigma*(L(x) - y) increases in x.  With z = sigma*y and
        n = floor(z - table[0]), r = z - n lies in one period of the table,
        whose cell around r gives the bracket n + [x_{j-1}, x_j] and whose
        linear interpolant gives the start point.  Each step evaluates g at
        the Newton step x - g/g' from the best point x so far, or at the
        bracket midpoint when that step leaves the bracket or the previous
        step failed to halve |g|.  The new point replaces the bracket end
        with the same sign of g, and replaces x if its |g| is smaller.  An
        element stops once |g| <= 4 eps (1 + |y|), or after _SOLVE_CAP
        steps.  Raises StructureError, naming the worst y and its residual,
        unless |L(x) - y| <= 1e-10 everywhere.
        """
        s = self.orientation
        sls = self._table
        yv = np.ravel(y)
        n = np.floor(s * yv - sls[0])
        r = s * yv - n
        j = np.searchsorted(sls[1:-1], r) + 1   # sls[j-1] < r <= sls[j], 1 <= j <= 256
        lo, hi = n + _TABLE_X[j - 1], n + _TABLE_X[j]
        x = n + np.interp(r, sls, _TABLE_X)
        g = s * (self.lift_ext(x) - yv)
        lo = np.where(g < 0.0, x, lo)
        hi = np.where(g > 0.0, x, hi)
        tol = 4.0 * _EPS * (1.0 + np.abs(yv))
        halved = np.ones(yv.shape, dtype=bool)   # the latest step halved |g|
        act = np.flatnonzero(np.abs(g) > tol)
        for _ in range(_SOLVE_CAP):
            if act.size == 0:
                break
            xa, ga, la, ha = x[act], g[act], lo[act], hi[act]
            newton = xa - ga / (s * self.deriv(xa))
            take = halved[act] & (la <= newton) & (newton <= ha)
            c = np.where(take, newton, 0.5 * (la + ha))
            gc = s * (self.lift_ext(c) - yv[act])
            neg = gc < 0.0
            lo[act] = np.where(neg, c, la)
            hi[act] = np.where(neg, ha, c)
            halved[act] = np.abs(gc) <= 0.5 * np.abs(ga)
            # x keeps the point of least |g| found so far
            better = np.abs(gc) < np.abs(ga)
            x[act] = np.where(better, c, xa)
            g[act] = np.where(better, gc, ga)
            act = act[np.abs(g[act]) > tol[act]]
        resid = np.abs(g)
        k = int(np.argmax(resid))
        if not resid[k] <= 1e-10:
            raise StructureError(
                f"inverse lift solve failed to converge: |L(x) - y| = {resid[k]:.3g} "
                f"at y = {float(yv[k])!r}; lift not monotone?")
        return x.reshape(np.shape(y))[()]   # a float for a float, else y's shape

    def inverse(self) -> "Shift":
        """The shift alpha_{-1}, with derivative 1/alpha'(alpha_{-1})."""
        if self._inv is not None:
            return self._inv

        def deriv(t):
            return 1.0 / self.deriv(wrap(self._solve_inverse(wrap(t))))

        inv = Shift(self._solve_inverse, deriv, self.orientation)
        inv._inv = self
        self._inv = inv
        return inv

    def power(self, m: int) -> "Shift":
        """The m-fold iterate alpha_m as a shift in its own right."""
        if m < 1:
            raise ValueError("power requires m >= 1")
        if m == 1:
            return self

        def lift_ext(x):
            for _ in range(m):
                x = self.lift_ext(x)
            return x

        return Shift(lift_ext, lambda t: orbit_product(self.deriv, self, m, t),
                     self.orientation ** m)

    def apply(self, t, k: int = 1):
        """alpha_k(t); negative k through the inverse lift."""
        if abs(k) > ORBIT_GUARD:
            raise ValueError(f"orbit index guard exceeded (|k| <= {ORBIT_GUARD})")
        lift = self.lift_ext if k >= 0 else self.inverse().lift_ext
        t = wrap(t)
        for _ in range(abs(k)):
            t = wrap(lift(t))
        return t


def orbit_product(f, shift: Shift, m: int, t):
    """f_m(t) = prod_{i=0}^{m-1} f(alpha_i(t))."""
    if m < 1:
        raise ValueError("orbit_product requires m >= 1")
    fn = as_function(f)
    u = wrap(t)
    prod = fn(u)
    for _ in range(m - 1):
        u = wrap(shift.lift_ext(u))
        prod = prod * fn(u)
    return prod


@dataclass(frozen=True)
class PeriodicStructure:
    """Fixed-point structure of alpha_m on the circle.

    lambda_points / lambda_arcs make up the set Lambda of periodic points,
    and gamma the moving components with their attraction endpoints.  The
    boundary y of Lambda and its interior omega (the Carleman part) are
    derived from lambda_points and lambda_arcs, not stored.  yprime is
    never populated by the detector (finite boundaries only) but may be
    supplied for user-built structures with limit points.
    """

    m: int
    orientation: int
    lambda_points: tuple[float, ...]
    lambda_arcs: tuple[Arc, ...]
    gamma: tuple[GammaArc, ...]
    yprime: tuple[float, ...] = ()
    uncertain: bool = False

    @property
    def full_circle(self) -> bool:
        return any(a.length == 1.0 for a in self.lambda_arcs)

    @property
    def omega(self) -> tuple[Arc, ...]:
        """The interior of Lambda: its arcs."""
        return self.lambda_arcs

    @property
    def y(self) -> tuple[float, ...]:
        """The boundary of Lambda, sorted: its isolated points and arc ends;
        empty on a full circle."""
        if self.full_circle:
            return ()
        ends = [p for a in self.lambda_arcs for p in (a.start, wrap(a.end))]
        return tuple(sorted(set(self.lambda_points) | set(ends)))

    def in_lambda(self, t, tol: float = POINT_TOL) -> bool:
        if self.full_circle:
            return True
        for p in self.lambda_points:
            if circle_dist(t, p) <= tol:
                return True
        for a in self.lambda_arcs:
            off = a.offset(t)
            if off <= a.length + tol or off >= 1.0 - tol:
                return True
        return False

    def gamma_containing(self, t) -> GammaArc | None:
        for g in self.gamma:
            if g.contains(t):
                return g
        return None

    def nearest_y(self, t) -> float:
        if not self.y:
            raise StructureError("structure has empty boundary Y")
        return min(self.y, key=lambda p: float(circle_dist(t, p)))


def _periodic_branches(shift: Shift) -> tuple[int, list[int]]:
    """The multiplicity m and the lift branches n on which L^m(x) - x - n
    may vanish.

    Carries y = L^j(x) forward on the grid one iterate at a time, and stops
    at the first j whose u = L^j(x) - x comes within 1e-7 of an integer,
    after refining u's extreme cells on 65 points each.  The integers it
    comes within 1e-7 of are the branches.  Orientation-reversing shifts
    always get m = 2 (they have two fixed points and all other periodic
    points have multiplicity two).  Others are tried up to m = _M_MAX.
    """
    reversing = shift.orientation == -1
    y = SCAN_GRID
    for j in range(1, 3 if reversing else _M_MAX + 1):
        y = shift.lift_ext(y)
        if reversing and j == 1:
            continue
        u = y - SCAN_GRID
        umin, umax = float(np.min(u)), float(np.max(u))
        for i in (int(np.argmin(u)), int(np.argmax(u))):
            fine = np.linspace(SCAN_GRID[max(i - 1, 0)], SCAN_GRID[min(i + 1, SCAN_CELLS)], 65)
            yf = fine
            for _ in range(j):
                yf = shift.lift_ext(yf)
            umin = min(umin, float(np.min(yf - fine)))
            umax = max(umax, float(np.max(yf - fine)))
        branches = list(range(math.ceil(umin - 1e-7), math.floor(umax + 1e-7) + 1))
        if branches or reversing:
            return j, branches
    raise NoPeriodicStructureError(f"no periodic structure with multiplicity <= {_M_MAX}")


def detect_orientation_and_multiplicity(shift: Shift) -> tuple[int, int]:
    """Orientation from the lift, multiplicity from the first iterate with
    periodic points (2 for orientation-reversing shifts)."""
    return shift.orientation, _periodic_branches(shift)[0]


def compute_periodic_structure(shift: Shift) -> PeriodicStructure:
    """Detect the fixed-point set of alpha_m and decompose the circle.

    Tangential zeros of L^m(x) - x - n (find_zeros) mark the structure
    uncertain; downstream verdicts refuse to decide on uncertain structures.
    """
    m, branches = _periodic_branches(shift)

    def v(x, n):
        """L^m(x) - x - n, zero at the fixed points of alpha_m on lift branch n."""
        y = x
        for _ in range(m):
            y = shift.lift_ext(y)
        return y - x - n

    found: list[tuple[int, list[ZeroHit]]] = []
    for n in branches:
        hits = find_zeros(lambda x, n=n: v(x, n), 0.0, 1.0)
        if hits:
            found.append((n, hits))
    if not found:
        raise NoPeriodicStructureError("alpha_m has no fixed points on the sampled grid")
    if len(found) > 1:
        raise StructureError(
            f"fixed points found at several lift branches n={[n for n, _ in found]}")
    n, hits = found[0]
    uncertain = any(h.kind == "tangential" for h in hits)

    points = [h.location for h in hits if h.kind != "interval"]
    intervals = [(float(h.lo), float(h.hi)) for h in hits if h.kind == "interval"]

    # full-circle fixed set
    if intervals and intervals[0][0] <= 1e-12 and intervals[0][1] >= 1.0 - 1e-12:
        return PeriodicStructure(m, shift.orientation, (), (Arc(0.0, 1.0),), (),
                                 uncertain=uncertain)

    # components as (start, end) with end >= start, sorted by start
    comps = sorted([(p, p) for p in points] + intervals)
    touch = POINT_TOL

    merged: list[list[float]] = []
    for a, b in comps:
        if merged and a - merged[-1][1] <= touch:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    # components touching through the seam at 0==1 fuse into one wrapping arc
    if len(merged) >= 2 and (merged[0][0] + 1.0) - merged[-1][1] <= touch:
        a_last, _ = merged[-1]
        _, b_first = merged[0]
        merged = merged[1:-1] + [[a_last, b_first + 1.0]]
        merged.sort()

    lambda_points: list[float] = []
    lambda_arcs: list[Arc] = []
    for a, b in merged:
        if b - a <= 8 * ZERO_TOL:
            lambda_points.append(wrap(0.5 * (a + b)))
        else:
            lambda_arcs.append(Arc(wrap(a), wrap(a) + (b - a)))

    gamma: list[GammaArc] = []
    n_comp = len(merged)
    for i, (a, b) in enumerate(merged):
        next_start = merged[(i + 1) % n_comp][0] + (1.0 if i == n_comp - 1 else 0.0)
        length = next_start - b
        if length <= touch:
            continue
        arc = Arc(wrap(b), wrap(b) + length)
        if v(arc.midpoint(), n) > 0:
            tau_minus, tau_plus = wrap(arc.start), wrap(arc.end)
        else:
            tau_minus, tau_plus = wrap(arc.end), wrap(arc.start)
        gamma.append(GammaArc(arc.start, arc.end, tau_minus, tau_plus))

    return PeriodicStructure(m, shift.orientation, tuple(lambda_points), tuple(lambda_arcs),
                             tuple(gamma), uncertain=uncertain)


def orbit_limit_endpoints(ps: PeriodicStructure, t: float) -> tuple[float, float]:
    """Repelling/attracting endpoints (tau_minus, tau_plus) of the component
    containing t; (t, t) on the fixed-point set."""
    if ps.in_lambda(t):
        return float(t), float(t)
    g = ps.gamma_containing(t)
    if g is None:
        near = ps.nearest_y(t)
        raise StructureError(
            f"t={t!r} lies in no component (tolerance boundary near Y point {near!r})")
    return g.tau_minus, g.tau_plus
