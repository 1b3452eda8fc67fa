"""Decision core: eta functions, curve partition, sigma_A, the R/L orbit
conditions, adjoint and fixed-point reduction, and the verdict.

The operator is A = a*I - b*W with (W f)(t) = f(alpha(t)).  Everything
here works through the m-fold orbit products a_m, b_m, alpha_m' so that
periodic points of any multiplicity are handled uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exprlang import Fn, find_zeros, is_periodic, parse
from .circle import (POINT_TOL, Arc, GammaArc, PeriodicStructure, Shift, StructureError,
                     circle_dist, orbit_limit_endpoints, orbit_product, wrap)
from .indices import SpaceIndices, associate_indices

__all__ = [
    "OperatorSpec", "operator_spec", "GammaPartition", "Classification",
    "InvertibilityReport", "UndecidableError",
    "orbit_product", "eta_values", "eta_limits", "build_partition",
    "sigma_A", "check_R", "check_L", "decide", "adjoint_spec", "reduce_to_fixed",
]

SIGN_BAND = 1e-10        # strict-inequality tolerance for Gamma-set membership
ORBIT_MATCH_TOL = 1e-9   # orbit-hit tolerance in the R/L conditions
ORBIT_GUARD_RL = 10 ** 6

GAMMA1, GAMMA2, GAMMA3, GAMMA4, GAMMA5 = "gamma1", "gamma2", "gamma3", "gamma4", "gamma5"
NONE_CLASS = "none"          # definite signs matching no Gamma set: sigma_A = 0 there
DEGENERATE = "degenerate"    # some eta limit inside the sign band: refuse to decide


class UndecidableError(StructureError):
    """Raised internally when a quantity sits inside a tolerance band."""


@dataclass(frozen=True)
class OperatorSpec:
    """Full description of A = a*I - b*W on X(circle)."""

    a: Fn
    b: Fn
    shift: Shift
    structure: PeriodicStructure
    space: SpaceIndices

    @property
    def m(self) -> int:
        return self.structure.m


def operator_spec(a, b, shift, space: SpaceIndices,
                  structure: PeriodicStructure | None = None) -> OperatorSpec:
    """OperatorSpec of 1-periodic a and b (else ValueError), as the Fn leaves
    "a" and "b"; detects the structure if None."""
    from .circle import compute_periodic_structure

    if isinstance(shift, str):
        shift = Shift.from_lift(shift)
    a, b = (parse(c) if isinstance(c, str) else c for c in (a, b))
    if structure is None:
        structure = compute_periodic_structure(shift)
    for name, c in (("a", a), ("b", b)):
        if not is_periodic(c):
            raise ValueError(f"coefficient {name} is not 1-periodic")
    return OperatorSpec(Fn.of(a, "a"), Fn.of(b, "b"), shift, structure, space)


def eta_values(op: OperatorSpec, t):
    """(eta0, eta1) at t: |a_m| - |b_m| * (min resp. max dilation factor)."""
    am = np.abs(orbit_product(op.a, op.shift, op.m, t))
    bm = np.abs(orbit_product(op.b, op.shift, op.m, t))
    lo, hi = op.space.dilation_pair(orbit_product(op.shift.deriv, op.shift, op.m, t))
    return am - bm * lo, am - bm * hi


def eta_limits(op: OperatorSpec, t) -> tuple[float, float, float, float]:
    """(eta0-, eta0+, eta1-, eta1+): orbit limits of eta_i along alpha_m.

    By the attraction lemma the limits equal the eta values at the
    repelling/attracting endpoints of the component containing t.
    """
    tau_minus, tau_plus = orbit_limit_endpoints(op.structure, t)
    e0m, e1m = eta_values(op, tau_minus)
    e0p, e1p = eta_values(op, tau_plus)
    return e0m, e0p, e1m, e1p


@dataclass(frozen=True)
class Classification:
    region: str
    eta: tuple[float, float, float, float]  # (eta0-, eta0+, eta1-, eta1+)


@dataclass(frozen=True)
class GammaPartition:
    """Assignment of every moving arc and boundary point to a Gamma set
    (the Carleman part omega of the structure is Gamma1)."""

    arcs: tuple[tuple[GammaArc, Classification], ...]
    points: tuple[tuple[float, Classification], ...]

    @property
    def degenerate_locations(self) -> tuple[float, ...]:
        locs = [a.midpoint() for a, c in self.arcs if c.region == DEGENERATE]
        locs += [p for p, c in self.points if c.region == DEGENERATE]
        return tuple(locs)

    def arcs_in(self, region: str) -> tuple[GammaArc, ...]:
        return tuple(a for a, c in self.arcs if c.region == region)

    def points_in(self, region: str) -> tuple[float, ...]:
        return tuple(p for p, c in self.points if c.region == region)

    def classify(self, ps: PeriodicStructure, t) -> str:
        """Region of the point t (GAMMA1 on the Carleman part)."""
        for p, c in self.points:
            if circle_dist(t, p) <= POINT_TOL:
                return c.region
        if ps.in_lambda(t):
            return GAMMA1
        g = ps.gamma_containing(t)
        if g is None:
            raise StructureError(f"t={t!r} lies in no component")
        for a, c in self.arcs:
            if a == g:
                return c.region
        raise StructureError("partition does not cover the structure")


def _classify(eta: tuple[float, float, float, float]) -> str:
    e0m, e0p, e1m, e1p = eta
    if any(abs(v) <= SIGN_BAND for v in eta):
        return DEGENERATE
    if e1m > 0 and e1p > 0:
        return GAMMA2
    if e0m < 0 and e0p < 0:
        return GAMMA3
    if e0p < 0 < e1m:
        return GAMMA4
    if e0m < 0 < e1p:
        return GAMMA5
    return NONE_CLASS


def build_partition(op: OperatorSpec) -> GammaPartition:
    """Classify each gamma arc and boundary point by the signs of eta^±.

    eta^± are constant along each arc (they are the values at its
    endpoints), so one classification per arc suffices.  Values inside the
    sign band classify as degenerate, which downstream verdicts refuse.
    """
    ps = op.structure
    arcs = []
    for g in ps.gamma:
        e0m, e1m = eta_values(op, g.tau_minus)
        e0p, e1p = eta_values(op, g.tau_plus)
        eta = (e0m, e0p, e1m, e1p)
        arcs.append((g, Classification(_classify(eta), eta)))
    points = []
    for p in ps.y:
        e0, e1 = eta_values(op, p)
        eta = (e0, e0, e1, e1)
        points.append((p, Classification(_classify(eta), eta)))
    return GammaPartition(tuple(arcs), tuple(points))


def sigma_A(op: OperatorSpec, t, partition: GammaPartition | None = None) -> float:
    """Region-wise symbol: a_m - b_m on Gamma1, a_m on Gamma2, -b_m on
    Gamma3, 0 on Gamma4/Gamma5; degenerate points are refused."""
    partition = build_partition(op) if partition is None else partition
    region = partition.classify(op.structure, t)
    if region == DEGENERATE:
        raise UndecidableError(f"classification degenerate at t={t!r}")
    if region not in (GAMMA1, GAMMA2, GAMMA3):
        return 0.0
    return _region_sigma_fn(op, region)(t)


def _filter_near_y(hits, ps: PeriodicStructure):
    out = []
    for h in hits:
        if h.kind == "interval":
            out.append(h)
            continue
        t = wrap(h.location)
        if any(circle_dist(t, p) <= 1e-10 for p in ps.y):
            continue
        out.append(h)
    return out


def _coefficient_zeros(op: OperatorSpec, coeff_fn, arcs) -> tuple[list[float], bool]:
    """Zeros of a coefficient over the closures of the given arcs, dropping
    zeros at the fixed-point endpoints (orbits never reach them).

    Returns (locations, has_suspect)."""
    zeros: list[float] = []
    suspect = False
    for arc in arcs:
        for h in find_zeros(coeff_fn.wrap(), arc.start, arc.end):   # in arc coordinates
            # flat stretches and tangential zeros make the orbit pattern ambiguous
            if h.kind != "crossing":
                suspect = True
            else:
                zeros.append(wrap(h.location))
    zeros = [z for z in _dedup(zeros)
             if not op.structure.in_lambda(z, tol=ORBIT_MATCH_TOL)]
    return zeros, suspect


def _dedup(vals) -> list[float]:
    out: list[float] = []
    for v in sorted(vals):
        if out and abs(v - out[-1]) <= 1e-10:
            continue
        out.append(v)
    return out


def _orbit_hits(op: OperatorSpec, p: float, q: float, n_min: int) -> int | None:
    """Least n >= n_min with alpha_n(p) matching q within tolerance, or None.

    alpha_m maps each moving arc onto itself, so an orbit that misses q's
    arc in its first m steps never reaches q.  Inside that arc, iteration
    stops once the orbit has passed q on the attractor side (forward orbits
    are monotone within each component).  An orbit still short of q after
    ORBIT_GUARD_RL steps raises UndecidableError: it may yet reach q.
    """
    ps = op.structure
    if ps.in_lambda(p, tol=ORBIT_MATCH_TOL) or ps.in_lambda(q, tol=ORBIT_MATCH_TOL):
        # fixed-point zeros are never reached by interior orbits
        if n_min == 0 and circle_dist(p, q) <= ORBIT_MATCH_TOL:
            return 0
        return None
    gq = ps.gamma_containing(q)
    if gq is None or not any(gq.contains(op.shift.apply(p, i)) for i in range(op.m)):
        return None
    toward_end = circle_dist(gq.tau_plus, wrap(gq.end)) <= POINT_TOL
    sq = gq.offset(q)
    z = p
    for n in range(ORBIT_GUARD_RL):
        if n >= n_min and circle_dist(z, q) <= ORBIT_MATCH_TOL:
            return n
        sz = gq.offset(z)
        if 0.0 < sz < gq.length:
            passed = sz > sq + ORBIT_MATCH_TOL if toward_end else sz < sq - ORBIT_MATCH_TOL
            if passed:
                return None
        z = op.shift.apply(z, 1)
    raise UndecidableError(f"orbit of p={float(p)!r} still short of q={float(q)!r} "
                           f"after {ORBIT_GUARD_RL} steps")


def check_R(op: OperatorSpec, arcs) -> tuple[bool, dict | None]:
    """Condition R on the given (Gamma4) arcs.

    R fails exactly when some zero q of b lies on the forward orbit
    (n >= 0) of some zero p of a inside the arc family; a shared zero
    (n = 0) already fails.
    """
    return _check_orbit_condition(op, arcs, src="a", dst="b", n_min=0)


def check_L(op: OperatorSpec, arcs) -> tuple[bool, dict | None]:
    """Condition L on the given (Gamma5) arcs.

    L fails exactly when some zero q of a lies on the strictly forward
    orbit (n >= 1) of some zero p of b; a shared zero does not fail.
    """
    return _check_orbit_condition(op, arcs, src="b", dst="a", n_min=1)


def _check_orbit_condition(op: OperatorSpec, arcs, src: str, dst: str,
                           n_min: int) -> tuple[bool, dict | None]:
    arcs = tuple(arcs)
    if not arcs:
        return True, None
    a_fn = op.a if src == "a" else op.b
    b_fn = op.b if src == "a" else op.a
    z_src, s1 = _coefficient_zeros(op, a_fn, arcs)
    z_dst, s2 = _coefficient_zeros(op, b_fn, arcs)
    if s1 or s2:
        raise UndecidableError(
            f"suspect (tangential) zeros in the {src}/{dst} zero sets on the orbit arcs")
    for p in z_src:
        for q in z_dst:
            n = _orbit_hits(op, p, q, n_min)
            if n is not None:
                return False, {"p": p, "q": q, "n": n}
    return True, None


@dataclass(frozen=True)
class InvertibilityReport:
    verdict: str  # two_sided | right_only | left_only | neither | undecidable
    right: bool | None
    left: bool | None
    witness: dict | None
    partition_summary: dict
    sigma_extrema: dict

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "right": self.right,
            "left": self.left,
            "witness": self.witness,
            "partition": self.partition_summary,
            "sigma_extrema": self.sigma_extrema,
        }


def _region_sigma_fn(op: OperatorSpec, region: str) -> Fn:
    """sigma_A on a region: a_m - b_m on Gamma1, a_m on Gamma2, -b_m on Gamma3."""
    am, bm = op.a.orbit(op.shift, op.m), op.b.orbit(op.shift, op.m)
    return am - bm if region == GAMMA1 else am if region == GAMMA2 else -bm


def _sigma_zero_scan(op: OperatorSpec, partition: GammaPartition):
    """Zero-finding of sigma_A per region plus sampled extrema.

    Returns (zeros, ambiguous, extrema) where zeros is a list of
    (region, location) of definite zeros and ambiguous lists locations of
    near-zero dips the scan refuses to call.
    """
    ps = op.structure
    regions: list[tuple[str, Arc]] = [(GAMMA1, a) for a in ps.omega]
    regions += [(c.region, a) for a, c in partition.arcs if c.region in (GAMMA2, GAMMA3)]

    zeros: list[tuple[str, float]] = []
    ambiguous: list[float] = []
    extrema: dict[str, dict] = {}

    def record(region, vals):
        ext = extrema.setdefault(region, {"min": np.inf, "max": -np.inf, "min_abs": np.inf})
        ext["min"] = min(ext["min"], float(np.min(vals)))
        ext["max"] = max(ext["max"], float(np.max(vals)))
        ext["min_abs"] = min(ext["min_abs"], float(np.min(np.abs(vals))))

    for region, arc in regions:
        fn = _region_sigma_fn(op, region)
        record(region, fn(wrap(np.linspace(arc.start, arc.end, 257))))
        hits = find_zeros(fn.wrap(), arc.start, arc.end)
        if arc.length != 1.0:   # not the full circle
            hits = _filter_near_y(hits, ps)
        for h in hits:
            if h.certain():
                zeros.append((region, wrap(h.location)))
            else:
                ambiguous.append(wrap(h.location))

    # sigma_A at the Y points themselves (nonzero by definite classification,
    # recorded for the report)
    for p, c in partition.points:
        if c.region in (GAMMA2, GAMMA3):
            record(c.region, _region_sigma_fn(op, c.region)(p))
    return zeros, ambiguous, extrema


def _partition_summary(ps: PeriodicStructure, partition: GammaPartition) -> dict:
    return {
        "omega": [[a.start, a.end] for a in ps.omega],
        "arcs": [{"start": a.start, "end": a.end, "region": c.region,
                  "eta": list(c.eta)} for a, c in partition.arcs],
        "points": [{"t": p, "region": c.region, "eta0": c.eta[0], "eta1": c.eta[2]}
                   for p, c in partition.points],
    }


def decide(op: OperatorSpec) -> InvertibilityReport:
    """Right/left invertibility verdict for A = a*I - b*W.

    right holds iff sigma_A has no zero off Gamma4 and R(Gamma4) holds;
    left symmetrically with Gamma5 and L.  Degenerate classifications,
    uncertain structures, and ambiguous near-zeros yield "undecidable".
    """
    if op.structure.uncertain:
        return InvertibilityReport(
            "undecidable", None, None,
            {"type": "uncertain_structure",
             "detail": "tangential fixed-point zeros in the periodic structure"},
            {}, {})

    partition = build_partition(op)
    summary = _partition_summary(op.structure, partition)

    degen = partition.degenerate_locations
    if degen:
        return InvertibilityReport(
            "undecidable", None, None,
            {"type": "degenerate_classification", "locations": list(degen)},
            summary, {})

    try:
        zeros, ambiguous, extrema = _sigma_zero_scan(op, partition)
        if ambiguous:
            return InvertibilityReport(
                "undecidable", None, None,
                {"type": "ambiguous_sigma_zero", "locations": ambiguous},
                summary, extrema)

        right = True
        left = True
        # witness candidates, most informative first: a located sigma zero or
        # failing orbit pair beats a bare "region present" record
        primary: list[dict] = []
        secondary: list[dict] = []

        if zeros:
            region, loc = zeros[0]
            right = left = False
            primary.append({"type": "sigma_zero", "region": region, "t": loc})

        # Y' branch: eta0*eta1 > 0 must hold at every declared limit point
        for tau in op.structure.yprime:
            e0, e1 = eta_values(op, tau)
            if abs(e0) <= SIGN_BAND or abs(e1) <= SIGN_BAND:
                return InvertibilityReport(
                    "undecidable", None, None,
                    {"type": "degenerate_yprime", "t": tau, "eta0": e0, "eta1": e1},
                    summary, extrema)
            if e0 * e1 < 0:
                right = left = False
                primary.append({"type": "yprime_sign", "t": tau,
                                "eta0": e0, "eta1": e1})

        none_arcs = partition.arcs_in(NONE_CLASS)
        none_points = partition.points_in(NONE_CLASS)
        if none_arcs or none_points:
            right = left = False
            loc = none_arcs[0].midpoint() if none_arcs else none_points[0]
            secondary.append({"type": "sigma_zero", "region": NONE_CLASS, "t": loc})

        arcs4 = partition.arcs_in(GAMMA4)
        arcs5 = partition.arcs_in(GAMMA5)
        if arcs5 and right:
            right = False
            secondary.append({"type": "sigma_zero", "region": GAMMA5,
                              "t": arcs5[0].midpoint()})
        if arcs4 and left:
            left = False
            secondary.append({"type": "sigma_zero", "region": GAMMA4,
                              "t": arcs4[0].midpoint()})

        if right and arcs4:
            ok, w = check_R(op, arcs4)
            if not ok:
                right = False
                primary.append({"type": "R_orbit_pair", **w})
        if left and arcs5:
            ok, w = check_L(op, arcs5)
            if not ok:
                left = False
                primary.append({"type": "L_orbit_pair", **w})

        witness = primary[0] if primary else (secondary[0] if secondary else None)
    except UndecidableError as exc:
        return InvertibilityReport(
            "undecidable", None, None,
            {"type": "undecidable", "detail": str(exc)}, summary, {})

    if right and left:
        verdict = "two_sided"
    elif right:
        verdict = "right_only"
    elif left:
        verdict = "left_only"
    else:
        verdict = "neither"
    return InvertibilityReport(verdict, right, left, witness, summary, extrema)


def adjoint_spec(op: OperatorSpec) -> OperatorSpec:
    """The adjoint operator's spec: coefficients (a, b(alpha_{-1})|alpha_{-1}'|),
    shift alpha_{-1}, associate space indices (real coefficients assumed)."""
    inv = op.shift.inverse()
    # |alpha_{-1}'(t)| = 1/|alpha'(x)| at x = alpha_{-1}(t): one inverse solve
    b_star = (op.b * abs(1.0 / Fn(op.shift.deriv, "alpha'"))).compose(inv, 1)
    # attraction reverses under the inverse shift
    gamma = tuple(GammaArc(g.start, g.end, g.tau_plus, g.tau_minus)
                  for g in op.structure.gamma)
    structure = replace(op.structure, gamma=gamma)
    return OperatorSpec(op.a, b_star, inv, structure, associate_indices(op.space))


def reduce_to_fixed(op: OperatorSpec) -> tuple[OperatorSpec, bool]:
    """Reduction A -> A_m = a_m I - b_m(alpha_{m-1}) W^m with only fixed points.

    Returns (op_m, cond) where cond is the no-joint-zero condition
    |a_i(t)| + |b(alpha_{i-1}(t))| > 0 on Gamma4 for i = 1..m-1 (vacuous
    for m = 1).
    """
    m = op.m
    if m == 1:
        return op, True

    shift_m = op.shift.power(m)
    b_m_shifted = op.b.orbit(op.shift, m).compose(op.shift, m - 1)
    op_m = OperatorSpec(op.a.orbit(op.shift, m), b_m_shifted, shift_m,
                        replace(op.structure, m=1, orientation=1), op.space)

    partition = build_partition(op)
    arcs4 = partition.arcs_in(GAMMA4)
    cond = True
    for i in range(1, m):
        joint = abs(op.a.orbit(op.shift, i)) + abs(op.b.compose(op.shift, i - 1))
        for arc in arcs4:
            samples = wrap(np.linspace(arc.start, arc.end, 2049))
            if float(np.min(joint(samples))) <= SIGN_BAND:
                cond = False
        if not cond:
            break
    return op_m, cond
