"""Decision core: eta functions, curve partition, sigma_A, the R/L orbit
conditions, adjoint and fixed-point reduction, and the verdict.

The operator is A = a*I - b*W with (W f)(t) = f(alpha(t)).  Everything
here works through the m-fold orbit products a_m, b_m, alpha_m' so that
periodic points of any multiplicity are handled uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exprlang import ZERO_TOL, Fn, find_zeros, is_periodic, parse
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
    """A refusal to decide; witness is that of decide's undecidable report."""

    def __init__(self, detail: str, witness: dict | None = None):
        super().__init__(detail)
        self.witness = {"type": "undecidable", "detail": detail} if witness is None else witness


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
    "a" and "b"; detects the structure if None.  A value that is not finite
    at t = 0 or 1 raises EvalDomainError naming the coefficient."""
    from .circle import compute_periodic_structure

    if isinstance(shift, str):
        shift = Shift.from_lift(shift)
    a, b = (Fn.of(parse(c) if isinstance(c, str) else c, name)
            for name, c in (("a", a), ("b", b)))
    if structure is None:
        structure = compute_periodic_structure(shift)
    for name, c in (("a", a), ("b", b)):
        if not is_periodic(c):   # evaluates the checked leaf at 0 and 1
            raise ValueError(f"coefficient {name} is not 1-periodic")
    return OperatorSpec(a, b, shift, structure, space)


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
    """hits without the point hits within 1e-10 of a Y point."""
    return [h for h in hits if h.kind == "interval"
            or not any(circle_dist(wrap(h.location), p) <= 1e-10 for p in ps.y)]


def _coefficient_zeros(op: OperatorSpec, fn: Fn, arcs, pair: str) -> list[float]:
    """Crossing zeros of a coefficient over the closures of the given arcs,
    dropping zeros at the fixed-point endpoints (orbits never reach them).

    A touch or flat stretch of zero makes the orbit pattern ambiguous, so
    it raises UndecidableError naming the pair ("a/b" or "b/a")."""
    zeros: list[float] = []
    for arc in arcs:
        for h in find_zeros(fn.wrap(), arc.start, arc.end):   # in arc coordinates
            if h.kind != "crossing":
                raise UndecidableError(
                    f"suspect (tangential) zeros in the {pair} zero sets on the orbit arcs")
            zeros.append(wrap(h.location))
    distinct: list[float] = []
    for z in sorted(zeros):
        if not distinct or abs(z - distinct[-1]) > 1e-10:
            distinct.append(z)
    return [z for z in distinct if not op.structure.in_lambda(z, tol=ORBIT_MATCH_TOL)]


def _orbit_hits(op: OperatorSpec, p: float, q: float, n_min: int) -> int | None:
    """Least n >= n_min with alpha_n(p) matching q, or None (p, q off Lambda).

    alpha_m maps each moving arc onto itself, so an orbit that misses q's
    arc in its first m steps never reaches q.  Inside that arc, iteration
    stops once the orbit has passed q on the attractor side (forward orbits
    are monotone within each component).  The zeros are known to ZERO_TOL,
    which alpha_n stretches by alpha_n'(p): a distance within that band
    (plus 1e-15 of rounding per step) is a hit, and one between the band and
    ORBIT_MATCH_TOL raises UndecidableError with a near_orbit_pair witness.
    An orbit still short of q after ORBIT_GUARD_RL steps raises too: it may
    yet reach q.
    """
    gq = op.structure.gamma_containing(q)
    if gq is None or not any(gq.contains(op.shift.apply(p, i)) for i in range(op.m)):
        return None
    toward_end = circle_dist(gq.tau_plus, wrap(gq.end)) <= POINT_TOL
    sq = gq.offset(q)
    z = p
    for n in range(ORBIT_GUARD_RL):
        dist = circle_dist(z, q)
        if n >= n_min and dist <= ORBIT_MATCH_TOL:
            stretch = abs(orbit_product(op.shift.deriv, op.shift, n, p)) if n else 1.0
            if dist <= ZERO_TOL * (1.0 + stretch) + 1e-15 * (n + 1):
                return n
            raise UndecidableError(
                f"orbit of p={float(p)!r} misses q={float(q)!r} by {float(dist)!r} "
                f"at n={n}, inside the orbit-match tolerance",
                {"type": "near_orbit_pair", "p": p, "q": q, "n": n, "distance": float(dist)})
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
    return _check_orbit_condition(op, arcs, op.a, op.b, "a/b", n_min=0)


def check_L(op: OperatorSpec, arcs) -> tuple[bool, dict | None]:
    """Condition L on the given (Gamma5) arcs.

    L fails exactly when some zero q of a lies on the strictly forward
    orbit (n >= 1) of some zero p of b; a shared zero does not fail.
    """
    return _check_orbit_condition(op, arcs, op.b, op.a, "b/a", n_min=1)


def _check_orbit_condition(op: OperatorSpec, arcs, p_fn: Fn, q_fn: Fn, pair: str,
                           n_min: int) -> tuple[bool, dict | None]:
    """(holds, witness): fails at the first zero p of p_fn whose orbit from
    step n_min reaches a zero q of q_fn."""
    arcs = tuple(arcs)
    z_p = _coefficient_zeros(op, p_fn, arcs, pair)
    z_q = _coefficient_zeros(op, q_fn, arcs, pair)
    for p in z_p:
        for q in z_q:
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


def _sigma_zero_scan(op: OperatorSpec, partition: GammaPartition,
                     extrema: dict) -> list[tuple[str, float]]:
    """Definite zeros (region, location) of sigma_A per region.  Records the
    sampled extrema per region in extrema, then refuses (UndecidableError)
    if the scan found near-zero dips it cannot call."""
    ps = op.structure
    regions: list[tuple[str, Arc]] = [(GAMMA1, a) for a in ps.omega]
    regions += [(c.region, a) for a, c in partition.arcs if c.region in (GAMMA2, GAMMA3)]

    zeros: list[tuple[str, float]] = []
    ambiguous: list[float] = []

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
    if ambiguous:
        raise UndecidableError(f"ambiguous near-zero dips of sigma_A at {ambiguous}",
                               {"type": "ambiguous_sigma_zero", "locations": ambiguous})
    return zeros


def _partition_summary(ps: PeriodicStructure, partition: GammaPartition) -> dict:
    return {
        "omega": [[a.start, a.end] for a in ps.omega],
        "arcs": [{"start": a.start, "end": a.end, "region": c.region,
                  "eta": list(c.eta)} for a, c in partition.arcs],
        "points": [{"t": p, "region": c.region, "eta0": c.eta[0], "eta1": c.eta[2]}
                   for p, c in partition.points],
    }


def _locations(partition: GammaPartition, region: str) -> list[float]:
    """The region's arc midpoints, then its points."""
    return [a.midpoint() for a in partition.arcs_in(region)] + list(partition.points_in(region))


def _shared_failures(op: OperatorSpec, partition: GammaPartition,
                     zeros) -> list[tuple[bool, dict]]:
    """(located, witness) failures of both sides: the first zero of sigma_A,
    each declared Y' point where eta0*eta1 < 0, then the none class (sigma_A
    = 0 on it).  A Y' point with an eta inside the sign band refuses."""
    fails = [(True, {"type": "sigma_zero", "region": r, "t": t}) for r, t in zeros[:1]]
    for tau in op.structure.yprime:
        e0, e1 = eta_values(op, tau)
        w = {"t": tau, "eta0": e0, "eta1": e1}
        if abs(e0) <= SIGN_BAND or abs(e1) <= SIGN_BAND:
            raise UndecidableError(f"eta inside the sign band at the Y' point t={tau!r}",
                                   {"type": "degenerate_yprime", **w})
        if e0 * e1 < 0:
            fails.append((True, {"type": "yprime_sign", **w}))
    none = _locations(partition, NONE_CLASS)
    if none:
        fails.append((False, {"type": "sigma_zero", "region": NONE_CLASS, "t": none[0]}))
    return fails


def _own_failures(op: OperatorSpec, other_arcs, other_region: str, arcs, check,
                  kind: str) -> list[tuple[bool, dict]]:
    """A side's own failures: sigma_A = 0 on the other side's arcs, else a
    failing orbit pair of its condition (check) on its own arcs."""
    if other_arcs:
        return [(False, {"type": "sigma_zero", "region": other_region,
                         "t": other_arcs[0].midpoint()})]
    if arcs:
        holds, w = check(op, arcs)
        if not holds:
            return [(True, {"type": kind, **w})]
    return []


_VERDICTS = {(True, True): "two_sided", (True, False): "right_only",
             (False, True): "left_only", (False, False): "neither"}


def decide(op: OperatorSpec) -> InvertibilityReport:
    """Right/left invertibility verdict for A = a*I - b*W.

    right holds iff sigma_A has no zero off Gamma4 and R(Gamma4) holds;
    left symmetrically with Gamma5 and L.  Each side's failures are one
    list, shared ones first; the witness is the first located failure (a
    point or an orbit pair), else the first failure.  A stage that refuses
    raises UndecidableError, which becomes the one "undecidable" report,
    with the partition summary and sigma extrema computed so far.
    """
    summary: dict = {}
    extrema: dict = {}
    try:
        if op.structure.uncertain:
            detail = "tangential fixed-point zeros in the periodic structure"
            raise UndecidableError(detail, {"type": "uncertain_structure", "detail": detail})
        partition = build_partition(op)
        summary = _partition_summary(op.structure, partition)
        degen = _locations(partition, DEGENERATE)
        if degen:
            raise UndecidableError("eta limits inside the sign band",
                                   {"type": "degenerate_classification", "locations": degen})
        shared = _shared_failures(op, partition, _sigma_zero_scan(op, partition, extrema))
        arcs4, arcs5 = partition.arcs_in(GAMMA4), partition.arcs_in(GAMMA5)
        # a side's own failures are looked for only when no failure is shared
        right = shared or _own_failures(op, arcs5, GAMMA5, arcs4, check_R, "R_orbit_pair")
        left = shared or _own_failures(op, arcs4, GAMMA4, arcs5, check_L, "L_orbit_pair")
    except UndecidableError as exc:
        return InvertibilityReport("undecidable", None, None, exc.witness, summary, extrema)

    failures = shared or right + left
    witness = next((w for located, w in failures if located),
                   failures[0][1] if failures else None)
    return InvertibilityReport(_VERDICTS[not right, not left], not right, not left,
                               witness, summary, extrema)


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
