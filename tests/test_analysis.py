import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest

import shiftop as so
from shiftop import analysis, cli
from conftest import ALPHA_PRIME_0, ALPHA_PRIME_HALF

S1_LIFT = "t+0.1*sin(2*pi*t)"
A_RL = "(0.75+0.25*cos(2*pi*t))*(-cos(2*pi*t))"   # its zero on the arcs is p = 0.25


def b_rl(q: float) -> str:
    """b with its zero at q: with A_RL both arcs of S1 are Gamma4, so R
    decides the right side."""
    d = abs(math.sin(2 * math.pi * (0.5 - q)))
    return f"(0.45-0.15*cos(2*pi*t))*sin(2*pi*(t-{q!r}))/{d!r}"


_S1 = so.Shift.from_lift(S1_LIFT)
_HI_02 = float(so.space_indices(1 / 3, 0.5).dilation_pair(_S1.deriv(0.2))[1])

# case -> (witness type, lift, a, b, declared Y' points) of an operator decide refuses
REFUSALS = {
    "uncertain_structure": ("uncertain_structure", "t + 0.05 - 0.05*cos(2*pi*(t-0.5))",
                            "2", "1", ()),
    # eta1(0) = 0: |a| is the max dilation factor at 0
    "degenerate_classification": ("degenerate_classification", S1_LIFT,
                                  repr(max(ALPHA_PRIME_0 ** (-1 / 3), ALPHA_PRIME_0 ** (-1 / 2))),
                                  "1", ()),
    # sigma_A = a dips to 1e-13 at t = 0.3
    "ambiguous_sigma_zero": ("ambiguous_sigma_zero", "t", "1e-13+sin(pi*(t-0.3))^2", "0", ()),
    # eta1 = 0 at the declared Y' point 0.2
    "degenerate_yprime": ("degenerate_yprime", S1_LIFT, repr(_HI_02), "1", (0.2,)),
    # b touches zero at 0.2 on the Gamma4 arcs: refused in the R stage, after the sigma scan
    "suspect_R_zeros": ("undecidable", S1_LIFT, "(2-1.9*sin(pi*t))*(1+0.5*cos(4*pi*t))",
                        "(sin(2*pi*(t-0.2)))^2", ()),
    # alpha_3(0.25) misses the zero q of b by 5e-10
    "near_orbit_pair": ("near_orbit_pair", S1_LIFT, A_RL,
                        b_rl(float(_S1.apply(0.25, 3)) + 5e-10), ()),
}


def eta_direct(op, t):
    """Reference eta via explicit products (independent of eta_values)."""
    m = op.structure.m
    a_m = b_m = d_m = 1.0
    u = float(t) % 1.0
    for _ in range(m):
        a_m *= float(np.asarray(so.exprlang.as_function(op.a)(u)))
        b_m *= float(np.asarray(so.exprlang.as_function(op.b)(u)))
        d_m *= float(np.asarray(op.shift.deriv(u)))
        u = float(op.shift.apply(u, 1))
    lo = min(abs(d_m) ** -op.space.alpha, abs(d_m) ** -op.space.beta)
    hi = max(abs(d_m) ** -op.space.alpha, abs(d_m) ** -op.space.beta)
    return abs(a_m) - abs(b_m) * lo, abs(a_m) - abs(b_m) * hi


class TestOrbitProduct:
    def test_constant(self, s1):
        assert so.orbit_product(so.parse("2"), s1, 3, 0.123) == pytest.approx(8.0)

    def test_two_term_by_hand(self):
        rot = so.Shift.from_lift("t+0.5")
        val = so.orbit_product(so.parse("t+0.5"), rot, 2, 0.2)
        assert val == pytest.approx(0.7 * 1.2, abs=1e-14)

    def test_chain_rule_vs_finite_difference(self, s1):
        for m in (1, 2, 3):
            for t in (0.1, 0.3, 0.7):
                prod = so.orbit_product(s1.deriv, s1, m, t)
                h = 1e-6
                fd = (s1.apply(t + h, m) - s1.apply(t - h, m)) / (2 * h)
                assert prod == pytest.approx(fd, rel=1e-6)


class TestEtaValues:
    def test_spec_values(self, s1, s1_structure, idx):
        op = so.operator_spec("2", "1", s1, idx, structure=s1_structure)
        _, eta1 = so.eta_values(op, 0.0)
        assert eta1 == pytest.approx(2 - max(ALPHA_PRIME_0 ** (-1 / 3),
                                             ALPHA_PRIME_0 ** (-1 / 2)), abs=1e-12)
        assert eta1 == pytest.approx(1.150, abs=1e-3)
        eta0, _ = so.eta_values(op, 0.5)
        assert eta0 == pytest.approx(0.609, abs=1e-3)

    def test_b_zero_case(self, s1, s1_structure, idx):
        op = so.operator_spec("2", "0", s1, idx, structure=s1_structure)
        e0, e1 = so.eta_values(op, 0.37)
        assert e0 == e1 == pytest.approx(2.0)

    def test_matches_direct_product(self, fixture_suite):
        for name, (op, _) in fixture_suite.items():
            for t in (0.0, 0.2, 0.55, 0.9):
                e0, e1 = so.eta_values(op, t)
                d0, d1 = eta_direct(op, t)
                assert e0 == pytest.approx(d0, abs=1e-12), name
                assert e1 == pytest.approx(d1, abs=1e-12), name

    def test_eta1_le_eta0_everywhere(self, fixture_suite):
        ts = np.linspace(0, 1, 211, endpoint=False)
        for name, (op, _) in fixture_suite.items():
            e0, e1 = so.eta_values(op, ts)
            assert np.all(e1 <= e0 + 1e-12), name


class TestEtaLimits:
    def test_f4_endpoint_lookup(self, s1, s1_structure, idx):
        op = so.operator_spec("2-1.9*sin(pi*t)", "1", s1, idx, structure=s1_structure)
        e0m, e0p, e1m, e1p = so.eta_limits(op, 0.25)
        assert e0p == pytest.approx(-1.291, abs=1e-3)   # eta0 at 0.5
        assert e1m == pytest.approx(1.150, abs=1e-3)    # eta1 at 0

    def test_fixed_point_all_equal(self, s1, s1_structure, idx):
        op = so.operator_spec("2", "1", s1, idx, structure=s1_structure)
        e0, e1 = so.eta_values(op, 0.5)
        assert so.eta_limits(op, 0.5) == (e0, e0, e1, e1)

    def test_iteration_cross_check(self, fixture_suite):
        """Endpoint lookup vs 50-step orbit iteration within 1e-8."""
        rng = random.Random(42)
        for name, (op, _) in fixture_suite.items():
            m = op.structure.m
            for _ in range(20):
                t = rng.uniform(0, 1)
                e0m, e0p, e1m, e1p = so.eta_limits(op, t)
                fwd = op.shift.apply(t, 50 * m)
                bwd = op.shift.apply(t, -50 * m)
                f0, f1 = so.eta_values(op, fwd)
                b0, b1 = so.eta_values(op, bwd)
                assert abs(f0 - e0p) <= 1e-8, name
                assert abs(f1 - e1p) <= 1e-8, name
                assert abs(b0 - e0m) <= 1e-8, name
                assert abs(b1 - e1m) <= 1e-8, name


class TestPartition:
    def test_f4_partition(self, s1, s1_structure, idx):
        op = so.operator_spec("2-1.9*sin(pi*t)", "1", s1, idx, structure=s1_structure)
        part = so.build_partition(op)
        regions = {round(p, 6): c.region for p, c in part.points}
        assert regions == {0.0: "gamma2", 0.5: "gamma3"}
        assert all(c.region == "gamma4" for _, c in part.arcs)

    def test_classify_reads_each_arcs_own_region(self, idx):
        # four arcs, gamma2 next to the attracting point 0.25 and gamma5 next
        # to the repelling point 0.5: each arc's points get its own region
        shift = so.Shift.from_lift("t+0.05*sin(4*pi*t)")
        op = so.operator_spec("2+1.9*cos(2*pi*t)", "1", shift, idx)
        part = so.build_partition(op)
        assert [c.region for _, c in part.arcs] == ["gamma2", "gamma5", "gamma5", "gamma2"]
        for arc, c in part.arcs:
            assert part.classify(op.structure, arc.midpoint()) == c.region

    def test_f1_all_gamma2(self, s1, s1_structure, idx):
        op = so.operator_spec("2", "1", s1, idx, structure=s1_structure)
        part = so.build_partition(op)
        assert all(c.region == "gamma2" for _, c in part.arcs)
        assert all(c.region == "gamma2" for _, c in part.points)

    def test_identity_shift_all_gamma1(self, idx):
        ident = so.Shift.from_lift("t")
        op = so.operator_spec("2", "1", ident, idx)
        part = so.build_partition(op)
        assert part.arcs == () and part.points == ()
        assert part.classify(op.structure, 0.37) == "gamma1"

    def test_invariance_under_shift(self, fixture_suite):
        rng = random.Random(11)
        for name, (op, _) in fixture_suite.items():
            part = so.build_partition(op)
            for _ in range(15):
                t = rng.uniform(0, 1)
                if op.structure.in_lambda(t, tol=1e-6):
                    continue
                k = rng.randint(-3, 3)
                c1 = part.classify(op.structure, t)
                c2 = part.classify(op.structure, op.shift.apply(t, k))
                assert c1 == c2, (name, t, k)

    def test_gamma45_avoid_lambda(self, fixture_suite):
        for name, (op, _) in fixture_suite.items():
            part = so.build_partition(op)
            for p, c in part.points:
                assert c.region not in ("gamma4", "gamma5"), name

    def test_eta_once_per_distinct_end(self, fixture_suite, monkeypatch):
        # F1's two arcs and its two Y points all end at 0 and 0.5
        calls = []
        eta_values = analysis.eta_values

        def counted(op, t):
            calls.append(t)
            return eta_values(op, t)

        monkeypatch.setattr(analysis, "eta_values", counted)
        so.build_partition(fixture_suite["F1"][0])
        assert calls == [0.0, 0.5]

    def test_degenerate_band(self, s1, s1_structure, idx):
        # eta1(0) = 0 exactly: |a| = max dilation factor at 0
        a0 = max(ALPHA_PRIME_0 ** (-1 / 3), ALPHA_PRIME_0 ** (-1 / 2))
        op = so.operator_spec(lambda t: a0 + 0.0 * np.asarray(t), "1", s1, idx,
                              structure=s1_structure)
        part = so.build_partition(op)
        regions = {round(p, 6): c.region for p, c in part.points}
        assert regions[0.0] == "degenerate"
        assert so.decide(op).verdict == "undecidable"


class TestSigmaA:
    def test_f1_constant(self, s1, s1_structure, idx):
        op = so.operator_spec("2", "1", s1, idx, structure=s1_structure)
        part = so.build_partition(op)
        assert so.sigma_A(op, 0.3, part) == pytest.approx(2.0)

    def test_f4_gamma3_point(self, s1, s1_structure, idx):
        op = so.operator_spec("2-1.9*sin(pi*t)", "1", s1, idx, structure=s1_structure)
        part = so.build_partition(op)
        assert so.sigma_A(op, 0.5, part) == pytest.approx(-1.0)

    def test_gamma4_zero(self, s1, s1_structure, idx):
        op = so.operator_spec("2-1.9*sin(pi*t)", "1", s1, idx, structure=s1_structure)
        part = so.build_partition(op)
        assert so.sigma_A(op, 0.25, part) == 0.0

    def test_reflection_orbit_products(self, idx):
        refl = so.Shift.from_lift("1-t")
        op = so.operator_spec("2", "1", refl, idx)
        part = so.build_partition(op)
        assert so.sigma_A(op, 0.3, part) == pytest.approx(3.0)


    def test_extrema_nodes_are_every_16th_scan_node(self, fixture_suite, idx):
        # the sigma_extrema record reads every 16th node of the 4096-cell
        # zero scan: bit for bit the nodes and values of a 256-cell Scan
        ops = [op for op, _ in fixture_suite.values()]
        # S1 turned by 0.3, with arcs (0.3, 0.8) and (0.8, 1.3), the second wrapping
        ops.append(so.operator_spec("2-1.9*abs(sin(pi*(t-0.3)))", "1", "t+0.1*sin(2*pi*(t-0.3))",
                                    idx))
        assert any(g.end > 1.0 for g in ops[-1].structure.gamma)
        for op in ops:
            arcs = op.structure.omega + op.structure.gamma
            for region in ("gamma1", "gamma2", "gamma3"):
                fn = analysis._region_sigma_fn(op, region).wrap()
                for arc in arcs:
                    fine = so.exprlang.Scan(fn, arc.start, arc.end, so.exprlang.SCAN_CELLS)
                    coarse = so.exprlang.Scan(fn, arc.start, arc.end, 256)
                    assert fine.xs[::16].tobytes() == coarse.xs.tobytes(), (region, arc)
                    assert fine.fx[::16].tobytes() == coarse.fx.tobytes(), (region, arc)

    def test_partition_built_when_not_given(self, idx):
        shift = so.Shift.from_lift("t+0.05*sin(4*pi*t)")
        op = so.operator_spec("2+1.9*cos(2*pi*t)", "1", shift, idx)
        part = so.build_partition(op)
        for t in (0.1, 0.3, 0.6, 0.9):
            assert so.sigma_A(op, t) == so.sigma_A(op, t, part)
        assert so.sigma_A(op, 0.1) > 1.0

    def test_filter_near_y_drops_points_keeps_intervals(self, s1_structure):
        hits = [so.exprlang.ZeroHit(0.5 + 5e-11, "crossing"),
                so.exprlang.ZeroHit(0.5, "interval", 0.0, 0.49, 0.51),
                so.exprlang.ZeroHit(0.25, "crossing")]
        assert analysis._filter_near_y(hits, s1_structure) == hits[1:]

    def test_partial_arc_drops_zeros_at_its_ends(self):
        # sigma_A = a - b on the Carleman arc (0.2, 0.6) crosses zero 5e-11
        # after its end point 0.2: a zero of the Y point, not of the arc
        structure = so.PeriodicStructure(1, 1, (), (so.Arc(0.2, 0.6),), ())
        a = so.exprlang.Fn.of(so.parse("1+10*(t-0.20000000005)"), "a")
        b = so.exprlang.Fn.of(so.parse("1"), "b")
        op = analysis.OperatorSpec(a, b, so.Shift.from_lift("t"), structure,
                                   so.space_indices(1 / 3, 0.5))
        hits = so.find_zeros((a - b).wrap(), 0.2, 0.6)
        assert [h.kind for h in hits] == ["crossing"]
        assert analysis._sigma_zero_scan(op, so.build_partition(op), {}) == []


class TestRL:
    def test_f4_vacuous(self, s1, s1_structure, idx):
        op = so.operator_spec("2-1.9*sin(pi*t)", "1", s1, idx, structure=s1_structure)
        part = so.build_partition(op)
        holds, witness = so.check_R(op, part.arcs_in("gamma4"))
        assert holds and witness is None

    def test_shared_zero_fails_R_not_L(self, s1, s1_structure, idx):
        sh = lambda t: np.sin(2 * np.pi * (np.asarray(t) - 0.3))
        op = so.operator_spec(sh, sh, s1, idx, structure=s1_structure)
        arc = [s1_structure.gamma[0]]
        holds, witness = so.check_R(op, arc)
        assert not holds
        assert witness["n"] == 0
        assert witness["p"] == pytest.approx(0.3, abs=1e-9)
        holds, witness = so.check_L(op, arc)
        assert holds and witness is None

    def test_zero_behind_orbit_R_holds(self, s1, s1_structure, idx):
        # a zero at 0.3, b zero at 0.1: forward orbit of 0.3 stays in (0.3, 0.5)
        a_fn = lambda t: np.sin(2 * np.pi * (np.asarray(t) - 0.3))
        b_fn = lambda t: np.sin(2 * np.pi * (np.asarray(t) - 0.1))
        op = so.operator_spec(a_fn, b_fn, s1, idx, structure=s1_structure)
        holds, _ = so.check_R(op, [s1_structure.gamma[0]])
        assert holds

    def test_on_orbit_pair_fails(self, s1, s1_structure, idx):
        q = s1.apply(0.1, 3)
        b_fn = lambda t: np.sin(2 * np.pi * (np.asarray(t) - 0.1))
        a_fn = lambda t: np.sin(2 * np.pi * (np.asarray(t) - q))
        op = so.operator_spec(a_fn, b_fn, s1, idx, structure=s1_structure)
        holds, witness = so.check_L(op, [s1_structure.gamma[0]])
        assert not holds
        assert witness["n"] == 3
        # brute-force confirmation: q really is on the forward orbit of p
        z = witness["p"]
        for _ in range(witness["n"]):
            z = s1.apply(z, 1)
        assert float(so.circle_dist(z, witness["q"])) <= 1e-9

    def test_zero_pair_in_different_arcs_stops_early(self, s1, s1_structure, idx,
                                                      monkeypatch):
        # zeros of a and b on both moving arcs of S1: the orbit of a zero in
        # one arc never enters the other, which once walked 10^6 steps
        calls = 0
        apply = so.Shift.apply

        def counted(shift, t, k=1):
            nonlocal calls
            calls += 1
            return apply(shift, t, k)

        monkeypatch.setattr(so.Shift, "apply", counted)
        op = so.operator_spec("0.857+0.867*sin(4*pi*t)", "0.63+0.892*cos(2*pi*t)",
                              s1, idx, structure=s1_structure)
        assert so.decide(op).verdict == "left_only"
        assert calls < 10_000

    @pytest.mark.parametrize("offset, verdict", [(0.0, "neither"), (2e-9, "right_only")])
    def test_orbit_match_band(self, s1, s1_structure, idx, offset, verdict):
        # alpha_3(0.25) = q to 7.6e-14 at offset 0, inside the band 1e-12*(1 + alpha_3'(0.25));
        # 2e-9 is a miss.  5e-10, beyond the band but inside ORBIT_MATCH_TOL, is
        # TestRefusals' near_orbit_pair case
        q = float(s1.apply(0.25, 3)) + offset
        report = so.decide(so.operator_spec(A_RL, b_rl(q), s1, idx, structure=s1_structure))
        assert report.verdict == verdict
        if offset == 0.0:
            assert (report.witness["type"], report.witness["n"]) == ("R_orbit_pair", 3)

    def test_guard_exhausted_is_undecidable(self, idx, monkeypatch):
        # alpha' = 1 +- 1e-6 at the fixed points: the orbit of p = 0.25 reaches
        # the zero q of b only after 10,500 steps, beyond the patched guard,
        # where "no hit" would read as R holding and give right_only
        monkeypatch.setattr(so.analysis, "ORBIT_GUARD_RL", 10_000)
        shift = so.Shift.from_lift("t+1e-6*sin(2*pi*t)/(2*pi)")
        q = float(shift.apply(0.25, 10500))
        d = abs(math.sin(2 * math.pi * (0.5 - q)))
        op = so.operator_spec("(0.75+0.25*cos(2*pi*t))*(-cos(2*pi*t))",
                              f"(0.45-0.15*cos(2*pi*t))*sin(2*pi*(t-{q!r}))/{d!r}",
                              shift, idx)
        report = so.decide(op)
        assert report.verdict == "undecidable"
        assert "after 10000 steps" in report.witness["detail"]


class TestRefusals:
    """Every refusal is an undecidable report whose witness says why; guard
    exhaustion is TestRL::test_guard_exhausted_is_undecidable."""

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_witness(self, case, idx, tmp_path):
        kind, lift, a, b, yprime = REFUSALS[case]
        shift = so.Shift.from_lift(lift)
        structure = replace(so.compute_periodic_structure(shift), yprime=yprime)
        report = so.decide(so.operator_spec(a, b, shift, idx, structure=structure))
        assert (report.verdict, report.right, report.left) == ("undecidable", None, None)
        assert report.witness["type"] == kind
        if case == "ambiguous_sigma_zero":
            assert report.witness["locations"] == [pytest.approx(0.3, abs=1e-6)]
        if case == "suspect_R_zeros":
            assert "suspect" in report.witness["detail"]
            assert report.sigma_extrema   # the scan ran before the R stage refused
        if case == "near_orbit_pair":
            assert report.witness["n"] == 3
            assert report.witness["distance"] == pytest.approx(5e-10, rel=1e-2)
        if yprime:
            return   # a config cannot declare Y' points
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg.write_text(json.dumps({"shift": {"lift": lift}, "a": a, "b": b,
                                   "space": {"alpha": 1 / 3, "beta": 0.5}}), encoding="utf-8")
        assert cli.run(["analyze", "-c", str(cfg), "-o", str(out)]) == cli.EXIT_UNDECIDABLE
        assert json.loads(out.read_text(encoding="utf-8"))["witness"]["type"] == kind


# case -> (lift, a, b): a feature narrower than one scan cell that decide
# misses, answering two_sided with a None witness
SAMPLING_LIMIT = {
    # a dips to -1 inside one cell of the Gamma2 arc, so sigma_A vanishes there
    "narrow_dip": (S1_LIFT, "3-4*exp(-((t-0.30007)/0.00003)^2)", "1"),
    # a is NaN on an interval of width 6.4e-6 between two scan nodes
    "nan_between_nodes": (S1_LIFT, "sqrt((sin(pi*(t-0.2501220703125)))^2-1e-10)", "1"),
    # alpha' jumps from 0.7996 to 0.8121 at 0.3000001, between two scan nodes
    "kink_between_nodes": ("t+0.03+0.1*sin(2*pi*t)+0.001*abs(sin(2*pi*(t-0.3000001)))",
                           "2", "1"),
}


class TestSamplingLimit:
    """Inputs that must get no definite verdict: they raise (a config
    error, exit 2) or are undecidable.  Today each gets two_sided."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
    @pytest.mark.parametrize("case", sorted(SAMPLING_LIMIT))
    def test_no_definite_verdict(self, case, idx):
        lift, a, b = SAMPLING_LIMIT[case]
        try:
            verdict = so.decide(so.operator_spec(a, b, so.Shift.from_lift(lift), idx)).verdict
        except ValueError:   # EvalDomainError, StructureError
            return
        assert verdict == "undecidable"


class TestOperatorSpec:
    @pytest.mark.parametrize("which, text", [("a", "1/sin(2*pi*t)"), ("b", "log(t)")])
    def test_infinite_at_zero_named(self, s1, s1_structure, idx, which, text):
        coeffs = {"a": "2", "b": "1", which: text}
        with pytest.raises(so.EvalDomainError, match=rf"^{which}: .* at t=0\.0$"):
            so.operator_spec(coeffs["a"], coeffs["b"], s1, idx, structure=s1_structure)


class TestDecide:
    def test_fixture_verdicts(self, fixture_suite):
        for name, (op, expected) in fixture_suite.items():
            report = so.decide(op)
            assert report.verdict == expected, name
            assert (report.verdict == "two_sided") == (report.right and report.left)

    def test_f6_witness_is_shared_zero_pair(self, fixture_suite):
        report = so.decide(fixture_suite["F6"][0])
        assert report.witness["type"] == "R_orbit_pair"
        assert report.witness["n"] == 0
        assert report.witness["p"] == pytest.approx(0.25, abs=1e-9)

    def test_two_sided_shortcut(self, fixture_suite):
        for name, (op, expected) in fixture_suite.items():
            report = so.decide(op)
            part = so.build_partition(op)
            no_sided_regions = not part.arcs_in("gamma4") and not part.arcs_in("gamma5")
            min_abs = min((v["min_abs"] for v in report.sigma_extrema.values()),
                          default=math.inf)
            shortcut = no_sided_regions and min_abs > 0 and report.witness is None
            assert (report.verdict == "two_sided") == shortcut, name

    def test_uncertain_structure_undecidable(self, idx):
        shift = so.Shift.from_lift("t + 0.05 - 0.05*cos(2*pi*(t-0.5))")
        op = so.operator_spec("2", "1", shift, idx)
        assert so.decide(op).verdict == "undecidable"

    def test_yprime_branch(self, s1, s1_structure, idx):
        from dataclasses import replace
        # declare an artificial Y' point where eta0*eta1 < 0: kills both sides.
        # At t=0.2 the dilation factors straddle a=0.93, so eta1 < 0 < eta0.
        ps = replace(s1_structure, yprime=(0.2,))
        op = so.operator_spec("0.93", "1", s1, idx, structure=ps)
        e0, e1 = so.eta_values(op, 0.2)
        assert e0 > 0 > e1
        report = so.decide(op)
        assert report.verdict == "neither"
        assert report.witness["type"] == "yprime_sign"
        # without the declared Y' point the verdict would be right_only
        op_plain = so.operator_spec("0.93", "1", s1, idx, structure=s1_structure)
        assert so.decide(op_plain).verdict == "right_only"


class TestAdjoint:
    def test_b_zero_self_dual(self, s1, s1_structure, idx):
        op = so.operator_spec("2", "0", s1, idx, structure=s1_structure)
        adj = so.adjoint_spec(op)
        ts = np.linspace(0, 1, 17, endpoint=False)
        assert np.allclose(np.asarray(so.exprlang.as_function(adj.b)(ts)), 0.0)

    def test_identity_shift_same_operator(self, idx):
        ident = so.Shift.from_lift("t")
        op = so.operator_spec("2", "0.5", ident, idx)
        adj = so.adjoint_spec(op)
        ts = np.linspace(0, 1, 17, endpoint=False)
        b_vals = np.asarray([adj.b(float(t)) for t in ts])
        assert np.allclose(b_vals, 0.5, atol=1e-10)

    def test_weight_at_fixed_point(self, s1, s1_structure, idx):
        op = so.operator_spec("2", "1", s1, idx, structure=s1_structure)
        adj = so.adjoint_spec(op)
        assert adj.b(0.0) == pytest.approx(1.0 / ALPHA_PRIME_0, rel=1e-10)
        assert adj.space.alpha == pytest.approx(0.5)
        assert adj.space.beta == pytest.approx(2 / 3)

    def test_duality_on_suite(self, fixture_suite):
        for name, (op, _) in fixture_suite.items():
            r = so.decide(op)
            radj = so.decide(so.adjoint_spec(op))
            assert r.right == radj.left, name
            assert r.left == radj.right, name


class TestReduction:
    def test_m1_trivial(self, s1, s1_structure, idx):
        op = so.operator_spec("2", "1", s1, idx, structure=s1_structure)
        op_m, cond = so.reduce_to_fixed(op)
        assert op_m is op and cond is True

    def test_rotation_constants(self, idx):
        rot = so.Shift.from_lift("t+0.5")
        op = so.operator_spec("2", "1", rot, idx)
        op_m, cond = so.reduce_to_fixed(op)
        assert cond is True
        assert op_m.a(0.2) == pytest.approx(4.0)
        assert op_m.b(0.2) == pytest.approx(1.0)
        assert op_m.structure.m == 1

    def test_sin_cos_no_joint_zero(self, idx):
        rot = so.Shift.from_lift("t+0.5")
        op = so.operator_spec("sin(2*pi*t)", "cos(2*pi*t)", rot, idx)
        _, cond = so.reduce_to_fixed(op)
        assert cond is True

    def test_consistency_m2(self, idx):
        cases = [
            ("sin(2*pi*t)+0.5", "0.5", "1-t"),
            ("2", "1", "t+0.5"),
            ("sin(2*pi*t)+1.5", "0.7*cos(2*pi*t)+0.2", "t+0.5"),
            ("2", "1", "t+0.5+0.05*sin(4*pi*t)"),
            ("0.3*cos(2*pi*t)", "1", "t+0.5+0.05*sin(4*pi*t)"),
        ]
        for a, b, lift in cases:
            shift = so.Shift.from_lift(lift)
            op = so.operator_spec(a, b, shift, idx)
            assert op.structure.m == 2, lift
            report = so.decide(op)
            op_m, cond = so.reduce_to_fixed(op)
            report_m = so.decide(op_m)
            assert report.right == (report_m.right and cond), (a, b, lift)

    def test_joint_zero_reads_a_touch_value(self):
        # a vanishes on [1/8, 3/8]; b dips to 1e-6 at 0.25 there, a tangential
        # hit whose value is far above the sign band
        a = so.exprlang.Fn.of(so.parse("0.5*(cos(4*pi*t)+abs(cos(4*pi*t)))"), "a")
        b = so.exprlang.Fn.of(so.parse("1e-6+(sin(pi*(t-0.25)))^2"), "b")
        ivals = [h for h in so.find_zeros(a, 0.0, 0.5) if h.kind == "interval"]
        assert [h.kind for h in so.find_zeros(b, ivals[0].lo, ivals[0].hi)] == ["tangential"]
        assert analysis._joint_zero(a, b, so.Arc(0.0, 0.5)) is False

    @pytest.mark.parametrize("a, b, expected", [
        # a(0.3) = b(0.3) = 0 on the Gamma4 arc (0, 0.5); 0.3 was no sample of
        # the old 2049-point grid, whose minimum of |a| + |b| read about 6e-4
        ("sin(2*pi*(t-0.3))", "sin(2*pi*(t-0.3))", False),
        # a vanishes on [1/8, 3/8], where b crosses zero at 0.3 (not at an end)
        ("0.5*(cos(4*pi*t)+abs(cos(4*pi*t)))", "sin(2*pi*(t-0.3))", False),
        ("0.5*(cos(4*pi*t)+abs(cos(4*pi*t)))", "1+0.5*sin(2*pi*t)", True),
    ])
    def test_joint_zero_between_samples(self, idx, a, b, expected):
        op = so.operator_spec(a, b, "-t-0.05*sin(2*pi*t)", idx)
        assert {c.region for _, c in so.build_partition(op).arcs} == {"gamma4"}
        _, cond = so.reduce_to_fixed(op)
        assert cond is expected
