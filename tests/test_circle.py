import dataclasses
import gc
import math
import random
import weakref

import numpy as np
import pytest

import shiftop as so
from shiftop.circle import Arc, StructureError


class TestShiftApply:
    def test_fixed_point_iterates(self, s1):
        assert s1.apply(0.0, 5) == pytest.approx(0.0, abs=1e-14)

    def test_forward(self, s1):
        assert s1.apply(0.25, 1) == pytest.approx(0.35, abs=1e-14)

    def test_inverse_of_forward(self, s1):
        assert s1.apply(0.35, -1) == pytest.approx(0.25, abs=1e-12)
        # checked by forward application
        assert s1.apply(s1.apply(0.35, -1), 1) == pytest.approx(0.35, abs=1e-13)

    def test_zero_iterations_identity(self, s1):
        assert s1.apply(0.37, 0) == 0.37

    def test_orbit_guard(self, s1):
        with pytest.raises(ValueError, match="guard"):
            s1.apply(0.1, 10 ** 6 + 1)

    def test_conjugacy_of_iterates(self, s1):
        rng = random.Random(7)
        for _ in range(25):
            t = rng.uniform(0.0, 1.0)
            j = rng.randint(-8, 8)
            k = rng.randint(-8, 8)
            lhs = s1.apply(t, j + k)
            rhs = s1.apply(s1.apply(t, k), j)
            assert float(so.circle_dist(lhs, rhs)) <= 1e-10

    def test_inverse_derivative(self, s1):
        inv = s1.inverse()
        # alpha_{-1}'(0) = 1/alpha'(0)
        assert inv.deriv(0.0) == pytest.approx(1.0 / (1 + 0.2 * math.pi), rel=1e-10)

    def test_power_is_iterate(self, s1):
        sq = s1.power(2)
        xs = np.linspace(-0.5, 1.5, 41)
        assert np.array_equal(sq.lift_ext(xs), s1.lift_ext(s1.lift_ext(xs)))
        ts = np.linspace(0.0, 1.0, 41)
        assert np.allclose(sq.deriv(ts), s1.deriv(ts) * s1.deriv(s1(ts)), rtol=1e-14, atol=0.0)


class TestShiftValidation:
    def test_non_monotone_rejected(self):
        with pytest.raises(StructureError, match="monotone"):
            so.Shift.from_lift("t+0.3*sin(2*pi*t)")

    def test_wrong_jump_rejected(self):
        with pytest.raises(StructureError, match="L\\(1\\)-L\\(0\\)"):
            so.Shift.from_lift("2*t")

    def test_orientation_mismatch_rejected(self):
        with pytest.raises(StructureError, match="decreasing"):
            so.Shift.from_lift("1-t", orientation="preserve")
        assert so.Shift.from_lift("-t", orientation="reverse").orientation == -1
        message = "^lift is increasing but orientation 'reverse' was requested$"
        with pytest.raises(StructureError, match=message):
            so.Shift.from_lift("t+0.1*sin(2*pi*t)", orientation="reverse")


class TestInverseSolve:
    """The inverse-lift solve: table bracket, then safeguarded Newton."""

    LIFTS = ["t+0.1*sin(2*pi*t)", "t+0.05*sin(4*pi*t)", "t+0.03+0.1*sin(2*pi*t)",
             "t+0.5", "1-t", "1-t+0.1*sin(2*pi*t)", "t",
             "t+0.15*sin(2*pi*t)"]   # alpha' from 0.06 to 1.94
    NODES = np.linspace(0.0, 1.0, 257)

    @staticmethod
    def _shifts():
        s1 = so.Shift.from_lift("t+0.1*sin(2*pi*t)")
        inv = s1.inverse()
        shifts = {lift: so.Shift.from_lift(lift) for lift in TestInverseSolve.LIFTS}
        shifts["S1^2"] = s1.power(2)
        shifts["S1^-1^-1"] = inv.inverse()
        # the inverse lift as a forward lift: a solve nested in a solve
        shifts["S1^-1 fresh"] = so.Shift(inv.lift_ext, inv.deriv, inv.orientation)
        return shifts

    def _targets(self, shift):
        """The table nodes, the seams L(0) + k and 1 ulp either side, |y| up to 1e3."""
        lift = shift.lift_ext
        seams = lift(0.0) + np.arange(-3.0, 4.0)
        rng = np.random.default_rng(11)
        return np.concatenate([lift(self.NODES), lift(self.NODES - 2.0), lift(self.NODES + 7.0),
                               seams, np.nextafter(seams, np.inf), np.nextafter(seams, -np.inf),
                               rng.uniform(-1e3, 1e3, 64), [-1e3, 1e3]])

    @pytest.mark.parametrize("name", LIFTS + ["S1^2", "S1^-1^-1", "S1^-1 fresh"])
    def test_residual_and_round_trip(self, name):
        shift = self._shifts()[name]
        solve = shift.inverse().lift_ext
        ys = self._targets(shift)
        xs = solve(ys)
        assert xs.shape == ys.shape
        assert np.max(np.abs(shift.lift_ext(xs) - ys)) <= 1e-10, name
        # the scalar solve, on Python floats, against the array solve
        for y, x in zip(ys, xs):
            got = solve(float(y))
            assert isinstance(got, np.float64)
            assert abs(shift.lift_ext(got) - y) <= 1e-10, (name, y)
            assert got.hex() == float(x).hex(), (name, y)
        rng = np.random.default_rng(12)
        pts = np.concatenate([self.NODES + k for k in range(-3, 4)] + [rng.uniform(-4.0, 4.0, 200)])
        assert np.max(np.abs(solve(shift.lift_ext(pts)) - pts)) <= 1e-12, name
        for x in pts[::37]:
            assert abs(solve(shift.lift_ext(float(x))) - x) <= 1e-12, (name, x)

    def test_target_past_table_end(self):
        # a period jump 4 ulps short of 1 puts y = 1 - ulp past the table's
        # last entry; the root lies just beyond the last cell
        scale = 1.0 - 2.0 ** -51
        shift = so.Shift(lambda x: x * scale, lambda t: scale + 0.0 * t, 1)
        y = np.nextafter(1.0, 0.0)
        for target in (y, np.array([0.5, y])):
            x = shift.inverse().lift_ext(target)
            assert np.max(np.abs(shift.lift_ext(x) - target)) <= 1e-10

    def test_noisy_lift(self):
        # 1e6*t - 1e6*t rounds L to multiples of about 1.2e-10, above the
        # stopping tolerance: the solve runs to its cap and must return its
        # best point, not its last
        shift = so.Shift.from_lift("t+0.1*sin(2*pi*t)+1e6*t-1e6*t")
        ys = np.random.default_rng(13).uniform(-1e3, 1e3, 300)
        xs = shift.inverse().lift_ext(ys)
        assert np.max(np.abs(shift.lift_ext(xs) - ys)) <= 1e-10

    def test_scalar_solve_lift_evaluations(self, s1):
        # the start point and two Newton steps: a step that halves |g| keeps
        # Newton for the next one
        calls = []
        for shift in (s1, so.Shift.from_lift("t+0.03+0.1*sin(2*pi*t)"),
                      so.Shift.from_lift("1-t+0.1*sin(2*pi*t)")):
            def counted(x, lift=shift.lift_ext):
                calls.append(x)
                return lift(x)

            inv = so.Shift(counted, shift.deriv, shift.orientation).inverse()
            for y in np.linspace(-1.0, 2.0, 61):
                calls.clear()
                inv.lift_ext(float(y))
                assert len(calls) <= 3, (y, len(calls))

    def test_non_monotone_callable_rejected(self):
        with pytest.raises(StructureError, match="monotone"):
            so.Shift(lambda x: x + 0.3 * np.sin(2 * np.pi * x),
                     lambda t: 1 + 0.6 * np.pi * np.cos(2 * np.pi * t), 1)

        # L falls only on (0.298, 0.2988), inside the table cell between the
        # nodes 76/256 and 77/256, where it equals t: the 4097-node check sees it
        def dip(x):
            u = x - np.floor(x)
            return x - 0.0016 * np.maximum(0.0, 1.0 - np.abs(u - 0.2988) / 0.0008)

        message = r"^lift is not strictly monotone near t=0\.298096$"
        with pytest.raises(StructureError, match=message):
            so.Shift(dip, lambda t: 1.0 + 0.0 * t, 1)

    def test_failure_names_worst_y(self):
        # an increasing lift that jumps by 0.001 at t = 0.301: the values it
        # skips, (0.300699, 0.301699], have no preimage.  The inverse shift
        # samples its lift at the 4097 nodes k/4096, four of which lie in the
        # gap; the worst is 1234/4096, 0.000429 below the gap's upper end
        def lift(x):
            n = np.floor(x)
            u = x - n
            return 0.999 * u + 0.001 * (u > 0.301) + n

        shift = so.Shift(lift, lambda t: 0.999 + 0.0 * t, 1)
        with pytest.raises(StructureError,
                           match=r"\|L\(x\) - y\| = 0\.000429 at y = 0\.30126953125;"):
            shift.apply(np.array([0.1, 0.7]), -1)

    def test_scalar_failure_names_y(self):
        # the skipped value of test_failure_names_worst_y as a float target,
        # solved on the lift's own data: the same message
        def lift(x):
            n = np.floor(x)
            u = x - n
            return 0.999 * u + 0.001 * (u > 0.301) + n

        shift = so.Shift(lift, lambda t: 0.999 + 0.0 * t, 1)
        with pytest.raises(StructureError,
                           match=r"\|L\(x\) - y\| = 0\.000429 at y = 0\.30126953125;"):
            so.circle._solve_inverse(shift.lift_ext, shift.deriv, shift._table, 1, 0.30126953125)

    def test_zero_derivative_takes_midpoint(self):
        # alpha' reads 0 everywhere, so every Newton step is refused: the
        # scalar solve bisects and agrees with the array solve, never dividing by 0
        shift = so.Shift(lambda x: x + 0.1 * np.sin(2 * np.pi * x), lambda t: 0.0 * t, 1)
        ys = np.linspace(-1.0, 2.0, 31)
        with np.errstate(divide="ignore"):
            xs = so.circle._solve_inverse(shift.lift_ext, shift.deriv, shift._table, 1, ys)
        for y, x in zip(ys, xs):
            got = so.circle._solve_inverse(shift.lift_ext, shift.deriv, shift._table, 1, float(y))
            assert got.hex() == x.hex(), y
            assert abs(shift.lift_ext(got) - y) <= 1e-10, y

    def test_no_reference_cycle(self):
        # a shift and its inverse are freed by reference counting alone
        gc.disable()
        try:
            shift = so.Shift.from_lift("t+0.1*sin(2*pi*t)")
            inv = shift.inverse()
            refs = weakref.ref(shift), weakref.ref(inv)
            del shift, inv
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_inverse_outlives_its_shift(self):
        # the inverse holds its shift weakly; once that shift is gone it
        # builds it again from its lift and derivative, bit for bit
        shift = so.Shift.from_lift("t+0.1*sin(2*pi*t)")
        inv = shift.inverse()
        assert inv.inverse() is shift
        xs = np.linspace(-1.0, 2.0, 61)
        lifts, derivs = shift.lift_ext(xs).tolist(), shift.deriv(xs).tolist()
        ref = weakref.ref(shift)
        del shift
        assert ref() is None
        again = inv.inverse()
        assert again is inv.inverse()
        assert again.lift_ext(xs).tolist() == lifts
        assert again.deriv(xs).tolist() == derivs
        assert [float(again.apply(x, -1)).hex() for x in xs] == \
            [float(inv.apply(x, 1)).hex() for x in xs]


class TestDetect:
    def test_s1(self, s1):
        assert so.detect_orientation_and_multiplicity(s1) == (1, 1)

    def test_rotation_half(self):
        rot = so.Shift.from_lift("t+0.5")
        assert so.detect_orientation_and_multiplicity(rot) == (1, 2)

    def test_reflection_minus_t(self):
        assert so.detect_orientation_and_multiplicity(so.Shift.from_lift("-t")) == (-1, 2)

    def test_no_periodic_points(self):
        # golden-ratio-like rotation: no periodic points at any multiplicity
        rot = so.Shift.from_lift("t+0.6180339887498949")
        with pytest.raises(so.NoPeriodicStructureError):
            so.detect_orientation_and_multiplicity(rot)

    @pytest.mark.parametrize("lift", [
        "t+0.1*sin(2*pi*t)", "t+0.05*sin(4*pi*t)", "t+0.03+0.1*sin(2*pi*t)", "t+0.5",
        "1-t", "t", "-t", "t+1/3", "t+0.25+0.02*sin(8*pi*t)", "0.3-t+0.05*sin(2*pi*t)"])
    def test_multiplicity_matches_structure(self, lift):
        shift = so.Shift.from_lift(lift)
        m = so.detect_orientation_and_multiplicity(shift)[1]
        assert m == so.compute_periodic_structure(shift).m

    @pytest.mark.parametrize("lift, m", [("t+0.1*sin(2*pi*t)", 1), ("t+0.5", 2), ("-t", 2),
                                         ("t+0.25+0.02*sin(8*pi*t)", 4)])
    def test_grid_lift_passes(self, lift, m):
        # one pass per iterate to find m, one per iterate for the zero scan
        shift = so.Shift.from_lift(lift)
        lift_ext = shift.lift_ext
        sizes = []

        def counted(x):
            sizes.append(np.size(x))
            return lift_ext(x)

        shift.lift_ext = counted
        assert so.compute_periodic_structure(shift).m == m
        assert sizes.count(4097) <= 2 * m, sizes.count(4097)


class TestStructure:
    def test_s1_structure(self, s1_structure):
        ps = s1_structure
        assert ps.m == 1
        assert [round(p, 10) for p in ps.lambda_points] == [0.0, 0.5]
        assert list(ps.y) == [0.0, 0.5]
        assert ps.omega == ()
        assert len(ps.gamma) == 2
        g1, g2 = ps.gamma
        assert (g1.start, g1.end) == (0.0, 0.5)
        assert (g1.tau_minus, g1.tau_plus) == (0.0, 0.5)
        assert (g2.start, g2.end) == (0.5, 1.0)
        assert (g2.tau_minus, g2.tau_plus) == (0.0, 0.5)

    def test_identity_carleman(self):
        ps = so.compute_periodic_structure(so.Shift.from_lift("t"))
        assert ps.full_circle
        assert ps.omega == (Arc(0.0, 1.0),)
        assert ps.gamma == ()
        assert ps.y == ()

    def test_rotation_all_periodic(self):
        ps = so.compute_periodic_structure(so.Shift.from_lift("t+0.5"))
        assert ps.m == 2
        assert ps.full_circle

    def test_bump_fixture_flat_plus_moving(self):
        # identity on [0, 0.2505], positive bump after: omega + gamma decomposition
        lift = "t + 0.05*((sin(pi*(t-0.2505)/0.7495)) + abs(sin(pi*(t-0.2505)/0.7495)))/2"
        shift = so.Shift.from_lift(lift)
        ps = so.compute_periodic_structure(shift)
        assert ps.m == 1
        assert len(ps.lambda_arcs) == 1
        arc = ps.lambda_arcs[0]
        assert arc.start == pytest.approx(0.0, abs=1e-6)
        assert arc.end == pytest.approx(0.2505, abs=1e-3)
        omega, gamma = ps.omega, ps.gamma
        assert len(omega) == 1 and len(gamma) == 1
        g = gamma[0]
        assert g.start == pytest.approx(0.2505, abs=1e-3)
        assert g.end == pytest.approx(1.0, abs=1e-6)
        # v > 0 on the bump: attracting endpoint is the arc end 1 == 0
        assert float(so.circle_dist(g.tau_plus, 0.0)) <= 1e-6

    def test_near_parabolic_flagged_uncertain(self):
        # alpha(t) - t = 0.05*(1 - cos(2*pi*t)) >= 0 touches zero at 0.5
        shift = so.Shift.from_lift("t + 0.05 - 0.05*cos(2*pi*(t-0.5))")
        ps = so.compute_periodic_structure(shift)
        assert ps.uncertain

    def test_lambda_arc_fused_across_seam(self):
        # the lift is the identity on [0, 1/6] and [5/6, 1], which the scan
        # finds as two flat runs; they fuse into one arc through 0 == 1
        shift = so.Shift.from_lift("t+0.05*((sin(pi*t))^2-0.25+abs((sin(pi*t))^2-0.25))")
        ps = so.compute_periodic_structure(shift)
        assert (ps.m, ps.lambda_points) == (1, ())
        assert ps.lambda_arcs == (Arc(0.8333333332961956, 1.1666666667038044),)
        (g,) = ps.gamma
        assert (g.start, g.end) == pytest.approx((1 / 6, 5 / 6), abs=1e-9)
        assert g.tau_plus == g.end
        assert [ps.in_lambda(t) for t in (0.0, 0.9, 0.5)] == [True, True, False]

    def test_boundary_and_interior_are_derived(self, s1_structure):
        ps = dataclasses.replace(s1_structure, lambda_points=(0.5,),
                                 lambda_arcs=(Arc(0.75, 1.125),))
        assert ps.y == (0.125, 0.5, 0.75)
        assert ps.omega == (Arc(0.75, 1.125),)
        full = dataclasses.replace(ps, lambda_points=(), lambda_arcs=(Arc(0.0, 1.0),))
        assert full.y == ()
        assert full.omega == (Arc(0.0, 1.0),)

    def test_partition_covers_circle(self, s1_structure):
        ps = s1_structure
        total = sum(a.length for a in ps.omega) + sum(g.length for g in ps.gamma)
        covered = total + 0.0  # isolated points have measure zero
        assert covered == pytest.approx(1.0, abs=1e-9)


class TestOrbitLimits:
    def test_interior_points(self, s1_structure):
        assert so.orbit_limit_endpoints(s1_structure, 0.25) == (0.0, 0.5)
        tau_minus, tau_plus = so.orbit_limit_endpoints(s1_structure, 0.75)
        assert float(so.circle_dist(tau_minus, 0.0)) <= 1e-12
        assert tau_plus == 0.5

    def test_fixed_point(self, s1_structure):
        assert so.orbit_limit_endpoints(s1_structure, 0.5) == (0.5, 0.5)

    def test_limit_consistency_forward_backward(self, s1, s1_structure):
        rng = random.Random(3)
        for _ in range(10):
            t = rng.uniform(0.01, 0.99)
            if s1_structure.in_lambda(t, tol=1e-3):
                continue
            tau_minus, tau_plus = so.orbit_limit_endpoints(s1_structure, t)
            fwd = s1.apply(t, 200)
            bwd = s1.apply(t, -200)
            assert float(so.circle_dist(fwd, tau_plus)) <= 1e-8
            assert float(so.circle_dist(bwd, tau_minus)) <= 1e-8


class TestArc:
    def test_contains_wraparound(self):
        a = Arc(0.8, 1.3)
        assert a.contains(0.9)
        assert a.contains(0.1)
        assert not a.contains(0.5)

    def test_contains_own_start(self):
        # an arc is open at its start unless it is the full circle
        assert not Arc(0.2, 0.5).contains(0.2)
        assert Arc(0.0, 1.0).contains(0.0)

    def test_midpoint_wraps(self):
        assert Arc(0.8, 1.2).midpoint() == pytest.approx(0.0, abs=1e-15)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Arc(0.5, 0.4)


class TestShiftFunctions:
    """The lift and derivative of every shift are Fn leaves or nodes."""

    def test_lift_and_derivative_are_fns(self, s1):
        shifts = {"from_lift": s1, "inverse": s1.inverse(), "power": s1.power(2),
                  "callable": so.Shift(lambda x: x + 0.5, lambda t: 1.0 + 0.0 * t, 1)}
        for name, shift in shifts.items():
            assert isinstance(shift.lift_ext, so.exprlang.Fn), name
            assert isinstance(shift.deriv, so.exprlang.Fn), name

    def test_callable_lift_is_checked_leaf(self):
        # NaN at 0.3 only, which is no node of the shift's table
        shift = so.Shift(lambda x: np.where(x == 0.3, np.nan, x + 0.5), lambda t: 1.0 + 0.0 * t, 1)
        message = r"^shift\.lift: non-finite evaluation at t=0\.3$"
        with pytest.raises(so.EvalDomainError, match=message):
            shift.lift_ext(np.array([0.8, 0.3]))


class TestFloatOrArray:
    """Shift maps and orbit products: float in, float out; arrays keep shape."""

    @pytest.mark.parametrize("lift", ["t+0.1*sin(2*pi*t)", "1-t",
                                      "t+0.05*sin(2*pi*t)^2"])
    def test_float_matches_array(self, lift):
        shift = so.Shift.from_lift(lift)
        a = so.parse("2-1.9*sin(pi*t)")
        fns = {
            "lift_ext": shift.lift_ext,
            "deriv": shift.deriv,
            "orbit_product": lambda t: so.orbit_product(a, shift, 3, t),
            "orbit_product_deriv": lambda t: so.orbit_product(shift.deriv, shift, 2, t),
        }
        for k in (1, -1, 3, -3):
            fns[f"apply({k})"] = lambda t, k=k: shift.apply(t, k)
        xs = np.linspace(-0.5, 1.5, 21)
        for name, fn in fns.items():
            vals = fn(xs)
            assert isinstance(vals, np.ndarray) and vals.shape == xs.shape, name
            for x, v in zip(xs, vals):
                got = fn(float(x))
                assert isinstance(got, float), name
                assert float(got).hex() == float(v).hex(), (name, x)
