import cmath
import math
import random

import numpy as np
import pytest

import shiftop as so
from conftest import ALPHA_PRIME_0, ALPHA_PRIME_HALF, RADIUS_S1_P2


class TestRadiusLebesgue:
    def test_s1_p2(self, s1, s1_structure):
        r = so.radius_bound(so.parse("1"), s1, s1_structure, so.lebesgue(2.0))
        assert r == pytest.approx(RADIUS_S1_P2, rel=1e-12)
        assert r == pytest.approx(1.6403, abs=1e-4)

    def test_identity_max_weight(self):
        # Carleman limit: alpha' = 1, radius is max |g| (= 2 at t = 0)
        ident = so.Shift.from_lift("t")
        ps = so.compute_periodic_structure(ident)
        r = so.radius_bound(so.parse("2-1.9*sin(pi*t)"), ident, ps, so.lebesgue(3.0))
        assert r == pytest.approx(2.0, abs=1e-6)

    def test_zero_weight(self, s1, s1_structure):
        assert so.radius_bound(so.parse("0"), s1, s1_structure, so.lebesgue(2.0)) == 0.0

    def test_p_range(self, s1, s1_structure):
        with pytest.raises(ValueError):
            so.radius_bound(so.parse("1"), s1, s1_structure, so.lebesgue(1.0))

    def test_m2_rotation_unit_radius(self):
        # every point is 2-periodic under the half rotation, with alpha_2' = 1
        rot = so.Shift.from_lift("t+0.5")
        ps = so.compute_periodic_structure(rot)
        assert ps.m == 2
        assert so.radius_bound(so.parse("1"), rot, ps, so.lebesgue(2.0)) == 1.0


class TestRadiusBound:
    @pytest.mark.parametrize("weight", ["log(t-0.5)", "1/(t-0.5)"])
    def test_undefined_weight_raises(self, s1, s1_structure, idx, weight):
        with pytest.raises(so.EvalDomainError, match="at t=0"):
            so.radius_bound(so.parse(weight), s1, s1_structure, idx)
        with pytest.raises(so.EvalDomainError, match="at t=0"):
            so.shift_spectrum(so.parse(weight), s1, s1_structure, idx)

    def test_s1_third_half(self, s1, s1_structure, idx):
        r = so.radius_bound(so.parse("1"), s1, s1_structure, idx)
        expected = max(max(ALPHA_PRIME_0 ** (-1 / 3), ALPHA_PRIME_0 ** (-1 / 2)),
                       max(ALPHA_PRIME_HALF ** (-1 / 3), ALPHA_PRIME_HALF ** (-1 / 2)))
        assert r == pytest.approx(expected, rel=1e-12)
        assert r == pytest.approx(1.6403, abs=1e-4)

    def test_coinciding_indices_reduce_to_lebesgue(self, s1, s1_structure):
        # on L^p the bound is the radius max |g| |alpha'|^{-1/p} over the fixed points
        rb = so.radius_bound(so.parse("1"), s1, s1_structure, so.lebesgue(2))
        assert rb == pytest.approx(max(ALPHA_PRIME_0 ** -0.5, ALPHA_PRIME_HALF ** -0.5),
                                   rel=1e-14)

    def test_weight_vanishing_on_lambda(self, s1, s1_structure, idx):
        g = lambda t: np.sin(2 * np.pi * np.asarray(t)) ** 2
        assert so.radius_bound(g, s1, s1_structure, idx) == pytest.approx(0.0, abs=1e-12)


class TestShiftSpectrum:
    def test_s1_single_annulus(self, s1, s1_structure, idx):
        ss = so.shift_spectrum(so.parse("1"), s1, s1_structure, idx)
        assert ss.m == 1
        assert len(ss.curve_samples) == 0
        assert len(ss.annuli) == 1
        a = ss.annuli[0]
        assert a.r_in == pytest.approx(0.7837, abs=1e-4)
        assert a.r_out == pytest.approx(1.6403, abs=1e-4)

    def test_identity_curve_only(self, idx):
        ident = so.Shift.from_lift("t")
        ps = so.compute_periodic_structure(ident)
        ss = so.shift_spectrum(so.parse("2-1.9*sin(pi*t)"), ident, ps, idx)
        assert ss.annuli == ()
        assert len(ss.curve_samples) > 0
        vals = sorted(z.real for z in ss.curve_samples)
        assert vals[0] == pytest.approx(0.1, abs=1e-4)
        assert vals[-1] == pytest.approx(2.0, abs=1e-4)

    def test_half_turn_two_points(self, idx):
        rot = so.Shift.from_lift("t+0.5")
        ps = so.compute_periodic_structure(rot)
        ss = so.shift_spectrum(so.parse("1"), rot, ps, idx)
        assert ss.m == 2
        assert so.spectrum_contains(ss, 1.0) == "inside"
        assert so.spectrum_contains(ss, -1.0) == "inside"
        assert so.spectrum_contains(ss, 1j) == "outside"
        assert so.spectrum_contains(ss, 0.3) == "outside"

    def test_gc_branch_disk(self, s1, s1_structure, idx):
        # weight vanishing inside a moving arc: that component becomes a disk
        d = lambda t: np.sin(2 * np.pi * (np.asarray(t) - 0.2))
        ss = so.shift_spectrum(d, s1, s1_structure, idx)
        assert any(a.r_in == 0.0 for a in ss.raw_annuli)

    def test_yprime_annulus_included(self, s1, s1_structure, idx):
        from dataclasses import replace
        ps = replace(s1_structure, yprime=(0.2,))
        ss_plain = so.shift_spectrum(so.parse("1"), s1, s1_structure, idx)
        ss = so.shift_spectrum(so.parse("1"), s1, ps, idx)
        assert len(ss.raw_annuli) == len(ss_plain.raw_annuli) + 1

    def test_radius_consistency(self, s1, s1_structure, idx):
        for g in ("1", "2-1.9*sin(pi*t)"):
            ss = so.shift_spectrum(so.parse(g), s1, s1_structure, idx)
            top = max(a.r_out for a in ss.annuli)
            rb = so.radius_bound(so.parse(g), s1, s1_structure, idx)
            assert top == pytest.approx(rb, abs=1e-9)
        # m = 2: the radius is the largest |z| over annuli and curve samples
        cases = [("1-t", "sin(2*pi*t)+0.5"), ("t+0.5", "2")]
        cases += [("t+0.5+0.05*sin(4*pi*t)", g)
                  for g in ("1", "1+0.5*cos(2*pi*t)", "2+sin(4*pi*t)")]
        for lift, g in cases:
            shift = so.Shift.from_lift(lift)
            ps = so.compute_periodic_structure(shift)
            assert ps.m == 2
            for x in (so.lebesgue(2.0), idx):
                ss = so.shift_spectrum(so.parse(g), shift, ps, x)
                top = max([a.r_out for a in ss.annuli] + [abs(z) for z in ss.curve_samples])
                rb = so.radius_bound(so.parse(g), shift, ps, x)
                assert rb == pytest.approx(top, rel=1e-15), (lift, g, x)


class TestOneSidedCore:
    def test_s1_two_annuli(self, s1, s1_structure, idx):
        core = so.one_sided_core_annuli(s1, s1_structure.gamma[0], idx)
        assert core[0].r_in == pytest.approx(0.7837, abs=1e-4)
        assert core[0].r_out == pytest.approx(0.8500, abs=1e-4)
        assert core[1].r_in == pytest.approx(1.3909, abs=1e-4)
        assert core[1].r_out == pytest.approx(1.6403, abs=1e-4)

    def test_coinciding_indices_circles(self, s1, s1_structure):
        core = so.one_sided_core_annuli(s1, s1_structure.gamma[0], so.lebesgue(2))
        for a in core:
            assert a.r_out - a.r_in < 1e-12

    def test_unit_derivative_unit_circles(self, idx):
        # both endpoints with alpha' = 1: both annuli collapse to the unit circle
        from shiftop.circle import GammaArc
        ident = so.Shift.from_lift("t")
        arc = GammaArc(0.0, 0.5, 0.0, 0.5)
        core = so.one_sided_core_annuli(ident, arc, idx)
        for a in core:
            assert a.r_in == pytest.approx(1.0) and a.r_out == pytest.approx(1.0)

    def test_contained_in_full_spectrum(self, s1, s1_structure, idx):
        # S1 (m = 1) and a lift whose periodic points have multiplicity 2
        m2 = so.Shift.from_lift("t+0.5+0.05*sin(4*pi*t)+0.03*cos(2*pi*t)")
        for shift, ps, m in ((s1, s1_structure, 1), (m2, so.compute_periodic_structure(m2), 2)):
            assert ps.m == m
            ss = so.shift_spectrum(so.parse("1"), shift, ps, idx)
            for g in ps.gamma:
                for a in so.one_sided_core_annuli(shift, g, idx):
                    assert any(big.r_in <= a.r_in + 1e-12 and a.r_out <= big.r_out + 1e-12
                               for big in ss.raw_annuli), (m, g)


class TestMembership:
    def test_annulus_cases(self, s1, s1_structure, idx):
        ss = so.shift_spectrum(so.parse("1"), s1, s1_structure, idx)
        assert so.spectrum_contains(ss, 1.0) == "inside"
        assert so.spectrum_contains(ss, 2.0) == "outside"
        assert so.spectrum_contains(ss, RADIUS_S1_P2) == "boundary"

    def test_rotational_symmetry(self, idx):
        rng = random.Random(5)
        rot = so.Shift.from_lift("t+0.5")
        ps = so.compute_periodic_structure(rot)
        ss = so.shift_spectrum(so.parse("t*0+1"), rot, ps, idx)
        omega = cmath.exp(2j * cmath.pi / ss.m)
        for _ in range(200):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert so.spectrum_contains(ss, z) == so.spectrum_contains(ss, z * omega)

    def test_rotational_symmetry_annuli(self, s1, s1_structure, idx):
        rng = random.Random(6)
        ss = so.shift_spectrum(so.parse("1"), s1, s1_structure, idx)
        for _ in range(200):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert so.spectrum_contains(ss, z) == so.spectrum_contains(ss, -z)


class TestArcRefinement:
    """Sups and infs over Carleman and Lambda arcs are refined between the
    samples, not read from them."""

    PEAK = "1+exp(-((t-0.3007)/0.0005)^2)"   # peak of 2 between two samples

    def test_curve_ranges_exact(self, idx):
        ident = so.Shift.from_lift("t")
        ps = so.compute_periodic_structure(ident)
        ss = so.shift_spectrum(so.parse("2-1.9*sin(pi*t)"), ident, ps, idx)
        ((lo, hi),) = ss.curve_ranges
        assert lo == pytest.approx(0.1, abs=1e-12)
        assert hi == pytest.approx(2.0, abs=1e-12)

    def test_curve_membership_against_range(self, idx):
        ident = so.Shift.from_lift("t")
        ps = so.compute_periodic_structure(ident)
        ss = so.shift_spectrum(so.parse("2-1.9*sin(pi*t)"), ident, ps, idx)
        assert so.spectrum_contains(ss, 1.0) == "inside"
        assert so.spectrum_contains(ss, 2.0) == "inside"
        assert so.spectrum_contains(ss, 2.0 + 1e-10) == "boundary"
        assert so.spectrum_contains(ss, 2.5) == "outside"
        assert so.spectrum_contains(ss, 1.0 + 0.01j) == "outside"

    def test_half_turn_near_miss_outside(self, idx):
        # a*a~ - b*b~ <= -0.0786: d_2 stays above 1, yet a sample of d_2
        # lies within the old sample spacing of 1
        a = "1.595+1.373*cos(2*pi*t+4.738)"
        b = "-1.764+0.241*sin(4*pi*t+2.848)"
        rot = so.Shift.from_lift("t+0.5")
        ps = so.compute_periodic_structure(rot)
        ss = so.shift_spectrum(so.parse(f"({b})/({a})"), rot, ps, idx)
        ((lo, hi),) = ss.curve_ranges
        assert lo == pytest.approx(1.0326, abs=1e-4)
        assert hi == pytest.approx(5.2710, abs=1e-4)
        assert so.spectrum_contains(ss, 1.0) == "outside"
        assert so.decide(so.operator_spec(a, b, rot, idx, structure=ps)).verdict == "two_sided"

    @pytest.mark.parametrize("lift, expected", [("t", 2.0), ("1-t", math.sqrt(2.0))])
    def test_radius_peak_between_samples(self, lift, expected):
        shift = so.Shift.from_lift(lift)
        ps = so.compute_periodic_structure(shift)
        r = so.radius_bound(so.parse(self.PEAK), shift, ps, so.lebesgue(2.0))
        assert r == pytest.approx(expected, rel=1e-12)


class TestCsv:
    def test_rows(self, s1, s1_structure, idx):
        ss = so.shift_spectrum(so.parse("1"), s1, s1_structure, idx)
        text = so.spectrum_to_csv(ss)
        lines = text.strip().split("\n")
        assert lines[0] == "kind,r_in|re,r_out|im"
        assert "annulus,0.7837,1.6403" in lines

    def test_curve_rows(self, idx):
        ident = so.Shift.from_lift("t")
        ps = so.compute_periodic_structure(ident)
        ss = so.shift_spectrum(so.parse("1"), ident, ps, idx, samples=64)
        text = so.spectrum_to_csv(ss)
        assert "curve,1.0000,0.0000" in text
