"""Property tests: decide against the closed-form spectrum, adjoint duality,
invariance under rotation conjugation, the reduction to fixed points, and
constant coefficients against the spectrum of W.

Inputs are trig polynomials of degree <= 2 on six lifts: three with fixed
points only, the half turn and the reflection (m = 2, all points periodic)
and the identity (m = 1, all points fixed); the reduction also runs on a
reflection with moving arcs.  Examples that `decide` calls `undecidable`,
or whose membership answer is "boundary", are skipped and counted; a test
that skips more than a third of its examples fails, so it cannot pass by
skipping.
"""

import re
from functools import lru_cache

from hypothesis import given, settings, strategies as st

import shiftop as so

LIFTS = ("t+0.1*sin(2*pi*t)", "t+0.05*sin(4*pi*t)", "t+0.03+0.1*sin(2*pi*t)",
         "t+0.5", "1-t", "t")
SPACES = (so.space_indices(1 / 3, 1 / 2), so.lebesgue(2.0))
HARMONICS = ("cos(2*pi*t)", "sin(2*pi*t)", "cos(4*pi*t)", "sin(4*pi*t)")
SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)

coeff = st.integers(-100, 100).map(lambda k: k / 100)
harmonics = st.lists(coeff, min_size=4, max_size=4)


@lru_cache(maxsize=None)
def shift_and_structure(lift: str):
    shift = so.Shift.from_lift(lift)
    return shift, so.compute_periodic_structure(shift)


def trig(c0: float, cs) -> str:
    return f"({c0})" + "".join(f"+({c})*{h}" for c, h in zip(cs, HARMONICS))


@st.composite
def zero_free(draw) -> str:
    """A trig polynomial whose constant term outweighs its harmonics."""
    cs = draw(harmonics)
    margin = draw(st.integers(10, 150)) / 100
    sign = draw(st.sampled_from((1, -1)))
    return trig(sign * round(sum(abs(c) for c in cs) + margin, 2), cs)


general = st.builds(lambda c0, cs: trig(2 * c0, [2 * c for c in cs]), coeff, harmonics)


def assert_few_skips(counts):
    assert counts["run"] > 0
    assert 3 * counts["skip"] <= counts["run"], counts


def test_two_sided_iff_one_outside_spectrum():
    """For zero-free a, A = a(I - (b/a)W) is two-sided invertible exactly
    when 1 lies outside the spectrum of (b/a)W."""
    counts = {"run": 0, "skip": 0}

    @SETTINGS
    @given(st.sampled_from(LIFTS), st.sampled_from(SPACES), zero_free(), general)
    def check(lift, space, a, b):
        counts["run"] += 1
        shift, ps = shift_and_structure(lift)
        verdict = so.decide(so.operator_spec(a, b, shift, space, structure=ps)).verdict
        ss = so.shift_spectrum(so.parse(f"({b})/({a})"), shift, ps, space)
        member = so.spectrum_contains(ss, 1.0)
        if verdict == "undecidable" or member == "boundary":
            counts["skip"] += 1
            return
        assert (verdict == "two_sided") == (member == "outside"), (verdict, member)

    check()
    assert_few_skips(counts)


def test_adjoint_duality():
    """A is right invertible exactly when A* is left invertible, and vice versa."""
    counts = {"run": 0, "skip": 0}

    @settings(SETTINGS, max_examples=100)
    @given(st.sampled_from(LIFTS), st.sampled_from(SPACES), general, general)
    def check(lift, space, a, b):
        counts["run"] += 1
        shift, ps = shift_and_structure(lift)
        op = so.operator_spec(a, b, shift, space, structure=ps)
        r, radj = so.decide(op), so.decide(so.adjoint_spec(op))
        if "undecidable" in (r.verdict, radj.verdict):
            counts["skip"] += 1
            return
        assert (r.right, r.left) == (radj.left, radj.right), (r.verdict, radj.verdict)

    check()
    assert_few_skips(counts)


def rotated(e: str, c: float, lift: bool = False) -> str:
    """e(t + c), and for a lift e(t + c) - c: the conjugate by the rotation t -> t + c."""
    moved = re.sub(r"\bt\b", f"(t+{c!r})", e)
    return f"{moved}-{c!r}" if lift else moved


def test_rotation_conjugation_invariance():
    """Conjugating the shift and both coefficients by t -> t + c keeps the verdict."""
    counts = {"run": 0, "skip": 0}

    # every lift but the identity, which conjugates to itself
    @settings(SETTINGS, max_examples=75)
    @given(st.sampled_from(LIFTS[:5]), st.sampled_from(SPACES), general, general,
           st.integers(1, 99).map(lambda k: k / 100))
    def check(lift, space, a, b, c):
        counts["run"] += 1
        shift, ps = shift_and_structure(lift)
        verdict = so.decide(so.operator_spec(a, b, shift, space, structure=ps)).verdict
        op_c = so.operator_spec(rotated(a, c), rotated(b, c), rotated(lift, c, lift=True), space)
        verdict_c = so.decide(op_c).verdict
        if "undecidable" in (verdict, verdict_c):
            counts["skip"] += 1
            return
        assert verdict == verdict_c

    check()
    assert_few_skips(counts)


def test_reduction_to_fixed_points():
    """On m = 2 shifts, A is right invertible exactly when A_m is and the
    no-joint-zero condition of reduce_to_fixed holds."""
    counts = {"run": 0, "skip": 0}

    @settings(SETTINGS, max_examples=75)
    @given(st.sampled_from(("t+0.5", "1-t", "-t-0.05*sin(2*pi*t)")), st.sampled_from(SPACES),
           general, general)
    def check(lift, space, a, b):
        counts["run"] += 1
        shift, ps = shift_and_structure(lift)
        op = so.operator_spec(a, b, shift, space, structure=ps)
        op_m, cond = so.reduce_to_fixed(op)
        r, r_m = so.decide(op), so.decide(op_m)
        if "undecidable" in (r.verdict, r_m.verdict):
            counts["skip"] += 1
            return
        assert r.right == (r_m.right and cond), (r.verdict, r_m.verdict, cond)

    check()
    assert_few_skips(counts)


def test_constant_coefficients_against_spectrum_of_W():
    """For a = z and b = 1 on S1, A = zI - W is two-sided invertible exactly
    when z lies outside the spectrum of W, and invertible from neither side
    exactly when |z| lies in the one-sided core of an arc: an annulus where
    the left and right spectra of W meet."""
    counts = {"run": 0, "skip": 0}
    shift, ps = shift_and_structure(LIFTS[0])
    tol = 1e-9   # spectrum_contains' band at the radii

    @settings(SETTINGS, max_examples=100)
    @given(st.sampled_from(SPACES), st.integers(-3000, 3000).map(lambda k: k / 1000))
    def check(space, z):
        counts["run"] += 1
        verdict = so.decide(so.operator_spec(repr(z), "1", shift, space, structure=ps)).verdict
        member = so.spectrum_contains(so.shift_spectrum(so.parse("1"), shift, ps, space), z)
        cores = [c for arc in ps.gamma for c in so.one_sided_core_annuli(shift, arc, space)]
        on_core_edge = any(min(abs(abs(z) - c.r_in), abs(abs(z) - c.r_out)) <= tol for c in cores)
        if verdict == "undecidable" or member == "boundary" or on_core_edge:
            counts["skip"] += 1
            return
        assert (verdict == "two_sided") == (member == "outside"), (verdict, member)
        in_core = any(c.r_in < abs(z) < c.r_out for c in cores)
        assert (verdict == "neither") == in_core, (verdict, z)

    check()
    assert_few_skips(counts)
