"""Property tests: decide against the closed-form spectrum, and adjoint duality.

Inputs are trig polynomials of degree <= 2 on six lifts: three with fixed
points only, the half turn and the reflection (m = 2, all points periodic)
and the identity (m = 1, all points fixed).  Examples that `decide` calls
`undecidable`, or whose membership answer is "boundary", are skipped and
counted; a test that skips more than a third of its examples fails, so it
cannot pass by skipping.
"""

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
