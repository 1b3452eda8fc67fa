"""Shared fixture operators for the test suite.

S1 is the reference shift t + 0.1*sin(2*pi*t) (fixed points 0 and 0.5,
derivative 1 +/- 0.2*pi there); the F-fixtures cover every verdict.
"""

import pytest

import shiftop as so

ALPHA_PRIME_0 = 1.6283185307179586    # 1 + 0.2*pi
ALPHA_PRIME_HALF = 0.3716814692820414  # 1 - 0.2*pi
RADIUS_S1_P2 = ALPHA_PRIME_HALF ** -0.5  # 1.6402669917647794


@pytest.fixture(scope="session")
def s1():
    return so.Shift.from_lift("t+0.1*sin(2*pi*t)")


@pytest.fixture(scope="session")
def s1_structure(s1):
    return so.compute_periodic_structure(s1)


@pytest.fixture(scope="session")
def idx():
    return so.space_indices(1.0 / 3.0, 0.5)


def build_fixtures():
    """name -> (OperatorSpec, expected verdict)."""
    s1 = so.Shift.from_lift("t+0.1*sin(2*pi*t)")
    ps = so.compute_periodic_structure(s1)
    idx = so.space_indices(1.0 / 3.0, 0.5)
    refl = so.Shift.from_lift("1-t")
    ident = so.Shift.from_lift("t")
    rot = so.Shift.from_lift("t+0.5")
    return {
        "F1": (so.operator_spec("2", "1", s1, idx, structure=ps), "two_sided"),
        "F2": (so.operator_spec("0.1", "1", s1, idx, structure=ps), "two_sided"),
        "F4": (so.operator_spec("2-1.9*sin(pi*t)", "1", s1, idx, structure=ps),
               "right_only"),
        "F5": (so.operator_spec("1", "2-1.9*sin(pi*t)", s1, idx, structure=ps),
               "left_only"),
        "F6": (so.operator_spec("(2-1.9*sin(pi*t))*cos(2*pi*t)", "cos(2*pi*t)",
                                s1, idx, structure=ps), "neither"),
        "F7": (so.operator_spec("sin(2*pi*t)+0.5", "0.5", refl, idx), "neither"),
        "F8": (so.operator_spec("2+cos(2*pi*t)", "2", ident, idx), "neither"),
        "F9": (so.operator_spec("2", "1", rot, idx), "two_sided"),
    }


@pytest.fixture(scope="session")
def fixture_suite():
    return build_fixtures()


@pytest.fixture(scope="session")
def suite_evidence(fixture_suite):
    """name -> default-ladder evidence of each fixture, built once: the
    dense ladder is the slowest thing the suite computes."""
    return {name: so.invertibility_evidence(op, verdict=verdict)
            for name, (op, verdict) in fixture_suite.items()}
