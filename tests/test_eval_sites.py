"""Every place a verdict, a spectrum or the oracle evaluates a coefficient,
weight, right-hand side, shift lift or lift derivative checks it there.

Each case makes one input undefined (NaN) only within about 3e-11 of one
point that the site evaluates: a scan node of the site's own grid, a fixed
point off every grid, or an orbit point.  The call must raise
EvalDomainError whose message starts with the input's label.
"""

import re

import pytest

import shiftop as so

S1 = "t+0.1*sin(2*pi*t)"
OFF_GRID = "t+0.03+0.1*sin(2*pi*t)"
TAU = 0.5484933420107154    # the attracting fixed point of OFF_GRID
NODE = 0.2501220703125      # 2049/8192: a scan node of the arc (0, 0.5) only
G4_A = "(0.75+0.25*cos(2*pi*t))*(-cos(2*pi*t))"
G4_B = "0.45-0.15*cos(2*pi*t)"


def nan_at(c: float) -> str:
    """sqrt(sin(pi*(t-c))^2 - 1e-20): NaN only within about 3e-11 of c."""
    return f"sqrt((sin(pi*(t-{c!r})))^2-1e-20)"


def times_one(e: str, c: float) -> str:
    """e, made NaN near c."""
    return f"({e})*(1+0*{nan_at(c)})"


def _idx():
    return so.space_indices(1 / 3, 0.5)


def _decide(lift, a, b):
    return so.decide(so.operator_spec(a, b, lift, _idx()))


def _adjoint():
    # the adjoint's sigma_A scan reads b* at the node 0.25, that is b at alpha_{-1}(0.25)
    s1 = so.Shift.from_lift(S1)
    b = "4*" + nan_at(float(s1.apply(0.25, -1)))
    return so.decide(so.adjoint_spec(so.operator_spec("0.1", b, s1, _idx())))


def _spectrum(weight, lift, radius):
    shift = so.Shift.from_lift(lift)
    structure = so.compute_periodic_structure(shift)
    fn = so.radius_bound if radius else so.shift_spectrum
    return fn(so.parse(weight), shift, structure, _idx())


def _neumann(b, f):
    s1 = so.Shift.from_lift(S1)
    op = so.operator_spec("1", b, s1, so.lebesgue(2.0))
    return so.neumann_apply(op, so.parse(f), 256, 10)


CASES = {
    # the fixed-point bisection of compute_periodic_structure reads the lift near TAU
    "lift_fixed_point": ("shift.lift", lambda: so.compute_periodic_structure(
        so.Shift.from_lift(times_one(OFF_GRID, TAU)))),
    # sigma_A on the Carleman arc of the identity (its 257-sample record)
    "sigma_gamma1": ("a", lambda: _decide("t", "2+" + nan_at(0.25), "1")),
    # sigma_A = a_m on the Gamma2 arcs, sigma_A = -b_m on the Gamma3 arcs
    "sigma_gamma2": ("a", lambda: _decide(S1, nan_at(NODE), "0.3")),
    "sigma_gamma3": ("b", lambda: _decide(S1, "0.1", "4*" + nan_at(NODE))),
    # the zero set of a on the Gamma4 arcs, for condition R
    "zeros_gamma4": ("a", lambda: _decide(S1, times_one(G4_A, NODE), G4_B)),
    # eta at a fixed point that is no grid node
    "eta_fixed_point": ("a", lambda: _decide(OFF_GRID, nan_at(TAU), "3")),
    "adjoint_b_star": ("b", _adjoint),
    # the no-joint-zero test of reduce_to_fixed (m = 2, Gamma4 arcs) reads b
    # at the zeros of a, here 0.25
    "joint_zero_m2": ("b", lambda: so.reduce_to_fixed(so.operator_spec(
        G4_A, times_one(G4_B, 0.25), "-t-0.05*sin(2*pi*t)", _idx()))),
    # shift_spectrum samples the moving arc (0, 0.5) at 513 points
    "shift_spectrum_weight": ("weight", lambda: _spectrum("1+0*" + nan_at(0.25), S1, False)),
    # radius_bound reads the weight at the periodic points
    "radius_bound_weight": ("weight", lambda: _spectrum("1+0*" + nan_at(TAU), OFF_GRID, True)),
    # the iterate (b/a) W's radius estimate reads b at alpha(0.25) = 0.35, no grid node
    "neumann_iterate_weight": ("b", lambda: _neumann(times_one("0.3", 0.35), "1")),
    "neumann_rhs": ("f", lambda: _neumann("0.3", "1+0*" + nan_at(0.25))),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_undefined_input_named_where_evaluated(case):
    label, call = CASES[case]
    with pytest.raises(so.EvalDomainError, match=rf"^{re.escape(label)}: sqrt of negative value"):
        call()


def test_undefined_lift_derivative_named_at_fixed_point():
    # alpha' is 0/0 only at TAU, where eta reads it: no verdict, whatever eta would be
    lift = f"{OFF_GRID}+0.001*abs(sin(2*pi*(t-{TAU!r})))"
    with pytest.raises(so.EvalDomainError,
                       match=rf"^shift\.lift': division by zero in .* at t={TAU!r}$"):
        _decide(lift, "2", "1")
