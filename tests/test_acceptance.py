"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import cmath
import json
import math
import random
import time

import numpy as np
import pytest

import shiftop as so
from shiftop import cli
from conftest import RADIUS_S1_P2, build_fixtures


def report(n, text):
    print(f"\ncriterion {n}: PASS - {text}")


@pytest.fixture(scope="module")
def suite():
    return build_fixtures()


def test_criterion_1_radius_closed_form_vs_oracle(suite):
    """Theorem radius 1.6403 vs orbit norms at N=1024, 200 steps, 5%."""
    s1 = so.Shift.from_lift("t+0.1*sin(2*pi*t)")
    ps = so.compute_periodic_structure(s1)
    target = so.radius_bound(so.parse("1"), s1, ps, so.lebesgue(2.0))
    assert target == pytest.approx(1.6403, abs=1e-4)

    t0 = time.time()
    grid = so.weighted_shift_grid(so.parse("1"), s1, 1024, 2.0)
    est = so.estimate_radius_numeric(grid, iters=200)
    elapsed = time.time() - t0
    assert abs(est.estimate - target) <= 0.05 * target
    assert elapsed < 10.0
    report(1, f"radius estimate {est.estimate:.4f} vs closed form {target:.4f} "
              f"({abs(est.estimate / target - 1) * 100:.2f}%, {elapsed:.1f}s)")


def test_criterion_2_fixture_verdicts(suite):
    """Eight fixtures decide to the hand-derived verdicts in < 5 s."""
    t0 = time.time()
    got = {name: so.decide(op).verdict for name, (op, _) in suite.items()}
    elapsed = time.time() - t0
    expected = {name: verdict for name, (_, verdict) in suite.items()}
    assert got == expected
    assert elapsed < 5.0
    report(2, f"verdicts {got} in {elapsed:.1f}s")


def test_criterion_3_adjoint_duality(suite):
    """decide(op).right == decide(adjoint).left and vice versa, exactly."""
    for name, (op, _) in suite.items():
        r = so.decide(op)
        radj = so.decide(so.adjoint_spec(op))
        assert r.right == radj.left, name
        assert r.left == radj.right, name
    report(3, "adjoint duality exact on all 8 fixtures")


def test_criterion_4_reduction_consistency(suite):
    """right(A) == right(A_m) and cond on the m=2 fixtures."""
    idx = so.space_indices(1 / 3, 0.5)
    cases = [suite["F7"][0], suite["F9"][0]]
    rng = random.Random(0x5EED)
    for _ in range(2):  # randomized coefficient variants on the half turn
        c1 = round(rng.uniform(1.5, 2.5), 3)
        c2 = round(rng.uniform(0.2, 0.8), 3)
        a = f"{c1}+{c2}*sin(2*pi*t)"
        b = f"1+{c2}*cos(2*pi*t)"
        cases.append(so.operator_spec(a, b, so.Shift.from_lift("t+0.5"), idx))
    for op in cases:
        assert op.structure.m == 2
        verdict = so.decide(op)
        assert verdict.verdict != "undecidable"
        op_m, cond = so.reduce_to_fixed(op)
        verdict_m = so.decide(op_m)
        assert verdict.right == (verdict_m.right and cond)
    report(4, f"reduction equivalence on {len(cases)} m=2 operators")


def test_criterion_5_eta_two_path_agreement(suite):
    """Endpoint-lookup eta limits vs 50-step iteration within 1e-8."""
    rng = random.Random(1234)
    worst = 0.0
    for name, (op, _) in suite.items():
        m = op.structure.m
        for _ in range(100):
            t = rng.uniform(0.0, 1.0)
            e0m, e0p, e1m, e1p = so.eta_limits(op, t)
            fwd = op.shift.apply(t, 50 * m)
            bwd = op.shift.apply(t, -50 * m)
            f0, f1 = so.eta_values(op, fwd)
            b0, b1 = so.eta_values(op, bwd)
            err = max(abs(f0 - e0p), abs(f1 - e1p), abs(b0 - e0m), abs(b1 - e1m))
            worst = max(worst, err)
            assert err <= 1e-8, (name, t)
    report(5, f"two-path eta agreement, worst error {worst:.2e} over 800 points")


def test_criterion_6_spectrum_properties():
    """Annulus values, m-th-root symmetry, index collapse, core containment."""
    s1 = so.Shift.from_lift("t+0.1*sin(2*pi*t)")
    ps = so.compute_periodic_structure(s1)
    idx = so.space_indices(1 / 3, 0.5)

    # (a) single annulus to 4 decimals
    ss = so.shift_spectrum(so.parse("1"), s1, ps, idx)
    assert len(ss.annuli) == 1
    assert round(ss.annuli[0].r_in, 4) == 0.7837
    assert round(ss.annuli[0].r_out, 4) == 1.6403

    # (b) rotational symmetry of membership at 1000 random z (m=2 spectrum)
    rot = so.Shift.from_lift("t+0.5")
    ps_rot = so.compute_periodic_structure(rot)
    ss_rot = so.shift_spectrum(so.parse("1"), rot, ps_rot, idx)
    omega = cmath.exp(2j * cmath.pi / ss_rot.m)
    rng = random.Random(99)
    for _ in range(500):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert so.spectrum_contains(ss_rot, z) == so.spectrum_contains(ss_rot, z * omega)
    for _ in range(500):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert so.spectrum_contains(ss, z) == so.spectrum_contains(ss, -z)

    # (c) coinciding indices collapse every per-point annulus (one-sided core
    # and Y'-point annuli) to a circle; per-arc annuli span two endpoints and
    # stay genuine annuli even on L^p
    from dataclasses import replace
    for g in ps.gamma:
        for a in so.one_sided_core_annuli(s1, g, so.lebesgue(2)):
            assert a.r_out - a.r_in < 1e-12
    ps_yp = replace(ps, yprime=(0.2,))
    ss_yp = so.shift_spectrum(so.parse("1"), s1, ps_yp, so.lebesgue(2))
    assert ss_yp.raw_annuli[-1].r_out - ss_yp.raw_annuli[-1].r_in < 1e-12

    # (d) one-sided core values and containment in the full spectrum
    # (frozen from the dilation-factor formula at alpha' = 1 -/+ 0.2*pi;
    # (1-0.2*pi)^(-1/3) = 1.39084 to five digits)
    core = so.one_sided_core_annuli(s1, ps.gamma[0], idx)
    assert core[0].r_in == pytest.approx(0.7836647592593164, abs=1e-12)
    assert core[0].r_out == pytest.approx(0.8500025166730388, abs=1e-12)
    assert core[1].r_in == pytest.approx(1.390837409977146, abs=1e-12)
    assert core[1].r_out == pytest.approx(1.6402669917647794, abs=1e-12)
    for a in core:
        assert any(big.r_in <= a.r_in + 1e-12 and a.r_out <= big.r_out + 1e-12
                   for big in ss.raw_annuli)
    report(6, "annulus [0.7837, 1.6403], symmetry at 1000 z, circle collapse, "
              "core containment")


def test_criterion_7_neumann_inverse():
    """A = I - 0.5 W: geometric decay at ratio 0.820 (10%), residual < 1e-3."""
    s1 = so.Shift.from_lift("t+0.1*sin(2*pi*t)")
    ps = so.compute_periodic_structure(s1)
    op = so.operator_spec("1", "0.5", s1, so.lebesgue(2), structure=ps)
    res = so.neumann_apply(op, so.parse("1+0.3*sin(2*pi*t)+0.1*cos(4*pi*t)"),
                           1024, 40)
    assert res.radius_bound == pytest.approx(0.5 * RADIUS_S1_P2, rel=1e-12)
    assert abs(res.measured_ratio - 0.8201) <= 0.1 * 0.8201
    assert res.residual < 1e-3
    report(7, f"measured decay ratio {res.measured_ratio:.4f} vs 0.8201, "
              f"residual {res.residual:.2e} at 40 terms")


def test_criterion_8_parser_differentiator():
    """500 randomized expressions: FD agreement and exact round trips."""
    from test_exprlang import random_expr, fd_check
    import shiftop.exprlang as ex
    rng = random.Random(777)
    checked = 0
    for _ in range(500):
        e = random_expr(rng)
        assert ex.parse(ex.serialize(e)) == e
        d = ex.differentiate(e)
        t = rng.uniform(0.0, 1.0)
        usable, ok = fd_check(e, d, t)
        assert ok
        checked += usable
    assert checked >= 400
    report(8, f"500 round trips exact, {checked} derivative checks within 1e-6")


def test_criterion_9_oracle_coherence(suite_evidence):
    """Evidence never contradicts decide() across the fixture suite."""
    for name, ev in suite_evidence.items():
        verdict = ev.verdict_expected
        if verdict == "two_sided":
            assert ev.consistent_two_sided, name
        elif verdict == "neither":
            assert ev.consistent_neither, name
    report(9, "evidence consistent on all 8 fixtures (band / floor rules)")


def test_criterion_10_cli_determinism(tmp_path):
    """Repeated analyze on the same config is byte-identical."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "shift": {"lift": "t+0.1*sin(2*pi*t)"},
        "a": "2-1.9*sin(pi*t)", "b": "1",
        "space": {"alpha": 1 / 3, "beta": 0.5},
    }), encoding="utf-8")
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.run(["analyze", "-c", str(cfg), "-o", str(out1)]) == 0
    assert cli.run(["analyze", "-c", str(cfg), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report(10, "byte-identical analyze output across reruns")
