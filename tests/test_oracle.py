import math

import numpy as np
import pytest

import shiftop as so
from conftest import RADIUS_S1_P2


def _dense_P(grid):
    """The dense P of a grid, scattered by np.add.at: a construction
    independent of GridOperator.matrix()'s bincount."""
    P = np.zeros((grid.N, grid.N))
    np.add.at(P, (np.arange(grid.N), grid.idx), grid.wts)
    return P


class TestDiscretize:
    def test_identity_shift_p_is_identity(self, idx):
        ident = so.Shift.from_lift("t")
        op = so.operator_spec("2", "1", ident, idx)
        grid = so.discretize(op, 128)
        P = _dense_P(grid)
        assert np.allclose(P, np.eye(128), atol=1e-14)

    def test_half_rotation_is_permutation(self, idx):
        rot = so.Shift.from_lift("t+0.5")
        op = so.operator_spec("2", "1", rot, idx)
        grid = so.discretize(op, 128)
        P = _dense_P(grid)
        expected = np.roll(np.eye(128), -64, axis=1)
        assert np.allclose(P, expected, atol=1e-14)

    def test_composition_accuracy(self, s1, s1_structure, idx):
        op = so.operator_spec("2", "1", s1, idx, structure=s1_structure)
        grid = so.discretize(op, 512)
        f = np.sin(2 * np.pi * grid.nodes)
        target = np.sin(2 * np.pi * so.wrap(s1.lift_ext(grid.nodes)))
        assert np.abs(grid.apply_P(f) - target).max() < 1e-8

    def test_rows_sum_to_one(self, s1, s1_structure, idx):
        op = so.operator_spec("2", "1", s1, idx, structure=s1_structure)
        grid = so.discretize(op, 256)
        assert np.abs(grid.wts.sum(axis=0) - 1.0).max() < 1e-10

    def test_interpolation_order(self, s1, s1_structure, idx):
        op = so.operator_spec("2", "1", s1, idx, structure=s1_structure)
        errs = []
        ladder = (64, 128, 256, 512, 1024)
        for N in ladder:
            grid = so.discretize(op, N)
            f = np.sin(2 * np.pi * grid.nodes)
            target = np.sin(2 * np.pi * so.wrap(s1.lift_ext(grid.nodes)))
            errs.append(np.abs(grid.apply_P(f) - target).max())
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        for s in slopes:
            assert abs(s - 4.0) <= 0.3

    def test_invalid_grid(self, s1, s1_structure, idx):
        op = so.operator_spec("2", "1", s1, idx, structure=s1_structure)
        with pytest.raises(ValueError):
            so.discretize(op, 100)
        with pytest.raises(ValueError, match="1 < p < inf"):
            so.weighted_shift_grid(so.parse("1"), s1, 256, 1.0)


# perfbench's six lifts: three with fixed points (S1 first), the half
# rotation, the reflection and the identity
LIFTS = ("t+0.1*sin(2*pi*t)", "t+0.05*sin(4*pi*t)", "t+0.03+0.1*sin(2*pi*t)",
         "t+0.5", "1-t", "t")


def _grids(lift, N):
    """The two stencil paths: discretize (a != 0) and weighted_shift_grid (a = 0)."""
    shift = so.Shift.from_lift(lift)
    op = so.operator_spec("2+cos(2*pi*t)", "1+0.5*sin(2*pi*t)", shift, so.lebesgue(2.0))
    return (so.discretize(op, N),
            so.weighted_shift_grid(so.parse("1+0.5*cos(2*pi*t)"), shift, N, 2.0))


def _count_products(monkeypatch):
    """The names of the GridOperator product methods called, in order."""
    calls = []
    for name in ("apply", "apply_P", "apply_P_transpose"):
        fn = getattr(so.GridOperator, name)
        monkeypatch.setattr(so.GridOperator, name,
                            lambda self, v, fn=fn, name=name: calls.append(name) or fn(self, v))
    return calls


class TestTranspose:
    @pytest.mark.parametrize("N", [64, 1024])
    @pytest.mark.parametrize("lift", LIFTS)
    def test_adjoint_identity(self, N, lift):
        # <P v, u> = <v, P^T u>, relative to the Cauchy-Schwarz size |P v| |u|
        rng = np.random.default_rng(N)
        for grid in _grids(lift, N):
            v, u = rng.standard_normal(N), rng.standard_normal(N)
            Pv = grid.apply_P(v)
            scale = np.linalg.norm(Pv) * np.linalg.norm(u)
            assert abs(Pv @ u - v @ grid.apply_P_transpose(u)) <= 1e-12 * scale, lift

    @pytest.mark.parametrize("N", [64, 256])
    @pytest.mark.parametrize("lift", LIFTS)
    def test_matches_dense(self, N, lift):
        v = np.random.default_rng(N).standard_normal(N)
        for grid in _grids(lift, N):
            P, A = _dense_P(grid), grid.matrix()
            for got, want in ((grid.apply_P(v), P @ v), (grid.apply_P_transpose(v), P.T @ v),
                              (grid.apply(v), A @ v)):
                assert np.allclose(got, want, rtol=0, atol=1e-12), lift

    def test_weighted_shift_is_g_times_P(self, s1):
        g = lambda t: 1.0 + np.sin(np.pi * t)
        grid = so.weighted_shift_grid(g, s1, 256, 2.0)
        v = np.random.default_rng(0).standard_normal(256)
        assert not grid.a_vals.any()
        assert np.allclose(grid.apply(v), g(grid.nodes) * grid.apply_P(v), rtol=0, atol=1e-12)

    def test_one_counted_call_per_product(self, monkeypatch):
        # apply, apply_P and apply_P_transpose each carry exactly one product
        calls = _count_products(monkeypatch)
        v = np.ones(64)
        for grid in _grids("t+0.1*sin(2*pi*t)", 64):
            calls.clear()
            grid.apply(v)
            grid.apply_P_transpose(v)
            assert calls == ["apply", "apply_P_transpose"]


class TestNonFinite:
    """Coefficients and right-hand sides undefined at a grid node are refused."""

    @pytest.mark.parametrize("g", ["1/sin(2*pi*t)", "log(t-0.5)"])
    def test_weighted_shift_grid(self, s1, g):
        with pytest.raises(so.EvalDomainError, match="at t=0.0"):
            so.weighted_shift_grid(so.parse(g), s1, 256, 2.0)

    @pytest.mark.parametrize("f", ["1/sin(2*pi*t)", "log(t-0.5)"])
    def test_neumann_rhs(self, s1, s1_structure, f):
        op = so.operator_spec("1", "0.5", s1, so.lebesgue(2), structure=s1_structure)
        with pytest.raises(so.EvalDomainError, match="at t=0.0"):
            so.neumann_apply(op, so.parse(f), 256, 10)

    @pytest.mark.parametrize("which", ["a", "b"])
    def test_discretize_coefficients(self, s1, s1_structure, which):
        coeffs = {"a": "2", "b": "1", which: "1/sin(2*pi*t)"}
        # built directly: operator_spec already refuses a coefficient infinite at t = 0
        op = so.OperatorSpec(so.exprlang.Fn.of(so.parse(coeffs["a"]), "a"),
                             so.exprlang.Fn.of(so.parse(coeffs["b"]), "b"),
                             s1, s1_structure, so.lebesgue(2))
        # the compiled coefficient keeps its Expr, so the error names the subexpression
        with pytest.raises(so.EvalDomainError,
                           match=r"division by zero in \(1\.0 / sin\(.*\)\) at t=0\.0"):
            so.discretize(op, 256)


class TestRadiusEstimate:
    def test_s1_within_5_percent(self, s1, s1_structure):
        grid = so.weighted_shift_grid(so.parse("1"), s1, 1024, 2.0)
        est = so.estimate_radius_numeric(grid, iters=200)
        target = so.radius_bound(so.parse("1"), s1, s1_structure, so.lebesgue(2.0))
        assert abs(est.estimate - target) <= 0.05 * target

    def test_identity_exact(self):
        ident = so.Shift.from_lift("t")
        grid = so.weighted_shift_grid(so.parse("0.7"), ident, 128, 2.0)
        est = so.estimate_radius_numeric(grid, iters=60)
        assert est.estimate == pytest.approx(0.7, rel=1e-10)

    def test_weight_dead_on_lambda(self, s1):
        # weight supported away from both fixed points: radius 0
        g = lambda t: np.exp(-1.0 / np.maximum(1e-12, 0.02 - (np.asarray(t) - 0.25) ** 2)) \
            * (np.abs(np.asarray(t) - 0.25) < math.sqrt(0.02))
        grid = so.weighted_shift_grid(g, s1, 1024, 2.0)
        est = so.estimate_radius_numeric(grid, iters=200)
        assert est.estimate == 0.0

    def test_radius_agreement_suite(self, s1, s1_structure):
        # m=1 weighted fixtures whose radius is carried by the attracting
        # fixed point (see the estimator docstring for the scope)
        for g_text in ("1", "0.5", "1+sin(pi*t)"):
            g = so.parse(g_text)
            grid = so.weighted_shift_grid(g, s1, 1024, 2.0)
            est = so.estimate_radius_numeric(grid, iters=200)
            target = so.radius_bound(g, s1, s1_structure, so.lebesgue(2.0))
            assert abs(est.estimate - target) <= 0.05 * target, g_text

    @pytest.mark.parametrize("lift, g, target", [
        # weights peaking away from the periodic set, then a radius carried
        # by the repelling fixed points 0 and 1/2, then two Carleman lifts
        ("t+0.1*sin(2*pi*t)", "1+2*sin(2*pi*t)^2", 1.640267),
        ("t+0.1*sin(2*pi*t)", "2+sin(4*pi*t)", 3.280534),
        ("t+0.05*sin(4*pi*t)", "1+0.4*cos(4*pi*t)", 1.097131),
        ("t+0.5", "1+0.5*cos(2*pi*t)", 1.0),
        ("1-t", "1.5+sin(2*pi*t)", 1.5),
    ])
    def test_matches_closed_form(self, lift, g, target):
        shift, weight = so.Shift.from_lift(lift), so.parse(g)
        structure = so.compute_periodic_structure(shift)
        if structure.m == 1:
            closed = so.radius_bound(weight, shift, structure, so.lebesgue(2.0))
        else:
            # |alpha_2'| = 1 on these lifts: r = (max |g_2|)^(1/2), attained at a node
            t = np.arange(4096) / 4096
            closed = float(np.max(np.abs(so.orbit_product(weight, shift, 2, t)))) ** 0.5
        assert closed == pytest.approx(target, abs=1e-6)
        grid = so.weighted_shift_grid(weight, shift, 1024, 2.0)
        est = so.estimate_radius_numeric(grid, iters=200)
        assert est.estimate == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("g, c, r", [("2+cos(2*pi*t)", 2.0, 1.0),
                                         ("1+0.9*cos(2*pi*t)", 1.0, 0.9)])
    def test_no_periodic_points(self, g, c, r):
        # an irrational rotation: the ratio lag falls back to iters // 2, the
        # sweep runs to its last step, and r(gW) = exp(int log|g|), which is
        # (c + sqrt(c^2 - r^2)) / 2 for g = c + r*cos(2*pi*t)
        rot = so.Shift.from_lift("t+0.6180339887498949")
        grid = so.weighted_shift_grid(so.parse(g), rot, 1024, 2.0)
        est = so.estimate_radius_numeric(grid, iters=200)
        assert est.estimate == pytest.approx((c + math.sqrt(c * c - r * r)) / 2, rel=0.01)

    def test_makes_no_stencil_product(self, s1, monkeypatch):
        grid = so.weighted_shift_grid(so.parse("2+sin(4*pi*t)"), s1, 1024, 2.0)

        def refuse(self, v):
            raise AssertionError("stencil product in estimate_radius_numeric")

        for name in ("apply", "apply_P", "apply_P_transpose"):
            monkeypatch.setattr(so.GridOperator, name, refuse)
        assert so.estimate_radius_numeric(grid, iters=200).estimate > 0.0


class TestEvidence:
    def test_diagonal_exact(self, idx):
        ident = so.Shift.from_lift("t")
        for a, expected in (("2", 1.0), ("0.5", 0.5)):
            op = so.operator_spec(a, "1", ident, idx)
            ev = so.invertibility_evidence(op, N_ladder=(64, 128, 256))
            assert ev.rungs[0]["s_min"] == pytest.approx(expected, abs=1e-10)

    def test_coherence_on_suite(self, suite_evidence):
        for name, ev in suite_evidence.items():
            verdict = ev.verdict_expected
            if verdict == "two_sided":
                assert ev.consistent_two_sided, name
            elif verdict == "neither":
                assert ev.consistent_neither, name

    def test_one_sided_asymmetry_reported(self, suite_evidence):
        for r in suite_evidence["F4"].rungs:
            assert "resid" in r and "resid_adjoint" in r and "s_min_adjoint" in r

    def test_one_factorisation_per_matrix(self, fixture_suite, monkeypatch):
        # a well-conditioned rung is one eigvalsh of the Gram and CGLS, with
        # no dense A_N; F4 is ill-conditioned from its first rung, so each
        # ladder makes one eigvalsh and then one lstsq per rung
        calls = {"lstsq": 0, "svd": 0, "eigvalsh": 0, "matrix": 0}

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        for name in ("lstsq", "svd", "eigvalsh"):
            counted(np.linalg, name)
        counted(so.GridOperator, "matrix")
        ladder = (64, 128, 256)
        so.invertibility_evidence(fixture_suite["F1"][0], N_ladder=ladder)
        assert calls == {"lstsq": 0, "svd": 0, "eigvalsh": 6, "matrix": 0}
        calls.update(dict.fromkeys(calls, 0))
        so.invertibility_evidence(fixture_suite["F4"][0], N_ladder=ladder)
        assert calls == {"lstsq": 6, "svd": 0, "eigvalsh": 2, "matrix": 6}

    def test_default_ladder_flags(self, suite_evidence):
        flags = {name: (ev.consistent_two_sided, ev.consistent_neither)
                 for name, ev in suite_evidence.items()}
        assert flags == {"F1": (True, False), "F2": (True, True), "F4": (False, True),
                         "F5": (False, True), "F6": (False, True), "F7": (False, True),
                         "F8": (False, True), "F9": (True, False)}

    @pytest.mark.parametrize("name", ["F1", "F5", "F9"])
    def test_fast_path_matches_dense_lstsq(self, fixture_suite, monkeypatch, name):
        op, ladder = fixture_suite[name][0], (64, 128, 256)
        want = {}
        for tag, spec in (("", op), ("_adjoint", so.adjoint_spec(op))):
            for N in ladder:
                f = so.oracle._smooth_rhs(N, np.random.default_rng(so.oracle.DEFAULT_SEED + N))
                x = np.linalg.lstsq(so.discretize(spec, N).matrix(), f, rcond=1e-10)[0]
                want[tag, N] = np.linalg.norm(x) / np.linalg.norm(f)

        def refuse(self):
            raise AssertionError("dense A_N on a well-conditioned rung")

        monkeypatch.setattr(so.GridOperator, "matrix", refuse)
        ev = so.invertibility_evidence(op, N_ladder=ladder)
        for (tag, N), x_norm in want.items():
            row = ev.rungs[ladder.index(N)]
            assert row[f"x_norm{tag}"] == pytest.approx(x_norm, rel=1e-10), (tag, N)
            assert row[f"resid{tag}"] <= 1e-12, (tag, N)

    def test_cgls_miss_falls_back_to_lstsq(self, fixture_suite, monkeypatch):
        ladder = (64, 128, 256)
        ops = [fixture_suite[name][0] for name in ("F1", "F5", "F9")]
        fast = [so.invertibility_evidence(op, N_ladder=ladder) for op in ops]
        # capped at one step, CGLS misses its stop on every rung
        cgls, calls = so.oracle._cgls, []
        monkeypatch.setattr(so.oracle, "_cgls", lambda grid, f, maxiter: cgls(grid, f, 1))
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, fn=np.linalg.lstsq, **kw: calls.append(1) or fn(*args, **kw))
        for op, ev in zip(ops, fast):
            calls.clear()
            slow = so.invertibility_evidence(op, N_ladder=ladder)
            assert len(calls) == 6
            assert (slow.consistent_two_sided, slow.consistent_neither) == \
                (ev.consistent_two_sided, ev.consistent_neither)
            for row, want in zip(slow.rungs, ev.rungs):
                for key in ("s_min", "s_min_adjoint"):
                    assert row[key] == pytest.approx(want[key], rel=1e-6), key

    def test_s_min_matches_dense_svd(self, fixture_suite):
        ladder = (64, 128, 256)
        for name, (op, _) in fixture_suite.items():
            ev = so.invertibility_evidence(op, N_ladder=ladder)
            for tag, spec in (("", op), ("_adjoint", so.adjoint_spec(op))):
                for N, row in zip(ladder, ev.rungs):
                    A = so.discretize(spec, N).matrix()
                    want = np.linalg.svd(A, compute_uv=False)[-1]
                    if want > 1e-8:
                        assert row[f"s_min{tag}"] == pytest.approx(want, rel=1e-6), (name, tag, N)

    def test_matrix_bits_match_diag_minus_bP(self, fixture_suite, s1):
        # scattered from the stencil entries, A_N keeps every bit of
        # diag(a) - b*P, signed zeros included: A and its adjoint, and g*W
        grids = [so.discretize(spec, 128) for op, _ in fixture_suite.values()
                 for spec in (op, so.adjoint_spec(op))]
        grids.append(so.weighted_shift_grid(so.parse("1+0.5*cos(2*pi*t)"), s1, 128, 2.0))
        for grid in grids:
            want = np.diag(grid.a_vals) - grid.b_vals[:, None] * _dense_P(grid)
            assert grid.matrix().tobytes() == want.tobytes(), grid.b

    def test_ladder_validation(self, fixture_suite):
        op, _ = fixture_suite["F1"]
        for ladder, message in (((256, 128, 512), "ascending"), ((256, 512), "ascending"),
                                ((64.0, 128.0, 256.0), "got 64.0"), (("a", 128, 256), "got 'a'"),
                                ((True, 128, 256), "got True")):
            with pytest.raises(ValueError, match=message):
                so.invertibility_evidence(op, N_ladder=ladder)
        # numpy integers are integers: the rungs come back as ints
        ev = so.invertibility_evidence(op, N_ladder=np.array([64, 128, 256]))
        assert ev == so.invertibility_evidence(op, N_ladder=(64, 128, 256))
        assert [type(r["N"]) for r in ev.rungs] == [int] * 3


class TestNeumann:
    def test_half_shift_fixture(self, s1, s1_structure):
        op = so.operator_spec("1", "0.5", s1, so.lebesgue(2), structure=s1_structure)
        res = so.neumann_apply(op, so.parse("1+0.3*sin(2*pi*t)+0.1*cos(4*pi*t)"),
                               1024, 40)
        assert res.branch == "dominant-a"
        assert res.residual < 1e-3
        assert res.radius_bound == pytest.approx(0.5 * RADIUS_S1_P2, rel=1e-12)
        assert res.measured_ratio == pytest.approx(res.radius_bound, rel=1e-12)

    def test_identity_exact_geometric(self):
        ident = so.Shift.from_lift("t")
        op = so.operator_spec("1", "0.5", ident, so.lebesgue(2))
        res = so.neumann_apply(op, so.parse("1+0.3*sin(2*pi*t)"), 256, 20)
        assert res.residual == pytest.approx(0.5 ** 20, rel=1e-6)
        assert res.measured_ratio == pytest.approx(0.5, rel=1e-10)

    def test_dominant_b_branch(self, s1, s1_structure):
        op = so.operator_spec("0.1", "1", s1, so.lebesgue(2), structure=s1_structure)
        res = so.neumann_apply(op, so.parse("1+0.3*sin(2*pi*t)"), 1024, 40)
        assert res.branch == "dominant-b"
        assert res.residual < 1e-3
        assert res.measured_ratio == pytest.approx(res.radius_bound, rel=1e-12)

    @pytest.mark.parametrize("a, b", [
        # weights peaked at 0 and at 1/2 in each branch: 0 repels under W
        # and attracts under W^{-1}, 1/2 the reverse
        ("1", "0.3*(1+0.9*cos(2*pi*t))"),
        ("1", "0.3*(1+0.9*cos(2*pi*(t-0.5)))"),
        ("0.3*(1+0.9*cos(2*pi*t))", "1"),
        ("0.3*(1+0.9*cos(2*pi*(t-0.5)))", "1"),
    ])
    def test_measured_ratio_on_varying_weights(self, s1, s1_structure, a, b):
        op = so.operator_spec(a, b, s1, so.lebesgue(2), structure=s1_structure)
        res = so.neumann_apply(op, so.parse("1+0.3*sin(2*pi*t)+0.1*cos(4*pi*t)"), 1024, 40)
        assert res.measured_ratio == pytest.approx(res.radius_bound, rel=1e-12)

    @pytest.mark.parametrize("a, b, branch", [("1", "0.3", "dominant-a"),
                                              ("0.3", "1", "dominant-b")])
    def test_multiplicity_two(self, a, b, branch):
        # m = 2 with Lambda = {0, 1/4, 1/2, 3/4}: the bound is the m-th-root form
        shift = so.Shift.from_lift("t+0.5+0.05*sin(4*pi*t)")
        op = so.operator_spec(a, b, shift, so.lebesgue(2),
                              structure=so.compute_periodic_structure(shift))
        assert op.structure.m == 2
        res = so.neumann_apply(op, so.parse("1+0.3*sin(2*pi*t)"), 1024, 40)
        assert res.branch == branch
        assert math.isfinite(res.radius_bound)
        assert res.measured_ratio == pytest.approx(res.radius_bound, rel=1e-12)

    @pytest.mark.parametrize("a, b, branch", [("1", "0.5", "dominant-a"),
                                              ("0.1", "1", "dominant-b")])
    def test_stencil_products(self, s1, s1_structure, monkeypatch, a, b, branch):
        # terms iterate products and one residual product; W^{-1} once on dominant-b
        calls = _count_products(monkeypatch)
        op = so.operator_spec(a, b, s1, so.lebesgue(2), structure=s1_structure)
        terms = 40
        res = so.neumann_apply(op, so.parse("1+0.3*sin(2*pi*t)"), 1024, terms)
        assert res.branch == branch
        assert calls.count("apply") == terms + 1
        assert calls.count("apply_P") == (branch == "dominant-b")
        assert "apply_P_transpose" not in calls

    def test_neither_branch_refused(self, s1, s1_structure, idx):
        op = so.operator_spec("2-1.9*sin(pi*t)", "1", s1, idx, structure=s1_structure)
        with pytest.raises(ValueError, match="Neumann form not available"):
            so.neumann_apply(op, so.parse("1"), 256, 10)
