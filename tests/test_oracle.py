import math

import numpy as np
import pytest

import shiftop as so
from shiftop.oracle import DEFAULT_SEED
from conftest import RADIUS_S1_P2


class TestDiscretize:
    def test_identity_shift_p_is_identity(self, idx):
        ident = so.Shift.from_lift("t")
        op = so.operator_spec("2", "1", ident, idx)
        grid = so.discretize(op, 128, 2.0)
        P = grid.dense_P()
        assert np.allclose(P, np.eye(128), atol=1e-14)

    def test_half_rotation_is_permutation(self, idx):
        rot = so.Shift.from_lift("t+0.5")
        op = so.operator_spec("2", "1", rot, idx)
        grid = so.discretize(op, 128, 2.0)
        P = grid.dense_P()
        expected = np.roll(np.eye(128), -64, axis=1)
        assert np.allclose(P, expected, atol=1e-14)

    def test_composition_accuracy(self, s1, s1_structure, idx):
        op = so.operator_spec("2", "1", s1, idx, structure=s1_structure)
        grid = so.discretize(op, 512, 2.0)
        f = np.sin(2 * np.pi * grid.nodes)
        target = np.sin(2 * np.pi * so.wrap(s1.lift_ext(grid.nodes)))
        assert np.abs(grid.apply_P(f) - target).max() < 1e-8

    def test_rows_sum_to_one(self, s1, s1_structure, idx):
        op = so.operator_spec("2", "1", s1, idx, structure=s1_structure)
        grid = so.discretize(op, 256, 2.0)
        assert np.abs(grid.wts.sum(axis=1) - 1.0).max() < 1e-10

    def test_interpolation_order(self, s1, s1_structure, idx):
        op = so.operator_spec("2", "1", s1, idx, structure=s1_structure)
        errs = []
        ladder = (64, 128, 256, 512, 1024)
        for N in ladder:
            grid = so.discretize(op, N, 2.0)
            f = np.sin(2 * np.pi * grid.nodes)
            target = np.sin(2 * np.pi * so.wrap(s1.lift_ext(grid.nodes)))
            errs.append(np.abs(grid.apply_P(f) - target).max())
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        for s in slopes:
            assert abs(s - 4.0) <= 0.3

    def test_invalid_grid(self, s1, s1_structure, idx):
        op = so.operator_spec("2", "1", s1, idx, structure=s1_structure)
        with pytest.raises(ValueError):
            so.discretize(op, 100, 2.0)
        with pytest.raises(ValueError):
            so.discretize(op, 256, 1.0)


class TestTranspose:
    @pytest.mark.parametrize("N", [64, 256])
    @pytest.mark.parametrize("lift", ["t+0.1*sin(2*pi*t)", "1-t", "t+0.5"])
    def test_matches_dense(self, idx, N, lift):
        shift = so.Shift.from_lift(lift)
        op = so.operator_spec("2+cos(2*pi*t)", "1+0.5*sin(2*pi*t)", shift, idx)
        grid = so.discretize(op, N, 2.0)
        v = np.random.default_rng(N).standard_normal(N)
        assert np.allclose(grid.apply_P_transpose(v), grid.dense_P().T @ v,
                           rtol=0, atol=1e-12)
        assert np.allclose(grid.apply_transpose(v), grid.matrix().T @ v,
                           rtol=0, atol=1e-12)
        g = lambda t: 1.0 + np.sin(np.pi * t)
        wgrid = so.weighted_shift_grid(g, shift, N, 2.0)
        assert np.allclose(wgrid.apply(v), g(wgrid.nodes) * wgrid.apply_P(v),
                           rtol=0, atol=1e-12)


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
        assert est.estimate < 0.05

    def test_radius_agreement_suite(self, s1, s1_structure):
        # m=1 weighted fixtures whose radius is carried by the attracting
        # fixed point (see the estimator docstring for the scope)
        for g_text in ("1", "0.5", "1+sin(pi*t)"):
            g = so.parse(g_text)
            grid = so.weighted_shift_grid(g, s1, 1024, 2.0)
            est = so.estimate_radius_numeric(grid, iters=200)
            target = so.radius_bound(g, s1, s1_structure, so.lebesgue(2.0))
            assert abs(est.estimate - target) <= 0.05 * target, g_text


class TestEvidence:
    def test_diagonal_exact(self, idx):
        ident = so.Shift.from_lift("t")
        for a, expected in (("2", 1.0), ("0.5", 0.5)):
            op = so.operator_spec(a, "1", ident, idx)
            ev = so.invertibility_evidence(op, N_ladder=(64, 128, 256))
            assert ev.rungs[0]["s_min"] == pytest.approx(expected, abs=1e-10)

    def test_coherence_on_suite(self, fixture_suite):
        for name, (op, verdict) in fixture_suite.items():
            ev = so.invertibility_evidence(op, verdict=verdict)
            if verdict == "two_sided":
                assert ev.consistent_two_sided, name
            elif verdict == "neither":
                assert ev.consistent_neither, name

    def test_one_sided_asymmetry_reported(self, fixture_suite):
        op, _ = fixture_suite["F4"]
        ev = so.invertibility_evidence(op)
        for r in ev.rungs:
            assert "resid" in r and "resid_adjoint" in r and "s_min_adjoint" in r

    def test_one_factorisation_per_matrix(self, fixture_suite, monkeypatch):
        calls = {"lstsq": 0, "svd": 0}

        def counted(name):
            fn = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name))
        so.invertibility_evidence(fixture_suite["F4"][0], N_ladder=(64, 128, 256))
        assert calls == {"lstsq": 6, "svd": 0}

    def test_s_min_matches_dense_svd(self, fixture_suite):
        ladder = (64, 128, 256)
        for name, (op, _) in fixture_suite.items():
            ev = so.invertibility_evidence(op, N_ladder=ladder)
            for tag, spec in (("", op), ("_adjoint", so.adjoint_spec(op))):
                for N, row in zip(ladder, ev.rungs):
                    A = so.discretize(spec, N, 2.0).matrix()
                    want = np.linalg.svd(A, compute_uv=False)[-1]
                    if want > 1e-8:
                        assert row[f"s_min{tag}"] == pytest.approx(want, rel=1e-6), (name, tag, N)

    def test_matrix_bits_match_diag_minus_bP(self, fixture_suite):
        # built in place, A_N keeps every bit of diag(a) - b*P, signed zeros included
        for name, (op, _) in fixture_suite.items():
            grid = so.discretize(op, 128, 2.0)
            want = np.diag(grid.a_vals) - grid.b_vals[:, None] * grid.dense_P()
            assert grid.matrix().tobytes() == want.tobytes(), name

    def test_ladder_validation(self, fixture_suite):
        op, _ = fixture_suite["F1"]
        with pytest.raises(ValueError):
            so.invertibility_evidence(op, N_ladder=(256, 128, 512))
        with pytest.raises(ValueError):
            so.invertibility_evidence(op, N_ladder=(256, 512))


class TestNeumann:
    def test_half_shift_fixture(self, s1, s1_structure):
        op = so.operator_spec("1", "0.5", s1, so.lebesgue(2), structure=s1_structure)
        res = so.neumann_apply(op, so.parse("1+0.3*sin(2*pi*t)+0.1*cos(4*pi*t)"),
                               1024, 40)
        assert res.branch == "dominant-a"
        assert res.residual < 1e-3
        assert res.radius_bound == pytest.approx(0.5 * RADIUS_S1_P2, rel=1e-12)
        assert abs(res.measured_ratio - res.radius_bound) <= 0.1 * res.radius_bound

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
        assert abs(res.measured_ratio - res.radius_bound) <= 0.1 * res.radius_bound

    def test_neither_branch_refused(self, s1, s1_structure, idx):
        op = so.operator_spec("2-1.9*sin(pi*t)", "1", s1, idx, structure=s1_structure)
        with pytest.raises(ValueError, match="Neumann form not available"):
            so.neumann_apply(op, so.parse("1"), 256, 10)
