from dataclasses import replace

import pytest

import shiftop as so


class TestSpaceIndices:
    def test_lebesgue(self):
        x = so.lebesgue(2)
        assert (x.alpha, x.beta, x.fundamental_type) == (0.5, 0.5, True)

    def test_valid_pair(self):
        x = so.space_indices(1 / 3, 1 / 2, True)
        assert x.alpha == pytest.approx(1 / 3)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            so.space_indices(0.0, 0.5, True)
        with pytest.raises(ValueError):
            so.space_indices(0.3, 1.0, True)
        with pytest.raises(ValueError):
            so.space_indices(0.6, 0.5, True)

    def test_non_fundamental_refused(self, fixture_suite):
        # no warning: decide refuses the space in its first stage
        op, verdict = fixture_suite["F4"]
        x = so.space_indices(0.3, 0.5, False)
        assert verdict == "right_only"
        for spec in (replace(op, space=x), so.adjoint_spec(replace(op, space=x))):
            report = so.decide(spec)
            assert (report.verdict, report.right, report.left) == ("undecidable", None, None)
            assert report.witness == {"type": "space_not_fundamental_type"}
            assert report.partition_summary == {} and report.sigma_extrema == {}


class TestAssociate:
    def test_substitution(self):
        x = so.associate_indices(so.space_indices(1 / 3, 1 / 2))
        assert x.alpha == pytest.approx(1 / 2)
        assert x.beta == pytest.approx(2 / 3)

    def test_self_associate_at_p2(self):
        x = so.associate_indices(so.lebesgue(2))
        assert (x.alpha, x.beta) == (0.5, 0.5)

    def test_involution(self):
        x = so.space_indices(0.21, 0.73)
        y = so.associate_indices(so.associate_indices(x))
        assert y.alpha == pytest.approx(x.alpha, abs=1e-15)
        assert y.beta == pytest.approx(x.beta, abs=1e-15)

