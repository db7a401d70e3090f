"""Tests for entanglement and squeezing quantifiers."""

import numpy as np
import pytest

from helpers import random_pure_cm, random_rotation_pair
from twomode.core import (
    NotPureError,
    apply_symplectic,
    squeezed_product_cm,
    two_mode_squeezed_cm,
    vacuum_cm,
)
from twomode.measures import entanglement, negativity, squeezing


class TestNegativity:
    def test_vacuum(self):
        assert negativity(vacuum_cm()) == pytest.approx(1.0, abs=1e-12)

    def test_two_mode_squeezed_value(self):
        for t in (0.1, 0.4, 1.0):
            assert negativity(two_mode_squeezed_cm(t)) == pytest.approx(np.exp(2 * t), rel=1e-10)

    def test_matches_standard_form_parameter(self, rng):
        """Two independent code paths: partial-transpose spectrum vs exp(r)."""
        for _ in range(300):
            g = random_pure_cm(rng)
            report = entanglement(g)
            assert report.negativity == pytest.approx(np.exp(report.r), rel=1e-8)


class TestEntanglementReport:
    def test_vacuum_trivial(self):
        report = entanglement(vacuum_cm())
        assert report.r == 0.0
        assert report.negativity == pytest.approx(1.0)
        assert report.det_a == pytest.approx(1.0)
        assert report.entropy == 0.0

    def test_purity_relation(self, rng):
        for _ in range(100):
            report = entanglement(random_pure_cm(rng))
            assert report.det_a == pytest.approx(np.cosh(report.r) ** 2, rel=1e-8)
            assert report.det_a >= 1.0

    def test_mixed_state_rejected(self):
        with pytest.raises(NotPureError):
            entanglement(1.5 * np.eye(4))

    def test_entropy_matches_fock_spectrum(self, rng):
        """Schmidt spectrum of a pure state: lambda_n = (1 - q) q^n, q = tanh(r/2)^2."""
        states = [two_mode_squeezed_cm(x) for x in (0.3, 0.7, 1.2)]
        states += [random_pure_cm(rng) for _ in range(20)]
        for g in states:
            report = entanglement(g)
            q = np.tanh(report.r / 2.0) ** 2
            lam = (1.0 - q) * q ** np.arange(20000)
            lam = lam[lam > 0.0]
            oracle = float(-np.sum(lam * np.log(lam)))
            assert report.entropy == pytest.approx(oracle, rel=1e-10, abs=1e-10)

    def test_serialisation_fields(self):
        payload = entanglement(two_mode_squeezed_cm(0.3)).to_dict()
        assert set(payload) == {"r", "E0", "Ep", "negativity", "entropy"}
        assert payload["E0"] == payload["r"]


class TestSqueezing:
    def test_vacuum(self):
        report = squeezing(vacuum_cm())
        assert report.lambda_min == pytest.approx(1.0)
        assert report.squeezing == pytest.approx(1.0)
        assert report.q == 0.0
        assert report.degenerate

    def test_two_mode_squeezed_value(self):
        for t in (0.2, 0.7):
            assert squeezing(two_mode_squeezed_cm(t)).squeezing == pytest.approx(
                np.exp(2 * t), rel=1e-10
            )

    def test_single_mode_squeezed_direction(self):
        report = squeezing(squeezed_product_cm(0.8, 0.0))
        assert report.squeezing == pytest.approx(np.exp(0.8))
        assert np.allclose(np.abs(report.x1), [1.0, 0.0], atol=1e-12)
        assert np.allclose(report.x2, [0.0, 0.0], atol=1e-12)
        assert not report.degenerate

    def test_eigenpair_residual(self, rng):
        for _ in range(100):
            g = random_pure_cm(rng)
            report = squeezing(g)
            x = np.concatenate([report.x1, report.x2])
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(g @ x - report.lambda_min * x)) < 1e-10 * max(
                1.0, float(np.max(np.abs(g)))
            )


class TestInvariances:
    def test_local_rotations_leave_reports_unchanged(self, rng):
        for _ in range(1000):
            g = random_pure_cm(rng, factors=2)
            ref_ent = entanglement(g)
            ref_sq = squeezing(g)
            rotated = apply_symplectic(random_rotation_pair(rng).matrix, g)
            ent = entanglement(rotated)
            assert ent.r == pytest.approx(ref_ent.r, abs=1e-9)
            assert ent.negativity == pytest.approx(ref_ent.negativity, rel=1e-9)
            assert ent.det_a == pytest.approx(ref_ent.det_a, rel=1e-9)
            assert squeezing(rotated).lambda_min == pytest.approx(ref_sq.lambda_min, rel=1e-9)

    def test_squeezing_bounds_negativity(self, rng):
        """Entanglement witnessed by negativity never exceeds the squeezing."""
        for _ in range(500):
            g = random_pure_cm(rng)
            assert negativity(g) <= squeezing(g).squeezing + 1e-9
