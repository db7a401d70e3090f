"""Tests for the closed-form optimal entanglement and squeezing rates."""

import numpy as np
import pytest

from helpers import (
    grid_entanglement_rate,
    grid_squeezing_rate,
    random_coupling,
    random_pure_cm,
    random_rotation_pair,
)
from twomode.core import (
    H0,
    HBS,
    HTMS,
    PRODUCT_R,
    LocalRotationPair,
    NotPureError,
    apply_symplectic,
    evolve,
    pure_standard_form,
    squeezed_product_cm,
    two_mode_squeezed_cm,
    vacuum_cm,
)
from twomode.measures import entanglement, squeezing
from twomode.rates import (
    entanglement_rate,
    local_squeezing_parameter,
    optimal_entanglement_rate,
    optimal_squeezing_rate,
    squeezing_capability,
)

FIG3_SQUEEZE = np.diag([np.e, 1.0 / np.e, np.e, 1.0 / np.e])


def fd_entanglement_rate(gamma, k, pair, dt=1e-6):
    """Finite-difference oracle for the rate achieved by given pre-rotations."""
    rotated = apply_symplectic(pair.matrix, gamma)
    evolved = apply_symplectic(evolve(k, dt), rotated)
    return (pure_standard_form(evolved).r - pure_standard_form(gamma).r) / dt


class TestLocalSqueezingParameter:
    def test_vacuum(self):
        assert local_squeezing_parameter(vacuum_cm()) == 0.0

    def test_squeezed_light_input(self):
        """One mode squeezed by r: the parameter is r/2 in either orientation."""
        assert local_squeezing_parameter(squeezed_product_cm(0.0, 2.5)) == pytest.approx(1.25)
        assert local_squeezing_parameter(squeezed_product_cm(2.5, 0.0)) == pytest.approx(1.25)

    def test_product_orientation_maximises(self):
        """Both modes squeezed: the canonical orientation adds the exponents."""
        assert local_squeezing_parameter(squeezed_product_cm(1.0, 0.6)) == pytest.approx(0.8)

    def test_equal_same_axis_squeezing_cancels(self):
        """The doubly squeezed weakly entangled input has no usable local squeezing."""
        gin2 = apply_symplectic(FIG3_SQUEEZE, two_mode_squeezed_cm(0.5e-3))
        assert local_squeezing_parameter(gin2) == pytest.approx(0.0, abs=1e-9)

    def test_mixed_state_rejected(self):
        with pytest.raises(NotPureError):
            local_squeezing_parameter(3.0 * np.eye(4))


class TestOptimalEntanglementRate:
    def test_vacuum_rate_one(self):
        plan = optimal_entanglement_rate(vacuum_cm(), H0)
        assert plan.rate == pytest.approx(1.0, abs=1e-12)
        assert plan.l == pytest.approx(0.0, abs=1e-12)

    def test_squeezed_light_boost(self):
        plan = optimal_entanglement_rate(squeezed_product_cm(0.0, 2.5), H0)
        assert plan.rate == pytest.approx(np.exp(1.25), rel=1e-12, abs=0.0)

    def test_beam_splitter_cannot_entangle_unsqueezed_states(self):
        assert optimal_entanglement_rate(vacuum_cm(), HBS).rate == pytest.approx(0.0, abs=1e-12)

    def test_rate_formula(self, rng):
        for _ in range(50):
            g = random_pure_cm(rng)
            k = random_coupling(rng)
            plan = optimal_entanglement_rate(g, k)
            expected = plan.s1 * np.exp(plan.l) - plan.s2 * np.exp(-plan.l)
            assert plan.rate == pytest.approx(expected, rel=1e-12, abs=0.0)
            if plan.Y is not None:
                assert np.linalg.det(plan.Y) == pytest.approx(-1.0, abs=1e-9)

    def test_rotations_achieve_the_rate(self, rng):
        """Finite differences confirm the returned rotations deliver the optimum."""
        for _ in range(40):
            g = random_pure_cm(rng, tmax=0.6)
            k = random_coupling(rng)
            plan = optimal_entanglement_rate(g, k)
            achieved = fd_entanglement_rate(g, k, plan.rotations)
            assert achieved == pytest.approx(plan.rate, rel=2e-4, abs=1e-6)

    def test_invariant_under_pre_rotations(self, rng):
        """Pre-applied local rotations are absorbed into the optimisation."""
        for _ in range(100):
            g = random_pure_cm(rng)
            k = random_coupling(rng)
            ref = optimal_entanglement_rate(g, k).rate
            rotated = apply_symplectic(random_rotation_pair(rng).matrix, g)
            assert optimal_entanglement_rate(rotated, k).rate == pytest.approx(
                ref, rel=1e-9, abs=1e-9
            )

    def test_matches_grid_search(self, rng):
        """Closed form equals the brute-force grid maximum (reduced sweep)."""
        for _ in range(25):
            g = random_pure_cm(rng, tmax=0.6)
            k = random_coupling(rng)
            best = grid_entanglement_rate(g, k, n_grid=240)
            closed = optimal_entanglement_rate(g, k).rate
            assert best == pytest.approx(closed, rel=1e-3, abs=1e-6)
            assert best <= closed * (1 + 1e-4) + 1e-6


class TestGeneralEntanglementRate:
    def test_optimal_rotations_consistency(self, rng):
        for _ in range(50):
            g = random_pure_cm(rng)
            k = random_coupling(rng)
            plan = optimal_entanglement_rate(g, k)
            if plan.Y is None:
                continue
            value = entanglement_rate(g, k, plan.rotations)
            assert value == pytest.approx(plan.rate, rel=1e-9, abs=1e-9)

    def test_identity_rotations_match_finite_difference(self):
        g = two_mode_squeezed_cm(0.05)
        value = entanglement_rate(g, H0, LocalRotationPair())
        fd = fd_entanglement_rate(g, H0, LocalRotationPair())
        assert value == pytest.approx(fd, abs=1e-5)

    def test_never_exceeds_optimum(self, rng):
        for _ in range(20):
            g = random_pure_cm(rng)
            k = random_coupling(rng)
            plan = optimal_entanglement_rate(g, k)
            if plan.Y is None:
                continue
            for _ in range(100):
                pair = random_rotation_pair(rng)
                value = entanglement_rate(g, k, pair)
                assert value <= plan.rate + 1e-9

    def test_product_state_rejected(self):
        """The refusal names the rule it applies: the state's ``r`` against ``PRODUCT_R``."""
        with pytest.raises(ValueError, match=r"r = 0 is below PRODUCT_R = 1e-07$"):
            entanglement_rate(vacuum_cm(), H0, LocalRotationPair())
        with pytest.raises(ValueError, match=r"r = 2e-08 is below PRODUCT_R = 1e-07$"):
            entanglement_rate(two_mode_squeezed_cm(1e-8), H0, LocalRotationPair())


class TestOneProductRule:
    def test_standard_form_and_kernel_agree_near_product_states(self, rng):
        """``pure_standard_form`` and the rate kernel read one rule, ``r < PRODUCT_R``, on
        ``two_mode_squeezed_cm(eps)`` under local squeezing and rotation, eps from 1e-9 to 1e-6."""
        for eps in np.logspace(-9.0, -6.0, 13):
            for _ in range(8):
                local = np.diag(np.exp(np.repeat(rng.uniform(-1.0, 1.0, size=2), 2) * [1, -1, 1, -1]))
                g = apply_symplectic(random_rotation_pair(rng).matrix @ local, two_mode_squeezed_cm(eps))
                product = pure_standard_form(g).is_product
                assert product == (optimal_entanglement_rate(g, random_coupling(rng)).Y is None)
                assert product == (entanglement(g).r < PRODUCT_R)


class TestSqueezingCapability:
    @pytest.mark.parametrize(
        "k, value", [(H0, 1.0), (HBS, 0.0), (HTMS, 2.0), (np.zeros((2, 2)), 0.0)]
    )
    def test_reference_values(self, k, value):
        assert squeezing_capability(k) == pytest.approx(value, abs=1e-15)


class TestOptimalSqueezingRate:
    def test_vacuum_unit_rate(self):
        """The degenerate policy picks a balanced eigenvector: full squeezability."""
        plan = optimal_squeezing_rate(vacuum_cm(), H0)
        assert plan.degenerate
        assert plan.squeezability == pytest.approx(1.0, rel=1e-12, abs=0.0)
        assert plan.rate == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_vacuum_rate_achieved(self):
        plan = optimal_squeezing_rate(vacuum_cm(), H0)
        pair = np.eye(4)
        pair[:2, :2] = plan.rotation
        dt = 1e-6
        g = apply_symplectic(evolve(H0, dt), pair @ vacuum_cm() @ pair.T)
        achieved = squeezing(g).q / dt
        assert achieved == pytest.approx(plan.rate, rel=1e-5)

    def test_single_mode_squeezed_dead_end(self):
        """Eigenvector entirely in mode 1: the coupling cannot squeeze further."""
        plan = optimal_squeezing_rate(squeezed_product_cm(1.0, 0.0), H0)
        assert plan.squeezability == pytest.approx(0.0, abs=1e-12)
        assert plan.rate == pytest.approx(0.0, abs=1e-12)

    def test_beam_splitter_never_squeezes(self, rng):
        g = random_pure_cm(rng)
        assert optimal_squeezing_rate(g, HBS).rate == pytest.approx(0.0, abs=1e-12)

    def test_parallelisation_condition(self, rng):
        """The det(-1) matrix maps -x2 onto the direction of x1."""
        for _ in range(50):
            g = random_pure_cm(rng)
            k = random_coupling(rng)
            plan = optimal_squeezing_rate(g, k)
            x1, x2 = plan.x[:2], plan.x[2:]
            if np.linalg.norm(x1) < 1e-6 or np.linalg.norm(x2) < 1e-6:
                continue
            mapped = -plan.o_tilde @ (x2 / np.linalg.norm(x2))
            assert np.allclose(mapped, x1 / np.linalg.norm(x1), atol=1e-9)
            assert np.linalg.det(plan.o_tilde) == pytest.approx(-1.0, abs=1e-9)

    def test_rate_bounded_by_capability(self, rng):
        for _ in range(200):
            g = random_pure_cm(rng)
            k = random_coupling(rng)
            plan = optimal_squeezing_rate(g, k)
            assert plan.rate <= squeezing_capability(k) + 1e-12
            assert 0.0 <= plan.squeezability <= 1.0 + 1e-12

    def test_matches_grid_search(self, rng):
        for _ in range(25):
            g = random_pure_cm(rng, tmax=0.6)
            k = random_coupling(rng)
            best = grid_squeezing_rate(g, k, n_grid=480)
            closed = optimal_squeezing_rate(g, k).rate
            assert best == pytest.approx(closed, rel=1e-3, abs=1e-6)


class TestSqueezingGrowthBound:
    def test_log_squeezing_slope_along_random_protocols(self, rng):
        """d(log S)/dt never exceeds the capability along any schedule."""
        for _ in range(20):
            k = random_coupling(rng)
            cap = squeezing_capability(k)
            g = vacuum_cm()
            dt = 1e-3
            q_prev = squeezing(g).q
            for _ in range(50):
                g = apply_symplectic(random_rotation_pair(rng).matrix, g)
                g = apply_symplectic(evolve(k, dt), g)
                q_next = squeezing(g).q
                assert q_next - q_prev <= cap * dt + 50.0 * dt * dt
                q_prev = q_next


class TestBranchContinuity:
    def test_rate_continuous_across_vanishing_cross_block(self):
        """The optimal rate is continuous as the cross block goes to zero."""
        base = squeezed_product_cm(0.4, 0.9)
        values = []
        for t0 in (1e-2, 1e-4, 1e-6, 1e-8, 0.0):
            g = apply_symplectic(evolve(HTMS, t0), base)
            values.append(optimal_entanglement_rate(g, H0).rate)
        # Entangled-path values approach the product-path value smoothly.
        assert values[-1] == pytest.approx(values[-2], rel=1e-4)
        assert values[-1] == pytest.approx(values[-3], rel=1e-2)

    def test_local_squeezing_parameter_continuity(self):
        base = squeezed_product_cm(0.7, 0.2)
        l_product = local_squeezing_parameter(base)
        l_near = local_squeezing_parameter(apply_symplectic(evolve(HTMS, 1e-6), base))
        assert l_near == pytest.approx(l_product, abs=1e-4)


class TestPurityPreconditions:
    def test_mixed_states_rejected_by_rate_functions(self):
        mixed = 1.5 * np.eye(4)
        with pytest.raises(NotPureError):
            optimal_entanglement_rate(mixed, H0)
        with pytest.raises(NotPureError):
            entanglement_rate(mixed, H0, LocalRotationPair())
