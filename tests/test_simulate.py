"""Tests for simulability conditions, minimal times, plans and protocols."""

import numpy as np
import pytest

from helpers import random_coupling, random_rotation_pair, reference_plan_to_protocol
from twomode.core import (
    H0,
    HBS,
    HTMS,
    J,
    LocalRotationPair,
    apply_symplectic,
    evolve,
    kmatrix,
    restricted_svd,
    vacuum_cm,
)
from twomode.protocols import run_protocol
from twomode.simulate import (
    DegenerateHamiltonianError,
    InfeasibleTimeError,
    PlanTerm,
    Protocol,
    SimulationPlan,
    can_simulate_efficiently,
    effective_hamiltonian,
    min_simulation_time,
    plan_to_protocol,
    synthesize_plan,
)


class TestSimulabilityCondition:
    def test_position_coupling_reaches_weak_targets(self):
        assert can_simulate_efficiently(H0, kmatrix(a=0.6, b=0.3))

    def test_position_coupling_cannot_reach_squeezer(self):
        assert not can_simulate_efficiently(H0, HTMS)
        assert not can_simulate_efficiently(H0, HBS)

    def test_self_simulation(self, rng):
        k = random_coupling(rng)
        assert can_simulate_efficiently(k, k)

    def test_equivalent_to_unit_minimal_time(self, rng):
        """Efficiency at unit cost is the same statement as t_min <= 1."""
        for _ in range(300):
            k = random_coupling(rng)
            kp = random_coupling(rng)
            _, s, _ = restricted_svd(k)
            if s.s1 - abs(s.s2) < 1e-6:
                continue
            efficient = can_simulate_efficiently(k, kp)
            assert efficient == (min_simulation_time(k, kp, 1.0) <= 1.0 + 1e-12)


class TestMinimalTime:
    def test_reference_factors(self):
        """Simulating either the beam splitter or the squeezer costs a factor 2."""
        assert min_simulation_time(H0, HBS, 1.0) == pytest.approx(2.0, abs=1e-12)
        assert min_simulation_time(H0, HTMS, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_self_cost(self, rng):
        k = random_coupling(rng)
        assert min_simulation_time(k, k, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_sign_mismatch_is_more_expensive(self):
        assert min_simulation_time(np.diag([2.0, 1.0]), np.diag([1.0, -0.5]), 1.0) == pytest.approx(
            1.5
        )

    def test_homogeneity(self, rng):
        k, kp = random_coupling(rng), random_coupling(rng)
        base = min_simulation_time(k, kp, 1.0)
        assert min_simulation_time(k, kp, 3.5) == pytest.approx(3.5 * base, rel=1e-12)
        assert min_simulation_time(2.0 * k, kp, 1.0) == pytest.approx(base / 2.0, rel=1e-12)

    def test_degenerate_coupling_rejects_generic_targets(self):
        with pytest.raises(DegenerateHamiltonianError):
            min_simulation_time(HBS, H0, 1.0)
        with pytest.raises(DegenerateHamiltonianError):
            min_simulation_time(HTMS, H0, 1.0)

    def test_degenerate_coupling_accepts_scaled_equivalents(self):
        """A squeezer can still simulate rotated, rescaled squeezers."""
        assert min_simulation_time(HTMS, 0.5 * HTMS, 1.0) == pytest.approx(0.5)
        pair = LocalRotationPair(0.3, 1.1)
        rotated = pair.block1.T @ HTMS @ pair.block2
        assert min_simulation_time(HTMS, rotated, 2.0) == pytest.approx(2.0)


class TestSynthesizePlan:
    def test_squeezer_plan_weights(self):
        """The optimal squeezer plan is an even mixture of identity and flip."""
        plan = synthesize_plan(H0, HTMS, 1.0)
        assert plan.t == pytest.approx(2.0)
        assert plan.kappa == pytest.approx(0.5)
        weights = sorted(term.weight for term in plan.terms)
        assert weights == pytest.approx([0.5, 0.5])
        assert np.max(np.abs(effective_hamiltonian(plan) - HTMS)) < 1e-12

    def test_beam_splitter_plan(self):
        plan = synthesize_plan(H0, HBS, 1.0)
        assert sorted(t.weight for t in plan.terms) == pytest.approx([0.5, 0.5])
        assert np.max(np.abs(effective_hamiltonian(plan) - HBS)) < 1e-12

    def test_self_simulation_single_trivial_term(self, rng):
        k = random_coupling(rng)
        plan = synthesize_plan(k, k, 0.7)
        assert len(plan.terms) == 1
        assert plan.terms[0].weight == pytest.approx(1.0)
        assert np.allclose(plan.terms[0].rotations.matrix, np.eye(4), atol=1e-12)

    def test_weights_form_distribution(self, rng):
        for _ in range(200):
            k, kp = random_coupling(rng), random_coupling(rng)
            _, s, _ = restricted_svd(k)
            if s.s1 - abs(s.s2) < 1e-6:
                continue
            plan = synthesize_plan(k, kp, rng.uniform(0.1, 2.0))
            assert len(plan.terms) <= 4
            assert sum(t.weight for t in plan.terms) == pytest.approx(1.0, abs=1e-12)
            assert all(t.weight > 0 for t in plan.terms)

    def test_minimal_time_plans_hit_target(self, rng):
        """At minimal interaction time the plan reproduces the target exactly."""
        for _ in range(10_000):
            k, kp = random_coupling(rng), random_coupling(rng)
            _, s, _ = restricted_svd(k)
            if s.s1 - abs(s.s2) < 1e-6:
                continue
            plan = synthesize_plan(k, kp, 1.0)
            scale = max(1.0, float(np.max(np.abs(kp))))
            assert np.max(np.abs(effective_hamiltonian(plan) - kp)) < 1e-10 * scale

    def test_no_round_off_weights_at_minimal_time(self, rng):
        """Round-off weights are dropped, so every term carries real time.

        Each compiled gate then costs exactly ``slices * len(terms)`` steps.
        """
        from twomode.gates import BeamSplitterGate, GateSequence, compile_to_native

        for _ in range(200):
            k, kp = random_coupling(rng), random_coupling(rng)
            _, s, _ = restricted_svd(k)
            if s.s1 - abs(s.s2) < 1e-6:
                continue
            plan = synthesize_plan(k, kp, 1.0)
            assert min(t.weight for t in plan.terms) > 1e-12
            scale = max(1.0, float(np.max(np.abs(kp))))
            assert np.max(np.abs(effective_hamiltonian(plan) - kp)) < 1e-9 * scale
            gate_plan = synthesize_plan(k, HBS, 0.4)
            protocol = compile_to_native(GateSequence((BeamSplitterGate(0.4),)), k, slices=50)
            assert len(protocol.steps) == 50 * len(gate_plan.terms)

    def test_extra_time_is_allowed(self, rng):
        k, kp = H0, kmatrix(a=0.4, b=0.1)
        plan = synthesize_plan(k, kp, 1.0, t=3.0)
        assert plan.t == 3.0
        assert np.max(np.abs(effective_hamiltonian(plan) - kp)) < 1e-12

    def test_too_little_time_is_infeasible(self):
        with pytest.raises(InfeasibleTimeError):
            synthesize_plan(H0, HTMS, 1.0, t=1.9)

    def test_degenerate_native_raises(self):
        with pytest.raises(DegenerateHamiltonianError):
            synthesize_plan(HBS, H0, 1.0)

    def test_json_roundtrip(self):
        plan = synthesize_plan(H0, HTMS, 1.0)
        again = SimulationPlan.from_dict(plan.to_dict())
        assert np.allclose(again.native_k, plan.native_k)
        assert np.allclose(again.target_k, plan.target_k)
        assert again.t == plan.t
        for a, b in zip(again.terms, plan.terms):
            assert a.weight == b.weight
            assert np.allclose(a.rotations.matrix, b.rotations.matrix)


class TestEffectiveHamiltonian:
    def test_flip_plan_produces_averaged_coupling(self, rng):
        """Equal-weight identity/flip windows average the coupling with its rotation."""
        k = random_coupling(rng)
        flip = LocalRotationPair(np.pi / 2.0, 3.0 * np.pi / 2.0)
        plan = SimulationPlan(
            native_k=k,
            target_k=k,
            t=1.0,
            t_target=1.0,
            terms=(PlanTerm(0.5, LocalRotationPair()), PlanTerm(0.5, flip)),
        )
        expected = (k + J @ k @ J) / 2.0
        assert np.max(np.abs(effective_hamiltonian(plan) - expected)) < 1e-12

    def test_identity_plan(self, rng):
        k = random_coupling(rng)
        plan = SimulationPlan(k, k, 1.0, 1.0, (PlanTerm(1.0, LocalRotationPair()),))
        assert np.allclose(effective_hamiltonian(plan), k)

    def test_no_random_plan_beats_the_bound(self, rng):
        """Necessity: every convex rotation average obeys the simulability condition."""
        for _ in range(2000):
            k = random_coupling(rng)
            n_terms = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(n_terms))
            terms = tuple(
                PlanTerm(float(w), random_rotation_pair(rng)) for w in weights
            )
            plan = SimulationPlan(k, k, 1.0, 1.0, terms)
            keff = effective_hamiltonian(plan)
            _, s, _ = restricted_svd(k)
            _, se, _ = restricted_svd(keff)
            assert s.s1 + s.s2 >= se.s1 + se.s2 - 1e-10
            assert s.s1 - s.s2 >= se.s1 - se.s2 - 1e-10


class TestPlanToProtocol:
    def test_single_term_shape(self, rng):
        k = random_coupling(rng)
        plan = synthesize_plan(k, k, 0.8)
        protocol = plan_to_protocol(plan, slices=1)
        assert len(protocol.steps) == 1
        assert protocol.steps[0].duration == pytest.approx(0.8)
        net = protocol.final.compose(protocol.steps[0].rotation)
        assert np.allclose(net.matrix, np.eye(4), atol=1e-12)

    def test_total_time_conserved(self):
        plan = synthesize_plan(H0, HTMS, 1.0)
        for slices in (1, 7, 40):
            protocol = plan_to_protocol(plan, slices)
            assert protocol.total_time == pytest.approx(plan.t, abs=1e-12)
            assert all(step.duration >= 0 for step in protocol.steps)

    def test_trotter_limit_matches_target_flow(self):
        """The sliced schedule converges to the simulated squeezer flow."""
        t_target = 0.25
        plan = synthesize_plan(H0, HTMS, t_target)
        target = apply_symplectic(evolve(HTMS, t_target), vacuum_cm())
        err = {}
        for slices in (25, 50, 100, 200):
            traj = run_protocol(vacuum_cm(), plan_to_protocol(plan, slices))
            err[slices] = np.linalg.norm(traj.final - target)
        assert err[200] < 1e-3
        # First-order decay: halving the step roughly halves the error.
        assert 1.7 < err[25] / err[50] < 2.3
        assert 1.7 < err[50] / err[100] < 2.3
        assert 1.7 < err[100] / err[200] < 2.3

    def test_general_pair_trotter(self, rng):
        """Random native/target pairs converge to the target flow as well."""
        for _ in range(5):
            k, kp = random_coupling(rng), random_coupling(rng)
            _, s, _ = restricted_svd(k)
            if s.s1 - abs(s.s2) < 0.1:
                continue
            t_target = 0.2
            plan = synthesize_plan(k, kp, t_target)
            target = apply_symplectic(evolve(kp, t_target), vacuum_cm())
            traj = run_protocol(vacuum_cm(), plan_to_protocol(plan, 400))
            coarse = run_protocol(vacuum_cm(), plan_to_protocol(plan, 25))
            fine_err = np.linalg.norm(traj.final - target)
            coarse_err = np.linalg.norm(coarse.final - target)
            assert fine_err < coarse_err
            assert fine_err < 5e-2 * max(1.0, np.linalg.norm(target))

    def test_matches_per_window_reference(self, rng):
        """Shared slice steps equal the per-window loop, value for value and in JSON."""
        plans = [synthesize_plan(H0, HTMS, 0.3), synthesize_plan(HBS, np.zeros((2, 2)), 1.0)]
        for _ in range(20):
            k, kp = random_coupling(rng), random_coupling(rng)
            plans.append(synthesize_plan(k, kp, rng.uniform(0.1, 1.0)))
            plans.append(synthesize_plan(k, k, rng.uniform(0.1, 1.0)))
        plans.append(
            SimulationPlan(
                H0, H0, 1.0, 1.0, tuple(PlanTerm(0.25, random_rotation_pair(rng)) for _ in range(4))
            )
        )
        for plan in plans:
            for slices in range(1, 6):
                got, ref = plan_to_protocol(plan, slices), reference_plan_to_protocol(plan, slices)
                rows = [
                    [(s.rotation.phi1, s.rotation.phi2, s.duration) for s in p.steps]
                    for p in (got, ref)
                ]
                assert rows[0] == rows[1]
                assert got.final == ref.final
                assert got.to_json() == ref.to_json()

    def test_protocol_json_roundtrip(self):
        protocol = plan_to_protocol(synthesize_plan(H0, HBS, 0.5), 3)
        again = Protocol.from_json(protocol.to_json())
        assert np.allclose(again.native_k, protocol.native_k)
        assert len(again.steps) == len(protocol.steps)
        for a, b in zip(again.steps, protocol.steps):
            assert a.duration == b.duration
            assert np.allclose(a.rotation.matrix, b.rotation.matrix)
        assert np.allclose(again.final.matrix, protocol.final.matrix)


class TestFeasibilityProperties:
    def test_plans_exist_exactly_when_time_suffices(self, rng):
        """synthesize_plan succeeds iff the requested time reaches t_min."""
        for _ in range(300):
            k, kp = random_coupling(rng), random_coupling(rng)
            _, s, _ = restricted_svd(k)
            if s.s1 - abs(s.s2) < 1e-6:
                continue
            t_min = min_simulation_time(k, kp, 1.0)
            if t_min == 0.0:
                continue
            plan = synthesize_plan(k, kp, 1.0, t=t_min * 1.5)
            assert np.max(np.abs(effective_hamiltonian(plan) - kp)) < 1e-9 * max(
                1.0, float(np.max(np.abs(kp)))
            )
            with pytest.raises(InfeasibleTimeError):
                synthesize_plan(k, kp, 1.0, t=t_min * 0.9)


class TestZeroTarget:
    def test_any_coupling_simulates_nothing(self, rng):
        """The zero coupling is reachable from anything via the sign-flip mixture."""
        zero = np.zeros((2, 2))
        for k in (H0, HBS, HTMS, random_coupling(rng)):
            assert min_simulation_time(k, zero, 1.0) == 0.0
            plan = synthesize_plan(k, zero, 1.0)
            assert np.max(np.abs(effective_hamiltonian(plan))) < 1e-12
            assert sum(t.weight for t in plan.terms) == pytest.approx(1.0)
