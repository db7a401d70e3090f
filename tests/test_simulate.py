"""Tests for simulability conditions, minimal times, plans and protocols."""

import json

import numpy as np
import pytest

import twomode.gates
import twomode.simulate
from helpers import (
    random_coupling,
    random_rotation_pair,
    random_rows,
    reference_plan_schedule,
    reference_protocol_dict,
    reference_rotation,
)
from twomode.core import (
    H0,
    HBS,
    HTMS,
    J,
    LocalRotationPair,
    apply_symplectic,
    evolve,
    k_from_dict,
    kmatrix,
    restricted_svd,
    rotation,
    vacuum_cm,
)
from twomode.gates import BeamSplitterGate, GateSequence, RotationGate, TwoModeSqueezerGate, compile_to_native
from twomode.protocols import run_protocol
from twomode.simulate import (
    DegenerateHamiltonianError,
    InfeasibleTimeError,
    Protocol,
    SimulationPlan,
    can_simulate_efficiently,
    effective_hamiltonian,
    min_simulation_time,
    plan_to_protocol,
    synthesize_plan,
)


#: ``HTMS`` with ``|s2|`` short of ``s1`` by 1e-8 relative: near degeneracy, but not in it.
K_GAP = kmatrix(a=1.0, b=-0.99999999)

#: Plan rows ``(phi1, phi2, weight)`` whose angles carry ``-0.0``.
_NEGATIVE_ZERO_ROWS = np.array([(-0.0, 0.0, 0.5), (0.3, -0.0, 0.25), (-0.0, -0.0, 0.25)])


class TestSimulabilityCondition:
    def test_position_coupling_reaches_weak_targets(self):
        assert can_simulate_efficiently(H0, kmatrix(a=0.6, b=0.3))

    def test_position_coupling_cannot_reach_squeezer(self):
        assert not can_simulate_efficiently(H0, HTMS)
        assert not can_simulate_efficiently(H0, HBS)

    def test_self_simulation(self, rng):
        k = random_coupling(rng)
        assert can_simulate_efficiently(k, k)

    @pytest.mark.parametrize("c", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_equivalent_to_unit_minimal_time(self, rng, c):
        """Efficiency at unit cost is the same statement as t_min <= 1, and as a plan
        at ``t = 1`` existing, with both couplings at any common scale ``c``; also for
        targets rescaled to ``t_min = 1 -+ 1e-7``."""
        for _ in range(300):
            k = c * random_coupling(rng)
            kp = c * random_coupling(rng)
            _, s, _ = restricted_svd(k)
            if s.s1 - abs(s.s2) < 1e-6 * c:
                continue
            t_min = min_simulation_time(k, kp, 1.0)
            for target in (kp, kp * ((1.0 - 1e-7) / t_min), kp * ((1.0 + 1e-7) / t_min)):
                efficient = can_simulate_efficiently(k, target)
                assert efficient == (min_simulation_time(k, target, 1.0) <= 1.0 + 1e-12)
                try:
                    synthesize_plan(k, target, 1.0, t=1.0)
                except InfeasibleTimeError:
                    assert not efficient
                else:
                    assert efficient


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
        assert min_simulation_time(k, kp, 3.5) == pytest.approx(3.5 * base, rel=1e-12, abs=0.0)
        assert min_simulation_time(2.0 * k, kp, 1.0) == pytest.approx(base / 2.0, rel=1e-12, abs=0.0)

    def test_degenerate_coupling_rejects_generic_targets(self):
        with pytest.raises(DegenerateHamiltonianError):
            min_simulation_time(HBS, H0, 1.0)
        with pytest.raises(DegenerateHamiltonianError):
            min_simulation_time(HTMS, H0, 1.0)

    def test_degenerate_coupling_accepts_scaled_equivalents(self):
        """A squeezer can still simulate rotated, rescaled squeezers."""
        assert min_simulation_time(HTMS, 0.5 * HTMS, 1.0) == pytest.approx(0.5)
        pair = LocalRotationPair(0.3, 1.1)
        rotated = rotation(pair.phi1).T @ HTMS @ rotation(pair.phi2)
        assert min_simulation_time(HTMS, rotated, 2.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("k, k_target, t_target", [(H0, 1e300 * HTMS, 1e10), (1e-320 * H0, H0, 1.0)])
    def test_overflowing_minimal_time_is_refused(self, k, k_target, t_target):
        """A minimal time past the float range is refused, not returned as inf or as a plan with t = inf."""
        for query in (min_simulation_time, synthesize_plan):
            with pytest.raises(OverflowError, match="minimal simulation time"):
                query(k, k_target, t_target)
        assert can_simulate_efficiently(k, k_target) is False

    @pytest.mark.parametrize("k, k_target", [(1e-320 * H0, H0), (H0, 1e300 * HTMS), (H0, HTMS), (HTMS, 0.5 * HTMS)])
    def test_zero_length_target_needs_no_time(self, k, k_target):
        """``t_target = 0`` needs no time and plans ``+K`` against ``-K``, also where ``max(a, b)`` overflows."""
        for t_target in (0.0, -0.0):
            t_min = min_simulation_time(k, k_target, t_target)
            assert t_min == 0.0 and np.signbit(t_min) == np.signbit(t_target)
            plan = synthesize_plan(k, k_target, t_target)
            assert (plan.t, plan.kappa) == (1.0, 0.0)
            assert plan.terms[:, 2].tolist() == [0.5, 0.5] and np.isfinite(plan.terms).all()


class TestSynthesizePlan:
    def test_squeezer_plan_weights(self):
        """The optimal squeezer plan is an even mixture of identity and flip."""
        plan = synthesize_plan(H0, HTMS, 1.0)
        assert plan.t == pytest.approx(2.0)
        assert plan.kappa == pytest.approx(0.5)
        weights = sorted(plan.terms[:, 2].tolist())
        assert weights == pytest.approx([0.5, 0.5])
        assert np.max(np.abs(effective_hamiltonian(plan) - HTMS)) < 1e-12

    def test_beam_splitter_plan(self):
        plan = synthesize_plan(H0, HBS, 1.0)
        assert sorted(plan.terms[:, 2].tolist()) == pytest.approx([0.5, 0.5])
        assert np.max(np.abs(effective_hamiltonian(plan) - HBS)) < 1e-12

    def test_self_simulation_single_trivial_term(self, rng):
        k = random_coupling(rng)
        plan = synthesize_plan(k, k, 0.7)
        assert len(plan.terms) == 1
        assert plan.terms[0, 2] == pytest.approx(1.0)
        assert np.allclose(LocalRotationPair(*plan.terms[0, :2].tolist()).matrix, np.eye(4), atol=1e-12)

    def test_weights_form_distribution(self, rng):
        for _ in range(200):
            k, kp = random_coupling(rng), random_coupling(rng)
            _, s, _ = restricted_svd(k)
            if s.s1 - abs(s.s2) < 1e-6:
                continue
            plan = synthesize_plan(k, kp, rng.uniform(0.1, 2.0))
            assert len(plan.terms) <= 4
            assert sum(plan.terms[:, 2].tolist()) == pytest.approx(1.0, abs=1e-12)
            assert all(plan.terms[:, 2] > 0)

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
            assert min(plan.terms[:, 2]) > 1e-12
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
        """``terms`` is an ``(n, 3)`` float array of rows ``(phi1, phi2, weight)``; the JSON lists them
        in order (squeezer, generic, degenerate and zero-target plans)."""
        generic = kmatrix(a=0.3, b=-1.2, c=0.7, d=2.0)
        for args in ((H0, HTMS, 1.0), (generic, HBS, 0.6), (HBS, 2.0 * HBS, 0.8), (H0, HBS, 0.0)):
            plan = synthesize_plan(*args)
            assert plan.terms.dtype == float and plan.terms.shape == (len(plan.terms), 3)
            data = json.loads(json.dumps(plan.to_dict()))
            rows = np.array([(d["phi1"], d["phi2"], d["weight"]) for d in data["terms"]])
            assert rows.tobytes() == plan.terms.tobytes()
            assert np.array_equal(k_from_dict(data["native_K"]), plan.native_k)
            assert np.array_equal(k_from_dict(data["target_K"]), plan.target_k)
            assert (data["t"], data["t_target"]) == (plan.t, plan.t_target)
            assert len(data["terms"]) == len(plan.terms)
            for a, (phi1, phi2, weight) in zip(data["terms"], plan.terms.tolist()):
                assert (a["weight"], a["phi1"], a["phi2"]) == (weight, phi1, phi2)


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
            terms=np.array([(0.0, 0.0, 0.5), (flip.phi1, flip.phi2, 0.5)]),
        )
        expected = (k + J @ k @ J) / 2.0
        assert np.max(np.abs(effective_hamiltonian(plan) - expected)) < 1e-12

    def test_refuses_a_plan_with_zero_target_time(self):
        """Such a plan realises the zero coupling, so no effective coupling divides out of it."""
        for k in (H0, HBS):
            with pytest.raises(ValueError, match="t_target = 0"):
                effective_hamiltonian(synthesize_plan(k, HBS, 0.0))

    def test_matches_per_term_loop(self, rng):
        """The stacked sum has the bits of ``sum_i w_i R1_i^T K R2_i`` accumulated term by term from zero."""
        pairs = [(H0, HTMS), (H0, H0), (HBS, 0.5 * HBS), (HTMS, -HTMS)]
        pairs += [(random_coupling(rng), random_coupling(rng)) for _ in range(50)]
        for k, kp in pairs:
            for t in (None, 2.0 * min_simulation_time(k, kp, 0.7)):
                plan = synthesize_plan(k, kp, 0.7, t)
                acc = np.zeros((2, 2))
                for phi1, phi2, weight in plan.terms.tolist():
                    acc += weight * (reference_rotation(phi1).T @ k @ reference_rotation(phi2))
                assert effective_hamiltonian(plan).tobytes() == (acc / plan.kappa).tobytes()

    def test_identity_plan(self, rng):
        k = random_coupling(rng)
        plan = SimulationPlan(k, k, 1.0, 1.0, np.array([(0.0, 0.0, 1.0)]))
        assert np.allclose(effective_hamiltonian(plan), k)

    def test_no_random_plan_beats_the_bound(self, rng):
        """Necessity: every convex rotation average obeys the simulability condition."""
        for _ in range(2000):
            k = random_coupling(rng)
            n_terms = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(n_terms))
            plan = SimulationPlan(k, k, 1.0, 1.0, np.array(random_rows(rng, weights)))
            keff = effective_hamiltonian(plan)
            _, s, _ = restricted_svd(k)
            _, se, _ = restricted_svd(keff)
            assert s.s1 + s.s2 >= se.s1 + se.s2 - 1e-10
            assert s.s1 - s.s2 >= se.s1 - se.s2 - 1e-10


class TestPlanToProtocol:
    def test_slices_past_numpy_sizes(self):
        """A slice count whose step index NumPy cannot address is refused before anything is allocated."""
        message = "10000000000000000000000 slices of 2 steps are too many to allocate"
        with pytest.raises(MemoryError, match=message):
            plan_to_protocol(synthesize_plan(H0, HTMS, 1.0), 10**22)
        with pytest.raises(MemoryError, match=message):
            compile_to_native(GateSequence([BeamSplitterGate(0.3)]), H0, 10**22)

    def test_single_term_shape(self, rng):
        k = random_coupling(rng)
        plan = synthesize_plan(k, k, 0.8)
        protocol = plan_to_protocol(plan, slices=1)
        assert len(protocol.steps) == 1
        phi1, phi2, duration = protocol.steps[0].tolist()
        assert duration == pytest.approx(0.8)
        net = protocol.final.compose(LocalRotationPair(phi1, phi2))
        assert np.allclose(net.matrix, np.eye(4), atol=1e-12)

    def test_total_time_conserved(self):
        plan = synthesize_plan(H0, HTMS, 1.0)
        for slices in (1, 7, 40):
            protocol = plan_to_protocol(plan, slices)
            assert protocol.total_time == pytest.approx(plan.t, abs=1e-12)
            assert (protocol.steps[:, 2] >= 0).all()

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
                H0, H0, 1.0, 1.0, np.array(random_rows(rng, [0.25] * 4))
            )
        )
        plans.append(SimulationPlan(H0, H0, 1.0, 1.0, _NEGATIVE_ZERO_ROWS))
        for plan in plans:
            for slices in range(1, 6):
                got, (rows, final) = plan_to_protocol(plan, slices), reference_plan_schedule(plan, slices)
                assert [tuple(row) for row in got.steps.tolist()] == rows
                assert got.final == final
                assert json.dumps(got.to_dict()) == json.dumps(reference_protocol_dict(plan.native_k, rows, final))

    @pytest.mark.parametrize("slices", [1, 2, 5])
    def test_negative_zero_angles_keep_their_bytes(self, slices):
        """A plan with ``-0.0`` angles, Trotterised after a ``-0.0`` pending pair, gives the
        per-window loop's rows and final pair bit for bit."""
        plan, pending = SimulationPlan(H0, H0, 1.0, 1.0, _NEGATIVE_ZERO_ROWS), LocalRotationPair(-0.0, -0.0)
        rows, index, final = twomode.simulate._trotterise(plan, slices, pending)
        expected, expected_final = reference_plan_schedule(plan, slices)
        entry = LocalRotationPair(*expected[0][:2]).compose(pending)
        expected[0] = (entry.phi1, entry.phi2, expected[0][2])
        assert np.array(rows)[index].tobytes() == np.array(expected).tobytes()
        assert np.array([final.phi1, final.phi2]).tobytes() == np.array(
            [expected_final.phi1, expected_final.phi2]).tobytes()

    def test_protocol_json_roundtrip(self):
        protocol = plan_to_protocol(synthesize_plan(H0, HBS, 0.5), 3)
        again = Protocol.from_dict(json.loads(json.dumps(protocol.to_dict())))
        assert np.allclose(again.native_k, protocol.native_k)
        assert len(again.steps) == len(protocol.steps)
        for (a1, a2, a), (b1, b2, b) in zip(again.steps.tolist(), protocol.steps.tolist()):
            assert a == b
            assert np.allclose(LocalRotationPair(a1, a2).matrix, LocalRotationPair(b1, b2).matrix)
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


class TestOnePlanRule:
    def test_every_coupling_plans_exactly_when_time_suffices(self, rng):
        """Degenerate couplings (s1 = |s2|) and zero targets take the generic rule too:
        a plan exists iff t >= t_min, the default t is the minimal one, and the plan
        realises the target."""
        pair = random_rotation_pair(rng)
        natives = [HBS, HTMS, 2.0 * HBS, 0.6 * rotation(pair.phi1).T @ HTMS @ rotation(pair.phi2), np.zeros((2, 2))]
        natives += [random_coupling(rng) for _ in range(4)] + [K_GAP]
        for k in natives:
            targets = [np.zeros((2, 2))]
            for _ in range(12):
                pair = random_rotation_pair(rng)
                targets.append(rng.uniform(0.0, 3.0) * rotation(pair.phi1).T @ k @ rotation(pair.phi2))
            for kp, t_target in ((kp, t_target) for kp in targets for t_target in (0.0, 0.7)):
                t_min = min_simulation_time(k, kp, t_target)
                base = t_min or 1.0  # t = 0 is refused by the time rule
                for t in (None, base, 1.5 * base, 0.9 * base):
                    if t is not None and t < t_min:
                        with pytest.raises(InfeasibleTimeError, match=f"minimal simulation time {t_min!r}$"):
                            synthesize_plan(k, kp, t_target, t=t)
                        continue
                    plan = synthesize_plan(k, kp, t_target, t=t)
                    assert plan.t == (t if t is not None else t_min or t_target or 1.0)
                    assert sum(plan.terms[:, 2].tolist()) == pytest.approx(1.0, abs=1e-12)
                    if t_target > 0.0:
                        scale = max(1.0, float(np.max(np.abs(kp))))
                        assert np.max(np.abs(effective_hamiltonian(plan) - kp)) < 1e-9 * scale

    def test_one_degeneracy_test_per_plan(self, monkeypatch):
        """A plan decides ``s1 = |s2|`` for ``K`` once; a compile once for ``K`` and once per coupling gate."""
        calls = []
        degenerate = twomode.simulate._degenerate
        monkeypatch.setattr(twomode.simulate, "_degenerate", lambda s: calls.append(s) or degenerate(s))
        monkeypatch.setattr(twomode.gates, "_degenerate", twomode.simulate._degenerate)
        for k, kp in ((H0, HBS), (HBS, 2.0 * HBS)):
            calls.clear()
            synthesize_plan(k, kp, 1.0)
            assert calls.count(restricted_svd(k).svals) == 1
        calls.clear()
        seq = GateSequence((BeamSplitterGate(0.3), RotationGate(LocalRotationPair(0.1, 0.2)),
                            TwoModeSqueezerGate(0.4), BeamSplitterGate(-0.5, barred=True)))
        compile_to_native(seq, H0, slices=3)
        assert calls.count(restricted_svd(H0).svals) == 1 + 3


class TestZeroTarget:
    def test_any_coupling_simulates_nothing(self, rng):
        """The zero coupling is reachable from anything via the sign-flip mixture."""
        zero = np.zeros((2, 2))
        for k in (H0, HBS, HTMS, random_coupling(rng)):
            assert min_simulation_time(k, zero, 1.0) == 0.0
            plan = synthesize_plan(k, zero, 1.0)
            assert np.max(np.abs(effective_hamiltonian(plan))) < 1e-12
            assert sum(plan.terms[:, 2].tolist()) == pytest.approx(1.0)
