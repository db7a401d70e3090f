"""Tests for protocol execution, finite-time strategies, bounds and measurements."""

import re
import sys

import numpy as np
import pytest

from helpers import random_coupling, random_passive, random_pure_cm, random_rotation_pair, random_rows
from twomode.core import (
    H0,
    HBS,
    apply_symplectic,
    evolve,
    pure_standard_form,
    restricted_svd,
    squeezed_product_cm,
    two_mode_squeezed_cm,
    vacuum_cm,
)
from twomode.measures import negativity, squeezing
from twomode.protocols import (
    CSV_HEADER,
    NotPassiveError,
    SingularBlockError,
    Trajectory,
    extend_with_ancillas,
    finite_time_bounds,
    flip_effective_coupling,
    flip_strategy,
    gaussian_measurement,
    greedy_rate_strategy,
    run_protocol,
    uniform_grid,
)
from twomode.simulate import Protocol, plan_to_protocol, synthesize_plan


class TestRunProtocol:
    def test_empty_protocol(self):
        traj = run_protocol(vacuum_cm(), Protocol(H0, [], []))
        assert len(traj) == 1
        assert np.allclose(traj.final, vacuum_cm())

    def test_nodes_and_times(self, rng):
        traj = run_protocol(vacuum_cm(), Protocol(H0, random_rows(rng, [0.1] * 5), np.arange(5)))
        assert len(traj) == 6
        assert np.allclose(traj.times, np.arange(6) * 0.1)

    def test_uncontrolled_run_is_suboptimal(self):
        """Bare interaction entangles less than the flip schedule."""
        bare = run_protocol(vacuum_cm(), Protocol(H0, [(0.0, 0.0, 1.0)], [0]))
        flip = run_protocol(vacuum_cm(), flip_strategy(H0, 1.0, 200))
        assert negativity(flip.final) > negativity(bare.final)

    def test_swap_protocol_exchanges_modes(self):
        """A simulated quarter-period beam splitter moves mode 1 into mode 2."""
        plan = synthesize_plan(H0, HBS, np.pi / 2.0)
        assert plan.t == pytest.approx(np.pi)
        protocol = plan_to_protocol(plan, 400)
        initial = squeezed_product_cm(0.8, 0.0)
        traj = run_protocol(initial, protocol)
        final = traj.final
        # Squeezing content swapped between the reduced blocks (up to rotations).
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(final[2:, 2:])),
            [np.exp(-0.8), np.exp(0.8)],
            atol=5e-3,
        )
        assert np.allclose(np.sort(np.linalg.eigvalsh(final[:2, :2])), [1.0, 1.0], atol=5e-3)

    def test_purity_preserved_along_trajectories(self, rng):
        rows = []
        for _ in range(200):  # a pair, then its duration, per step
            pair = random_rotation_pair(rng)
            rows.append((pair.phi1, pair.phi2, float(rng.uniform(0, 0.2))))
        traj = run_protocol(random_pure_cm(rng), Protocol(random_coupling(rng), rows, np.arange(200)))
        for cm in traj.cms[:: 20]:
            assert np.linalg.det(cm) == pytest.approx(1.0, abs=1e-8)

    def test_csv_export(self, tmp_path):
        traj = run_protocol(vacuum_cm(), flip_strategy(H0, 0.3, 10))
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(traj) + 1


    def test_csv_export_is_atomic(self, tmp_path, monkeypatch):
        """A failed write leaves the previous file and no temporary behind."""
        import twomode.protocols

        path = tmp_path / "traj.csv"
        path.write_text("previous\n")
        traj = run_protocol(vacuum_cm(), flip_strategy(H0, 0.3, 10))

        def fail(*args):
            raise OSError("simulated failure")

        monkeypatch.setattr(twomode.protocols.os, "replace", fail)
        with pytest.raises(OSError):
            traj.to_csv(path)
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]


class TestFlipStrategy:
    def test_converges_to_two_mode_squeezed_values(self):
        traj = run_protocol(vacuum_cm(), flip_strategy(H0, 1.0, 4000))
        assert negativity(traj.final) == pytest.approx(np.e, rel=5e-4)
        assert squeezing(traj.final).squeezing == pytest.approx(np.e, rel=5e-4)

    def test_first_order_convergence(self):
        """Frobenius error to the simulated squeezer flow halves with doubling."""
        target = apply_symplectic(evolve(flip_effective_coupling(H0), 1.0), vacuum_cm())
        errs = []
        for steps in (100, 200, 400, 800):
            traj = run_protocol(vacuum_cm(), flip_strategy(H0, 1.0, steps))
            errs.append(np.linalg.norm(traj.final - target))
        for a, b in zip(errs, errs[1:]):
            assert 1.8 < a / b < 2.2

    def test_few_steps_already_improve(self):
        bare = apply_symplectic(evolve(H0, 1.0), vacuum_cm())
        for steps in (2, 3):
            traj = run_protocol(vacuum_cm(), flip_strategy(H0, 1.0, steps))
            assert negativity(traj.final) > negativity(bare)

    def test_beam_splitter_flips_to_nothing(self):
        """The flip-averaged beam splitter vanishes: the state stays unentangled."""
        assert np.allclose(flip_effective_coupling(HBS), np.zeros((2, 2)), atol=1e-15)
        traj = run_protocol(vacuum_cm(), flip_strategy(HBS, 1.0, 500))
        assert negativity(traj.final) == pytest.approx(1.0, abs=1e-6)

    def test_general_coupling_capability(self, rng):
        """Final squeezing approaches exp((s1 - s2) t) for a random coupling."""
        k = random_coupling(rng)
        _, svals, _ = restricted_svd(k)
        t = 0.8
        traj = run_protocol(vacuum_cm(), flip_strategy(k, t, 6000))
        assert squeezing(traj.final).squeezing == pytest.approx(
            np.exp((svals.s1 - svals.s2) * t), rel=1e-3
        )


class TestNodeCounts:
    """A count past the longest array NumPy can address is refused before anything is allocated."""

    def test_flip_steps_past_numpy_sizes(self):
        steps = sys.maxsize // 8 + 1
        with pytest.raises(MemoryError, match=f"{steps} flip steps are too many to allocate"):
            flip_strategy(H0, 1.0, steps)

    def test_grid_past_numpy_sizes(self):
        with pytest.raises(MemoryError, match=r"a grid of t / dt = 1\.2e\+18 steps is too large"):
            uniform_grid(1.2, 1e-18)


class TestTrajectoryLengths:
    def test_times_and_cms_of_different_lengths_are_refused(self, tmp_path):
        traj = Trajectory(times=[0.0, 1.0], cms=np.stack([vacuum_cm()] * 3), native_k=H0)
        for read in (traj.columns, traj.reports, traj.csv_text, lambda: traj.to_csv(tmp_path / "x.csv")):
            with pytest.raises(ValueError, match="trajectory has 2 times but 3 CMs"):
                read()
        assert list(tmp_path.iterdir()) == []


class TestGreedyStrategy:
    def test_vacuum_rate_stays_unity(self):
        traj = greedy_rate_strategy(vacuum_cm(), H0, 0.03, 3e-5)
        assert np.max(np.abs(np.asarray(traj.columns()["rate"]) - 1.0)) < 1e-6

    def test_vacuum_entangles_at_unit_rate(self):
        traj = greedy_rate_strategy(vacuum_cm(), H0, 1.0, 1e-3)
        assert pure_standard_form(traj.final).r == pytest.approx(1.0, rel=1e-3)

    def test_squeezed_input_boosts_then_decays(self):
        """Squeezed light: initial rate exp(1.25), decreasing, more output than bare."""
        gin = squeezed_product_cm(0.0, 2.5)
        traj = greedy_rate_strategy(gin, H0, 1.5, 1e-3)
        rates = np.asarray(traj.columns()["rate"])
        assert rates[0] == pytest.approx(np.exp(1.25), rel=1e-9)
        assert rates[-1] < rates[0]
        assert np.all(rates >= 1.0 - 1e-9)
        bare = apply_symplectic(evolve(H0, 1.5), gin)
        assert pure_standard_form(traj.final).r > pure_standard_form(bare).r

    def test_doubly_squeezed_counterexample(self):
        """Rate-greedy stays pinned at rate 1 and loses to the squeezer simulation."""
        gin2 = apply_symplectic(
            np.diag([np.e, 1.0 / np.e, np.e, 1.0 / np.e]), two_mode_squeezed_cm(0.5e-3)
        )
        traj = greedy_rate_strategy(gin2, H0, 1.0, 1e-3)
        assert traj.columns()["rate"][0] == pytest.approx(1.0, abs=1e-9)
        assert np.max(traj.columns()["rate"]) < 1.01
        tms = apply_symplectic(evolve(flip_effective_coupling(H0), 1.0), gin2)
        assert pure_standard_form(tms).r > pure_standard_form(traj.final).r

    def test_reports_include_rate_column(self):
        traj = greedy_rate_strategy(vacuum_cm(), H0, 0.01, 1e-3)
        rows = traj.reports()
        assert {"t", "E0", "negativity", "S", "Q", "rate"} == set(rows[0])
        assert rows[0]["rate"] == pytest.approx(1.0)


class TestBounds:
    def test_vacuum_bounds(self):
        s_bound, n_bound = finite_time_bounds(H0, 1.0)
        assert s_bound == pytest.approx(np.e)
        assert n_bound == pytest.approx(np.e)

    def test_zero_time(self):
        assert finite_time_bounds(H0, 0.0) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_squeezed_input_bounds(self):
        s_bound, n_bound = finite_time_bounds(H0, 1.0, 2.5, 2.5)
        assert n_bound == pytest.approx(np.exp(3.5))
        assert s_bound == pytest.approx(np.exp(3.5))

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            finite_time_bounds(H0, 1.0, 0.5, 1.0)

    def test_a_batch_of_times_is_the_scalar_bounds(self):
        times = [0.0, 0.25, 1.0, 3.5]
        s_bound, n_bound = finite_time_bounds(H0, times, 2.0, 1.0)
        assert list(zip(s_bound, n_bound)) == [finite_time_bounds(H0, t, 2.0, 1.0) for t in times]
        assert finite_time_bounds(H0, np.array(times), 2.0, 1.0) == (s_bound, n_bound)
        with pytest.raises(ValueError, match="bounds require t >= 0, got -1.0"):
            finite_time_bounds(H0, [0.5, -1.0])

    @pytest.mark.parametrize("t, r1", [(1000.0, 0.0), (1e308, 0.0), (0.0, 800.0), ([1.0, 710.0], 0.0)])
    def test_past_the_float_range_is_refused(self, t, r1):
        last = t[-1] if isinstance(t, list) else t
        message = f"squeezing bound exp((s1 - s2) t + r1) overflows at t = {last}, r1 = {r1}"
        with pytest.raises(OverflowError, match=re.escape(message)):
            finite_time_bounds(H0, t, r1)

    def test_at_the_float_range_edge(self):
        assert finite_time_bounds(H0, 709.0) == (8.218407461554972e307, 8.218407461554972e307)

    def test_random_protocols_respect_bounds(self, rng):
        """No rotation schedule beats the negativity/squeezing bounds."""
        for _ in range(20):
            k = random_coupling(rng)
            r1, r2 = sorted(rng.uniform(0.0, 1.5, size=2))[::-1]
            g = squeezed_product_cm(r1, r2)
            t_total = rng.uniform(0.2, 1.0)
            durations = rng.dirichlet(np.ones(8)) * t_total
            traj = run_protocol(g, Protocol(k, random_rows(rng, durations), np.arange(8)))
            s_bound, n_bound = finite_time_bounds(k, t_total, r1, r2)
            assert squeezing(traj.final).squeezing <= s_bound * (1 + 1e-9)
            assert negativity(traj.final) <= n_bound * (1 + 1e-9)


class TestFlowSingularValues:
    def test_first_order_form(self, rng):
        """Short-time singular values are sqrt(1 +- (s1 - s2) t) + O(t^2)."""
        for _ in range(50):
            k = random_coupling(rng)
            _, svals, _ = restricted_svd(k)
            gap = svals.s1 - svals.s2
            errs = []
            for t in (1e-3, 5e-4):
                sv = np.linalg.svd(evolve(k, t), compute_uv=False)
                predicted = np.sqrt(np.maximum([1 + gap * t, 1 - gap * t], 0.0))
                errs.append(max(abs(sv[0] - predicted[0]), abs(sv[-1] - predicted[1])))
            assert errs[0] < 20.0 * (1e-3) ** 2 * max(1.0, np.max(np.abs(k)) ** 2)
            # Quadratic decay: halving t cuts the defect by about four.
            if errs[0] > 1e-12:
                assert errs[1] < 0.4 * errs[0]

    def test_min_singular_value_submultiplicative(self, rng):
        from helpers import random_symplectic

        for _ in range(200):
            a = random_symplectic(rng)
            b = random_symplectic(rng)
            sa = np.linalg.svd(a, compute_uv=False)[-1]
            sb = np.linalg.svd(b, compute_uv=False)[-1]
            sab = np.linalg.svd(a @ b, compute_uv=False)[-1]
            assert sab >= sa * sb - 1e-12


class TestAncillasAndMeasurement:
    def test_no_ancillas_identity(self, rng):
        g = random_pure_cm(rng)
        ext = extend_with_ancillas(g, 0)
        assert np.allclose(ext, g)
        assert np.allclose(gaussian_measurement(ext), g)

    def test_vacuum_ancilla_spectrum(self, rng):
        """Identity mixing: the spectrum gains the ancilla 1s and nothing else."""
        g = random_pure_cm(rng)
        ext = extend_with_ancillas(g, 1)
        lam = np.linalg.eigvalsh(ext)
        expected = np.sort(np.concatenate([np.linalg.eigvalsh(g), [1.0, 1.0]]))
        assert np.allclose(lam, expected, atol=1e-12)

    def test_passive_mixing_preserves_squeezing(self, rng):
        for _ in range(50):
            g = random_pure_cm(rng)
            o = random_passive(3, rng)
            ext = extend_with_ancillas(g, 1, o)
            s_in = min(squeezing(g).lambda_min, 1.0)
            assert np.linalg.eigvalsh(ext)[0] == pytest.approx(s_in, rel=1e-10)

    def test_not_passive_rejected(self, rng):
        g = random_pure_cm(rng)
        with pytest.raises(NotPassiveError, match="not orthogonal"):
            extend_with_ancillas(g, 1, 1.001 * np.eye(6))
        squeezer = np.diag([2.0, 0.5, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(NotPassiveError, match="not orthogonal"):
            extend_with_ancillas(g, 1, squeezer)
        reflection = np.diag([1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(NotPassiveError, match="not symplectic"):
            extend_with_ancillas(g, 1, reflection)

    def test_wrong_shape_is_a_plain_value_error(self, rng):
        with pytest.raises(ValueError, match="must be 6x6") as info:
            extend_with_ancillas(random_pure_cm(rng), 1, np.eye(4))
        assert type(info.value) is ValueError

    def test_not_passive_error_is_the_core_value_error(self):
        import twomode.core

        assert NotPassiveError is twomode.core.NotPassiveError
        assert issubclass(NotPassiveError, ValueError)

    def test_product_block_measurement(self, rng):
        """No correlations: measuring the ancillas leaves the system untouched."""
        g = random_pure_cm(rng)
        ext = extend_with_ancillas(g, 2)
        assert np.allclose(gaussian_measurement(ext), g)

    def test_vacuum_through_identity(self):
        ext = extend_with_ancillas(vacuum_cm(), 1)
        assert np.allclose(gaussian_measurement(ext), vacuum_cm())

    def test_singular_block_rejected(self, rng):
        g = random_pure_cm(rng)
        ext = extend_with_ancillas(g, 1)
        broken = ext.copy()
        broken[4:, 4:] = np.diag([1e-15, 1e15])
        with pytest.raises(SingularBlockError):
            gaussian_measurement(broken)

    @pytest.mark.parametrize(
        "ext",
        [np.eye(5), np.ones((4, 6)), np.eye(2), np.ones((2, 6, 6)), np.diag([1.0, 1.0, 1.0, 1.0, 1.0, np.nan])],
        ids=["5x5", "4x6", "2x2", "3-d", "nan"],
    )
    def test_refuses_what_is_not_an_extended_cm(self, ext):
        with pytest.raises(ValueError, match="side 4 \\+ 2n"):
            gaussian_measurement(ext)

    def test_ancilla_count_is_read_from_the_shape(self):
        """One ancilla mixed with mode 2: the measured mode conditions the system."""
        o = np.eye(6)
        o[2:, 2:] = evolve(HBS, 0.7)
        ext = extend_with_ancillas(two_mode_squeezed_cm(0.4), 1, o)
        system = gaussian_measurement(ext)
        assert system[0, 0] == pytest.approx(1.050308, abs=1e-6)
        assert system[0, 0] < ext[0, 0]

    def test_measurement_never_gains_squeezing(self, rng):
        for _ in range(200):
            g = random_pure_cm(rng)
            m = int(rng.integers(1, 3))
            o = random_passive(2 + m, rng)
            ext = extend_with_ancillas(g, m, o)
            s_ext = 1.0 / np.linalg.eigvalsh(ext)[0]
            out = gaussian_measurement(ext)
            s_out = 1.0 / np.linalg.eigvalsh(out)[0]
            assert s_out <= s_ext + 1e-10


class TestInvariantEdges:
    def test_negative_step_duration_rejected(self):
        with pytest.raises(ValueError):
            Protocol(H0, [(0.0, 0.0, -0.1)], [0])

    def test_thermal_state_ancilla_floor(self):
        """A state with lambda_min > 1 gains the ancilla floor eigenvalue 1."""
        thermal = 2.0 * np.eye(4)
        ext = extend_with_ancillas(thermal, 1)
        assert np.linalg.eigvalsh(ext)[0] == pytest.approx(1.0)
        squeezed = squeezed_product_cm(0.5, 0.0)
        ext = extend_with_ancillas(squeezed, 1)
        assert np.linalg.eigvalsh(ext)[0] == pytest.approx(np.exp(-0.5))


#: ``_neutral_flip_base``'s pair on the six plateau states of ``test_plateau_states_stay_pinned``, in
#: draw order; the rate kernel's optimal pair on each of them is at least 0.14 rad away in an angle.
_PLATEAU_LOCK_PAIRS = (
    (0.7777775505574521, 1.8488300425626445),
    (1.4826764731778845, 2.9285286601839746),
    (0.7661351922134935, 2.2678860493858997),
    (0.10517397162666398, -2.6473992614802486),
    (1.0611465584593696, 1.6361829618033745),
    (0.4434555434548937, 1.3032200437308301),
)


class TestGreedyLockRobustness:
    def test_plateau_states_stay_pinned(self, rng):
        """Rotated/rescaled zero-l inputs keep the plateau rate under the walk, and the
        lock-entry pair is the neutral base's own, not the kernel's degenerate optimum."""
        from twomode.core import _flow_l, _rsvd_angles
        from twomode.protocols import _neutral_flip_base
        from twomode.rates import squeezing_capability

        pinned = iter(_PLATEAU_LOCK_PAIRS)
        for k in (H0, np.array([[0.8, 0.3], [-0.2, 0.5]])):
            cap = squeezing_capability(k)
            theta_l, _, _, psi_l = (float(x) for x in _rsvd_angles(_flow_l(k)))
            plan_rate = None
            for trial in range(3):
                r = rng.uniform(0.5, 2.0)
                seed = rng.uniform(1e-4, 1e-3)
                frame = np.diag([np.exp(r / 2), np.exp(-r / 2), np.exp(r / 2), np.exp(-r / 2)])
                g0 = apply_symplectic(
                    random_rotation_pair(rng).matrix @ frame, two_mode_squeezed_cm(seed / 2)
                )
                pair = _neutral_flip_base(g0, theta_l, psi_l)
                assert (pair.phi1, pair.phi2) == pytest.approx(next(pinned), rel=0.0, abs=1e-12)
                traj = greedy_rate_strategy(g0, k, 0.5, 1e-3)
                rates = np.asarray(traj.columns()["rate"])
                # Plateau: the optimal rate never drifts above capability + noise.
                assert rates[0] == pytest.approx(cap, rel=1e-6)
                assert np.max(rates) < cap * (1.0 + 5e-3) + 1e-9
                # And the walk realises the plateau growth.
                gain = pure_standard_form(traj.final).r - pure_standard_form(g0).r
                assert gain == pytest.approx(cap * 0.5, rel=2e-2)

    def test_unlock_for_genuine_local_squeezing(self):
        """States with real fuel unlock and exceed the plateau rate."""
        gin = squeezed_product_cm(0.0, 2.5)
        traj = greedy_rate_strategy(gin, H0, 0.3, 1e-3)
        assert traj.columns()["rate"][0] == pytest.approx(np.exp(1.25), rel=1e-9)
        assert np.all(np.asarray(traj.columns()["rate"]) > 1.5)

    def test_dt_refinement_consistency(self):
        """Halving dt changes the endpoint only at the discretisation scale."""
        gin = squeezed_product_cm(0.0, 1.0)
        coarse = greedy_rate_strategy(gin, H0, 0.5, 1e-3)
        fine = greedy_rate_strategy(gin, H0, 0.5, 5e-4)
        r_coarse = pure_standard_form(coarse.final).r
        r_fine = pure_standard_form(fine.final).r
        assert abs(r_coarse - r_fine) < 5e-3
