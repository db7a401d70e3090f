"""Refusals at the input boundaries: unphysical CMs, out-of-range gates, malformed inputs."""

import contextlib
import io
import json

import numpy as np
import pytest

from helpers import random_passive, random_pure_cm
from twomode.cli import main
from twomode.core import (
    H0,
    HBS,
    HTMS,
    J2,
    LocalRotationPair,
    evolve,
    is_symplectic,
    matrix_from_list,
    matrix_to_list,
    valid_cm_stack,
    vacuum_cm,
)
from twomode.gates import (
    BeamSplitterGate,
    GateSequence,
    TwoModeSqueezerGate,
    compile_to_native,
    decompose_gate,
    euler_decompose,
)
from twomode.protocols import extend_with_ancillas, finite_time_bounds, greedy_rate_walk
from twomode.simulate import SimulationPlan, plan_to_protocol, synthesize_plan

#: Positive definite CMs with ``det = 1`` that violate ``gamma + i Omega >= 0``.
UNPHYSICAL = [np.diag([2.0, 3.0, 1 / 2, 1 / 3]), np.diag([2.0, 2.0, 1 / 2, 1 / 2])]

#: Physical mixed states, ``diag(1, 1, 2, 2)`` on the boundary ``Delta = 1 + det``.
PHYSICAL_MIXED = [np.diag([2.0, 2.0, 2.0, 2.0]), np.diag([1.0, 1.0, 2.0, 2.0])]


def run_cli(*argv):
    """Exit code, stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestUncertaintyPrinciple:
    @pytest.mark.parametrize("gamma", UNPHYSICAL)
    def test_validation_refuses(self, gamma):
        assert np.linalg.det(gamma) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError, match="violates the uncertainty principle"):
            valid_cm_stack(gamma)
        with pytest.raises(ValueError, match="violates the uncertainty principle"):
            valid_cm_stack(np.stack([random_pure_cm(np.random.default_rng(3)), gamma]))

    @pytest.mark.parametrize("gamma", UNPHYSICAL)
    @pytest.mark.parametrize("command", [("measure",), ("run", "--hamiltonian", "h0")])
    def test_cli_exits_2(self, tmp_path, gamma, command):
        state = write_json(tmp_path, "state.json", {"cm": matrix_to_list(gamma)})
        code, out, err = run_cli(*command, "--state", state)
        assert (code, out) == (2, "")
        assert "uncertainty principle" in err

    @pytest.mark.parametrize("gamma", PHYSICAL_MIXED)
    def test_physical_mixed_states_are_accepted(self, tmp_path, gamma):
        assert np.array_equal(valid_cm_stack(gamma).cms[0], gamma)
        state = write_json(tmp_path, "state.json", {"cm": matrix_to_list(gamma)})
        code, out, _ = run_cli("measure", "--state", state)
        assert code == 0 and json.loads(out)["pure"] is False


class TestDecomposeRange:
    def test_is_symplectic_is_relative(self):
        s = evolve(HTMS, 8.0)
        form = np.kron(np.eye(2), [[0.0, -1.0], [1.0, 0.0]])
        assert np.max(np.abs(s @ form @ s.T - form)) > 1e-10
        assert is_symplectic(s)
        bent = s.copy()
        bent[0, 0] += 1.0
        assert not is_symplectic(bent)

    def test_is_symplectic_refuses_an_overflowing_residual(self):
        """``S Omega S^T`` overflows to inf past ``max|S| ~ 1e154``; inf is not within the tolerance."""
        with np.errstate(over="ignore", invalid="ignore"):
            assert not is_symplectic(np.diag([1e200, 1e200, 1.0, 1.0]))
            assert is_symplectic(np.diag([1e200, 1e-200, 1.0, 1.0]))

    def test_past_the_old_ceiling_exits_0(self, tmp_path):
        """``e^8`` was refused past a ceiling of ``e^5.5``; the one-SVD factors hold."""
        s = evolve(HTMS, 8.0)
        code, out, err = run_cli("decompose", "--gate", write_json(tmp_path, "gate.json", matrix_to_list(s)))
        assert (code, err) == (0, "")
        recomposed = GateSequence.from_list(json.loads(out)).matrix()
        assert np.max(np.abs(recomposed - s)) <= 1e-10 * np.max(np.abs(s))

    @pytest.mark.parametrize("log_d1", [8.0, 12.0, 20.0, 30.0, 100.0, 300.0])
    def test_haar_gates_round_trip(self, rng, log_d1):
        """``O1 D O2`` with Haar passives and ``log d2`` below ``log d1``; the factors stay passive."""
        for _ in range(20):
            log_d2 = rng.uniform(0.0, log_d1)
            d = np.diag(np.exp([log_d1, -log_d1, log_d2, -log_d2]))
            s = random_passive(2, rng) @ d @ random_passive(2, rng)
            dec = euler_decompose(s)
            for o in (dec.O, dec.O_tilde):
                assert np.max(np.abs(o @ o.T - np.eye(4))) <= 1e-14
                assert np.max(np.abs(o @ J2 @ o.T - J2)) <= 1e-14
            assert np.max(np.abs(decompose_gate(s).matrix() - s)) <= 1e-10 * np.max(np.abs(s))

    def test_overflow_exits_3(self, tmp_path):
        """Past ``max|S| ~ 1e154`` the symplectic check overflows: one line, no traceback."""
        gate = write_json(tmp_path, "gate.json", matrix_to_list(evolve(HTMS, 360.0)))
        code, out, err = run_cli("decompose", "--gate", gate)
        assert (code, out) == (3, "")
        assert err.startswith("error: overflow") and err.count("\n") == 1

    @pytest.mark.parametrize("eps", [1e-12, 1e-10, 1e-8, 1e-6])
    def test_near_passive_gates_round_trip(self, rng, eps):
        """Singular values clustered at 1: equal squeezers, one squeezer and a ``tms`` flow.
        A squeezer stage at or below ``1e-12`` is dropped, so the gates recompose to ``1e-11``."""
        for _ in range(20):
            o1, o2 = random_passive(2, rng), random_passive(2, rng)
            equal, one = np.diag(np.exp([eps, -eps, eps, -eps])), np.diag(np.exp([eps, -eps, 0.0, 0.0]))
            for s in (o1 @ equal @ o2, o1 @ one @ o2, o1 @ evolve(HTMS, eps) @ o2):
                assert np.max(np.abs(euler_decompose(s).assemble() - s)) <= 1e-14
                assert np.max(np.abs(decompose_gate(s).matrix() - s)) <= 1e-11

    @pytest.mark.parametrize("log_d", [2.0, 12.0])
    def test_degenerate_gates_round_trip(self, rng, log_d):
        """``d1 = d2``: the top singular space is two-dimensional."""
        d = np.diag(np.exp([log_d, -log_d, log_d, -log_d]))
        for _ in range(20):
            s = random_passive(2, rng) @ d @ random_passive(2, rng)
            dec = euler_decompose(s)
            assert (dec.alpha, dec.beta) == pytest.approx((log_d, 0.0), abs=1e-12)
            assert np.max(np.abs(decompose_gate(s).matrix() - s)) <= 1e-10 * np.max(np.abs(s))

    def test_inside_the_range_still_decomposes(self):
        s = evolve(HTMS, 6.0)
        assert np.max(np.abs(decompose_gate(s).matrix() - s)) <= 1e-10 * np.max(np.abs(s))

    def test_slightly_bent_gate_inside_the_range_exits_2(self, tmp_path):
        """It passes the relative symplectic check, but its Euler factors miss it by 3.7e-12 relative."""
        bent = evolve(HTMS, 3.0)
        bent[0, 1] += 3e-10
        assert is_symplectic(bent)
        gate = write_json(tmp_path, "gate.json", matrix_to_list(bent))
        code, out, err = run_cli("decompose", "--gate", gate)
        assert (code, out) == (2, "")
        assert "not symplectic" in err and "out of range" not in err

    def test_large_non_symplectic_matrix_exits_2(self, tmp_path):
        bent = evolve(HTMS, 8.0)
        bent[0, 0] += 1.0
        gate = write_json(tmp_path, "gate.json", matrix_to_list(bent))
        code, out, err = run_cli("decompose", "--gate", gate)
        assert (code, out) == (2, "")
        assert "not symplectic" in err


class TestMalformedInputs:
    def test_stack_of_3x3_matrices(self):
        with pytest.raises(ValueError, match="must be 4x4"):
            valid_cm_stack(np.ones((2, 3, 3)))

    def test_matrix_from_list_needs_16_entries(self, tmp_path):
        with pytest.raises(ValueError, match="expected 16 entries, got 15"):
            matrix_from_list(list(range(15)))
        code, _, err = run_cli("decompose", "--gate", write_json(tmp_path, "g.json", [1.0] * 15))
        assert code == 2 and "expected 16 entries, got 15" in err

    def test_unknown_gate_kind(self, tmp_path):
        gates = write_json(tmp_path, "gates.json", [{"kind": "swap", "t": 1.0}])
        code, out, err = run_cli("compile", "--hamiltonian", "h0", "--gate", gates)
        assert (code, out) == (2, "")
        assert "unknown gate kind 'swap'" in err

    def test_greedy_walk_needs_an_increasing_grid(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            greedy_rate_walk(vacuum_cm(), H0, np.array([0.0, 0.2, 0.1]))

    @pytest.mark.parametrize("times", [[0.0, np.nan], [0.0, np.inf], [np.nan], [-np.inf, 0.0]])
    def test_greedy_walk_needs_a_finite_grid(self, times):
        with pytest.raises(ValueError, match="strictly increasing"):
            greedy_rate_walk(vacuum_cm(), H0, np.array(times))

    def test_negative_ancilla_count(self):
        with pytest.raises(ValueError, match="n_anc must be >= 0"):
            extend_with_ancillas(vacuum_cm(), -1)


class TestScheduleEdges:
    def test_zero_duration_gate_is_skipped(self):
        squeeze = TwoModeSqueezerGate(0.3)
        with_zero = compile_to_native(GateSequence((BeamSplitterGate(0.0), squeeze)), H0, slices=5)
        without = compile_to_native(GateSequence((squeeze,)), H0, slices=5)
        assert with_zero.to_dict() == without.to_dict()

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_degenerate_coupling_needs_positive_time(self, t):
        with pytest.raises(ValueError, match="total interaction time must be positive"):
            synthesize_plan(HBS, HBS, 1.0, t=t)

    def test_plan_to_protocol_needs_a_slice(self):
        with pytest.raises(ValueError, match="slices must be >= 1"):
            plan_to_protocol(synthesize_plan(H0, HTMS, 1.0), 0)

    def test_plan_without_weight_gives_an_empty_protocol(self):
        plan = SimulationPlan(H0, H0, 1.0, 1.0, np.array([(0.3, 0.1, 0.0)]))
        protocol = plan_to_protocol(plan, 4)
        assert protocol.steps.shape == (0, 3) and protocol.final == LocalRotationPair()


class TestBoundsTime:
    @pytest.mark.parametrize("t", [-1.0, -1e-300, float("nan")])
    def test_refuses_negative_and_nan_time(self, t):
        with pytest.raises(ValueError, match="bounds require t >= 0"):
            finite_time_bounds(H0, t, 1.0)

    @pytest.mark.parametrize(
        "k, t, r1, r2",
        [(HBS, np.inf, 0.0, 0.0), (H0, np.inf, 0.0, 0.0), (H0, 1.0, np.inf, 0.0), (H0, 1.0, np.inf, np.inf)],
    )
    def test_refuses_infinite_values(self, k, t, r1, r2):
        with pytest.raises(ValueError, match="bounds require finite t, r1 and r2"):
            finite_time_bounds(k, t, r1, r2)

    def test_time_zero_is_the_initial_squeezing(self):
        assert finite_time_bounds(H0, 0.0, 1.0, 0.5) == (np.exp(1.0), np.exp(0.75))

    def test_cli_negative_time_exits_2(self):
        code, out, err = run_cli("bounds", "--hamiltonian", "preset:h0", "--t", "-1", "--r1", "1")
        assert (code, out, err) == (2, "", "error: bounds require t >= 0, got -1.0\n")


_STEP = {"phi1": 0.1, "phi2": 0.2, "t": 0.01}
_NOT_AN_OBJECT = "must be an object with keys phi1, phi2 and t, not"


class TestProtocolFileTypes:
    @pytest.mark.parametrize(
        "steps, named",
        [
            (5, "protocol steps must be a list of objects, not int"),
            ({"a": 1}, "protocol steps must be a list of objects, not dict"),
            ([5], f"protocol steps[0] {_NOT_AN_OBJECT} int"),
            ([_STEP, _STEP, "abc"], f"protocol steps[2] {_NOT_AN_OBJECT} str"),
            ([_STEP, {"phi1": [1], "phi2": 0.0, "t": 0.1}], "protocol steps[1]: phi1 must be a number, not list"),
            ([{"phi1": 0.0, "phi2": 0.0, "t": "soon"}], "protocol steps[0]: t must be a number, not str"),
        ],
    )
    def test_wrong_typed_steps_are_named(self, tmp_path, steps, named):
        h0 = {"a": 1.0, "b": 0.0, "c": 0.0, "d": 0.0}
        data = {"native_K": h0, "steps": steps, "final": {"phi1": 0.0, "phi2": 0.0}}
        path = write_json(tmp_path, "p.json", data)
        code, out, err = run_cli("run", "--hamiltonian", "h0", "--strategy", f"file:{path}")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {named}") and err.endswith(f" (in {path})\n")
        assert err.count("\n") == 1
