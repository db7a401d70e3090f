"""Tests for gate decomposition and compilation onto a native coupling."""

import json

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import random_coupling, random_passive, random_symplectic
from twomode.cli import main
from twomode.core import (
    H0,
    HBS,
    HTMS,
    J2,
    NotPassiveError,
    apply_symplectic,
    evolve,
    matrix_to_list,
    restricted_svd,
    squeezed_product_cm,
    vacuum_cm,
)
from twomode.gates import (
    BeamSplitterGate,
    GateSequence,
    RotationGate,
    TwoModeSqueezerGate,
    compile_to_native,
    decompose_gate,
    euler_decompose,
    local_squeezer_sequence,
    passive_decompose,
)
from twomode.measures import squeezing
from twomode.protocols import run_protocol
from twomode.simulate import DegenerateHamiltonianError


def _is_passive(o, tol=1e-9):
    return (
        np.max(np.abs(o @ o.T - np.eye(4))) < tol and np.max(np.abs(o @ J2 @ o.T - J2)) < tol
    )


class TestEulerDecomposition:
    def test_pure_squeezer_is_trivial(self):
        d = np.diag([np.exp(0.5), np.exp(-0.5), np.exp(0.5), np.exp(-0.5)])
        dec = euler_decompose(d)
        assert np.allclose(dec.O, np.eye(4), atol=1e-12)
        assert np.allclose(dec.O_tilde, np.eye(4), atol=1e-12)
        assert dec.alpha == pytest.approx(0.5, abs=1e-12)
        assert dec.beta == pytest.approx(0.0, abs=1e-12)

    def test_passive_input(self, rng):
        o = random_passive(2, rng)
        dec = euler_decompose(o)
        assert np.allclose(dec.D, np.eye(4), atol=1e-10)
        assert np.max(np.abs(dec.assemble() - o)) < 1e-10

    def test_random_roundtrip_and_passivity(self, rng):
        for _ in range(400):
            s = random_symplectic(rng)
            dec = euler_decompose(s)
            scale = max(1.0, float(np.max(np.abs(s))))
            assert np.max(np.abs(dec.assemble() - s)) < 1e-10 * scale
            assert _is_passive(dec.O)
            assert _is_passive(dec.O_tilde)
            assert dec.alpha >= dec.beta >= 0.0

    def test_diagonal_shape(self, rng):
        s = random_symplectic(rng)
        dec = euler_decompose(s)
        d = np.diag(dec.D)
        assert d[0] * d[1] == pytest.approx(1.0, rel=1e-10)
        assert d[2] * d[3] == pytest.approx(1.0, rel=1e-10)
        assert d[0] == pytest.approx(np.exp(dec.alpha + dec.beta), rel=1e-10)
        assert d[2] == pytest.approx(np.exp(dec.alpha - dec.beta), rel=1e-10)

    def test_flow_exponents_match_first_order_singular_values(self, rng):
        """Short flows have doubly degenerate singular values exp(+-(s1-s2)t/2)."""
        for _ in range(20):
            k = random_coupling(rng)
            _, svals, _ = restricted_svd(k)
            t = 1e-3
            dec = euler_decompose(evolve(k, t))
            assert dec.alpha == pytest.approx(0.5 * (svals.s1 - svals.s2) * t, abs=5e-5)
            assert dec.beta == pytest.approx(0.0, abs=5e-5)


class TestPassiveDecomposition:
    def test_identity(self):
        dec = passive_decompose(np.eye(4))
        assert dec.t_bs == 0.0
        assert np.allclose(dec.rot_out.matrix, np.eye(4))
        assert np.allclose(dec.rot_in.matrix, np.eye(4))

    def test_beam_splitter_self(self):
        dec = passive_decompose(evolve(HBS, 0.7))
        assert dec.t_bs == pytest.approx(0.7, abs=1e-12)
        assert np.allclose(dec.rot_out.matrix, np.eye(4), atol=1e-12)
        assert np.allclose(dec.rot_in.matrix, np.eye(4), atol=1e-12)

    def test_swap(self):
        dec = passive_decompose(evolve(HBS, np.pi / 2.0))
        assert dec.t_bs == pytest.approx(np.pi / 2.0, abs=1e-12)
        assert np.max(np.abs(dec.assemble() - evolve(HBS, np.pi / 2.0))) < 1e-12

    def test_random_roundtrip(self, rng):
        for _ in range(300):
            o = random_passive(2, rng)
            dec = passive_decompose(o)
            assert 0.0 <= dec.t_bs <= np.pi / 2.0 + 1e-12
            assert np.max(np.abs(dec.assemble() - o)) < 1e-10

    def test_active_input_rejected(self):
        with pytest.raises(NotPassiveError, match="not orthogonal"):
            passive_decompose(1.001 * np.eye(4))
        with pytest.raises(NotPassiveError, match="not orthogonal"):
            passive_decompose(np.diag([2.0, 0.5, 1.0, 1.0]))
        reflection = np.diag([1.0, -1.0, 1.0, 1.0])  # orthogonal, so the symplectic check decides
        with pytest.raises(NotPassiveError, match="not symplectic"):
            passive_decompose(reflection)

    def test_wrong_shape_is_a_plain_value_error(self):
        with pytest.raises(ValueError, match="must be 4x4") as info:
            passive_decompose(np.eye(6))
        assert type(info.value) is ValueError


class TestLocalSqueezerSequence:
    def test_zero_parameters_identity(self):
        assert np.max(np.abs(local_squeezer_sequence(0.0, 0.0).matrix() - np.eye(4))) < 1e-12

    @pytest.mark.parametrize(
        "alpha, beta",
        [(0.5, 0.0), (0.0, -0.3), (0.0, 0.3), (0.4, 0.2), (-0.6, 0.25)],
    )
    def test_reaches_paired_diagonal(self, alpha, beta):
        target = np.diag(
            [
                np.exp(alpha + beta),
                np.exp(-(alpha + beta)),
                np.exp(alpha - beta),
                np.exp(-(alpha - beta)),
            ]
        )
        assert np.max(np.abs(local_squeezer_sequence(alpha, beta).matrix() - target)) < 1e-10

    def test_json_roundtrip(self):
        seq = local_squeezer_sequence(0.3, -0.1)
        again = GateSequence.from_list(seq.to_list())
        assert np.allclose(again.matrix(), seq.matrix())
        assert any(item["kind"] == "tms" and item["barred"] for item in seq.to_list())


class TestDecomposeGate:
    def test_identity_all_durations_zero(self):
        seq = decompose_gate(np.eye(4))
        for gate in seq.gates:
            if not isinstance(gate, RotationGate):
                assert gate.t == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(seq.matrix() - np.eye(4))) < 1e-12

    def test_swap_is_pure_passive(self):
        seq = decompose_gate(evolve(HBS, np.pi / 2.0))
        assert not any(isinstance(g, TwoModeSqueezerGate) for g in seq.gates)
        assert np.max(np.abs(seq.matrix() - evolve(HBS, np.pi / 2.0))) < 1e-10

    def test_template_shape(self, rng):
        """At most six rotation pairs, three beam splitters, two squeezers."""
        for _ in range(50):
            seq = decompose_gate(random_symplectic(rng))
            kinds = [type(g) for g in seq.gates]
            assert kinds.count(RotationGate) <= 6
            assert kinds.count(BeamSplitterGate) <= 3
            assert kinds.count(TwoModeSqueezerGate) <= 2

    def test_random_roundtrip(self, rng):
        worst = 0.0
        for _ in range(1000):
            s = random_symplectic(rng)
            seq = decompose_gate(s)
            scale = max(1.0, float(np.max(np.abs(s))))
            worst = max(worst, np.max(np.abs(seq.matrix() - s)) / scale)
        assert worst < 1e-9

    def test_every_primitive_is_symplectic(self, rng):
        seq = decompose_gate(random_symplectic(rng))
        form = np.kron(np.eye(2), [[0.0, -1.0], [1.0, 0.0]])
        for gate in seq.gates:
            assert np.max(np.abs(gate.matrix @ form @ gate.matrix.T - form)) <= 1e-10


class TestNearPassiveGates:
    """Gates ``exp(J2 H)`` with small symmetric ``H``: the eigenvalues of
    ``S S^T`` cluster at 1, where the Euler factors must stay orthogonal."""

    SCALES = (1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-4, 1e-2)

    @staticmethod
    def near_passive(rng, scale):
        h = rng.normal(size=(4, 4))
        h = h + h.T
        return expm(J2 @ h * (scale / np.linalg.norm(h, 2)))

    @pytest.mark.parametrize("scale", SCALES)
    def test_reassembly(self, rng, scale):
        for _ in range(100):
            s = self.near_passive(rng, scale)
            assert np.max(np.abs(decompose_gate(s).matrix() - s)) < 1e-11

    @pytest.mark.parametrize("scale", SCALES)
    def test_cli_decompose_exits_0(self, rng, scale, tmp_path, capsys):
        path = tmp_path / "gate.json"
        path.write_text(json.dumps(matrix_to_list(self.near_passive(rng, scale))))
        assert main(["decompose", "--gate", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)) in (3, 7, 11)


class TestDecomposeGateStages:
    """Gates that skip one or both squeezer stages keep their kinds and counts."""

    PASSIVE = ["rot", "bs", "rot"]
    ONE_SQUEEZER = PASSIVE + ["tms"] + PASSIVE

    @pytest.mark.parametrize(
        "gate, kinds, durations",
        [
            (TwoModeSqueezerGate(0.4), ONE_SQUEEZER, [0.0, 0.4, 0.0]),
            (TwoModeSqueezerGate(0.4, barred=True), ONE_SQUEEZER, [np.pi / 2.0, 0.4, np.pi / 2.0]),
            (BeamSplitterGate(0.7), PASSIVE, [0.7]),
            (BeamSplitterGate(0.0), PASSIVE, [0.0]),
        ],
        ids=["tms", "tms-barred", "bs", "identity"],
    )
    def test_kinds_and_durations(self, gate, kinds, durations):
        seq = decompose_gate(gate.matrix)
        assert [g.to_dict()["kind"] for g in seq.gates] == kinds
        timed = [g.t for g in seq.gates if not isinstance(g, RotationGate)]
        assert timed == pytest.approx(durations, abs=1e-10)
        assert np.max(np.abs(seq.matrix() - gate.matrix)) < 1e-12

    def test_both_stages(self):
        target = local_squeezer_sequence(0.5, 0.2).matrix()
        seq = decompose_gate(target)
        assert [g.to_dict()["kind"] for g in seq.gates] == self.ONE_SQUEEZER + ["tms"] + self.PASSIVE
        timed = [g.t for g in seq.gates if not isinstance(g, RotationGate)]
        assert timed == pytest.approx([np.pi / 4.0, 0.2, np.pi / 4.0, 0.5, np.pi / 4.0], abs=1e-10)
        assert np.max(np.abs(seq.matrix() - target)) < 1e-12


class TestCompileToNative:
    def test_single_squeezer_time_cost(self):
        """Simulating one squeezer of strength t costs interaction time 2t."""
        seq = GateSequence((TwoModeSqueezerGate(0.4),))
        protocol = compile_to_native(seq, H0)
        assert protocol.total_time == pytest.approx(0.8, abs=1e-12)

    def test_empty_sequence(self):
        protocol = compile_to_native(GateSequence(()), H0)
        assert len(protocol.steps) == 0
        assert protocol.total_time == 0.0

    def test_degenerate_native_rejected(self):
        with pytest.raises(DegenerateHamiltonianError):
            compile_to_native(GateSequence((TwoModeSqueezerGate(0.1),)), HBS)

    def test_round_off_coupling_gates_add_no_steps(self):
        """The beam splitters of about 1e-15 that a squeezer's decomposition carries are skipped."""
        seq = decompose_gate(TwoModeSqueezerGate(0.05).matrix)
        assert [g.to_dict()["kind"] for g in seq.gates] == ["rot", "bs", "rot", "tms", "rot", "bs", "rot"]
        assert all(1e-15 < abs(g.t) <= 1e-12 for g in seq.gates if isinstance(g, BeamSplitterGate))
        assert len(compile_to_native(seq, H0, slices=200).index) == 400

    @pytest.mark.parametrize("t, steps", [(1e-12, 0), (-1e-12, 0), (2e-12, 2), (-2e-12, 2)])
    def test_one_threshold_for_a_negligible_gate(self, t, steps):
        """Compilation skips a coupling gate with |t| <= 1e-12, as decomposition drops such a stage."""
        assert len(compile_to_native(GateSequence((BeamSplitterGate(t),)), H0, slices=1).index) == steps

    def test_negative_durations_folded(self):
        seq = GateSequence((TwoModeSqueezerGate(-0.3),))
        protocol = compile_to_native(seq, H0, slices=100)
        assert (protocol.steps[:, 2] >= 0.0).all()
        traj = run_protocol(vacuum_cm(), protocol)
        target = apply_symplectic(evolve(HTMS, -0.3), vacuum_cm())
        assert np.max(np.abs(traj.final - target)) < 5e-3

    def test_compiled_swap_exchanges_modes(self):
        seq = decompose_gate(evolve(HBS, np.pi / 2.0))
        protocol = compile_to_native(seq, H0, slices=200)
        traj = run_protocol(squeezed_product_cm(0.8, 0.0), protocol)
        final = traj.final
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(final[2:, 2:])), [np.exp(-0.8), np.exp(0.8)], atol=1e-2
        )
        assert np.allclose(np.sort(np.linalg.eigvalsh(final[:2, :2])), [1.0, 1.0], atol=1e-2)

    def test_compiled_gate_reproduces_invariants(self, rng):
        """Compile-and-run matches the direct gate action up to local rotations."""
        from twomode.measures import negativity

        for _ in range(3):
            s = random_symplectic(rng, factors=2, tmax=0.5)
            seq = decompose_gate(s)
            protocol = compile_to_native(seq, H0, slices=400)
            traj = run_protocol(vacuum_cm(), protocol)
            direct = apply_symplectic(s, vacuum_cm())
            assert squeezing(traj.final).squeezing == pytest.approx(
                squeezing(direct).squeezing, rel=1e-2
            )
            assert negativity(traj.final) == pytest.approx(negativity(direct), rel=1e-2)


class TestUniversalityWitness:
    def test_single_mode_squeezer_not_a_single_flow(self):
        """No single coupling flow realises a one-sided local squeezer.

        Every flow has doubly degenerate singular values; the one-sided
        squeezer does not, and a coarse grid confirms no flow comes close.
        """
        target = np.diag([np.exp(0.4), np.exp(-0.4), 1.0, 1.0])
        sv = np.linalg.svd(target, compute_uv=False)
        assert abs(sv[0] - sv[1]) > 0.4  # not doubly degenerate
        grid = np.linspace(-1.0, 1.0, 5)
        best = np.inf
        for a in grid:
            for b in grid:
                for c in grid:
                    for d in grid:
                        k = np.array([[a, d], [c, b]])
                        for t in np.linspace(-4.0, 4.0, 41):
                            best = min(best, float(np.max(np.abs(evolve(k, t) - target))))
        assert best > 1e-6

    def test_but_gate_sequence_reaches_it(self):
        target = np.diag([np.exp(0.4), np.exp(-0.4), 1.0, 1.0])
        seq = decompose_gate(target)
        assert np.max(np.abs(seq.matrix() - target)) < 1e-10

    def test_flow_singular_values_are_doubly_degenerate(self, rng):
        for _ in range(100):
            sv = np.linalg.svd(
                evolve(random_coupling(rng), rng.uniform(-2, 2)), compute_uv=False
            )
            assert sv[0] == pytest.approx(sv[1], rel=1e-9)
            assert sv[2] == pytest.approx(sv[3], rel=1e-9)


class TestPassiveEdgeAngles:
    def test_near_axis_beam_splitter_angles(self, rng):
        """Angles near 0 and pi/2 stay numerically stable."""
        from twomode.core import LocalRotationPair

        for eps in (0.0, 1e-12, 1e-8, 1e-5):
            for theta in (eps, np.pi / 2.0 - eps):
                o = (
                    LocalRotationPair(0.3, -1.2).matrix
                    @ evolve(HBS, theta)
                    @ LocalRotationPair(2.1, 0.4).matrix
                )
                dec = passive_decompose(o)
                assert np.max(np.abs(dec.assemble() - o)) < 1e-9
