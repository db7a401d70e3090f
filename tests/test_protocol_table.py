"""Protocols carry their step table and index, keyed once where they are built.

Every producer (``flip_strategy``, ``plan_to_protocol``, ``compile_to_native``,
``Protocol.from_dict``) must give the ``table`` and ``index`` that value
keying of its per-step schedule gives (``helpers.reference_key_steps``), in
order of first appearance.  A run of the protocol must be bit-identical to a
run on the oracle's table, and ``steps``, ``total_time`` and the ``to_dict``
JSON bytes must equal the per-step reference.
"""

import json

import numpy as np
import pytest

from helpers import (
    random_coupling,
    random_pure_cm,
    random_rotation_pair,
    random_rows,
    random_symplectic,
    reference_compile_schedule,
    reference_flip_schedule,
    reference_key_steps,
    reference_plan_schedule,
    reference_protocol_dict,
)
from twomode.core import H0, HBS, LocalRotationPair, evolve
from twomode.gates import compile_to_native, decompose_gate
from twomode.protocols import flip_strategy, run_protocol
from twomode.simulate import Protocol, plan_to_protocol, synthesize_plan


def assert_carries_the_oracle_table(protocol, k, rows, final, gamma0):
    """Table, index, steps, run, total time and JSON bytes of ``protocol`` against the per-step ``rows``."""
    table, index = reference_key_steps(rows)
    assert protocol.table.tobytes() == table.tobytes() and protocol.table.shape == table.shape
    assert protocol.index.dtype == np.intp and np.array_equal(protocol.index, index)
    assert protocol.final == final
    steps = np.array(rows, dtype=float).reshape(-1, 3)
    assert protocol.steps.shape == steps.shape and protocol.steps.tobytes() == steps.tobytes()

    traj = run_protocol(gamma0, protocol)
    ref = run_protocol(gamma0, Protocol(k, table, index, final))
    assert np.array_equal(traj.times, ref.times) and np.array_equal(traj.cms, ref.cms)

    assert protocol.total_time == float(sum(t for _, _, t in rows))
    assert json.dumps(protocol.to_dict()) == json.dumps(reference_protocol_dict(k, rows, final))


@pytest.fixture
def gamma0(rng):
    return random_pure_cm(rng)


class TestFlipStrategy:
    @pytest.mark.parametrize("n", [1, 2, 5, 10**4])
    def test_carries_the_oracle_table(self, rng, gamma0, n):
        for k, t in ((H0, 0.7), (random_coupling(rng), 1.3)):
            rows, final = reference_flip_schedule(t, n)
            protocol = flip_strategy(k, t, n)
            assert_carries_the_oracle_table(protocol, k, rows, final, gamma0)
            assert len(protocol.table) == min(n, 2)


def _plans(rng):
    k, target = random_coupling(rng), random_coupling(rng)
    return {
        "random": synthesize_plan(k, target, 0.6),
        "slow": synthesize_plan(k, target, 0.6, t=3 * synthesize_plan(k, target, 0.6).t),
        "degenerate": synthesize_plan(HBS, 2.0 * HBS, 0.8),
        "zero-target": synthesize_plan(H0, np.zeros((2, 2)), 1.0),
    }


class TestPlanToProtocol:
    @pytest.mark.parametrize("slices", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["random", "slow", "degenerate", "zero-target"])
    def test_carries_the_oracle_table(self, rng, gamma0, slices, kind):
        plan = _plans(rng)[kind]
        rows, final = reference_plan_schedule(plan, slices)
        protocol = plan_to_protocol(plan, slices)
        assert_carries_the_oracle_table(protocol, plan.native_k, rows, final, gamma0)

    def test_a_single_slice_has_no_entry_row(self, rng):
        plan = _plans(rng)["random"]
        assert len(plan_to_protocol(plan, 1).table) == len(plan.terms)
        assert len(plan_to_protocol(plan, 2).table) == len(plan.terms) + 1


class TestCompileToNative:
    @pytest.mark.parametrize("native", ["h0", "random"])
    def test_carries_the_oracle_table(self, rng, gamma0, native):
        for slices in (1, 2, 7, 60):
            k = H0 if native == "h0" else random_coupling(rng)
            seq = decompose_gate(random_symplectic(rng, factors=2, tmax=0.5))
            rows, final = reference_compile_schedule(seq, k, slices)
            protocol = compile_to_native(seq, k, slices=slices)
            assert_carries_the_oracle_table(protocol, k, rows, final, gamma0)


class TestFromDict:
    def _producers(self, rng):
        seq = decompose_gate(random_symplectic(rng, factors=2, tmax=0.5))
        menu = random_rows(rng, (0.0, 0.01, 0.02))
        return [
            flip_strategy(H0, 0.9, 5),
            plan_to_protocol(_plans(rng)["random"], 4),
            compile_to_native(seq, H0, slices=9),
            Protocol(random_coupling(rng), menu, rng.integers(0, 3, size=300), random_rotation_pair(rng)),
            Protocol(H0, [], []),
        ]

    def test_carries_the_oracle_table(self, rng, gamma0):
        for source in self._producers(rng):
            rows = [tuple(row) for row in source.steps.tolist()]
            data = json.loads(json.dumps(source.to_dict()))
            protocol = Protocol.from_dict(data)
            assert_carries_the_oracle_table(protocol, source.native_k, rows, source.final, gamma0)

    def test_keeps_signed_zeros_apart(self):
        """``from_dict`` then ``to_dict`` keeps the bytes of a file whose steps differ only in
        the sign of a zero: rows are keyed by their bytes, not their values."""
        steps = [(0.5, -0.0, 0.1), (0.5, 0.0, 0.1), (-0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.5, -0.0, 0.1)]
        text = json.dumps(
            {
                "native_K": {"a": 1.0, "b": 0.0, "c": 0.0, "d": -0.0},
                "steps": [{"phi1": phi1, "phi2": phi2, "t": t} for phi1, phi2, t in steps],
                "final": {"phi1": -0.0, "phi2": 0.0},
            }
        )
        protocol = Protocol.from_dict(json.loads(text))
        assert json.dumps(protocol.to_dict()) == text
        assert len(protocol.table) == 4 and protocol.index.tolist() == [0, 1, 2, 3, 0]


class TestStepsView:
    def test_run_protocol_reads_no_step(self, monkeypatch, rng, gamma0):
        protocol = flip_strategy(H0, 1.0, 100)
        expected = run_protocol(gamma0, protocol)
        monkeypatch.setattr(Protocol, "steps", property(lambda self: pytest.fail("steps was read")))
        assert np.array_equal(run_protocol(gamma0, protocol).cms, expected.cms)

    def test_table_and_index_are_read_only(self):
        protocol = flip_strategy(H0, 1.0, 10)
        with pytest.raises(ValueError):
            protocol.index[3] = 0
        with pytest.raises(ValueError):
            protocol.table[0, 2] = 1.0
        with pytest.raises(AttributeError):
            protocol.index = np.zeros(10, dtype=np.intp)

    def test_refuses_bad_rows(self):
        with pytest.raises(ValueError, match="durations must be finite and non-negative"):
            Protocol(H0, [(0.0, 0.0, -0.1)], [0])
        with pytest.raises(ValueError, match="durations must be finite and non-negative"):
            flip_strategy(H0, np.inf, 3)
        with pytest.raises(ValueError, match="rotation angles must be finite"):
            Protocol(H0, [(0.0, 0.0, 0.1), (np.nan, 0.0, 0.1)], [0, 1])

    def test_steps_and_final_follow_the_same_rule(self):
        for duration in (-0.1, np.inf, np.nan):
            with pytest.raises(ValueError, match="durations must be finite and non-negative"):
                Protocol(H0, [(0.0, 0.0, duration)], [0])
        with pytest.raises(ValueError, match="rotation angles must be finite"):
            Protocol(H0, [(0.0, np.inf, 0.1)], [0])
        with pytest.raises(ValueError, match="rotation angles must be finite"):
            Protocol(H0, [(0.0, 0.0, 0.1)], [0], LocalRotationPair(np.nan, 0.0))
        with pytest.raises(ValueError, match="durations must be finite and non-negative"):
            Protocol(H0, [(np.nan, 0.0, -1.0)], [0], LocalRotationPair(np.nan, 0.0))


class TestConstructorChecksRowsAndIndex:
    """Rows are ``(N, 3)`` and the index is 1-d integers in ``[0, N)``; nothing is wrapped,
    truncated or reshaped into another schedule."""

    ROWS = [(0.0, 0.0, 0.1), (0.0, 0.0, 0.2)]

    def test_refuses_a_negative_index(self):
        with pytest.raises(ValueError, match=r"index must be 1-d integers in \[0, 2\)"):
            Protocol(H0, self.ROWS, [-1])

    def test_refuses_an_index_past_the_rows(self):
        for index in ([5], [0, 2]):
            with pytest.raises(ValueError, match=r"index must be 1-d integers in \[0, 2\)"):
                Protocol(H0, self.ROWS, index)

    def test_refuses_an_index_that_is_not_integers(self):
        for index in ([0.9, 1.7], [True, False], [[0, 1]], 0):
            with pytest.raises(ValueError, match="index must be 1-d integers"):
                Protocol(H0, self.ROWS, index)

    def test_refuses_rows_that_are_not_n_by_3(self):
        for rows in (np.zeros((3, 4)), np.zeros(6), np.zeros((2, 1, 3)), 0.1):
            with pytest.raises(ValueError, match=r"rows must have shape \(N, 3\), got \("):
                Protocol(H0, rows, [0])


class TestConstructorKeysRows:
    def test_repeated_rows_are_keyed_by_their_bytes(self):
        rows = [
            (0.0, 0.5, 0.1),
            (0.0, -0.0, 0.2),
            (0.0, 0.5, 0.1),
            (0.0, 0.0, 0.2),
            (-0.0, 0.0, 0.2),
            (0.0, -0.0, 0.2),
        ]
        index = [5, 0, 2, 3, 1, 4, 4, 3]
        protocol = Protocol(H0, rows, index, LocalRotationPair(0.3, -0.0))
        distinct, slot = [rows[0], rows[1], rows[3], rows[4]], [0, 1, 0, 2, 3, 1]
        assert protocol.table.tobytes() == np.array(distinct).tobytes()
        assert protocol.index.dtype == np.intp and protocol.index.tolist() == [slot[i] for i in index]

        steps = [rows[i] for i in index]
        by_steps = Protocol(H0, steps, np.arange(len(steps)), LocalRotationPair(0.3, -0.0))
        assert by_steps.table.tobytes() == np.array([rows[5], rows[0], rows[3], rows[4]]).tobytes()
        assert json.dumps(by_steps.to_dict()) == json.dumps(protocol.to_dict())

    def test_rows_no_step_uses_are_dropped(self, monkeypatch):
        import twomode.protocols

        protocol = Protocol(H0, [(0.0, 0.0, 0.1), (0.0, 0.0, 0.2)], [0])
        assert protocol.table.tolist() == [[0.0, 0.0, 0.1]] and protocol.index.tolist() == [0]
        durations = []
        monkeypatch.setattr(twomode.protocols, "evolve", lambda k, t: durations.append(t) or evolve(k, t))
        run_protocol(np.eye(4), protocol)
        assert [np.shape(t) for t in durations] == [(1,)]

    def test_a_bad_row_no_step_uses_is_not_refused(self):
        rows = [(np.nan, 0.0, 0.1), (0.0, 0.0, 0.2), (0.0, 0.0, -1.0), (0.5, 0.0, 0.3), (0.0, 0.0, 0.2)]
        protocol = Protocol(H0, rows, [3, 1, 4, 3])
        assert protocol.table.tolist() == [[0.0, 0.0, 0.2], [0.5, 0.0, 0.3]]
        assert protocol.index.tolist() == [1, 0, 0, 1]
