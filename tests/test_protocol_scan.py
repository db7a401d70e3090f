"""The prefix-scan ``run_protocol`` against the per-step reference loop.

The scan forms ``P_i gamma0 P_i^T`` from chunked prefix products, so its
rounding differs from stepping one CM at a time; every node must agree with
``helpers.reference_run_protocol`` to 1e-10 of that node's largest entry, be
exactly symmetric, and the time grid must be bit-identical.  ``run_protocol``
forms its final node at once and the others on the first read of ``cms``:
``final`` and ``len()`` run no Gram pass, and ``final`` is the scan's last node.
"""

import math

import numpy as np
import pytest

import twomode.protocols
from helpers import (
    random_coupling,
    random_pure_cm,
    random_rotation_pair,
    random_rows,
    random_symplectic,
    reference_protocol_dict,
    reference_run_protocol,
)
from twomode.core import (
    H0,
    HTMS,
    _pair_matrix,
    apply_symplectic,
    evolve,
    squeezed_product_cm,
    two_mode_squeezed_cm,
    vacuum_cm,
)
from twomode.gates import compile_to_native, decompose_gate
from twomode.protocols import _prefix_scan, flip_strategy, run_protocol
from twomode.simulate import Protocol, plan_to_protocol, synthesize_plan

_REL = 1e-10


def assert_matches_reference(gamma0, protocol):
    traj = run_protocol(gamma0, protocol)
    times, cms = reference_run_protocol(gamma0, protocol)
    assert traj.cms.shape == cms.shape
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.cms, traj.cms.transpose(0, 2, 1))
    err = np.max(np.abs(traj.cms - cms), axis=(1, 2))
    assert np.all(err <= _REL * np.max(np.abs(cms), axis=(1, 2)))


def _start_states(rng):
    """Vacuum, pure squeezed and entangled states, and two mixed states."""
    s = random_symplectic(rng, factors=2, tmax=0.6)
    return [
        vacuum_cm(),
        squeezed_product_cm(0.8, 0.3),
        two_mode_squeezed_cm(0.7),
        random_pure_cm(rng),
        apply_symplectic(s, np.diag([1.4, 1.4, 2.0, 2.0])),
        1.5 * np.eye(4),
    ]


def _random_protocol(rng, n_steps):
    """``n_steps`` steps drawn from 3-5 distinct (rotation, duration) pairs, one of duration 0."""
    distinct = int(rng.integers(3, 6))
    durations = [0.0, *rng.uniform(0.0, 0.05, size=distinct - 1)]
    menu = random_rows(rng, durations)
    index = rng.integers(0, distinct, size=n_steps)
    return Protocol(random_coupling(rng), [menu[i] for i in index], np.arange(n_steps), random_rotation_pair(rng))


class TestScanMatchesLoop:
    @pytest.mark.parametrize("n_steps", [0, 1, 2, 7, 50, 333, 2000])
    def test_random_protocols(self, rng, n_steps):
        for gamma0 in _start_states(rng):
            assert_matches_reference(gamma0, _random_protocol(rng, n_steps))

    @pytest.mark.parametrize("root", [1, 2, 3, 5, 17, 40])
    def test_lengths_at_chunk_edges(self, rng, root):
        """Node counts ``N + 1`` of ``root**2 - 1``, ``root**2`` and ``root**2 + 1`` and around."""
        for n_steps in range(max(0, root * root - 2), root * root + 2):
            assert math.isqrt(n_steps + 1) in (root - 1, root)
            assert_matches_reference(random_pure_cm(rng), _random_protocol(rng, n_steps))

    def test_all_zero_durations(self, rng):
        protocol = Protocol(H0, random_rows(rng, [0.0] * 30), np.arange(30), random_rotation_pair(rng))
        assert_matches_reference(random_pure_cm(rng), protocol)

    @pytest.mark.parametrize("steps", [1, 2, 3, 100, 1000, 10_000])
    def test_flip_strategy(self, rng, steps):
        for gamma0 in _start_states(rng):
            assert_matches_reference(gamma0, flip_strategy(H0, 1.0, steps))
        assert_matches_reference(vacuum_cm(), flip_strategy(random_coupling(rng), 0.7, steps))

    def test_long_flip(self):
        assert_matches_reference(vacuum_cm(), flip_strategy(H0, 2.0, 100_000))

    @pytest.mark.parametrize("slices", [1, 3, 50, 400])
    def test_plan_to_protocol(self, rng, slices):
        for target in (HTMS, random_coupling(rng)):
            plan = synthesize_plan(H0, target, 0.4)
            for gamma0 in _start_states(rng):
                assert_matches_reference(gamma0, plan_to_protocol(plan, slices))

    def test_all_distinct_rows(self, rng):
        """A 10^4-step JSON protocol whose rows are all distinct, as ``run --strategy file:`` reads one."""
        rows = random_rows(rng, rng.uniform(0.0, 1e-3, size=10_000))
        data = reference_protocol_dict(random_coupling(rng), rows, random_rotation_pair(rng))
        protocol = Protocol.from_dict(data)
        assert len(protocol.table) == 10_000
        for gamma0 in _start_states(rng)[1:3]:
            assert_matches_reference(gamma0, protocol)

    def test_compile_to_native(self, rng):
        for native in (H0, random_coupling(rng)):
            seq = decompose_gate(random_symplectic(rng, factors=2, tmax=0.5))
            protocol = compile_to_native(seq, native, slices=300)
            for gamma0 in _start_states(rng):
                assert_matches_reference(gamma0, protocol)


class TestScanPadsItsOwnIdentity:
    """``_prefix_scan`` is given step matrices only: no row of its table is the identity."""

    @pytest.fixture
    def table(self, rng):
        return np.array([random_symplectic(rng, factors=2, tmax=0.4) for _ in range(3)])

    def test_empty_index_gives_gamma0(self, rng, table):
        gamma0 = random_pure_cm(rng)
        for steps in (table, table[:0]):
            cms = _prefix_scan(steps, np.empty(0, dtype=np.intp), gamma0)
            assert cms.shape == (1, 4, 4) and cms.tobytes() == gamma0.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 15, 16, 17, 99, 1000])
    def test_nodes_are_the_step_products(self, rng, table, n):
        gamma0 = random_pure_cm(rng)
        index = rng.integers(0, len(table), size=n)
        cms = _prefix_scan(table, index, gamma0)
        assert cms.shape == (n + 1, 4, 4) and cms[0].tobytes() == gamma0.tobytes()
        ref = [gamma0]
        for i in index:
            ref.append(apply_symplectic(table[i], ref[-1]))
        ref = np.array(ref)
        err = np.max(np.abs(cms - ref), axis=(1, 2))
        assert np.all(err <= _REL * np.max(np.abs(ref), axis=(1, 2)))


def _deferral_protocol(rng, kind):
    """Flip, plan, compile, a 10^3-row all-distinct, an empty and a one-step protocol."""
    if kind == "flip":
        return flip_strategy(H0, 1.0, 500)
    if kind == "plan":
        return plan_to_protocol(synthesize_plan(H0, random_coupling(rng), 0.4), 50)
    if kind == "compile":
        return compile_to_native(decompose_gate(random_symplectic(rng, factors=2, tmax=0.5)), H0, slices=100)
    if kind == "distinct":
        rows = random_rows(rng, rng.uniform(0.0, 1e-3, size=1000))
        return Protocol.from_dict(reference_protocol_dict(random_coupling(rng), rows, random_rotation_pair(rng)))
    rows = random_rows(rng, [0.01])[: 1 if kind == "one step" else 0]
    return Protocol(random_coupling(rng), rows, np.arange(len(rows)), random_rotation_pair(rng))


@pytest.mark.parametrize("kind", ["flip", "plan", "compile", "distinct", "empty", "one step"])
class TestDeferredNodes:
    def test_final_and_len_form_no_stack(self, monkeypatch, rng, kind):
        protocol = _deferral_protocol(rng, kind)
        gamma0 = random_pure_cm(rng)
        monkeypatch.setattr(twomode.protocols, "_gram_pass", lambda *args: pytest.fail("the node stack was formed"))
        traj = run_protocol(gamma0, protocol)
        assert len(traj) == len(protocol.index) + 1
        _, cms = reference_run_protocol(gamma0, protocol)
        assert np.max(np.abs(traj.final - cms[-1])) <= _REL * np.max(np.abs(cms[-1]))

    def test_final_is_the_scans_last_node(self, rng, kind):
        """``final`` has the bits of the scan's last node, rotated, and ``cms[-1]`` has the bits of ``final``."""
        protocol = _deferral_protocol(rng, kind)
        gamma0 = random_pure_cm(rng)
        table = protocol.table
        steps = evolve(protocol.native_k, np.ascontiguousarray(table[:, 2])) @ _pair_matrix(table[:, :2])
        last = apply_symplectic(protocol.final.matrix, _prefix_scan(steps, protocol.index, gamma0)[-1])
        traj = run_protocol(gamma0, protocol)
        final = traj.final.copy()
        assert final.tobytes() == last.tobytes()
        assert traj.cms[-1].tobytes() == final.tobytes() == traj.final.tobytes()
        formed_first = run_protocol(gamma0, protocol)
        assert formed_first.cms.tobytes() == traj.cms.tobytes()
        assert formed_first.final.tobytes() == final.tobytes()

    def test_cms_is_formed_once(self, monkeypatch, rng, kind):
        traj = run_protocol(random_pure_cm(rng), _deferral_protocol(rng, kind))
        cms = traj.cms
        monkeypatch.setattr(twomode.protocols, "_gram_pass", lambda *args: pytest.fail("the node stack was formed again"))
        assert traj.cms is cms and len(traj) == len(cms)
        assert traj.final.tobytes() == cms[-1].tobytes()
