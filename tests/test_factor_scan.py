"""The factor form of the prefix scan and the flip strategy's trailing rotation.

``run_protocol`` forms node ``i`` as the Gram product ``X_i X_i^T`` of
``X_i = P_i F``, with ``F`` the Cholesky factor of ``gamma0``.  Node 0 must
still be ``gamma0`` bit for bit, the time grid must be the plain cumulative
sum of the durations, mixed and strongly squeezed starts must agree with the
per-step reference loop, and the scan must hold no second stack of nodes.
"""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import random_coupling, random_pure_cm, random_symplectic, reference_run_protocol
from twomode.core import (
    H0,
    HTMS,
    LocalRotationPair,
    apply_symplectic,
    assert_valid_cm,
    squeezed_product_cm,
    two_mode_squeezed_cm,
    vacuum_cm,
)
from twomode.gates import compile_to_native, decompose_gate
from twomode.protocols import _FLIP, flip_strategy, run_protocol
from twomode.simulate import plan_to_protocol, synthesize_plan

_REL = 1e-10


def _protocols(rng):
    """A flip run, a random plan and a compiled gate."""
    return [
        flip_strategy(H0, 1.0, 300),
        plan_to_protocol(synthesize_plan(H0, random_coupling(rng), 0.4), 50),
        compile_to_native(decompose_gate(random_symplectic(rng, factors=2, tmax=0.5)), H0, 100),
    ]


def _mixed_cm(rng):
    s = random_symplectic(rng, factors=2, tmax=0.6)
    return apply_symplectic(s, np.diag([1.3, 1.3, 2.5, 2.5]))


class TestFactorScan:
    def test_first_node_is_gamma0(self, rng):
        starts = [vacuum_cm(), squeezed_product_cm(0.8, 0.3), random_pure_cm(rng), _mixed_cm(rng)]
        for gamma0 in starts:
            for protocol in _protocols(rng):
                traj = run_protocol(gamma0, protocol)
                assert np.array_equal(traj.cms[0], assert_valid_cm(gamma0))

    def test_times_are_the_cumulative_durations(self, rng):
        for protocol in _protocols(rng):
            durations = protocol.steps[:, 2].tolist()
            traj = run_protocol(vacuum_cm(), protocol)
            assert np.array_equal(traj.times, np.cumsum([0.0, *durations]))

    @pytest.mark.parametrize("start", ["mixed", "tms:3.25"])
    def test_matches_reference(self, rng, start):
        gamma0 = _mixed_cm(rng) if start == "mixed" else two_mode_squeezed_cm(3.25)
        for protocol in _protocols(rng):
            traj = run_protocol(gamma0, protocol)
            _, cms = reference_run_protocol(gamma0, protocol)
            assert np.array_equal(traj.cms, traj.cms.transpose(0, 2, 1))
            err = np.max(np.abs(traj.cms - cms), axis=(1, 2))
            assert np.all(err <= _REL * np.max(np.abs(cms), axis=(1, 2)))

    def test_memory_stays_near_the_result(self):
        protocol = flip_strategy(H0, 1.0, 10**5)
        tracemalloc.start()
        try:
            traj = run_protocol(vacuum_cm(), protocol)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * traj.cms.nbytes


class TestFlipTrailingRotation:
    def test_four_flips_make_a_full_turn(self):
        full_turn = np.linalg.matrix_power(_FLIP.matrix, 4)
        assert np.max(np.abs(full_turn - np.eye(4))) <= 1e-15

    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 5, 10**5 + 2, 10**6 + 3])
    def test_final_undoes_the_flips(self, steps):
        final = flip_strategy(HTMS, 1.0, steps).final
        m, two_pi = (steps - 1) % 4, 2.0 * math.pi
        assert final == LocalRotationPair((-m * _FLIP.phi1) % two_pi, (-m * _FLIP.phi2) % two_pi)
        flips = np.linalg.matrix_power(_FLIP.matrix, m)  # the steps - 1 flips, full turns dropped
        assert np.max(np.abs(final.matrix @ flips - np.eye(4))) <= 1e-15
