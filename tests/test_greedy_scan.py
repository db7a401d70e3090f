"""The chunk-scanned greedy walk against the per-node reference loop.

Locked and coasting stretches run through the shared prefix scan, so their
rounding differs from stepping one CM at a time; every node must agree with
``helpers.reference_greedy_rate_walk`` to 1e-10 of that node's largest
entry, and the walk must lock and unlock at exactly the same nodes.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import random_coupling, random_pure_cm, reference_greedy_rate_walk
from twomode.core import (
    H0,
    HBS,
    _pair_matrix,
    _rsvd_angles,
    apply_symplectic,
    evolve,
    generator,
    squeezed_product_cm,
    two_mode_squeezed_cm,
    vacuum_cm,
)
from twomode.protocols import (
    _FIRST_CHUNK,
    flip_strategy,
    greedy_rate_walk,
    run_protocol,
    uniform_grid,
)
from twomode.rates import _rate_kernel

_REL = 1e-10

INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"


def _bench_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_matches_reference(gamma0, k, times, lock_band=None):
    """Run both walks; return the new walk's trajectory."""
    traj = greedy_rate_walk(gamma0, k, times, lock_band)
    cms, stretches = reference_greedy_rate_walk(gamma0, k, times, lock_band)
    assert traj.cms.shape == cms.shape
    assert traj.lock_stretches == stretches
    err = np.max(np.abs(traj.cms - cms), axis=(1, 2))
    assert np.all(err <= _REL * np.max(np.abs(cms), axis=(1, 2)))
    return traj


def _fig1():
    return squeezed_product_cm(0.0, 2.5), np.round(np.arange(0, 1500 + 1) * 1e-3, 9)


def _fig3():
    s_r = np.diag([math.e, 1.0 / math.e, math.e, 1.0 / math.e])
    fine = np.arange(0, 100 + 1) * 1e-4
    coarse = 0.01 + np.arange(1, 990 + 1) * 1e-3
    gamma0 = apply_symplectic(s_r, two_mode_squeezed_cm(0.5e-3))
    return gamma0, np.round(np.concatenate([fine, coarse]), 9)


def _chunk_edges(count=4):
    """Offsets from a stretch's first node at which a scanned chunk starts."""
    edges, edge, width = [], 1, _FIRST_CHUNK
    for _ in range(count):
        edge += width
        edges.append(edge)
        width *= 2
    return edges


class TestWalkMatchesLoop:
    def test_vacuum_locks_at_once(self):
        traj = assert_matches_reference(vacuum_cm(), H0, uniform_grid(1.0, 1e-3))
        assert traj.lock_stretches == [(0, 999)]

    @pytest.mark.parametrize("figure", [_fig1, _fig3])
    def test_figure_inputs(self, figure):
        gamma0, times = figure()
        traj = assert_matches_reference(gamma0, H0, times)
        assert len(traj.lock_stretches) == 1

    def test_squeezed_product_unlocks_late(self):
        traj = assert_matches_reference(squeezed_product_cm(0.5, 1.0), H0, uniform_grid(1.5, 1e-3))
        ((first, last),) = traj.lock_stretches
        assert 0 < first < last == 1499

    def test_random_pure_states(self, rng):
        for _ in range(4):
            assert_matches_reference(random_pure_cm(rng), H0, uniform_grid(0.6, 1e-3))
            assert_matches_reference(random_pure_cm(rng), random_coupling(rng), uniform_grid(0.6, 1e-3))

    def test_nonuniform_grid(self, rng):
        times = np.cumsum(np.concatenate([[0.0], rng.uniform(2e-4, 2e-3, size=700)]))
        for gamma0 in (vacuum_cm(), squeezed_product_cm(0.4, 0.9), random_pure_cm(rng)):
            for k in (H0, random_coupling(rng)):
                assert_matches_reference(gamma0, k, times)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_benchmark_greedy_inputs(self, seed):
        ops = [op for op in _bench_inputs().trajectory_inputs(seed) if op["strategy"] == "greedy"]
        assert len(ops) == 3
        for op in ops:
            times = uniform_grid(op["t"], op["dt"])
            assert_matches_reference(np.array(op["cm"]), np.array(op["k"]), times)

    @pytest.mark.parametrize("nodes", [1, 2, 3])
    def test_short_walks(self, rng, nodes):
        times = np.arange(nodes) * 1e-3
        for gamma0 in (vacuum_cm(), random_pure_cm(rng)):
            traj = assert_matches_reference(gamma0, random_coupling(rng), times)
            assert len(traj) == nodes
        assert greedy_rate_walk(vacuum_cm(), H0, times).lock_stretches == (
            [] if nodes == 1 else [(0, nodes - 2)]
        )

    @pytest.mark.parametrize("edge", _chunk_edges())
    def test_stretch_ends_around_chunk_edges(self, rng, edge):
        """Walks whose last node falls just before, at and after a chunk edge."""
        k = random_coupling(rng)
        for last in (edge - 1, edge, edge + 1):
            traj = assert_matches_reference(vacuum_cm(), k, np.arange(last + 1) * 1e-3)
            assert traj.lock_stretches == [(0, last - 1)]

    def test_flip_stretch_is_the_flip_protocol(self):
        """From the vacuum under H0 the walk's nodes are those of ``flip_strategy``."""
        walk = greedy_rate_walk(vacuum_cm(), H0, uniform_grid(1.0, 1e-3))
        flip = run_protocol(vacuum_cm(), flip_strategy(H0, 1.0, 1000))
        err = np.max(np.abs(walk.cms[:-1] - flip.cms[:-1]), axis=(1, 2))
        assert np.all(err <= _REL * np.max(np.abs(flip.cms[:-1]), axis=(1, 2)))


class TestLeavingTheBand:
    """From the vacuum under a generic coupling the locked walk's ``l`` grows
    node by node, so a band between two successive values cuts the stretch
    at a chosen node."""

    @staticmethod
    def _band_cutting_at(k, times, node):
        cms, stretches = reference_greedy_rate_walk(vacuum_cm(), k, times, lock_band=1.0)
        assert stretches == [(0, len(times) - 2)]
        l = _rate_kernel(cms)[2]
        assert np.all(np.diff(l[: node + 1]) > 0)
        return (l[node - 1] + l[node]) / 2.0

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_cut_around_chunk_edges(self, rng, offset):
        k = random_coupling(rng)
        times = np.arange(301) * 1e-3
        for node in [1, 2] + [edge + offset for edge in _chunk_edges(3)]:
            band = self._band_cutting_at(k, times, node)
            traj = assert_matches_reference(vacuum_cm(), k, times, lock_band=band)
            assert traj.lock_stretches[0] == (0, node - 1)  # the reference left the band at node

    def test_band_below_zero_frees_every_node(self, rng):
        traj = assert_matches_reference(random_pure_cm(rng), HBS, uniform_grid(0.3, 1e-3), -1.0)
        assert traj.lock_stretches == []


def _coasting_loop(gamma0, k, times, tol):
    """Per-node loop of the free walk's coasting rule (no lock band).

    A node rotates by its optimal pair, except that after a node whose pair
    was ``+-I`` to ``tol`` every further such node takes the flow alone.
    Returns the CMs and which nodes took the flow alone.
    """
    theta_l, _, _, psi_l = (float(x) for x in _rsvd_angles(generator(k).L))
    cms = np.empty((len(times), 4, 4))
    cms[0] = gamma0
    coasted = np.zeros(len(times) - 1, dtype=bool)
    identity = False
    for i, dt in enumerate(np.diff(times)):
        phi1, phi2 = _rate_kernel(cms[i][None], theta_l, psi_l)[3][0].tolist()
        after_identity = identity
        identity = abs(math.sin((phi1 + phi2) / 2)) + abs(math.sin((phi1 - phi2) / 2)) <= tol
        coasted[i] = after_identity and identity
        rotation = np.eye(4) if coasted[i] else _pair_matrix([phi1, phi2])
        cms[i + 1] = apply_symplectic(evolve(k, dt) @ rotation, cms[i])
    return cms, coasted


class TestCoasting:
    """From a squeezed product the optimal pair stays ``+-I`` after the first
    free node, so the free walk coasts through the scan."""

    @pytest.mark.parametrize("k", [H0, np.array([[0.3, -1.1], [0.8, 0.2]])])
    def test_squeezed_product_free_walk(self, k):
        times = uniform_grid(1.0, 1e-3)
        traj = assert_matches_reference(squeezed_product_cm(0.5, 0.2), k, times, -1.0)
        assert traj.lock_stretches == []

    def test_cut_where_a_rotation_is_needed(self, monkeypatch, rng):
        """A coarse tolerance lets a generic state coast a few nodes at a time."""
        import twomode.protocols

        tol = 1e-3
        monkeypatch.setattr(twomode.protocols, "_COAST_TOL", tol)
        gamma0, times = random_pure_cm(rng), np.arange(201) * 1e-3
        cms, coasted = _coasting_loop(gamma0, H0, times, tol)
        traj = greedy_rate_walk(gamma0, H0, times, -1.0)
        err = np.max(np.abs(traj.cms - cms), axis=(1, 2))
        assert np.all(err <= _REL * np.max(np.abs(cms), axis=(1, 2)))
        assert np.count_nonzero(coasted[:-1] & ~coasted[1:]) > 5  # coasts, each cut by a rotation


class TestLockStretchesField:
    def test_other_strategies_record_none(self):
        assert run_protocol(vacuum_cm(), flip_strategy(H0, 1.0, 10)).lock_stretches is None

    def test_no_new_csv_column(self):
        traj = greedy_rate_walk(vacuum_cm(), H0, uniform_grid(0.1, 1e-3))
        assert traj.csv_text().splitlines()[0] == "t,E0,negativity,S,Q,rate"
        assert set(traj.reports()[0]) == {"t", "E0", "negativity", "S", "Q", "rate"}


class TestKernelCalls:
    """``_rsvd_angles`` runs once per free node that rotates, and O(log N) times
    per locked or coasting stretch."""

    @staticmethod
    def _count(monkeypatch, *args, **kwargs):
        import twomode.core
        import twomode.protocols
        import twomode.rates

        calls = []
        original = twomode.core._rsvd_angles

        def counting(m):
            calls.append(np.shape(m))
            return original(m)

        for module in (twomode.core, twomode.rates, twomode.protocols):
            monkeypatch.setattr(module, "_rsvd_angles", counting)
        greedy_rate_walk(*args, **kwargs)
        return len(calls)

    def test_locked_walk_scales_with_log_n(self, monkeypatch):
        n = 20_000
        calls = self._count(monkeypatch, vacuum_cm(), H0, uniform_grid(1.0, 1.0 / n))
        assert calls <= 2 * math.log2(n) + 20

    def test_free_walk_calls_once_per_node(self, monkeypatch, rng):
        n = 300
        calls = self._count(monkeypatch, random_pure_cm(rng), H0, np.arange(n + 1) * 1e-3, -1.0)
        assert n <= calls <= n + 5

    def test_coasting_walk_scales_with_log_n(self, monkeypatch):
        n = 20_000
        gamma0 = squeezed_product_cm(0.5, 0.2)
        calls = self._count(monkeypatch, gamma0, H0, uniform_grid(1.0, 1.0 / n))
        assert calls <= 4 * math.log2(n) + 20

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_benchmark_greedy_inputs(self, monkeypatch, seed):
        for op in _bench_inputs().trajectory_inputs(seed):
            if op["strategy"] == "greedy":
                times = uniform_grid(op["t"], op["dt"])
                calls = self._count(monkeypatch, np.array(op["cm"]), np.array(op["k"]), times)
                assert calls <= 4 * math.log2(times.size) + 20
