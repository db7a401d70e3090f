"""Stacked report kernel and step cache against per-node reference loops.

The references are written out node by node with general-purpose NumPy
linear algebra (spectra, SVDs, the pure-state standard form), so they share
no closed form with the stacked kernel.
"""

import json

import numpy as np
import pytest

from helpers import random_coupling, random_pure_cm, random_rotation_pair
from twomode.cli import _flow_trajectory, main, reproduce_figures
from twomode.core import (
    J2,
    H0,
    CMStack,
    LocalRotationPair,
    NotPureError,
    _as_k,
    apply_symplectic,
    assert_valid_cm,
    evolve,
    generator,
    pure_standard_form,
    restricted_svd,
    squeezed_product_cm,
    vacuum_cm,
    valid_cm_stack,
)
from twomode.measures import entanglement, negativity, report_columns, squeezing
from twomode.protocols import (
    flip_effective_coupling,
    flip_strategy,
    greedy_rate_strategy,
    greedy_rate_walk,
    run_protocol,
)
from twomode.rates import entanglement_rate, optimal_entanglement_rate, optimal_squeezing_rate
from twomode.simulate import Protocol

_PARTIAL_TRANSPOSE = np.diag([1.0, 1.0, 1.0, -1.0])


def reference_columns(cms, k):
    """Per-node loop over the reference implementations of every column."""
    _, svals, _ = restricted_svd(generator(k).L)
    rows = []
    for g in cms:
        gt = _PARTIAL_TRANSPOSE @ g @ _PARTIAL_TRANSPOSE
        spec = np.abs(np.linalg.eigvals(J2.T @ gt @ J2 @ gt))
        lam = np.linalg.eigh(g)[0][0]
        a, c = g[:2, :2], g[:2, 2:]
        if -np.linalg.det(c) < 1e-14:
            form = pure_standard_form(g)
            l = sum(np.log(np.linalg.svd(s, compute_uv=False)[0]) for s in (form.S1, form.S2))
        else:
            y = np.sqrt(np.linalg.det(a) / -np.linalg.det(c)) * (c.T @ np.linalg.inv(a))
            l = np.log(max(np.linalg.svd(y, compute_uv=False)[0], 1.0))
        rows.append(
            (
                pure_standard_form(g).r,
                float(np.min(spec)) ** -0.5,
                1.0 / lam,
                -np.log(lam),
                svals.s1 * np.exp(l) - svals.s2 * np.exp(-l),
            )
        )
    return dict(zip(("E0", "negativity", "S", "Q", "rate"), np.array(rows).T))


def assert_columns_match(cols, ref):
    assert np.max(np.abs(cols["E0"] - ref["E0"])) <= 1e-7
    for key in ("negativity", "S", "Q", "rate"):
        scale = np.maximum(1.0, np.abs(ref[key]))
        assert np.max(np.abs(cols[key] - ref[key]) / scale) <= 1e-7, key


def _random_start(rng):
    r1, r2 = rng.uniform(0.0, 0.8, size=2)
    return apply_symplectic(random_rotation_pair(rng).matrix, squeezed_product_cm(r1, r2))


class TestColumnsMatchReferenceLoops:
    def test_random_pure_states(self, rng):
        cms = np.array([random_pure_cm(rng) for _ in range(300)])
        k = random_coupling(rng)
        assert_columns_match(report_columns(cms, k), reference_columns(cms, k))

    def test_flip_trajectory(self, rng):
        k = random_coupling(rng)
        traj = run_protocol(_random_start(rng), flip_strategy(k, 1.0, 200))
        assert_columns_match(report_columns(traj.cms, k), reference_columns(traj.cms, k))

    def test_greedy_trajectory(self, rng):
        k = random_coupling(rng)
        traj = greedy_rate_strategy(_random_start(rng), k, 0.5, 2e-3)
        ref = reference_columns(traj.cms, k)
        assert_columns_match(traj.columns(), ref)

    def test_tms_and_bare_trajectories(self, rng):
        k = random_coupling(rng)
        times = np.linspace(0.0, 1.0, 201)
        gamma0 = _random_start(rng)
        for traj in (
            _flow_trajectory(gamma0, flip_effective_coupling(k), times, k),
            _flow_trajectory(gamma0, k, times, k),
        ):
            assert_columns_match(traj.columns(), reference_columns(traj.cms, k))

    def test_scalar_functions_are_batches_of_one(self, rng):
        k = random_coupling(rng)
        cms = np.array([random_pure_cm(rng) for _ in range(20)] + [squeezed_product_cm(0.3, 0.1)])
        cols = report_columns(cms, k)
        for i, g in enumerate(cms):
            sq, plan = squeezing(g), optimal_squeezing_rate(g, k)
            assert entanglement(g).r == cols["E0"][i]
            assert negativity(g) == cols["negativity"][i]
            assert (sq.squeezing, sq.q) == (cols["S"][i], cols["Q"][i])
            assert optimal_entanglement_rate(g, k).rate == cols["rate"][i]
            # The squeezing report and the squeezing rate read one eigenvector and one lambda_min.
            assert np.array_equal(np.concatenate([sq.x1, sq.x2]), plan.x)
            assert (sq.lambda_min, sq.degenerate) == (plan.lambda_min, plan.degenerate)


class TestStackValidation:
    @pytest.fixture
    def stack(self, rng):
        return np.array([random_pure_cm(rng) for _ in range(10)])

    def test_one_mixed_node_raises_not_pure(self, stack):
        stack[4] = 1.5 * np.eye(4)
        with pytest.raises(NotPureError):
            report_columns(stack, H0)

    @pytest.mark.parametrize("defect", ["asymmetric", "non-finite", "not positive definite"])
    def test_one_invalid_node_raises_value_error(self, stack, defect):
        bad = stack[6].copy()
        if defect == "asymmetric":
            bad[0, 3] += 1e-3
        elif defect == "non-finite":
            bad[2, 2] = np.nan
        else:
            bad = np.diag([-1.0, -1.0, 1.0, 1.0])
        stack[6] = bad
        with pytest.raises(ValueError) as excinfo:
            report_columns(stack, H0)
        assert not isinstance(excinfo.value, NotPureError)
        with pytest.raises(ValueError):
            assert_valid_cm(bad)

    def test_greedy_walk_rejects_mixed_start(self):
        with pytest.raises(NotPureError):
            greedy_rate_strategy(1.5 * np.eye(4), H0, 0.01, 1e-3)


class TestOneValidationPerReport:
    """A reported trajectory's N-node stack is validated once, whatever the strategy."""

    @pytest.fixture
    def validated_shapes(self, monkeypatch):
        import twomode.cli
        import twomode.core
        import twomode.measures

        shapes = []

        def recording(cms, pure=False):  # a CMStack is passed through, not checked: count raw arrays only
            if not isinstance(cms, CMStack):
                shapes.append(np.shape(cms))
            return valid_cm_stack(cms, pure)

        for module in (twomode.core, twomode.measures, twomode.cli):
            monkeypatch.setattr(module, "valid_cm_stack", recording)
        return shapes

    @pytest.mark.parametrize("strategy", ["greedy", "flip", "tms", "bare"])
    def test_run(self, validated_shapes, strategy, tmp_path):
        out = tmp_path / "run.csv"
        argv = ["run", "--hamiltonian", "h0", "--state", "squeezed:0.5,0.2", "--t", "0.1"]
        argv += ["--strategy", strategy, "--steps", "100", "--out", str(out)]
        assert main(argv) == 0
        nodes = len(out.read_text().splitlines()) - 1
        assert nodes == 101
        assert validated_shapes.count((nodes, 4, 4)) == 1

    def test_figure(self, validated_shapes, tmp_path):
        reproduce_figures("fig1", str(tmp_path))
        assert validated_shapes.count((1501, 4, 4)) == 3

    @pytest.fixture
    def coupling_checks(self, monkeypatch):
        import twomode.core
        import twomode.gates
        import twomode.protocols
        import twomode.rates
        import twomode.simulate

        calls = []

        def recording(k):
            calls.append(np.shape(k))
            return _as_k(k)

        modules = (twomode.core, twomode.rates, twomode.protocols, twomode.simulate, twomode.gates)
        for module in modules:
            if hasattr(module, "_as_k"):
                monkeypatch.setattr(module, "_as_k", recording)
        return calls

    @pytest.mark.parametrize("state", ["vacuum", "squeezed:0.5,0.2", "file"])
    @pytest.mark.parametrize("strategy", ["greedy", "flip", "tms", "bare"])
    def test_run_checks_its_start_state_once_per_boundary(
        self, validated_shapes, monkeypatch, tmp_path, strategy, state
    ):
        """The CLI checks every state once, and hands the library the validated stack.

        Behind it, only the greedy walk checks a node again, once per locked
        stretch (``pure_standard_form`` in ``_neutral_flip_base``).
        """
        import twomode.cli

        walks = []

        def recording_walk(*args):
            walks.append(greedy_rate_walk(*args))
            return walks[-1]

        monkeypatch.setattr(twomode.cli, "greedy_rate_walk", recording_walk)
        if state == "file":
            state = tmp_path / "state.json"
            state.write_text(json.dumps(squeezed_product_cm(0.5, 0.2).ravel().tolist()))
        argv = ["run", "--hamiltonian", "h0", "--state", str(state), "--t", "0.1"]
        argv += ["--strategy", strategy, "--steps", "100", "--out", str(tmp_path / "run.csv")]
        assert main(argv) == 0
        expected = 1 + len(walks[0].lock_stretches) if strategy == "greedy" else 1
        assert validated_shapes.count((4, 4)) == expected
        assert validated_shapes.count((101, 4, 4)) == 1

    @pytest.mark.parametrize("state", ["vacuum", "squeezed:0.5,0.2", "tms:0.3", "pure", "mixed"])
    @pytest.mark.parametrize(
        "command",
        [["measure"], ["rates", "--hamiltonian", "h0"], ["evolve", "--hamiltonian", "h0", "--t", "0.3"]],
        ids=["measure", "rates", "evolve"],
    )
    def test_a_state_query_checks_its_state_once(self, validated_shapes, tmp_path, command, state):
        """Including a mixed JSON state, which ``measure`` reports and ``rates`` refuses (exit 2)."""
        code = 2 if state == "mixed" and command[0] == "rates" else 0
        if state in ("pure", "mixed"):
            gamma = random_pure_cm(np.random.default_rng(3)) if state == "pure" else 1.5 * np.eye(4)
            state = tmp_path / "state.json"
            state.write_text(json.dumps(gamma.ravel().tolist()))
        assert main([*command, "--state", str(state)]) == code
        assert validated_shapes == [(4, 4)]

    @pytest.mark.parametrize(
        "query",
        [
            optimal_entanglement_rate,
            optimal_squeezing_rate,
            lambda g, k: entanglement_rate(g, k, LocalRotationPair()),
            lambda g, k: report_columns(np.stack([g, g]), k),
        ],
        ids=["optimal_entanglement_rate", "optimal_squeezing_rate", "entanglement_rate", "report"],
    )
    def test_one_coupling_check_per_rate_query(self, coupling_checks, rng, query):
        gamma, k = random_pure_cm(rng), random_coupling(rng)
        coupling_checks.clear()
        query(gamma, k)
        assert coupling_checks == [(2, 2)]


class TestStepCache:
    def test_matches_uncached_step_products(self, rng):
        k = random_coupling(rng)
        pairs = [random_rotation_pair(rng) for _ in range(3)] + [LocalRotationPair()]
        durations = [0.01, 0.02, 0.005]
        steps = [(pairs[i % 4], durations[i % 3]) for i in range(300)]
        rows = [(pair.phi1, pair.phi2, duration) for pair, duration in steps]
        protocol = Protocol(k, rows, np.arange(300), random_rotation_pair(rng))
        gamma0 = random_pure_cm(rng)
        traj = run_protocol(gamma0, protocol)
        gamma = gamma0
        for i, (pair, duration) in enumerate(steps, start=1):
            gamma = apply_symplectic(pair.matrix, gamma)
            gamma = apply_symplectic(evolve(k, duration), gamma)
            if i < len(steps):
                assert np.max(np.abs(traj.cms[i] - gamma)) <= 1e-12 * np.max(np.abs(gamma))
        gamma = apply_symplectic(protocol.final.matrix, gamma)
        assert np.max(np.abs(traj.final - gamma)) <= 1e-12 * np.max(np.abs(gamma))
        assert np.allclose(traj.times, np.cumsum([0.0] + [duration for _, duration in steps]))

    def test_flip_strategy_builds_two_fused_steps(self, monkeypatch):
        import twomode.protocols

        durations = []

        def counting_evolve(k, t):
            durations.append(t)
            return evolve(k, t)

        monkeypatch.setattr(twomode.protocols, "evolve", counting_evolve)
        traj = run_protocol(vacuum_cm(), flip_strategy(H0, 1.0, 1000))
        assert sum(np.size(t) for t in durations) == 2
        assert traj.cms.shape == (1001, 4, 4)
