"""One spectral path: ``S``, ``Q``, ``lambda_min`` and the squeezing direction are read
from the validation spectrum by every command, and the upper bound has one formula."""

import contextlib
import csv
import io
import json

import numpy as np
import pytest

from helpers import random_coupling, random_pure_cm
from twomode.cli import main, reproduce_figures
from twomode.core import H0, matrix_to_list, two_mode_squeezed_cm, vacuum_cm, valid_cm_stack
from twomode.measures import squeezing
from twomode.protocols import finite_time_bounds
from twomode.rates import _balanced_min_eigenvector, optimal_squeezing_rate


def run_cli(*argv):
    """Exit code and stdout of ``main(argv)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.fixture
def json_state(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"cm": matrix_to_list(random_pure_cm(np.random.default_rng(4)))}))
    return str(path)


class TestMeasureMatchesTheReport:
    @pytest.mark.parametrize("state", ["vacuum", "squeezed:0.5,0.2", "tms:0.3", "json"])
    def test_measure_s_and_q_are_the_bytes_of_run_node_0(self, state, json_state):
        state = json_state if state == "json" else state
        code, out = run_cli("measure", "--state", state)
        assert code == 0
        measured = json.loads(out)
        code, out = run_cli(
            "run", "--hamiltonian", "h0", "--state", state, "--strategy", "flip",
            "--t", "0.1", "--steps", "4",
        )
        assert code == 0
        node0 = next(csv.DictReader(io.StringIO(out)))
        assert (node0["S"], node0["Q"]) == (repr(measured["S"]), repr(measured["Q"]))

    @pytest.mark.parametrize(
        "gamma", [vacuum_cm(), two_mode_squeezed_cm(0.3), np.diag([np.e, 1 / np.e, np.e, 1 / np.e])]
    )
    def test_measure_reports_the_direction_the_rate_uses(self, gamma):
        """Degenerate lambda_min: the reported vector is the balanced one, g_S = 2|x1||x2| = 1."""
        sq, plan = squeezing(gamma), optimal_squeezing_rate(gamma, H0)
        assert sq.degenerate
        assert np.array_equal(np.concatenate([sq.x1, sq.x2]), plan.x)
        assert 2.0 * np.linalg.norm(sq.x1) * np.linalg.norm(sq.x2) == pytest.approx(1.0, abs=1e-15)
        assert sq.lambda_min == plan.lambda_min == valid_cm_stack(gamma).eigenvalues[0, 0]

    def test_eigenspace_inside_mode_1_cannot_be_squeezed(self):
        """``diag(1, 1, 2, 2)``: the lambda_min eigenspace is all of mode 1."""
        stack = valid_cm_stack(np.diag([1.0, 1.0, 2.0, 2.0]))
        x, degenerate = _balanced_min_eigenvector(stack)
        assert degenerate and np.linalg.norm(x[2:]) == 0.0
        plan = optimal_squeezing_rate(stack.cms[0], random_coupling(np.random.default_rng(1)))
        assert plan.squeezability == 0.0 and plan.rate == 0.0
        assert np.array_equal(plan.rotation, np.eye(2))


class TestOneBoundFormula:
    def test_every_figure_n_bound_is_the_bounds_value_at_its_t(self, tmp_path):
        path = reproduce_figures("fig3", str(tmp_path))
        with open(path, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            t = float(row["t"])
            assert row["N_bound"] == repr(finite_time_bounds(H0, t, 2.0, 2.0)[1]), t
        code, out = run_cli("bounds", "--hamiltonian", "h0", "--t", "0.0051", "--r1", "2", "--r2", "2")
        assert code == 0
        assert repr(json.loads(out)["N_bound"]) == rows[51]["N_bound"]
