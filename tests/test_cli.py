"""Tests for the command-line interface: outputs, formats, exit codes."""

import json

import numpy as np
import pytest

from twomode.cli import main, reproduce_figures
from twomode.core import HBS, evolve, matrix_to_list, k_to_dict, kmatrix
from twomode.simulate import Protocol


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_rsv_preset(self, capsys):
        code, out, _ = run_cli(capsys, "rsv", "--hamiltonian", "preset:htms")
        assert code == 0
        assert json.loads(out) == {"s1": 1.0, "s2": -1.0}

    def test_rsv_from_file(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(k_to_dict(kmatrix(a=0.3, b=-0.1, c=0.2, d=0.7))))
        code, out, _ = run_cli(capsys, "rsv", "--hamiltonian", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["s1"] >= abs(payload["s2"])

    def test_simcheck(self, capsys):
        code, out, _ = run_cli(capsys, "simcheck", "--hamiltonian", "h0", "--target", "htms")
        assert code == 0
        assert json.loads(out) == {"efficient": False}

    def test_tmin_value(self, capsys):
        code, out, _ = run_cli(capsys, "tmin", "--hamiltonian", "h0", "--target", "hbs", "--t", "1")
        assert code == 0
        assert float(out.strip()) == 2.0

    def test_measure_vacuum(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--state", "vacuum")
        assert code == 0
        payload = json.loads(out)
        assert payload["r"] == 0.0
        assert payload["negativity"] == 1.0
        assert payload["S"] == 1.0

    def test_measure_tms_state(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--state", "tms:0.5")
        payload = json.loads(out)
        assert payload["negativity"] == pytest.approx(np.exp(1.0))
        assert payload["Q"] == pytest.approx(1.0)

    def test_rates_squeezed_input(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--hamiltonian", "h0", "--state", "squeezed:0,2.5"
        )
        payload = json.loads(out)
        assert payload["entanglement_rate"] == pytest.approx(np.exp(1.25))
        assert payload["l"] == pytest.approx(1.25)
        assert payload["C_S"] == 1.0

    def test_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--hamiltonian", "h0", "--t", "1")
        payload = json.loads(out)
        assert payload["S_bound"] == pytest.approx(np.e)
        assert payload["N_bound"] == pytest.approx(np.e)

    def test_evolve_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--hamiltonian", "h0", "--t", "0.7")
        payload = json.loads(out)
        assert np.allclose(np.array(payload["symplectic"]).reshape(4, 4), evolve
(kmatrix(a=1.0), 0.7))

    def test_plan_written_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "plan.json"
        code, _, _ = run_cli(
            capsys,
            "plan",
            "--hamiltonian",
            "h0",
            "--target",
            "htms",
            "--t",
            "1",
            "--out",
            str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["t"] == 2.0
        assert sum(term["weight"] for term in payload["terms"]) == pytest.approx(1.0)


class TestRunCommand:
    def test_csv_output(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run_cli(
            capsys,
            "run",
            "--hamiltonian",
            "h0",
            "--state",
            "vacuum",
            "--strategy",
            "flip",
            "--t",
            "0.5",
            "--steps",
            "40",
            "--out",
            str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "t,E0,negativity,S,Q,rate"
        assert len(lines) == 42

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--hamiltonian",
            "h0",
            "--strategy",
            "greedy",
            "--t",
            "0.01",
            "--dt",
            "0.002",
            "--format",
            "json",
        )
        rows = json.loads(out)
        assert rows[0]["rate"] == pytest.approx(1.0)

    def test_protocol_file_strategy(self, capsys, tmp_path):
        from twomode.simulate import plan_to_protocol, synthesize_plan

        protocol = plan_to_protocol(synthesize_plan(kmatrix(a=1.0), HBS, 0.3), 20)
        path = tmp_path / "protocol.json"
        path.write_text(protocol.to_json())
        code, out, _ = run_cli(
            capsys,
            "run",
            "--hamiltonian",
            "h0",
            "--strategy",
            f"file:{path}",
            "--format",
            "json",
        )
        assert code == 0
        assert len(json.loads(out)) == len(protocol.steps) + 1

    def test_determinism(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run_cli(
                capsys,
                "run",
                "--hamiltonian",
                "h0",
                "--strategy",
                "greedy",
                "--t",
                "0.05",
                "--out",
                str(path),
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()


    @pytest.mark.parametrize("strategy", ["greedy", "tms", "bare"])
    @pytest.mark.parametrize("grid", [("0.1", "0"), ("0.1", "-0.001"), ("inf", "0.001")])
    def test_invalid_grid_is_validation_error(self, capsys, strategy, grid):
        t, dt = grid
        code, out, err = run_cli(
            capsys, "run", "--hamiltonian", "h0", "--strategy", strategy, f"--t={t}", f"--dt={dt}"
        )
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_stdout_and_file_csv_identical(self, capsys, tmp_path):
        argv = ["run", "--hamiltonian", "h0", "--state", "squeezed:0.4", "--t", "0.05"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / "traj.csv"
        run_cli(capsys, *argv, "--out", str(path))
        assert out == path.read_text()


class TestGateCommands:
    def test_decompose_then_compile(self, capsys, tmp_path):
        gate_path = tmp_path / "gate.json"
        gate_path.write_text(json.dumps(matrix_to_list(evolve(HBS, np.pi / 2.0))))
        seq_path = tmp_path / "seq.json"
        code, _, _ = run_cli(capsys, "decompose", "--gate", str(gate_path), "--out", str(seq_path))
        assert code == 0
        seq = json.loads(seq_path.read_text())
        assert all(item["kind"] in {"rot", "bs", "tms"} for item in seq)

        code, out, _ = run_cli(
            capsys, "compile", "--hamiltonian", "h0", "--gate", str(seq_path), "--slices", "20"
        )
        assert code == 0
        protocol = Protocol.from_dict(json.loads(out))
        assert protocol.total_time == pytest.approx(np.pi, abs=1e-9)


class TestExitCodes:
    def test_degenerate_coupling_is_numeric_error(self, capsys):
        code, _, err = run_cli(capsys, "tmin", "--hamiltonian", "hbs", "--target", "h0")
        assert code == 3
        assert "error" in err

    def test_infeasible_time_is_numeric_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "plan", "--hamiltonian", "h0", "--target", "htms", "--t", "1", "--total", "1.5"
        )
        assert code == 3

    def test_missing_file_is_validation_error(self, capsys):
        code, _, _ = run_cli(capsys, "rsv", "--hamiltonian", "/does/not/exist.json")
        assert code == 2

    def test_bad_state_spec_is_validation_error(self, capsys):
        code, _, _ = run_cli(capsys, "measure", "--state", "nonsense:1")
        assert code == 2

    def test_unknown_command_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["definitely-not-a-command"])
        assert excinfo.value.code == 2


class TestFigures:
    def test_fig3_columns_and_assertions(self, tmp_path, capsys):
        path = reproduce_figures("fig3", str(tmp_path))
        lines = open(path).read().strip().split("\n")
        header = lines[0].split(",")
        assert header == [
            "t",
            "E0_opt",
            "E0_tms",
            "E0_bare",
            "rate_opt",
            "rate_tms",
            "rate_bare",
            "rate_vacuum_ref",
            "N_bound",
        ]
        first = dict(zip(header, map(float, lines[1].split(","))))
        last = dict(zip(header, map(float, lines[-1].split(","))))
        assert first["rate_opt"] == pytest.approx(1.0, abs=1e-9)
        assert first["rate_vacuum_ref"] == 1.0
        assert last["E0_tms"] > last["E0_opt"]
        for line in lines[1:]:
            row = dict(zip(header, map(float, line.split(","))))
            assert np.exp(row["E0_opt"]) <= row["N_bound"] * (1 + 1e-9)
            assert np.exp(row["E0_tms"]) <= row["N_bound"] * (1 + 1e-9)
            assert np.exp(row["E0_bare"]) <= row["N_bound"] * (1 + 1e-9)

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            reproduce_figures("fig2", str(tmp_path))
