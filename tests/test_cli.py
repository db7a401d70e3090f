"""Tests for the command-line interface: outputs, formats, exit codes."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import expm

from helpers import random_pure_cm
from twomode.cli import main, reproduce_figures
from twomode.core import (
    H0,
    HBS,
    HTMS,
    J2,
    RestrictedSingularValues,
    evolve,
    generator,
    k_to_dict,
    kmatrix,
    matrix_to_list,
    squeezed_product_cm,
    two_mode_squeezed_cm,
)
from twomode.protocols import Trajectory
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
        path.write_text(json.dumps(protocol.to_dict()))
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

    def test_slices_past_numpy_sizes_is_numeric_error(self, capsys, tmp_path):
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(json.dumps([{"kind": "bs", "t": 0.3}]))
        argv = ["compile", "--hamiltonian", "h0", "--gate", str(seq_path), "--slices", str(10**22)]
        message = "error: 10000000000000000000000 slices of 2 steps are too many to allocate\n"
        assert run_cli(capsys, *argv) == (3, "", message)

    @pytest.mark.parametrize("slices", ["0", "-5"])
    @pytest.mark.parametrize(
        "gates",
        [[{"kind": "rot", "phi1": 0.1, "phi2": 0.2}], [{"kind": "bs", "t": 0.3}], []],
        ids=["rotations-only", "coupling", "empty"],
    )
    def test_slices_below_one_is_usage_error(self, capsys, tmp_path, slices, gates):
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(json.dumps(gates))
        argv = ["compile", "--hamiltonian", "h0", "--gate", str(seq_path), "--slices", slices]
        assert run_cli(capsys, *argv) == (2, "", "error: slices must be >= 1\n")


class TestWrittenFiles:
    """``--out`` files and figure CSVs get the mode ``open(path, "w")`` would leave."""

    _WRITERS = [
        (["rsv", "--hamiltonian", "h0", "--out"], "a.json"),
        (["run", "--hamiltonian", "h0", "--strategy", "flip", "--t", "1", "--steps", "3", "--out"], "x.csv"),
        (["figures", "--which", "fig1", "--outdir"], "fig1.csv"),
    ]

    @staticmethod
    def _write(capsys, tmp_path, argv, name, umask):
        old = os.umask(umask)
        try:
            target = tmp_path if argv[0] == "figures" else tmp_path / name
            assert run_cli(capsys, *argv, str(target))[0] == 0
        finally:
            os.umask(old)
        return tmp_path / name

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=oct)
    @pytest.mark.parametrize("argv, name", _WRITERS, ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_new_file_gets_the_umask_mode(self, capsys, tmp_path, argv, name, umask, mode):
        path = self._write(capsys, tmp_path, argv, name, umask)
        assert os.stat(path).st_mode & 0o777 == mode

    @pytest.mark.parametrize("mode", [0o600, 0o640, 0o666], ids=oct)
    @pytest.mark.parametrize("argv, name", _WRITERS, ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_replaced_file_keeps_its_mode(self, capsys, tmp_path, argv, name, mode):
        path = tmp_path / name
        path.write_text("previous\n")
        os.chmod(path, mode)
        self._write(capsys, tmp_path, argv, name, 0o022)
        assert path.read_text() != "previous\n"
        assert os.stat(path).st_mode & 0o777 == mode

    @pytest.mark.parametrize("argv, name", _WRITERS, ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_the_umask_is_never_set(self, capsys, tmp_path, monkeypatch, argv, name):
        """Setting the process umask, even to read it, would change it for every thread."""
        calls, real = [], os.umask
        monkeypatch.setattr(os, "umask", lambda mask: calls.append(mask) or real(mask))
        for _ in range(2):  # a new file, then a replaced one
            target = tmp_path if argv[0] == "figures" else tmp_path / name
            assert run_cli(capsys, *argv, str(target))[0] == 0
        assert calls == []

    def test_missing_directory_names_the_given_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["run", "--hamiltonian", "h0", "--strategy", "flip", "--t", "1", "--steps", "3"]
        message = "error: [Errno 2] No such file or directory: 'nodir/x.csv'\n"
        assert run_cli(capsys, *argv, "--out", "nodir/x.csv") == (2, "", message)
        assert run_cli(capsys, "rsv", "--hamiltonian", "h0", "--out", "nodir/x.csv") == (2, "", message)
        assert os.listdir(tmp_path) == []


class TestOneRulePerDecision:
    @staticmethod
    def _k_gap(tmp_path):
        """``HTMS`` with ``|s2|`` short of ``s1`` by 1e-8: near degeneracy, whose minimal time
        ``tmin`` prints as 1.000000005."""
        k = tmp_path / "k_gap.json"
        k.write_text(json.dumps({"a": 1, "b": -0.99999999, "c": 0, "d": 0}))
        return str(k)

    def test_plan_at_the_minimal_time(self, capsys, tmp_path):
        """``plan`` runs at its default time, the minimal one: sufficiency is read from that time."""
        pair = ("--hamiltonian", self._k_gap(tmp_path), "--target", "preset:htms", "--t", "1")
        assert run_cli(capsys, "tmin", *pair) == (0, "1.000000005\n", "")
        code, out, err = run_cli(capsys, "plan", *pair)
        assert (code, err) == (0, "")
        assert json.loads(out)["t"] == 1.000000005

    def test_compile_at_the_minimal_time(self, capsys, tmp_path):
        """A compiled ``tms`` gate runs for its minimal time."""
        gate = tmp_path / "tms.json"
        gate.write_text(json.dumps([{"kind": "tms", "t": 1}]))
        code, out, err = run_cli(capsys, "compile", "--hamiltonian", self._k_gap(tmp_path), "--gate", str(gate),
                                 "--slices", "5")
        assert (code, err) == (0, "")
        assert sum(step["t"] for step in json.loads(out)["steps"]) == pytest.approx(1.000000005, rel=1e-12)

    def test_simcheck_reads_the_minimal_time_at_any_scale(self, capsys, tmp_path):
        """``1e-6 H0`` does not simulate ``1e-6 * 0.5 (1 + 1e-7) HTMS`` at unit cost: its
        minimal time is 1.0000001, so ``simcheck`` says false and ``plan --total 1`` exits 3."""
        k, target = tmp_path / "k.json", tmp_path / "target.json"
        k.write_text(json.dumps(k_to_dict(1e-6 * H0)))
        target.write_text(json.dumps(k_to_dict(1e-6 * 0.5 * (1 + 1e-7) * HTMS)))
        pair = ("--hamiltonian", str(k), "--target", str(target))
        code, out, _ = run_cli(capsys, "tmin", *pair, "--t", "1")
        assert code == 0 and float(out) == pytest.approx(1.0000001, rel=1e-12)
        code, out, _ = run_cli(capsys, "simcheck", *pair)
        assert (code, json.loads(out)) == (0, {"efficient": False})
        code, _, err = run_cli(capsys, "plan", *pair, "--total", "1")
        assert code == 3 and "below the minimal simulation time" in err


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

    def test_unknown_preset_names_the_presets(self, capsys):
        code, out, err = run_cli(capsys, "rsv", "--hamiltonian", "preset:nope")
        assert (code, out) == (2, "")
        assert err == "error: unknown preset 'nope'; the presets are h0, hbs, htms\n"

    def test_bad_state_spec_is_validation_error(self, capsys):
        code, _, _ = run_cli(capsys, "measure", "--state", "nonsense:1")
        assert code == 2

    @pytest.mark.parametrize(
        "spec, reason",
        [
            ("vacuum:3", "vacuum takes no values, got '3'"),
            ("squeezed", "squeezed:R1[,R2] takes one or two finite numbers, got ''"),
            ("squeezed:", "squeezed:R1[,R2] takes one or two finite numbers, got ''"),
            ("squeezed:1,2,3", "squeezed:R1[,R2] takes one or two finite numbers, got '1,2,3'"),
            ("squeezed:0.5,", "squeezed:R1[,R2] takes one or two finite numbers, got '0.5,'"),
            ("squeezed:nan", "squeezed:R1[,R2] takes one or two finite numbers, got 'nan'"),
            ("tms", "tms:T takes one finite number, got ''"),
            ("tms:", "tms:T takes one finite number, got ''"),
            ("tms:0.1,0.2", "tms:T takes one finite number, got '0.1,0.2'"),
            ("tms:x", "tms:T takes one finite number, got 'x'"),
        ],
    )
    def test_state_spec_takes_exactly_its_values(self, capsys, spec, reason):
        for argv in (["measure"], ["run", "--hamiltonian", "h0", "--t", "0.01"]):
            assert run_cli(capsys, *argv, "--state", spec) == (2, "", f"error: {reason}\n")

    def test_unknown_command_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["definitely-not-a-command"])
        assert excinfo.value.code == 2


def run_cli_code(argv):
    """Exit code and stdout of ``main(argv)``, counting argparse exits."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


class TestNumericContract:
    """Overflow and non-finite results exit 3; non-finite arguments exit 2."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["measure", "--state", "squeezed:1000"], 3),
            (["measure", "--state", "tms:400"], 3),
            (["bounds", "--hamiltonian", "preset:h0", "--t", "1e6"], 3),
            (["evolve", "--hamiltonian", "preset:htms", "--t", "800"], 3),
            (["evolve", "--hamiltonian", "h0", "--t", "inf"], 2),
            (["evolve", "--hamiltonian", "h0", "--t", "nan"], 2),
            (["tmin", "--hamiltonian", "h0", "--target", "hbs", "--t", "nan"], 2),
            (["plan", "--hamiltonian", "h0", "--target", "htms", "--total", "nan"], 2),
            (["tmin", "--hamiltonian", "h0", "--target", "hbs", "--t", "1e308"], 3),
            (["measure", "--state", "squeezed:nan"], 2),
            (["measure", "--state", "tms:inf"], 2),
            (["measure", "--state", "squeezed:1,2,3"], 2),
            (["rates", "--hamiltonian", "preset:h0", "--state", "squeezed:0.5,0.2,9"], 2),
        ],
    )
    def test_exit_codes(self, argv, expected):
        code, out = run_cli_code(argv)
        assert code == expected
        assert out == ""

    def test_overflowing_minimal_time_is_named(self, capsys, tmp_path):
        """``tmin`` and ``plan`` refuse a minimal time past the float range by name, not as a non-finite result."""
        big, tiny = tmp_path / "big.json", tmp_path / "tiny.json"
        big.write_text(json.dumps(k_to_dict(1e300 * HTMS)))
        tiny.write_text(json.dumps(k_to_dict(1e-320 * H0)))
        for native, target, t in (("h0", big, "1e10"), (tiny, "h0", "1")):
            for command in ("tmin", "plan"):
                code, out, err = run_cli(capsys, command, "--hamiltonian", str(native), "--target", str(target), "--t", t)
                assert (code, out) == (3, "")
                assert err.startswith("error: minimal simulation time t_target * max(a, b) overflows: t_target = ")
        code, out, _ = run_cli(capsys, "tmin", "--hamiltonian", str(tiny), "--target", "h0", "--t", "0")
        assert (code, out) == (0, "0.0\n")  # a zero-length target needs no time, whatever the ratio

    def test_non_finite_result_is_refused_unwritten(self, capsys, tmp_path, monkeypatch):
        """A NaN in a payload exits 3 before anything reaches stdout or ``--out``."""
        import twomode.cli

        nan = RestrictedSingularValues(float("nan"), float("nan"))
        monkeypatch.setattr(twomode.cli, "restricted_svd", lambda k: (None, nan, None))
        out = tmp_path / "rsv.json"
        for extra in ((), ("--out", str(out))):
            code, stdout, err = run_cli(capsys, "rsv", "--hamiltonian", "h0", *extra)
            assert (code, stdout, err) == (3, "", "error: result is not finite\n")
        assert os.listdir(tmp_path) == []

    _TEMPLATES = (
        ("tmin", "--hamiltonian", "h0", "--target", "htms", "--t={}"),
        ("plan", "--hamiltonian", "h0", "--target", "htms", "--t={}", "--total={}"),
        ("evolve", "--hamiltonian", "preset:htms", "--t={}"),
        ("evolve", "--hamiltonian", "hbs", "--t={}", "--state", "squeezed:{},{}"),
        ("bounds", "--hamiltonian", "h0", "--t={}", "--r1={}", "--r2={}"),
        ("measure", "--state", "squeezed:{},{}"),
        ("measure", "--state", "tms:{}"),
        ("rates", "--hamiltonian", "h0", "--state", "squeezed:{},{}"),
        ("rates", "--hamiltonian", "htms", "--state", "tms:{}"),
    )
    #: ``{K}`` is a JSON coupling file ``{"a": x, "b": y, "c": 0, "d": 0}`` with two drawn floats.
    _JSON_TEMPLATES = (
        ("evolve", "--hamiltonian", "{K}", "--t={}"),
        ("tmin", "--hamiltonian", "{K}", "--target", "{K}", "--t={}"),
        ("plan", "--hamiltonian", "{K}", "--target", "{K}", "--t={}"),
        ("simcheck", "--hamiltonian", "{K}", "--target", "{K}"),
    )
    _FLOATS = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(min_value=-30.0, max_value=30.0),
        st.sampled_from([1e308, -1e308, 5e-324, 0.0, 800.0, 1e6]),
    )

    def _argument(self, data, arg, folder):
        if arg != "{K}":
            return arg.format(*(repr(data.draw(self._FLOATS)) for _ in range(arg.count("{}"))))
        path = os.path.join(folder, f"k{len(os.listdir(folder))}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"a": data.draw(self._FLOATS), "b": data.draw(self._FLOATS), "c": 0, "d": 0}, fh)
        return path

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_random_float_arguments(self, data):
        """Any float argument or JSON coupling entry gives exit 0, 2 or 3, and exit 0 prints strict JSON."""
        template = data.draw(st.sampled_from(self._TEMPLATES + self._JSON_TEMPLATES))
        with tempfile.TemporaryDirectory() as folder:
            argv = [self._argument(data, arg, folder) for arg in template]
            code, out = run_cli_code(argv)
        assert code in (0, 2, 3), argv
        if code == 0:
            json.loads(out, parse_constant=_reject_constant)
        else:
            assert out == "", argv


class TestInputRange:
    """Inputs outside the supported numeric range, and requests too large to
    allocate, are numeric errors (exit 3) without a traceback."""

    def test_tms_at_range_edge_is_pure(self):
        code, out = run_cli_code(["measure", "--state", "tms:3.25"])
        assert code == 0
        payload = json.loads(out)
        assert "pure" not in payload  # the key appears on the mixed-state fallback only
        assert payload["r"] == pytest.approx(6.5, rel=1e-9)

    @pytest.mark.parametrize("spec", ["tms:3.3", "tms:4.5", "tms:-3.3"])
    def test_tms_past_range_is_numeric_error(self, spec):
        for argv in (["measure", "--state", spec], ["rates", "--hamiltonian", "h0", "--state", spec]):
            assert run_cli_code(argv) == (3, "")

    def test_file_state_at_range_edge_is_pure(self, tmp_path):
        path = tmp_path / "tms.json"
        path.write_text(json.dumps({"cm": matrix_to_list(two_mode_squeezed_cm(3.25))}))
        code, out = run_cli_code(["measure", "--state", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert "pure" not in payload
        assert payload["r"] == pytest.approx(6.5, rel=1e-9)
        assert run_cli_code(["rates", "--hamiltonian", "h0", "--state", str(path)])[0] == 0

    @pytest.mark.parametrize("t", [3.3, 4.5, 4.7])
    def test_file_state_past_range_is_numeric_error(self, tmp_path, t):
        path = tmp_path / "tms.json"
        path.write_text(json.dumps({"cm": matrix_to_list(two_mode_squeezed_cm(t))}))
        for argv in (["measure"], ["rates", "--hamiltonian", "h0"]):
            assert run_cli_code([*argv, "--state", str(path)]) == (3, "")

    @staticmethod
    def _out_of_range(spec):
        tail = "is out of range: a CM eigenvalue exceeds e^6.5 (that of tms:3.25)"
        return f"error: state {spec} {tail}\n"

    _STATE_COMMANDS = [
        ["measure"],
        ["rates", "--hamiltonian", "h0"],
        ["evolve", "--hamiltonian", "h0", "--t", "0.1"],
        ["run", "--hamiltonian", "h0", "--t", "0.01"],
    ]

    @pytest.mark.parametrize(
        "spec",
        ["squeezed:6.6", "squeezed:0,-8", "squeezed:709", "squeezed:710", "squeezed:1000"]
        + ["tms:3.3"],
    )
    @pytest.mark.parametrize("argv", _STATE_COMMANDS, ids=lambda argv: argv[0])
    def test_state_past_range_gets_the_one_message(self, capsys, spec, argv):
        assert run_cli(capsys, *argv, "--state", spec) == (3, "", self._out_of_range(spec))

    @pytest.mark.parametrize("argv", _STATE_COMMANDS, ids=lambda argv: argv[0])
    def test_squeezed_at_range_edge_is_accepted(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--state", "squeezed:6.5")
        assert (code, err) == (0, "") and out

    @pytest.mark.parametrize(
        "spec, gamma, inside",
        [
            ("squeezed:6.5", squeezed_product_cm(6.5, 0.0), True),
            ("squeezed:0,-6.5", squeezed_product_cm(0.0, -6.5), True),
            ("tms:3.25", two_mode_squeezed_cm(3.25), True),
            ("tms:-3.25", two_mode_squeezed_cm(-3.25), True),
            ("squeezed:6.6", squeezed_product_cm(6.6, 0.0), False),
            ("squeezed:0,-8", squeezed_product_cm(0.0, -8.0), False),
            ("tms:3.3", two_mode_squeezed_cm(3.3), False),
            ("tms:-3.3", two_mode_squeezed_cm(-3.3), False),
            ("tms:3.2500000000001", two_mode_squeezed_cm(3.2500000000001), True),
            ("tms:-3.2500000000001", two_mode_squeezed_cm(-3.2500000000001), True),
            ("squeezed:6.5000000000003", squeezed_product_cm(6.5000000000003, 0.0), True),
            ("tms:3.2500000001", two_mode_squeezed_cm(3.2500000001), False),
        ],
    )
    def test_same_cm_gets_the_same_decision(self, capsys, tmp_path, spec, gamma, inside):
        """A state given by its parameter or as a JSON file is refused on the same side of e^6.5."""
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"cm": matrix_to_list(gamma)}))
        built = run_cli(capsys, "measure", "--state", spec)
        read = run_cli(capsys, "measure", "--state", str(path))
        if inside:
            assert built[0] == 0 and read == built
        else:
            assert built == (3, "", self._out_of_range(spec))
            assert read == (3, "", self._out_of_range(path))

    @pytest.mark.parametrize(
        "strategy",
        [["tms", "--t", "8", "--dt", "1e-2"], ["greedy", "--t", "10", "--dt", "1e-2"]],
        ids=["tms", "greedy"],
    )
    def test_trajectory_past_range_is_numeric_error(self, capsys, strategy):
        code, out, err = run_cli(capsys, "run", "--hamiltonian", "h0", "--strategy", *strategy)
        assert (code, out) == (3, "")
        assert err.startswith("error: trajectory leaves the supported range")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("t, r1", [("1000", "0"), ("1e308", "0"), ("0", "800")])
    def test_bounds_past_the_float_range_is_numeric_error(self, capsys, t, r1):
        argv = ["bounds", "--hamiltonian", "h0", "--t", t, "--r1", r1]
        message = f"error: squeezing bound exp((s1 - s2) t + r1) overflows at t = {float(t)}, r1 = {float(r1)}\n"
        assert run_cli(capsys, *argv) == (3, "", message)

    def test_bounds_at_the_float_range_edge(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--hamiltonian", "h0", "--t", "709")
        assert code == 0 and json.loads(out)["S_bound"] == 8.218407461554972e307

    def test_long_flip_stays_in_range(self, capsys):
        """Under H0 the flip run to t = 7.5 ends within the range, at E0 near 7.5."""
        argv = ["run", "--hamiltonian", "h0", "--strategy", "flip", "--t", "7.5", "--steps", "2000"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert _csv_columns(out)[-1, 1] == pytest.approx(7.5, abs=1e-5)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--strategy", "flip", "--steps", "0"],
            ["--strategy", "no-such-strategy"],
            ["--strategy", "tms", "--t", "-1"],
            ["--strategy", "greedy", "--dt", "0"],
        ],
    )
    def test_run_input_errors_stay_usage_errors(self, argv):
        assert run_cli_code(["run", "--hamiltonian", "h0", *argv]) == (2, "")

    def test_run_from_mixed_state_is_usage_error(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"cm": matrix_to_list(1.5 * np.eye(4))}))
        for strategy in ("flip", "greedy", "tms", "bare"):
            argv = ["run", "--hamiltonian", "h0", "--state", str(path), "--strategy", strategy]
            assert run_cli_code(argv) == (2, "")

    # Both requests ask for at least 1e18 elements, so they fail at once.
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--hamiltonian", "preset:h0", "--strategy", "greedy", "--t", "1e6", "--dt", "1e-12"],
            ["run", "--hamiltonian", "h0", "--strategy", "flip", "--steps", "1000000000000000000"],
        ],
        ids=["greedy-grid", "flip-steps"],
    )
    def test_unallocatable_request_is_numeric_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.strip() != "error:"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["greedy", "--t", "1", "--dt", "1e-300"], "a grid of t / dt = 1e+300 steps is too large to allocate"),
            (["flip", "--steps", str(10**22)], f"{10**22} flip steps are too many to allocate"),
        ],
        ids=["greedy-grid", "flip-steps"],
    )
    def test_request_past_numpy_sizes_is_numeric_error(self, capsys, argv, reason):
        """Past the longest array NumPy can address the count is refused before any allocation."""
        assert run_cli(capsys, "run", "--hamiltonian", "h0", "--strategy", *argv) == (3, "", f"error: {reason}\n")


def _csv_columns(text):
    lines = text.strip().split("\n")
    assert lines[0] == "t,E0,negativity,S,Q,rate"
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


class TestPathsThroughMain:
    def test_bare_is_the_expm_flow(self, capsys, tmp_path):
        rng = np.random.default_rng(11)
        k = kmatrix(*rng.normal(size=4))
        gamma0 = random_pure_cm(rng)
        k_path, state_path = tmp_path / "k.json", tmp_path / "state.json"
        k_path.write_text(json.dumps(k_to_dict(k)))
        state_path.write_text(json.dumps({"cm": matrix_to_list(gamma0)}))
        argv = ["run", "--hamiltonian", str(k_path), "--strategy", "bare", "--t", "0.8", "--dt", "0.01"]
        for start, state in (("vacuum", np.eye(4)), (str(state_path), gamma0)):
            code, out, _ = run_cli(capsys, *argv, "--state", start)
            assert code == 0
            rows = _csv_columns(out)
            flows = np.array([expm(generator(k).M * t) for t in rows[:, 0]])
            cms = flows @ state @ flows.transpose(0, 2, 1)
            ref = Trajectory(rows[:, 0], (cms + cms.transpose(0, 2, 1)) / 2.0, k).columns()
            ref = np.column_stack(list(ref.values()))
            assert rows.shape == (81, 6)
            assert np.max(np.abs(rows - ref) / np.maximum(1.0, np.abs(ref))) < 1e-9

    def test_tms_from_vacuum_saturates_the_bound(self, capsys):
        """Under H0 (s1 - s2 = 1) the flip limit gives E0 = Q = t and N = S = e^t."""
        code, out, _ = run_cli(capsys, "run", "--hamiltonian", "h0", "--strategy", "tms", "--t", "1", "--dt", "0.05")
        assert code == 0
        t, e0, neg, s, q, rate = _csv_columns(out).T
        assert len(t) == 21
        assert np.allclose(e0, t, atol=1e-12) and np.allclose(q, t, atol=1e-12)
        assert np.allclose(neg, np.exp(t), rtol=1e-12) and np.allclose(s, np.exp(t), rtol=1e-12)
        assert np.allclose(rate, 1.0, rtol=1e-12)

    def test_state_file_forms(self, capsys, tmp_path):
        """A state file holds ``{"cm": [...]}`` or the bare 16-entry list."""
        expected = run_cli(capsys, "measure", "--state", "tms:0.3")[1]
        cm = matrix_to_list(two_mode_squeezed_cm(0.3))
        for name, data in (("dict.json", {"cm": cm}), ("list.json", cm)):
            path = tmp_path / name
            path.write_text(json.dumps(data))
            assert run_cli(capsys, "measure", "--state", str(path))[:2] == (0, expected)

    def test_measure_mixed_state(self, capsys, tmp_path):
        gamma = two_mode_squeezed_cm(0.3) + 0.2 * np.eye(4)
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"cm": matrix_to_list(gamma)}))
        code, out, _ = run_cli(capsys, "measure", "--state", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["pure"] is False
        # Negativity 1/nu~ from the partially transposed CM's symplectic spectrum.
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        gt = flip @ gamma @ flip
        nu = np.min(np.abs(np.linalg.eigvals(1j * J2 @ gt)))
        assert payload["negativity"] == pytest.approx(1.0 / nu, rel=1e-12, abs=0.0)
        assert payload["S"] == pytest.approx(1.0 / np.linalg.eigvalsh(gamma)[0], rel=1e-12, abs=0.0)

    def test_figures_fig1(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "figures", "--which", "fig1", "--outdir", str(tmp_path))
        assert code == 0
        path = tmp_path / "fig1.csv"
        assert out == f"{path}\n"
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,E0_opt,E0_tms,E0_bare,rate_opt,rate_tms,rate_bare,rate_vacuum_ref,N_bound"
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert rows.shape == (1501, 9)
        assert rows[0, 0] == 0.0 and rows[-1, 0] == 1.5
        assert np.allclose(rows[:, 7], 1.0)
        assert np.all(np.exp(rows[:, 1:4]) <= rows[:, 8:9] * (1 + 1e-9))


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
