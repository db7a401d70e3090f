"""Inputs of ``run`` and the plan builders: time grids, protocol files, couplings."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from twomode import simulate
from twomode.cli import main
from twomode.core import (
    H0,
    HBS,
    HTMS,
    LocalRotationPair,
    evolve,
    k_from_dict,
    k_to_dict,
    kmatrix,
    matrix_from_list,
    restricted_svd,
)
from twomode.gates import GateSequence, compile_to_native
from twomode.protocols import flip_strategy, uniform_grid
from twomode.simulate import (
    DegenerateHamiltonianError,
    InfeasibleTimeError,
    Protocol,
    SimulationPlan,
    can_simulate_efficiently,
    effective_hamiltonian,
    min_simulation_time,
    synthesize_plan,
)


def run_cli(argv):
    """Exit code, stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _old_grid(t, dt):
    """The grid formula that could repeat ``t`` once ``ulp(t / dt)`` exceeds its guard."""
    n = max(1, int(math.ceil(t / dt - 1e-12)))
    return np.append(np.minimum(np.arange(n) * dt, t), t)


class TestUniformGrid:
    def test_long_grid_ends_once(self):
        grid = uniform_grid(32.005, 1e-3)
        assert np.all(np.diff(grid) > 0)
        assert grid[-1] == 32.005 and grid[-2] < 32.005
        assert grid.size == 32006

    @pytest.mark.parametrize("dt", [1e-3, 2e-3, 1e-2, 0.03, 0.1, 0.25])
    def test_unchanged_wherever_the_old_grid_was_increasing(self, dt):
        rng = np.random.default_rng(11)
        for t in (*rng.uniform(0.001, 40.0, 300), 1.0, 0.5, 3 * dt, dt / 3):
            t = float(f"{t:.5g}")
            old, new = _old_grid(t, dt), uniform_grid(t, dt)
            assert np.all(np.diff(new) > 0) and new[0] == 0.0 and new[-1] == t
            if np.all(np.diff(old) > 0):
                assert np.array_equal(new, old)

    def test_cli_writes_the_last_row_once(self, tmp_path):
        path = tmp_path / "bare.csv"
        argv = ["run", "--hamiltonian", "preset:hbs", "--strategy", "bare"]
        code, out, err = run_cli([*argv, "--t", "32.005", "--dt", "1e-3", "--out", str(path)])
        assert (code, out, err) == (0, "", "")
        times = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0)
        assert np.all(np.diff(times) > 0) and times[-1] == 32.005


def _protocol_file(tmp_path, k=H0, **edits):
    data = flip_strategy(k, 0.5, 4).to_dict()
    for key, value in edits.items():
        target, _, field = key.partition("_")
        (data["final"] if target == "final" else data["steps"][1])[field] = value
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps(data))
    return f"file:{path}"


class TestProtocolFiles:
    @pytest.mark.parametrize(
        "edit",
        [
            {"step_phi1": math.nan},
            {"step_phi2": -math.inf},
            {"step_t": math.inf},
            {"step_t": math.nan},
            {"final_phi1": math.nan},
            {"final_phi2": math.inf},
        ],
        ids=["phi1-nan", "phi2-inf", "t-inf", "t-nan", "final-nan", "final-inf"],
    )
    def test_non_finite_protocol_is_input_error(self, tmp_path, edit):
        strategy = _protocol_file(tmp_path, **edit)
        code, out, err = run_cli(["run", "--hamiltonian", "h0", "--strategy", strategy])
        assert (code, out) == (2, "")
        assert err.startswith("error: protocol ") and err.count("\n") == 1

    def test_protocol_objects_refuse_non_finite_values(self):
        with pytest.raises(ValueError):
            Protocol(H0, [(math.nan, 0.0, 0.1)], [0])
        with pytest.raises(ValueError):
            Protocol(H0, [(0.0, 0.0, math.inf)], [0])
        with pytest.raises(ValueError):
            Protocol(H0, [(0.0, 0.0, -0.1)], [0])
        with pytest.raises(ValueError):
            Protocol(H0, [], [], LocalRotationPair(0.0, math.inf))

    def test_coupling_must_match_the_protocols(self, tmp_path):
        strategy = _protocol_file(tmp_path)
        code, out, err = run_cli(["run", "--hamiltonian", "hbs", "--strategy", strategy])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert str(k_to_dict(HBS)) in err and str(k_to_dict(H0)) in err

    def test_matching_coupling_from_a_file(self, tmp_path):
        k = kmatrix(a=0.7, b=-0.2, c=0.3, d=0.1)
        strategy = _protocol_file(tmp_path, k=k)
        path = tmp_path / "k.json"
        path.write_text(json.dumps(k_to_dict(k)))
        code, out, err = run_cli(["run", "--hamiltonian", str(path), "--strategy", strategy])
        assert (code, err) == (0, "")
        assert len(out.strip().split("\n")) == 1 + 5


_H0_DICT = {"a": 1.0, "b": 0.0, "c": 0.0, "d": 0.0}
_STEP = {"phi1": 0.1, "phi2": 0.2, "t": 0.01}
_FINAL = {"phi1": 0.0, "phi2": 0.0}

# JSON files of the wrong type for the option that reads them; each used to
# end in a TypeError traceback.
_WRONG_TYPED = [
    *(("rsv", "--hamiltonian", data) for data in ([1, 2, 3], 5, "abc", None)),
    ("rsv", "--hamiltonian", {"a": {"x": 1}, "b": 0, "c": 0, "d": 0}),
    ("simcheck", "--target", [1, 2]),
    ("measure", "--state", {"cm": {"a": 1}}),
    ("decompose", "--gate", {"x": 1}),
    *(("compile", "--gate", data) for data in ([5], {"x": 1}, "abc", None, 5)),
    ("run", "--strategy", {"native_K": _H0_DICT, "steps": [5], "final": _FINAL}),
    ("run", "--strategy", {"native_K": _H0_DICT, "steps": {"a": 1}, "final": _FINAL}),
    ("run", "--strategy", {"native_K": [1, 2], "steps": [_STEP], "final": _FINAL}),
    ("run", "--strategy", {"native_K": _H0_DICT, "steps": [_STEP], "final": 5}),
    *(("run", "--strategy", data) for data in ([1, 2], "abc", None, 5)),
]


class TestWrongTypedJson:
    @pytest.mark.parametrize("command, option, data", _WRONG_TYPED)
    def test_is_usage_error(self, tmp_path, command, option, data):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        value = f"file:{path}" if option == "--strategy" else str(path)
        argv = [command, option, value]
        if command not in ("measure", "decompose") and option != "--hamiltonian":
            argv += ["--hamiltonian", "h0"]
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert f"(in {path})" in err

    @pytest.mark.parametrize(
        "command, option, data, reason",
        [
            ("rsv", "--hamiltonian", {"a": 1.0, "b": 0.0, "c": 0.0}, "coupling: missing key 'd'"),
            ("measure", "--state", {"gamma": [1.0] * 16}, "missing key 'cm'"),
            ("run", "--strategy", {"native_K": _H0_DICT, "final": _FINAL}, "missing key 'steps'"),
            (
                "run",
                "--strategy",
                {"native_K": _H0_DICT, "steps": [{"phi1": 0.0}]},
                "protocol steps[0]: missing key 'phi2'",
            ),
        ],
        ids=["coupling", "state", "protocol", "protocol-step"],
    )
    def test_missing_key_is_named(self, tmp_path, command, option, data, reason):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        value = f"file:{path}" if option == "--strategy" else str(path)
        argv = [command, option, value] + (["--hamiltonian", "h0"] if command == "run" else [])
        assert run_cli(argv) == (2, "", f"error: {reason} (in {path})\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["rsv", "--hamiltonian"],
            ["simcheck", "--hamiltonian", "h0", "--target"],
            ["measure", "--state"],
            ["decompose", "--gate"],
            ["compile", "--hamiltonian", "h0", "--gate"],
            ["run", "--hamiltonian", "h0", "--strategy"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_syntax_error_is_named(self, tmp_path, argv):
        path = tmp_path / "input.json"
        path.write_text('{"a": 1,')
        value = f"file:{path}" if argv[-1] == "--strategy" else str(path)
        code, out, err = run_cli([*argv, value])
        assert (code, out) == (2, "")
        assert err.startswith("error: Expecting ") and err.endswith(f" (in {path})\n")
        assert err.count("\n") == 1


_COUPLING_BAD_VALUE = "coupling: a must be a number, not dict"


class TestJsonFieldsAreNamed:
    """A wrong type, a missing key or a bad value names the field and its position in the list."""

    @pytest.mark.parametrize(
        "command, data, reason",
        [
            ("rsv", [1, 2], "coupling must be an object with keys a, b, c and d, not list"),
            ("rsv", {"a": {"x": 1}, "b": 0, "c": 0, "d": 0}, _COUPLING_BAD_VALUE),
            ("compile", [5], "gates[0] must be an object with a kind key, not int"),
            ("compile", {"x": 1}, "gates must be a list of objects, not dict"),
            ("compile", [{"kind": "bs", "t": 0.1}, {"kind": "tms"}], "gates[1]: missing key 't'"),
            ("compile", [{"kind": "rot", "phi1": 0.1}], "gates[0]: missing key 'phi2'"),
            ("compile", [{"t": 0.1}], "gates[0]: missing key 'kind'"),
            ("compile", [{"kind": "bs", "t": "x"}], "gates[0]: t must be a number, not str"),
            ("compile", [{"kind": "bs", "t": 0.1}, {"kind": "swap"}], "gates[1]: unknown gate kind 'swap'"),
            (
                "run",
                {"native_K": [1, 2], "steps": [_STEP], "final": _FINAL},
                "coupling must be an object with keys a, b, c and d, not list",
            ),
            (
                "run",
                {"native_K": _H0_DICT, "steps": [_STEP, {"phi1": 0.0, "phi2": 0.0}], "final": _FINAL},
                "protocol steps[1]: missing key 't'",
            ),
        ],
    )
    def test_reason_names_the_field(self, tmp_path, command, data, reason):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        option = {"rsv": "--hamiltonian", "compile": "--gate", "run": "--strategy"}[command]
        value = f"file:{path}" if command == "run" else str(path)
        argv = [command, option, value] + ([] if command == "rsv" else ["--hamiltonian", "h0"])
        assert run_cli(argv) == (2, "", f"error: {reason} (in {path})\n")

    @pytest.mark.parametrize("barred", ["false", "true", 0, 1, None, [False]])
    def test_barred_is_json_true_or_false(self, tmp_path, barred):
        path = tmp_path / "g.json"
        path.write_text(json.dumps([{"kind": "bs", "t": 0.2}, {"kind": "tms", "t": 0.3, "barred": barred}]))
        code, out, err = run_cli(["compile", "--hamiltonian", "h0", "--gate", str(path)])
        reason = f"gates[1]: barred must be true or false, not {barred!r}"
        assert (code, out, err) == (2, "", f"error: {reason} (in {path})\n")

    def test_barred_false_is_the_default(self, tmp_path):
        outputs = {}
        for name, flag in (("absent", {}), ("false", {"barred": False}), ("true", {"barred": True})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps([{"kind": "tms", "t": 0.3, **flag}]))
            code, outputs[name], err = run_cli(["compile", "--hamiltonian", "h0", "--gate", str(path)])
            assert (code, err) == (0, "")
        assert outputs["false"] == outputs["absent"] != outputs["true"]
        gates = GateSequence.from_list([{"kind": "tms", "t": 0.3}, {"kind": "bs", "t": 0.1, "barred": True}])
        assert [g.barred for g in gates.gates] == [False, True]


def _protocol(final=_FINAL, native_k=_H0_DICT, step=_STEP):
    return {"native_K": native_k, "steps": [_STEP, step], "final": final}


_IDENTITY = np.eye(4).ravel().tolist()
_STEP_GATE = {"kind": "bs", "t": 0.1}

# Every reader of a JSON number: its command and option, the file with ``bad`` in
# one number's place, and the object and key that the refusal names.
_NUMBER_READERS = {
    "coupling": ("rsv", "--hamiltonian", lambda bad: {**_H0_DICT, "a": bad}, "coupling: a"),
    "native_K": ("run", "--strategy", lambda bad: _protocol(native_k={**_H0_DICT, "d": bad}), "coupling: d"),
    "step": ("run", "--strategy", lambda bad: _protocol(step={**_STEP, "t": bad}), "protocol steps[1]: t"),
    "final": ("run", "--strategy", lambda bad: _protocol(final={"phi1": bad}), "protocol final: phi1"),
    "rot": ("compile", "--gate", lambda bad: [{"kind": "rot", "phi1": 0, "phi2": bad}], "gates[0]: phi2"),
    "gate-t": ("compile", "--gate", lambda bad: [_STEP_GATE, {"kind": "tms", "t": bad}], "gates[1]: t"),
    "cm": ("measure", "--state", lambda bad: {"cm": [*_IDENTITY[:5], bad, *_IDENTITY[6:]]}, "matrix: 5"),
    "decompose": ("decompose", "--gate", lambda bad: [*_IDENTITY[:15], bad], "matrix: 15"),
}


def _cli_on_json(directory, command, option, data):
    """The path of a file holding ``data``, and exit code, stdout and stderr of ``command`` on it."""
    path = directory / "input.json"
    path.write_text(json.dumps(data))
    value = f"file:{path}" if option == "--strategy" else str(path)
    coupling = ["--hamiltonian", "h0"] if command in ("run", "compile") else []
    return path, run_cli([command, option, value, *coupling])


def _floats(data):
    """``data`` with every JSON integer written as a float."""
    if isinstance(data, dict):
        return {key: _floats(value) for key, value in data.items()}
    if isinstance(data, list):
        return [_floats(value) for value in data]
    return float(data) if type(data) is int else data


class TestJsonNumbers:
    """One rule reads every JSON number: an integer or a float, never a boolean."""

    @pytest.mark.parametrize(
        "bad, kind", [("1.5", "str"), (True, "bool"), (None, "NoneType"), ([1], "list"), ({"x": 1}, "dict")]
    )
    @pytest.mark.parametrize("reader", _NUMBER_READERS)
    def test_a_value_that_is_not_a_number_is_named(self, tmp_path, reader, bad, kind):
        command, option, build, named = _NUMBER_READERS[reader]
        path, result = _cli_on_json(tmp_path, command, option, build(bad))
        assert result == (2, "", f"error: {named} must be a number, not {kind} (in {path})\n")

    @pytest.mark.parametrize(
        "command, option, data, reason",
        [
            (
                "run",
                "--strategy",
                [1, 2],
                "protocol must be an object with keys native_K, steps and final, not list",
            ),
            (
                "run",
                "--strategy",
                _protocol(final=5),
                "protocol final must be an object with keys phi1 and phi2, not int",
            ),
            ("run", "--strategy", _protocol(final={"phi1": 0.0}), "protocol final: missing key 'phi2'"),
            ("compile", "--gate", [{"kind": []}], "gates[0]: unknown gate kind []"),
            ("compile", "--gate", [_STEP_GATE, {"kind": {"x": 1}}], "gates[1]: unknown gate kind {'x': 1}"),
            ("measure", "--state", {"cm": {"a": 1}}, "matrix must be a list of 16 numbers, not dict"),
            ("measure", "--state", {"cm": np.eye(4).tolist()}, "expected 16 entries, got 4"),
        ],
        ids=["protocol", "final-type", "final-key", "kind-list", "kind-object", "cm-object", "cm-nested"],
    )
    def test_a_wrong_shape_is_named(self, tmp_path, command, option, data, reason):
        path, result = _cli_on_json(tmp_path, command, option, data)
        assert result == (2, "", f"error: {reason} (in {path})\n")

    @pytest.mark.parametrize(
        "command, option, data",
        [
            ("rsv", "--hamiltonian", {"a": 1, "b": 0, "c": -2, "d": 0}),
            ("measure", "--state", {"cm": _IDENTITY}),
            ("run", "--strategy", _protocol({"phi1": 0, "phi2": 1}, step={"phi1": 1, "phi2": 0, "t": 2})),
            ("compile", "--gate", [{"kind": "rot", "phi1": 1, "phi2": 0}, {"kind": "bs", "t": 1}]),
            ("decompose", "--gate", _IDENTITY),
        ],
        ids=["coupling", "state", "protocol", "gates", "decompose"],
    )
    def test_integers_read_as_their_floats(self, tmp_path, command, option, data):
        (tmp_path / "int").mkdir()
        (tmp_path / "float").mkdir()
        _, as_ints = _cli_on_json(tmp_path / "int", command, option, data)
        _, as_floats = _cli_on_json(tmp_path / "float", command, option, _floats(data))
        assert as_ints[0] == 0 and as_ints == as_floats

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("reader", _NUMBER_READERS)
    def test_an_integer_past_the_float_range_is_named(self, tmp_path, reader, sign):
        """Such an integer is a usage error, as the float literal ``1e400`` is, not an overflow."""
        command, option, build, named = _NUMBER_READERS[reader]
        path, result = _cli_on_json(tmp_path, command, option, build(sign * 10**400))
        assert result == (2, "", f"error: {named} is an integer past the float range (in {path})\n")

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("reader", ["rot", "gate-t"])
    def test_a_gate_value_that_is_not_finite_is_named(self, tmp_path, reader, bad):
        command, option, build, named = _NUMBER_READERS[reader]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(build(0.5)).replace("0.5", bad))
        result = run_cli([command, option, str(path), "--hamiltonian", "h0"])
        assert result == (2, "", f"error: {named} must be finite (in {path})\n")

    def test_largest_float_integer_is_read(self):
        largest = np.finfo(float).max
        assert np.max(k_from_dict({**_H0_DICT, "b": int(largest)})) == largest

    def test_numpy_floats_pass_the_library_readers(self):
        assert np.array_equal(k_from_dict({key: np.float64(v) for key, v in _H0_DICT.items()}), H0)
        assert np.array_equal(matrix_from_list(list(np.eye(4).ravel())), np.eye(4))


class TestCouplingCheck:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_are_refused(self, bad):
        k = np.array([[1.0, 0.0], [bad, 0.5]])
        for build in (
            lambda: kmatrix(a=1.0, c=bad),
            lambda: k_from_dict({"a": 1.0, "b": 0.5, "c": bad, "d": 0.0}),
            lambda: restricted_svd(k),
            lambda: evolve(k, 0.1),
        ):
            with pytest.raises(ValueError, match="coupling matrix must be finite"):
                build()

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (2, 2, 2), (1, 2, 2)])
    def test_non_2x2_matrix_is_refused(self, shape):
        for check in (restricted_svd, lambda k: evolve(k, 0.1)):
            with pytest.raises(ValueError, match="coupling matrix must be 2x2"):
                check(np.ones(shape))

    def test_vector_coefficients_are_refused(self):
        with pytest.raises(ValueError, match="coupling matrix must be 2x2"):
            kmatrix(*[[1.0, 2.0]] * 4)
        with pytest.raises(TypeError, match="^coupling: a must be a number, not list$"):
            k_from_dict(dict.fromkeys("abcd", [1.0, 2.0]))

    def test_cli_refuses_a_nan_coupling_file(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text('{"a": NaN, "b": 0, "c": 0, "d": 0}')
        assert math.isnan(json.loads(path.read_text())["a"])  # json.load accepts NaN
        code, out, err = run_cli(["rsv", "--hamiltonian", str(path)])
        assert (code, out, err) == (2, "", f"error: coupling matrix must be finite (in {path})\n")


class TestTimeArguments:
    """``t_target`` is finite and >= 0 and a given ``t`` finite and > 0, checked before either is used."""

    @pytest.mark.parametrize("t_target", [math.nan, math.inf, -1.0])
    def test_t_target_must_be_finite_and_non_negative(self, t_target):
        for query in (min_simulation_time, synthesize_plan):
            with pytest.raises(ValueError, match="t_target must be non-negative"):
                query(H0, HBS, t_target)
        for k, target in ((H0, HBS), (HBS, 2.0 * HBS)):
            with pytest.raises(ValueError, match="t_target must be non-negative"):
                synthesize_plan(k, target, t_target, t=5.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_total_time_must_be_finite(self, t):
        for k, target in ((H0, HBS), (HBS, 2.0 * HBS)):
            with pytest.raises(ValueError, match="total interaction time must be positive"):
                synthesize_plan(k, target, 0.5, t=t)

    def test_plan_refuses_a_negative_t_with_a_total(self):
        argv = ["plan", "--hamiltonian", "preset:h0", "--target", "preset:hbs", "--t", "-1"]
        expected = (2, "", "error: t_target must be non-negative and finite\n")
        assert run_cli(argv) == expected and run_cli([*argv, "--total", "5"]) == expected


class TestDegeneratePlanTimes:
    """A degenerate coupling's ``plan`` takes ``--total`` and ``--t 0`` by the same rule as any other."""

    def _argv(self, tmp_path, *extra):
        target = tmp_path / "k.json"
        target.write_text(json.dumps(k_to_dict(2.0 * HBS)))
        return ["plan", "--hamiltonian", "preset:hbs", "--target", str(target), "--t", "1", *extra]

    def test_a_total_below_tmin_is_infeasible(self, tmp_path):
        assert run_cli(["tmin", *self._argv(tmp_path)[1:]]) == (0, "2.0\n", "")
        expected = (3, "", "error: requested time 0.5 is below the minimal simulation time 2.0\n")
        assert run_cli(self._argv(tmp_path, "--total", "0.5")) == expected

    def test_a_longer_total_realises_the_target(self, tmp_path):
        code, out, err = run_cli(self._argv(tmp_path, "--total", "5"))
        assert (code, err) == (0, "")
        data = json.loads(out)
        terms = np.array([(d["phi1"], d["phi2"], d["weight"]) for d in data["terms"]])
        plan = SimulationPlan(HBS, 2.0 * HBS, data["t"], data["t_target"], terms)
        assert plan.t == 5.0
        assert np.max(np.abs(effective_hamiltonian(plan) - 2.0 * HBS)) < 1e-12

    def test_zero_target_time_spends_unit_time(self):
        for coupling in ("preset:hbs", "preset:h0"):
            code, out, err = run_cli(["plan", "--hamiltonian", coupling, "--target", "preset:hbs", "--t", "0"])
            assert (code, err) == (0, "") and json.loads(out)["t"] == 1.0


class TestDegenerateCouplingRule:
    def test_messages(self):
        with pytest.raises(DegenerateHamiltonianError, match="only simulate locally equivalent"):
            min_simulation_time(HBS, H0, 1.0)
        with pytest.raises(DegenerateHamiltonianError, match="only simulate locally equivalent"):
            synthesize_plan(HTMS, HBS, 1.0)
        seq = GateSequence.from_list([{"kind": "bs", "t": 0.3}])
        with pytest.raises(
            DegenerateHamiltonianError, match="cannot simulate beam splitters and squeezers"
        ):
            compile_to_native(seq, HBS)
        with pytest.raises(ValueError, match="t_target must be non-negative"):
            min_simulation_time(H0, HBS, -1.0)

    def test_zero_and_scaled_degenerate_couplings(self):
        zero = np.zeros((2, 2))
        assert min_simulation_time(zero, zero, 1.5) == 0.0
        with pytest.raises(DegenerateHamiltonianError):
            min_simulation_time(zero, H0, 1.5)
        assert synthesize_plan(HBS, 2.0 * HBS, 1.5).t == 3.0

    def test_plan_computes_no_second_svd(self, monkeypatch):
        """Every pair query reads both couplings' singular values in one stacked kernel call."""
        k, kp = kmatrix(a=0.7, b=-0.2, c=0.3, d=0.1), kmatrix(a=0.4, b=0.1, c=-0.2, d=0.05)
        kernel, shapes = simulate._rsvd_angles, []
        monkeypatch.setattr(simulate, "_rsvd_angles", lambda m: shapes.append(m.shape) or kernel(m))
        t_min = min_simulation_time(k, kp, 1.5)
        assert can_simulate_efficiently(k, kp) is False
        assert synthesize_plan(k, kp, 1.5).t == t_min
        with pytest.raises(InfeasibleTimeError, match=f"minimal simulation time {t_min!r}$"):
            synthesize_plan(k, kp, 1.5, t=0.5 * t_min)
        with pytest.raises(ValueError, match="t_target must be non-negative"):
            synthesize_plan(k, kp, -1.0)
        assert shapes == [(2, 2, 2)] * 5

    def test_native_coupling_is_checked_first(self):
        bad_k, bad_target = np.full((2, 2), math.nan), np.ones(3)
        for query in (min_simulation_time, synthesize_plan):
            with pytest.raises(ValueError, match="coupling matrix must be finite"):
                query(bad_k, bad_target, 1.0)
            with pytest.raises(ValueError, match="coupling matrix must be 2x2"):
                query(H0, bad_target, 1.0)
        with pytest.raises(ValueError, match="coupling matrix must be finite"):
            can_simulate_efficiently(bad_k, bad_target)
