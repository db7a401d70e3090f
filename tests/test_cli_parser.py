"""The CLI parser is built once, on the first ``main`` call, and reused.

Successive calls must not see each other's options, and the help text must
not change.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from twomode import cli

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_parser_is_built_once(capsys):
    cli.main(["rsv", "--hamiltonian", "preset:h0"])
    parser = cli._build_parser()
    cli.main(["bounds", "--hamiltonian", "preset:h0", "--t", "1"])
    assert cli._build_parser() is parser
    capsys.readouterr()


def test_import_builds_no_parser():
    code = "import twomode.cli as c; print(c._build_parser.cache_info().currsize)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "0"


def test_defaults_do_not_leak_between_calls(capsys):
    base = ["run", "--hamiltonian", "preset:h0", "--strategy", "flip", "--t", "0.5"]
    code, out = _run(capsys, base + ["--steps", "10"])
    assert code == 0 and len(out.splitlines()) == 1 + 11
    code, out = _run(capsys, base)
    assert code == 0 and len(out.splitlines()) == 1 + 1001
    code, out = _run(capsys, ["run", "--hamiltonian", "preset:h0", "--t", "0.01", "--format", "json"])
    assert code == 0 and out.lstrip().startswith("[")
    code, out = _run(capsys, ["run", "--hamiltonian", "preset:h0", "--t", "0.01"])
    assert code == 0 and out.startswith("t,E0,negativity,S,Q,rate\n")


def test_out_does_not_leak_between_calls(capsys, tmp_path):
    path = tmp_path / "rsv.json"
    code, out = _run(capsys, ["rsv", "--hamiltonian", "preset:h0", "--out", str(path)])
    assert code == 0 and out == "" and path.exists()
    code, out = _run(capsys, ["rsv", "--hamiltonian", "preset:h0"])
    assert code == 0 and '"s1"' in out
    code, out = _run(capsys, ["measure", "--state", "tms:0.5"])
    assert code == 0 and '"E0"' in out


def test_subcommands_alternate(capsys):
    first = _run(capsys, ["rates", "--hamiltonian", "preset:h0", "--state", "tms:0.2"])
    _run(capsys, ["bounds", "--hamiltonian", "preset:hbs", "--t", "2", "--r1", "0.3"])
    assert _run(capsys, ["tmin", "--hamiltonian", "preset:hbs", "--target", "preset:h0"])[0] == 3
    assert _run(capsys, ["rates", "--hamiltonian", "preset:h0", "--state", "tms:0.2"]) == first


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["plan", "--help"]])
def test_help_is_unchanged(capsys, argv):
    """The reused parser prints the help of a freshly built one, call after call."""
    with pytest.raises(SystemExit):
        cli._build_parser.__wrapped__().parse_args(argv)
    expected = capsys.readouterr().out
    assert expected.startswith("usage: twomode")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == expected
