"""Command-line front end: batch computations, strategy runs, figure data.

Exit codes: 0 on success, 2 on usage/validation errors (including non-finite
numeric arguments and malformed JSON files), 3 on numeric errors (degenerate
couplings, infeasible times, overflow, non-finite results, inputs out of the
supported range, trajectories that leave it, requests too large to allocate).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache, partial

import numpy as np

from . import gates
from .core import (
    H0,
    HBS,
    HTMS,
    CMStack,
    NotPureError,
    apply_symplectic,
    evolve,
    k_from_dict,
    k_to_dict,
    matrix_from_list,
    matrix_to_list,
    restricted_svd,
    squeezed_product_cm,
    two_mode_squeezed_cm,
    vacuum_cm,
    valid_cm_stack,
)
from .measures import entanglement, negativity, squeezing
from .protocols import (
    Trajectory,
    csv_text,
    finite_time_bounds,
    flip_effective_coupling,
    flip_strategy,
    greedy_rate_walk,
    run_protocol,
    uniform_grid,
    write_text_atomic,
)
from .rates import optimal_entanglement_rate, optimal_squeezing_rate, squeezing_capability
from .simulate import (
    DegenerateHamiltonianError,
    InfeasibleTimeError,
    Protocol,
    can_simulate_efficiently,
    min_simulation_time,
    synthesize_plan,
)

__all__ = ["main", "reproduce_figures"]

_PRESETS = {"h0": H0, "hbs": HBS, "htms": HTMS}

#: Largest squeezing ``r`` of a ``--state``, whose largest CM eigenvalue is then ``e^r`` (that of
#: ``tms:r/2``); past it purity and ``det gamma >= 1`` no longer survive round-off.
_R_MAX = 6.5

#: Each built-in ``--state`` kind: the number of values it takes, and that rule in words.
_STATE_KINDS = {
    "vacuum": (range(1), "vacuum takes no values"),
    "squeezed": (range(1, 3), "squeezed:R1[,R2] takes one or two finite numbers"),
    "tms": (range(1, 2), "tms:T takes one finite number"),
}

_FIG_HEADER = "t,E0_opt,E0_tms,E0_bare,rate_opt,rate_tms,rate_bare,rate_vacuum_ref,N_bound"


def _read_json(path: str, parse):
    """``parse`` of the JSON in ``path``; a syntax, key, type or value error names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"{reason} (in {path})") from exc


def _parse_hamiltonian(spec: str) -> np.ndarray:
    name = spec.removeprefix("preset:").lower()
    if name in _PRESETS:
        return _PRESETS[name].copy()
    if spec.startswith("preset:"):
        raise ValueError(f"unknown preset {name!r}; the presets are {', '.join(_PRESETS)}")
    return _read_json(spec, k_from_dict)


def _check_range(spec: str, log_top: float) -> None:
    """The one range rule of every ``--state``: the log of its top CM eigenvalue, at most ``_R_MAX``
    with 1e-12 relative slack (exit 3); a built-in's is its parameter, checked before its CM is built."""
    if not log_top <= _R_MAX + 1e-12:
        raise OverflowError(
            f"state {spec} is out of range: a CM eigenvalue exceeds e^{_R_MAX:g}"
            f" (that of tms:{_R_MAX / 2:g})"
        )


def _parse_state(spec: str, pure: bool = False) -> CMStack:
    """The validated state ``spec`` names: the one check of a ``--state``."""
    kind, _, arg = spec.partition(":")
    kind = kind.lower()
    if kind not in _STATE_KINDS:
        return _read_json(spec, partial(_file_cm, spec, pure))
    counts, usage = _STATE_KINDS[kind]
    try:
        values = [float(x) for x in arg.split(",")] if arg else []
        if len(values) not in counts or not np.isfinite(values).all():
            raise ValueError
    except ValueError:
        raise ValueError(f"{usage}, got {arg!r}") from None
    if kind == "vacuum":
        return valid_cm_stack(vacuum_cm(), pure)
    if kind == "tms":
        _check_range(spec, 2.0 * abs(values[0]))
        return valid_cm_stack(two_mode_squeezed_cm(values[0]), pure)
    r1, r2 = values + [0.0] * (2 - len(values))
    _check_range(spec, max(abs(r1), abs(r2)))
    return valid_cm_stack(squeezed_product_cm(r1, r2), pure)


def _file_cm(spec: str, pure: bool, data) -> CMStack:
    """The validated state of a state file: a bare 16-entry list or ``{"cm": [...]}``."""
    if isinstance(data, dict):
        data = data["cm"]
    gamma = matrix_from_list(data)
    try:  # the range rule outranks a refusal: past it round-off breaks det >= 1
        stack = valid_cm_stack(gamma, pure)
    except ValueError:
        if np.isfinite(gamma).all():  # an eigenvalue up to 1 is in range, whatever its sign
            _check_range(spec, math.log(max(np.linalg.eigvalsh((gamma + gamma.T) / 2.0)[-1], 1.0)))
        raise
    _check_range(spec, math.log(stack.eigenvalues[0, -1]))
    return stack


def _emit(payload, out: str | None) -> None:
    """Write strict JSON; a NaN or infinite result is a numeric error (exit 3)."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise FloatingPointError("result is not finite") from exc
    if out:
        write_text_atomic(out, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns its JSON payload, or None once it has
# written its own text output.
# ---------------------------------------------------------------------------


def _cmd_rsv(args):
    _, svals, _ = restricted_svd(_parse_hamiltonian(args.hamiltonian))
    return {"s1": svals.s1, "s2": svals.s2}


def _cmd_simcheck(args):
    k = _parse_hamiltonian(args.hamiltonian)
    kp = _parse_hamiltonian(args.target)
    return {"efficient": can_simulate_efficiently(k, kp)}


def _cmd_tmin(args):
    k = _parse_hamiltonian(args.hamiltonian)
    kp = _parse_hamiltonian(args.target)
    return float(min_simulation_time(k, kp, args.t))


def _cmd_plan(args):
    plan = synthesize_plan(
        _parse_hamiltonian(args.hamiltonian),
        _parse_hamiltonian(args.target),
        args.t,
        t=args.total,
    )
    return plan.to_dict()


def _cmd_evolve(args):
    s = evolve(_parse_hamiltonian(args.hamiltonian), args.t)
    if args.state is None:
        return {"symplectic": matrix_to_list(s)}
    gamma = apply_symplectic(s, _parse_state(args.state).cms[0])
    return {"cm": matrix_to_list(gamma)}


def _cmd_measure(args):
    state = _parse_state(args.state)
    payload = squeezing(state).to_dict()
    try:
        payload.update(entanglement(state).to_dict())
    except NotPureError:
        payload["negativity"] = negativity(state)
        payload["pure"] = False
    return payload


def _cmd_rates(args):
    state = _parse_state(args.state)
    k = _parse_hamiltonian(args.hamiltonian)
    ent = optimal_entanglement_rate(state, k)
    sq = optimal_squeezing_rate(state, k)
    return {
        "entanglement_rate": ent.rate,
        "l": ent.l,
        "phi1": float(ent.rotations.phi1),
        "phi2": float(ent.rotations.phi2),
        "squeezing_rate": sq.rate,
        "C_S": sq.capability,
        "g_S": sq.squeezability,
    }


def _cmd_bounds(args):
    s_bound, n_bound = finite_time_bounds(
        _parse_hamiltonian(args.hamiltonian), args.t, args.r1, args.r2
    )
    return {"S_bound": s_bound, "N_bound": n_bound}


def _cmd_decompose(args):
    target = _read_json(args.gate, matrix_from_list)
    return gates.decompose_gate(target).to_list()


def _cmd_compile(args):
    seq = _read_json(args.gate, gates.GateSequence.from_list)
    protocol = gates.compile_to_native(seq, _parse_hamiltonian(args.hamiltonian), slices=args.slices)
    return protocol.to_dict()


def _flow_trajectory(gamma0, flow_k, times, native_k) -> Trajectory:
    """CMs ``S(t) gamma0 S(t)^T`` along the flow of ``flow_k`` (flip limit: ``(K + JKJ)/2``).

    ``gamma0`` is a state checked by :func:`_parse_state` or a figure's input.
    """
    times = np.asarray(times, dtype=float)
    cms = apply_symplectic(evolve(flow_k, times), gamma0)
    return Trajectory(times=times, cms=cms, native_k=native_k)


def _strategy(args):
    """Parse and validate every input of ``run``; return the call that computes the trajectory."""
    k = _parse_hamiltonian(args.hamiltonian)
    state = _parse_state(args.state, pure=True)
    if args.strategy.startswith("file:"):
        protocol = _read_json(args.strategy[5:], Protocol.from_dict)
        if not np.array_equal(protocol.native_k, k):
            raise ValueError(
                f"--hamiltonian {k_to_dict(k)} differs from the protocol's native_K"
                f" {k_to_dict(protocol.native_k)}"
            )
        return partial(run_protocol, state, protocol)
    if args.t <= 0:
        raise ValueError("run needs t > 0")
    if args.strategy == "flip":
        return partial(run_protocol, state, flip_strategy(k, args.t, args.steps))
    times = uniform_grid(args.t, args.dt)
    if args.strategy == "bare":
        return partial(_flow_trajectory, state.cms[0], k, times, k)
    if args.strategy == "greedy":
        return partial(greedy_rate_walk, state, k, times)
    if args.strategy == "tms":
        return partial(_flow_trajectory, state.cms[0], flip_effective_coupling(k), times, k)
    raise ValueError(f"unknown strategy {args.strategy!r}")


def _cmd_run(args):
    compute = _strategy(args)
    # The inputs are valid, so a computed CM that fails validation has left the
    # range where det(gamma) = 1 survives round-off: a numeric error (exit 3).
    try:
        traj = compute()
        if args.format == "json":
            return traj.reports()
        if args.out:
            traj.to_csv(args.out)
        else:
            sys.stdout.write(traj.csv_text())
    except ValueError as exc:
        raise OverflowError(f"trajectory leaves the supported range ({exc}); shorten --t") from exc
    return None


# ---------------------------------------------------------------------------
# Figure data reproduction
# ---------------------------------------------------------------------------


def _figure_rows(gamma0, times, r1: float, r2: float) -> list:
    """The figure columns in ``_FIG_HEADER`` order, under the position-position coupling ``H0``."""
    greedy = greedy_rate_walk(gamma0, H0, times).columns()
    tms = _flow_trajectory(gamma0, flip_effective_coupling(H0), times, H0).columns()
    bare = _flow_trajectory(gamma0, H0, times, H0).columns()
    columns = [times] + [c[key] for key in ("E0", "rate") for c in (greedy, tms, bare)]
    cap = np.full(len(times), squeezing_capability(H0))
    return columns + [cap, finite_time_bounds(H0, times.tolist(), r1, r2)[1]]


def reproduce_figures(which: str, outdir: str) -> str:
    """Write the per-strategy entanglement/rate columns for one figure.

    ``fig1``: squeezed-light input (mode 2 squeezed by ``r = 2.5``) under the
    position-position coupling, ``t`` in ``[0, 1.5]`` with step 1e-3.
    ``fig3``: the weakly entangled doubly squeezed input (``r1 = r2 = 2``,
    seed entanglement ``t0 = 1e-3``), ``t`` in ``[0, 1]`` with step 1e-4 up
    to ``t = 0.01`` and 1e-3 beyond.

    Returns the path of the written CSV.
    """
    os.makedirs(outdir, exist_ok=True)
    if which == "fig1":
        gamma0 = squeezed_product_cm(0.0, 2.5)
        times = np.round(np.arange(0, 1500 + 1) * 1e-3, 9)
        columns = _figure_rows(gamma0, times, 2.5, 0.0)
    elif which == "fig3":
        s_r = np.diag([math.e, 1.0 / math.e, math.e, 1.0 / math.e])
        gamma0 = apply_symplectic(s_r, two_mode_squeezed_cm(0.5e-3))
        fine = np.arange(0, 100 + 1) * 1e-4
        coarse = 0.01 + np.arange(1, 990 + 1) * 1e-3
        times = np.round(np.concatenate([fine, coarse]), 9)
        columns = _figure_rows(gamma0, times, 2.0, 2.0)
    else:
        raise ValueError(f"unknown figure {which!r}; choose fig1 or fig3")
    path = os.path.join(outdir, f"{which}.csv")
    write_text_atomic(path, csv_text(_FIG_HEADER, columns))
    return path


def _cmd_figures(args):
    for which in args.which:
        sys.stdout.write(reproduce_figures(which, args.outdir) + "\n")
    return None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: ``parse_args`` keeps no state."""
    parser = argparse.ArgumentParser(
        prog="twomode",
        description="Bilinear two-mode continuous-variable dynamics toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")

    def command(name, func, help, parents=(out,)):
        p = sub.add_parser(name, help=help, parents=list(parents))
        p.set_defaults(func=func)
        return p

    def add_h(p, name="--hamiltonian"):
        p.add_argument(name, required=True, help="coupling: file or preset:h0|hbs|htms")

    p = command("rsv", _cmd_rsv, "restricted singular values of a coupling")
    add_h(p)

    p = command("simcheck", _cmd_simcheck, "can the coupling simulate the target at unit cost?")
    add_h(p)
    p.add_argument("--target", required=True)

    p = command("tmin", _cmd_tmin, "minimal interaction time to simulate the target")
    add_h(p)
    p.add_argument("--target", required=True)
    p.add_argument("--t", type=float, default=1.0, help="simulated duration")

    p = command("plan", _cmd_plan, "explicit simulation plan for a target coupling")
    add_h(p)
    p.add_argument("--target", required=True)
    p.add_argument("--t", type=float, default=1.0, help="simulated duration")
    p.add_argument("--total", type=float, default=None, help="interaction time (default: minimal)")

    p = command("evolve", _cmd_evolve, "flow matrix of a coupling (optionally applied to a state)")
    add_h(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--state")

    p = command("measure", _cmd_measure, "entanglement and squeezing of a state")
    p.add_argument("--state", required=True, help="vacuum | squeezed:R[,R2] | tms:T | file")

    p = command("rates", _cmd_rates, "optimal entanglement and squeezing rates")
    add_h(p)
    p.add_argument("--state", required=True)

    p = command("run", _cmd_run, "run a strategy and export the trajectory")
    add_h(p)
    p.add_argument("--state", default="vacuum")
    p.add_argument(
        "--strategy",
        default="greedy",
        help="bare | flip | greedy | tms | file:<protocol.json>",
    )
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=1000, help="windows for the flip strategy")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = command("bounds", _cmd_bounds, "squeezing/negativity bounds after finite time")
    add_h(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--r1", type=float, default=0.0)
    p.add_argument("--r2", type=float, default=0.0)

    p = command("decompose", _cmd_decompose, "decompose a symplectic matrix into native gates")
    p.add_argument("--gate", required=True, help="JSON file with a row-major 16-entry matrix")

    p = command("compile", _cmd_compile, "compile a gate sequence onto a native coupling")
    add_h(p)
    p.add_argument("--gate", required=True, help="JSON file with a gate list")
    p.add_argument("--slices", type=int, default=200)

    p = command("figures", _cmd_figures, "reproduce figure data as CSV", parents=())
    p.add_argument("--which", nargs="+", choices=("fig1", "fig3"), required=True)
    p.add_argument("--outdir", default=".")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"--{name} must be a finite number, got {value}")
        # NumPy overflow and NaN raise FloatingPointError (exit 3).
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            payload = args.func(args)
        if payload is not None:
            _emit(payload, args.out)
        return 0
    except (
        DegenerateHamiltonianError,
        InfeasibleTimeError,
        ArithmeticError,
        MemoryError,
    ) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
