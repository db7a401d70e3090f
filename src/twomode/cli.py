"""Command-line front end: batch computations, strategy runs, figure data.

Exit codes: 0 on success, 2 on usage/validation errors (including non-finite
numeric arguments), 3 on numeric errors (degenerate couplings, infeasible
times, singular measurement blocks, overflow, non-finite results).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import gates
from .core import (
    H0,
    HBS,
    HTMS,
    LocalRotationPair,
    NotPureError,
    apply_symplectic,
    assert_valid_cm,
    evolve,
    k_from_dict,
    matrix_from_list,
    matrix_to_list,
    restricted_svd,
    squeezed_product_cm,
    two_mode_squeezed_cm,
    vacuum_cm,
)
from .measures import entanglement, negativity, squeezing
from .protocols import (
    NotPassiveError,
    SingularBlockError,
    Trajectory,
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
    ProtocolStep,
    can_simulate_efficiently,
    min_simulation_time,
    synthesize_plan,
)

__all__ = ["main", "reproduce_figures"]

_PRESETS = {"h0": H0, "hbs": HBS, "htms": HTMS}

_FIG_HEADER = "t,E0_opt,E0_tms,E0_bare,rate_opt,rate_tms,rate_bare,rate_vacuum_ref,N_bound"


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_hamiltonian(spec: str) -> np.ndarray:
    name = spec.removeprefix("preset:").lower()
    if name in _PRESETS:
        return _PRESETS[name].copy()
    data = _load_json(spec)
    return k_from_dict(data)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_state(spec: str) -> np.ndarray:
    kind, _, arg = spec.partition(":")
    kind = kind.lower()
    if kind == "vacuum":
        return vacuum_cm()
    if kind == "squeezed":
        parts = [_finite_float(x) for x in arg.split(",")] if arg else [0.0]
        r1 = parts[0]
        r2 = parts[1] if len(parts) > 1 else 0.0
        return squeezed_product_cm(r1, r2)
    if kind == "tms":
        return two_mode_squeezed_cm(_finite_float(arg))
    data = _load_json(spec)
    if isinstance(data, dict):
        data = data["cm"]
    return assert_valid_cm(matrix_from_list(data))


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
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_rsv(args) -> int:
    _, svals, _ = restricted_svd(_parse_hamiltonian(args.hamiltonian))
    _emit({"s1": svals.s1, "s2": svals.s2}, args.out)
    return 0


def _cmd_simcheck(args) -> int:
    k = _parse_hamiltonian(args.hamiltonian)
    kp = _parse_hamiltonian(args.target)
    _emit({"efficient": can_simulate_efficiently(k, kp)}, args.out)
    return 0


def _cmd_tmin(args) -> int:
    k = _parse_hamiltonian(args.hamiltonian)
    kp = _parse_hamiltonian(args.target)
    _emit(float(min_simulation_time(k, kp, args.t)), args.out)
    return 0


def _cmd_plan(args) -> int:
    plan = synthesize_plan(
        _parse_hamiltonian(args.hamiltonian),
        _parse_hamiltonian(args.target),
        args.t,
        t=args.total,
    )
    _emit(plan.to_dict(), args.out)
    return 0


def _cmd_evolve(args) -> int:
    s = evolve(_parse_hamiltonian(args.hamiltonian), args.t)
    if args.state is not None:
        gamma = apply_symplectic(s, _parse_state(args.state))
        _emit({"cm": matrix_to_list(gamma)}, args.out)
    else:
        _emit({"symplectic": matrix_to_list(s)}, args.out)
    return 0


def _cmd_measure(args) -> int:
    gamma = _parse_state(args.state)
    payload = squeezing(gamma).to_dict()
    try:
        payload.update(entanglement(gamma).to_dict())
    except NotPureError:
        payload["negativity"] = negativity(gamma)
        payload["pure"] = False
    _emit(payload, args.out)
    return 0


def _cmd_rates(args) -> int:
    gamma = _parse_state(args.state)
    k = _parse_hamiltonian(args.hamiltonian)
    ent = optimal_entanglement_rate(gamma, k)
    sq = optimal_squeezing_rate(gamma, k)
    payload = {
        "entanglement_rate": ent.rate,
        "l": ent.l,
        "phi1": float(ent.rotations.phi1),
        "phi2": float(ent.rotations.phi2),
        "squeezing_rate": sq.rate,
        "C_S": sq.capability,
        "g_S": sq.squeezability,
    }
    _emit(payload, args.out)
    return 0


def _cmd_bounds(args) -> int:
    s_bound, n_bound = finite_time_bounds(
        _parse_hamiltonian(args.hamiltonian), args.t, args.r1, args.r2
    )
    _emit({"S_bound": s_bound, "N_bound": n_bound}, args.out)
    return 0


def _cmd_decompose(args) -> int:
    target = matrix_from_list(_load_json(args.gate))
    seq = gates.decompose_gate(target)
    _emit(seq.to_list(), args.out)
    return 0


def _cmd_compile(args) -> int:
    seq = gates.GateSequence.from_list(_load_json(args.gate))
    protocol = gates.compile_to_native(seq, _parse_hamiltonian(args.hamiltonian), slices=args.slices)
    _emit(protocol.to_dict(), args.out)
    return 0


def _flow_trajectory(gamma0, flow_k, times, native_k) -> Trajectory:
    """CMs ``S(t) gamma0 S(t)^T`` along the flow of ``flow_k`` (flip limit: ``(K + JKJ)/2``)."""
    times = np.asarray(times, dtype=float)
    flows = evolve(flow_k, times)
    out = flows @ assert_valid_cm(gamma0) @ flows.transpose(0, 2, 1)
    return Trajectory(times=times, cms=(out + out.transpose(0, 2, 1)) / 2.0, native_k=native_k)


def _run_trajectory(args) -> Trajectory:
    k = _parse_hamiltonian(args.hamiltonian)
    state = _parse_state(args.state)
    if args.strategy.startswith("file:"):
        return run_protocol(state, Protocol.from_dict(_load_json(args.strategy[5:])))
    if args.t <= 0:
        raise ValueError("run needs t > 0")
    if args.strategy == "flip":
        return run_protocol(state, flip_strategy(k, args.t, args.steps))
    times = uniform_grid(args.t, args.dt)
    if args.strategy == "bare":
        steps = tuple(ProtocolStep(LocalRotationPair(), d) for d in np.diff(times).tolist())
        return run_protocol(state, Protocol(k, steps))
    if args.strategy == "greedy":
        return greedy_rate_walk(state, k, times)
    if args.strategy == "tms":
        return _flow_trajectory(state, flip_effective_coupling(k), times, k)
    raise ValueError(f"unknown strategy {args.strategy!r}")


def _cmd_run(args) -> int:
    traj = _run_trajectory(args)
    if args.format == "json":
        _emit(traj.reports(), args.out)
    elif args.out:
        traj.to_csv(args.out)
    else:
        sys.stdout.write(traj.csv_text())
    return 0


# ---------------------------------------------------------------------------
# Figure data reproduction
# ---------------------------------------------------------------------------


def _figure_rows(gamma0, k, times, r1: float, r2: float, lock_band=None) -> list[str]:
    cap = squeezing_capability(k)
    greedy = greedy_rate_walk(gamma0, k, times, lock_band=lock_band).columns()
    tms = _flow_trajectory(gamma0, flip_effective_coupling(k), times, k).columns()
    bare = _flow_trajectory(gamma0, k, times, k).columns()
    columns = [times] + [c[key] for key in ("E0", "rate") for c in (greedy, tms, bare)]
    columns += [np.full(len(times), cap), np.exp(cap * times + (r1 + r2) / 2.0)]
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return [",".join(map(repr, row)) for row in rows]


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
        rows = _figure_rows(gamma0, H0, times, 2.5, 0.0)
        path = os.path.join(outdir, "fig1.csv")
    elif which == "fig3":
        s_r = np.diag([math.e, 1.0 / math.e, math.e, 1.0 / math.e])
        gamma0 = apply_symplectic(s_r, two_mode_squeezed_cm(0.5e-3))
        fine = np.arange(0, 100 + 1) * 1e-4
        coarse = 0.01 + np.arange(1, 990 + 1) * 1e-3
        times = np.round(np.concatenate([fine, coarse]), 9)
        rows = _figure_rows(gamma0, H0, times, 2.0, 2.0)
        path = os.path.join(outdir, "fig3.csv")
    else:
        raise ValueError(f"unknown figure {which!r}; choose fig1 or fig3")
    write_text_atomic(path, "\n".join([_FIG_HEADER] + rows) + "\n")
    return path


def _cmd_figures(args) -> int:
    for which in args.which:
        path = reproduce_figures(which, args.outdir)
        sys.stdout.write(path + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twomode",
        description="Bilinear two-mode continuous-variable dynamics toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_h(p, name="--hamiltonian"):
        p.add_argument(name, required=True, help="coupling: file or preset:h0|hbs|htms")

    p = sub.add_parser("rsv", help="restricted singular values of a coupling")
    add_h(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rsv)

    p = sub.add_parser("simcheck", help="can the coupling simulate the target at unit cost?")
    add_h(p)
    p.add_argument("--target", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simcheck)

    p = sub.add_parser("tmin", help="minimal interaction time to simulate the target")
    add_h(p)
    p.add_argument("--target", required=True)
    p.add_argument("--t", type=float, default=1.0, help="simulated duration")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tmin)

    p = sub.add_parser("plan", help="explicit simulation plan for a target coupling")
    add_h(p)
    p.add_argument("--target", required=True)
    p.add_argument("--t", type=float, default=1.0, help="simulated duration")
    p.add_argument("--total", type=float, default=None, help="interaction time (default: minimal)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("evolve", help="flow matrix of a coupling (optionally applied to a state)")
    add_h(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--state")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("measure", help="entanglement and squeezing of a state")
    p.add_argument("--state", required=True, help="vacuum | squeezed:R[,R2] | tms:T | file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("rates", help="optimal entanglement and squeezing rates")
    add_h(p)
    p.add_argument("--state", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("run", help="run a strategy and export the trajectory")
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
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bounds", help="squeezing/negativity bounds after finite time")
    add_h(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--r1", type=float, default=0.0)
    p.add_argument("--r2", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("decompose", help="decompose a symplectic matrix into native gates")
    p.add_argument("--gate", required=True, help="JSON file with a row-major 16-entry matrix")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("compile", help="compile a gate sequence onto a native coupling")
    add_h(p)
    p.add_argument("--gate", required=True, help="JSON file with a gate list")
    p.add_argument("--slices", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("figures", help="reproduce figure data as CSV")
    p.add_argument("--which", nargs="+", choices=("fig1", "fig3"), required=True)
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=_cmd_figures)

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
            return args.func(args)
    except (
        DegenerateHamiltonianError,
        InfeasibleTimeError,
        SingularBlockError,
        NotPassiveError,
        ArithmeticError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NotPureError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
