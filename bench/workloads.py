"""The three workloads: each turns loaded inputs into a pass of timed ops.

An op's ``run`` is the timed call into the package; its ``check`` runs
afterwards, outside the timed region, and returns the work units the op
completed, its failure messages and whether it showed the entropy defect.
Package functions are looked up on their module at call time, so the traced
run sees the tracer's wrappers and the untraced runs the originals.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles


@dataclass
class Checked:
    work: int
    failures: list[str]
    entropy_mismatch: bool = False


@dataclass
class Op:
    label: str
    size: int  # a-priori cost rank, used only to pick warm-up ops
    run: Callable[[], object]
    check: Callable[[object], Checked]


def _k_dict(k) -> dict:
    k = np.asarray(k, dtype=float)
    return {"a": k[0, 0], "b": k[1, 1], "c": k[1, 0], "d": k[0, 1]}


def _write_json(path: str, payload) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def trajectory_ops(inputs: list[dict], workdir: str) -> list[Op]:
    """``cli.main(["run", ...])`` ops that write a CSV trajectory."""
    import twomode.cli

    ops = []
    for i, op in enumerate(inputs):
        k_path = _write_json(os.path.join(workdir, f"k{i}.json"), _k_dict(op["k"]))
        state = "vacuum" if op["vacuum"] else _write_json(
            os.path.join(workdir, f"state{i}.json"), {"cm": np.ravel(op["cm"]).tolist()}
        )
        out = os.path.join(workdir, f"traj{i}.csv")
        size = ["--steps", str(op["steps"])] if op["strategy"] == "flip" else ["--dt", repr(op["dt"])]
        argv = [
            "run", "--hamiltonian", k_path, "--state", state, "--strategy", op["strategy"],
            "--t", repr(op["t"]), *size, "--format", "csv", "--out", out,
        ]

        def run(argv=argv):
            return twomode.cli.main(argv)

        def check(code, op=op, out=out):
            nodes = oracles.expected_nodes(op)
            if code != 0:
                return Checked(0, [f"exit code {code}"])
            with open(out, encoding="utf-8") as fh:
                header = fh.readline().strip()
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
            os.unlink(out)
            bad = [] if header == "t,E0,negativity,S,Q,rate" else [f"header {header!r}"]
            bad += oracles.check_trajectory(op, rows)
            return Checked(0 if bad else nodes, bad)

        ops.append(Op(f"{op['strategy']}-{op['steps']}", op["steps"], run, check))
    return ops


def compile_ops(inputs: list[dict], workdir: str) -> list[Op]:
    """decompose -> compile onto the native coupling -> run -> final state."""
    from twomode import gates, protocols

    ops = []
    for op in inputs:
        gate, k, gamma0 = (np.array(op[key]) for key in ("gate", "k", "cm"))

        def run(gate=gate, k=k, gamma0=gamma0, slices=op["slices"]):
            seq = gates.decompose_gate(gate)
            protocol = gates.compile_to_native(seq, k, slices=slices)
            return seq, len(protocol.steps), protocols.run_protocol(gamma0, protocol).final

        def check(result, op=op):
            seq, steps, final = result
            bad = oracles.check_compile(op, seq.to_list(), np.asarray(final))
            return Checked(0 if bad else steps, bad)

        ops.append(Op(f"compile-{op['slices']}", op["slices"], run, check))
    return ops


def query_ops(inputs: list[dict], workdir: str) -> list[Op]:
    """One independent (CM, K) query across measures, rates, core and simulate."""
    from twomode import core, measures, rates, simulate

    ops = []
    for op in inputs:
        gamma, k, k_target = (np.array(op[key]) for key in ("cm", "k", "k_target"))
        pure = op["kind"] != "mixed"

        def run(gamma=gamma, k=k, k_target=k_target, t_target=op["t_target"], pure=pure):
            sq = measures.squeezing(gamma)
            if pure:
                ent = measures.entanglement(gamma)
                ent_rate = rates.optimal_entanglement_rate(gamma, k).rate
            else:
                ent = measures.negativity(gamma)
                ent_rate = None
            sq_rate = rates.optimal_squeezing_rate(gamma, k).rate
            svals = core.restricted_svd(k).svals
            t_min = simulate.min_simulation_time(k, k_target, t_target)
            return sq.squeezing, ent, ent_rate, sq_rate, svals, t_min

        def check(result, ref=oracles.query_reference(op), pure=pure):
            _, ent, _, _, svals, _ = result
            neg = ent.negativity if pure else ent
            bad = oracles.check_query(ref, neg, svals.s1, svals.s2)
            mismatch = pure and oracles.entropy_mismatch(ref, ent.entropy)
            return Checked(0 if bad else 1, bad, mismatch)

        ops.append(Op(f"query-{op['kind']}", 1, run, check))
    return ops


BUILDERS = {
    "trajectory": trajectory_ops,
    "compile_run": compile_ops,
    "state_queries": query_ops,
}
