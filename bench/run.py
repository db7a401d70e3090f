"""Benchmark of the twomode package: one workload per process.

Usage, from the repository root:

    python3 bench/run.py --workload trajectory --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload repeats its pass of ops until ``--seconds``
of op time have been measured and reports the end-to-end metrics.  Times
are calibrated against a machine-speed probe run between the ops
(``calibrate.py``); the raw times go to the result file.  With
``--trace 1`` it times a third of that budget untraced, then the same passes with
every layer's public functions wrapped, and reports the per-layer metrics.
Every op's output is checked against an independent oracle outside the
timed region.  The last line of stdout is one JSON object; a fuller record
goes to ``bench/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread: the workloads are single-threaded 4x4 algebra, and the
# setting must be fixed before NumPy is imported.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from calibrate import REFERENCE_IMPORT_S, SEGMENT_PROBES, Probe  # noqa: E402
from workloads import BUILDERS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

#: Fresh-interpreter imports timed at the start, middle and end of a run.
SETUP_REPEATS = 5
WARMUP_S = 1.0
TAIL_BLOCK = 1000
WORK_UNITS = {"trajectory": "nodes", "compile_run": "steps", "state_queries": "queries"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(repeats: int = SETUP_REPEATS) -> list[tuple[float, float]]:
    """Raw and calibrated wall times of fresh interpreters importing ``twomode`` and its CLI.

    Each sample sits between two reference interpreters that import NumPy
    alone; it is scaled by their mean (see ``calibrate.py``).
    """
    env = _child_env()

    def wall(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        return time.perf_counter() - t0

    ref = [wall("import numpy")]
    samples = []
    for _ in range(repeats):
        raw = wall("import twomode, twomode.cli")
        ref.append(wall("import numpy"))
        samples.append((raw, raw * REFERENCE_IMPORT_S * 2.0 / (ref[-2] + ref[-1])))
    return samples


def import_package():
    sys.path.insert(0, str(SRC))
    import twomode
    import twomode.cli  # noqa: F401

    if Path(twomode.__file__).resolve().parent != SRC / "twomode":
        raise ImportError(f"twomode imported from {twomode.__file__}, not {SRC}")
    return twomode


class Phase:
    """Latencies, work and check results of a series of whole passes."""

    def __init__(self):
        self.latencies: list[float] = []  # op i of pass p at p * ops + i
        self.scaled: list[float] = []  # the same, calibrated segment by segment
        self.probe_times: list[float] = []
        self.work = 0
        self.busy = 0.0
        self.passes = 0
        self.failed = 0
        self.failures: list[str] = []
        self.entropy_mismatch: set[int] = set()

    def close_segment(self, probe_times: list[float]) -> None:
        factor = Probe.scale(probe_times)
        self.scaled.extend(t * factor for t in self.latencies[len(self.scaled) :])
        self.probe_times.extend(probe_times)


def run_passes(
    ops, seconds: float, probe: Probe, min_passes: int = 1, tracer=None, midway=None
) -> Phase:
    """Repeat whole passes over ``ops`` until ``seconds`` of op time are spent.

    Only the ``run`` call of each op is timed; its check follows untimed, and
    then the probes owed for its time.  ``midway`` is called once, after the
    first pass that ends past half of ``seconds``.
    """
    phase = Phase()
    while phase.passes < min_passes or phase.busy < seconds:
        if midway is not None and phase.busy >= seconds / 2:
            midway()
            midway = None
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id += 1
            t0 = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a failed op is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            phase.latencies.append(elapsed)
            phase.busy += elapsed
            if error is None:
                try:
                    checked = op.check(result)
                    failures = checked.failures
                except Exception as exc:  # malformed output
                    checked, failures = None, [f"check raised {type(exc).__name__}: {exc}"]
            else:
                checked, failures = None, [error]
            if failures:
                phase.failed += 1
                if len(phase.failures) < 20:
                    phase.failures.append(f"op {i} ({op.label}): {'; '.join(failures)}")
            else:
                phase.work += checked.work
            if checked is not None and checked.entropy_mismatch:
                phase.entropy_mismatch.add(i)
            probe.after_op(elapsed)
        phase.passes += 1
        if len(probe.times) >= SEGMENT_PROBES:
            phase.close_segment(probe.take_segment())
    if len(phase.scaled) < len(phase.latencies):
        rest = probe.take_segment()
        phase.close_segment(rest + probe.run(SEGMENT_PROBES - len(rest)))
    return phase


def op_means(latencies: list[float], ops: int) -> list[float]:
    """Each op's mean latency over the passes."""
    return [statistics.fmean(latencies[i::ops]) for i in range(ops)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten ops beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def blocked_tail(latencies: list[float], ops: int) -> tuple[float, float, int]:
    """:func:`tail` read in blocks of whole passes holding >= TAIL_BLOCK ops.

    Returns the block percentile, the median of the block values and the
    number of blocks.  With thousands of ops in a run, the tenth-slowest op
    of the whole run is set by rare stalls of the machine, not by the code;
    a median over blocks of about a thousand ops is steady.
    """
    size = ops * -(-TAIL_BLOCK // ops)
    blocks = [latencies[i : i + size] for i in range(0, len(latencies) - size + 1, size)]
    if len(blocks) < 2:
        return (*tail(latencies), 1)
    return tail(blocks[0])[0], statistics.median(tail(b)[1] for b in blocks), len(blocks)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, max_ops: int | None = None) -> dict:
    """Run one workload and return its result record.

    ``max_ops`` keeps only the cheapest ops of the pass (the smoke test uses
    it); the metrics of a truncated pass are not comparable with full runs.
    """
    probe = Probe()
    probe.run(SEGMENT_PROBES)  # warm-up
    measure_setup(1)  # writes the bytecode caches
    setup = measure_setup()
    import_package()
    from tracing import Tracer

    tracer = Tracer()
    tracer.assert_unwrapped()

    workdir = BENCH / ".work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        generated = inputs.GENERATORS[workload](seed)
        inputs_path = workdir / "inputs.json"
        inputs_path.write_text(json.dumps(generated), encoding="utf-8")
        loaded = json.loads(inputs_path.read_text(encoding="utf-8"))
        ops = BUILDERS[workload](loaded, str(workdir))
        if max_ops is not None:
            ops = sorted(ops, key=lambda o: o.size)[:max_ops]

        spent = 0.0
        for op in sorted(ops, key=lambda o: o.size):
            if spent >= WARMUP_S:
                break
            t0 = time.perf_counter()
            try:
                op.check(op.run())
            except Exception:  # counted when the timed passes repeat it
                pass
            spent += time.perf_counter() - t0

        tracer.assert_unwrapped()
        plain = run_passes(
            ops,
            seconds / 3 if trace else seconds,
            probe,
            midway=lambda: setup.extend(measure_setup()),
        )
        setup += measure_setup()
        traced = None
        if trace:
            tracer.install()
            try:
                traced = run_passes(ops, 0.0, probe, min_passes=plain.passes, tracer=tracer)
            finally:
                tracer.uninstall()
            tracer.assert_unwrapped()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    phases = [plain] + ([traced] if traced else [])
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    pct, tail_s, tail_blocks = blocked_tail(plain.scaled, len(ops))
    record = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": provenance(seed),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": [f for p in phases for f in p.failures][:20],
        "ops_per_pass": len(ops),
        "op_latency_ms": [
            {"label": op.label, "median": statistics.median(lat) * 1e3, "min": min(lat) * 1e3, "max": max(lat) * 1e3}
            for op, lat in ((op, plain.latencies[i :: len(ops)]) for i, op in enumerate(ops))
        ],
        "passes": plain.passes,
        "work_unit": WORK_UNITS[workload],
        "work": plain.work,
        "busy_s": plain.busy,
        "op_samples": len(plain.latencies),
        "op_tail_percentile": pct,
        "op_tail_blocks": tail_blocks,
        "setup_samples": [calibrated for _, calibrated in setup],
        "raw": {
            "setup_s": statistics.median(raw for raw, _ in setup),
            "work_per_s": plain.work / plain.busy,
            "op_p50_ms": statistics.median(op_means(plain.latencies, len(ops))) * 1e3,
            "op_tail_ms": blocked_tail(plain.latencies, len(ops))[1] * 1e3,
            "setup_samples": [raw for raw, _ in setup],
        },
        "probe_ms": {
            "mean": statistics.fmean(plain.probe_times) * 1e3,
            "min": min(plain.probe_times) * 1e3,
            "samples": len(plain.probe_times),
        },
        "entropy_mismatch": len(plain.entropy_mismatch),
    }
    if trace:
        metrics = tracer.layer_metrics(traced.work, traced.busy)
        metrics["trace.overhead_ratio"] = (sum(traced.scaled) / sum(plain.scaled), "ratio")
        metrics["measures.entanglement.entropy_mismatch"] = (len(traced.entropy_mismatch), "count")
        record["traced_busy_s"] = traced.busy
        record["spans"] = len(tracer.spans) // 5
    else:
        metrics = {
            "setup_s": (statistics.median(record["setup_samples"]), "s"),
            "work_per_s": (plain.work / sum(plain.scaled), "1/s"),
            "op_p50_ms": (statistics.median(op_means(plain.scaled, len(ops))) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    record["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if trace:
        tracer.write_spans(RESULTS / f"{workload}-spans.jsonl", {"workload": workload, "seed": seed})
    return record


def summary_lines(record: dict) -> list[str]:
    """Human-readable metric lines printed before the JSON result."""
    lines = [
        f"workload {record['workload']} seed {record['provenance']['seed']} trace {record['trace']}",
        f"ops {record['op_samples']} in {record['passes']} passes of {record['ops_per_pass']}, "
        f"work {record['work']} {record['work_unit']} in {record['busy_s']:.3f} s",
    ]
    probe = record["probe_ms"]
    lines.append(f"probe {probe['mean']:.4g} ms mean, {probe['min']:.4g} ms min, n={probe['samples']}")
    for name, metric in record["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(record['setup_samples'])})"
        elif name in ("op_p50_ms", "work_per_s"):
            note = f"  ({record['ops_per_pass']} ops, each a mean of {record['passes']} passes)"
        elif name == "op_tail_ms":
            note = (
                f"  (p{record['op_tail_percentile']:.2f}, n={record['op_samples']}, "
                f"median of {record['op_tail_blocks']} blocks)"
            )
        if name in record["raw"] and not record["trace"]:
            note += f"  raw {record['raw'][name]:.6g}"
        lines.append(f"{name} {metric['value']:.6g} {metric['unit']}{note}")
    lines.append(f"failed_ratio {record['failed_ratio']:.6g}  ({record['failed']}/{record['attempted']})")
    lines.append(f"entropy_mismatch {record['entropy_mismatch']} count")
    lines.extend(f"FAILED {msg}" for msg in record["failures"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twomode" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(summary_lines(record)))
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
