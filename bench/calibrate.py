"""Machine-speed probe that calibrates the timings of a run.

The benchmark runs on shared hosts whose cores other tenants load in bursts:
the same code then runs up to 2x slower, for fractions of a second or for
minutes.  The slowdown is effective CPU speed (process CPU time grows with
the wall time), so no timer inside the process can leave it out, and raw
timings of the same code spread wider than any useful regression bound.

The probe is a fixed kernel of 4x4 NumPy algebra and CSV-style float
formatting, the same kinds of work as the package's, built from the
benchmark's own inputs and oracles; it never calls ``twomode``.  It runs between the ops and takes a
fixed share of their time, so ops and probes see the same load.  Each op time
is divided by the mean probe time of its *segment* (a run of consecutive
passes holding at least ``SEGMENT_PROBES`` probes) and multiplied by
``REFERENCE_PROBE_S``.  Means, not minima, because a slowed op is slowed by
the mean load over its duration.  A calibrated time therefore reads as the
op's time on a machine where the probe takes ``REFERENCE_PROBE_S``; a change
to the package moves it, and a change in the host's load largely cancels.

Set-up time is interpreter start-up and module loading, which load slows
less than it slows the probe.  Its reference is of the same kind: a fresh
interpreter that imports NumPy alone, timed right before and after each
set-up sample and scaled to ``REFERENCE_IMPORT_S``.
"""

from __future__ import annotations

import time

import numpy as np

from inputs import flow, random_coupling
from oracles import negativity_closed_form

#: Probe time on an unloaded 2.1 GHz Intel Xeon vCPU (Python 3.11, NumPy 2.4).
#: Only a scale: comparisons on one machine do not depend on it.
REFERENCE_PROBE_S = 0.5e-3
#: Probe time owed per second of op time.
PROBE_SHARE = 0.08
#: Probes a segment holds at least before it closes at the end of a pass.
SEGMENT_PROBES = 50
#: ``python3 -c "import numpy"`` on the same unloaded vCPU.
REFERENCE_IMPORT_S = 0.1


class Probe:
    """The probe kernel and the probe times of the current segment."""

    def __init__(self):
        rng = np.random.default_rng(99)
        self._couplings = [random_coupling(rng, min_gap=0.3) for _ in range(4)]
        self._rows = rng.normal(size=(40, 6)).tolist()
        self._owed = 0.0
        self.times: list[float] = []

    def kernel(self) -> int:
        """Small-matrix algebra, block invariants and CSV-style formatting."""
        total = 0.0
        for k in self._couplings:
            s = flow(k, 0.3)
            gamma = (s @ s.T + s.T @ s) / 2.0
            total += negativity_closed_form(gamma)
            total += float(np.linalg.eigvalsh(gamma)[0]) + float(np.trace(gamma @ gamma))
        lines = [",".join(repr(x) for x in row) for row in self._rows]
        cells = {f"c{i}": line for i, line in enumerate(lines)}
        return len("\n".join(cells.values())) + int(total)

    def run(self, n: int) -> list[float]:
        """Times of ``n`` probes."""
        out = []
        for _ in range(n):
            t0 = time.perf_counter()
            self.kernel()
            out.append(time.perf_counter() - t0)
        return out

    def after_op(self, elapsed: float) -> None:
        """Run the probes owed for ``elapsed`` seconds of op time into the segment."""
        self._owed += elapsed * PROBE_SHARE / REFERENCE_PROBE_S
        due = int(self._owed)
        self._owed -= due
        self.times.extend(self.run(due))

    def take_segment(self) -> list[float]:
        times, self.times = self.times, []
        return times

    @staticmethod
    def scale(times: list[float]) -> float:
        """Factor that turns a time measured beside ``times`` into calibrated time."""
        return REFERENCE_PROBE_S * len(times) / sum(times)
