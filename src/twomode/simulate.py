"""Simulation of one bilinear coupling by another using fast local rotations.

Interspersing an always-on coupling ``K`` with instantaneous local rotations
realises, in the limit of many short interaction windows, the flow of an
effective coupling

    kappa * K_eff = sum_i p_i * R1_i^T K R2_i,

where the weights ``p_i`` are the time fractions spent in each window, the
``(R1_i, R2_i)`` are the rotations applied to the state during window ``i``,
and ``kappa = t_target / t`` is the ratio of simulated time to interaction
time.  Whether a target can be reached, at what minimal cost, and with which
explicit rotation schedule, is decided entirely by the restricted singular
values of the two couplings.  One rule, :func:`_degenerate`, decides
``s1 = |s2|``: such a ``K`` simulates only its rescalings, and compiles nothing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .core import (
    LocalRotationPair,
    RestrictedSingularValues,
    _as_k,
    _json_numbers,
    _rsvd_angles,
    _wrap,
    k_from_dict,
    k_to_dict,
    rotation,
)

__all__ = [
    "DegenerateHamiltonianError",
    "InfeasibleTimeError",
    "SimulationPlan",
    "Protocol",
    "can_simulate_efficiently",
    "min_simulation_time",
    "synthesize_plan",
    "plan_to_protocol",
    "effective_hamiltonian",
]

#: Relative gap ``(s1 - |s2|) / s1`` at or below which a coupling is degenerate, ``s1 = |s2|``.  Above it a
#: plan misses a random target by up to 6e-16 / gap relative (rescaled and degenerate targets by 1e-15):
#: 6e-7 at 1e-9, 6e-6 at the nearest bad gap, 1e-10.  Below it a coupling simulates only its rescalings, and
#: misses those by at most ``_GAP_TOL * s1'``.  HTMS with ``b = -0.99999999`` (gap 1e-8) stays generic.
_GAP_TOL = 1e-9

#: Relative slack of the sufficient-time rule ``t_min <= t (1 + _SLACK)``.  Plans also drop rows of weight at
#: most ``_SLACK``, a different fact: round-off rows reach 4.2e-15, real ones start at 1.2e-4 (20000 pairs).
_SLACK = 1e-12

#: Longest float64 or intp array NumPy can address; a longer grid or step index is refused unallocated.
_MAX_NODES = sys.maxsize // 8


class DegenerateHamiltonianError(ValueError):
    """Coupling with ``s1 = |s2|`` asked to simulate a non-equivalent target.

    Such couplings can only reproduce rotated (and rescaled) copies of
    themselves.
    """


class InfeasibleTimeError(ValueError):
    """Requested interaction time is below the minimal simulation time."""


# ---------------------------------------------------------------------------
# Simulability and minimal time
# ---------------------------------------------------------------------------


def _rsvd_pair(k, k_target):
    """``(k, k_target, theta, psi, s, sp)``: both couplings checked, ``K`` first, and their
    restricted SVD angles and singular values from one stacked kernel call."""
    k, k_target = _as_k(k), _as_k(k_target)
    theta, s1, s2, psi = np.array(_rsvd_angles(np.array([k, k_target]))).tolist()
    return k, k_target, theta, psi, *map(RestrictedSingularValues, s1, s2)


def _suffices(t_min: float, t: float) -> bool:
    """The one rule for whether interaction time ``t`` suffices: ``t_min <= t (1 + _SLACK)``."""
    return t_min <= t * (1.0 + _SLACK)


def can_simulate_efficiently(k, k_target) -> bool:
    """Whether ``K`` simulates ``K_target`` at unit time cost: ``t = t_target`` suffices, that is
    ``s1 + s2 >= s1' + s2'`` and ``s1 - s2 >= s1' - s2'`` for the restricted singular values.
    False where :func:`min_simulation_time` raises :class:`DegenerateHamiltonianError` or overflows."""
    *_, s, sp = _rsvd_pair(k, k_target)
    try:
        return _suffices(_min_time(s, sp, 1.0)[2], 1.0)
    except (DegenerateHamiltonianError, OverflowError):
        return False


def _degenerate(s) -> bool:
    """The one rule for ``s1 = |s2|``: ``s1 - |s2| <= _GAP_TOL * s1``."""
    return s.s1 - abs(s.s2) <= _GAP_TOL * s.s1


def _check_times(t_target: float, t: float | None = None) -> None:
    """The time rule of both queries: ``t_target`` finite and >= 0, ``t``, if given, finite and > 0."""
    if not 0.0 <= t_target < math.inf:
        raise ValueError("t_target must be non-negative and finite")
    if t is not None and not 0.0 < t < math.inf:
        raise ValueError("total interaction time must be positive and finite")


def _min_time(s, sp, t_target: float) -> tuple[float, float, float]:
    """``(a, b, t_min)``: the target's ``s1 + s2`` and ``s1 - s2`` per unit of ``K``'s, and
    :func:`min_simulation_time`, ``t_target max(a, b)``.  A :func:`_degenerate` ``K`` only simulates its
    positive rescalings ``sp = rho * s`` up to local rotations, the zero target and degenerate targets
    whose ``s2`` has its sign, and then ``a = b = rho``; any other target raises
    :class:`DegenerateHamiltonianError`.  A ``t_min`` past the float range raises ``OverflowError``."""
    if not _degenerate(s):
        a, b = (sp.s1 + sp.s2) / (s.s1 + s.s2), (sp.s1 - sp.s2) / (s.s1 - s.s2)
    elif sp.s1 == 0.0 or s.s1 > 0.0 and _degenerate(sp) and (s.s2 < 0.0) == (sp.s2 < 0.0):
        a = b = sp.s1 / s.s1 if sp.s1 else 0.0
    else:
        raise DegenerateHamiltonianError("coupling with s1 = |s2| can only simulate locally equivalent targets")
    # A zero-length target needs no time, also where max(a, b) overflows and 0 * inf would be NaN.
    if not math.isfinite(t_min := t_target * (max(a, b) if t_target else 0.0)):
        raise OverflowError(f"minimal simulation time t_target * max(a, b) overflows: t_target = {t_target:g}, "
                            f"a = {a:g}, b = {b:g}")
    return a, b, t_min


def min_simulation_time(k, k_target, t_target: float) -> float:
    """Minimal interaction time needed to simulate ``K_target`` for ``t_target``.

    For generic couplings this is
    ``t_target * max((s1'+s2')/(s1+s2), (s1'-s2')/(s1-s2))``.  Couplings with
    ``s1 = |s2|`` can only simulate locally equivalent targets (up to a
    positive scale); anything else raises :class:`DegenerateHamiltonianError`.
    """
    *_, s, sp = _rsvd_pair(k, k_target)
    _check_times(t_target)
    return _min_time(s, sp, t_target)[2]


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SimulationPlan:
    """Probability-weighted rotation schedule realising an effective coupling.

    ``terms`` is an ``(n, 3)`` float array of rows ``(phi1, phi2, weight)``, the
    layout of :attr:`Protocol.table`.  Row ``i`` is one window type: the
    fraction ``weight`` of the total interaction time is spent with the state
    pre-rotated by ``R1 (+) R2 = R(phi1) (+) R(phi2)``, undone after each
    window, so the row contributes ``weight * R1^T K R2`` to the effective
    coupling.  The outer rotations from the restricted SVDs of both the native
    and the target coupling are already folded into the angles, so

        ``sum_i weight_i * R1_i^T K R2_i = kappa * K_target``

    holds directly, with ``kappa = t_target / t``.
    """

    native_k: np.ndarray
    target_k: np.ndarray
    t: float
    t_target: float
    terms: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))

    @property
    def kappa(self) -> float:
        return self.t_target / self.t

    def to_dict(self) -> dict:
        return {
            "native_K": k_to_dict(self.native_k),
            "target_K": k_to_dict(self.target_k),
            "t": float(self.t),
            "t_target": float(self.t_target),
            "terms": [
                {"weight": weight, "phi1": phi1, "phi2": phi2} for phi1, phi2, weight in self.terms.tolist()
            ],
        }


# Angles of the four Hadamard-product rotation pairs that span every
# achievable diagonal: (R_i, S_i) with R_i diag(s1, s2) S_i diagonal.
_BASE_PAIRS = (
    (0.0, 0.0),
    (0.0, math.pi),
    (-math.pi / 2.0, math.pi / 2.0),
    (-math.pi / 2.0, -math.pi / 2.0),
)


def synthesize_plan(k, k_target, t_target: float, t: float | None = None) -> SimulationPlan:
    """Construct an explicit simulation plan for ``K_target`` over ``t_target``.

    Parameters
    ----------
    k, k_target : array_like
        Native and target coupling matrices.
    t_target : float
        Duration of the simulated evolution.
    t : float, optional
        Total interaction time to spend.  Defaults to the minimal time, else
        ``t_target``, else 1; any ``t`` below the minimal time raises :class:`InfeasibleTimeError`.

    Returns
    -------
    SimulationPlan
        At most four weighted rotation pairs whose effective coupling equals
        ``K_target`` after rescaling by ``kappa``.
    """
    k, k_target, theta, psi, s, sp = _rsvd_pair(k, k_target)
    _check_times(t_target, t)
    # State rotations composed with the outer SVD factors of both couplings,
    # O1 = R_K R_i^T R'^T and O2 = S_K^T S_i S', as angles.
    offset = [theta[0] - theta[1], psi[1] - psi[0]]
    angles = _wrap(np.array(_BASE_PAIRS) * [-1.0, 1.0] + offset)

    a, b, t_min = _min_time(s, sp, t_target)
    if t is None:
        t = t_min or t_target or 1.0
    if not _suffices(t_min, t):
        raise InfeasibleTimeError(f"requested time {t} is below the minimal simulation time {t_min}")
    # The pairs realise e (s1, s2) + f (s2, s1): s1 + s2 scaled by e + f = a kappa, s1 - s2 by e - f =
    # b kappa, so e >= 0 and e + |f| = t_min / t.  For s1 = |s2|, a = b = rho and f = 0: e = 1 at t_min.
    e, f = ((a + b) * t_target / (2.0 * t), (a - b) * t_target / (2.0 * t)) if t_target else (0.0, 0.0)
    remainder = max(0.0, 1.0 - e - abs(f))  # split between +K and -K, which cancel
    rows = np.column_stack([angles, [e + remainder / 2.0, remainder / 2.0, max(f, 0.0), max(-f, 0.0)]])
    return SimulationPlan(k, k_target, float(t), float(t_target), rows[rows[:, 2] > _SLACK])


def effective_hamiltonian(plan: SimulationPlan) -> np.ndarray:
    """Coupling matrix realised by a plan, ``(1/kappa) sum_i w_i R1_i^T K R2_i``, for ``t_target > 0``."""
    if plan.t_target == 0.0:  # kappa = 0: the plan realises the zero coupling, whatever its target
        raise ValueError("a plan with t_target = 0 determines no effective coupling")
    k = _as_k(plan.native_k)
    r1, r2 = rotation(plan.terms[:, :2]).swapaxes(0, 1)
    return (plan.terms[:, 2, None, None] * (r1.swapaxes(-1, -2) @ k @ r2)).sum(axis=0) / plan.kappa


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False, eq=False)
class Protocol:
    """Finite ordered schedule of rotations and interaction windows.

    Running a protocol means: for each step, apply its rotation pair to the
    state and evolve under ``native_k`` for ``duration``; finally apply the
    trailing ``final`` rotation pair.

    A schedule cycles a few fixed windows, so a protocol stores each distinct
    step once.  Step ``i`` is row ``index[i]`` of the ``(N, 3)`` ``rows``
    ``(phi1, phi2, duration)``, with ``index`` 1-d integers in ``[0, N)``.  The
    rows need not be distinct or used: the constructor keys the used rows by
    their bytes (so ``-0.0`` is not ``0.0``), keeps the distinct ones in
    ``table`` in order of first appearance, checked once by the step rule, and
    the table row of every step in ``index``.  Both are read-only.
    :meth:`from_dict` passes the rows of a JSON file, and ``flip_strategy``,
    :func:`plan_to_protocol` and ``compile_to_native`` their few rows and an
    index into them.
    """

    native_k: np.ndarray
    table: np.ndarray
    index: np.ndarray
    final: LocalRotationPair

    def __init__(self, native_k, rows, index, final: LocalRotationPair = LocalRotationPair()):
        rows, index = np.ascontiguousarray(rows, dtype=float), np.asarray(index)
        rows, index = rows if rows.size else np.empty((0, 3)), index if index.size else np.empty(0, np.intp)
        if rows.shape[1:] != (3,):
            raise ValueError(f"protocol rows must have shape (N, 3), got {rows.shape}")
        if index.ndim != 1 or index.dtype.kind not in "iu" or (
                index.size and not 0 <= index.min() <= index.max() < len(rows)):
            raise ValueError(f"protocol index must be 1-d integers in [0, {len(rows)})")
        used = np.zeros(len(rows), bool)
        used[index] = True
        rows, index = rows[used], (np.cumsum(used) - 1)[index]  # only the rows some step uses
        seen: dict = {}  # a row's bytes (so -0.0 is not 0.0) -> its first row, in order of appearance
        first = np.fromiter(map(seen.setdefault, rows.view("V24").ravel().tolist(), count()), np.intp)
        distinct = np.fromiter(seen.values(), np.intp, len(seen))
        table, slot = rows[distinct], np.searchsorted(distinct, first)
        checked = np.vstack([table, (final.phi1, final.phi2, 0.0)])  # the step rule, on each distinct row and final
        if not ((checked[:, 2] >= 0.0) & (checked[:, 2] < math.inf)).all():
            raise ValueError("protocol step durations must be finite and non-negative")
        if not np.isfinite(checked[:, :2]).all():
            raise ValueError("protocol rotation angles must be finite")
        index = slot[index]
        table.flags.writeable = index.flags.writeable = False
        vars(self).update(native_k=native_k, table=table, index=index, final=final)

    @property
    def steps(self) -> np.ndarray:
        """The ``(len(index), 3)`` rows ``(phi1, phi2, duration)`` of every step."""
        return np.take(self.table, self.index, axis=0)

    @property
    def total_time(self) -> float:
        return float(sum(self.table[self.index, 2].tolist()))

    def to_dict(self) -> dict:
        return {
            "native_K": k_to_dict(self.native_k),
            "steps": [
                {"phi1": phi1, "phi2": phi2, "t": duration}
                for phi1, phi2, duration in self.steps.tolist()
            ],
            "final": {"phi1": float(self.final.phi1), "phi2": float(self.final.phi2)},
        }

    @staticmethod
    def from_dict(data: dict) -> "Protocol":
        if not isinstance(data, dict):
            kind = type(data).__name__
            raise TypeError(f"protocol must be an object with keys native_K, steps and final, not {kind}")
        native_k, steps = k_from_dict(data["native_K"]), data["steps"]
        if not isinstance(steps, (list, tuple)):
            raise TypeError(f"protocol steps must be a list of objects, not {type(steps).__name__}")
        rows = _json_numbers("protocol steps[{}]", steps, ("phi1", "phi2", "t"))
        final = _json_numbers("protocol final", [data["final"]], ("phi1", "phi2"))[0].tolist()
        return Protocol(native_k, rows, np.arange(len(steps)), LocalRotationPair(*final))


def _trotterise(plan: SimulationPlan, slices: int, pending=None):
    """``(rows, index, final)`` of ``plan`` Trotterised into ``slices`` slices.

    Slice 1 holds the steps ``first``; every later slice repeats the cycle
    ``(entry, *first[1:])``.  So ``rows`` are those at most five steps,
    ``first`` then ``entry``, and ``index`` points into them: ``first``
    followed by ``slices - 1`` copies of the cycle.  ``pending``, if given,
    is composed into the first step.
    """
    terms = [row for row in plan.terms.tolist() if row[2] > 0.0]
    if not terms:
        return [], np.empty(0, dtype=np.intp), LocalRotationPair() if pending is None else pending
    if slices * len(terms) > _MAX_NODES:
        raise MemoryError(f"{slices} slices of {len(terms)} steps are too many to allocate")
    # Each step's control is the quotient of consecutive pre-rotations, the difference of their
    # angles; before the first, the pre-rotation that ``pending`` undoes.
    start = (0.0, 0.0, 0.0) if pending is None else (-pending.phi1, -pending.phi2, 0.0)
    windows = [*terms, terms[0]] if slices > 1 else terms
    rows = [(phi1 - prev1, phi2 - prev2, weight * plan.t / slices)
            for (phi1, phi2, weight), (prev1, prev2, _) in zip(windows, [start, *terms])]
    index = np.tile(np.array([len(terms), *range(1, len(terms))], dtype=np.intp), slices)  # the cycles
    index[0] = 0  # slice 1 starts with first[0], not entry
    return rows, index, LocalRotationPair(-terms[-1][0], -terms[-1][1])


def plan_to_protocol(plan: SimulationPlan, slices: int) -> Protocol:
    """Trotterise a plan into an explicit rotation/interaction schedule.

    Each slice cycles once through the plan terms; term ``i`` contributes a
    window of length ``w_i * t / slices`` conjugated by its rotation pair.
    Adjacent inverse/forward rotations are merged, so the emitted control at
    each boundary is the quotient of consecutive pre-rotations, and the
    trailing rotation undoes the last one.  The schedule converges to the
    target flow at first order in ``1/slices``.
    """
    if slices < 1:
        raise ValueError("slices must be >= 1")
    return Protocol(plan.native_k, *_trotterise(plan, slices))
