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
values of the two couplings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    LocalRotationPair,
    RestrictedSingularValues,
    _as_k,
    _rsvd_angles,
    _wrap,
    k_from_dict,
    k_to_dict,
    restricted_svd,
)

__all__ = [
    "DegenerateHamiltonianError",
    "InfeasibleTimeError",
    "PlanTerm",
    "SimulationPlan",
    "ProtocolStep",
    "Protocol",
    "can_simulate_efficiently",
    "min_simulation_time",
    "synthesize_plan",
    "plan_to_protocol",
    "effective_hamiltonian",
]

_DEG_TOL = 1e-12
_SLACK = 1e-12


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


def can_simulate_efficiently(k, k_target) -> bool:
    """Whether ``K`` simulates ``K_target`` at unit time cost.

    True iff ``s1 + s2 >= s1' + s2'`` and ``s1 - s2 >= s1' - s2'`` for the
    restricted singular values of the two couplings (with a 1e-12 slack
    toward acceptance).
    """
    _, s, _ = restricted_svd(k)
    _, sp, _ = restricted_svd(k_target)
    return bool(
        s.s1 + s.s2 >= sp.s1 + sp.s2 - _SLACK and s.s1 - s.s2 >= sp.s1 - sp.s2 - _SLACK
    )


def _proportionality(s, sp) -> float | None:
    """Scale ``rho >= 0`` with ``(s1', s2') = rho * (s1, s2)``, or None."""
    if s.s1 <= _DEG_TOL:
        return 0.0 if sp.s1 <= _DEG_TOL else None
    rho = sp.s1 / s.s1
    if abs(sp.s2 - rho * s.s2) <= 1e-9 * max(1.0, sp.s1):
        return rho
    return None


def min_simulation_time(k, k_target, t_target: float) -> float:
    """Minimal interaction time needed to simulate ``K_target`` for ``t_target``.

    For generic couplings this is
    ``t_target * max((s1'+s2')/(s1+s2), (s1'-s2')/(s1-s2))``.  Couplings with
    ``s1 = |s2|`` can only simulate locally equivalent targets (up to a
    positive scale); anything else raises :class:`DegenerateHamiltonianError`.
    """
    if t_target < 0:
        raise ValueError("t_target must be non-negative")
    _, s, _ = restricted_svd(k)
    _, sp, _ = restricted_svd(k_target)

    if s.s1 - abs(s.s2) <= _DEG_TOL * max(s.s1, 1.0):
        rho = _proportionality(s, sp)
        if rho is None:
            raise DegenerateHamiltonianError(
                "coupling with s1 = |s2| can only simulate locally equivalent targets"
            )
        return rho * t_target

    return t_target * max((sp.s1 + sp.s2) / (s.s1 + s.s2), (sp.s1 - sp.s2) / (s.s1 - s.s2))


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanTerm:
    """One window type of a simulation plan.

    ``weight`` is the fraction of the total interaction time spent with the
    state pre-rotated by ``rotations`` (the rotations are undone after each
    window, so the window contributes ``weight * R1^T K R2`` to the effective
    coupling).
    """

    weight: float
    rotations: LocalRotationPair


@dataclass(frozen=True)
class SimulationPlan:
    """Probability-weighted rotation schedule realising an effective coupling.

    The outer rotations from the restricted SVDs of both the native and the
    target coupling are already folded into the stored pairs, so

        ``sum_i weight_i * R1_i^T K R2_i = kappa * K_target``

    holds directly, with ``kappa = t_target / t``.
    """

    native_k: np.ndarray
    target_k: np.ndarray
    t: float
    t_target: float
    terms: tuple[PlanTerm, ...] = field(default_factory=tuple)

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
                {
                    "weight": float(term.weight),
                    "phi1": float(term.rotations.phi1),
                    "phi2": float(term.rotations.phi2),
                }
                for term in self.terms
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "SimulationPlan":
        return SimulationPlan(
            native_k=k_from_dict(data["native_K"]),
            target_k=k_from_dict(data["target_K"]),
            t=float(data["t"]),
            t_target=float(data["t_target"]),
            terms=tuple(
                PlanTerm(float(t["weight"]), LocalRotationPair(float(t["phi1"]), float(t["phi2"])))
                for t in data["terms"]
            ),
        )


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
        Total interaction time to spend.  Defaults to the minimal time; any
        ``t`` below it raises :class:`InfeasibleTimeError`.

    Returns
    -------
    SimulationPlan
        At most four weighted rotation pairs whose effective coupling equals
        ``K_target`` after rescaling by ``kappa``.
    """
    k = _as_k(k)
    k_target = _as_k(k_target)
    theta, s1, s2, psi = np.array(_rsvd_angles(np.stack([k, k_target]))).tolist()
    s, sp = map(RestrictedSingularValues, s1, s2)
    # State rotations composed with the outer SVD factors of both couplings,
    # O1 = R_K R_i^T R'^T and O2 = S_K^T S_i S', as angles.
    offset = [theta[0] - theta[1], psi[1] - psi[0]]
    angles = _wrap(np.array(_BASE_PAIRS) * [-1.0, 1.0] + offset).tolist()

    if s.s1 - abs(s.s2) <= _DEG_TOL * max(s.s1, 1.0):
        rho = _proportionality(s, sp)
        if rho is None:
            raise DegenerateHamiltonianError(
                "coupling with s1 = |s2| can only simulate locally equivalent targets"
            )
        if t is None:
            t = rho * t_target if rho > 0 else t_target
        if t <= 0:
            raise ValueError("total interaction time must be positive")
        if rho == 0.0:
            # Zero target: average the coupling with its sign-flipped copy.
            terms = (
                PlanTerm(0.5, LocalRotationPair()),
                PlanTerm(0.5, LocalRotationPair(0.0, math.pi)),
            )
            return SimulationPlan(k, k_target, float(t), float(t_target), terms)
        pair = LocalRotationPair(*angles[0])  # R_i = S_i = I
        return SimulationPlan(k, k_target, float(t), float(t_target), (PlanTerm(1.0, pair),))

    if t is None:
        t = min_simulation_time(k, k_target, t_target)
        if t == 0.0:
            t = t_target if t_target > 0 else 1.0
    if t <= 0:
        raise ValueError("total interaction time must be positive")

    kappa = t_target / t
    s1p, s2p = sp.s1 * kappa, sp.s2 * kappa
    denom = s.s1**2 - s.s2**2
    e = (s.s1 * s1p - s.s2 * s2p) / denom
    f = (s.s1 * s2p - s.s2 * s1p) / denom
    if abs(e) + abs(f) > 1.0 + _SLACK:
        raise InfeasibleTimeError(
            f"requested time {t} is below the minimal simulation time "
            f"{min_simulation_time(k, k_target, t_target)}"
        )

    remainder = max(0.0, 1.0 - abs(e) - abs(f))
    weights = [
        max(e, 0.0) + remainder / 2.0,
        max(-e, 0.0) + remainder / 2.0,
        max(f, 0.0),
        max(-f, 0.0),
    ]

    # Weights at round-off level (from remainder/2 and +-f) would only add
    # Trotter windows of near-zero duration.
    terms = tuple(
        PlanTerm(w, LocalRotationPair(*pair)) for w, pair in zip(weights, angles) if w > _SLACK
    )
    return SimulationPlan(k, k_target, float(t), float(t_target), terms)


def effective_hamiltonian(plan: SimulationPlan) -> np.ndarray:
    """Coupling matrix realised by a plan, ``(1/kappa) sum_i w_i R1_i^T K R2_i``."""
    k = _as_k(plan.native_k)
    acc = np.zeros((2, 2))
    for term in plan.terms:
        acc += term.weight * (term.rotations.block1.T @ k @ term.rotations.block2)
    return acc / plan.kappa


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolStep:
    """Rotation pair applied to the state, followed by ``duration`` of coupling."""

    rotation: LocalRotationPair
    duration: float

    def __post_init__(self):
        if not self.duration >= 0.0:
            raise ValueError("protocol step durations must be non-negative")


@dataclass(frozen=True)
class Protocol:
    """Finite ordered schedule of rotations and interaction windows.

    Running a protocol means: for each step, apply its rotation pair to the
    state and evolve under ``native_k`` for ``duration``; finally apply the
    trailing ``final`` rotation pair.
    """

    native_k: np.ndarray
    steps: tuple[ProtocolStep, ...]
    final: LocalRotationPair = LocalRotationPair()

    @property
    def total_time(self) -> float:
        return float(sum(step.duration for step in self.steps))

    def to_dict(self) -> dict:
        return {
            "native_K": k_to_dict(self.native_k),
            "steps": [
                {
                    "phi1": float(s.rotation.phi1),
                    "phi2": float(s.rotation.phi2),
                    "t": float(s.duration),
                }
                for s in self.steps
            ],
            "final": {"phi1": float(self.final.phi1), "phi2": float(self.final.phi2)},
        }

    @staticmethod
    def from_dict(data: dict) -> "Protocol":
        return Protocol(
            native_k=k_from_dict(data["native_K"]),
            steps=tuple(
                ProtocolStep(LocalRotationPair(float(s["phi1"]), float(s["phi2"])), float(s["t"]))
                for s in data["steps"]
            ),
            final=LocalRotationPair(float(data["final"]["phi1"]), float(data["final"]["phi2"])),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_json(text: str) -> "Protocol":
        return Protocol.from_dict(json.loads(text))


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
    terms = [t for t in plan.terms if t.weight > 0.0]
    if not terms:
        return Protocol(plan.native_k, (), LocalRotationPair())

    # A slice holds at most four distinct steps: build the first slice and
    # the repeating cycle once, then share the frozen steps.
    prevs = [LocalRotationPair(), *(term.rotations for term in terms)]
    first = tuple(
        ProtocolStep(term.rotations.compose(prev.inverse()), term.weight * plan.t / slices)
        for term, prev in zip(terms, prevs)
    )
    entry = ProtocolStep(terms[0].rotations.compose(prevs[-1].inverse()), first[0].duration)
    cycle = (entry, *first[1:])
    return Protocol(plan.native_k, first + cycle * (slices - 1), prevs[-1].inverse())
