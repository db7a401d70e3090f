"""Decomposition of two-mode Gaussian unitaries into a small native gate set,
and compilation of that gate set onto an arbitrary bilinear coupling.

Every two-mode symplectic matrix factors as ``S = O D O~`` with ``O``, ``O~``
passive (orthogonal symplectic) and ``D`` a local squeezer
``diag(e^{a+b}, e^{-(a+b)}, e^{a-b}, e^{-(a-b)})``.  Passives reduce to one
beam splitter between two pairs of local rotations; the local squeezer is
produced from two-mode squeezers conjugated by beam splitters.  The resulting
sequence needs at most six rotation pairs, three beam splitters and two
two-mode squeezers, and each beam splitter / squeezer can in turn be
simulated by any coupling whose restricted singular values are not equal in
modulus.

A "barred" beam splitter or squeezer is the same gate conjugated by a +pi/2
rotation of mode 2, i.e. generated by ``K J`` instead of ``K``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (
    HBS,
    HTMS,
    J,
    J2,
    LocalRotationPair,
    _as_k,
    _rsvd_angles,
    _wrap,
    assert_symplectic,
    evolve,
    restricted_svd,
)
from .simulate import (
    DegenerateHamiltonianError,
    Protocol,
    ProtocolStep,
    plan_to_protocol,
    synthesize_plan,
)

__all__ = [
    "RotationGate",
    "BeamSplitterGate",
    "TwoModeSqueezerGate",
    "GateSequence",
    "EulerDecomposition",
    "euler_decompose",
    "PassiveDecomposition",
    "passive_decompose",
    "local_squeezer_sequence",
    "decompose_gate",
    "compile_to_native",
]

#: Mode-2 quarter rotation used to define the barred gate variants.
_BAR = LocalRotationPair(0.0, math.pi / 2.0)


@dataclass(frozen=True)
class RotationGate:
    """Instantaneous local rotation pair."""

    pair: LocalRotationPair

    @property
    def matrix(self) -> np.ndarray:
        return self.pair.matrix

    def to_dict(self) -> dict:
        return {"kind": "rot", "phi1": float(self.pair.phi1), "phi2": float(self.pair.phi2)}


@dataclass(frozen=True)
class BeamSplitterGate:
    """Beam splitter of angle ``t`` (barred: conjugated by the mode-2 quarter turn)."""

    t: float
    barred: bool = False

    @property
    def coupling(self) -> np.ndarray:
        return HBS @ J if self.barred else HBS

    @property
    def matrix(self) -> np.ndarray:
        return evolve(self.coupling, self.t)

    def to_dict(self) -> dict:
        return {"kind": "bs", "t": float(self.t), "barred": self.barred}


@dataclass(frozen=True)
class TwoModeSqueezerGate:
    """Two-mode squeezer of strength ``t`` (barred: mode-2 quarter turn folded in)."""

    t: float
    barred: bool = False

    @property
    def coupling(self) -> np.ndarray:
        return HTMS @ J if self.barred else HTMS

    @property
    def matrix(self) -> np.ndarray:
        return evolve(self.coupling, self.t)

    def to_dict(self) -> dict:
        return {"kind": "tms", "t": float(self.t), "barred": self.barred}


GatePrimitive = Union[RotationGate, BeamSplitterGate, TwoModeSqueezerGate]


@dataclass(frozen=True)
class GateSequence:
    """Ordered gate list, first-applied first.

    ``matrix()`` composes right-to-left, i.e. returns
    ``M(g_n) ... M(g_2) M(g_1)`` for ``gates = (g_1, ..., g_n)``.
    """

    gates: tuple[GatePrimitive, ...]

    def matrix(self) -> np.ndarray:
        acc = np.eye(4)
        for gate in self.gates:
            acc = gate.matrix @ acc
        return acc

    def __len__(self) -> int:
        return len(self.gates)

    def to_list(self) -> list[dict]:
        return [g.to_dict() for g in self.gates]

    @staticmethod
    def from_list(items: list[dict]) -> "GateSequence":
        gates: list[GatePrimitive] = []
        for item in items:
            kind = item["kind"]
            if kind == "rot":
                gates.append(RotationGate(LocalRotationPair(float(item["phi1"]), float(item["phi2"]))))
            elif kind == "bs":
                gates.append(BeamSplitterGate(float(item["t"]), bool(item.get("barred", False))))
            elif kind == "tms":
                gates.append(TwoModeSqueezerGate(float(item["t"]), bool(item.get("barred", False))))
            else:
                raise ValueError(f"unknown gate kind {kind!r}")
        return GateSequence(tuple(gates))


# ---------------------------------------------------------------------------
# Euler decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EulerDecomposition:
    """``S = O @ D @ O_tilde`` with passive outer factors.

    ``D = diag(e^{alpha+beta}, e^{-(alpha+beta)}, e^{alpha-beta},
    e^{-(alpha-beta)})`` with ``alpha >= beta >= 0``.
    """

    O: np.ndarray
    D: np.ndarray
    O_tilde: np.ndarray
    alpha: float
    beta: float

    def assemble(self) -> np.ndarray:
        return self.O @ self.D @ self.O_tilde


def _top_eigenpairs(w_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal vectors spanning the two largest eigendirections of ``S S^T``.

    For a symplectic SPD matrix the spectrum is ``{l, 1/l, m, 1/m}`` with
    ``l >= m >= 1``.  When ``l = m`` the top eigenspace is two-dimensional and
    any orthonormal pair works; projecting coordinate vectors onto it keeps
    diagonal inputs diagonal.
    """
    w, v = np.linalg.eigh(w_mat)
    v_lam, v_mu = v[:, 3], v[:, 2]
    if w[3] - w[2] <= 1e-12 * w[3]:
        basis = v[:, 2:]
        for seed in (np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0])):
            proj = basis @ (basis.T @ seed)
            if np.linalg.norm(proj) > 0.5:
                v_lam = proj / np.linalg.norm(proj)
                break
        cand = basis[:, 0] - (basis[:, 0] @ v_lam) * v_lam
        if np.linalg.norm(cand) < 0.5:
            cand = basis[:, 1] - (basis[:, 1] @ v_lam) * v_lam
        v_mu = cand / np.linalg.norm(cand)
    return v_lam, v_mu


def euler_decompose(s) -> EulerDecomposition:
    """Factor a symplectic matrix into passive - local squeezer - passive.

    The outer factors are orthogonal *and* symplectic; the middle factor is
    the paired diagonal read off the singular values of ``S``.  Every
    symplectic matrix admits this factorisation.
    """
    s = assert_symplectic(s)
    w_mat = (s @ s.T + (s @ s.T).T) / 2.0

    if np.max(np.abs(w_mat - np.eye(4))) <= 1e-12:
        return EulerDecomposition(s.copy(), np.eye(4), np.eye(4), 0.0, 0.0)

    v_lam, v_mu = _top_eigenpairs(w_mat)
    lam = float(v_lam @ w_mat @ v_lam)
    mu = float(v_mu @ w_mat @ v_mu)
    d1 = math.sqrt(max(lam, 1.0))
    d2 = math.sqrt(max(mu, 1.0))
    o = np.column_stack([v_lam, J2 @ v_lam, v_mu, J2 @ v_mu])
    d = np.diag([d1, 1.0 / d1, d2, 1.0 / d2])
    o_tilde = np.diag([1.0 / d1, d1, 1.0 / d2, d2]) @ o.T @ s
    alpha = 0.5 * (math.log(d1) + math.log(d2))
    beta = 0.5 * (math.log(d1) - math.log(d2))
    return EulerDecomposition(o, d, o_tilde, alpha, beta)


# ---------------------------------------------------------------------------
# Passive decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PassiveDecomposition:
    """``O = rot_out @ BS(t_bs) @ rot_in`` for a passive two-mode matrix."""

    rot_out: LocalRotationPair
    t_bs: float
    rot_in: LocalRotationPair

    def assemble(self) -> np.ndarray:
        return self.rot_out.matrix @ evolve(HBS, self.t_bs) @ self.rot_in.matrix

    def gates(self) -> tuple[GatePrimitive, ...]:
        """Temporal gate order (rot_in first)."""
        return (
            RotationGate(self.rot_in),
            BeamSplitterGate(self.t_bs),
            RotationGate(self.rot_out),
        )


def passive_decompose(o, tol: float = 1e-10) -> PassiveDecomposition:
    """Split a passive matrix into rotations around one beam splitter.

    The beam-splitter angle is fixed to ``[0, pi/2]``, which makes the branch
    choice deterministic.  Raises ``ValueError`` if the input is not
    orthogonal symplectic at tolerance ``tol``.
    """
    o = np.asarray(o, dtype=float)
    if o.shape != (4, 4) or np.max(np.abs(o @ o.T - np.eye(4))) > tol:
        raise ValueError("input is not orthogonal at the required tolerance")
    if np.max(np.abs(o @ J2 @ o.T - J2)) > tol:
        raise ValueError("input is not symplectic at the required tolerance")

    # The 2x2 blocks are conformal, |u_ij| R(arg u_ij), with u the unitary on
    # the mode amplitudes: |u_ij| = (s1 + s2)/2 and arg u_ij = theta + psi.
    theta, s1, s2, psi = _rsvd_angles(np.stack([o[:2, :2], o[2:, :2], o[2:, 2:], -o[:2, 2:]]))
    xi1, xi2, arg11, arg01 = _wrap(theta + psi).tolist()  # u00, u10, u11, -u01
    cos_u, sin_u = ((s1[:2] + s2[:2]) / 2.0).tolist()
    cos_ok, sin_ok = cos_u > 1e-9, sin_u > 1e-9
    xi1 = xi1 if cos_ok else 0.0
    xi2 = xi2 if sin_ok else 0.0
    eta2 = arg11 - xi2 if cos_ok else arg01 - xi1
    return PassiveDecomposition(
        rot_out=LocalRotationPair(xi1, xi2),
        t_bs=math.atan2(sin_u, cos_u),
        rot_in=LocalRotationPair(0.0, eta2),
    )


# ---------------------------------------------------------------------------
# Local squeezers from two-mode squeezers
# ---------------------------------------------------------------------------


def local_squeezer_sequence(alpha: float, beta: float) -> GateSequence:
    """Gate sequence realising ``diag(e^{a+b}, e^{-(a+b)}, e^{a-b}, e^{-(a-b)})``.

    Two-mode squeezers conjugated by +-pi/4 beam splitters produce equal
    local squeezing in both modes; using the barred variants flips the sign
    of the mode-2 squeezing, and the product of one sandwich of each kind
    reaches an arbitrary pair of single-mode squeezers.
    """
    return GateSequence(
        (
            BeamSplitterGate(-math.pi / 4.0),
            TwoModeSqueezerGate(beta, barred=True),
            BeamSplitterGate(math.pi / 4.0),
            BeamSplitterGate(math.pi / 4.0, barred=True),
            TwoModeSqueezerGate(alpha),
            BeamSplitterGate(-math.pi / 4.0, barred=True),
        )
    )


# ---------------------------------------------------------------------------
# Full gate decomposition
# ---------------------------------------------------------------------------

_SQUEEZE_TOL = 1e-12


def decompose_gate(s) -> GateSequence:
    """Decompose an arbitrary two-mode symplectic matrix into native gates.

    The output follows the fixed template

        rot, BS, rot, TMS(beta), rot, BS, rot, TMS(alpha), rot, BS, rot

    (temporal order; squeezer stages are dropped when their strength
    vanishes), so it never exceeds six rotation pairs, three beam splitters
    and two two-mode squeezers.  The recomposed matrix reproduces the input
    to floating-point accuracy.
    """
    dec = euler_decompose(s)
    bar = _BAR.matrix
    b_plus = evolve(HBS, math.pi / 4.0)
    b_minus = evolve(HBS, -math.pi / 4.0)
    bbar_plus = evolve(HBS @ J, math.pi / 4.0)
    bbar_minus = evolve(HBS @ J, -math.pi / 4.0)

    a0 = abs(dec.alpha) <= _SQUEEZE_TOL
    b0 = abs(dec.beta) <= _SQUEEZE_TOL

    if a0 and b0:
        return GateSequence(passive_decompose(dec.O @ dec.O_tilde).gates())
    if b0:
        p1 = dec.O @ bbar_minus
        p0 = bbar_plus @ dec.O_tilde
        middle: GatePrimitive = TwoModeSqueezerGate(dec.alpha)
        return GateSequence(
            passive_decompose(p0).gates() + (middle,) + passive_decompose(p1).gates()
        )
    if a0:
        p1 = dec.O @ b_plus @ bar.T
        p0 = bar @ b_minus @ dec.O_tilde
        middle = TwoModeSqueezerGate(dec.beta)
        return GateSequence(
            passive_decompose(p0).gates() + (middle,) + passive_decompose(p1).gates()
        )

    p2 = dec.O @ bbar_minus
    p1 = bbar_plus @ b_plus @ bar.T
    p0 = bar @ b_minus @ dec.O_tilde
    return GateSequence(
        passive_decompose(p0).gates()
        + (TwoModeSqueezerGate(dec.beta),)
        + passive_decompose(p1).gates()
        + (TwoModeSqueezerGate(dec.alpha),)
        + passive_decompose(p2).gates()
    )


# ---------------------------------------------------------------------------
# Compilation onto a native coupling
# ---------------------------------------------------------------------------


def compile_to_native(seq: GateSequence, k, slices: int = 200) -> Protocol:
    """Replace every beam splitter / squeezer by a simulation protocol on ``K``.

    Each non-rotation primitive is simulated at its minimal interaction time;
    rotation primitives merge into the neighbouring schedule.  Negative gate
    durations are folded into the sign of the target coupling so all emitted
    interaction windows are non-negative.

    Raises
    ------
    DegenerateHamiltonianError
        If ``K`` has ``s1 = |s2|`` (such couplings cannot simulate the gate
        set).
    """
    k = _as_k(k)
    _, svals, _ = restricted_svd(k)
    if svals.s1 - abs(svals.s2) <= 1e-12 * max(svals.s1, 1.0):
        raise DegenerateHamiltonianError(
            "coupling with s1 = |s2| cannot simulate beam splitters and squeezers"
        )

    steps: list[ProtocolStep] = []
    pending = LocalRotationPair()
    for gate in seq.gates:
        if isinstance(gate, RotationGate):
            pending = gate.pair.compose(pending)
            continue
        duration = gate.t
        if abs(duration) <= 1e-15:
            continue
        target = gate.coupling
        if duration < 0:
            target = -target
            duration = -duration
        plan = synthesize_plan(k, target, duration)
        piece = plan_to_protocol(plan, slices)
        first = piece.steps[0]
        steps.append(ProtocolStep(first.rotation.compose(pending), first.duration))
        steps.extend(piece.steps[1:])
        pending = piece.final
    return Protocol(k, tuple(steps), pending)
