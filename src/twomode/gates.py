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
from typing import ClassVar, Union

import numpy as np

from .core import (
    HBS,
    HTMS,
    J,
    LocalRotationPair,
    _as_k,
    _json_numbers,
    _rsvd_angles,
    _wrap,
    assert_passive,
    assert_symplectic,
    evolve,
    restricted_svd,
)
from .simulate import DegenerateHamiltonianError, Protocol, _degenerate, _trotterise, synthesize_plan

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

#: Passive maps into and out of :func:`decompose_gate`'s two squeezer stages,
#: ``beta`` (the barred beam splitter pair) then ``alpha``.
_STAGE_MAPS = (
    (_BAR.matrix @ evolve(HBS, -math.pi / 4.0), evolve(HBS, math.pi / 4.0) @ _BAR.matrix.T),
    (evolve(HBS @ J, math.pi / 4.0), evolve(HBS @ J, -math.pi / 4.0)),
)


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
class _CouplingGate:
    """Flow of a fixed coupling for time ``t`` (barred: generated by ``K J``)."""

    t: float
    barred: bool = False
    _kind: ClassVar[str]
    _base: ClassVar[np.ndarray]

    @property
    def coupling(self) -> np.ndarray:
        return self._base @ J if self.barred else self._base

    @property
    def matrix(self) -> np.ndarray:
        return evolve(self.coupling, self.t)

    def to_dict(self) -> dict:
        return {"kind": self._kind, "t": float(self.t), "barred": self.barred}


class BeamSplitterGate(_CouplingGate):
    """Beam splitter of angle ``t`` (barred: conjugated by the mode-2 quarter turn)."""

    _kind, _base = "bs", HBS


class TwoModeSqueezerGate(_CouplingGate):
    """Two-mode squeezer of strength ``t`` (barred: mode-2 quarter turn folded in)."""

    _kind, _base = "tms", HTMS


_COUPLING_GATES = {cls._kind: cls for cls in (BeamSplitterGate, TwoModeSqueezerGate)}

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

    def to_list(self) -> list[dict]:
        return [g.to_dict() for g in self.gates]

    @staticmethod
    def from_list(items: list[dict]) -> "GateSequence":
        """Inverse of :meth:`to_list`; a wrong type, a missing key or a bad value names the gate."""
        if not isinstance(items, (list, tuple)):
            raise TypeError(f"gates must be a list of objects, not {type(items).__name__}")
        return GateSequence(tuple(map(_json_gate, range(len(items)), items)))


def _json_gate(i: int, item) -> GatePrimitive:
    """Gate ``i`` of a JSON gate list; its numbers are finite, ``barred`` is JSON ``true`` or ``false``."""
    where = f"gates[{i}]"
    if not isinstance(item, dict):
        raise TypeError(f"{where} must be an object with a kind key, not {type(item).__name__}")
    if "kind" not in item:
        raise ValueError(f"{where}: missing key 'kind'")
    kind = item["kind"]
    if kind != "rot" and (not isinstance(kind, str) or kind not in _COUPLING_GATES):
        raise ValueError(f"{where}: unknown gate kind {kind!r}")
    keys = ("phi1", "phi2") if kind == "rot" else ("t",)
    values = _json_numbers(where, [item], keys)[0].tolist()
    for key, value in zip(keys, values):
        if not math.isfinite(value):
            raise ValueError(f"{where}: {key} must be finite")
    if kind == "rot":
        return RotationGate(LocalRotationPair(*values))
    barred = item.get("barred", False)
    if not isinstance(barred, bool):
        raise ValueError(f"{where}: barred must be true or false, not {barred!r}")
    return _COUPLING_GATES[kind](*values, barred)


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


#: Largest ``max|O D O~ - S| / sigma_1`` of an accepted gate; clean gates reach 9e-15,
#: and ``evolve(HTMS, 3)`` with ``3e-10`` added to any one entry 3.7e-12 to 1.1e-11.
_RECOMPOSE_TOL = 1e-12


def _frame(x: np.ndarray) -> np.ndarray:
    """Passive ``[x1, J2 x1, x2', J2 x2']`` from the first two columns of ``x``: ``m`` is
    ``[x1, J2 x1, w, J2 w]``, with ``w`` and ``J2 w`` spanning the plane orthogonal to ``x1``
    and ``J2 x1`` exactly, and ``x2'`` is ``x2`` projected onto that plane, normalised."""
    p, q, r, t = x[:, 0].tolist()
    m = np.array([[p, -q, -r, -t], [q, p, t, -r], [r, -t, p, q], [t, r, -q, p]])
    a, b = (x[:, 1] @ m[:, 2:]).tolist()
    m[:, 2:] = m[:, 2:] @ np.array([[a, -b], [b, a]]) / math.hypot(a, b)
    return m


def euler_decompose(s) -> EulerDecomposition:
    """Factor a symplectic matrix into passive - local squeezer - passive.

    One SVD ``S = U diag(sigma) V^T`` gives both passive factors: for a symplectic
    ``S`` each singular triple ``(u, sigma, v)`` comes with ``(J2 u, 1/sigma, J2 v)``,
    so ``O`` and ``O~^T`` are the frames of the top two columns of ``U`` and ``V``
    (Arvind, Dutta, Mukunda & Simon, Pramana 45, 471 (1995)), passive to round-off
    for any ``sigma_1``.  A passive input (``sigma_1 <= 1 + 5e-13``) returns ``O = S``.
    A matrix that passes :func:`~twomode.core.is_symplectic` but that its factors do
    not recompose to ``_RECOMPOSE_TOL * sigma_1`` is refused with a ``ValueError``.
    """
    s = assert_symplectic(s)
    u, sigma, vt = np.linalg.svd(s)
    if sigma[0] - 1.0 <= 5e-13:
        return EulerDecomposition(s.copy(), np.eye(4), np.eye(4), 0.0, 0.0)
    d1, d2 = float(sigma[0]), max(float(sigma[1]), 1.0)
    alpha, beta = 0.5 * (math.log(d1) + math.log(d2)), 0.5 * (math.log(d1) - math.log(d2))
    dec = EulerDecomposition(_frame(u), np.diag([d1, 1.0 / d1, d2, 1.0 / d2]), _frame(vt.T).T, alpha, beta)
    error = float(np.max(np.abs(dec.assemble() - s))) / d1
    if not error <= _RECOMPOSE_TOL:  # NaN included
        raise ValueError(f"matrix is not symplectic: its Euler factors miss it by {error:.2g} relative")
    return dec


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


def passive_decompose(o) -> PassiveDecomposition:
    """Split a passive matrix into rotations around one beam splitter.

    The beam-splitter angle is fixed to ``[0, pi/2]``, which makes the branch
    choice deterministic.  Raises ``NotPassiveError`` (a ``ValueError``) if
    the input is not orthogonal symplectic.
    """
    o = assert_passive(o, 4)

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

#: Largest ``|t|`` of a round-off coupling gate, which decomposition drops and compilation skips.
_NEGLIGIBLE_T = 1e-12


def decompose_gate(s) -> GateSequence:
    """Decompose an arbitrary two-mode symplectic matrix into native gates.

    The output follows the fixed template

        rot, BS, rot, TMS(beta), rot, BS, rot, TMS(alpha), rot, BS, rot

    (temporal order; squeezer stages are dropped when their strength
    vanishes), so it never exceeds six rotation pairs, three beam splitters
    and two two-mode squeezers.  The recomposed matrix reproduces the input
    to floating-point accuracy, up to where the symplectic check overflows.
    A matrix that :func:`euler_decompose` refuses is a ``ValueError``.
    """
    dec = euler_decompose(s)
    out: tuple[GatePrimitive, ...] = ()
    acc = dec.O_tilde
    for strength, (entry, exit_) in zip((dec.beta, dec.alpha), _STAGE_MAPS):
        if abs(strength) > _NEGLIGIBLE_T:
            out += passive_decompose(entry @ acc).gates() + (TwoModeSqueezerGate(strength),)
            acc = exit_
    return GateSequence(out + passive_decompose(dec.O @ acc).gates())


# ---------------------------------------------------------------------------
# Compilation onto a native coupling
# ---------------------------------------------------------------------------


def compile_to_native(seq: GateSequence, k, slices: int = 200) -> Protocol:
    """Replace every beam splitter / squeezer by a simulation protocol on ``K``.

    Each coupling gate with ``|t| > 1e-12`` is simulated at its minimal interaction
    time; rotation primitives merge into the neighbouring schedule.  Negative gate
    durations are folded into the sign of the target coupling so all emitted
    interaction windows are non-negative.  The protocol's rows are the
    pieces' few rows in turn, and its index the pieces' indices, each offset
    to its rows; :class:`Protocol` keys them.

    Raises
    ------
    DegenerateHamiltonianError
        If ``K`` has ``s1 = |s2|`` (such couplings cannot simulate the gate
        set).
    """
    if slices < 1:
        raise ValueError("slices must be >= 1")
    k = _as_k(k)
    if _degenerate(restricted_svd(k).svals):
        raise DegenerateHamiltonianError("coupling with s1 = |s2| cannot simulate beam splitters and squeezers")

    rows, parts, pending = [], [], LocalRotationPair()
    for gate in seq.gates:
        if isinstance(gate, RotationGate):
            pending = gate.pair.compose(pending)
            continue
        if abs(gate.t) <= _NEGLIGIBLE_T:
            continue
        target = -gate.coupling if gate.t < 0 else gate.coupling
        head, part, pending = _trotterise(synthesize_plan(k, target, abs(gate.t)), slices, pending)
        parts.append(part + len(rows))
        rows += head
    return Protocol(k, rows, np.concatenate(parts) if parts else (), pending)
