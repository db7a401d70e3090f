"""Entanglement and squeezing quantifiers for two-mode Gaussian states.

Each quantity is computed once, vectorised over a stack of CMs, from the
2x2 blocks of ``[[A, C], [C^T, B]]`` or the spectrum; the scalar functions
are batches of one.  A pure state's log-negativity is its standard-form
parameter, ``E0 = r`` with ``sinh(r)^2 = -det C``, and its reduced entropy is
``(1 + s) log(1 + s) - s log s = log(1 + s) + s log(1 + 1/s)`` with
``s = sinh(r/2)^2``.  The negativity comes from the partial transpose and
also works for mixed states.  Squeezing is the inverse smallest eigenvalue
of the CM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _one_cm, _pure_r, valid_cm_stack
from .rates import _balanced_min_eigenvector, _rate_column

__all__ = [
    "EntanglementReport",
    "SqueezingReport",
    "negativity",
    "entanglement",
    "squeezing",
    "report_columns",
]


def _negativity(blocks: np.ndarray, dets: np.ndarray) -> np.ndarray:
    """Inverse smallest symplectic eigenvalue of the partial transposes.

    ``nu~^2 = (D - sqrt(D^2 - 4 det gamma)) / 2`` with ``D = det A + det B -
    2 det C`` (Vidal & Werner, PRA 65, 032314 (2002)), evaluated as
    ``2 det gamma / (D + sqrt(...))``, which does not cancel for large ``D``.
    """
    delta = blocks[:, 0, 0] + blocks[:, 1, 1] - 2.0 * blocks[:, 0, 1]
    root = np.sqrt(np.maximum(delta * delta - 4.0 * dets, 0.0))
    return np.sqrt((delta + root) / (2.0 * dets))


def _squeezing(eigenvalues: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``S = 1/lambda_min`` and ``Q = log S`` of each validated CM from its ascending spectrum."""
    return 1.0 / eigenvalues[:, 0], -np.log(eigenvalues[:, 0]) + 0.0


def report_columns(cms, k) -> dict[str, np.ndarray]:
    """Per-node columns ``E0``, ``negativity``, ``S``, ``Q`` and ``rate``.

    ``cms`` is an ``(N, 4, 4)`` stack of pure CMs.  This is the one place a
    trajectory is validated, once as a whole, for every strategy; ``rate``
    is the optimal entanglement rate under the coupling ``k``.
    """
    stack = valid_cm_stack(cms, pure=True)
    s, q = _squeezing(stack.eigenvalues)
    return {
        "E0": _pure_r(stack.blocks[:, 0, 1]),
        "negativity": _negativity(stack.blocks, stack.dets),
        "S": s,
        "Q": q,
        "rate": _rate_column(stack.cms, k),
    }


def negativity(gamma) -> float:
    """Inverse smallest symplectic eigenvalue of the partially transposed CM.

    Values above 1 witness entanglement; for pure states it is ``exp(E0)``.
    """
    stack = _one_cm(gamma)
    return float(_negativity(stack.blocks, stack.dets)[0])


@dataclass(frozen=True)
class EntanglementReport:
    """Entanglement quantifiers of a pure two-mode Gaussian state.

    ``r`` is the standard-form two-mode squeezing parameter and equals the
    log-negativity; ``det_a = cosh(r)^2`` is the determinant of the reduced
    CM (an inverse-purity measure); ``negativity = exp(r)``.  ``entropy`` is
    the von Neumann entropy of either reduced state, whose Schmidt spectrum
    is ``(1 - q) q^n`` with ``q = tanh(r/2)^2``.
    """

    r: float
    negativity: float
    det_a: float
    entropy: float

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "E0": self.r,
            "Ep": self.det_a,
            "negativity": self.negativity,
            "entropy": self.entropy,
        }


def entanglement(gamma) -> EntanglementReport:
    """Full entanglement report for a pure CM.

    Raises
    ------
    NotPureError
        If ``det(gamma)`` deviates from 1; use :func:`negativity` for mixed
        states.
    """
    stack = _one_cm(gamma, pure=True)
    r = float(_pure_r(stack.blocks[:, 0, 1])[0])
    x = r / 2.0
    s = math.sinh(x) ** 2
    # s log(1 + 1/s) as 2 s log1p(e^-x / sinh x): nothing cancels at large r or overflows at tiny s
    entropy = math.log1p(s) + 2.0 * s * math.log1p(math.exp(-x) / math.sinh(x)) if s > 0.0 else 0.0
    return EntanglementReport(
        r=r,
        negativity=float(_negativity(stack.blocks, stack.dets)[0]),
        det_a=max(float(stack.blocks[0, 0, 0]), 1.0),
        entropy=entropy,
    )


@dataclass(frozen=True)
class SqueezingReport:
    """Squeezing of a CM: inverse smallest eigenvalue and its direction.

    ``x1``/``x2`` are the mode-1 and mode-2 components of the unit
    eigenvector belonging to ``lambda_min`` that the squeezing rate uses: when
    the smallest eigenvalue is (near-)degenerate, which ``degenerate`` flags,
    it is the vector of that eigenspace maximising ``||x1|| ||x2||``.
    """

    lambda_min: float
    squeezing: float
    q: float
    x1: np.ndarray
    x2: np.ndarray
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "lambda_min": self.lambda_min,
            "S": self.squeezing,
            "Q": self.q,
            "x1": [float(v) for v in self.x1],
            "x2": [float(v) for v in self.x2],
            "degenerate": self.degenerate,
        }


def squeezing(gamma) -> SqueezingReport:
    """Squeezing report ``S = 1/lambda_min``, ``Q = log S`` for a valid CM."""
    stack = _one_cm(gamma)
    x, degenerate = _balanced_min_eigenvector(stack)
    s, q = _squeezing(stack.eigenvalues)
    return SqueezingReport(
        lambda_min=float(stack.eigenvalues[0, 0]),
        squeezing=float(s[0]),
        q=float(q[0]),
        x1=x[:2].copy(),
        x2=x[2:].copy(),
        degenerate=degenerate,
    )
