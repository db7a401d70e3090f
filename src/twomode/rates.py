"""Optimal entanglement and squeezing rates for infinitesimal interaction use.

Given a pure state and a bilinear coupling, instantaneous local rotations can
be applied before each infinitesimal interaction window.  The largest
achievable growth rate of the two-mode squeezing parameter is

    rate_E = s1 * exp(l) - s2 * exp(-l),

where ``(s1, s2)`` are the restricted singular values of the coupling and
``l`` is the local squeezing parameter of the state (zero for unsqueezed
states, in which case the rate reduces to ``s1 - s2``).  The largest growth
rate of ``Q = log(squeezing)`` factorises into a state part and a coupling
part:

    rate_S = g_S(state) * C_S(coupling),    C_S = s1 - s2,
    g_S = 2 ||x1|| ||x2||,

with ``(x1, x2)`` the mode split of the unit eigenvector of the smallest CM
eigenvalue.  Both optima come with the explicit rotations that achieve them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEGENERACY_TOL,
    J,
    SIGMA_Z,
    LocalRotationPair,
    _as_k,
    _rsvd_angles,
    _wrap,
    assert_valid_cm,
    det2,
    generator,
    restricted_svd,
    valid_cm_stack,
)

__all__ = [
    "EntanglementRatePlan",
    "SqueezingRatePlan",
    "local_squeezing_parameter",
    "optimal_entanglement_rate",
    "entanglement_rate",
    "squeezing_capability",
    "optimal_squeezing_rate",
]

#: Below this value of ``-det(C)`` the cross block counts as vanishing and the
#: local squeezing parameter switches to the product-state form.
_DETC_TOL = 1e-14

_COFACTOR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _y_stack(cms: np.ndarray):
    """``(Y, product, _rsvd_angles(Y))`` with ``Y = sqrt(det A / -det C) C^T A^-1``
    per CM; product rows hold no ``Y``."""
    a, c = cms[:, :2, :2], cms[:, :2, 2:]
    det_c = det2(c)
    product = -det_c < _DETC_TOL
    scale = 1.0 / np.sqrt(det2(a) * np.where(product, 1.0, -det_c))
    adj_a = a.transpose(0, 2, 1)[:, ::-1, ::-1] * _COFACTOR_SIGNS  # [[a11, -a01], [-a10, a00]]
    y = scale[:, None, None] * (c.transpose(0, 2, 1) @ adj_a)
    return y, product, _rsvd_angles(y)


def _local_squeezing(cms: np.ndarray, ys=None) -> np.ndarray:
    """Local squeezing parameter ``l`` of each validated pure CM in a stack.

    ``exp(l) = s1(Y)``; product states take the canonical orientation,
    ``l = (log lambda_max(A) + log lambda_max(B)) / 2``.  ``ys = _y_stack(cms)``.
    """
    _, product, (_, s1, _, _) = _y_stack(cms) if ys is None else ys
    l = np.log(np.maximum(s1, 1.0))
    if product.any():
        blocks = cms[product]
        lam = _rsvd_angles(blocks[:, :2, :2])[1] * _rsvd_angles(blocks[:, 2:, 2:])[1]
        l[product] = 0.5 * np.log(lam)
    return l


def _rate(l, s1: float, s2: float):
    return s1 * np.exp(l) - s2 * np.exp(-l)


def _rate_column(cms: np.ndarray, k) -> np.ndarray:
    """Optimal entanglement rate of each validated pure CM in a stack."""
    _, svals, _ = restricted_svd(generator(k).L)
    return _rate(_local_squeezing(cms), svals.s1, svals.s2)


def local_squeezing_parameter(gamma) -> float:
    """Local squeezing parameter ``l >= 0`` of a pure state.

    ``cosh(2l) = tr[(S1^T S1)^-1 sz (S2^T S2) sz] / 2`` with the local parts of
    the pure-state standard form.  For product states, whose local parts are
    fixed only up to rotations, the canonical orientation gives the maximal
    value ``l = d1 + d2`` (sum of the single-mode squeezing exponents).
    """
    return float(_local_squeezing(valid_cm_stack(gamma, pure=True).cms)[0])


@dataclass(frozen=True)
class EntanglementRatePlan:
    """Optimal entanglement rate together with the rotations achieving it.

    ``rate = s1*exp(l) - s2*exp(-l)``.  Applying ``rotations`` to the state
    (CM -> R gamma R^T) and then evolving under the coupling grows the
    two-mode squeezing parameter at ``rate`` to first order.  ``Y`` is the
    determinant-(-1) matrix ``sqrt(det A / -det C) C^T A^-1`` whose restricted
    singular values are ``(exp(l), -exp(-l))``; it is None for product
    states, where ``l`` comes from the local blocks instead.
    """

    rate: float
    l: float
    rotations: LocalRotationPair
    Y: np.ndarray | None
    s1: float
    s2: float

    def to_dict(self) -> dict:
        return {
            "rate": self.rate,
            "l": self.l,
            "phi1": float(self.rotations.phi1),
            "phi2": float(self.rotations.phi2),
            "s1": self.s1,
            "s2": self.s2,
        }


def _optimal_rotations(gamma, ys, theta_l: float, psi_l: float) -> LocalRotationPair:
    """Optimal pre-rotations of a valid pure CM with ``ys = _y_stack(gamma[None])``;
    ``(theta_l, psi_l)`` are the restricted SVD angles of the generator ``L``."""
    _, product, (theta_y, _, _, psi_y) = ys
    if not product[0]:
        return LocalRotationPair(float(theta_l + psi_y[0]), float(-psi_l - theta_y[0]))
    # Product state: the local factors satisfy S1 S1^T = A and S2 S2^T = B;
    # R(theta_A + pi/2) orders A's eigenvalues ascending, R(theta_B) orders
    # B's descending.
    theta_a, theta_b = _rsvd_angles(np.stack([gamma[:2, :2], gamma[2:, 2:]]))[0].tolist()
    return LocalRotationPair(theta_l - theta_a - math.pi / 2.0, -psi_l - theta_b)


def optimal_entanglement_rate(gamma, k) -> EntanglementRatePlan:
    """Best achievable growth rate of the two-mode squeezing parameter.

    The optimal pre-rotations align the restricted SVD frames of the flow
    generator ``L = J^T K`` and of the state matrix ``Y``; for (near-)product
    states, where ``Y`` degenerates, they instead align the local squeezing
    axes of the two modes against the generator frame.
    """
    k = _as_k(k)
    stack = valid_cm_stack(gamma, pure=True)
    theta_l, s1, s2, psi_l = (float(x) for x in _rsvd_angles(generator(k).L))
    ys = _y_stack(stack.cms)
    l = float(_local_squeezing(stack.cms, ys)[0])
    rotations = _optimal_rotations(stack.cms[0], ys, theta_l, psi_l)
    return EntanglementRatePlan(
        rate=float(_rate(l, s1, s2)),
        l=l,
        rotations=LocalRotationPair(*_wrap([rotations.phi1, rotations.phi2]).tolist()),
        Y=None if ys[1][0] else ys[0][0],
        s1=s1,
        s2=s2,
    )


def entanglement_rate(gamma, k, o1, o2) -> float:
    """Entanglement rate for arbitrary (generally suboptimal) pre-rotations.

    ``o1`` and ``o2`` are the SO(2) rotations applied to the state before the
    interaction; the rate is ``tr(o1^T L o2 Y)``.  Requires an entangled pure
    state (the formula is singular for product states).
    """
    k = _as_k(k)
    y, product, _ = _y_stack(valid_cm_stack(gamma, pure=True).cms)
    if product[0]:
        raise ValueError("entanglement_rate needs an entangled state (det C < 0)")
    gen = generator(k)
    o1 = np.asarray(o1, dtype=float)
    o2 = np.asarray(o2, dtype=float)
    return float(np.trace(o1.T @ gen.L @ o2 @ y[0]))


def squeezing_capability(k) -> float:
    """``C_S = s1 - s2``: the largest achievable growth rate of ``log S``."""
    _, svals, _ = restricted_svd(k)
    return svals.s1 - svals.s2


@dataclass(frozen=True)
class SqueezingRatePlan:
    """Optimal squeezing rate and the mode-1 rotation achieving it.

    ``rate = capability * squeezability``.  Applying ``rotation`` to mode 1
    (identity on mode 2) orients the minimal-variance direction so the
    coupling compresses it fastest; ``o_tilde`` is the orthogonal,
    determinant-(-1) matrix satisfying ``-o_tilde x2 || x1``.  For degenerate
    smallest eigenvalues the eigenvector is chosen inside the eigenspace to
    maximise ``||x1|| ||x2||``.
    """

    rate: float
    capability: float
    squeezability: float
    rotation: np.ndarray
    o_tilde: np.ndarray
    x: np.ndarray
    lambda_min: float
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "rate": self.rate,
            "C_S": self.capability,
            "g_S": self.squeezability,
            "phi1": float(math.atan2(self.rotation[1, 0], self.rotation[0, 0])),
            "lambda_min": self.lambda_min,
            "degenerate": self.degenerate,
        }


def _balanced_min_eigenvector(gamma) -> tuple[np.ndarray, float, bool]:
    """Unit vector of the smallest eigenspace maximising ``||x1|| ||x2||``.

    Within the (possibly degenerate) eigenspace the weight
    ``mu = ||x1||^2`` is a quadratic form; the product ``||x1|| ||x2||`` is
    maximised at ``mu`` as close to 1/2 as the eigen-range of that form
    allows.
    """
    gamma = np.asarray(gamma, dtype=float)
    w, v = np.linalg.eigh(gamma)
    lam = float(w[0])
    idx = np.nonzero(w - lam < DEGENERACY_TOL)[0]
    if idx.size == 1:
        return v[:, 0], lam, False
    basis = v[:, idx]
    p = basis[:2, :].T @ basis[:2, :]
    mu, e = np.linalg.eigh(p)
    if mu[0] >= 0.5:
        coeff = e[:, 0]
    elif mu[-1] <= 0.5:
        coeff = e[:, -1]
    else:
        b = int(np.searchsorted(mu, 0.5))
        a = b - 1
        frac = (mu[b] - 0.5) / (mu[b] - mu[a])
        coeff = math.sqrt(frac) * e[:, a] + math.sqrt(1.0 - frac) * e[:, b]
    x = basis @ coeff
    return x / np.linalg.norm(x), lam, True


def optimal_squeezing_rate(gamma, k) -> SqueezingRatePlan:
    """Best achievable growth rate of ``Q = log(squeezing)`` under ``K``."""
    k = _as_k(k)
    gamma = assert_valid_cm(gamma)
    rk, svals, sk = restricted_svd(k)
    cap = svals.s1 - svals.s2

    x, lam, degenerate = _balanced_min_eigenvector(gamma)
    x1, x2 = x[:2], x[2:]
    n1, n2 = float(np.linalg.norm(x1)), float(np.linalg.norm(x2))
    g_s = 2.0 * n1 * n2

    w_mat = rk @ J.T @ SIGMA_Z @ sk
    if n1 < 1e-12 or n2 < 1e-12:
        o1 = np.eye(2)
    else:
        u = w_mat @ (x2 / n2)
        a = -x1 / n1
        # Rotation taking a to u; both are unit vectors.
        o1 = np.outer(u, a) + np.outer(J @ u, J @ a)
    return SqueezingRatePlan(
        rate=cap * g_s,
        capability=cap,
        squeezability=g_s,
        rotation=o1,
        o_tilde=o1.T @ w_mat,
        x=x,
        lambda_min=lam,
        degenerate=degenerate,
    )
