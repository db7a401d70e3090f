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
    PRODUCT_R,
    SIGMA_Z,
    CMStack,
    LocalRotationPair,
    _as_k,
    _flow_l,
    _is_product,
    _one_cm,
    _pure_r,
    _rsvd_angles,
    _wrap,
    det2,
    restricted_svd,
    rotation,
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

_COFACTOR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _y_stack(cms: np.ndarray):
    """``(Y, product, _rsvd_angles(Y))`` with ``Y = sqrt(det A / -det C) C^T A^-1`` per CM; rows
    of product states, ``r < PRODUCT_R`` (:func:`~twomode.core._is_product`), hold no ``Y``."""
    a, c = cms[:, :2, :2], cms[:, :2, 2:]
    det_c = det2(c)
    product = _is_product(det_c)
    scale = 1.0 / np.sqrt(det2(a) * np.where(product, 1.0, -det_c))
    adj_a = a.transpose(0, 2, 1)[:, ::-1, ::-1] * _COFACTOR_SIGNS  # [[a11, -a01], [-a10, a00]]
    y = scale[:, None, None] * (c.transpose(0, 2, 1) @ adj_a)
    return y, product, _rsvd_angles(y)


def _rate_kernel(cms: np.ndarray, theta_l: float = 0.0, psi_l: float = 0.0):
    """``(Y, product, l, phi)`` of each validated pure CM in a stack.

    ``l`` is the local squeezing parameter, ``exp(l) = s1(Y)``; product states
    take the canonical orientation, ``l = (log lambda_max(A) + log
    lambda_max(B)) / 2``.  ``phi`` holds the unwrapped optimal pre-rotation
    angles ``(phi1, phi2)`` under a generator ``L`` with restricted SVD angles
    ``(theta_l, psi_l)``: they align the frames of ``L`` and ``Y``, or, for
    product states, the local squeezing axes (``R(theta_A + pi/2)`` orders
    ``A``'s eigenvalues ascending, ``R(theta_B)`` orders ``B``'s descending).
    """
    y, product, (theta_y, s1, _, psi_y) = _y_stack(cms)
    l = np.log(np.maximum(s1, 1.0))
    phi = np.empty(l.shape + (2,))
    np.add(theta_l, psi_y, out=phi[:, 0])
    np.subtract(-psi_l, theta_y, out=phi[:, 1])
    if np.count_nonzero(product):  # the A blocks, then the B blocks, in one kernel call
        theta, s, _, _ = _rsvd_angles(np.stack([cms[product, :2, :2], cms[product, 2:, 2:]]))
        l[product] = 0.5 * np.log(s[0] * s[1])
        phi[product, 0] = theta_l - theta[0] - math.pi / 2.0
        phi[product, 1] = -psi_l - theta[1]
    return y, product, l, phi


def _rate(l, s1: float, s2: float):
    return s1 * np.exp(l) - s2 * np.exp(-l)


def _rate_column(cms: np.ndarray, k) -> np.ndarray:
    """Optimal entanglement rate of each validated pure CM in a stack."""
    _, s1, s2, _ = _rsvd_angles(_flow_l(_as_k(k)))
    return _rate(_rate_kernel(cms)[2], s1, s2)


def local_squeezing_parameter(gamma) -> float:
    """Local squeezing parameter ``l >= 0`` of a pure state.

    ``cosh(2l) = tr[(S1^T S1)^-1 sz (S2^T S2) sz] / 2`` with the local parts of
    the pure-state standard form.  For product states, whose local parts are
    fixed only up to rotations, the canonical orientation gives the maximal
    value ``l = d1 + d2`` (sum of the single-mode squeezing exponents).
    """
    return float(_rate_kernel(_one_cm(gamma, pure=True).cms)[2][0])


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


def optimal_entanglement_rate(gamma, k) -> EntanglementRatePlan:
    """Best achievable growth rate of the two-mode squeezing parameter.

    The optimal pre-rotations align the restricted SVD frames of the flow
    generator ``L = J^T K`` and of the state matrix ``Y``; for product
    states (``r < PRODUCT_R``) they instead align the local squeezing
    axes of the two modes against the generator frame.
    """
    theta_l, s1, s2, psi_l = (float(x) for x in _rsvd_angles(_flow_l(_as_k(k))))
    cms = _one_cm(gamma, pure=True).cms
    y, product, l, phi = _rate_kernel(cms, theta_l, psi_l)
    l = float(l[0])
    return EntanglementRatePlan(
        rate=float(_rate(l, s1, s2)),
        l=l,
        rotations=LocalRotationPair(*_wrap(phi[0]).tolist()),
        Y=None if product[0] else y[0],
        s1=s1,
        s2=s2,
    )


def entanglement_rate(gamma, k, rotations: LocalRotationPair) -> float:
    """Entanglement rate for arbitrary (generally suboptimal) pre-rotations.

    ``rotations`` are applied to the state before the interaction; the rate is
    ``tr(R(phi1)^T L R(phi2) Y)``.  Requires an entangled pure state (the
    formula is singular for product states, ``r < PRODUCT_R``).
    """
    flow_l = _flow_l(_as_k(k))
    cms = _one_cm(gamma, pure=True).cms
    y, product, _ = _y_stack(cms)
    if product[0]:
        r = float(_pure_r(det2(cms[0, :2, 2:])))
        raise ValueError(f"entanglement_rate needs an entangled state: r = {r:.3g} is below PRODUCT_R = {PRODUCT_R:g}")
    o1, o2 = rotation([rotations.phi1, rotations.phi2])
    return float(np.trace(o1.T @ flow_l @ o2 @ y[0]))


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


def _balanced_min_eigenvector(stack: CMStack) -> tuple[np.ndarray, bool]:
    """Unit vector of the smallest eigenspace of the one validated CM in ``stack``
    maximising ``||x1|| ||x2||``, and whether that eigenspace is degenerate.

    The eigenspace is read off the validation spectrum ``stack.eigenvalues``.
    Within it the weight ``mu = ||x1||^2`` is a quadratic form; the product
    ``||x1|| ||x2||`` is maximised at ``mu`` as close to 1/2 as the eigen-range
    of that form allows.
    """
    w = stack.eigenvalues[0]
    v = np.linalg.eigh(stack.cms[0])[1]
    if w[1] - w[0] >= DEGENERACY_TOL:
        return v[:, 0], False
    basis = v[:, w - w[0] < DEGENERACY_TOL]
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
    return x / np.linalg.norm(x), True


def optimal_squeezing_rate(gamma, k) -> SqueezingRatePlan:
    """Best achievable growth rate of ``Q = log(squeezing)`` under ``K``."""
    rk, svals, sk = restricted_svd(k)
    stack = _one_cm(gamma)
    cap = svals.s1 - svals.s2

    x, degenerate = _balanced_min_eigenvector(stack)
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
        lambda_min=float(stack.eigenvalues[0, 0]),
        degenerate=degenerate,
    )
