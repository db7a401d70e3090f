"""Phase-space algebra for two bosonic modes coupled by a bilinear Hamiltonian.

Conventions used throughout the package:

* Quadratures are ordered ``(X1, P1, X2, P2)``.
* A bilinear coupling ``H = a*X1*X2 + b*P1*P2 + c*P1*X2 + d*X1*P2`` is encoded
  as the real 2x2 matrix ``K = [[a, d], [c, b]]``, so that
  ``H = (X1, P1) K (X2, P2)^T``.  Any real 2x2 matrix is a valid coupling.
* Covariance matrices (CMs) of Gaussian states are normalised so that the
  vacuum state is the 4x4 identity; displacements are ignored.
* The Heisenberg flow of ``K`` for time ``t`` is the symplectic matrix
  ``S(t) = exp(M t)`` with generator ``M = [[0, L], [Lt, 0]]``, where
  ``L = J^T K``, ``Lt = J^T K^T`` and ``J = [[0, -1], [1, 0]]``.  In the
  Schroedinger picture a CM transforms as ``gamma -> S gamma S^T``.

Because ``M^2 = alpha * I`` with ``alpha = -det(K)``, the exponential has the
closed form ``S(t) = cosh(sqrt(alpha) t) I + sinh(sqrt(alpha) t)/sqrt(alpha) M``,
which is hyperbolic for ``alpha > 0`` and trigonometric for ``alpha < 0``.

All operations here are pure functions over immutable inputs; nothing keeps
shared mutable state, so everything is safe to call concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "J",
    "J2",
    "SIGMA_Z",
    "H0",
    "HBS",
    "HTMS",
    "NotPureError",
    "NotPassiveError",
    "kmatrix",
    "k_to_dict",
    "k_from_dict",
    "rotation",
    "LocalRotationPair",
    "RestrictedSingularValues",
    "RestrictedSVD",
    "restricted_svd",
    "Generator",
    "generator",
    "evolve",
    "StandardFormEvolution",
    "standard_form_evolution",
    "apply_symplectic",
    "is_symplectic",
    "assert_symplectic",
    "assert_passive",
    "vacuum_cm",
    "two_mode_squeezed_cm",
    "squeezed_product_cm",
    "det2",
    "CMStack",
    "valid_cm_stack",
    "assert_valid_cm",
    "matrix_to_list",
    "matrix_from_list",
    "PureStateStandardForm",
    "pure_standard_form",
]

#: Single-mode symplectic form.
J = np.array([[0.0, -1.0], [1.0, 0.0]])

#: Two-mode symplectic form, ``J2 = J (+) J``.
J2 = np.block([[J, np.zeros((2, 2))], [np.zeros((2, 2)), J]])

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

#: Position-position coupling ``X1 X2`` (the natural atom-light interaction).
H0 = np.array([[1.0, 0.0], [0.0, 0.0]])

#: Beam-splitter coupling ``X1 P2 - P1 X2``.
HBS = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: Two-mode squeezing coupling ``X1 X2 - P1 P2``.
HTMS = np.array([[1.0, 0.0], [0.0, -1.0]])

#: Allowed deviation of ``det(gamma)`` from 1 for a CM to count as pure.
PURITY_TOL = 1e-9

#: Gap below which the two smallest CM eigenvalues count as degenerate.
DEGENERACY_TOL = 1e-10

#: Largest entry of ``O O^T - I`` of a passive ``O``, and of ``S Omega S^T - Omega`` of a
#: symplectic ``S`` in units of ``max(1, max|S|)^2``.
SYMPLECTIC_TOL = 1e-10


class NotPureError(ValueError):
    """Raised when an operation that needs a pure state receives a mixed CM."""


class NotPassiveError(ValueError):
    """Matrix fails to be orthogonal and symplectic at ``SYMPLECTIC_TOL``."""


# ---------------------------------------------------------------------------
# Coupling matrices
# ---------------------------------------------------------------------------


def kmatrix(a: float = 0.0, b: float = 0.0, c: float = 0.0, d: float = 0.0) -> np.ndarray:
    """Build the coupling matrix ``[[a, d], [c, b]]`` from scalar coefficients.

    The coefficients multiply ``X1 X2``, ``P1 P2``, ``P1 X2`` and ``X1 P2``
    respectively.
    """
    return _as_k([[a, d], [c, b]])


def k_to_dict(k: np.ndarray) -> dict:
    """Serialise a coupling matrix to ``{"a":, "b":, "c":, "d":}``."""
    k = _as_k(k)
    return {"a": float(k[0, 0]), "b": float(k[1, 1]), "c": float(k[1, 0]), "d": float(k[0, 1])}


def k_from_dict(data: dict) -> np.ndarray:
    """Inverse of :func:`k_to_dict`; a value that is not a number names its key."""
    return kmatrix(*_json_numbers("coupling", [data], "abcd")[0])


def _json_numbers(where: str, items, keys) -> np.ndarray:
    """The numbers at ``keys`` of the JSON objects ``items``, one row of floats per object.

    A number is an ``int`` or a ``float``, never a ``bool``.  Object ``i`` is named
    ``where.format(i)`` when it is not an object, misses a key or holds a non-number
    or an integer past the float range.
    """
    try:  # one type check of every value; an object is named only if it fails
        columns = [[item[key] for item in items] for key in keys]
        if {type(value) for column in columns for value in column} <= {int, float}:
            return np.array(columns, float).T
    except (KeyError, TypeError, OverflowError):
        pass
    for i, item in enumerate(items):
        for key in keys:
            try:
                value = item[key]
            except KeyError:
                raise ValueError(f"{where.format(i)}: missing key {key!r}") from None
            except TypeError:
                shape = f"an object with keys {', '.join(keys[:-1])} and {keys[-1]}"
                raise TypeError(f"{where.format(i)} must be {shape}, not {type(item).__name__}") from None
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TypeError(f"{where.format(i)}: {key} must be a number, not {type(value).__name__}")
            if isinstance(value, int) and abs(value) > sys.float_info.max:
                raise ValueError(f"{where.format(i)}: {key} is an integer past the float range")
    return np.array(columns, float).T


def _as_k(k) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    if k.shape != (2, 2):
        raise ValueError(f"coupling matrix must be 2x2, got shape {k.shape}")
    if not np.all(np.isfinite(k)):
        raise ValueError("coupling matrix must be finite")
    return k


# ---------------------------------------------------------------------------
# Local rotations
# ---------------------------------------------------------------------------


def rotation(phi) -> np.ndarray:
    """SO(2) rotations ``[[cos, -sin], [sin, cos]]`` of one mode, one per angle in ``phi``: an array
    of shape ``np.shape(phi) + (2, 2)``, so one angle gives one 2x2 matrix."""
    phi = np.asarray(phi, dtype=float)
    m = np.empty(phi.shape + (2, 2))
    np.cos(phi, out=m[..., 0, 0])
    np.sin(phi, out=m[..., 1, 0])
    np.negative(m[..., 1, 0], out=m[..., 0, 1])
    m[..., 1, 1] = m[..., 0, 0]
    return m


def _pair_matrix(phi) -> np.ndarray:
    """The 4x4 matrices ``R(phi1) (+) R(phi2)`` of an ``(..., 2)`` array of angle pairs."""
    r = rotation(phi)
    m = np.zeros(r.shape[:-3] + (4, 4))
    m[..., :2, :2] = r[..., 0, :, :]
    m[..., 2:, 2:] = r[..., 1, :, :]
    return m


@dataclass(frozen=True)
class LocalRotationPair:
    """Instantaneous phase-space rotations ``R(phi1) (+) R(phi2)`` of both modes.

    Applying the pair to a CM means ``gamma -> R gamma R^T`` with
    ``R = R(phi1) (+) R(phi2)``.
    """

    phi1: float = 0.0
    phi2: float = 0.0

    @property
    def matrix(self) -> np.ndarray:
        return _pair_matrix([self.phi1, self.phi2])

    def compose(self, other: "LocalRotationPair") -> "LocalRotationPair":
        """Pair equivalent to applying ``other`` first, then ``self``."""
        return LocalRotationPair(self.phi1 + other.phi1, self.phi2 + other.phi2)


# ---------------------------------------------------------------------------
# Restricted singular value decomposition
# ---------------------------------------------------------------------------


class RestrictedSingularValues(NamedTuple):
    """Singular values of a coupling matrix with the smaller one signed.

    ``s1 = sigma1`` and ``s2 = sign(det K) * sigma2`` where
    ``sigma1 >= sigma2 >= 0`` are the ordinary singular values.  The pair
    ``(s1, s2)`` is a complete invariant of ``K`` under local rotations and
    always satisfies ``s1 >= |s2|``.
    """

    s1: float
    s2: float


class RestrictedSVD(NamedTuple):
    """Factorisation ``K = R @ diag(s1, s2) @ S`` with ``R, S`` in SO(2)."""

    R: np.ndarray
    svals: RestrictedSingularValues
    S: np.ndarray


def _wrap(phi):
    """Angles shifted by whole turns into ``(-pi, pi]``."""
    phi = np.asarray(phi, dtype=float)
    return phi - 2.0 * math.pi * np.ceil(phi / (2.0 * math.pi) - 0.5)


#: Maps ``(m00, m01, m10, m11)`` to ``(a, c, b, d)``: the conformal part ``(a, b) =
#: (m00 + m11, m10 - m01)`` and the anticonformal part ``(c, d) = (m00 - m11, m10 + m01)``.
_SPLIT = np.array([[1, 1, 0, 0], [0, 0, -1, 1], [0, 0, 1, 1], [1, -1, 0, 0]], dtype=float)


def _rsvd_angles(m):
    """Closed-form restricted SVD ``M = R(theta) diag(s1, s2) R(psi)`` of ``(..., 2, 2)`` stacks.

    ``M = q R(alpha) + r R(beta) sz`` with ``q, r >= 0`` gives ``s1 = q + r``,
    ``s2 = q - r``, ``theta = (alpha + beta)/2`` on the branch ``(-pi/2, pi/2]``
    and ``psi = theta - beta``.  A degenerate spectrum, ``min(q, r) <= 0.5e-12
    s1`` (``sigma1 - sigma2 <= 1e-12 s1``), takes ``theta = 0`` and ``psi =
    alpha`` (``-beta`` if ``r > q``).  So a rotation ``R(phi)`` gives ``psi =
    phi``, and a symmetric positive definite matrix has descending eigenvalues
    ``(s1, s2)`` with eigenvectors ``R(theta)``.  Returns ``(theta, s1, s2,
    psi)``, each of shape ``m.shape[:-2]``; the zero matrix gives zeros.
    """
    m = np.asarray(m, dtype=float)
    x = m.reshape(m.shape[:-2] + (4,)) @ _SPLIT
    h = np.hypot(x[..., :2], x[..., 2:]) / 2.0
    angle = np.arctan2(x[..., 2:], x[..., :2])
    q, r, alpha, beta = h[..., 0], h[..., 1], angle[..., 0], angle[..., 1]
    s1 = q + r
    theta = _wrap(alpha + beta) / 2.0
    if (degenerate := np.minimum(q, r) <= 0.5e-12 * s1).any():
        theta = np.where(degenerate, 0.0, theta)
        return theta, s1, q - r, np.where(degenerate & (r <= q), alpha, theta - beta)
    return theta, s1, q - r, theta - beta


def restricted_svd(k) -> RestrictedSVD:
    """Decompose ``K = R diag(s1, s2) S`` with both factors special orthogonal.

    The factors and values come in closed form from the conformal split of
    ``K`` (see :func:`_rsvd_angles`), with ``R = R(theta)`` for ``theta`` in
    ``(-pi/2, pi/2]``.  For (numerically) equal singular values the
    factorisation is not unique; the left factor is then fixed to the
    identity, which makes presets such as ``K = I -> (I, (1, 1), I)``
    deterministic.
    """
    theta, s1, s2, psi = _rsvd_angles(_as_k(k))
    r, s = rotation(np.array([theta, psi]))
    return RestrictedSVD(r, RestrictedSingularValues(float(s1), float(s2)), s)


# ---------------------------------------------------------------------------
# Flow generator and its exponential
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Generator:
    """Heisenberg generator of a bilinear coupling.

    ``M = [[0, L], [Lt, 0]]`` with ``L = J^T K`` and ``Lt = J^T K^T``;
    ``alpha = -det(L)`` so that ``M @ M = alpha * I``.
    """

    M: np.ndarray
    L: np.ndarray
    L_tilde: np.ndarray
    alpha: float


def _flow_l(k: np.ndarray) -> np.ndarray:
    """``L = J^T K`` of a checked coupling, the generator's upper-right block."""
    return J.T @ k


def generator(k) -> Generator:
    """Build the 4x4 phase-space generator of the coupling ``K``."""
    k = _as_k(k)
    l, lt = _flow_l(k), J.T @ k.T
    m = np.zeros((4, 4))
    m[:2, 2:] = l
    m[2:, :2] = lt
    return Generator(M=m, L=l, L_tilde=lt, alpha=-float(det2(l)))


def _cosh_sinc(alpha: float, t):
    """Return ``(cosh(w t), sinh(w t)/w)`` for ``w = sqrt(alpha)``, ``t`` scalar or array: the exact
    branch, hyperbolic or trigonometric, for every ``alpha != 0``, however small, and ``(1, t)`` at 0."""
    if alpha == 0.0:
        return np.ones_like(t), t
    w = math.sqrt(abs(alpha))
    if alpha > 0.0:
        return np.cosh(w * t), np.sinh(w * t) / w
    return np.cos(w * t), np.sin(w * t) / w


def evolve(k, t) -> np.ndarray:
    """Symplectic matrix ``S(t) = exp(M t)`` generated by the coupling ``K``.

    Parameters
    ----------
    k : array_like
        2x2 coupling matrix.
    t : float or array_like
        Interaction time; may be negative.  An array of times gives the
        stack of flows ``S(t) = c(t) I + s(t) M`` over it.

    Returns
    -------
    ndarray
        4x4 symplectic matrix acting on ``(X1, P1, X2, P2)``, or a stack of
        them of shape ``t.shape + (4, 4)``.
    """
    gen = generator(k)
    c, s = _cosh_sinc(gen.alpha, np.asarray(t, dtype=float))
    return np.multiply.outer(c, np.eye(4)) + np.multiply.outer(s, gen.M)


@dataclass(frozen=True)
class StandardFormEvolution:
    """Flow ``S(t)`` factored into local rotations around a fixed shear.

    ``S(t) = prefactor * (O1 (+) O2^T) T (O1 (+) O2^T)^T`` where

    ``T = [[1, 0, h1, 0], [0, 1, 0, h2], [-h2, 0, 1, 0], [0, -h1, 0, 1]]``,

    ``O1 diag(s1, s2) O2`` is the restricted SVD of ``L = J^T K``,
    ``prefactor = cosh(sqrt(alpha) t)`` and
    ``h_k = tanh(sqrt(alpha) t)/sqrt(alpha) * s_k`` (with the same branch
    rules as :func:`evolve`).
    """

    O1: np.ndarray
    O2: np.ndarray
    prefactor: float
    h1: float
    h2: float

    def assemble(self) -> np.ndarray:
        """Multiply the factors back into the 4x4 flow matrix."""
        t = np.eye(4)
        t[0, 2] = self.h1
        t[1, 3] = self.h2
        t[2, 0] = -self.h2
        t[3, 1] = -self.h1
        o = np.zeros((4, 4))
        o[:2, :2] = self.O1
        o[2:, 2:] = self.O2.T
        return self.prefactor * (o @ t @ o.T)


def standard_form_evolution(k, t: float) -> StandardFormEvolution:
    """Factor ``evolve(k, t)`` into its rotation/shear standard form."""
    gen = generator(k)
    o1, svals, o2 = restricted_svd(gen.L)
    c, s = _cosh_sinc(gen.alpha, float(t))
    ratio = s / c  # tanh(w t)/w with branch rules
    return StandardFormEvolution(
        O1=o1, O2=o2, prefactor=c, h1=ratio * svals.s1, h2=ratio * svals.s2
    )


# ---------------------------------------------------------------------------
# Symplectic checks and CM helpers
# ---------------------------------------------------------------------------


def is_symplectic(s) -> bool:
    """Whether a ``2n x 2n`` ``S`` has ``S Omega S^T = Omega``, ``Omega = I_n (x) J``, to
    ``SYMPLECTIC_TOL * max(1, max|S|)^2``: the round-off of ``S Omega S^T`` grows as ``S^2``.
    A residual that overflows is not within it."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2 or s.size == 0:
        return False
    form = (np.eye(len(s) // 2)[:, None, :, None] * J[:, None, :]).reshape(s.shape)
    scale = max(1.0, float(np.max(np.abs(s))))
    return bool(np.max(np.abs(s @ form @ s.T - form)) / scale / scale <= SYMPLECTIC_TOL)


def assert_symplectic(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if not is_symplectic(s):
        raise ValueError(f"matrix is not symplectic at relative tolerance {SYMPLECTIC_TOL:g}")
    return s


def assert_passive(o, dim: int) -> np.ndarray:
    """``o`` as a ``dim x dim`` orthogonal symplectic matrix; a wrong shape is a ``ValueError``."""
    o = np.asarray(o, dtype=float)
    if o.shape != (dim, dim):
        raise ValueError(f"passive matrix must be {dim}x{dim}, got {o.shape}")
    if np.max(np.abs(o @ o.T - np.eye(dim))) > SYMPLECTIC_TOL:
        raise NotPassiveError("matrix is not orthogonal")
    if not is_symplectic(o):
        raise NotPassiveError("matrix is not symplectic")
    return o


def apply_symplectic(s, gamma) -> np.ndarray:
    """Transform CMs, or broadcast ``(..., n, n)`` stacks, by ``gamma -> S gamma S^T``.

    Symmetry is restored explicitly so round-off cannot accumulate a skew
    part over long step sequences.
    """
    s = np.asarray(s, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    out = s @ gamma @ s.swapaxes(-1, -2)
    return (out + out.swapaxes(-1, -2)) / 2.0


def vacuum_cm() -> np.ndarray:
    """CM of the two-mode vacuum (the identity in this normalisation)."""
    return np.eye(4)


def two_mode_squeezed_cm(t: float) -> np.ndarray:
    """CM of the standard two-mode squeezed state with parameter ``r = 2 t``.

    Block form ``[[cosh(2t) I, sinh(2t) sz], [sinh(2t) sz, cosh(2t) I]]``
    with ``sz = diag(1, -1)``; ``t`` is the squeezer interaction time.
    """
    ch, sh = math.cosh(2.0 * t), math.sinh(2.0 * t)
    g = np.zeros((4, 4))
    g[:2, :2] = ch * np.eye(2)
    g[2:, 2:] = ch * np.eye(2)
    g[:2, 2:] = sh * SIGMA_Z
    g[2:, :2] = sh * SIGMA_Z
    return g


def squeezed_product_cm(r1: float, r2: float) -> np.ndarray:
    """Product of two single-mode squeezed states, ``diag(e^-r1, e^r1, e^-r2, e^r2)``.

    Mode ``k`` has squeezing ``e^{r_k}`` (smallest CM eigenvalue ``e^{-r_k}``).
    """
    return np.diag([math.exp(-r1), math.exp(r1), math.exp(-r2), math.exp(r2)])


def det2(m) -> np.ndarray:
    """Closed-form determinants of a stack of 2x2 matrices, shape ``(..., 2, 2)``."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


#: ``det A + det B + 2 det C`` less the slack ``1e-9 (det A + det B)`` from the flat blocks.
_DELTA_WEIGHTS = np.array([1.0 - 1e-9, 1.0, 1.0, 1.0 - 1e-9])


class CMStack(NamedTuple):
    """Symmetrised ``(N, 4, 4)`` CMs, ascending spectra, dets and block dets ``[[A, C], [C^T, B]]``."""

    cms: np.ndarray
    eigenvalues: np.ndarray
    dets: np.ndarray
    blocks: np.ndarray


def valid_cm_stack(cms, pure: bool = False) -> CMStack:
    """Validate an ``(N, 4, 4)`` stack (or one 4x4 CM) in one vectorised pass.

    Checks finiteness, symmetry to 1e-10 times each matrix's largest entry
    (at least 1), positive definiteness, ``det >= 1``, the uncertainty principle
    ``det A + det B + 2 det C <= 1 + det`` to 1e-9 (det A + det B) (Serafini et al.,
    J. Phys. B 37, L21 (2004)) and, with ``pure``, ``|det - 1| <= PURITY_TOL``
    (:class:`NotPureError` naming the first impure det; else ``ValueError``).
    A :class:`CMStack` is the validated state, with read-only arrays, and this is its only
    producer: one is returned as it is, after the purity test from its ``dets`` if ``pure``.
    """
    if isinstance(cms, CMStack):
        stack = cms
    else:
        cms = np.asarray(cms, dtype=float)
        if cms.ndim == 2:
            cms = cms[None]
        if cms.ndim != 3 or cms.shape[1:] != (4, 4):
            raise ValueError(f"covariance matrices must be 4x4, got {cms.shape[1:]}")
        if not np.isfinite(cms).all():
            raise ValueError("covariance matrix must be finite")
        transposed = cms.transpose(0, 2, 1)
        scale = np.maximum(np.abs(cms).max(axis=(1, 2)), 1.0)
        if (np.abs(cms - transposed).max(axis=(1, 2)) > 1e-10 * scale).any():
            raise ValueError("covariance matrix is not symmetric")
        cms = (cms + transposed) / 2.0
        eigenvalues = np.linalg.eigvalsh(cms)
        if (eigenvalues[:, 0] <= 0.0).any():
            raise ValueError("covariance matrix is not positive definite")
        dets = np.linalg.det(cms)
        if (dets < 1.0 - 1e-9).any():
            raise ValueError("covariance matrix violates det >= 1")
        blocks = det2(cms.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4))
        if (blocks.reshape(-1, 4) @ _DELTA_WEIGHTS > 1.0 + dets).any():
            raise ValueError("covariance matrix violates the uncertainty principle")
        cms.flags.writeable = eigenvalues.flags.writeable = dets.flags.writeable = blocks.flags.writeable = False
        stack = CMStack(cms, eigenvalues, dets, blocks)
    if pure and (impure := np.abs(stack.dets - 1.0) > PURITY_TOL).any():
        raise NotPureError("state is not pure: det(gamma) = %.12g" % stack.dets[np.argmax(impure)])
    return stack


def _one_cm(gamma, pure: bool = False) -> CMStack:
    """:func:`valid_cm_stack` of one 4x4 CM or one-CM stack, for the scalar queries: more are refused."""
    stacked = isinstance(gamma, CMStack)
    if (shape := np.shape(gamma.cms if stacked else gamma)) != ((1, 4, 4) if stacked else (4, 4)):
        raise ValueError(f"covariance matrix must be 4x4, got {shape}")
    return valid_cm_stack(gamma, pure)


def assert_valid_cm(gamma) -> np.ndarray:
    """One CM checked as :func:`valid_cm_stack` checks it, returned symmetrised."""
    return _one_cm(gamma).cms[0]


def matrix_to_list(m) -> list[float]:
    """Row-major flattening used by the JSON encodings of 4x4 matrices."""
    return [float(x) for x in np.asarray(m, dtype=float).reshape(-1)]


def matrix_from_list(values) -> np.ndarray:
    """Inverse of :func:`matrix_to_list`: a list of 16 row-major numbers as a 4x4 matrix."""
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"matrix must be a list of 16 numbers, not {type(values).__name__}")
    if len(values) != 16:
        raise ValueError(f"expected 16 entries, got {len(values)}")
    return _json_numbers("matrix", [values], range(16)).reshape(4, 4)


# ---------------------------------------------------------------------------
# Pure-state standard form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PureStateStandardForm:
    """Factorisation of a pure two-mode CM into local parts and one parameter.

    ``gamma = (S1 (+) S2) G(r) (S1 (+) S2)^T`` where
    ``G(r) = [[cosh(r) I, sinh(r) sz], [sinh(r) sz, cosh(r) I]]`` and the
    ``S_k`` are single-mode symplectic matrices.  The parameter ``r >= 0``
    carries all the entanglement of the state; the ``S_k`` carry the local
    squeezing.  ``is_product`` marks product states, ``r < PRODUCT_R``
    (:func:`_is_product`), for which the ``S_k`` are taken as defined only up to
    right rotations and the returned choice diagonalises ``S1^T S1`` with
    ascending and ``S2^T S2`` with descending eigenvalues (the orientation that
    maximises the local squeezing parameter).
    """

    S1: np.ndarray
    S2: np.ndarray
    r: float
    is_product: bool

    def assemble(self) -> np.ndarray:
        s = np.zeros((4, 4))
        s[:2, :2] = self.S1
        s[2:, 2:] = self.S2
        return apply_symplectic(s, two_mode_squeezed_cm(self.r / 2.0))


def _pure_r(det_c) -> np.ndarray:
    """Standard-form ``r`` of pure CMs from ``sinh(r)^2 = -det C``, which keeps every
    digit near product states, unlike inverting ``cosh(r)^2 = det A``."""
    return np.arcsinh(np.sqrt(np.maximum(-det_c, 0.0)))


#: Standard-form ``r`` below which a pure CM is a product state.  On states that round-off brought near a
#: product, the entangled branch's ``l`` errs by up to 8e-15 / r unsqueezed and 3e-13 / r at local squeezing
#: ``e^2``: more than the product branch's O(r) below r = 9e-8 and 5.7e-7.  The first flip node at
#: ``dt = 1e-5`` from a product state has r = 7e-6.
PRODUCT_R = 1e-7
_PRODUCT_SINH2 = math.sinh(PRODUCT_R) ** 2


def _is_product(det_c):
    """The one product rule for pure CMs: ``r = _pure_r(det_c) < PRODUCT_R``, read as ``-det C < sinh^2``."""
    return -det_c < _PRODUCT_SINH2


def pure_standard_form(gamma) -> PureStateStandardForm:
    """Compute the pure-state standard form of a two-mode CM.

    The local factors are built as ``S_k = O_k D_k O_k'``: ``O_k``
    diagonalises the reduced block (``A`` or ``B``), ``D_k`` holds the local
    squeezing read off the eigenvalue ratio, and the inner rotations come
    from the restricted SVD of ``D1^-1 O1^T C O2 D2^-1``.  ``r`` comes from
    ``sinh(r) = sqrt(-det C)`` (:func:`_pure_r`); ``A`` and ``B`` are scaled
    by ``cosh(r) = sqrt(det A)``.

    Raises
    ------
    NotPureError
        If ``det(gamma)`` deviates from 1 by more than ``PURITY_TOL``.
    """
    stack = _one_cm(gamma, pure=True)
    gamma, (det_a, det_c) = stack.cms[0], stack.blocks[0, 0]
    a, b, c = gamma[:2, :2], gamma[2:, 2:], gamma[:2, 2:]

    cosh_r = math.sqrt(max(float(det_a), 1.0))
    product = bool(_is_product(det_c))

    # R(theta_k) diagonalises A and B with descending eigenvalues (w1_k, w2_k).
    theta, w1, w2, _ = _rsvd_angles(np.stack([a, b]) / (1.0 if product else cosh_r))
    o1, o2 = rotation(theta)
    d1, d2 = np.sqrt(np.maximum(np.stack([w1, w2], axis=1), 1e-300))
    if product:
        # S_k only enter through S_k S_k^T = A (resp. B); fix the rotation
        # freedom by the canonical orientation described in the class docstring.
        s1, s2 = o1 @ np.diag(d1) @ J, o2 @ np.diag(d2)
    else:
        inner1, _, _, inner2 = _rsvd_angles((o1.T @ c @ o2) / np.outer(d1, d2))
        r1, r2 = rotation(np.array([inner1, -inner2]))
        s1, s2 = o1 @ np.diag(d1) @ r1, o2 @ np.diag(d2) @ r2
    return PureStateStandardForm(S1=s1, S2=s2, r=float(_pure_r(det_c)), is_product=product)
