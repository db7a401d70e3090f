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
which is hyperbolic for ``alpha > 0``, trigonometric for ``alpha < 0`` and
linear in the degenerate limit ``alpha -> 0``.

All operations here are pure functions over immutable inputs; nothing keeps
shared mutable state, so everything is safe to call concurrently.
"""

from __future__ import annotations

import math
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
    "vacuum_cm",
    "two_mode_squeezed_cm",
    "squeezed_product_cm",
    "cm_blocks",
    "det2",
    "CMStack",
    "valid_cm_stack",
    "assert_valid_cm",
    "is_pure",
    "assert_pure",
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
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])

#: Position-position coupling ``X1 X2`` (the natural atom-light interaction).
H0 = np.array([[1.0, 0.0], [0.0, 0.0]])

#: Beam-splitter coupling ``X1 P2 - P1 X2``.
HBS = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: Two-mode squeezing coupling ``X1 X2 - P1 P2``.
HTMS = np.array([[1.0, 0.0], [0.0, -1.0]])

#: Relative tolerance below which ``|det K|`` counts as zero in ``evolve``.
_ALPHA_TOL = 1e-12

#: Allowed deviation of ``det(gamma)`` from 1 for a CM to count as pure.
PURITY_TOL = 1e-9

#: Cross-block norm below which a pure CM counts as a product state.
PRODUCT_TOL = 1e-10

#: Gap below which the two smallest CM eigenvalues count as degenerate.
DEGENERACY_TOL = 1e-10


class NotPureError(ValueError):
    """Raised when an operation that needs a pure state receives a mixed CM."""


# ---------------------------------------------------------------------------
# Coupling matrices
# ---------------------------------------------------------------------------


def kmatrix(a: float = 0.0, b: float = 0.0, c: float = 0.0, d: float = 0.0) -> np.ndarray:
    """Build the coupling matrix ``[[a, d], [c, b]]`` from scalar coefficients.

    The coefficients multiply ``X1 X2``, ``P1 P2``, ``P1 X2`` and ``X1 P2``
    respectively.
    """
    k = np.array([[a, d], [c, b]], dtype=float)
    if not np.all(np.isfinite(k)):
        raise ValueError("coupling coefficients must be finite")
    return k


def k_to_dict(k: np.ndarray) -> dict:
    """Serialise a coupling matrix to ``{"a":, "b":, "c":, "d":}``."""
    k = _as_k(k)
    return {"a": float(k[0, 0]), "b": float(k[1, 1]), "c": float(k[1, 0]), "d": float(k[0, 1])}


def k_from_dict(data: dict) -> np.ndarray:
    """Inverse of :func:`k_to_dict`."""
    return kmatrix(a=data["a"], b=data["b"], c=data["c"], d=data["d"])


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


def rotation(phi: float) -> np.ndarray:
    """SO(2) rotation ``[[cos, -sin], [sin, cos]]`` acting on one mode."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class LocalRotationPair:
    """Instantaneous phase-space rotations ``R(phi1) (+) R(phi2)`` of both modes.

    Applying the pair to a CM means ``gamma -> R gamma R^T`` with
    ``R = R(phi1) (+) R(phi2)``.
    """

    phi1: float = 0.0
    phi2: float = 0.0

    @property
    def block1(self) -> np.ndarray:
        return rotation(self.phi1)

    @property
    def block2(self) -> np.ndarray:
        return rotation(self.phi2)

    @property
    def matrix(self) -> np.ndarray:
        m = np.zeros((4, 4))
        m[:2, :2] = self.block1
        m[2:, 2:] = self.block2
        return m

    def inverse(self) -> "LocalRotationPair":
        return LocalRotationPair(-self.phi1, -self.phi2)

    def compose(self, other: "LocalRotationPair") -> "LocalRotationPair":
        """Pair equivalent to applying ``other`` first, then ``self``."""
        return LocalRotationPair(self.phi1 + other.phi1, self.phi2 + other.phi2)

    @staticmethod
    def from_matrices(r1: np.ndarray, r2: np.ndarray) -> "LocalRotationPair":
        """Recover angles from two SO(2) matrices."""
        return LocalRotationPair(
            math.atan2(r1[1, 0], r1[0, 0]), math.atan2(r2[1, 0], r2[0, 0])
        )


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


def restricted_svd(k) -> RestrictedSVD:
    """Decompose ``K = R diag(s1, s2) S`` with both factors special orthogonal.

    Determinant-(-1) factors of the ordinary SVD are folded into the sign of
    the second singular value.  For (numerically) equal singular values the
    factorisation is not unique; the left factor is then fixed to the
    identity, which makes presets such as ``K = I -> (I, (1, 1), I)``
    deterministic.
    """
    k = _as_k(k)
    u, sig, vt = np.linalg.svd(k)
    s1 = float(sig[0])

    if s1 <= 1e-300:
        return RestrictedSVD(np.eye(2), RestrictedSingularValues(0.0, 0.0), np.eye(2))
    if sig[0] - sig[1] <= 1e-12 * s1:
        # Degenerate spectrum: K is s1 times an orthogonal matrix.
        sign = 1.0 if np.linalg.det(k) >= 0 else -1.0
        s = np.diag([1.0 / s1, sign / s1]) @ k
        return RestrictedSVD(np.eye(2), RestrictedSingularValues(s1, sign * s1), s)

    du = float(np.sign(np.linalg.det(u)))
    dv = float(np.sign(np.linalg.det(vt)))
    r = u @ np.diag([1.0, du])
    s = np.diag([1.0, dv]) @ vt
    s2 = du * dv * float(sig[1])
    return RestrictedSVD(r, RestrictedSingularValues(s1, s2), s)


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


def generator(k) -> Generator:
    """Build the 4x4 phase-space generator of the coupling ``K``."""
    k = _as_k(k)
    l = J.T @ k
    lt = J.T @ k.T
    m = np.zeros((4, 4))
    m[:2, 2:] = l
    m[2:, :2] = lt
    return Generator(M=m, L=l, L_tilde=lt, alpha=-float(np.linalg.det(l)))


def _cosh_sinc(alpha: float, t):
    """Return ``(cosh(w t), sinh(w t)/w)`` for ``w = sqrt(alpha)``, ``t`` scalar or array.

    Both branches of the square root and the removable singularity at
    ``alpha = 0`` are handled; the degenerate branch uses a short Taylor
    expansion so the crossover at ``|alpha| ~ 1e-12`` is seamless.
    """
    if alpha > _ALPHA_TOL:
        w = math.sqrt(alpha)
        return np.cosh(w * t), np.sinh(w * t) / w
    if alpha < -_ALPHA_TOL:
        w = math.sqrt(-alpha)
        return np.cos(w * t), np.sin(w * t) / w
    x = alpha * t * t
    c = 1.0 + x / 2.0 + x * x / 24.0
    s = t * (1.0 + x / 6.0 + x * x / 120.0)
    return c, s


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


def is_symplectic(s, tol: float = 1e-10) -> bool:
    """Whether ``S J2 S^T = J2`` holds to the given tolerance."""
    s = np.asarray(s, dtype=float)
    if s.shape != (4, 4):
        return False
    return bool(np.max(np.abs(s @ J2 @ s.T - J2)) <= tol)


def assert_symplectic(s, tol: float = 1e-10) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if not is_symplectic(s, tol):
        raise ValueError("matrix is not symplectic at tolerance %g" % tol)
    return s


def apply_symplectic(s, gamma) -> np.ndarray:
    """Transform a CM by a symplectic map: ``gamma -> S gamma S^T``.

    Symmetry is restored explicitly so round-off cannot accumulate a skew
    part over long step sequences.
    """
    s = np.asarray(s, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    out = s @ gamma @ s.T
    return (out + out.T) / 2.0


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


def cm_blocks(gamma) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a two-mode CM into blocks ``(A, B, C)`` of ``[[A, C], [C^T, B]]``."""
    gamma = np.asarray(gamma, dtype=float)
    return gamma[:2, :2], gamma[2:, 2:], gamma[:2, 2:]


def det2(m) -> np.ndarray:
    """Closed-form determinants of a stack of 2x2 matrices, shape ``(..., 2, 2)``."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


class CMStack(NamedTuple):
    """Symmetrised ``(N, 4, 4)`` CMs with ascending spectra and determinants."""

    cms: np.ndarray
    eigenvalues: np.ndarray
    dets: np.ndarray


def valid_cm_stack(cms, tol: float = 1e-10, pure: bool = False) -> CMStack:
    """Validate an ``(N, 4, 4)`` stack (or one 4x4 CM) in one vectorised pass.

    Checks finiteness, symmetry to ``tol`` times each matrix's largest entry
    (at least 1), positive definiteness, ``det >= 1`` and, with ``pure``,
    ``|det - 1| <= PURITY_TOL`` (:class:`NotPureError`; else ``ValueError``).
    """
    cms = np.asarray(cms, dtype=float)
    if cms.ndim == 2:
        cms = cms[None]
    if cms.ndim != 3 or cms.shape[1:] != (4, 4):
        raise ValueError(f"covariance matrices must be 4x4, got {cms.shape[1:]}")
    if not np.isfinite(cms).all():
        raise ValueError("covariance matrix must be finite")
    transposed = cms.transpose(0, 2, 1)
    scale = np.maximum(np.abs(cms).max(axis=(1, 2)), 1.0)
    if (np.abs(cms - transposed).max(axis=(1, 2)) > tol * scale).any():
        raise ValueError("covariance matrix is not symmetric")
    cms = (cms + transposed) / 2.0
    eigenvalues = np.linalg.eigvalsh(cms)
    if (eigenvalues[:, 0] <= 0.0).any():
        raise ValueError("covariance matrix is not positive definite")
    dets = np.linalg.det(cms)
    if (dets < 1.0 - 1e-9).any():
        raise ValueError("covariance matrix violates det >= 1")
    if pure:
        assert_pure(cms)
    return CMStack(cms, eigenvalues, dets)


def assert_valid_cm(gamma, tol: float = 1e-10) -> np.ndarray:
    """Validate symmetry, positive definiteness and ``det(gamma) >= 1``."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (4, 4):
        raise ValueError(f"covariance matrix must be 4x4, got {gamma.shape}")
    return valid_cm_stack(gamma, tol).cms[0]


def is_pure(gamma, tol: float = PURITY_TOL) -> bool:
    """Whether ``det(gamma)`` equals 1 within ``tol`` (purity of the state)."""
    return bool(abs(np.linalg.det(np.asarray(gamma, dtype=float)) - 1.0) <= tol)


def assert_pure(gamma, tol: float = PURITY_TOL) -> np.ndarray:
    """Raise :class:`NotPureError` unless every CM (one, or a stack) has ``det = 1``."""
    gamma = np.asarray(gamma, dtype=float)
    dets = np.atleast_1d(np.linalg.det(gamma))
    bad = np.abs(dets - 1.0) > tol
    if bad.any():
        raise NotPureError("state is not pure: det(gamma) = %.12g" % dets[np.argmax(bad)])
    return gamma


def matrix_to_list(m) -> list[float]:
    """Row-major flattening used by the JSON encodings of 4x4 matrices."""
    return [float(x) for x in np.asarray(m, dtype=float).reshape(-1)]


def matrix_from_list(values, size: int = 4) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.size != size * size:
        raise ValueError(f"expected {size * size} entries, got {values.size}")
    return values.reshape(size, size)


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
    squeezing.  ``is_product`` marks states with vanishing cross block, for
    which the ``S_k`` are only defined up to right rotations and the returned
    choice diagonalises ``S1^T S1`` with ascending and ``S2^T S2`` with
    descending eigenvalues (the orientation that maximises the local
    squeezing parameter).
    """

    S1: np.ndarray
    S2: np.ndarray
    r: float
    is_product: bool

    def assemble(self) -> np.ndarray:
        mid = two_mode_squeezed_cm(self.r / 2.0)
        s = np.zeros((4, 4))
        s[:2, :2] = self.S1
        s[2:, 2:] = self.S2
        out = s @ mid @ s.T
        return (out + out.T) / 2.0


def _rotation_diagonalising(p: np.ndarray, descending: bool) -> tuple[np.ndarray, np.ndarray]:
    """Rotation ``O`` and eigenvalues ``w`` with ``p = O diag(w) O^T``.

    ``numpy.linalg.eigh`` returns ascending eigenvalues; the column order is
    flipped on request and the determinant fixed to +1.
    """
    w, v = np.linalg.eigh((p + p.T) / 2.0)
    if descending:
        w = w[::-1]
        v = v[:, ::-1]
    if np.linalg.det(v) < 0:
        v = v.copy()
        v[:, 1] = -v[:, 1]
    return v, w


def pure_standard_form(gamma, tol: float = PURITY_TOL) -> PureStateStandardForm:
    """Compute the pure-state standard form of a two-mode CM.

    The local factors are built as ``S_k = O_k D_k O_k'``: ``O_k``
    diagonalises the reduced block (``A`` or ``B``), ``D_k`` holds the local
    squeezing read off the eigenvalue ratio, and the inner rotations come
    from the SVD of ``D1^-1 O1^T C O2 D2^-1``.  ``cosh(r)`` is
    ``sqrt(det A)``.

    Raises
    ------
    NotPureError
        If ``det(gamma)`` deviates from 1 by more than ``tol``.
    """
    gamma = assert_valid_cm(gamma)
    assert_pure(gamma, tol)
    a, b, c = cm_blocks(gamma)

    cosh_r = math.sqrt(max(float(np.linalg.det(a)), 1.0))
    r = math.acosh(cosh_r)
    product = bool(np.max(np.abs(c)) <= PRODUCT_TOL)

    if product:
        # S_k only enter through S_k S_k^T = A (resp. B); fix the rotation
        # freedom by the canonical orientation described in the class docstring.
        o1, w1 = _rotation_diagonalising(a, descending=True)
        o2, w2 = _rotation_diagonalising(b, descending=True)
        d1 = np.diag(np.sqrt(np.maximum(w1, 1e-300)))
        d2 = np.diag(np.sqrt(np.maximum(w2, 1e-300)))
        return PureStateStandardForm(S1=o1 @ d1 @ J, S2=o2 @ d2, r=0.0, is_product=True)

    o1, w1 = _rotation_diagonalising(a / cosh_r, descending=True)
    o2, w2 = _rotation_diagonalising(b / cosh_r, descending=True)
    d1 = np.sqrt(np.maximum(w1, 1e-300))
    d2 = np.sqrt(np.maximum(w2, 1e-300))
    z = np.diag(1.0 / d1) @ o1.T @ c @ o2 @ np.diag(1.0 / d2)
    o1p, _, o2pt = restricted_svd(z)
    s1 = o1 @ np.diag(d1) @ o1p
    s2 = o2 @ np.diag(d2) @ o2pt.T
    return PureStateStandardForm(S1=s1, S2=s2, r=r, is_product=False)
