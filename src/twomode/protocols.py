"""Finite-time strategies: protocol execution, flip strategy, greedy rate
following, attainability bounds, ancilla extensions and Gaussian measurements.

A protocol alternates instantaneous local rotations with windows of the
native coupling.  Running one from a pure state produces a trajectory: an
``(N, 4, 4)`` stack of covariance matrices.  The per-node quantifiers
(entanglement, negativity, squeezing, instantaneous optimal rate) are
computed on request, vectorised over the whole stack, so long runs stay
cheap when only the final state matters.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .core import (
    J,
    LocalRotationPair,
    _as_k,
    _rsvd_angles,
    apply_symplectic,
    assert_valid_cm,
    evolve,
    generator,
    pure_standard_form,
    restricted_svd,
    valid_cm_stack,
)
from .measures import report_columns
from .rates import (
    _local_squeezing,
    _optimal_rotations,
    _rate_column,
    _y_stack,
    optimal_entanglement_rate,
)
from .simulate import Protocol, ProtocolStep

__all__ = [
    "NotPassiveError",
    "SingularBlockError",
    "Trajectory",
    "ExtendedCM",
    "run_protocol",
    "flip_strategy",
    "flip_effective_coupling",
    "uniform_grid",
    "greedy_rate_strategy",
    "greedy_rate_walk",
    "finite_time_bounds",
    "extend_with_ancillas",
    "gaussian_measurement",
    "write_text_atomic",
]

_FLIP = LocalRotationPair(math.pi / 2.0, 3.0 * math.pi / 2.0)

CSV_HEADER = "t,E0,negativity,S,Q,rate"


class NotPassiveError(ValueError):
    """Matrix fails to be orthogonal and symplectic at the required tolerance."""


class SingularBlockError(ValueError):
    """Measured block of an extended CM is numerically singular."""


def write_text_atomic(path, text: str) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class Trajectory:
    """Time-ordered covariance matrices produced by a strategy.

    ``cms`` is an ``(N, 4, 4)`` array.  ``rates`` holds the instantaneous
    optimal entanglement rate of the state at each node (the rate available
    to a rate-greedy continuation); it is filled by the greedy strategy and
    computed on request otherwise.
    """

    times: np.ndarray
    cms: np.ndarray
    native_k: np.ndarray
    rates: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.cms)

    @property
    def final(self) -> np.ndarray:
        return self.cms[-1]

    def columns(self) -> dict[str, np.ndarray]:
        """Report columns ``t, E0, negativity, S, Q, rate`` over all nodes."""
        cols = report_columns(self.cms, self.native_k, self.rates)
        return {"t": np.asarray(self.times, dtype=float), **cols}

    def reports(self) -> list[dict]:
        """Per-node quantifiers: t, E0, negativity, S, Q and rate."""
        cols = self.columns()
        return [dict(zip(cols, row)) for row in zip(*(c.tolist() for c in cols.values()))]

    def csv_text(self) -> str:
        """The report rows as ``t,E0,negativity,S,Q,rate`` CSV text."""
        cols = self.columns()
        rows = zip(*(cols[key].tolist() for key in CSV_HEADER.split(",")))
        return "\n".join([CSV_HEADER, *(",".join(map(repr, row)) for row in rows)]) + "\n"

    def to_csv(self, path) -> None:
        """Write the report rows as ``t,E0,negativity,S,Q,rate`` CSV, atomically."""
        write_text_atomic(path, self.csv_text())


def run_protocol(gamma0, protocol: Protocol) -> Trajectory:
    """Execute a protocol step by step, recording the CM after every window.

    Each distinct step is fused once into the matrix "rotation, then flow".
    """
    k = _as_k(protocol.native_k)
    cms = np.empty((len(protocol.steps) + 1, 4, 4))
    cms[0] = gamma = assert_valid_cm(gamma0)
    fused: dict[tuple[float, float, float], np.ndarray] = {}
    for i, step in enumerate(protocol.steps, start=1):
        key = (step.rotation.phi1, step.rotation.phi2, step.duration)
        if key not in fused:
            fused[key] = evolve(k, step.duration) @ step.rotation.matrix
        cms[i] = gamma = apply_symplectic(fused[key], gamma)
    cms[-1] = apply_symplectic(protocol.final.matrix, cms[-1])
    return Trajectory(np.cumsum([0.0, *(step.duration for step in protocol.steps)]), cms, k)


def flip_effective_coupling(k) -> np.ndarray:
    """Coupling simulated by the flip strategy: ``(K + J K J) / 2``."""
    k = _as_k(k)
    return (k + J @ k @ J) / 2.0


def flip_strategy(k, t: float, steps: int) -> Protocol:
    """Alternating pi/2 / 3pi/2 rotations between equal interaction windows.

    In the many-step limit this simulates the two-mode squeezer contained in
    ``K`` at efficiency ``(s1 - s2)/2``: from the vacuum it converges (up to
    local rotations) to the two-mode squeezed state with parameter
    ``(s1 - s2) t``.  The trailing rotation undoes the accumulated flips.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    k = _as_k(k)
    dt = t / steps
    schedule = (ProtocolStep(LocalRotationPair(), dt),) + (ProtocolStep(_FLIP, dt),) * (steps - 1)
    two_pi = 2.0 * math.pi
    final = LocalRotationPair(
        (-(steps - 1) * _FLIP.phi1) % two_pi, (-(steps - 1) * _FLIP.phi2) % two_pi
    )
    return Protocol(k, schedule, final)


def _neutral_flip_base(gamma, k) -> LocalRotationPair:
    """Rotation pair starting the rate-preserving squeezer schedule.

    On the rate plateau (local squeezing parameter near zero) the optimal
    rotations are degenerate; the gauge that keeps every node of the flip
    cycle on the plateau is the canonical one evaluated in the state's
    aligned frame, where the local standard-form factors are symmetric.  The
    frame rotations (the orthogonal polar parts of the factors) are undone
    first and folded into the returned pair, so the construction co-rotates
    with the state.
    """
    form = pure_standard_form(gamma)
    theta, _, _, psi = _rsvd_angles(np.stack([form.S1, form.S2]))
    undo = LocalRotationPair(*(-(theta + psi)).tolist())  # polar angles theta + psi
    aligned = apply_symplectic(undo.matrix, gamma)
    return optimal_entanglement_rate(aligned, k).rotations.compose(undo)


def greedy_rate_walk(gamma0, k, times, lock_band: float | None = None) -> Trajectory:
    """Rate-greedy strategy over an arbitrary strictly increasing time grid.

    At every node the optimal pre-rotations for the current state are applied
    before the next interaction window.  States whose local squeezing
    parameter sits below ``lock_band`` are indistinguishable (at the given
    step size) from the rate-plateau manifold ``l = 0``; there the optimal
    rotations are degenerate, and chasing the discretisation noise would
    ratchet the trajectory off the plateau.  Inside the band the walk
    therefore keeps simulating the plateau-preserving two-mode squeezer: it
    applies the neutral base pair once and continues with the alternating
    quarter-turn pattern, which holds the realised rate at the plateau
    value.  The band defaults to ``20 * max(dt)`` and only affects the
    applied controls; the reported rates stay the closed-form optimum of
    each visited state, computed while the finished walk is validated.
    """
    k = _as_k(k)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a strictly increasing 1-d grid")
    if lock_band is None:
        lock_band = 20.0 * float(np.max(np.diff(times))) if times.size > 1 else 0.0
    cms = np.empty((times.size, 4, 4))
    cms[0] = valid_cm_stack(gamma0, pure=True).cms[0]
    theta_l, _, _, psi_l = (float(x) for x in _rsvd_angles(generator(k).L))
    steps = np.diff(times).tolist()
    flows = {dt: evolve(k, dt) for dt in set(steps)}
    locked, flip = False, _FLIP.matrix
    for i, dt in enumerate(steps):
        gamma = cms[i]
        ys = _y_stack(gamma[None])
        if _local_squeezing(gamma[None], ys)[0] > lock_band:
            rotation = _optimal_rotations(gamma, ys, theta_l, psi_l).matrix
            locked = False
        elif not locked:
            rotation = _neutral_flip_base(gamma, k).matrix
            locked = True
        else:
            rotation = flip
        cms[i + 1] = apply_symplectic(flows[dt] @ rotation, gamma)
    rates = _rate_column(valid_cm_stack(cms, pure=True).cms, k)
    return Trajectory(times=times, cms=cms, native_k=k, rates=rates)


def uniform_grid(t: float, dt: float) -> np.ndarray:
    """Grid ``0, dt, 2 dt, ..., t`` of at least two nodes; the last step may be partial."""
    if not (dt > 0 and 0 < t < math.inf):
        raise ValueError("t and dt must be positive and t finite")
    n = max(1, int(math.ceil(t / dt - 1e-12)))
    return np.append(np.minimum(np.arange(n) * dt, t), t)


def greedy_rate_strategy(
    gamma0, k, t: float, dt: float = 1e-3, lock_band: float | None = None
) -> Trajectory:
    """Rate-greedy strategy on a uniform grid of step ``dt`` (final step partial)."""
    return greedy_rate_walk(gamma0, k, uniform_grid(t, dt), lock_band=lock_band)


def finite_time_bounds(k, t: float, r1: float = 0.0, r2: float = 0.0) -> tuple[float, float]:
    """Attainability bounds after interaction time ``t`` from a squeezed product.

    The initial product state has single-mode squeezings ``e^{r1} >= e^{r2}``.
    Returns ``(S_bound, N_bound)``:

    * squeezing can never exceed ``exp((s1 - s2) t + r1)``;
    * negativity can never exceed ``exp((s1 - s2) t + (r1 + r2)/2)``.

    From the vacuum (``r1 = r2 = 0``) both bounds coincide and are saturated
    by the flip strategy.
    """
    if not (r1 >= r2 >= 0.0):
        raise ValueError("bounds require r1 >= r2 >= 0")
    _, svals, _ = restricted_svd(k)
    cap = svals.s1 - svals.s2
    return math.exp(cap * t + r1), math.exp(cap * t + (r1 + r2) / 2.0)


# ---------------------------------------------------------------------------
# Ancillas and Gaussian measurements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtendedCM:
    """CM of the two system modes joined with ``n_anc`` vacuum ancillas.

    The system occupies the first four rows/columns; the blocks follow the
    usual ``[[A', C'], [C'^T, B']]`` split with ``B'`` the ancilla block.
    """

    gamma: np.ndarray
    n_anc: int

    @property
    def system(self) -> np.ndarray:
        return self.gamma[:4, :4]

    @property
    def ancilla(self) -> np.ndarray:
        return self.gamma[4:, 4:]

    @property
    def cross(self) -> np.ndarray:
        return self.gamma[:4, 4:]


def extend_with_ancillas(gamma, n_anc: int, o=None, tol: float = 1e-10) -> ExtendedCM:
    """Join vacuum ancillas and mix passively: ``gamma' = O^T (gamma (+) I) O``.

    ``o`` must be orthogonal and symplectic on ``2 + n_anc`` modes (a passive
    optical network); it defaults to the identity.  Passive mixing cannot
    change the squeezing: the spectrum of ``gamma'`` is that of
    ``gamma (+) I``.

    Raises
    ------
    NotPassiveError
        If ``o`` fails either the orthogonality or the symplectic condition
        at tolerance ``tol``.
    """
    gamma = assert_valid_cm(gamma)
    if n_anc < 0:
        raise ValueError("n_anc must be >= 0")
    dim = 4 + 2 * n_anc
    if o is None:
        o = np.eye(dim)
    o = np.asarray(o, dtype=float)
    if o.shape != (dim, dim):
        raise ValueError(f"passive matrix must be {dim}x{dim}, got {o.shape}")
    if np.max(np.abs(o @ o.T - np.eye(dim))) > tol:
        raise NotPassiveError("matrix is not orthogonal")
    form = np.kron(np.eye(2 + n_anc), J)
    if np.max(np.abs(o @ form @ o.T - form)) > tol:
        raise NotPassiveError("matrix is not symplectic")
    big = np.eye(dim)
    big[:4, :4] = gamma
    out = o.T @ big @ o
    return ExtendedCM(gamma=(out + out.T) / 2.0, n_anc=n_anc)


def gaussian_measurement(ext: ExtendedCM, cond_limit: float = 1e12) -> np.ndarray:
    """System CM after a complete Gaussian measurement of the ancilla block.

    Returns the Schur complement ``A' - C' B'^-1 C'^T``.  The outcome-
    independent part of any complete homodyne/heterodyne measurement of the
    ancillas has exactly this form, so measurements can never increase the
    squeezing of the remaining state.

    Raises
    ------
    SingularBlockError
        If the measured block has condition number above ``cond_limit``.
    """
    if ext.n_anc == 0:
        return ext.system.copy()
    b = ext.ancilla
    if np.linalg.cond(b) >= cond_limit:
        raise SingularBlockError("measured block is numerically singular")
    c = ext.cross
    out = ext.system - c @ np.linalg.solve(b, c.T)
    return (out + out.T) / 2.0
