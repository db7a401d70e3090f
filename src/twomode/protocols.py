"""Finite-time strategies: protocol execution, flip strategy, greedy rate
following, upper bounds, ancilla extensions and Gaussian measurements.

A protocol alternates instantaneous local rotations with windows of the
native coupling.  Running one from a pure state, one CM, produces a trajectory:
an ``(N, 4, 4)`` stack of covariance matrices.  :func:`run_protocol` forms only
the final node at once, and the trajectory's ``cms`` property the stack on its
first read.  For every strategy the per-node quantifiers (entanglement,
negativity, squeezing, instantaneous optimal rate) come on request from one
validated pass of :func:`~twomode.measures.report_columns`, so long runs stay
cheap when only the final state matters.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import (
    J,
    LocalRotationPair,
    NotPassiveError,
    _as_k,
    _flow_l,
    _one_cm,
    _pair_matrix,
    _rsvd_angles,
    _wrap,
    apply_symplectic,
    assert_passive,
    assert_valid_cm,
    evolve,
    pure_standard_form,
)
from .measures import report_columns
from .rates import _rate_kernel, squeezing_capability
from .simulate import _MAX_NODES, Protocol

__all__ = [
    "NotPassiveError",
    "SingularBlockError",
    "Trajectory",
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

#: Largest exponent whose ``math.exp`` is a finite float.
_LOG_MAX = math.log(np.finfo(float).max)

_FLIP = LocalRotationPair(math.pi / 2.0, 3.0 * math.pi / 2.0)

CSV_HEADER = "t,E0,negativity,S,Q,rate"

#: Largest condition number of a measured ancilla block.
_COND_LIMIT = 1e12

#: Nodes in the first scanned chunk of a stretch; each later chunk doubles.
_FIRST_CHUNK = 16

#: A pre-rotation pair ``R(phi1) (+) R(phi2)`` is ``+-I``, and leaves every CM as
#: it is, when ``(phi1 + phi2) / 2`` and ``(phi1 - phi2) / 2`` are whole multiples
#: of pi: both angles 0 or both pi.  ``|sin|`` of the two, summed, may be this large.
_COAST_TOL = 1e-12
_HALF_SUM_DIFF = np.array([[0.5, 0.5], [0.5, -0.5]])


class SingularBlockError(ValueError):
    """Measured block of an extended CM is numerically singular."""


def write_text_atomic(path, text: str) -> None:
    """Atomic write: temp file in the target directory, then rename.  ``path`` gets the mode
    ``open(path, "w")`` would leave it, and an ``OSError`` names ``path``, not the temp file."""
    tmp = None
    try:
        name = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the kernel applies the umask
        tmp = name
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if os.path.exists(path):
                os.fchmod(fd, os.stat(path).st_mode & 0o777)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def csv_text(header: str, columns) -> str:
    """CSV text: the header line, then one row of shortest round-trip floats per node."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n"


class Trajectory:
    """Time-ordered covariance matrices produced by a strategy.

    ``cms`` is an ``(N, 4, 4)`` array, a property without a setter; :meth:`columns`
    reports it, rate included.  :func:`run_protocol` forms its last node, ``final``,
    at once and the others on the first read of ``cms``; ``final`` and ``len()``
    never form them.
    ``lock_stretches`` holds the greedy walk's ``(first node, last node)`` pairs
    of the stretches held in its lock band, and is None for every other strategy.
    """

    def __init__(self, times, cms, native_k, lock_stretches: list[tuple[int, int]] | None = None):
        self.times, self._cms, self.native_k, self.lock_stretches = times, cms, native_k, lock_stretches

    @property
    def cms(self) -> np.ndarray:
        if isinstance(self._cms, _Pending):
            self._cms = self._cms.form()
        return self._cms

    def __len__(self) -> int:
        return len(self._cms)

    @property
    def final(self) -> np.ndarray:
        return self._cms.final if isinstance(self._cms, _Pending) else self._cms[-1]

    def columns(self) -> dict[str, np.ndarray]:
        """Report columns ``t, E0, negativity, S, Q, rate`` over all nodes."""
        times = np.asarray(self.times, dtype=float)
        if len(times) != len(self.cms):
            raise ValueError(f"trajectory has {len(times)} times but {len(self.cms)} CMs")
        return {"t": times, **report_columns(self.cms, self.native_k)}

    def reports(self) -> list[dict]:
        """Per-node quantifiers: t, E0, negativity, S, Q and rate."""
        cols = self.columns()
        return [dict(zip(cols, row)) for row in zip(*(c.tolist() for c in cols.values()))]

    def csv_text(self) -> str:
        """The report rows as ``t,E0,negativity,S,Q,rate`` CSV text."""
        cols = self.columns()
        return csv_text(CSV_HEADER, [cols[key] for key in CSV_HEADER.split(",")])

    def to_csv(self, path) -> None:
        """Write the report rows as ``t,E0,negativity,S,Q,rate`` CSV, atomically."""
        write_text_atomic(path, self.csv_text())


def _carry_pass(table: np.ndarray, index, gamma0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(blocks, carries)``, the first pass of :func:`_prefix_scan`.

    ``blocks`` is the ``(ceil(n / w), w, 4, 4)`` buffer of the prefixes inside
    every chunk, gathered behind an identity and padded with identities; ``carries[c]`` is the factor
    ``P F`` that enters chunk ``c``, ``F`` the Cholesky factor of ``gamma0``.
    """
    n = len(index) + 1
    w = math.isqrt(n)
    cms = np.empty((-(-n // w) * w, 4, 4))
    cms[0] = cms[n:] = np.eye(4)
    np.take(table, index, axis=0, out=cms[1:n], mode="clip")
    blocks = cms.reshape(-1, w, 4, 4)
    for j in range(1, w):
        np.matmul(blocks[:, j], blocks[:, j - 1], out=blocks[:, j])
    carries = np.empty((len(blocks), 1, 4, 4))
    carries[0] = np.linalg.cholesky(gamma0)
    for c in range(1, len(blocks)):
        np.matmul(blocks[c - 1, -1:], carries[c - 1], out=carries[c])
    return blocks, carries


def _gram(factors: np.ndarray, out=None) -> np.ndarray:
    """The Gram products ``X X^T`` of a stack of factors, exactly symmetric."""
    return np.matmul(factors, np.ascontiguousarray(factors.transpose(0, 2, 1)), out=out)


def _gram_pass(blocks: np.ndarray, carries: np.ndarray, n: int, gamma0: np.ndarray) -> np.ndarray:
    """The second pass of :func:`_prefix_scan`: every chunk's Gram products, in place; node 0 is ``gamma0``."""
    for block, carry in zip(blocks, carries):
        _gram(block @ carry, out=block)
    cms = blocks.reshape(-1, 4, 4)
    cms[0] = gamma0
    return cms[:n]


def _prefix_scan(table: np.ndarray, index, gamma0: np.ndarray) -> np.ndarray:
    """CMs ``P_i gamma0 P_i^T`` for ``i = 0 .. len(index)``, ``P_i = table[index[i-1]] ... table[index[0]]``.

    ``table`` holds step matrices, and ``index`` must point into it: the
    gather is not bounds-checked, since a checked one into ``out`` buffers a
    copy of the whole stack.  The scan carries factors, not CMs: node ``i``
    is the Gram product ``X_i X_i^T`` of ``X_i = P_i F``, with ``F`` the
    Cholesky factor of ``gamma0``; node 0 is ``gamma0`` itself.  A two-level
    scan (Blelloch, CMU-CS-90-190) in two passes.  :func:`_carry_pass`
    gathers the ``n = len(index) + 1`` step matrices (identity first) into
    ``ceil(n / w)`` chunks of ``w = isqrt(n)``, padded with the identity,
    forms the prefixes inside every chunk by ``w - 1`` matmuls stacked across
    chunks, and chains the factor entering each chunk.  :func:`_gram_pass`
    multiplies every chunk by its factor and writes the chunk's Gram products
    in place, so no second stack of ``n`` matrices is held.
    """
    return _gram_pass(*_carry_pass(table, index, gamma0), len(index) + 1, gamma0)


@dataclass
class _Pending:
    """A protocol's node stack after the carry pass: its ``final`` node is formed, the others are not."""

    blocks: np.ndarray
    carries: np.ndarray
    gamma0: np.ndarray
    n: int
    final: np.ndarray

    def __len__(self) -> int:
        return self.n

    def form(self) -> np.ndarray:
        cms = _gram_pass(self.blocks, self.carries, self.n, self.gamma0)
        cms[-1] = self.final
        return cms


def run_protocol(gamma0, protocol: Protocol) -> Trajectory:
    """Execute a protocol, recording the CM after every window.

    Node ``i`` is ``P_i gamma0 P_i^T`` with ``P_i = M_i ... M_1`` the
    product of the step matrices ``M = S(duration) R`` ("rotation, then
    flow"); the trailing ``final`` rotation is applied to the last node.
    Each distinct step, a row of the protocol's ``table``, is fused here,
    the flows of all rows from one stacked :func:`~twomode.core.evolve` and
    their rotations from one stacked ``_pair_matrix``, and the protocol's
    ``index`` drives the carry pass of the factor scan :func:`_prefix_scan`.
    The last node is the Gram product of the last chunk's factor; the
    trajectory runs the scan's Gram pass, for the other nodes, on the first
    read of its ``cms``.
    """
    k = _as_k(protocol.native_k)
    gamma0 = assert_valid_cm(gamma0)
    rows, index = protocol.table, protocol.index
    durations = np.ascontiguousarray(rows[:, 2])
    times = np.cumsum(np.concatenate([[0.0], durations[index]]))
    n = len(index) + 1
    blocks, carries = _carry_pass(evolve(k, durations) @ _pair_matrix(rows[:, :2]), index, gamma0)
    c, j = divmod(n - 1, blocks.shape[1])
    last = _gram(blocks[c, j : j + 1] @ carries[c])[0] if n > 1 else gamma0
    final = apply_symplectic(protocol.final.matrix, last)
    return Trajectory(times, _Pending(blocks, carries, gamma0, n, final), k)


def flip_effective_coupling(k) -> np.ndarray:
    """Coupling simulated by the flip strategy: ``(K + J K J) / 2``."""
    k = _as_k(k)
    return (k + J @ k @ J) / 2.0


def flip_strategy(k, t: float, steps: int) -> Protocol:
    """Alternating pi/2 / 3pi/2 rotations between equal interaction windows.

    In the many-step limit this simulates the two-mode squeezer contained in
    ``K`` at efficiency ``(s1 - s2)/2``: from the vacuum it converges (up to
    local rotations) to the two-mode squeezed state with parameter
    ``(s1 - s2) t``.  The trailing rotation undoes the accumulated flips;
    four flips make a full turn of both modes, so only ``(steps - 1) % 4``
    of them are undone and the angle loses no digits as ``steps`` grows.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps > _MAX_NODES:
        raise MemoryError(f"{steps} flip steps are too many to allocate")
    k = _as_k(k)
    dt = t / steps
    index = np.full(steps, 1, dtype=np.intp)
    index[0] = 0
    rows = [(0.0, 0.0, dt), (_FLIP.phi1, _FLIP.phi2, dt)]
    m, two_pi = (steps - 1) % 4, 2.0 * math.pi
    final = LocalRotationPair((-m * _FLIP.phi1) % two_pi, (-m * _FLIP.phi2) % two_pi)
    return Protocol(k, rows, index, final)


def _neutral_flip_base(gamma, theta_l: float, psi_l: float) -> LocalRotationPair:
    """Rotation pair starting the rate-preserving squeezer schedule.

    On the rate plateau (local squeezing parameter near zero) the optimal
    rotations are degenerate; the gauge that keeps every node of the flip
    cycle on the plateau is the canonical one, for the restricted SVD angles
    ``theta_l``, ``psi_l`` of ``L``, evaluated in the state's aligned frame,
    where the local standard-form factors are symmetric.  The frame rotations
    (the orthogonal polar parts of the factors) are undone first and folded
    into the returned pair, so the construction co-rotates with the state.
    ``pure_standard_form`` is the one check of ``gamma``.
    """
    form = pure_standard_form(gamma)
    theta, _, _, psi = _rsvd_angles(np.stack([form.S1, form.S2]))
    undo = LocalRotationPair(*(-(theta + psi)).tolist())  # polar angles theta + psi
    aligned = apply_symplectic(undo.matrix, gamma)
    phi = _rate_kernel(aligned[None], theta_l, psi_l)[3][0]
    return LocalRotationPair(*_wrap(phi).tolist()).compose(undo)


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
    applied controls; :meth:`Trajectory.columns` reports the closed-form
    optimal rate of each visited state.

    A locked stretch is a flip protocol, so it runs through
    :func:`_prefix_scan` in chunks of doubling length, each checked against
    the band with one stacked kernel call and cut at the first node that
    leaves it.  A free node costs one batch-of-one kernel call.  Once a free
    node's optimal pair is ``+-I`` (to ``_COAST_TOL``), as it stays from a
    squeezed product after the first free node, the state coasts: the next
    nodes are plain flow steps, scanned the same way and cut at the first
    node that needs a rotation or enters the band.  The trajectory's
    ``lock_stretches`` lists the first and last node of each stretch whose
    outgoing steps used the lock controls.
    """
    k = _as_k(k)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or not np.isfinite(times).all() or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a finite, strictly increasing 1-d grid")
    if lock_band is None:
        lock_band = 20.0 * float(np.max(np.diff(times))) if times.size > 1 else 0.0
    cms, last = np.empty((times.size, 4, 4)), times.size - 1
    cms[0] = _one_cm(gamma0, pure=True).cms[0]
    theta_l, _, _, psi_l = (float(x) for x in _rsvd_angles(_flow_l(k)))
    dts, slot = np.unique(np.diff(times), return_inverse=True)
    flows = evolve(k, dts)
    flips = flows @ _FLIP.matrix

    def coasting(l, phi):
        return (l > lock_band) & (np.abs(np.sin(phi @ _HALF_SUM_DIFF)).sum(axis=-1) <= _COAST_TOL)

    def stretch(table, i, inside):
        """Write the nodes after ``i`` stepped by ``table``; return the first node not ``inside``."""
        width = _FIRST_CHUNK
        while i < last:
            stop = min(i + width, last)
            nodes = _prefix_scan(table, slot[i:stop], cms[i])
            out = np.flatnonzero(~inside(*_rate_kernel(nodes[:-1], theta_l, psi_l)[2:]))
            end = stop if out.size == 0 else i + int(out[0])
            cms[i + 1 : end + 1] = nodes[1 : end - i + 1]
            i, width = end, 2 * width
            if out.size:
                break
        return i

    stretches, i = [], 0
    while i < last:
        gamma = cms[i]
        _, _, l, phi = _rate_kernel(gamma[None], theta_l, psi_l)
        if l[0] > lock_band:
            cms[i + 1] = apply_symplectic(flows[slot[i]] @ _pair_matrix(phi[0]), gamma)
            i += 1
            if coasting(l, phi)[0]:
                i = stretch(flows, i, coasting)
            continue
        start = i
        cms[i + 1] = apply_symplectic(flows[slot[i]] @ _neutral_flip_base(gamma, theta_l, psi_l).matrix, gamma)
        i = stretch(flips, i + 1, lambda l, phi: l <= lock_band)
        stretches.append((start, i - 1))
    return Trajectory(times=times, cms=cms, native_k=k, lock_stretches=stretches)


def uniform_grid(t: float, dt: float) -> np.ndarray:
    """Strictly increasing grid ``0, dt, 2 dt, ..., t`` of at least two nodes.

    The last step may be partial; nodes ``j dt`` that round to ``t`` or past it are dropped.
    """
    if not (dt > 0 and 0 < t < math.inf):
        raise ValueError("t and dt must be positive and t finite")
    steps = max(1, math.ceil(t / dt - 1e-12))
    if steps > _MAX_NODES:
        raise MemoryError(f"a grid of t / dt = {t / dt:.6g} steps is too large to allocate")
    nodes = np.arange(steps) * dt
    return np.append(nodes[nodes < t], t)


def greedy_rate_strategy(gamma0, k, t: float, dt: float = 1e-3) -> Trajectory:
    """Rate-greedy strategy on a uniform grid of step ``dt`` (final step partial)."""
    return greedy_rate_walk(gamma0, k, uniform_grid(t, dt))


def finite_time_bounds(k, t, r1: float = 0.0, r2: float = 0.0):
    """Upper bounds after interaction time ``t`` from a squeezed product.

    The initial product state has single-mode squeezings ``e^{r1} >= e^{r2}``.
    Returns ``(S_bound, N_bound)``:

    * squeezing can never exceed ``exp((s1 - s2) t + r1)``;
    * negativity can never exceed ``exp((s1 - s2) t + (r1 + r2)/2)``.

    From the vacuum (``r1 = r2 = 0``) both bounds coincide and are saturated
    by the flip strategy.  ``t`` may be a 1-d sequence of times: the bounds are
    then two lists, one entry per time, from one read of ``s1 - s2``.
    """
    times = [t] if np.ndim(t) == 0 else list(t)
    if not (r1 >= r2 >= 0.0):
        raise ValueError("bounds require r1 >= r2 >= 0")
    for x in times:
        if not x >= 0.0:
            raise ValueError(f"bounds require t >= 0, got {x}")
        if not all(map(math.isfinite, (x, r1, r2))):
            raise ValueError(f"bounds require finite t, r1 and r2, got t = {x}, r1 = {r1}, r2 = {r2}")
    cap = squeezing_capability(k)
    for x in times:
        if cap * x + r1 > _LOG_MAX:
            raise OverflowError(f"squeezing bound exp((s1 - s2) t + r1) overflows at t = {x}, r1 = {r1}")
    bounds = [(math.exp(cap * x + r1), math.exp(cap * x + (r1 + r2) / 2.0)) for x in times]
    return bounds[0] if np.ndim(t) == 0 else ([s for s, _ in bounds], [n for _, n in bounds])


# ---------------------------------------------------------------------------
# Ancillas and Gaussian measurements
# ---------------------------------------------------------------------------


def extend_with_ancillas(gamma, n_anc: int, o=None) -> np.ndarray:
    """Join vacuum ancillas and mix passively: ``gamma' = O^T (gamma (+) I) O``.

    Returns the ``(4 + 2 n_anc)``-square extended CM, the system first.  ``o``
    must be orthogonal and symplectic on ``2 + n_anc`` modes (a passive optical
    network); it defaults to the identity.  Passive mixing cannot change the
    squeezing: the spectrum of ``gamma'`` is that of ``gamma (+) I``.

    Raises
    ------
    NotPassiveError
        If ``o`` is not orthogonal and symplectic (:func:`~twomode.core.assert_passive`).
    """
    gamma = assert_valid_cm(gamma)
    if n_anc < 0:
        raise ValueError("n_anc must be >= 0")
    dim = 4 + 2 * n_anc
    o = assert_passive(np.eye(dim) if o is None else o, dim)
    big = np.eye(dim)
    big[:4, :4] = gamma
    return apply_symplectic(o.T, big)


def gaussian_measurement(ext) -> np.ndarray:
    """System CM after a complete Gaussian measurement of the ancillas of ``ext``.

    ``ext`` must be a finite matrix of side ``4 + 2n``, ``n >= 0`` (else ``ValueError``), as
    :func:`extend_with_ancillas` returns it, split ``[[A', C'], [C'^T, B']]`` after the four
    system rows.  Returns the Schur complement ``A' - C' B'^-1 C'^T`` (``A'`` if ``n = 0``).
    The outcome-independent part of any complete homodyne/heterodyne measurement of the
    ancillas has exactly this form, so measurements can never increase the squeezing of the
    remaining state.

    Raises
    ------
    SingularBlockError
        If the measured block has condition number above ``_COND_LIMIT``.
    """
    ext = np.asarray(ext, dtype=float)
    side = ext.shape[0] if ext.ndim == 2 and ext.shape[0] == ext.shape[1] else 0
    if side < 4 or side % 2 or not np.isfinite(ext).all():
        raise ValueError(f"extended CM must be a finite square matrix of side 4 + 2n, got shape {ext.shape}")
    a, b, c = ext[:4, :4], ext[4:, 4:], ext[:4, 4:]
    if side == 4:
        return a.copy()
    if np.linalg.cond(b) >= _COND_LIMIT:
        raise SingularBlockError("measured block is numerically singular")
    out = a - c @ np.linalg.solve(b, c.T)
    return (out + out.T) / 2.0
