"""Shared random generators and independent oracles for the test suite."""

import math

import numpy as np

from twomode.core import LocalRotationPair, apply_symplectic, assert_valid_cm, evolve, vacuum_cm


def random_coupling(rng, scale=1.0):
    """Random 2x2 coupling matrix with N(0, scale) entries."""
    return scale * rng.normal(size=(2, 2))


def random_rotation_pair(rng):
    phi = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return LocalRotationPair(float(phi[0]), float(phi[1]))


def random_rows(rng, durations):
    """Protocol rows ``(phi1, phi2, duration)``: one random rotation pair per duration."""
    pairs = [(random_rotation_pair(rng), float(d)) for d in durations]
    return [(pair.phi1, pair.phi2, d) for pair, d in pairs]


def reference_rotation(phi):
    """One 2x2 rotation ``[[cos, -sin], [sin, cos]]`` from ``math.cos`` and ``math.sin``."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def reference_pair_matrix(phi1, phi2):
    """One 4x4 ``R(phi1) (+) R(phi2)`` from two :func:`reference_rotation` calls."""
    m = np.zeros((4, 4))
    m[:2, :2] = reference_rotation(phi1)
    m[2:, 2:] = reference_rotation(phi2)
    return m


def random_symplectic(rng, factors=3, tmax=1.0):
    """Product of random coupling flows and local rotations."""
    s = np.eye(4)
    for _ in range(factors):
        s = evolve(random_coupling(rng), rng.uniform(-tmax, tmax)) @ s
        s = random_rotation_pair(rng).matrix @ s
    return s


def random_pure_cm(rng, factors=3, tmax=0.8):
    """Random pure two-mode CM with moderate squeezing."""
    return apply_symplectic(random_symplectic(rng, factors=factors, tmax=tmax), vacuum_cm())


def haar_unitary(n, rng):
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_passive(n_modes, rng):
    """Haar-random orthogonal symplectic matrix on ``n_modes`` modes."""
    u = haar_unitary(n_modes, rng)
    o = np.zeros((2 * n_modes, 2 * n_modes))
    for j in range(n_modes):
        for k in range(n_modes):
            o[2 * j : 2 * j + 2, 2 * k : 2 * k + 2] = [
                [u[j, k].real, -u[j, k].imag],
                [u[j, k].imag, u[j, k].real],
            ]
    return o


def reference_rsvd_angles(m):
    """``core._rsvd_angles`` as written with both ``np.where`` run on every call.

    The kernel now skips them when no entry is degenerate; its four outputs
    must stay bit-identical to this form.
    """
    m = np.asarray(m, dtype=float)
    split = np.array([[1, 1, 0, 0], [0, 0, -1, 1], [0, 0, 1, 1], [1, -1, 0, 0]], dtype=float)
    x = m.reshape(m.shape[:-2] + (4,)) @ split
    h = np.hypot(x[..., :2], x[..., 2:]) / 2.0
    angle = np.arctan2(x[..., 2:], x[..., :2])
    q, r, alpha, beta = h[..., 0], h[..., 1], angle[..., 0], angle[..., 1]
    s1 = q + r
    degenerate = np.minimum(q, r) <= 0.5e-12 * s1
    phi = alpha + beta
    wrapped = phi - 2.0 * np.pi * np.ceil(phi / (2.0 * np.pi) - 0.5)
    theta = np.where(degenerate, 0.0, wrapped / 2.0)
    psi = np.where(degenerate & (r <= q), alpha, theta - beta)
    return theta, s1, q - r, psi


def two_mode_r(gamma):
    """Two-mode squeezing parameter from the reduced determinant (oracle path)."""
    det_a = np.linalg.det(np.asarray(gamma)[:2, :2])
    return float(np.arccosh(np.sqrt(max(det_a, 1.0))))


def _rotation_stack(n_grid):
    angles = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    c, s = np.cos(angles), np.sin(angles)
    rots = np.zeros((n_grid, 2, 2))
    rots[:, 0, 0] = c
    rots[:, 0, 1] = -s
    rots[:, 1, 0] = s
    rots[:, 1, 1] = c
    return rots


def grid_entanglement_rate(gamma, k, n_grid=360, dt=1e-6):
    """Brute-force oracle: max finite-difference rate of the two-mode
    squeezing parameter over an ``n_grid x n_grid`` grid of pre-rotations.

    Independent of the closed-form optimum: uses the exact flow for a short
    step and differentiates ``r = acosh(sqrt(det A))`` numerically.
    """
    gamma = np.asarray(gamma, dtype=float)
    a = gamma[:2, :2]
    b = gamma[2:, 2:]
    c = gamma[:2, 2:]
    rots = _rotation_stack(n_grid)

    # Evolved block A(dt) = s11 A_n s11^T + X_nm + X_nm^T + s12 B_m s12^T for
    # mode-1 rotation n and mode-2 rotation m, with X_nm = s11 R_n C R_m^T s12^T.
    s = evolve(k, dt)
    p = s[:2, :2] @ rots  # (n, 2, 2): s11 R_n
    q = s[:2, 2:] @ rots  # (m, 2, 2): s12 R_m
    a_part = p @ a @ p.transpose(0, 2, 1)
    b_part = q @ b @ q.transpose(0, 2, 1)
    x = np.einsum("nij,mkj->nmik", p @ c, q, optimize=True)
    a_dt = a_part[:, None] + x + x.transpose(0, 1, 3, 2) + b_part[None, :]
    det = a_dt[..., 0, 0] * a_dt[..., 1, 1] - a_dt[..., 0, 1] * a_dt[..., 1, 0]
    r0 = np.arccosh(np.sqrt(max(np.linalg.det(a), 1.0)))
    r_dt = np.arccosh(np.sqrt(np.maximum(det, 1.0)))
    return float(np.max(r_dt - r0)) / dt


def grid_squeezing_rate(gamma, k, n_grid=720, dt=1e-6):
    """Brute-force oracle: max finite-difference rate of ``Q = -log lambda_min``
    over mode-1 pre-rotations."""
    gamma = np.asarray(gamma, dtype=float)
    rots = _rotation_stack(n_grid)
    pairs = np.tile(np.eye(4), (n_grid, 1, 1))
    pairs[:, :2, :2] = rots
    rotated = np.einsum("nij,jk,nlk->nil", pairs, gamma, pairs)
    s = evolve(k, dt)
    evolved = np.einsum("ij,njk,lk->nil", s, rotated, s)
    lam = np.linalg.eigvalsh(evolved)[:, 0]
    q0 = -np.log(np.linalg.eigvalsh(gamma)[0])
    return float(np.max(-np.log(lam) - q0)) / dt


def lapack_restricted_svd(k):
    """Oracle ``K = R diag(s1, s2) S`` from LAPACK's SVD with determinant fixes.

    Returns ``(R, (s1, s2), S)``.  Equal singular values (to 1e-12 relative)
    take ``R = I``; the zero matrix gives identities and ``(0, 0)``.
    """
    k = np.asarray(k, dtype=float)
    u, sig, vt = np.linalg.svd(k)
    s1 = float(sig[0])
    if s1 <= 1e-300:
        return np.eye(2), (0.0, 0.0), np.eye(2)
    if sig[0] - sig[1] <= 1e-12 * s1:
        sign = 1.0 if np.linalg.det(k) >= 0 else -1.0
        return np.eye(2), (s1, sign * s1), np.diag([1.0 / s1, sign / s1]) @ k
    du = float(np.sign(np.linalg.det(u)))
    dv = float(np.sign(np.linalg.det(vt)))
    return u @ np.diag([1.0, du]), (s1, du * dv * float(sig[1])), np.diag([1.0, dv]) @ vt


def reference_plan_schedule(plan, slices):
    """Per-window reference loop for ``simulate.plan_to_protocol``: ``(rows, final)``,
    one row ``(phi1, phi2, duration)`` per step."""
    terms = [row for row in plan.terms.tolist() if row[2] > 0.0]
    if not terms:
        return [], LocalRotationPair()
    rows = []
    prev = LocalRotationPair()
    for phi1, phi2, weight in terms * slices:
        quotient = LocalRotationPair(phi1, phi2).compose(LocalRotationPair(-prev.phi1, -prev.phi2))
        rows.append((quotient.phi1, quotient.phi2, weight * plan.t / slices))
        prev = LocalRotationPair(phi1, phi2)
    return rows, LocalRotationPair(-prev.phi1, -prev.phi2)


def reference_flip_schedule(t, steps):
    """Per-step reference for ``protocols.flip_strategy``: ``(rows, final)``."""
    from twomode.protocols import _FLIP

    dt = t / steps
    rows = [(0.0, 0.0, dt)] + [(_FLIP.phi1, _FLIP.phi2, dt)] * (steps - 1)
    m = (steps - 1) % 4
    return rows, LocalRotationPair((-m * _FLIP.phi1) % (2 * np.pi), (-m * _FLIP.phi2) % (2 * np.pi))


def reference_compile_schedule(seq, k, slices):
    """Per-step reference loop for ``gates.compile_to_native``: ``(rows, final)``.

    Each gate's schedule comes from :func:`reference_plan_schedule`; its
    first step absorbs the rotations pending before it.
    """
    from twomode.gates import RotationGate
    from twomode.simulate import synthesize_plan

    rows, pending = [], LocalRotationPair()
    for gate in seq.gates:
        if isinstance(gate, RotationGate):
            pending = gate.pair.compose(pending)
            continue
        duration, target = gate.t, gate.coupling
        if abs(duration) <= 1e-12:
            continue
        if duration < 0:
            target, duration = -target, -duration
        piece, final = reference_plan_schedule(synthesize_plan(k, target, duration), slices)
        phi1, phi2, first = piece[0]
        entry = LocalRotationPair(phi1, phi2).compose(pending)
        rows.append((entry.phi1, entry.phi2, first))
        rows.extend(piece[1:])
        pending = final
    return rows, pending


def reference_key_steps(rows):
    """Value keying of per-step rows ``(phi1, phi2, duration)``, the pass ``run_protocol``
    made on every call before protocols carried their table.

    Returns ``(table, index)``: the distinct rows in order of first appearance,
    and the row of every step.
    """
    slots = {}
    index = [slots.setdefault(tuple(row), len(slots)) for row in rows]
    return np.array(list(slots), dtype=float).reshape(-1, 3), np.array(index, dtype=np.intp)


def reference_protocol_dict(k, rows, final):
    """``Protocol.to_dict`` written one step at a time."""
    from twomode.core import k_to_dict

    return {
        "native_K": k_to_dict(k),
        "steps": [{"phi1": float(phi1), "phi2": float(phi2), "t": float(t)} for phi1, phi2, t in rows],
        "final": {"phi1": float(final.phi1), "phi2": float(final.phi2)},
    }


def reference_run_protocol(gamma0, protocol):
    """Per-step reference loop for ``protocols.run_protocol``.

    Applies each fused step ``S(duration) R`` to the running CM with one
    ``apply_symplectic``, then the trailing rotation to the last node.
    Returns ``(times, cms)``.
    """
    rows = [tuple(row) for row in protocol.steps.tolist()]
    cms = np.empty((len(rows) + 1, 4, 4))
    cms[0] = gamma = assert_valid_cm(gamma0)
    fused = {}
    for i, (phi1, phi2, duration) in enumerate(rows, start=1):
        if (phi1, phi2, duration) not in fused:
            fused[phi1, phi2, duration] = evolve(protocol.native_k, duration) @ reference_pair_matrix(phi1, phi2)
        cms[i] = gamma = apply_symplectic(fused[phi1, phi2, duration], gamma)
    cms[-1] = apply_symplectic(reference_pair_matrix(protocol.final.phi1, protocol.final.phi2), cms[-1])
    return np.cumsum([0.0, *(duration for _, _, duration in rows)]), cms


def _reference_local_squeezing(cms, ys):
    """Per-node ``l`` as the walk computed it before the stacked rate kernel."""
    from twomode.core import _rsvd_angles

    _, product, (_, s1, _, _) = ys
    l = np.log(np.maximum(s1, 1.0))
    if product.any():
        blocks = cms[product]
        lam = _rsvd_angles(blocks[:, :2, :2])[1] * _rsvd_angles(blocks[:, 2:, 2:])[1]
        l[product] = 0.5 * np.log(lam)
    return l


def _reference_optimal_rotations(gamma, ys, theta_l, psi_l):
    """Per-node optimal pre-rotations as the walk computed them before the stacked rate kernel."""
    from twomode.core import _rsvd_angles

    _, product, (theta_y, _, _, psi_y) = ys
    if not product[0]:
        return LocalRotationPair(float(theta_l + psi_y[0]), float(-psi_l - theta_y[0]))
    theta_a, theta_b = _rsvd_angles(np.stack([gamma[:2, :2], gamma[2:, 2:]]))[0].tolist()
    return LocalRotationPair(theta_l - theta_a - np.pi / 2.0, -psi_l - theta_b)


def reference_greedy_rate_walk(gamma0, k, times, lock_band=None):
    """Per-node reference loop for ``protocols.greedy_rate_walk``.

    Decides every node on its own: the optimal rotation outside the lock
    band, the neutral base pair on entering it, the fixed flip inside it.
    Returns ``(cms, lock_stretches)``, the stretches as ``(first, last)``
    nodes whose outgoing steps used the lock controls.
    """
    from twomode.core import _as_k, _rsvd_angles, generator, valid_cm_stack
    from twomode.protocols import _FLIP, _neutral_flip_base
    from twomode.rates import _y_stack

    k = _as_k(k)
    times = np.asarray(times, dtype=float)
    if lock_band is None:
        lock_band = 20.0 * float(np.max(np.diff(times))) if times.size > 1 else 0.0
    cms = np.empty((times.size, 4, 4))
    cms[0] = valid_cm_stack(gamma0, pure=True).cms[0]
    theta_l, _, _, psi_l = (float(x) for x in _rsvd_angles(generator(k).L))
    steps = np.diff(times).tolist()
    flows = {dt: evolve(k, dt) for dt in set(steps)}
    locked, flip = False, _FLIP.matrix
    stretches = []
    for i, dt in enumerate(steps):
        gamma = cms[i]
        ys = _y_stack(gamma[None])
        if _reference_local_squeezing(gamma[None], ys)[0] > lock_band:
            rotation = _reference_optimal_rotations(gamma, ys, theta_l, psi_l).matrix
            locked = False
        elif not locked:
            rotation = _neutral_flip_base(gamma, theta_l, psi_l).matrix
            locked = True
            stretches.append([i, i])
        else:
            rotation = flip
            stretches[-1][1] = i
        cms[i + 1] = apply_symplectic(flows[dt] @ rotation, gamma)
    return cms, [tuple(s) for s in stretches]
