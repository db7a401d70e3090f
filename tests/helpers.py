"""Shared random generators and independent oracles for the test suite."""

import numpy as np

from twomode.core import LocalRotationPair, apply_symplectic, evolve, vacuum_cm


def random_coupling(rng, scale=1.0):
    """Random 2x2 coupling matrix with N(0, scale) entries."""
    return scale * rng.normal(size=(2, 2))


def random_rotation_pair(rng):
    phi = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return LocalRotationPair(float(phi[0]), float(phi[1]))


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


def reference_plan_to_protocol(plan, slices):
    """Per-window reference loop for ``simulate.plan_to_protocol``."""
    from twomode.simulate import Protocol, ProtocolStep

    terms = [t for t in plan.terms if t.weight > 0.0]
    if not terms:
        return Protocol(plan.native_k, (), LocalRotationPair())
    steps = []
    prev = LocalRotationPair()
    for _ in range(slices):
        for term in terms:
            quotient = term.rotations.compose(prev.inverse())
            steps.append(ProtocolStep(quotient, term.weight * plan.t / slices))
            prev = term.rotations
    return Protocol(plan.native_k, tuple(steps), prev.inverse())
