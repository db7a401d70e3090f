"""Seeded benchmark inputs, built with NumPy alone.

Nothing here imports ``twomode``: the inputs and the reference matrices the
oracles compare against must not come from the code under test.  Every
workload has a fixed *pass*: the same list of op shapes (strategy, size,
input kind) for every seed, so that runs with different seeds do the same
amount of work and only the continuous parameters (couplings, states, times,
gates) change.  All states stay at log-negativity <= 3.5, inside the range
where the package's results are exact.
"""

from __future__ import annotations

import math

import numpy as np

#: Single-mode symplectic form used by the package: ``[[0, -1], [1, 0]]``.
J = np.array([[0.0, -1.0], [1.0, 0.0]])
J2 = np.kron(np.eye(2), J)
H0 = np.array([[1.0, 0.0], [0.0, 0.0]])

#: Trajectory pass: (strategy, steps, start from vacuum).  Three ops of
#: 1000 nodes, six of 300 and three of 100.  The 300-node ops are the middle
#: of the pass, so the median op is a middle one of them, and the op with ten
#: beyond it is a middle one of the 1000-node ops.
TRAJECTORY_PASS = (
    ("flip", 1000, True),
    ("tms", 1000, True),
    ("greedy", 1000, False),
    ("flip", 300, True),
    ("flip", 300, False),
    ("greedy", 300, True),
    ("greedy", 300, False),
    ("tms", 300, False),
    ("bare", 300, False),
    ("flip", 100, True),
    ("tms", 100, True),
    ("bare", 100, True),
)

#: compile_run pass: (Trotter slices, native coupling).  The five 600-slice
#: H0 ops are the middle of the pass and the three 800-slice H0 ops its top,
#: so the median and the tail op are H0 runs, whose step count is fixed.  A
#: random coupling can add near-zero-weight plan terms, so its step count
#: varies with the seed; those ops use 400 slices and stay below the rest.
COMPILE_PASS = (
    (400, "h0"),
    (400, "random"),
    (400, "random"),
    (600, "h0"),
    (600, "h0"),
    (600, "h0"),
    (600, "h0"),
    (600, "h0"),
    (800, "h0"),
    (800, "h0"),
    (800, "h0"),
)

#: state_queries pass: equal numbers of entangled pure, product pure and
#: mixed covariance matrices.
QUERY_KINDS = ("entangled", "product", "mixed")
QUERIES_PER_KIND = 16


def rotation(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4))
    out[:2, :2] = a
    out[2:, 2:] = b
    return out


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a 24-term Taylor series."""
    norm = float(np.max(np.sum(np.abs(m), axis=1)))
    squarings = max(0, int(math.ceil(math.log2(norm))) + 2) if norm > 0 else 0
    b = m / 2.0**squarings
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for n in range(1, 25):
        term = term @ b / n
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def flow(k: np.ndarray, t: float) -> np.ndarray:
    """Phase-space flow of ``H = (X1, P1) K (X2, P2)^T`` for time ``t``.

    Hamilton's equations ``dr/dt = Omega grad H`` with ``Omega = J^T (+) J^T``
    and ``H = r^T [[0, K], [K^T, 0]] r / 2``.
    """
    hess = np.zeros((4, 4))
    hess[:2, 2:] = k
    hess[2:, :2] = k.T
    return expm(t * (J2.T @ hess))


def signed_singular_values(k: np.ndarray) -> tuple[float, float]:
    """``(s1, s2)``: singular values of ``K``, the smaller one signed by ``det K``."""
    sig = np.linalg.svd(k, compute_uv=False)
    return float(sig[0]), math.copysign(float(sig[1]), float(np.linalg.det(k)))


def random_coupling(rng: np.random.Generator, min_gap: float) -> np.ndarray:
    """Coupling with ``s1`` in [0.6, 1.4] and ``s1 - |s2| >= min_gap * s1``."""
    while True:
        k = rng.normal(size=(2, 2))
        s1, s2 = signed_singular_values(k)
        if s1 - abs(s2) >= min_gap * s1:
            return k * (rng.uniform(0.6, 1.4) / s1)


def random_symplectic(rng: np.random.Generator, lo: float, hi: float) -> np.ndarray:
    """``exp(J2 H)`` for a random symmetric ``H`` with spectral norm in [lo, hi]."""
    h = rng.normal(size=(4, 4))
    h = (h + h.T) / 2.0
    h *= rng.uniform(lo, hi) / float(np.max(np.abs(np.linalg.eigvalsh(h))))
    return expm(J2 @ h)


def rotated_squeezed_product(rng: np.random.Generator, r_max: float):
    """Locally rotated product of squeezed modes and its exponents ``(r1, r2)``."""
    r1, r2 = (float(x) for x in rng.uniform(0.0, r_max, size=2))
    rot = block_diag(rotation(rng.uniform(0, 2 * math.pi)), rotation(rng.uniform(0, 2 * math.pi)))
    gamma = rot @ np.diag([math.exp(-r1), math.exp(r1), math.exp(-r2), math.exp(r2)]) @ rot.T
    return (gamma + gamma.T) / 2.0, r1, r2


def trajectory_inputs(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for strategy, steps, vacuum in TRAJECTORY_PASS:
        k = random_coupling(rng, min_gap=0.3)
        s1, s2 = signed_singular_values(k)
        if vacuum:
            gamma, r1, r2 = np.eye(4), 0.0, 0.0
        else:
            gamma, r1, r2 = rotated_squeezed_product(rng, 0.8)
        # Final log-negativity is at most the attainability bound, kept <= 3.5.
        bound = float(rng.uniform(1.5, 3.5))
        t = (bound - (r1 + r2) / 2.0) / (s1 - s2)
        ops.append(
            {
                "strategy": strategy,
                "steps": steps,
                "vacuum": vacuum,
                "k": k.tolist(),
                "cm": gamma.tolist(),
                "r1": r1,
                "r2": r2,
                "t": t,
                "dt": t / steps,
            }
        )
    return ops


def compile_inputs(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for i, (slices, native) in enumerate(COMPILE_PASS):
        k = H0 if native == "h0" else random_coupling(rng, min_gap=0.3)
        gate = random_symplectic(rng, 0.2, 0.45)
        if i % 2:
            gamma, _, _ = rotated_squeezed_product(rng, 0.6)
        else:
            gamma = np.eye(4)
        ops.append({"slices": slices, "k": k.tolist(), "gate": gate.tolist(), "cm": gamma.tolist()})
    return ops


def query_inputs(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for _ in range(QUERIES_PER_KIND):
        for kind in QUERY_KINDS:
            if kind == "entangled":
                s = random_symplectic(rng, 0.3, 1.0)
                gamma = s @ s.T
            elif kind == "product":
                gamma, _, _ = rotated_squeezed_product(rng, 1.2)
            else:
                s = random_symplectic(rng, 0.3, 1.0)
                nu1, nu2 = rng.uniform(1.05, 2.0, size=2)
                gamma = s @ np.diag([nu1, nu1, nu2, nu2]) @ s.T
            ops.append(
                {
                    "kind": kind,
                    "cm": ((gamma + gamma.T) / 2.0).tolist(),
                    "k": random_coupling(rng, min_gap=0.2).tolist(),
                    "k_target": rng.normal(size=(2, 2)).tolist(),
                    "t_target": float(rng.uniform(0.2, 2.0)),
                }
            )
    return ops


GENERATORS = {
    "trajectory": trajectory_inputs,
    "compile_run": compile_inputs,
    "state_queries": query_inputs,
}
