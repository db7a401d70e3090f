"""Independent output checks, written with NumPy alone.

Each check returns a list of failure messages (empty when the output is
correct).  They run outside the timed region and never call ``twomode``.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import J, block_diag, flow, rotation, signed_singular_values

#: Couplings ``X1 P2 - P1 X2`` and ``X1 X2 - P1 P2`` as ``K = [[a, d], [c, b]]``.
HBS = np.array([[0.0, 1.0], [-1.0, 0.0]])
HTMS = np.array([[1.0, 0.0], [0.0, -1.0]])


def _close(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * max(1.0, abs(ref))


def blocks_det(gamma: np.ndarray) -> tuple[float, float, float]:
    """``(det A, det B, det C)`` of ``gamma = [[A, C], [C^T, B]]``."""
    return (
        float(np.linalg.det(gamma[:2, :2])),
        float(np.linalg.det(gamma[2:, 2:])),
        float(np.linalg.det(gamma[:2, 2:])),
    )


def negativity_closed_form(gamma: np.ndarray) -> float:
    """Inverse smallest symplectic eigenvalue of the partial transpose.

    Vidal & Werner, PRA 65, 032314 (2002):
    ``nu~^2 = (D - sqrt(D^2 - 4 det gamma)) / 2`` with
    ``D = det A + det B - 2 det C``; vacuum is the identity here.
    """
    det_a, det_b, det_c = blocks_det(gamma)
    delta = det_a + det_b - 2.0 * det_c
    det_g = float(np.linalg.det(gamma))
    nu2 = (delta - math.sqrt(max(delta * delta - 4.0 * det_g, 0.0))) / 2.0
    return nu2**-0.5


def fock_entropy(r: float) -> float:
    """Entropy of entanglement summed over the Fock-basis Schmidt spectrum.

    A pure state with log-negativity ``r`` has ``lambda_n = (1 - q) q^n``
    with ``q = tanh(r/2)^2``.
    """
    q = math.tanh(r / 2.0) ** 2
    if q == 0.0:
        return 0.0
    n = np.arange(0, 20000)
    lam = (1.0 - q) * q**n
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log(lam)))


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------


def expected_nodes(op: dict) -> int:
    """Node count of a ``run`` call: the CLI's documented uniform grid."""
    if op["strategy"] == "flip":
        return op["steps"] + 1
    return max(1, int(math.ceil(op["t"] / op["dt"] - 1e-12))) + 1


def check_trajectory(op: dict, rows: np.ndarray) -> list[str]:
    """Checks on the ``t,E0,negativity,S,Q,rate`` rows of one trajectory."""
    if rows.ndim != 2 or rows.shape != (expected_nodes(op), 6):
        return [f"shape {rows.shape}, expected ({expected_nodes(op)}, 6)"]
    if not np.all(np.isfinite(rows)):
        return ["non-finite value"]
    t, e0, neg, s, q, rate = rows.T
    s1, s2 = signed_singular_values(np.array(op["k"]))
    cap = s1 - s2
    bad = []
    if abs(t[0]) > 0.0 or abs(t[-1] - op["t"]) > 1e-12 * op["t"]:
        bad.append("time grid does not span [0, t]")
    if np.any(np.abs(neg - np.exp(e0)) > 1e-6 * np.exp(e0)):
        bad.append("negativity != exp(E0)")
    if np.any(np.abs(q - np.log(s)) > 1e-9 * np.maximum(1.0, np.abs(q))):
        bad.append("Q != log S")
    if np.any(rate < cap - 1e-9 * s1):
        bad.append("rate below s1 - s2")
    bound = cap * t + (op["r1"] + op["r2"]) / 2.0
    if np.any(e0 > bound + 1e-8 * np.maximum(1.0, bound)):
        bad.append("E0 above the attainability bound")
    if op["vacuum"] and op["strategy"] == "tms":
        if np.any(np.abs(e0 - cap * t) > 1e-8 * np.maximum(1.0, cap * t)):
            bad.append("tms from vacuum: E0(t) != (s1 - s2) t")
    if op["vacuum"] and op["strategy"] == "flip":
        # A tenth of the first-order Trotter scale ||K||^2 t dt; the errors
        # seen at these sizes stay below a hundredth of it.
        tol = 0.1 * float(np.sum(np.square(op["k"]))) * op["t"] * op["dt"]
        if abs(e0[-1] - cap * op["t"]) > tol:
            bad.append(f"flip from vacuum: |E0(t) - (s1 - s2) t| > {tol:.3g}")
    return bad


# ---------------------------------------------------------------------------
# compile_run
# ---------------------------------------------------------------------------

_COUPLINGS = {("bs", False): HBS, ("bs", True): HBS @ J, ("tms", False): HTMS, ("tms", True): HTMS @ J}

#: Relative tolerance of the compiled (Trotterised) state, as in the tests.
TROTTER_TOL = 1e-2


def gate_list_matrix(items: list[dict]) -> np.ndarray:
    """Compose a serialised gate list, first-applied first."""
    acc = np.eye(4)
    for item in items:
        if item["kind"] == "rot":
            m = block_diag(rotation(item["phi1"]), rotation(item["phi2"]))
        else:
            m = flow(_COUPLINGS[(item["kind"], bool(item["barred"]))], item["t"])
        acc = m @ acc
    return acc


def check_compile(op: dict, gate_list: list[dict], final: np.ndarray) -> list[str]:
    gate = np.array(op["gate"])
    bad = []
    recomposed = gate_list_matrix(gate_list)
    if np.max(np.abs(recomposed - gate)) > 1e-9 * np.max(np.abs(gate)):
        bad.append("gate sequence does not recompose to the gate")
    ref = gate @ np.array(op["cm"]) @ gate.T
    for name, value, want in zip(("det A", "det B", "det C"), blocks_det(final), blocks_det(ref)):
        if not _close(value, want, TROTTER_TOL):
            bad.append(f"{name} of the final CM is {value:.6g}, expected {want:.6g}")
    return bad


# ---------------------------------------------------------------------------
# state_queries
# ---------------------------------------------------------------------------


def query_reference(op: dict) -> dict:
    """Reference values of one query, computed once from its inputs."""
    neg = negativity_closed_form(np.array(op["cm"]))
    s1, s2 = signed_singular_values(np.array(op["k"]))
    return {"negativity": neg, "s1": s1, "s2": s2, "entropy": fock_entropy(max(math.log(neg), 0.0))}


def check_query(ref: dict, negativity: float, s1: float, s2: float) -> list[str]:
    bad = []
    want = ref["negativity"]
    if abs(negativity - want) > 1e-6 * want:
        bad.append(f"negativity {negativity!r}, closed form {want!r}")
    w1, w2 = ref["s1"], ref["s2"]
    if abs(s1 - w1) > 1e-10 * w1 or abs(s2 - w2) > 1e-10 * w1:
        bad.append(f"restricted singular values ({s1!r}, {s2!r}), expected ({w1!r}, {w2!r})")
    return bad


def entropy_mismatch(ref: dict, entropy: float) -> bool:
    """Whether a pure state's reported entropy disagrees with the Fock oracle."""
    want = ref["entropy"]
    return abs(entropy - want) > 1e-6 * max(1.0, want)
