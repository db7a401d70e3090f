"""
Simulating one bilinear coupling with another
=============================================

Two bosonic modes coupled by a fixed bilinear Hamiltonian, plus fast local
phase rotations, can mimic the evolution of *any other* bilinear coupling.
This script walks through the complete story for the natural position-position
coupling ``X1 X2``: which targets are reachable, at what cost in interaction
time, and what the explicit rotation schedule looks like.
"""

import numpy as np

from twomode import (
    H0,
    HBS,
    HTMS,
    apply_symplectic,
    can_simulate_efficiently,
    effective_hamiltonian,
    evolve,
    min_simulation_time,
    plan_to_protocol,
    restricted_svd,
    run_protocol,
    synthesize_plan,
    vacuum_cm,
)

np.set_printoptions(precision=6, suppress=True)

# %% Every coupling is characterised, up to local rotations, by two numbers:
# its restricted singular values (the ordinary singular values with the
# smaller one carrying the sign of the determinant).

for name, k in [("position-position", H0), ("beam splitter", HBS), ("two-mode squeezer", HTMS)]:
    _, svals, _ = restricted_svd(k)
    print(f"{name:20s} (s1, s2) = ({svals.s1:+.1f}, {svals.s2:+.1f})")

# %% Efficient simulation (one unit of interaction time per simulated unit)
# is possible iff both s1 + s2 and s1 - s2 dominate the target's values.
# The position-position coupling reaches neither the beam splitter nor the
# squeezer efficiently:

print("\nX1X2 -> beam splitter efficiently?", can_simulate_efficiently(H0, HBS))
print("X1X2 -> squeezer efficiently?     ", can_simulate_efficiently(H0, HTMS))

# %% It still reaches them at a time cost. Both targets need exactly twice
# the interaction time (simulation factor 1/2):

print("\nminimal time per simulated unit:")
print("  beam splitter:", min_simulation_time(H0, HBS, 1.0))
print("  squeezer:     ", min_simulation_time(H0, HTMS, 1.0))

# %% The optimal schedule is a convex mixture of rotated interaction windows.
# For the squeezer it is an even mixture of "do nothing" and the quarter-turn
# flip of both modes:

plan = synthesize_plan(H0, HTMS, 1.0)
print("\nsqueezer plan (kappa = %.2f):" % plan.kappa)
for phi1, phi2, weight in plan.terms:
    print(f"  weight {weight:.2f}  rotations (phi1, phi2) = ({phi1:+.4f}, {phi2:+.4f})")
print("effective coupling realised:\n", effective_hamiltonian(plan))

# %% Slicing the plan into alternating windows gives a runnable protocol that
# converges to the target flow at first order in 1/slices:

t_target = 0.25
plan = synthesize_plan(H0, HTMS, t_target)
target = apply_symplectic(evolve(HTMS, t_target), vacuum_cm())
print("\nTrotter convergence toward the simulated squeezer flow:")
for slices in (25, 50, 100, 200, 400):
    protocol = plan_to_protocol(plan, slices)
    reached = run_protocol(vacuum_cm(), protocol).final
    print(f"  slices {slices:4d}: Frobenius error {np.linalg.norm(reached - target):.2e}")
