"""
Finite-time strategies, their limits, and why greed is not always good
======================================================================

Over a finite interaction time the best any schedule can do from the vacuum
is bounded by exp((s1 - s2) t) in both squeezing and negativity, and the
alternating flip schedule saturates the bound.  From squeezed inputs the
bounds rise, rate-greedy walks can beat the simple schedules -- and, for one
carefully chosen input, a fixed squeezer simulation beats the rate-greedy
walk, showing that locally optimal rates do not imply a global optimum.
Ancillas and Gaussian measurements never help.
"""

import numpy as np

from twomode import (
    H0,
    apply_symplectic,
    evolve,
    extend_with_ancillas,
    finite_time_bounds,
    flip_strategy,
    gaussian_measurement,
    greedy_rate_strategy,
    negativity,
    pure_standard_form,
    run_protocol,
    squeezed_product_cm,
    two_mode_squeezed_cm,
    vacuum_cm,
)
from twomode.protocols import flip_effective_coupling

np.set_printoptions(precision=6, suppress=True)

# %% The flip strategy: equal interaction windows separated by quarter-turn
# rotations of mode 1 (and three-quarter turns of mode 2).  It simulates the
# strongest two-mode squeezer the coupling contains.  From the vacuum, one
# unit of X1X2 interaction can produce at most squeezing and negativity e:

s_bound, n_bound = finite_time_bounds(H0, 1.0)
print("bounds from the vacuum at t = 1:", (round(s_bound, 6), round(n_bound, 6)))
for steps in (2, 3, 10, 100, 10_000):
    final = run_protocol(vacuum_cm(), flip_strategy(H0, 1.0, steps)).final
    print(f"  flip with {steps:6d} windows: negativity = {negativity(final):.6f}")
bare = apply_symplectic(evolve(H0, 1.0), vacuum_cm())
print(f"  uncontrolled interaction:    negativity = {negativity(bare):.6f}")

# %% Greedy rate-following from squeezed light: starts at rate e^1.25 and
# converts the local squeezing into extra entanglement, beating both the
# plain interaction and the fixed squeezer simulation:

g_in = squeezed_product_cm(0.0, 2.5)
greedy = greedy_rate_strategy(g_in, H0, 1.5, 1e-3)
tms_final = apply_symplectic(evolve(flip_effective_coupling(H0), 1.5), g_in)
bare_final = apply_symplectic(evolve(H0, 1.5), g_in)
print("\nsqueezed light, t = 1.5:")
rates = greedy.columns()["rate"]
print(f"  greedy rate at t=0: {rates[0]:.4f}, at t=1.5: {rates[-1]:.4f}")
print(f"  E0: greedy {pure_standard_form(greedy.final).r:.4f}  "
      f"squeezer-sim {pure_standard_form(tms_final).r:.4f}  "
      f"bare {pure_standard_form(bare_final).r:.4f}")

# %% The counterexample: both modes squeezed the same way on top of a whiff
# of entanglement.  The usable local squeezing parameter vanishes, so the
# greedy walk is stuck at rate 1 -- while the fixed squeezer simulation
# sacrifices a little entanglement early to activate the stored squeezing:

s_r = np.diag([np.e, 1 / np.e, np.e, 1 / np.e])
g_in2 = apply_symplectic(s_r, two_mode_squeezed_cm(0.5e-3))
greedy2 = greedy_rate_strategy(g_in2, H0, 1.0, 1e-3)
tms2 = apply_symplectic(evolve(flip_effective_coupling(H0), 1.0), g_in2)
print("\ndoubly squeezed input, t = 1:")
rates2 = greedy2.columns()["rate"]
print(f"  greedy rate stays at {rates2[0]:.4f} .. {np.max(rates2):.4f}")
print(f"  E0: greedy {pure_standard_form(greedy2.final).r:.4f}  "
      f"<  squeezer-sim {pure_standard_form(tms2).r:.4f}")

# %% Passive ancilla circuits plus complete Gaussian measurements cannot
# increase squeezing (and therefore cannot increase entanglement either).
# Mix the state with a vacuum ancilla through a random passive network,
# measure the ancilla, and compare:


def random_passive(n_modes, rng):
    z = (rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes)))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    o = np.zeros((2 * n_modes, 2 * n_modes))
    for j in range(n_modes):
        for k in range(n_modes):
            o[2 * j : 2 * j + 2, 2 * k : 2 * k + 2] = [
                [u[j, k].real, -u[j, k].imag],
                [u[j, k].imag, u[j, k].real],
            ]
    return o


rng = np.random.default_rng(1)
state = run_protocol(vacuum_cm(), flip_strategy(H0, 0.5, 64)).final
worst = -np.inf
for _ in range(200):
    ext = extend_with_ancillas(state, 1, random_passive(3, rng))
    out = gaussian_measurement(ext)
    s_out = 1.0 / np.linalg.eigvalsh(out)[0]
    s_ext = 1.0 / np.linalg.eigvalsh(ext)[0]
    worst = max(worst, s_out - s_ext)
print(f"\nmax squeezing gain over 200 measured passive extensions: {worst:.2e} (never > 0)")
