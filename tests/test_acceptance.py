"""Acceptance suite: one test per release criterion, each at its pinned tolerance.

Every test prints a single PASS line (visible with ``pytest -s`` or in the
captured output) so the suite doubles as a checklist.
"""

import numpy as np

from helpers import (
    grid_entanglement_rate,
    grid_squeezing_rate,
    random_coupling,
    random_passive,
    random_pure_cm,
    random_rows,
    random_symplectic,
)
from twomode.core import (
    H0,
    HBS,
    HTMS,
    apply_symplectic,
    evolve,
    pure_standard_form,
    restricted_svd,
    squeezed_product_cm,
    two_mode_squeezed_cm,
    vacuum_cm,
)
from twomode.gates import compile_to_native, decompose_gate
from twomode.measures import negativity, squeezing
from twomode.protocols import (
    extend_with_ancillas,
    finite_time_bounds,
    flip_effective_coupling,
    flip_strategy,
    gaussian_measurement,
    greedy_rate_strategy,
    run_protocol,
)
from twomode.rates import optimal_entanglement_rate, optimal_squeezing_rate
from twomode.simulate import (
    Protocol,
    effective_hamiltonian,
    min_simulation_time,
    plan_to_protocol,
    synthesize_plan,
)


def _report(n, detail):
    print(f"[acceptance] criterion {n}: PASS — {detail}")


def test_criterion_1_restricted_singular_values():
    """Signed singular values of the three reference couplings, exactly."""
    assert restricted_svd(H0).svals == (1.0, 0.0)
    assert restricted_svd(HBS).svals == (1.0, 1.0)
    assert restricted_svd(HTMS).svals == (1.0, -1.0)
    _report(1, "reference couplings give (1,0), (1,1), (1,-1) exactly")


def test_criterion_2_simulation_optimality():
    """Minimal times equal 2 and synthesized plans reproduce their targets."""
    t_bs = min_simulation_time(H0, HBS, 1.0)
    t_tms = min_simulation_time(H0, HTMS, 1.0)
    assert abs(t_bs - 2.0) <= 1e-12
    assert abs(t_tms - 2.0) <= 1e-12
    for target in (HBS, HTMS):
        plan = synthesize_plan(H0, target, 1.0)
        assert np.max(np.abs(effective_hamiltonian(plan) - target)) <= 1e-10
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(500):
        k, kp = random_coupling(rng), random_coupling(rng)
        _, s, _ = restricted_svd(k)
        if s.s1 - abs(s.s2) < 1e-6:
            continue
        plan = synthesize_plan(k, kp, 1.0)
        scale = max(1.0, float(np.max(np.abs(kp))))
        worst = max(worst, np.max(np.abs(effective_hamiltonian(plan) - kp)) / scale)
    assert worst <= 1e-10
    _report(2, f"t_min = 2 for both targets; worst plan defect {worst:.2e}")


def test_criterion_3_trotter_convergence():
    """200-slice schedule lands within 1e-3 of the simulated squeezer flow."""
    t_target = 0.25
    plan = synthesize_plan(H0, HTMS, t_target)
    target = apply_symplectic(evolve(HTMS, t_target), vacuum_cm())
    errors = {}
    for slices in (50, 100, 200, 400):
        traj = run_protocol(vacuum_cm(), plan_to_protocol(plan, slices))
        errors[slices] = float(np.linalg.norm(traj.final - target))
    assert errors[200] <= 1e-3
    for coarse, fine in ((50, 100), (100, 200), (200, 400)):
        assert 1.7 <= errors[coarse] / errors[fine] <= 2.3
    _report(
        3,
        f"Frobenius error {errors[200]:.2e} at 200 slices; doubling ratios "
        f"{errors[50] / errors[100]:.2f}, {errors[100] / errors[200]:.2f}, "
        f"{errors[200] / errors[400]:.2f}",
    )


def test_criterion_4_flip_strategy_saturates_capability():
    """Flip schedule with 1e4 windows reaches negativity and squeezing e +- 0.1%."""
    traj = run_protocol(vacuum_cm(), flip_strategy(H0, 1.0, 10_000))
    n_final = negativity(traj.final)
    s_final = squeezing(traj.final).squeezing
    assert abs(n_final - np.e) / np.e <= 1e-3
    assert abs(s_final - np.e) / np.e <= 1e-3
    _report(
        4,
        f"negativity {n_final:.6f}, squeezing {s_final:.6f} vs e = {np.e:.6f} "
        f"(rel. dev. {abs(n_final - np.e) / np.e:.1e}, {abs(s_final - np.e) / np.e:.1e})",
    )


def test_criterion_5_rate_optimality_against_grid_search():
    """Closed-form rates match brute-force grid maxima on 200 random pure states."""
    rng = np.random.default_rng(5)
    worst_e, worst_s = 0.0, 0.0
    checked_e = checked_s = 0
    for _ in range(200):
        gamma = random_pure_cm(rng, tmax=0.6)
        k = random_coupling(rng)
        closed_e = optimal_entanglement_rate(gamma, k).rate
        grid_e = grid_entanglement_rate(gamma, k, n_grid=360)
        if abs(closed_e) > 1e-3:
            worst_e = max(worst_e, abs(grid_e - closed_e) / abs(closed_e))
            checked_e += 1
        closed_s = optimal_squeezing_rate(gamma, k).rate
        grid_s = grid_squeezing_rate(gamma, k, n_grid=720)
        if abs(closed_s) > 1e-3:
            worst_s = max(worst_s, abs(grid_s - closed_s) / abs(closed_s))
            checked_s += 1
    assert checked_e >= 150 and checked_s >= 150
    assert worst_e <= 1e-3
    assert worst_s <= 1e-3
    _report(
        5,
        f"worst relative defect over {checked_e}/{checked_s} states: "
        f"entanglement {worst_e:.2e}, squeezing {worst_s:.2e}",
    )


def test_criterion_6_vacuum_rate_pinned_at_unity():
    """Greedy strategy from the vacuum reports rate 1.000 +- 1e-6 at every node.

    The node-rate deviation of the discrete walk scales like t*dt^2/2, so the
    grid (t = 0.03, dt = 3e-5) is chosen to keep every node below the stated
    tolerance; the run still covers 1000 nodes in well under a second.
    """
    traj = greedy_rate_strategy(vacuum_cm(), H0, 0.03, 3e-5)
    deviation = float(np.max(np.abs(np.asarray(traj.columns()["rate"]) - 1.0)))
    assert deviation <= 1e-6
    _report(6, f"{len(traj)} nodes, max |rate - 1| = {deviation:.2e}")


def test_criterion_7_rate_greed_is_not_globally_optimal():
    """Doubly squeezed input: the squeezer simulation beats the rate-greedy walk."""
    s_r = np.diag([np.e, 1.0 / np.e, np.e, 1.0 / np.e])
    gamma0 = apply_symplectic(s_r, two_mode_squeezed_cm(0.5e-3))
    greedy = greedy_rate_strategy(gamma0, H0, 1.0, 1e-3)
    assert abs(greedy.columns()["rate"][0] - 1.0) <= 1e-9
    e0_greedy = pure_standard_form(greedy.final).r
    tms_final = apply_symplectic(evolve(flip_effective_coupling(H0), 1.0), gamma0)
    e0_tms = pure_standard_form(tms_final).r
    assert e0_tms > e0_greedy
    _report(
        7,
        f"initial greedy rate 1.0; E0(t=1): squeezer simulation {e0_tms:.4f} "
        f"> greedy {e0_greedy:.4f}",
    )


def test_criterion_8_measurements_cannot_increase_squeezing():
    """1e3 random passive extensions + Schur-complement measurements: no gain."""
    rng = np.random.default_rng(8)
    violations = 0
    worst = -np.inf
    for _ in range(1000):
        gamma = random_pure_cm(rng)
        n_anc = int(rng.integers(1, 3))
        ext = extend_with_ancillas(gamma, n_anc, random_passive(2 + n_anc, rng))
        s_ext = 1.0 / float(np.linalg.eigvalsh(ext)[0])
        s_out = 1.0 / float(np.linalg.eigvalsh(gaussian_measurement(ext))[0])
        worst = max(worst, s_out - s_ext)
        if s_out > s_ext + 1e-10:
            violations += 1
    assert violations == 0
    _report(8, f"0 violations in 1000 trials; max excess {worst:.2e}")


def test_criterion_9_gate_roundtrip_and_compiled_swap():
    """1e3 random gates decompose/recompose below 1e-9; compiled swap works."""
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        s = random_symplectic(rng)
        seq = decompose_gate(s)
        scale = max(1.0, float(np.max(np.abs(s))))
        worst = max(worst, float(np.max(np.abs(seq.matrix() - s))) / scale)
    assert worst <= 1e-9

    swap = evolve(HBS, np.pi / 2.0)
    protocol = compile_to_native(decompose_gate(swap), H0, slices=400)
    initial = squeezed_product_cm(0.8, 0.0)
    final = run_protocol(initial, protocol).final
    direct = apply_symplectic(swap, initial)
    mode2_err = np.max(
        np.abs(np.sort(np.linalg.eigvalsh(final[2:, 2:])) - np.sort(np.linalg.eigvalsh(direct[2:, 2:])))
    )
    mode1_err = np.max(
        np.abs(np.sort(np.linalg.eigvalsh(final[:2, :2])) - np.sort(np.linalg.eigvalsh(direct[:2, :2])))
    )
    assert mode1_err <= 1e-2 and mode2_err <= 1e-2
    _report(
        9,
        f"worst recomposition defect {worst:.2e}; compiled swap block errors "
        f"{mode1_err:.2e}/{mode2_err:.2e}",
    )


def test_criterion_10_no_strategy_beats_the_bounds():
    """100 random schedules from squeezed inputs stay below both bounds."""
    rng = np.random.default_rng(10)
    checked = 0
    for _ in range(10):
        k = random_coupling(rng)
        for _ in range(10):
            r1, r2 = sorted(rng.uniform(0.0, 2.0, size=2))[::-1]
            gamma = squeezed_product_cm(r1, r2)
            t_total = float(rng.uniform(0.2, 1.2))
            durations = rng.dirichlet(np.ones(10)) * t_total
            traj = run_protocol(gamma, Protocol(k, random_rows(rng, durations), np.arange(10)))
            s_bound, n_bound = finite_time_bounds(k, t_total, r1, r2)
            assert squeezing(traj.final).squeezing <= s_bound * (1 + 1e-9)
            assert negativity(traj.final) <= n_bound * (1 + 1e-9)
            checked += 1
    assert checked == 100
    _report(10, "100 random protocols stayed below the squeezing and negativity bounds")
