"""Two-mode continuous-variable dynamics under a bilinear coupling.

The package covers, for two bosonic modes coupled by an arbitrary bilinear
Hamiltonian and controlled by fast local phase rotations:

* phase-space algebra and canonical forms (:mod:`twomode.core`),
* simulation of one coupling by another, with time-optimal schedules
  (:mod:`twomode.simulate`),
* entanglement and squeezing quantifiers (:mod:`twomode.measures`),
* closed-form optimal entanglement/squeezing rates (:mod:`twomode.rates`),
* finite-time strategies, bounds, ancillas and Gaussian measurements
  (:mod:`twomode.protocols`),
* decomposition of arbitrary two-mode Gaussian unitaries and their
  compilation onto a native coupling (:mod:`twomode.gates`).
"""

from .core import (
    H0,
    HBS,
    HTMS,
    J,
    J2,
    LocalRotationPair,
    NotPureError,
    apply_symplectic,
    evolve,
    generator,
    kmatrix,
    pure_standard_form,
    restricted_svd,
    squeezed_product_cm,
    standard_form_evolution,
    two_mode_squeezed_cm,
    vacuum_cm,
)
from .gates import (
    GateSequence,
    compile_to_native,
    decompose_gate,
    euler_decompose,
    local_squeezer_sequence,
    passive_decompose,
)
from .measures import entanglement, negativity, squeezing
from .protocols import (
    Trajectory,
    extend_with_ancillas,
    finite_time_bounds,
    flip_strategy,
    gaussian_measurement,
    greedy_rate_strategy,
    run_protocol,
)
from .rates import (
    entanglement_rate,
    local_squeezing_parameter,
    optimal_entanglement_rate,
    optimal_squeezing_rate,
    squeezing_capability,
)
from .simulate import (
    DegenerateHamiltonianError,
    InfeasibleTimeError,
    Protocol,
    SimulationPlan,
    can_simulate_efficiently,
    effective_hamiltonian,
    min_simulation_time,
    plan_to_protocol,
    synthesize_plan,
)

__version__ = "0.1.0"
