"""A validated state is a value: ``valid_cm_stack`` returns a ``CMStack`` as it is.

Every public query takes the stack in place of the raw CM, checks it no
further (only the purity test, read from its ``dets``, when the query needs a
pure state) and returns the same bits as on the raw array.
"""

import dataclasses

import numpy as np
import pytest

from helpers import random_pure_cm
from twomode.core import (
    H0,
    LocalRotationPair,
    NotPureError,
    pure_standard_form,
    valid_cm_stack,
)
from twomode.measures import entanglement, negativity, report_columns, squeezing
from twomode.protocols import extend_with_ancillas, flip_strategy, greedy_rate_walk, run_protocol
from twomode.rates import (
    entanglement_rate,
    local_squeezing_parameter,
    optimal_entanglement_rate,
    optimal_squeezing_rate,
)

K = np.array([[0.7, -0.2], [0.4, 0.1]])

#: The scalar queries, each as a function of the state alone.
SCALAR = {
    "negativity": negativity,
    "entanglement": entanglement,
    "squeezing": squeezing,
    "local_squeezing_parameter": local_squeezing_parameter,
    "optimal_entanglement_rate": lambda g: optimal_entanglement_rate(g, K),
    "entanglement_rate": lambda g: entanglement_rate(g, K, LocalRotationPair()),
    "optimal_squeezing_rate": lambda g: optimal_squeezing_rate(g, K),
    "pure_standard_form": pure_standard_form,
    "extend_with_ancillas": lambda g: extend_with_ancillas(g, 1),
}

#: Every query of one pure state: the scalar ones, those that start a trajectory and the report.
QUERIES = {
    **SCALAR,
    "run_protocol": lambda g: run_protocol(g, flip_strategy(K, 0.5, 20)),
    "greedy_rate_walk": lambda g: greedy_rate_walk(g, H0, np.linspace(0.0, 0.2, 41)),
    "report_columns": lambda g: report_columns(g, K),
}


def _leaves(result):
    """The arrays and numbers of a result, in order, for a bitwise comparison."""
    if dataclasses.is_dataclass(result):
        result = dataclasses.astuple(result)
    if isinstance(result, dict):
        result = list(result.values())
    if isinstance(result, (tuple, list)):
        return [leaf for item in result for leaf in _leaves(item)]
    return [np.asarray(result)]


def _assert_same(a, b):
    a, b = _leaves(a), _leaves(b)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_a_stack_is_returned_as_it_is(rng):
    stack = valid_cm_stack(np.stack([random_pure_cm(rng) for _ in range(3)]))
    assert valid_cm_stack(stack) is stack
    assert valid_cm_stack(stack, pure=True) is stack


def test_a_mixed_stack_is_refused_from_its_dets(monkeypatch):
    gamma = 1.5 * np.eye(4)
    with pytest.raises(NotPureError) as raw:
        valid_cm_stack(gamma, pure=True)
    stack = valid_cm_stack(gamma)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: pytest.fail("eigvalsh ran again"))
    for refuse in (lambda: valid_cm_stack(stack, pure=True), lambda: entanglement(stack)):
        with pytest.raises(NotPureError) as exc:
            refuse()
        assert str(exc.value) == str(raw.value) == "state is not pure: det(gamma) = 5.0625"


@pytest.mark.parametrize("name", SCALAR)
def test_a_scalar_query_refuses_a_longer_stack(rng, name):
    stack = valid_cm_stack(np.stack([random_pure_cm(rng), random_pure_cm(rng)]))
    with pytest.raises(ValueError, match=r"^covariance matrix must be 4x4, got \(2, 4, 4\)$"):
        SCALAR[name](stack)


def test_a_validated_stack_is_read_only(rng):
    gamma = random_pure_cm(rng)
    stack = valid_cm_stack(gamma)
    for array in stack:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    gamma[0, 0] = 2.0  # the caller's array is not frozen, and the stack does not alias it
    assert stack.cms[0, 0, 0] != 2.0


@pytest.mark.parametrize("name", QUERIES)
def test_a_stack_and_its_raw_array_give_the_same_bits(rng, name):
    gamma = random_pure_cm(rng)
    _assert_same(QUERIES[name](valid_cm_stack(gamma)), QUERIES[name](gamma))
