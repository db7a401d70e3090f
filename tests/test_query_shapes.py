"""Scalar state queries answer for one CM and refuse a stack of them."""

import numpy as np
import pytest

from twomode.core import H0, LocalRotationPair, two_mode_squeezed_cm
from twomode.measures import entanglement, negativity
from twomode.rates import entanglement_rate, local_squeezing_parameter, optimal_entanglement_rate

QUERIES = [
    entanglement,
    negativity,
    local_squeezing_parameter,
    lambda g: optimal_entanglement_rate(g, H0),
    lambda g: entanglement_rate(g, H0, LocalRotationPair()),
]


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("count", [1, 2])
def test_stack_is_refused(query, count):
    stack = np.stack([two_mode_squeezed_cm(0.1 * (j + 1)) for j in range(count)])
    with pytest.raises(ValueError, match=r"covariance matrix must be 4x4, got \(%d, 4, 4\)" % count):
        query(stack)


@pytest.mark.parametrize("query", QUERIES)
def test_single_cm_is_answered(query):
    query(two_mode_squeezed_cm(0.3))


def test_entanglement_reads_the_given_state():
    assert entanglement(two_mode_squeezed_cm(0.45)).r == pytest.approx(0.9, rel=1e-12, abs=0.0)
