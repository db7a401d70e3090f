"""The standard-form parameter ``r`` against an exact-arithmetic oracle.

The oracle multiplies the same float step matrices the code uses, exactly,
with :class:`fractions.Fraction`, and reads ``r = asinh(sqrt(-det C))`` of the
exact CM to 60 digits with :mod:`decimal`.  Near product states ``r`` must
keep every digit: ``E0``, ``entanglement().r``, its entropy and
``pure_standard_form().r`` agree with the oracle to 1e-14 relative (``abs=0``:
``pytest.approx`` would otherwise also accept anything within 1e-12).
"""

from __future__ import annotations

import json
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from twomode.cli import main
from twomode.core import (
    H0,
    LocalRotationPair,
    evolve,
    pure_standard_form,
    squeezed_product_cm,
    two_mode_squeezed_cm,
)
from twomode.measures import entanglement, report_columns
from twomode.protocols import flip_strategy, run_protocol

REL = 1e-14
STEPS = 100003
TMS_R = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 3.0, 6.5)


def exact(m) -> list[list[Fraction]]:
    return [[Fraction(float(x)) for x in row] for row in np.asarray(m, dtype=float)]


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a):
    return [list(row) for row in zip(*a)]


def oracle(cm) -> tuple[float, float]:
    """``(r, entropy)`` of an exact pure CM: ``sinh(r)^2 = x = -det C`` and
    ``s = sinh(r/2)^2 = x / (2 (sqrt(1 + x) + 1))``."""
    x = -(cm[0][2] * cm[1][3] - cm[0][3] * cm[1][2])
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(x.numerator) / Decimal(x.denominator)
        cosh_r = (1 + x).sqrt()
        r = (x.sqrt() + cosh_r).ln()
        s = x / (2 * (cosh_r + 1))
        entropy = (1 + s) * (1 + s).ln() - s * s.ln()
        return float(r), float(entropy)


def flip_nodes(count: int):
    """Nodes ``1 .. count`` of the flip strategy on ``H0`` from ``squeezed:0.5,0.2``
    with ``dt = 1/STEPS``: the exact CMs and the code's own trajectory."""
    gamma0 = squeezed_product_cm(0.5, 0.2)
    dt = 1.0 / STEPS
    first, flip = LocalRotationPair(), LocalRotationPair(np.pi / 2.0, 3.0 * np.pi / 2.0)
    steps = [exact(evolve(H0, dt) @ first.matrix)] + [exact(evolve(H0, dt) @ flip.matrix)] * (count - 1)
    product, cms = exact(np.eye(4)), []
    for step in steps:
        product = matmul(step, product)
        cms.append(matmul(matmul(product, exact(gamma0)), transpose(product)))
    traj = run_protocol(gamma0, flip_strategy(H0, 1.0, STEPS))
    return cms, traj.cms[1 : count + 1]


@pytest.fixture(scope="module")
def flip_cases():
    exact_cms, cms = flip_nodes(7)
    return [oracle(cm) for cm in exact_cms], cms


def check(cms, want):
    """Every reader of ``r`` agrees with the oracle ``want = [(r, entropy), ...]``."""
    column = report_columns(cms, H0)["E0"]
    for gamma, e0, (r, entropy) in zip(cms, column, want):
        assert 0.0 < r
        assert e0 == pytest.approx(r, rel=REL, abs=0.0)
        report = entanglement(gamma)
        assert report.r == pytest.approx(r, rel=REL, abs=0.0)
        assert report.entropy == pytest.approx(entropy, rel=REL, abs=0.0)
        assert pure_standard_form(gamma).r == pytest.approx(r, rel=REL, abs=0.0)


def test_flip_nodes_near_a_product_state(flip_cases):
    """E0 grows from about 7e-6 to 7e-5 over the first seven flip nodes."""
    want, cms = flip_cases
    assert want[0][0] < 1e-5 and want[-1][0] < 1e-4
    check(cms, want)


def test_two_mode_squeezed_states():
    cms = np.stack([two_mode_squeezed_cm(r / 2.0) for r in TMS_R])
    check(cms, [oracle(exact(g)) for g in cms])


def test_cli_measure_reads_r_to_full_precision(capsys):
    assert main(["measure", "--state", "tms:0.00001"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["r"] == pytest.approx(2e-5, rel=1e-15, abs=0.0)
    assert out["E0"] == out["r"]
