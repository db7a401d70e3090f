"""Single-state queries repeat no work: the restricted-SVD kernel runs its
degenerate branch only when an entry needs it, validation carries the 2x2
block determinants that its readers need, and a query makes each kernel call
once.  Every output stays bit-identical to the unconditional kernel
(``helpers.reference_rsvd_angles``) and to ``det2`` of the blocks.
"""

import json

import numpy as np
import pytest

import twomode.cli
import twomode.core
import twomode.rates
from helpers import random_coupling, random_pure_cm, reference_rsvd_angles
from test_core import _kernel_cases
from twomode.core import (
    _SPLIT,
    SIGMA_Z,
    _rsvd_angles,
    det2,
    matrix_to_list,
    pure_standard_form,
    rotation,
    squeezed_product_cm,
    two_mode_squeezed_cm,
    valid_cm_stack,
)
from twomode.measures import entanglement, negativity
from twomode.rates import optimal_entanglement_rate


def _bits(outputs):
    return [(np.shape(x), np.asarray(x).tobytes()) for x in outputs]


def _rotations(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.moveaxis(np.array([[c, -s], [s, c]]), -1, 0)


class TestKernelBits:
    def test_kernel_cases_match_the_reference(self, rng):
        ms = _kernel_cases(rng)
        assert _bits(_rsvd_angles(ms)) == _bits(reference_rsvd_angles(ms))
        for m in ms[::5]:
            assert _bits(_rsvd_angles(m)) == _bits(reference_rsvd_angles(m))

    def test_random_and_near_degenerate_matrices_match_the_reference(self, rng):
        n = 10**5
        ms = rng.normal(size=(n, 2, 2)) * 10.0 ** rng.integers(-6, 7, size=(n, 1, 1))
        ms[::10], ms[1::10] = np.eye(2), 0.0
        size = len(ms[2::10])
        scale = rng.uniform(0.1, 3.0, size=(size, 1, 1))
        conformal = scale * _rotations(rng.uniform(-4.0, 4.0, size))
        ms[2::10] = conformal * (1.0 + 1e-14 * rng.normal(size=(size, 1, 1)))
        ms[3::10] = conformal @ SIGMA_Z + 1e-14 * scale * _rotations(rng.uniform(-4.0, 4.0, size))
        ms[4::10] = conformal + 1e-13 * scale * _rotations(rng.uniform(-4.0, 4.0, size)) @ SIGMA_Z
        assert _bits(_rsvd_angles(ms)) == _bits(reference_rsvd_angles(ms))
        assert _bits(_rsvd_angles(ms.reshape(100, -1, 2, 2))) == _bits(
            reference_rsvd_angles(ms.reshape(100, -1, 2, 2))
        )

    @pytest.mark.parametrize("phi", [0.0, 0.7, -2.9, np.pi])
    def test_degenerate_anticonformal_psi_is_minus_beta(self, phi):
        """``c R(phi) sz`` plus a 1e-14 conformal part: ``r > q``, degenerate, ``psi = -beta``."""
        m = 1.7 * rotation(phi) @ SIGMA_Z + 1e-14 * np.eye(2)
        x = m.reshape(4) @ _SPLIT
        beta = np.arctan2(x[2:], x[:2])[1]
        theta, s1, s2, psi = _rsvd_angles(m)
        assert theta == 0.0 and s2 < 0.0
        assert psi.tobytes() == (0.0 - beta).tobytes()
        if phi != 0.0:
            assert psi.tobytes() == (-beta).tobytes()
        assert np.max(np.abs(rotation(theta) @ np.diag([s1, s2]) @ rotation(psi) - m)) <= 5e-14
        assert _bits((theta, s1, s2, psi)) == _bits(reference_rsvd_angles(m))


def _mixed_and_pure(rng):
    pure = [random_pure_cm(rng) for _ in range(40)]
    return np.stack(pure + [g + 0.25 * np.eye(4) for g in pure[:10]] + [squeezed_product_cm(0.3, -0.8)])


class TestCarriedBlockDeterminants:
    def test_blocks_are_det2_of_the_three_blocks(self, rng):
        stack = valid_cm_stack(_mixed_and_pure(rng))
        c = stack.cms
        assert stack.blocks.shape == (len(c), 2, 2)
        for (i, j), block in {
            (0, 0): c[:, :2, :2],
            (1, 1): c[:, 2:, 2:],
            (0, 1): c[:, :2, 2:],
            (1, 0): c[:, 2:, :2],
        }.items():
            assert stack.blocks[:, i, j].tobytes() == det2(block).tobytes()

    @pytest.mark.parametrize(
        "query", [entanglement, negativity, pure_standard_form], ids=lambda f: f.__name__
    )
    def test_queries_read_the_carried_blocks(self, monkeypatch, query):
        """The one ``det2`` in ``core`` a query runs is the validation's."""
        calls = []
        monkeypatch.setattr(twomode.core, "det2", lambda m: calls.append(m.shape) or det2(m))
        query(two_mode_squeezed_cm(0.4))
        assert calls == [(1, 2, 2, 2, 2)]


class TestKernelCalls:
    @staticmethod
    def _count(monkeypatch):
        calls = []
        kernel = twomode.rates._rsvd_angles
        monkeypatch.setattr(twomode.rates, "_rsvd_angles", lambda m: calls.append(m.shape) or kernel(m))
        return calls

    def test_product_state_rate_makes_three_kernel_calls(self, monkeypatch, rng):
        """``L``, ``Y`` and both local blocks in one stacked call (two calls before)."""
        calls = self._count(monkeypatch)
        plan = optimal_entanglement_rate(squeezed_product_cm(0.4, -0.9), random_coupling(rng))
        assert plan.Y is None
        assert calls == [(2, 2), (1, 2, 2), (2, 1, 2, 2)]

    def test_entangled_state_rate_makes_two_kernel_calls(self, monkeypatch, rng):
        gamma, k = random_pure_cm(rng), random_coupling(rng)
        calls = self._count(monkeypatch)
        monkeypatch.setattr(twomode.core, "Generator", lambda **kw: pytest.fail("a Generator was built"))
        optimal_entanglement_rate(gamma, k)
        assert calls == [(2, 2), (1, 2, 2)]


class TestOneDecompositionPerJsonState:
    @pytest.mark.parametrize("pure", [False, True])
    def test_a_valid_state_runs_one_eigvalsh(self, monkeypatch, tmp_path, rng, pure):
        path = tmp_path / "state.json"
        gamma = random_pure_cm(rng)
        path.write_text(json.dumps({"cm": matrix_to_list(gamma)}))
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        assert np.array_equal(twomode.cli._parse_state(str(path), pure).cms, valid_cm_stack(gamma).cms)
        assert calls == [(1, 4, 4), (1, 4, 4)]  # the parse, then the comparison's own

    def test_a_refused_state_in_range_keeps_its_refusal(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"cm": matrix_to_list(0.5 * np.eye(4))}))
        with pytest.raises(ValueError, match="det >= 1"):
            twomode.cli._parse_state(str(path))
