"""The CM primitives, each written once: the symplectic congruence over stacks
and the validator's purity check."""

import numpy as np
import pytest

from helpers import random_passive, random_pure_cm, random_symplectic
from twomode.core import (
    PURITY_TOL,
    NotPureError,
    apply_symplectic,
    pure_standard_form,
    two_mode_squeezed_cm,
    valid_cm_stack,
)
from twomode.protocols import extend_with_ancillas


class TestStackedCongruence:
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_stack_of_maps_is_bit_equal_to_per_matrix_calls(self, rng, n):
        maps = np.stack([random_symplectic(rng) for _ in range(n)])
        gamma = random_pure_cm(rng)
        out = apply_symplectic(maps, gamma)
        assert out.shape == (n, 4, 4)
        for s, node in zip(maps, out):
            assert np.array_equal(node, apply_symplectic(s, gamma))

    def test_paired_stacks_are_bit_equal_to_per_matrix_calls(self, rng):
        maps = np.stack([random_symplectic(rng) for _ in range(20)])
        cms = np.stack([random_pure_cm(rng) for _ in range(20)])
        out = apply_symplectic(maps, cms)
        for s, gamma, node in zip(maps, cms, out):
            assert np.array_equal(node, apply_symplectic(s, gamma))

    def test_stacked_nodes_are_exactly_symmetric(self, rng):
        maps = np.stack([random_symplectic(rng, tmax=2.0) for _ in range(30)])
        out = apply_symplectic(maps, random_pure_cm(rng))
        assert np.array_equal(out, out.transpose(0, 2, 1))

    def test_ancilla_cm(self, rng):
        """The 6x6 passive mixing of ``extend_with_ancillas`` is the same congruence."""
        gamma = random_pure_cm(rng)
        big = np.eye(6)
        big[:4, :4] = gamma
        passives = np.stack([random_passive(3, rng) for _ in range(5)])
        for o in passives:
            ext = extend_with_ancillas(gamma, 1, o)
            assert np.array_equal(ext, apply_symplectic(o.T, big))
        stacked = apply_symplectic(passives.transpose(0, 2, 1), big)
        for o, node in zip(passives, stacked):
            assert np.array_equal(node, apply_symplectic(o.T, big))

    def test_standard_form_assembles_through_the_congruence(self, rng):
        form = pure_standard_form(random_pure_cm(rng))
        s = np.zeros((4, 4))
        s[:2, :2], s[2:, 2:] = form.S1, form.S2
        expected = apply_symplectic(s, two_mode_squeezed_cm(form.r / 2.0))
        assert np.array_equal(form.assemble(), expected)


class TestPurityCheck:
    def test_stack_names_the_first_impure_node(self, rng):
        cms = np.stack([random_pure_cm(rng), 1.2 * np.eye(4), random_pure_cm(rng), 1.5 * np.eye(4)])
        det = valid_cm_stack(cms).dets[1]
        with pytest.raises(NotPureError, match=r"^state is not pure: det\(gamma\) = (.+)$") as info:
            valid_cm_stack(cms, pure=True)
        assert str(info.value) == "state is not pure: det(gamma) = %.12g" % det
        assert det == pytest.approx(1.2**4)

    def test_pure_stack_passes_and_keeps_its_determinants(self, rng):
        cms = np.stack([random_pure_cm(rng) for _ in range(10)])
        stack = valid_cm_stack(cms, pure=True)
        assert np.array_equal(stack.dets, valid_cm_stack(cms).dets)
        assert np.all(np.abs(stack.dets - 1.0) <= PURITY_TOL)

    @pytest.mark.parametrize("excess, pure", [(0.5, True), (2.0, False)])
    def test_purity_tolerance(self, excess, pure):
        gamma = (1.0 + excess * PURITY_TOL) ** 0.25 * two_mode_squeezed_cm(0.3)
        if pure:
            valid_cm_stack(gamma, pure=True)
        else:
            with pytest.raises(NotPureError):
                valid_cm_stack(gamma, pure=True)

    def test_standard_form_refuses_a_mixed_state(self):
        with pytest.raises(NotPureError, match=r"det\(gamma\) = 5.0625$"):
            pure_standard_form(1.5 * np.eye(4))

    def test_standard_form_refuses_a_stack(self, rng):
        with pytest.raises(ValueError, match=r"must be 4x4, got \(2, 4, 4\)"):
            pure_standard_form(np.stack([random_pure_cm(rng)] * 2))
