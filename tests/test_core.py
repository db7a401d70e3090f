"""Unit tests for the phase-space core: factorisations, flows, canonical forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import (
    lapack_restricted_svd,
    random_coupling,
    random_pure_cm,
    random_rotation_pair,
    random_symplectic,
    reference_pair_matrix,
    reference_rotation,
)
from twomode.core import (
    H0,
    HBS,
    HTMS,
    J,
    J2,
    SIGMA_Z,
    LocalRotationPair,
    NotPureError,
    _pair_matrix,
    _rsvd_angles,
    apply_symplectic,
    assert_valid_cm,
    evolve,
    generator,
    is_symplectic,
    k_from_dict,
    k_to_dict,
    kmatrix,
    matrix_from_list,
    matrix_to_list,
    pure_standard_form,
    restricted_svd,
    rotation,
    squeezed_product_cm,
    standard_form_evolution,
    two_mode_squeezed_cm,
    vacuum_cm,
    valid_cm_stack,
)
from twomode.measures import entanglement

finite_floats = st.floats(min_value=-25.0, max_value=25.0, allow_nan=False)


class TestRestrictedSVD:
    def test_preset_values(self):
        """The three reference couplings have the advertised signed spectra."""
        assert restricted_svd(H0).svals == (1.0, 0.0)
        assert restricted_svd(HBS).svals == (1.0, 1.0)
        assert restricted_svd(HTMS).svals == (1.0, -1.0)

    def test_identity_factors_trivial(self):
        r, svals, s = restricted_svd(np.eye(2))
        assert svals == (1.0, 1.0)
        assert np.allclose(r, np.eye(2)) and np.allclose(s, np.eye(2))

    def test_zero_coupling(self):
        r, svals, s = restricted_svd(np.zeros((2, 2)))
        assert svals == (0.0, 0.0)
        assert np.allclose(r, np.eye(2)) and np.allclose(s, np.eye(2))

    def test_reassembly_and_special_orthogonality(self, rng):
        for _ in range(500):
            k = random_coupling(rng, scale=rng.uniform(0.1, 5.0))
            r, svals, s = restricted_svd(k)
            assert svals.s1 >= abs(svals.s2)
            assert abs(np.linalg.det(r) - 1.0) < 1e-12
            assert abs(np.linalg.det(s) - 1.0) < 1e-12
            assert np.max(np.abs(r @ np.diag(svals) @ s - k)) < 1e-12 * max(1.0, svals.s1)

    @settings(max_examples=200, deadline=None)
    @given(a=finite_floats, b=finite_floats, c=finite_floats, d=finite_floats)
    def test_reassembly_hypothesis(self, a, b, c, d):
        """Factorising any real coupling reproduces it with SO(2) factors."""
        k = kmatrix(a=a, b=b, c=c, d=d)
        r, svals, s = restricted_svd(k)
        scale = max(1.0, svals.s1)
        assert svals.s1 >= abs(svals.s2)
        assert np.max(np.abs(r @ np.diag(svals) @ s - k)) < 1e-11 * scale
        assert np.max(np.abs(r @ r.T - np.eye(2))) < 1e-12
        assert np.max(np.abs(s @ s.T - np.eye(2))) < 1e-12

    def test_rotation_invariance_of_svals(self, rng):
        """The signed spectrum is a complete local-rotation invariant."""
        k = random_coupling(rng)
        _, ref, _ = restricted_svd(k)
        for _ in range(20):
            pair = random_rotation_pair(rng)
            _, svals, _ = restricted_svd(rotation(pair.phi1).T @ k @ rotation(pair.phi2))
            assert np.allclose([svals.s1, svals.s2], [ref.s1, ref.s2], atol=1e-12)


def _kernel_cases(rng) -> np.ndarray:
    """Random, rank-1, s1 = s2, s1 = -s2 and zero couplings at scales 1e-8 .. 1e8."""
    cases = [random_coupling(rng) for _ in range(400)]
    cases += [np.outer(rng.normal(size=2), rng.normal(size=2)) for _ in range(200)]
    conformal = [rng.uniform(0.1, 3.0) * rotation(rng.uniform(-4.0, 4.0)) for _ in range(200)]
    cases += conformal[:100] + [m @ SIGMA_Z for m in conformal[100:]]  # s1 = s2, s1 = -s2
    cases += [np.zeros((2, 2)), np.eye(2), H0, HBS, HTMS]
    base = np.array(cases)
    return np.concatenate([base * 10.0**e for e in range(-8, 9, 2)])


class TestRestrictedSVDKernel:
    """The closed-form kernel against LAPACK's SVD (``helpers.lapack_restricted_svd``)."""

    def test_matches_lapack_oracle(self, rng):
        ms = _kernel_cases(rng)
        theta, s1, s2, psi = _rsvd_angles(ms)
        assert np.all((-np.pi / 2.0 < theta) & (theta <= np.pi / 2.0))
        for m, t, v1, v2, p in zip(ms, theta, s1, s2, psi):
            r_o, (o1, o2), s_o = lapack_restricted_svd(m)
            assert abs(v1 - o1) <= 1e-12 * max(1.0, v1)
            assert abs(v2 - o2) <= 1e-12 * max(1.0, v1)
            r, s = rotation(t), rotation(p)
            assert np.max(np.abs(r @ np.diag([v1, v2]) @ s - m)) <= 4e-15 * v1
            gap = o1 - abs(o2)
            if gap <= 1e-12 * o1:
                # Degenerate spectrum (and zero): the left factor is fixed to I.
                assert t == 0.0
                continue
            # Unique up to the joint sign (R, S) -> (-R, -S); vectors carry
            # round-off amplified by s1 / gap.
            tol = 1e-12 * o1 / gap
            sign = 1.0 if np.max(np.abs(r - r_o)) <= tol else -1.0
            assert np.max(np.abs(r - sign * r_o)) <= tol
            assert np.max(np.abs(s - sign * s_o)) <= tol

    def test_stacked_equals_per_matrix_bitwise(self, rng):
        ms = _kernel_cases(rng)
        stacked = np.stack(_rsvd_angles(ms), axis=1)
        single = np.array([[float(x) for x in _rsvd_angles(m)] for m in ms])
        assert np.array_equal(stacked, single)
        grid = ms[:60].reshape(3, 20, 2, 2)
        assert np.array_equal(np.stack(_rsvd_angles(grid), axis=-1).reshape(60, 4), single[:60])


class TestGenerator:
    @pytest.mark.parametrize(
        "k, alpha", [(H0, 0.0), (HTMS, 1.0), (HBS, -1.0), (np.zeros((2, 2)), 0.0)]
    )
    def test_alpha_values(self, k, alpha):
        assert generator(k).alpha == pytest.approx(alpha, abs=1e-15)

    def test_m_squared_is_alpha_identity(self, rng):
        for _ in range(300):
            gen = generator(random_coupling(rng, scale=rng.uniform(0.1, 4.0)))
            assert np.max(np.abs(gen.M @ gen.M - gen.alpha * np.eye(4))) < 1e-12 * max(
                1.0, abs(gen.alpha)
            )

    def test_l_tilde_relation(self, rng):
        gen = generator(random_coupling(rng))
        assert np.allclose(gen.L_tilde, -J @ gen.L.T @ J.T, atol=1e-14)


def _batches(rng, shape):
    """Angles of magnitude 1e-300 to 1e300, both signs, and exact zeros of both signs, in batches of
    ``shape``; a shape of size 0 gets one empty batch."""
    magnitudes = 10.0 ** rng.uniform(-300.0, 300.0, 200)
    angles = np.concatenate([magnitudes * rng.choice([-1.0, 1.0], 200), [0.0, -0.0]])
    size = math.prod(shape)
    return np.resize(angles, (-(-len(angles) // size) if size else 1,) + shape)


class TestStackedRotations:
    """``rotation`` and ``_pair_matrix`` are batches of one: every entry has the bits of the scalar
    ``math.cos`` / ``math.sin`` reference, at any batch shape."""

    @pytest.mark.parametrize("shape", [(), (0,), (7,), (7, 2)])
    def test_rotation_matches_scalar_reference(self, rng, shape):
        for phi in _batches(rng, shape):
            got = rotation(phi)
            assert got.shape == shape + (2, 2)
            want = [reference_rotation(x) for x in np.ravel(phi).tolist()]
            assert got.tobytes() == np.array(want).reshape(got.shape).tobytes()

    @pytest.mark.parametrize("shape", [(), (0,), (7,), (7, 2)])
    def test_pair_matrix_matches_scalar_reference(self, rng, shape):
        for phi in _batches(rng, shape + (2,)):
            got = _pair_matrix(phi)
            assert got.shape == shape + (4, 4)
            want = [reference_pair_matrix(*pair) for pair in phi.reshape(-1, 2).tolist()]
            assert got.tobytes() == np.array(want).reshape(got.shape).tobytes()

    def test_signed_zeros(self):
        """``-sin(+0)`` is ``-0`` and ``-sin(-0)`` is ``+0``, as in the scalar form."""
        plus, minus = rotation(np.array([0.0, -0.0]))
        assert np.signbit(plus).tolist() == [[False, True], [False, False]]
        assert np.signbit(minus).tolist() == [[False, False], [True, False]]
        pair = _pair_matrix([0.0, -0.0])
        assert np.signbit(pair[:2, :2]).tolist() == np.signbit(plus).tolist()
        assert np.signbit(pair[2:, 2:]).tolist() == np.signbit(minus).tolist()


class TestEvolve:
    def test_matches_exponential_oracle(self, rng):
        """Closed-form flow equals scaling-and-squaring expm over random inputs."""
        for _ in range(10_000):
            k = random_coupling(rng, scale=rng.uniform(0.05, 3.0))
            t = rng.uniform(-2.0, 2.0)
            s = evolve(k, t)
            scale = max(1.0, float(np.max(np.abs(s))))
            assert np.max(np.abs(s - expm(generator(k).M * t))) < 1e-9 * scale
            assert is_symplectic(s)
            assert np.linalg.det(s) == pytest.approx(1.0, abs=1e-9 * scale**4)

    def test_degenerate_alpha_branch(self):
        """Every alpha != 0 takes its exact branch, however small and however long the time."""
        for eps in (0.0, 1e-13, -1e-13, 1e-9, -1e-9):
            k = kmatrix(a=1.0, b=eps)  # det K = eps
            s = evolve(k, 1.7)
            assert np.max(np.abs(s - expm(generator(k).M * 1.7))) < 1e-11
        for k, t in ((3e-7 * HTMS, 1e7), (kmatrix(a=1.0, b=1e-13), 1e6), (kmatrix(a=1.0, b=-1e-13), 1e6)):
            s = evolve(k, t)
            assert np.max(np.abs(s - expm(generator(k).M * t))) <= 1e-9 * np.max(np.abs(s))

    def test_h0_flow_shape(self):
        t = 0.7
        expected = np.eye(4)
        expected[1, 2] = -t
        expected[3, 0] = -t
        assert np.allclose(evolve(H0, t), expected, atol=1e-15)

    def test_beam_splitter_swap(self):
        """A quarter period of the beam splitter exchanges the modes (with signs)."""
        s = evolve(HBS, np.pi / 2.0)
        point = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(s @ point, [-3.0, -4.0, 1.0, 2.0], atol=1e-12)

    def test_zero_time(self, rng):
        assert np.allclose(evolve(random_coupling(rng), 0.0), np.eye(4))

    def test_semigroup(self, rng):
        for _ in range(100):
            k = random_coupling(rng)
            t1, t2 = rng.uniform(-1.0, 1.0, size=2)
            lhs = evolve(k, t1 + t2)
            rhs = evolve(k, t1) @ evolve(k, t2)
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(lhs)))


class TestIsSymplectic:
    def test_three_mode_matrices(self):
        s = np.eye(6)
        s[2:, 2:] = evolve(H0, 0.3)  # couples modes 2 and 3, mode 1 idle
        assert is_symplectic(s)
        assert not is_symplectic(np.diag([1.0, -1.0, 1.0, 1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("shape", [(0, 0), (3, 3), (5, 5), (4, 6), (6, 4), (4,), (2, 4, 4)])
    def test_other_shapes_are_not_symplectic(self, shape):
        s = np.zeros(shape)
        if len(shape) == 2:
            s[: min(shape), : min(shape)] = np.eye(min(shape))
        assert not is_symplectic(s)


class TestStandardFormEvolution:
    def test_h0_factors(self):
        sf = standard_form_evolution(H0, 0.9)
        assert np.allclose(sf.O1, J, atol=1e-12)
        assert np.allclose(sf.O2, -np.eye(2), atol=1e-12)
        assert sf.prefactor == pytest.approx(1.0)
        assert sf.h1 == pytest.approx(0.9)
        assert sf.h2 == pytest.approx(0.0, abs=1e-15)

    def test_zero_time_trivial(self, rng):
        sf = standard_form_evolution(random_coupling(rng), 0.0)
        assert sf.prefactor == pytest.approx(1.0)
        assert sf.h1 == pytest.approx(0.0, abs=1e-15)
        assert sf.h2 == pytest.approx(0.0, abs=1e-15)

    def test_two_mode_squeezer_reassembly(self):
        sf = standard_form_evolution(HTMS, 0.3)
        oracle = expm(generator(HTMS).M * 0.3)
        assert np.max(np.abs(sf.assemble() - oracle)) < 1e-10

    def test_random_reassembly(self, rng):
        for _ in range(300):
            k = random_coupling(rng, scale=rng.uniform(0.1, 3.0))
            t = rng.uniform(-1.5, 1.5)
            sf = standard_form_evolution(k, t)
            target = evolve(k, t)
            assert np.max(np.abs(sf.assemble() - target)) < 1e-9 * max(1.0, np.max(np.abs(target)))


class TestApplySymplectic:
    def test_identity_leaves_state(self, rng):
        g = random_pure_cm(rng)
        assert np.allclose(apply_symplectic(np.eye(4), g), g)

    def test_determinant_preserved(self, rng):
        for _ in range(200):
            g = random_pure_cm(rng)
            s = random_symplectic(rng)
            out = apply_symplectic(s, g)
            assert np.allclose(out, out.T)
            assert np.linalg.det(out) == pytest.approx(np.linalg.det(g), rel=1e-9)

    def test_h0_window_on_vacuum(self):
        """One position-position window grows the momenta at second order."""
        t = 0.05
        g = apply_symplectic(evolve(H0, t), vacuum_cm())
        expected = evolve(H0, t) @ evolve(H0, t).T
        assert np.allclose(g, expected, atol=1e-14)
        assert g[1, 1] == pytest.approx(1.0 + t * t)
        assert g[1, 2] == pytest.approx(-t)

    def test_simulated_squeezer_reaches_tms_state(self):
        """The two-mode squeezer flow applied to vacuum has the standard invariants."""
        t = 0.35
        g = apply_symplectic(evolve(HTMS, t), vacuum_cm())
        ref = two_mode_squeezed_cm(t)
        # Same rotation-invariant content: equal reduced blocks and purity.
        assert np.linalg.det(g[:2, :2]) == pytest.approx(np.linalg.det(ref[:2, :2]), rel=1e-12, abs=0.0)
        assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-12)
        assert pure_standard_form(g).r == pytest.approx(2.0 * t, abs=1e-10)


class TestCovarianceHelpers:
    def test_vacuum_is_identity(self):
        assert np.array_equal(vacuum_cm(), np.eye(4))

    def test_tms_cm_entries(self):
        g = two_mode_squeezed_cm(0.4)
        assert g[0, 0] == pytest.approx(np.cosh(0.8))
        assert g[0, 2] == pytest.approx(np.sinh(0.8))
        assert g[1, 3] == pytest.approx(-np.sinh(0.8))
        assert valid_cm_stack(g, pure=True)

    def test_squeezed_product(self):
        g = squeezed_product_cm(0.7, 0.2)
        assert np.linalg.eigvalsh(g)[0] == pytest.approx(np.exp(-0.7))
        assert valid_cm_stack(g, pure=True)

    def test_invalid_cm_rejected(self):
        with pytest.raises(ValueError):
            assert_valid_cm(np.diag([0.1, 0.1, 0.1, 0.1]))  # det < 1
        bad = np.eye(4)
        bad[0, 1] = 0.5  # not symmetric
        with pytest.raises(ValueError):
            assert_valid_cm(bad)

    def test_matrix_json_roundtrip(self, rng):
        g = random_pure_cm(rng)
        assert np.allclose(matrix_from_list(matrix_to_list(g)), g)

    def test_k_json_roundtrip(self):
        k = kmatrix(a=0.3, b=-1.2, c=0.7, d=2.0)
        assert np.allclose(k_from_dict(k_to_dict(k)), k)


class TestLocalRotationPair:
    def test_blocks_are_special_orthogonal(self, rng):
        pair = random_rotation_pair(rng)
        for block in (rotation(pair.phi1), rotation(pair.phi2)):
            assert np.allclose(block @ block.T, np.eye(2), atol=1e-15)
            assert np.linalg.det(block) == pytest.approx(1.0)

    def test_compose_then_inverse(self, rng):
        a, b = random_rotation_pair(rng), random_rotation_pair(rng)
        a_inv, b_inv = LocalRotationPair(-a.phi1, -a.phi2), LocalRotationPair(-b.phi1, -b.phi2)
        net = a.compose(b).compose(b_inv).compose(a_inv)
        assert np.allclose(net.matrix, np.eye(4), atol=1e-12)


class TestPureStandardForm:
    def test_vacuum_trivial(self):
        form = pure_standard_form(vacuum_cm())
        assert form.r == 0.0
        assert form.is_product
        assert np.allclose(form.S1 @ form.S1.T, np.eye(2), atol=1e-12)
        assert np.allclose(form.S2 @ form.S2.T, np.eye(2), atol=1e-12)

    def test_tms_state(self):
        form = pure_standard_form(two_mode_squeezed_cm(0.6))
        assert form.r == pytest.approx(1.2, abs=1e-12)
        for s in (form.S1, form.S2):
            assert np.allclose(s @ s.T, np.eye(2), atol=1e-10)  # rotations only

    def test_squeezed_light_input(self):
        """Single-mode squeezed input: no entanglement, local factor in mode 2."""
        form = pure_standard_form(squeezed_product_cm(0.0, 2.5))
        assert form.r == 0.0
        assert form.is_product
        p2 = form.S2 @ form.S2.T
        assert np.allclose(np.sort(np.linalg.eigvalsh(p2)), [np.exp(-2.5), np.exp(2.5)])

    def test_roundtrip_on_random_pure_states(self, rng):
        for _ in range(400):
            g = random_pure_cm(rng)
            form = pure_standard_form(g)
            scale = max(1.0, float(np.max(np.abs(g))))
            assert np.max(np.abs(form.assemble() - g)) < 1e-8 * scale
            for s in (form.S1, form.S2):
                assert np.linalg.det(s) == pytest.approx(1.0, abs=1e-9)

    def test_r_is_the_entanglement_r(self, rng):
        """Both branches read ``r`` through ``_pure_r``: bit-equal to ``entanglement().r``,
        also on near-product states that take the product branch (``r < PRODUCT_R``)."""
        states = [random_pure_cm(rng) for _ in range(200)]
        for eps in (2e-12, 1e-11, 2e-11, 4e-11, 1e-9, 1e-6):
            local = np.diag(np.exp(np.repeat(rng.uniform(-0.5, 0.5, size=2), 2) * [1, -1, 1, -1]))
            states.append(apply_symplectic(random_rotation_pair(rng).matrix @ local, two_mode_squeezed_cm(eps)))
        assert any(pure_standard_form(g).is_product and entanglement(g).r > 0.0 for g in states)
        for g in states:
            assert pure_standard_form(g).r == entanglement(g).r

    def test_mixed_state_rejected(self):
        with pytest.raises(NotPureError):
            pure_standard_form(2.0 * np.eye(4))

    def test_product_flag(self, rng):
        assert pure_standard_form(squeezed_product_cm(1.0, 0.3)).is_product
        assert not pure_standard_form(two_mode_squeezed_cm(0.2)).is_product


class TestFlowProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
        c=st.floats(-3, 3),
        d=st.floats(-3, 3),
        t=st.floats(-2, 2),
    )
    def test_flow_is_symplectic(self, a, b, c, d, t):
        """Every bilinear flow preserves the symplectic form."""
        s = evolve(kmatrix(a=a, b=b, c=c, d=d), t)
        scale = max(1.0, float(np.max(np.abs(s))))
        assert np.max(np.abs(s @ J2 @ s.T - J2)) < 1e-10 * scale * scale
