import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import stabcert as sc
from stabcert import (
    DegenerateShift,
    DimensionMismatch,
    NotInvertible,
    Singular,
    SingularBlock,
    TooFewSamples,
    Underflow,
    ZeroFrequency,
)
from stabcert import verify
from stabcert.verify import _RESOLVENT_STACK_BYTES, _resolvent_norms, _sweep_norms

from helpers import (
    assemble_shifted,
    haar_unitary,
    random_block_system,
    random_coercive,
    random_rank_matrix,
    random_skew,
)


class TestAssembleGenerator:
    def test_scalar_damped(self):
        B = sc.assemble_generator([[1.0]], [[1.0]])
        assert np.allclose(B, [[-1.0, 1.0], [-1.0, 0.0]])

    def test_undamped_is_skew(self):
        B = sc.assemble_generator([[0.0]], [[1.0]])
        assert np.allclose(B, [[0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(B + B.conj().T, 0)

    def test_no_coupling(self):
        g = np.array([[1.0, 0.2], [0.0, 2.0]])
        B = sc.assemble_generator(g, np.zeros((2, 2)))
        assert np.allclose(B[:2, :2], -g)
        assert np.allclose(B[:2, 2:], 0)
        assert np.allclose(B[2:, :], np.hstack([np.zeros((2, 2)), np.zeros((2, 2))]))


class TestMDissipative:
    def test_scalar_damped(self):
        rep = sc.check_m_dissipative([[-1.0, 1.0], [-1.0, 0.0]])
        assert rep.dissipative
        assert rep.max_re_quadratic == pytest.approx(0.0, abs=1e-14)
        assert rep.shifted_invertible

    def test_growing_direction_detected(self):
        rep = sc.check_m_dissipative([[1.0, 0.0], [0.0, 0.0]])
        assert not rep.dissipative
        assert rep.max_re_quadratic == pytest.approx(1.0)

    def test_semidefinite_damping_is_dissipative(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            n0 = int(rng.integers(1, 5))
            n1 = int(rng.integers(1, 5))
            Q = haar_unitary(rng, n0)
            gamma = Q @ np.diag(rng.uniform(0.0, 2.0, n0)) @ Q.conj().T + random_skew(rng, n0)
            D = rng.standard_normal((n1, n0)) + 1j * rng.standard_normal((n1, n0))
            rep = sc.check_m_dissipative(sc.assemble_generator(gamma, D))
            assert rep.dissipative
            assert rep.shifted_invertible


class TestResolventNorm:
    def test_golden_ratio_peak(self):
        B = np.array([[-1.0, 1.0], [-1.0, 0.0]])
        # Oracle: B^-1 = [[0, -1], [1, -1]]; its largest singular value is
        # sqrt((3 + sqrt 5)/2), the golden ratio.
        phi = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)
        assert phi == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-14)
        assert sc.resolvent_norm(B, 0.0) == pytest.approx(phi, abs=1e-12)

    def test_spectrum_detected(self):
        B = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(Singular):
            sc.resolvent_norm(B, 1j)

    def test_far_field_decay(self):
        rng = np.random.default_rng(63)
        B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        z = 1e3 * sc.operator_norm(B) * np.exp(0.3j)
        value = sc.resolvent_norm(B, z)
        assert abs(value - 1.0 / abs(z)) <= 0.01 / abs(z)


def _per_point_norms(B, zs):
    """Reference: one SVD per frequency, as 1/sigma_min(z I - B)."""
    out = []
    for z in zs:
        s = np.linalg.svd(z * np.eye(B.shape[0]) - B, compute_uv=False)
        out.append(1.0 / s[-1])
    return np.array(out)


def _corpus_generator():
    """Restricted generator of the first rank >= 1 system of the acceptance corpus."""
    rng = np.random.default_rng(20260810)
    r = 0
    while r == 0:
        n0, n1 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        r = int(rng.integers(0, min(n0, n1) + 1))
        system = random_block_system(rng, n0, n1, r)
    ns = sc.normalize_system(system)
    return sc.restricted_generator(ns.gamma_tilde, sc.decompose(ns.D))


class TestResolventNorms:
    def test_scalar_and_corpus_match_per_point_svd_bit_for_bit(self):
        lambdas = np.linspace(-50.0, 50.0, 401)
        for B in (sc.assemble_generator([[1.0]], [[1.0]]), _corpus_generator()):
            for a in (0.0, -0.0123):
                zs = a + 1j * lambdas
                norms, singular = _resolvent_norms(B, zs)
                assert not singular.any()
                assert np.array_equal(norms, _per_point_norms(B, zs))

    def test_grid_generator_across_chunks_bit_for_bit(self):
        s = sc.build_maxwell_system(sc.GridSpec(N=3))
        ns = sc.normalize_system(s)
        B = sc.restricted_generator(ns.gamma_tilde, sc.decompose(ns.D))
        chunk = _RESOLVENT_STACK_BYTES // (16 * B.shape[0] ** 2)
        points = chunk + chunk // 2 + 1
        assert 1 < chunk < points and points % chunk
        zs = -0.01 + 1j * np.linspace(-3.0, 3.0, points)
        norms, singular = _resolvent_norms(B, zs)
        assert not singular.any()
        assert np.array_equal(norms, _per_point_norms(B, zs))

    def test_singular_mask_matches_resolvent_norm(self):
        B = sc.assemble_generator([[0.0]], [[1.0]])
        zs = 1j * np.linspace(-2.0, 2.0, 401)
        norms, singular = _resolvent_norms(B, zs)
        raised = []
        for z in zs:
            try:
                sc.resolvent_norm(B, z)
                raised.append(False)
            except Singular:
                raised.append(True)
        assert np.array_equal(singular, raised)
        assert np.isclose(zs[singular].imag, [-1.0, 1.0]).all()
        assert np.all(np.isinf(norms[singular]))
        assert np.all(np.isfinite(norms[~singular]))

    def test_empty_generator(self):
        norms, singular = _resolvent_norms(np.zeros((0, 0), dtype=complex), [0.5, 1j])
        assert norms.tolist() == [0.0, 0.0]
        assert not singular.any()


class TestGpSweep:
    def test_scalar_damped_peak(self):
        B = np.array([[-1.0, 1.0], [-1.0, 0.0]])
        rep = sc.gp_sweep(B, 0.0, 10.0, 201)
        assert rep.n_singular == 0
        assert rep.max_norm >= 1.618 - 1e-4
        assert np.all(np.diff(rep.lambdas) > 0)
        assert rep.max_norm == float(np.max(rep.norms))
        assert 0.0 in rep.lambdas

    def test_skew_generator_singular_on_axis(self):
        B = sc.assemble_generator([[0.0]], [[1.0]])
        rep = sc.gp_sweep(B, 0.0, 2.0, 401)
        assert rep.n_singular >= 2
        assert np.any(np.isclose(rep.singular_points, 1.0))
        assert np.any(np.isclose(rep.singular_points, -1.0))

    def test_interior_half_plane_bound(self):
        # For any contraction generator the resolvent at Re z = 1 is at most 1.
        B = np.array([[-1.0, 1.0], [-1.0, 0.0]])
        rep = sc.gp_sweep(B, 1.0, 10.0, 101)
        assert rep.n_singular == 0
        assert rep.max_norm <= 1.0 + 1e-10

    def test_even_point_count_is_bumped_to_odd(self):
        B = np.array([[-1.0]])
        rep = sc.gp_sweep(B, 0.0, 1.0, 10)
        assert rep.lambdas.size == 11
        assert 0.0 in rep.lambdas


def _grid_generator(**materials):
    ns = sc.normalize_system(sc.build_maxwell_system(sc.GridSpec(N=3), **materials))
    return sc.restricted_generator(ns.gamma_tilde, sc.decompose(ns.D))


def _dense_points(monkeypatch):
    """Spy on the dense fallback: the number of points handed to each call."""
    sizes = []

    def spy(B, zs):
        sizes.append(np.asarray(zs).size)
        return _resolvent_norms(B, zs)

    monkeypatch.setattr(verify, "_resolvent_norms", spy)
    return sizes


class TestSweepEngine:
    """The sweep engine against the dense SVD, :func:`_resolvent_norms`."""

    def test_homogeneous_grid_takes_the_lanczos_path(self, monkeypatch):
        B = _grid_generator()
        dense = _dense_points(monkeypatch)
        rep = sc.gp_sweep(B, 0.0, 50.0, 101)
        assert sum(dense) == 0
        norms, singular = _resolvent_norms(B, 1j * rep.lambdas)
        assert rep.n_singular == 0 and not singular.any()
        assert np.max(np.abs(rep.norms - norms) / norms) <= 1e-12

    def test_per_cell_materials_take_the_dense_path_bit_for_bit(self):
        rng = np.random.default_rng(7)
        B = _grid_generator(eps=rng.uniform(1.0, 2.0, 27), sigma=rng.uniform(0.5, 1.5, 27))
        zs = -0.01 + 1j * np.linspace(-50.0, 50.0, 41)
        norms, singular = _sweep_norms(B, zs)
        dense_norms, dense_singular = _resolvent_norms(B, zs)
        assert np.array_equal(norms, dense_norms)
        assert np.array_equal(singular, dense_singular)

    def test_undamped_generator_keeps_the_dense_singular_points(self, monkeypatch):
        B = sc.assemble_generator(0.0 * np.eye(8), np.eye(8))
        dense = _dense_points(monkeypatch)
        rep = sc.gp_sweep(B, 0.0, 2.0, 401)
        assert 0 < sum(dense) < 401
        norms, singular = _resolvent_norms(B, 1j * rep.lambdas)
        assert np.isclose(rep.singular_points, [-1.0, 1.0]).all()
        assert np.array_equal(rep.lambdas[singular], rep.singular_points)
        ok = ~singular
        assert np.max(np.abs(rep.norms[ok] - norms[ok]) / norms[ok]) <= 1e-12

    def test_nonnormal_near_singular_point_follows_the_dense_rule(self, monkeypatch):
        # A nilpotent Jordan block J_8 beside -I_72: at z = 1e-3 every
        # eigenvalue is 1e-3 away, yet sigma_min(z - J_8) is about 1e-24.
        # Lanczos converges there, and only its sigma_min sends the point
        # to the dense SVD, which calls it singular.
        B = np.zeros((80, 80), dtype=complex)
        B[:72, :72] = -np.eye(72)
        B[72:, 72:] = np.eye(8, k=1)
        zs = 1e-3 + 1j * np.linspace(-2.0, 2.0, 41)
        dense = _dense_points(monkeypatch)
        norms, singular = _sweep_norms(B, zs)
        assert dense == [1]
        dense_norms, dense_singular = _resolvent_norms(B, zs)
        assert np.array_equal(singular, dense_singular) and singular[20]
        ok = ~singular
        assert np.max(np.abs(norms[ok] - dense_norms[ok]) / dense_norms[ok]) <= 1e-12

    def test_repeated_calls_are_bit_identical(self):
        B = _grid_generator()
        zs = -0.01 + 1j * np.linspace(-50.0, 50.0, 41)
        first, second = _sweep_norms(B, zs), _sweep_norms(B, zs)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n0=st.integers(8, 24),
        n1=st.integers(8, 24),
        distinct=st.integers(1, 3),
        c=st.floats(0.05, 5.0),
        abscissa=st.floats(0.05, 1.0),
        lambda_max=st.floats(0.5, 50.0),
    )
    def test_scalar_damping_matches_dense(self, seed, n0, n1, distinct, c, abscissa, lambda_max):
        # Scalar damping and a coupling with few distinct singular values in
        # random unitary frames: Lanczos converges within its budget on about
        # a quarter of the draws, and every draw must agree with the dense
        # SVD.  B is
        # dissipative, so Re z >= 0.05 keeps sigma_min(z - B) >= 0.05, where
        # the dense SVD itself is accurate to 1e-12 relative.
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, min(n0, n1) + 1))
        s = rng.choice(rng.uniform(0.1, 3.0, distinct), r)
        D = haar_unitary(rng, n1)[:, :r] @ np.diag(s) @ haar_unitary(rng, n0)[:r, :]
        B = sc.assemble_generator(c * np.eye(n0), D)
        zs = abscissa + 1j * np.linspace(-lambda_max, lambda_max, 41)
        norms, singular = _sweep_norms(B, zs)
        dense_norms, dense_singular = _resolvent_norms(B, zs)
        assert np.array_equal(singular, dense_singular)
        ok = ~singular
        assert np.all(np.abs(norms[ok] - dense_norms[ok]) <= 1e-12 * dense_norms[ok])


class TestSpectralAbscissa:
    def test_scalar_damped(self):
        expected = float(np.roots([1.0, 1.0, 1.0]).real.max())
        assert sc.spectral_abscissa([[-1.0, 1.0], [-1.0, 0.0]]) == pytest.approx(
            expected, abs=1e-12
        )

    def test_skew(self):
        assert sc.spectral_abscissa([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal(self):
        assert sc.spectral_abscissa(np.diag([-1.0, -2.0])) == pytest.approx(-1.0)


class TestSimulate:
    def test_contraction_norms_non_increasing(self):
        rng = np.random.default_rng(65)
        gamma = random_coercive(rng, 3, c=0.4)
        D = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        B = sc.assemble_generator(gamma, D)
        U0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        trace = sc.simulate(B, U0, 10.0, 301)
        assert np.all(np.diff(trace.state_norms) <= 1e-10 * trace.state_norms[0])
        assert trace.method in ("eig", "pade")

    def test_zero_generator_is_constant(self):
        U0 = np.array([3.0, 4.0], dtype=complex)
        trace = sc.simulate(np.zeros((2, 2)), U0, 5.0, 51)
        assert np.allclose(trace.state_norms, 5.0, atol=1e-12)

    def test_scalar_damped_envelope(self):
        B = np.array([[-1.0, 1.0], [-1.0, 0.0]], dtype=complex)
        U0 = np.array([1.0, 0.0], dtype=complex)
        trace = sc.simulate(B, U0, 20.0, 2001)
        mask = trace.times >= 5.0
        scaled = trace.state_norms[mask] * np.exp(0.5 * trace.times[mask])
        assert scaled.min() > 0.1
        assert scaled.max() < 3.0

    def test_pade_path_on_defective_generator(self):
        # A Jordan block is as non-diagonalizable as it gets.
        B = np.array([[-1.0, 1.0], [0.0, -1.0]], dtype=complex)
        trace = sc.simulate(B, np.array([1.0, 1.0], dtype=complex), 5.0, 101)
        assert trace.method == "pade"
        expected = np.linalg.norm(scipy.linalg.expm(5.0 * B) @ np.array([1.0, 1.0]))
        assert trace.state_norms[-1] == pytest.approx(expected, rel=1e-10)


class TestFitDecayRate:
    def test_exact_exponential(self):
        times = np.linspace(0.0, 20.0, 400)
        trace = sc.TrajectoryTrace(
            times=times,
            state_norms=np.exp(-0.5 * times),
            fitted_rate=None,
            fit_window=None,
            method="synthetic",
        )
        assert sc.fit_decay_rate(trace) == pytest.approx(0.5, abs=1e-8)

    def test_scalar_damped_rate(self):
        B = np.array([[-1.0, 1.0], [-1.0, 0.0]], dtype=complex)
        trace = sc.simulate(B, np.array([1.0, 0.0], dtype=complex), 20.0, 2001)
        assert sc.fit_decay_rate(trace) == pytest.approx(0.5, abs=1e-2)

    def test_norm_conserving_rate_is_zero(self):
        B = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        trace = sc.simulate(B, np.array([1.0, 0.0], dtype=complex), 20.0, 501)
        assert abs(sc.fit_decay_rate(trace)) <= 1e-8

    def test_oscillating_envelope_uses_local_maxima(self):
        # Synthetic rotating-mode magnitude: the all-points fit would see the
        # oscillation, the envelope fit recovers the rate to high accuracy.
        times = np.linspace(0.0, 40.0, 4001)
        norms = np.exp(-0.3 * times) * (1.1 + np.cos(2.0 * times))
        trace = sc.TrajectoryTrace(times, norms, None, None, "synthetic")
        assert sc.fit_decay_rate(trace) == pytest.approx(0.3, abs=1e-3)

    def test_underflow_detected(self):
        times = np.linspace(0.0, 300.0, 400)
        trace = sc.TrajectoryTrace(times, np.exp(-0.5 * times), None, None, "synthetic")
        with pytest.raises(Underflow):
            sc.fit_decay_rate(trace)

    def test_too_few_samples(self):
        times = np.linspace(0.0, 1.0, 8)
        trace = sc.TrajectoryTrace(times, np.exp(-times), None, None, "synthetic")
        with pytest.raises(TooFewSamples):
            sc.fit_decay_rate(trace)


class TestAdmissibleInitial:
    def test_already_admissible(self):
        fr = sc.decompose([[0.0, 2.0], [0.0, 0.0]])
        v0 = np.array([1.0, 0.0], dtype=complex)
        v_adm, residual = sc.admissible_initial(np.eye(2), fr.iota1, v0)
        assert np.allclose(v_adm, v0, atol=1e-14)
        assert residual == pytest.approx(0.0, abs=1e-14)

    def test_projection(self):
        fr = sc.decompose([[0.0, 2.0], [0.0, 0.0]])
        v_adm, residual = sc.admissible_initial(np.eye(2), fr.iota1, [1.0, 1.0])
        assert np.allclose(v_adm, [1.0, 0.0], atol=1e-12)
        assert residual == pytest.approx(1.0, abs=1e-12)

    def test_scalar_weight_commutes(self):
        fr = sc.decompose([[0.0, 2.0], [0.0, 0.0]])
        v_adm, residual = sc.admissible_initial(2.0 * np.eye(2), fr.iota1, [1.0, 1.0])
        assert np.allclose(v_adm, [1.0, 0.0], atol=1e-12)
        assert residual == pytest.approx(1.0, abs=1e-12)

    def test_result_is_admissible(self):
        rng = np.random.default_rng(67)
        from helpers import random_hermitian_pd

        beta = random_hermitian_pd(rng, 4)
        C = random_rank_matrix(rng, 4, 3, 2)
        fr = sc.decompose(C)
        v0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v_adm, _ = sc.admissible_initial(beta, fr.iota1, v0)
        bv = beta @ v_adm
        assert np.linalg.norm(fr.kappa1.conj().T @ bv) <= 1e-10 * np.linalg.norm(bv)


class TestBlockInverse:
    def test_permutation_case(self):
        out = sc.block_inverse(np.zeros((2, 2)), np.eye(2), np.eye(2))
        expected = np.block(
            [[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
        )
        assert np.allclose(out, expected, atol=1e-14)

    def test_scalar_example(self):
        out = sc.block_inverse([[1.0]], [[2.0]], [[4.0]])
        assert np.allclose(out, [[0.0, 0.25], [0.5, -0.125]], atol=1e-14)
        assembled = np.array([[1.0, 2.0], [4.0, 0.0]])
        assert np.allclose(assembled @ out, np.eye(2), atol=1e-14)

    def test_random_blocks_match_dense_inverse(self):
        rng = np.random.default_rng(69)
        for _ in range(10):
            A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            Bop = haar_unitary(rng, 3) @ np.diag(rng.uniform(0.3, 3.0, 3))
            Cop = haar_unitary(rng, 3) @ np.diag(rng.uniform(0.3, 3.0, 3))
            assembled = np.block([[A, Bop], [Cop, np.zeros((3, 3))]])
            out = sc.block_inverse(A, Bop, Cop)
            dense = np.linalg.inv(assembled)
            assert sc.operator_norm(out - dense) <= 1e-10 * sc.operator_norm(dense)
            assert sc.operator_norm(assembled @ out - np.eye(6)) <= 1e-10

    def test_singular_block_rejected(self):
        with pytest.raises(SingularBlock):
            sc.block_inverse(np.eye(2), np.zeros((2, 2)), np.eye(2))


class TestChangeOfVariables:
    def test_resolvent_solution_residual(self):
        rng = np.random.default_rng(71)
        s = random_block_system(rng, 3, 3, 3, identity_weights=True)
        ns = sc.normalize_system(s)
        z = 1.0 + 1.0j
        F = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        U = np.linalg.solve(assemble_shifted(ns.gamma_tilde, ns.D, z), F)
        residual = sc.change_of_variables_residual(ns, z, 0.1, U, F)
        assert residual <= 1e-12

    def test_zero_frequency_rejected(self):
        rng = np.random.default_rng(73)
        s = random_block_system(rng, 2, 2, 2, identity_weights=True)
        ns = sc.normalize_system(s)
        with pytest.raises(ZeroFrequency):
            sc.change_of_variables_residual(ns, 0.0, 0.1, np.zeros(4), np.zeros(4))

    def test_degenerate_shift_rejected(self):
        rng = np.random.default_rng(75)
        s = random_block_system(rng, 2, 2, 2, c_gamma=1.0, identity_weights=True)
        ns = sc.normalize_system(s)
        with pytest.raises(DegenerateShift):
            sc.change_of_variables_residual(ns, -0.3, 0.3, np.zeros(4), np.zeros(4))

    def test_rank_deficient_coupling_rejected(self):
        rng = np.random.default_rng(77)
        s = random_block_system(rng, 3, 3, 2, identity_weights=True)
        ns = sc.normalize_system(s)
        with pytest.raises(NotInvertible):
            sc.change_of_variables_residual(ns, 1.0, 0.1, np.zeros(6), np.zeros(6))


class TestCrossChecks:
    def test_hille_yosida_bound(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            gamma = random_coercive(rng, 3, c=0.0, spread=2.0)
            D = random_rank_matrix(rng, 2, 3, 2)
            B = sc.assemble_generator(gamma, D)
            assert sc.check_m_dissipative(B).dissipative
            for a in (0.5, 1.0, 2.0):
                lam = rng.uniform(-5, 5)
                assert sc.resolvent_norm(B, a + 1j * lam) <= 1.0 / a + 1e-10

    def test_sweep_detects_abscissa(self):
        B = np.diag([-1.0 + 0j, 2.0j])
        assert sc.spectral_abscissa(B) == pytest.approx(0.0, abs=1e-14)
        on_line = sc.gp_sweep(B, 0.0, 4.0, 401)
        assert on_line.n_singular >= 1
        assert np.any(np.isclose(on_line.singular_points, 2.0))
        off_line = sc.gp_sweep(B, 1.0, 4.0, 401)
        assert off_line.n_singular == 0

    def test_fitted_rate_matches_dominant_eigenvalue(self):
        rng = np.random.default_rng(81)
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        B = Q @ np.diag([-0.3, -1.5, -2.5]) @ Q.T
        U0 = rng.standard_normal(3) + 0j
        trace = sc.simulate(B, U0, 30.0, 601)
        fitted = sc.fit_decay_rate(trace)
        assert fitted == pytest.approx(0.3, abs=1e-2)
