import math

import numpy as np
import pytest
import scipy.linalg

import stabcert as sc
from stabcert import DimensionMismatch, NotHermitian, NotPositiveDefinite

from helpers import (
    assemble_shifted,
    haar_unitary,
    random_block_system,
    random_hermitian_pd,
    random_skew,
)


class TestSqrtFactor:
    def test_diagonal(self):
        sqrt, inv = sc.sqrt_factor([[4.0, 0.0], [0.0, 9.0]])
        assert np.allclose(sqrt, [[2.0, 0.0], [0.0, 3.0]], atol=1e-12)
        assert np.allclose(inv, [[0.5, 0.0], [0.0, 1.0 / 3.0]], atol=1e-12)

    def test_two_by_two(self):
        # Oracle: [[2,1],[1,2]] has eigenpairs (1, (1,-1)/sqrt2), (3, (1,1)/sqrt2),
        # so the square root is ((sqrt3+1)/2, (sqrt3-1)/2; (sqrt3-1)/2, (sqrt3+1)/2).
        s3 = math.sqrt(3.0)
        expected = 0.5 * np.array([[s3 + 1.0, s3 - 1.0], [s3 - 1.0, s3 + 1.0]])
        sqrt, _ = sc.sqrt_factor([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(sqrt, expected, atol=1e-12)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_diagonal_weight_matches_its_eigendecomposition(self, dtype):
        # A diagonal weight takes its roots entry by entry; the eigenvector
        # route gives the same bits, the grid weights' sizes included, and
        # the same refusal.
        rng = np.random.default_rng(24)
        for n in (1, 5, 81):
            M = np.diag(rng.uniform(0.5, 2.0, n)).astype(dtype)
            w, V = np.linalg.eigh(M)
            for got, ref in zip(sc.sqrt_factor(M), ((V * np.sqrt(w)) @ V.conj().T,
                                                    (V / np.sqrt(w)) @ V.conj().T)):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
                assert np.array_equal(np.signbit(got.real), np.signbit(ref.real))
        for diagonal in ([2.0, -1.0], [1.0, 1e-13]):
            with pytest.raises(NotPositiveDefinite, match=r"^smallest eigenvalue %g \(largest %g\); "
                               % (min(diagonal), max(diagonal))):
                sc.sqrt_factor(np.diag(diagonal).astype(dtype))

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            sc.sqrt_factor([[0.0, 1.0], [1.0, 0.0]])

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            sc.sqrt_factor([[1.0, 1.0], [0.0, 1.0]])

    def test_factor_invariants(self):
        rng = np.random.default_rng(21)
        for n in (1, 3, 6):
            M = random_hermitian_pd(rng, n)
            sqrt, inv = sc.sqrt_factor(M)
            scale = sc.operator_norm(M)
            assert sc.operator_norm(sqrt @ sqrt - M) <= 1e-10 * scale
            assert sc.operator_norm(sqrt @ inv - np.eye(n)) <= 1e-10
            assert sc.operator_norm(sqrt - sqrt.conj().T) <= 1e-12 * sc.operator_norm(sqrt)


class TestNormalizeSystem:
    def test_weights_are_checked_hermitian_once(self, monkeypatch):
        # validate_system checks alpha and beta; normalize_system factors
        # them without a second check, and gives the same factors as
        # sqrt_factor, which keeps its own.
        rng = np.random.default_rng(23)
        system = random_block_system(rng, 3, 2, 2)
        checked = []
        real_check = sc.normalize._check_hermitian
        monkeypatch.setattr(sc.normalize, "_check_hermitian",
                            lambda M, which: (checked.append(which), real_check(M, which)))
        ns = sc.normalize_system(system)
        assert checked == []
        for weight, sqrt, inv in ((system.alpha, ns.sqrt_alpha, ns.sqrt_alpha_inv),
                                  (system.beta, ns.sqrt_beta, ns.sqrt_beta_inv)):
            ref_sqrt, ref_inv = sc.sqrt_factor(weight)
            assert np.array_equal(sqrt, ref_sqrt) and np.array_equal(inv, ref_inv)
        assert checked == ["sqrt_factor argument"] * 2

    def test_kappa_norm_is_the_product_of_the_factors_norms(self):
        # kappa_norm is read from the weights' roots.  It equals the four
        # SVDs of max(||sa||, ||sb||) * max(||sai||, ||sbi||) exactly on
        # diagonal weights, whose SVD returns the diagonal, and to rounding
        # on dense ones.
        def four_norms(ns):
            return (max(sc.operator_norm(ns.sqrt_alpha), sc.operator_norm(ns.sqrt_beta))
                    * max(sc.operator_norm(ns.sqrt_alpha_inv), sc.operator_norm(ns.sqrt_beta_inv)))

        rng = np.random.default_rng(7)
        diagonal = [
            sc.build_maxwell_system(sc.GridSpec(N=3)),
            sc.build_maxwell_system(sc.GridSpec(N=3), eps=rng.uniform(1.0, 2.0, 27),
                                    sigma=rng.uniform(0.5, 1.5, 27)),
        ]
        for n0, n1 in ((1, 1), (3, 2), (6, 6), (4, 0)):
            alpha, beta = (np.diag(rng.uniform(0.01, 100.0, n)) for n in (n0, n1))
            diagonal.append(sc.validate_system(alpha, beta, np.eye(n0), rng.standard_normal((n1, n0))))
        for system in diagonal:
            ns = sc.normalize_system(system)
            assert ns.kappa_norm == four_norms(ns)
        for n0, n1 in ((1, 1), (2, 3), (5, 4), (6, 6)):
            for _ in range(10):
                ns = sc.normalize_system(random_block_system(rng, n0, n1, min(n0, n1)))
                assert ns.kappa_norm == pytest.approx(four_norms(ns), rel=1e-14, abs=0)

    def test_identity_weights_are_a_no_op(self):
        g = np.array([[1.0, 0.3], [0.0, 2.0]])
        C = np.array([[1.0, 0.0]])
        s = sc.validate_system(np.eye(2), np.eye(1), g, C)
        ns = sc.normalize_system(s)
        assert np.allclose(ns.gamma_tilde, g, atol=1e-14)
        assert np.allclose(ns.D, C, atol=1e-14)

    def test_scalar_arithmetic(self):
        s = sc.validate_system([[4.0]], [[9.0]], [[2.0]], [[6.0]])
        ns = sc.normalize_system(s)
        assert ns.gamma_tilde[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert ns.D[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_adjoint_transfer(self):
        # The adjoint of the normalized coupling equals the transported adjoint.
        rng = np.random.default_rng(4)
        s = random_block_system(rng, 3, 3, 2)
        ns = sc.normalize_system(s)
        lhs = ns.D.conj().T
        rhs = ns.sqrt_alpha_inv @ s.C.conj().T @ ns.sqrt_beta_inv
        assert sc.operator_norm(lhs - rhs) <= 1e-10 * max(sc.operator_norm(rhs), 1.0)

    def test_coercivity_sign_transfer(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            alpha = random_hermitian_pd(rng, n)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            Q = haar_unitary(rng, n)
            H = Q @ np.diag(sign * rng.uniform(0.1, 1.0, n)) @ Q.conj().T
            gamma = H + random_skew(rng, n)
            _, sai = sc.sqrt_factor(alpha)
            transported = sai @ gamma @ sai
            assert np.sign(sc.hermitian_min_eig(gamma)) == np.sign(
                sc.hermitian_min_eig(transported)
            )

    def test_rank_preservation(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n0 = int(rng.integers(1, 6))
            n1 = int(rng.integers(1, 6))
            r = int(rng.integers(0, min(n0, n1) + 1))
            s = random_block_system(rng, n0, n1, r)
            ns = sc.normalize_system(s)

            def numeric_rank(M):
                if not np.any(M):
                    return 0
                sv = np.linalg.svd(M, compute_uv=False)
                return int(np.count_nonzero(sv >= 1e-10 * sv[0]))

            assert numeric_rank(ns.D) == numeric_rank(s.C) == r

    def test_admissible_set_transfer(self):
        # v0 in beta^-1 ran(C) if and only if sqrt(beta) v0 in ran(D).
        rng = np.random.default_rng(29)
        for _ in range(20):
            n0, n1, r = 4, 4, 2
            s = random_block_system(rng, n0, n1, r)
            ns = sc.normalize_system(s)
            fr_C = sc.decompose(s.C)
            fr_D = sc.decompose(ns.D)

            def residual_beta_ran_C(v):
                bv = s.beta @ v
                proj = fr_C.iota1 @ (fr_C.iota1.conj().T @ bv)
                return np.linalg.norm(bv - proj) / max(np.linalg.norm(bv), 1e-300)

            def residual_ran_D(w):
                proj = fr_D.iota1 @ (fr_D.iota1.conj().T @ w)
                return np.linalg.norm(w - proj) / max(np.linalg.norm(w), 1e-300)

            inside = np.linalg.solve(s.beta, s.C @ rng.standard_normal(n0))
            outside = np.linalg.solve(s.beta, fr_C.kappa1 @ rng.standard_normal(n1 - r))
            for v, expected_in in ((inside, True), (outside, False)):
                w = ns.sqrt_beta @ v
                r1, r2 = residual_beta_ran_C(v), residual_ran_D(w)
                if expected_in:
                    assert r1 <= 1e-9 and r2 <= 1e-9
                else:
                    assert r1 > 1e-3 and r2 > 1e-3

    def test_generator_conjugation_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            s = random_block_system(rng, 3, 2, 2)
            ns = sc.normalize_system(s)
            B_norm = sc.assemble_generator(ns.gamma_tilde, ns.D)
            n0, n1 = s.n0, s.n1
            weight_inv = scipy.linalg.block_diag(
                np.linalg.inv(s.alpha), np.linalg.inv(s.beta)
            )
            B_orig = weight_inv @ assemble_shifted(s.gamma, s.C, 0.0) * (-1.0)
            M = scipy.linalg.block_diag(ns.sqrt_alpha, ns.sqrt_beta)
            lhs = M @ B_orig
            rhs = B_norm @ M
            scale = max(sc.operator_norm(rhs), 1.0)
            assert sc.operator_norm(lhs - rhs) <= 1e-10 * scale


class TestMapState:
    def test_identity_weights(self):
        s = sc.validate_system(np.eye(2), np.eye(1), np.eye(2), [[1.0, 0.0]])
        ns = sc.normalize_system(s)
        U = np.array([1.0, 2.0, 3.0], dtype=complex)
        assert np.allclose(sc.map_state(ns, U, "forward"), U)

    def test_scalar_forward(self):
        s = sc.validate_system([[4.0]], [[9.0]], [[1.0]], [[1.0]])
        ns = sc.normalize_system(s)
        out = sc.map_state(ns, [1.0, 1.0], "forward")
        assert np.allclose(out, [2.0, 3.0], atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(37)
        s = random_block_system(rng, 4, 3, 2)
        ns = sc.normalize_system(s)
        U = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        back = sc.map_state(ns, sc.map_state(ns, U, "forward"), "backward")
        assert np.linalg.norm(back - U) <= 1e-10 * np.linalg.norm(U)

    def test_bad_direction_and_length(self):
        s = sc.validate_system([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        ns = sc.normalize_system(s)
        with pytest.raises(ValueError):
            sc.map_state(ns, [1.0, 1.0], "sideways")
        with pytest.raises(DimensionMismatch):
            sc.map_state(ns, [1.0, 1.0, 1.0], "forward")


def test_weakened_decay_bound_in_original_variables():
    # A decay bound for the normalized trajectory yields the same rate for the
    # original one up to the weight conditioning factor.
    rng = np.random.default_rng(41)
    s = random_block_system(rng, 3, 2, 2, c_gamma=0.5)
    ns = sc.normalize_system(s)
    cert = sc.full_certificate(s)
    fr_C = sc.decompose(s.C)

    u0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v_adm, _ = sc.admissible_initial(s.beta, fr_C.iota1, rng.standard_normal(2))
    U0 = np.concatenate([u0, v_adm])

    weight_inv = scipy.linalg.block_diag(np.linalg.inv(s.alpha), np.linalg.inv(s.beta))
    B_orig = -weight_inv @ assemble_shifted(s.gamma, s.C, 0.0)
    kappa = max(
        sc.operator_norm(ns.sqrt_alpha), sc.operator_norm(ns.sqrt_beta)
    ) * max(sc.operator_norm(ns.sqrt_alpha_inv), sc.operator_norm(ns.sqrt_beta_inv))

    for t in (0.5, 2.0, 6.0, 12.0):
        Ut = scipy.linalg.expm(t * B_orig) @ U0
        bound = kappa * math.exp(-cert.delta_cert * t) * np.linalg.norm(U0)
        assert np.linalg.norm(Ut) <= bound * (1.0 + 1e-8)
