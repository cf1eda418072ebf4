import numpy as np
import pytest

import stabcert as sc
from stabcert import HalfPlaneViolation

from helpers import (
    assemble_shifted,
    haar_unitary,
    random_block_system,
    random_coercive,
    random_rank_matrix,
)


class TestDecompose:
    def test_single_entry(self):
        fr = sc.decompose([[0.0, 2.0], [0.0, 0.0]])
        assert fr.r == 1
        assert fr.sigma_min_pos == pytest.approx(2.0, abs=1e-14)
        # Compare subspaces through their projectors; signs of the frame
        # columns are not pinned by the factorization.
        e1 = np.zeros((2, 1)); e1[0] = 1
        e2 = np.zeros((2, 1)); e2[1] = 1
        assert np.allclose(fr.iota0 @ fr.iota0.conj().T, e2 @ e2.T, atol=1e-12)
        assert np.allclose(fr.kappa0 @ fr.kappa0.conj().T, e1 @ e1.T, atol=1e-12)
        assert np.allclose(fr.iota1 @ fr.iota1.conj().T, e1 @ e1.T, atol=1e-12)

    def test_zero_matrix(self):
        for n1, n0 in [(2, 2), (0, 3), (3, 0), (0, 0)]:
            fr = sc.decompose(np.zeros((n1, n0)))
            assert fr.r == 0
            assert fr.C_tilde.shape == (0, 0)
            assert fr.sigma_min_pos == 0.0
            assert fr.iota0.shape == (n0, 0) and fr.iota1.shape == (n1, 0)
            assert np.allclose(fr.kappa0.conj().T @ fr.kappa0, np.eye(n0), atol=1e-14)
            assert np.allclose(fr.kappa1.conj().T @ fr.kappa1, np.eye(n1), atol=1e-14)

    def test_rank_two_reconstruction(self):
        rng = np.random.default_rng(13)
        C = random_rank_matrix(rng, 4, 3, 2)
        fr = sc.decompose(C)
        assert fr.r == 2
        recon = fr.iota1 @ fr.C_tilde @ fr.iota0.conj().T
        assert sc.operator_norm(recon - C) <= 1e-10 * sc.operator_norm(C)

    def test_frame_invariants(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n0 = int(rng.integers(1, 6))
            n1 = int(rng.integers(1, 6))
            r = int(rng.integers(0, min(n0, n1) + 1))
            C = random_rank_matrix(rng, n1, n0, r)
            fr = sc.decompose(C)
            assert fr.r == r
            for Q, dim in ((fr.iota0, r), (fr.kappa0, n0 - r), (fr.iota1, r), (fr.kappa1, n1 - r)):
                assert Q.shape[1] == dim
                assert np.allclose(Q.conj().T @ Q, np.eye(dim), atol=1e-12)
            assert np.allclose(fr.iota0.conj().T @ fr.kappa0, 0, atol=1e-12)
            assert np.allclose(fr.iota1.conj().T @ fr.kappa1, 0, atol=1e-12)
            # completeness
            assert np.allclose(
                fr.iota0 @ fr.iota0.conj().T + fr.kappa0 @ fr.kappa0.conj().T,
                np.eye(n0),
                atol=1e-12,
            )
            assert np.allclose(
                fr.iota1 @ fr.iota1.conj().T + fr.kappa1 @ fr.kappa1.conj().T,
                np.eye(n1),
                atol=1e-12,
            )
            scale = max(sc.operator_norm(C), 1e-30)
            assert sc.operator_norm(C @ fr.kappa0) <= 1e-10 * scale
            assert sc.operator_norm(fr.kappa1.conj().T @ C) <= 1e-10 * scale
            if r:
                smin = np.linalg.svd(fr.C_tilde, compute_uv=False)[-1]
                assert abs(smin - fr.sigma_min_pos) <= 1e-10 * fr.sigma_min_pos

    def test_closed_range_inequality(self):
        rng = np.random.default_rng(43)
        C = random_rank_matrix(rng, 5, 4, 3)
        fr = sc.decompose(C)
        for _ in range(100):
            x = fr.iota0 @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            assert np.linalg.norm(x) <= (1.0 / fr.sigma_min_pos) * np.linalg.norm(C @ x) * (1 + 1e-8)


class TestThreeBlockForm:
    def test_block_diagonal_damping_has_no_coupling(self):
        rng = np.random.default_rng(3)
        C = random_rank_matrix(rng, 3, 4, 2)
        fr = sc.decompose(C)
        G1 = random_coercive(rng, 2, c=1.0)
        G2 = random_coercive(rng, 2, c=1.0)
        gamma = fr.iota0 @ G1 @ fr.iota0.conj().T + fr.kappa0 @ G2 @ fr.kappa0.conj().T
        M = sc.three_block_form(gamma, fr, 0.5)
        r = fr.r
        assert np.allclose(M[:r, 2 * r :], 0, atol=1e-12)
        assert np.allclose(M[2 * r :, :r], 0, atol=1e-12)

    def test_scalar_instance_matrix(self):
        # H0 = C^2, H1 = C, coupling [1 0], unit damping: hand assembly gives
        # rows (u1, v, u2) = [[1,-1,0],[1,0,0],[0,0,1]] at z = 0.
        fr = sc.decompose([[1.0, 0.0]])
        M = sc.three_block_form(np.eye(2), fr, 0.0)
        expected = np.array([[1.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(M, expected, atol=1e-12)

    def test_projection_equivalence(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n0 = int(rng.integers(2, 6))
            n1 = int(rng.integers(1, 6))
            r = int(rng.integers(1, min(n0, n1) + 1))
            C = random_rank_matrix(rng, n1, n0, r)
            gamma = random_coercive(rng, n0, c=0.5)
            fr = sc.decompose(C)
            z = complex(rng.uniform(-0.2, 1.0), rng.uniform(-2, 2))
            u = rng.standard_normal(n0) + 1j * rng.standard_normal(n0)
            v = fr.iota1 @ (rng.standard_normal(r) + 1j * rng.standard_normal(r))
            out = assemble_shifted(gamma, C, z) @ np.concatenate([u, v])
            f, g = out[:n0], out[n0:]
            projected_out = np.concatenate(
                [fr.iota0.conj().T @ f, fr.iota1.conj().T @ g, fr.kappa0.conj().T @ f]
            )
            coords = np.concatenate(
                [fr.iota0.conj().T @ u, fr.iota1.conj().T @ v, fr.kappa0.conj().T @ u]
            )
            M = sc.three_block_form(gamma, fr, z)
            assert np.linalg.norm(M @ coords - projected_out) <= 1e-10 * np.linalg.norm(out)


class TestDecouplingTransforms:
    def test_block_diagonal_damping_gives_identity_transforms(self):
        rng = np.random.default_rng(5)
        C = random_rank_matrix(rng, 3, 4, 2)
        fr = sc.decompose(C)
        G1 = random_coercive(rng, 2, c=1.0)
        G2 = random_coercive(rng, 2, c=1.0)
        gamma = fr.iota0 @ G1 @ fr.iota0.conj().T + fr.kappa0 @ G2 @ fr.kappa0.conj().T
        blocks = sc.decoupling_transforms(gamma, fr, 0.3, 1.0)
        m = fr.n0 + fr.r
        assert np.allclose(blocks.T1, np.eye(m), atol=1e-10)
        assert np.allclose(blocks.T2, np.eye(m), atol=1e-10)

    def test_kernel_block_inverse_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n0 = 5
            C = random_rank_matrix(rng, 4, n0, 2)
            fr = sc.decompose(C)
            gamma = random_coercive(rng, n0, c=1.0)
            c = sc.hermitian_min_eig(gamma)
            z = complex(rng.uniform(-0.5 * c, 1.0), rng.uniform(-3, 3))
            blocks = sc.decoupling_transforms(gamma, fr, z, c)
            S = z * np.eye(n0 - 2) + blocks.gamma2
            measured = sc.operator_norm(np.linalg.inv(S))
            assert measured <= 1.0 / (z.real + c) + 1e-10

    def test_transform_norm_bound(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n0 = 4
            C = random_rank_matrix(rng, 3, n0, 2)
            fr = sc.decompose(C)
            gamma = random_coercive(rng, n0, c=1.0)
            g_norm = sc.operator_norm(gamma)
            blocks = sc.decoupling_transforms(gamma, fr, 0.0, 1.0)
            bound = 1.0 + g_norm / (0.0 + 1.0)
            for T in (blocks.T1, blocks.T1_inv, blocks.T2, blocks.T2_inv):
                assert sc.operator_norm(T) <= bound + 1e-10

    def test_transform_inverses_are_exact(self):
        rng = np.random.default_rng(25)
        C = random_rank_matrix(rng, 4, 5, 2)
        fr = sc.decompose(C)
        gamma = random_coercive(rng, 5, c=0.7)
        blocks = sc.decoupling_transforms(gamma, fr, 0.2 + 1j, 0.7)
        m = fr.n0 + fr.r
        assert np.allclose(blocks.T1 @ blocks.T1_inv, np.eye(m), atol=1e-10)
        assert np.allclose(blocks.T2 @ blocks.T2_inv, np.eye(m), atol=1e-10)

    def test_scalar_schur_value(self):
        fr = sc.decompose([[1.0, 0.0]])
        gamma = np.array([[2.0, 1.0], [1.0, 2.0]])
        blocks = sc.decoupling_transforms(gamma, fr, 0.0, 1.0)
        assert blocks.gamma1_z[0, 0] == pytest.approx(1.5, abs=1e-12)

    def test_half_plane_violation(self):
        fr = sc.decompose([[1.0, 0.0]])
        with pytest.raises(HalfPlaneViolation):
            sc.decoupling_transforms(np.eye(2), fr, -1.0, 1.0)


class TestDecoupledSolve:
    def test_full_rank_matches_dense_solve(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            s = random_block_system(rng, n, n, n, identity_weights=True)
            ns = sc.normalize_system(s)
            fr = sc.decompose(ns.D)
            z = complex(rng.uniform(0.2, 1.5), rng.uniform(-2, 2))
            F = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
            UV = sc.decoupled_solve(ns, fr, z, F)
            dense = np.linalg.solve(assemble_shifted(ns.gamma_tilde, ns.D, z), F)
            assert np.linalg.norm(UV - dense) <= 1e-10 * np.linalg.norm(dense)
        # Zero coupling: the reduced block is empty (r = 0), g must vanish,
        # and the kernel block alone solves the system.
        ns = sc.normalize_system(random_block_system(rng, 3, 2, 0, identity_weights=True))
        fr = sc.decompose(ns.D)
        assert fr.r == 0
        z = complex(0.7, -1.3)
        F = np.concatenate([rng.standard_normal(3) + 1j * rng.standard_normal(3), np.zeros(2)])
        UV = sc.decoupled_solve(ns, fr, z, F)
        dense = np.linalg.solve(assemble_shifted(ns.gamma_tilde, ns.D, z), F)
        assert np.linalg.norm(UV - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_scalar_kernel_component(self):
        s = sc.validate_system(np.eye(2), np.eye(1), np.eye(2), [[1.0, 0.0]])
        ns = sc.normalize_system(s)
        fr = sc.decompose(ns.D)
        # f has unit components along both frames, g = 0; the kernel equation
        # (z + 1) u2 = 1 at z = 1 gives u2 = 0.5.
        F = np.array([1.0, 1.0, 0.0], dtype=complex)
        UV = sc.decoupled_solve(ns, fr, 1.0, F)
        u2 = (fr.kappa0.conj().T @ UV[:2])[0]
        assert u2 == pytest.approx(0.5, abs=1e-12)

    def test_g_outside_range_rejected(self):
        rng = np.random.default_rng(33)
        s = random_block_system(rng, 3, 3, 1, identity_weights=True)
        ns = sc.normalize_system(s)
        fr = sc.decompose(ns.D)
        F = np.zeros(6, dtype=complex)
        F[3:] = fr.kappa1[:, 0]
        with pytest.raises(ValueError, match="ran"):
            sc.decoupled_solve(ns, fr, 1.0, F)

    def test_half_plane_rejected(self):
        rng = np.random.default_rng(35)
        s = random_block_system(rng, 2, 2, 1, c_gamma=1.0, identity_weights=True)
        ns = sc.normalize_system(s)
        fr = sc.decompose(ns.D)
        with pytest.raises(HalfPlaneViolation):
            sc.decoupled_solve(ns, fr, -2.0 * ns.c_gamma_tilde, np.zeros(4))


class TestCoercivityTransfer:
    def test_schur_complement_inherits_coercivity(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            eta = random_coercive(rng, 4, c=rng.uniform(0.05, 1.5), skew=1.0)
            c = sc.hermitian_min_eig(eta)
            assert c > 0
            schur = eta[:2, :2] - eta[:2, 2:] @ np.linalg.inv(eta[2:, 2:]) @ eta[2:, :2]
            assert sc.hermitian_min_eig(schur) >= c - 1e-10

    def test_schur_damping_block_lower_bound(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            n0 = int(rng.integers(2, 6))
            n1 = int(rng.integers(1, 6))
            r = int(rng.integers(1, min(n0, n1) + 1))
            C = random_rank_matrix(rng, n1, n0, r)
            fr = sc.decompose(C)
            gamma = random_coercive(rng, n0, c=rng.uniform(0.1, 1.0))
            c = sc.hermitian_min_eig(gamma)
            z = complex(rng.uniform(-0.9 * c, 2.0), rng.uniform(-3, 3))
            blocks = sc.decoupling_transforms(gamma, fr, z, c)
            bound = min(z.real + c, c)
            assert sc.hermitian_min_eig(blocks.gamma1_z) >= bound - 1e-10
