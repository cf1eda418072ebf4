import numpy as np
import pytest

import stabcert as sc
from stabcert import GridTooLarge, NotCoercive, ParameterOutOfRange, ZeroRangeOperator


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ParameterOutOfRange):
            sc.GridSpec(N=1)
        # inf would zero the curl, and 0.5 / 1e-320 overflows.
        for h in (0.0, float("inf"), 1e-320, float("nan")):
            with pytest.raises(ParameterOutOfRange, match="h must be"):
                sc.GridSpec(N=3, h=h)


class TestBuildCurl:
    def test_smallest_grid_shape(self):
        curl = sc.build_curl(sc.GridSpec(N=2))
        assert curl.K.shape == (24, 24)
        assert np.abs(curl.K @ curl.grad).max() == 0.0

    def test_hermitian_by_construction(self):
        for N in (2, 3, 4):
            curl = sc.build_curl(sc.GridSpec(N=N))
            assert np.abs(curl.K - curl.K.conj().T).max() <= 1e-12

    def test_rank_and_kernel(self):
        curl = sc.build_curl(sc.GridSpec(N=3))
        fr = sc.decompose(curl.K)
        s = np.linalg.svd(curl.K, compute_uv=False)
        oracle_rank = int(np.count_nonzero(s > 1e-10 * s[0]))
        assert fr.r == oracle_rank
        assert fr.r < curl.K.shape[0]
        assert fr.sigma_min_pos == pytest.approx(float(s[fr.r - 1]))
        rng = np.random.default_rng(83)
        for _ in range(20):
            x = rng.standard_normal(curl.grad.shape[1])
            assert np.linalg.norm(curl.K @ (curl.grad @ x)) == pytest.approx(0.0, abs=1e-13)

    def test_gradient_annihilation_all_supported_sizes(self):
        for N in range(2, 9):
            curl = sc.build_curl(sc.GridSpec(N=N, h=1.0))
            assert np.abs(curl.K @ curl.grad).max() <= 1e-13

    def test_dense_limit_guard(self):
        with pytest.raises(GridTooLarge):
            sc.build_curl(sc.GridSpec(N=9))


class TestBuildMaxwellSystem:
    def test_unit_materials(self):
        s = sc.build_maxwell_system(sc.GridSpec(N=2))
        assert s.c_gamma == pytest.approx(1.0)
        assert s.n0 == s.n1 == 24

    def test_undamped_rejected(self):
        with pytest.raises(NotCoercive) as exc:
            sc.build_maxwell_system(sc.GridSpec(N=2), sigma=0.0)
        assert exc.value.which == "gamma"

    def test_cellwise_profile_preserves_rank(self):
        rng = np.random.default_rng(85)
        spec = sc.GridSpec(N=3)
        curl = sc.build_curl(spec)
        eps = np.where(np.arange(27) % 2 == 0, 1.0, 2.0)
        s = sc.build_maxwell_system(spec, eps=eps, mu=1.0, sigma=1.0)
        ns = sc.normalize_system(s)
        sv_D = np.linalg.svd(ns.D, compute_uv=False)
        rank_D = int(np.count_nonzero(sv_D >= 1e-10 * sv_D[0]))
        assert rank_D == sc.decompose(curl.K).r

    def test_bad_profile_length(self):
        with pytest.raises(ParameterOutOfRange):
            sc.build_maxwell_system(sc.GridSpec(N=2), eps=np.ones(5))


class TestStructure:
    def test_coupling_block_is_skew_and_conservative(self):
        spec = sc.GridSpec(N=3)
        curl = sc.build_curl(spec)
        n = curl.K.shape[0]
        block = np.block(
            [[np.zeros((n, n)), curl.K], [-curl.K, np.zeros((n, n))]]
        )
        assert np.abs(block + block.conj().T).max() <= 1e-12
        # No damping: the flow is an isometry group, norms stay put.
        B = sc.assemble_generator(np.zeros((n, n)), curl.K)
        rng = np.random.default_rng(87)
        U0 = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        U0 /= np.linalg.norm(U0)
        trace = sc.simulate(B, U0, 20.0, 401)
        assert abs(sc.fit_decay_rate(trace)) <= 1e-8

    def test_positive_closed_range_constant(self):
        for N in (2, 3, 4):
            fr = sc.decompose(sc.build_curl(sc.GridSpec(N=N)).K)
            if fr.r:
                assert fr.sigma_min_pos > 0.0


class TestMaxwellReport:
    def test_unit_material_report(self):
        rep = sc.audit_system(sc.build_maxwell_system(sc.GridSpec(N=3)))
        cert = rep.certificate
        assert cert.delta_cert > 0
        assert rep.fitted_rate >= cert.delta_cert - 1e-6
        assert all(rep.checks.values())
        assert rep.cover.passed
        # independent spectral audit of the certified abscissa
        s = sc.build_maxwell_system(sc.GridSpec(N=3))
        ns = sc.normalize_system(s)
        fr = sc.decompose(ns.D)
        abscissa = sc.spectral_abscissa(sc.restricted_generator(ns.gamma_tilde, fr))
        assert abscissa <= -cert.delta_cert + 1e-9

    def test_degenerate_two_cell_grid_has_zero_coupling(self):
        # Periodic central differences cancel on a two-cell axis, so the curl
        # vanishes and no product-space certificate exists.
        with pytest.raises(ZeroRangeOperator):
            sc.audit_system(sc.build_maxwell_system(sc.GridSpec(N=2)))

    def test_inadmissible_component_is_frozen(self):
        spec = sc.GridSpec(N=3)
        s = sc.build_maxwell_system(spec)
        fr = sc.decompose(s.C)
        rng = np.random.default_rng(89)
        q0 = fr.kappa1 @ (rng.standard_normal(fr.n1 - fr.r))
        q0 = q0 / np.linalg.norm(q0)
        v_adm, residual = sc.admissible_initial(s.beta, fr.iota1, q0)
        assert residual == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(v_adm) <= 1e-10
        n = s.n0
        U0 = np.concatenate([np.zeros(n), q0]).astype(complex)
        B = sc.assemble_generator(s.gamma, s.C)
        trace = sc.simulate(B, U0, 10.0, 201)
        assert np.allclose(trace.state_norms, 1.0, atol=1e-10)

    def test_stronger_damping_certificates_are_individually_sound(self):
        for sigma in (1.0, 2.0):
            s = sc.build_maxwell_system(sc.GridSpec(N=3), sigma=sigma)
            cert = sc.full_certificate(s)
            ns = sc.normalize_system(s)
            fr = sc.decompose(ns.D)
            abscissa = sc.spectral_abscissa(sc.restricted_generator(ns.gamma_tilde, fr))
            assert cert.delta_cert > 0
            assert abscissa <= -cert.delta_cert + 1e-9
