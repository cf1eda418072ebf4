import dataclasses
import gc
import math
import multiprocessing
import os
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stabcert as sc
from stabcert import (
    CertificateFailure,
    DegenerateProblem,
    GridTooLarge,
    HalfPlaneViolation,
    ParameterOutOfRange,
    ZeroRangeOperator,
)

from stabcert import certificate, verify
from stabcert._blas import _openblas_threads
from stabcert.certificate import _small_frequency_audit, prepare
from stabcert.verify import _resolvent_norms, _sigma_min_test, admissible_start, random_components

from helpers import (
    formula_mismatches,
    haar_unitary,
    random_block_system,
    random_coercive,
    random_real_block_system,
)


class TestDampingLowerBound:
    def test_reference_arithmetic(self):
        u, v = sc.damping_lower_bound(1.0, 1.0, 1.0, 0.2, 1.0)
        # (1.2)^2 / 2 = 0.72, so u = 1 - 0.2 * 1.72
        assert u == pytest.approx(0.656, abs=1e-12)
        assert v == pytest.approx(0.1, abs=1e-12)

    def test_small_shift_limit(self):
        u, v = sc.damping_lower_bound(1.0, 1.0, 1.0, 1e-12, 1.0)
        assert u == pytest.approx(1.0, abs=1e-11)
        assert v == pytest.approx(0.0, abs=1e-11)

    def test_p_one_reproduces_half_delta(self):
        for delta in (0.05, 0.2, 0.7):
            _, v = sc.damping_lower_bound(2.0, 1.5, 0.8, delta, 1.0)
            assert v == delta * 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"c": 0.0},
            {"c": -1.0},
            {"delta": 0.0},
            {"delta": -0.1},
            {"p": 0.0},
            {"p": 2.0},
            {"p": 2.5},
        ],
    )
    def test_parameter_validation(self, kwargs):
        args = {"c": 1.0, "gamma_norm": 1.0, "C_inv_norm": 1.0, "delta": 0.2, "p": 1.0}
        args.update(kwargs)
        with pytest.raises(ParameterOutOfRange):
            sc.damping_lower_bound(**args)


def _brute_force_shift(c, gamma_norm, C_inv_norm):
    """Independent exhaustive search at step 1e-3 in both axes."""
    deltas = np.arange(1e-3, 1.0, 1e-3) * c
    ps = np.arange(1e-3, 2.0, 1e-3)
    best = -math.inf
    for p in ps:
        t = (gamma_norm + deltas) * C_inv_norm
        u = c - deltas * (1.0 + t * t / (2.0 * p))
        v = deltas * (1.0 - 0.5 * p)
        d = 0.5 * np.minimum(u, v)
        m = float(d.max())
        if m > best:
            best = m
    return best


def _grid_shift(c, gamma_norm, C_inv_norm, steps=400):
    """Reference: the best d on the log-delta by linear-p grid the optimizer replaced."""
    deltas = c * np.geomspace(1e-9, 1.0 - 1e-9, steps)
    ps = np.linspace(0.0, 2.0, steps + 2)[1:-1]
    D, P = np.meshgrid(deltas, ps, indexing="ij")
    T = (gamma_norm + D) * C_inv_norm
    U = c - D * (1.0 + T * T / (2.0 * P))
    V = D * (1.0 - 0.5 * P)
    return float((0.5 * np.minimum(U, V)).max())


class TestOptimizeShift:
    def test_unit_constants(self):
        delta, p, c_tilde, d = sc.optimize_shift(1.0, 1.0, 1.0)
        assert 0 < d <= 0.5
        assert 0 < delta < 1.0
        assert 0 < p < 2.0
        assert c_tilde > 0
        oracle = _brute_force_shift(1.0, 1.0, 1.0)
        assert abs(d - oracle) <= 5e-3

    def test_margin_decreases_with_weaker_invertibility(self):
        previous = math.inf
        for k in (1.0, 2.0, 4.0, 8.0):
            _, _, _, d = sc.optimize_shift(1.0, 1.0, k)
            assert d <= previous + 1e-15
            previous = d

    def test_vanishing_inverse_norm_limit(self):
        # For C_inv_norm -> 0 the objective tends to (1/2) min(c - delta,
        # delta (1 - p/2)), whose supremum c/4 is approached at delta = c/2,
        # p -> 0; verified against the independent exhaustive search.
        c = 1.0
        delta, p, _, d = sc.optimize_shift(c, c, 1e-8)
        oracle = _brute_force_shift(c, c, 1e-8)
        assert abs(d - oracle) <= 1e-2
        assert abs(d - c / 4.0) <= 1e-2
        assert abs(delta - c / 2.0) <= 2e-2
        assert p < 0.05

    def test_margin_recomputes_bit_for_bit(self):
        delta, p, c_tilde, d = sc.optimize_shift(1.3, 0.7, 2.1)
        u, v = sc.damping_lower_bound(1.3, 0.7, 2.1, delta, p)
        assert d == 0.5 * min(u, v)
        assert c_tilde == u

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateProblem):
            sc.optimize_shift(0.0, 1.0, 1.0)
        with pytest.raises(DegenerateProblem):
            sc.optimize_shift(1.0, 1.0, 0.0)
        # ((gamma_norm + delta) * C_inv_norm)**2 overflows for every shift.
        with pytest.raises(DegenerateProblem):
            sc.optimize_shift(1.0, 1e200, 1e200)

    def test_weak_coupling_certified_below_old_grid_floor(self):
        # u_term can only be positive for delta below about 4e-15, far under
        # the 1e-9 * c floor of a fixed log grid; the margin is still positive.
        c, g, k = 1e-3, 1.0, 1e6
        delta, p, c_tilde, d = sc.optimize_shift(c, g, k)
        assert d > 0
        assert 0 < delta < 1e-9 * c
        assert 0 < p < 2
        u, v = sc.damping_lower_bound(c, g, k, delta, p)
        assert d == 0.5 * min(u, v)
        assert c_tilde == u

    @pytest.mark.parametrize("s", [1e-200, 1e200])
    @pytest.mark.parametrize("c, gamma_norm, C_inv_norm", [(1.0, 1.0, 1.0), (0.3, 2.5, 0.7), (5.0, 0.1, 12.0)])
    def test_margin_scales_with_damping(self, c, gamma_norm, C_inv_norm, s):
        # u_term and v_term at (s*c, s*gamma_norm, C_inv_norm/s, s*delta, p)
        # are s times those at (c, gamma_norm, C_inv_norm, delta, p).
        d = sc.optimize_shift(c, gamma_norm, C_inv_norm)[3]
        d_scaled = sc.optimize_shift(s * c, s * gamma_norm, C_inv_norm / s)[3]
        assert d_scaled == pytest.approx(s * d, rel=1e-9)

    def test_huge_damping_certified(self):
        delta, p, c_tilde, d = sc.optimize_shift(1e300, 1.0, 1.0)
        assert d > 0
        assert 0 < p < 2
        u, v = sc.damping_lower_bound(1e300, 1.0, 1.0, delta, p)
        assert d == 0.5 * min(u, v)
        assert c_tilde == u

    @settings(max_examples=300, deadline=None)
    @given(
        c=st.floats(1e-3, 1e3),
        gamma_norm=st.floats(0.0, 1e3),
        C_inv_norm=st.floats(1e-6, 1e6),
    )
    def test_admissible_and_no_worse_than_grid(self, c, gamma_norm, C_inv_norm):
        delta, p, c_tilde, d = sc.optimize_shift(c, gamma_norm, C_inv_norm)
        assert 0 < delta < c
        assert 0 < p < 2
        assert d > 0
        u, v = sc.damping_lower_bound(c, gamma_norm, C_inv_norm, delta, p)
        assert d == 0.5 * min(u, v)
        assert c_tilde == u
        assert d >= _grid_shift(c, gamma_norm, C_inv_norm) - 1e-12
        # delta is a root of f'/2, the cubic whose root maximizes the margin
        g, K2 = gamma_norm, C_inv_norm**2
        terms = (2 * K2 * delta**3, 3 * K2 * g * delta**2, (K2 * g * g + 4) * delta, -2 * c)
        assert abs(sum(terms)) <= 1e-12 * sum(map(abs, terms))


class TestInvertibleCertificate:
    def test_inner_bound_formula(self):
        cert = sc.invertible_certificate(1.0, 1.0, 1.0)
        expected = (2.0 / cert.d) * ((1.0 + 1.0 + cert.delta_star) * 1.0 + 2.0)
        assert cert.M_inner == expected
        assert cert.M_inner >= 2.0 / cert.d

    def test_sound_against_scalar_spectrum(self):
        # Oracle: the generator [[-1, 1], [-1, 0]] has eigenvalues solving
        # x^2 + x + 1 = 0, with real part -1/2.
        roots = np.roots([1.0, 1.0, 1.0])
        abscissa = float(roots.real.max())
        assert abscissa == pytest.approx(-0.5, abs=1e-12)
        cert = sc.invertible_certificate(1.0, 1.0, 1.0)
        assert cert.d <= -abscissa

    def test_margin_monotone_in_damping(self):
        d1 = sc.invertible_certificate(1.0, 1.0, 1.0).d
        d2 = sc.invertible_certificate(2.0, 1.0, 1.0).d
        assert d2 >= d1


class TestKernelBlockBound:
    def test_values(self):
        assert sc.kernel_block_bound(2.0, 0.0) == pytest.approx(0.5)
        assert sc.kernel_block_bound(1.0, -0.25) == pytest.approx(4.0 / 3.0)

    def test_floor_must_stay_above_minus_c(self):
        with pytest.raises(HalfPlaneViolation):
            sc.kernel_block_bound(1.0, -1.0)

    def test_numeric_audit_against_dense_inverse(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            gamma = random_coercive(rng, n, c=rng.uniform(0.2, 1.5))
            c = sc.hermitian_min_eig(gamma)
            floor = -0.5 * c
            bound = sc.kernel_block_bound(c, floor)
            lam = rng.uniform(-4, 4)
            measured = sc.operator_norm(
                np.linalg.inv((floor + 1j * lam) * np.eye(n) + gamma)
            )
            assert measured <= bound + 1e-10


class TestShiftedBlockCoercivity:
    def test_lower_bound_on_random_instances(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            gamma = random_coercive(rng, n, c=rng.uniform(0.3, 1.2))
            U = haar_unitary(rng, n)
            C = U @ np.diag(rng.uniform(0.4, 2.0, n)) @ haar_unitary(rng, n)
            c = sc.hermitian_min_eig(gamma)
            g = sc.operator_norm(gamma)
            k = sc.operator_norm(np.linalg.inv(C))
            delta = rng.uniform(0.02, 0.9) * c
            p = rng.uniform(0.05, 1.95)
            u, v = sc.damping_lower_bound(c, g, k, delta, p)
            z = complex(rng.uniform(-0.4 * c, 1.5), rng.uniform(-3, 3))
            block = np.zeros((2 * n, 2 * n), dtype=complex)
            shifted = gamma - delta * np.eye(n)
            block[:n, :n] = shifted
            block[:n, n:] = delta * (shifted @ np.linalg.inv(C))
            block[n:, n:] = delta * np.eye(n)
            block += z * np.eye(2 * n)
            assert sc.hermitian_min_eig(block) >= z.real + min(u, v) - 1e-10


class TestSmallFrequencyAudit:
    # 41 x 41 nodes on [-0.1, 0] x [-0.2, 0.2] sit at multiples of 0.0025
    # (real part) and 0.01 (imaginary part); lam lies between them.
    LAM = -0.05125 + 0.005j

    @staticmethod
    def _b_res(lam):
        return np.array(
            [[lam, 1.0, 0.0], [0.0, -1.0 + 0.3j, 1.0], [0.0, 0.0, -2.0]], dtype=complex
        )

    def test_eigenvalue_between_grid_nodes_forces_halving(self):
        B = self._b_res(self.LAM)
        # Sampling alone never sees the eigenvalue ...
        zs = (np.linspace(-0.1, 0.0, 41)[:, None] + 1j * np.linspace(-0.2, 0.2, 41)).ravel()
        norms, singular = _resolvent_norms(B, zs)
        assert not singular.any() and norms.max() <= 1e300
        # ... so the spectrum check must push delta past it.
        delta, audit = _small_frequency_audit(B, 0.1, 0.2, 1e300)
        assert delta < -self.LAM.real
        assert audit.halvings == 1
        assert audit.re_range == (-delta, 0.2)

    def test_eigenvalue_just_left_of_the_edge_forces_halving(self):
        # The spectrum lies left of Re z = -0.1, and the 41 edge nodes, 0.005
        # from the eigenvalue in Im z, stay near 300.  But the edge point
        # -0.1 + 0.005j, 1e-6 from the eigenvalue, has norm 1.56e6 > M_total.
        B = self._b_res(-0.1 - 1e-6 + 0.005j)
        edge = -0.1 + 1j * np.linspace(-0.2, 0.2, 41)
        assert _resolvent_norms(B, edge)[0].max() < 1e3
        assert _resolvent_norms(B, [-0.1 + 0.005j])[0][0] > 1e6
        delta, audit = _small_frequency_audit(B, 0.1, 0.2, 1e3)
        assert audit.halvings == 1 and delta == 0.05
        at_edge = _resolvent_norms(B, [-delta + 0.005j])[0][0]
        assert at_edge <= audit.max_resolvent_norm <= 1e3

    def test_spectrum_in_right_half_plane_fails(self):
        # The eigenvalue stays in the segment at every delta, so no cover can
        # pass and each of the 21 passes runs into the evaluation cap.
        B = self._b_res(0.01 + 0.005j)
        with pytest.raises(CertificateFailure, match=r"the cover stopped after \d+ evaluations"):
            _small_frequency_audit(B, 0.1, 0.2, 1e300)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n0=st.integers(1, 4),
        n1=st.integers(1, 4),
        c_gamma=st.floats(0.05, 5.0),
    )
    def test_cover_bounds_the_segment(self, seed, n0, n1, c_gamma):
        # A passed cover bounds the norm at every point of the disk segment
        # by the largest enclosure; 1e-12 allows for the rounding of the SVD.
        rng = np.random.default_rng(seed)
        s = random_block_system(rng, n0, n1, int(rng.integers(1, min(n0, n1) + 1)), c_gamma)
        prep = prepare(s)
        try:
            cert = sc.full_certificate(prep)
        except CertificateFailure:
            return
        audit = cert.audit
        box = rng.uniform(*audit.re_range, 400) + 1j * rng.uniform(*audit.im_range, 400)
        zs = box[np.abs(box) <= audit.im_range[1]]
        norms, singular = _resolvent_norms(prep.B_res, zs)
        assert not singular.any()
        assert norms.max(initial=0.0) <= audit.max_resolvent_norm * (1 + 1e-12)
        assert audit.max_resolvent_norm <= cert.M_total

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n0=st.integers(1, 4),
        n1=st.integers(1, 4),
        c_gamma=st.floats(0.05, 5.0),
    )
    def test_edge_bounds_the_disk_segment(self, seed, n0, n1, c_gamma):
        # Maximum principle: with the spectrum left of -delta, the norm on
        # {Re z >= -delta, |z| <= im_half} is at most its maximum over the
        # audited edge Re z = -delta and the arc |z| = im_half.  Check the old
        # 41 x 41 rectangle and 41 nodes of the strip 0 < Re z, |z| < im_half.
        rng = np.random.default_rng(seed)
        s = random_block_system(rng, n0, n1, int(rng.integers(1, min(n0, n1) + 1)), c_gamma)
        prep = prepare(s)
        try:
            cert = sc.full_certificate(prep)
        except CertificateFailure:
            return
        delta, im_half = cert.delta_cert, cert.audit.im_range[1]
        rectangle = np.linspace(-delta, 0.0, 41)[:, None] + 1j * np.linspace(-im_half, im_half, 41)
        strip = 0.5 * im_half * np.exp(1j * np.linspace(-np.pi / 2, np.pi / 2, 43)[1:-1])
        norms, singular = _resolvent_norms(prep.B_res, np.concatenate([rectangle.ravel(), strip]))
        assert not singular.any()
        assert norms.max() <= cert.M_total


class TestFullCertificate:
    def test_two_by_one_pipeline(self):
        s = sc.validate_system(np.eye(2), np.eye(1), np.eye(2), [[1.0, 0.0]])
        cert = sc.full_certificate(s)
        assert cert.working_abscissa == pytest.approx(0.25)
        assert cert.c_eff == pytest.approx(0.75)
        assert cert.sigma_min_pos == pytest.approx(1.0, abs=1e-12)
        assert cert.rank == 1
        # Oracle: the restricted generator couples (u1, v) through
        # x^2 + x + 1 = 0 (real part -1/2) and decays at rate 1 on the kernel.
        ns = sc.normalize_system(s)
        fr = sc.decompose(ns.D)
        abscissa = sc.spectral_abscissa(sc.restricted_generator(ns.gamma_tilde, fr))
        assert abscissa == pytest.approx(-0.5, abs=1e-12)
        assert 0 < cert.delta_cert <= 0.5

    def test_scalar_full_system(self):
        s = sc.validate_system([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        cert = sc.full_certificate(s)
        assert 0 < cert.delta_cert <= 0.5
        assert cert.transform_bound == 1.0
        assert cert.kernel_bound == 0.0
        B = sc.assemble_generator(np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]]))
        measured_peak = sc.resolvent_norm(B, 0.0)
        assert measured_peak == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
        assert cert.M_total >= measured_peak

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(55)
        gamma = random_coercive(rng, 3, c=0.6)
        C = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        scaled = sc.validate_system(4.0 * np.eye(3), 9.0 * np.eye(2), gamma, C)
        cert_scaled = sc.full_certificate(scaled)
        ns = sc.normalize_system(scaled)
        plain = sc.validate_system(np.eye(3), np.eye(2), ns.gamma_tilde, ns.D)
        cert_plain = sc.full_certificate(plain)
        assert cert_scaled.delta_cert == pytest.approx(cert_plain.delta_cert, rel=1e-12)
        assert cert_scaled.inner.d == pytest.approx(cert_plain.inner.d, rel=1e-12)
        # kappa_norm covers the weights: 2 * (1/2) on alpha, 3 * (1/3) on beta
        assert cert_scaled.kappa_norm == pytest.approx(3.0 * 0.5, rel=1e-12)
        assert cert_plain.kappa_norm == pytest.approx(1.0, rel=1e-12)

    def test_component_consistency_invariants(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            n0 = int(rng.integers(1, 6))
            n1 = int(rng.integers(1, 6))
            r = int(rng.integers(1, min(n0, n1) + 1))
            s = random_block_system(rng, n0, n1, r)
            cert = sc.full_certificate(s)
            assert 0 < cert.delta_cert <= cert.working_abscissa
            assert cert.working_abscissa == pytest.approx(cert.c_gamma_tilde / 4.0)
            assert cert.delta_cert <= cert.inner.d
            assert cert.delta_cert <= cert.c_gamma_tilde
            assert math.isfinite(cert.M_total)
            u, v = sc.damping_lower_bound(
                cert.inner.c,
                cert.inner.gamma_norm,
                cert.inner.C_inv_norm,
                cert.inner.delta_star,
                cert.inner.p_star,
            )
            assert cert.inner.d == 0.5 * min(u, v)

    def test_zero_range_with_second_component_rejected(self):
        s = sc.validate_system(np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ZeroRangeOperator):
            sc.full_certificate(s)

    def test_empty_system_is_refused(self):
        # Its coercivity is +inf, so the chain would claim delta_cert = inf
        # with M_total = 0 over an empty Neumann cover.
        empty = np.zeros((0, 0))
        with pytest.raises(DegenerateProblem):
            sc.full_certificate(sc.validate_system(empty, empty, empty, empty))

    def test_kernel_only_certificate_without_second_component(self):
        gamma = np.array([[2.0, 0.3], [0.1, 1.5]])
        s = sc.validate_system(np.eye(2), np.zeros((0, 0)), gamma, np.zeros((0, 2)))
        cert = sc.full_certificate(s)
        assert cert.inner is None
        assert cert.rank == 0
        assert cert.delta_cert == pytest.approx(cert.c_gamma_tilde / 4.0)
        assert cert.M_total == pytest.approx(cert.kernel_bound)
        abscissa = sc.spectral_abscissa(-gamma)
        assert abscissa <= -cert.delta_cert


class _NoLinalg:
    def __getattr__(self, name):
        raise AssertionError(f"np.linalg.{name} called")


def _rank_case(rng, case, n0, extra):
    """A random system whose coupling has no range, a partial one, or full rank n0."""
    if case == "none":
        return random_block_system(rng, n0, 0, 0)
    r = int(rng.integers(1, n0)) if case == "partial" else n0
    return random_block_system(rng, n0, r + extra, r)


class TestChain:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        case=st.sampled_from(["none", "partial", "full"]),
        n0=st.integers(2, 5),
        extra=st.integers(0, 2),
    )
    def test_formulas_reproduce_every_constant(self, seed, case, n0, extra):
        prep = prepare(_rank_case(np.random.default_rng(seed), case, n0, extra))
        cert = sc.full_certificate(prep)
        assert formula_mismatches(dataclasses.asdict(cert), certificate.FORMULAS) == {}
        pre = certificate.chain(certificate.measure(prep))
        assert dataclasses.replace(pre, delta_cert=cert.delta_cert, audit=cert.audit) == cert

    @pytest.mark.parametrize("case", ["none", "partial", "full"])
    def test_chain_reads_no_matrix(self, monkeypatch, case):
        cert = sc.full_certificate(_rank_case(np.random.default_rng(5), case, 4, 1))
        assert cert.audit.halvings == 0  # so delta_cert is the chain's own
        inputs = certificate.ChainInputs(
            **{f.name: getattr(cert, f.name) for f in dataclasses.fields(certificate.ChainInputs)}
        )
        assert {type(x) for x in vars(inputs).values()} <= {int, float}
        with monkeypatch.context() as m:
            m.setattr(np, "linalg", _NoLinalg())
            pre = certificate.chain(inputs)
        assert pre.audit is None
        assert dataclasses.replace(pre, audit=cert.audit) == cert


# Restricted generator with spectral abscissa -3.
_FAST_DECAY = ([[1.0]], [[2.0, 1.0], [1.0, 2.0]], [[6.0]], [[20.0], [20.0]])


def _hetero_grid():
    """A per-cell N = 3 grid, where no scalar shortcut applies (m = 133)."""
    rng = np.random.default_rng(7)
    return sc.build_maxwell_system(
        sc.GridSpec(N=3), eps=rng.uniform(1.0, 2.0, 27), sigma=rng.uniform(0.5, 1.5, 27)
    )


class TestPrepare:
    def test_audit_size_guard(self):
        # m = n0 + rank = 660 is above the 640 rows the dense audit can finish;
        # the refusal comes before B_res or its eigenvalues are built.
        n = 330
        s = sc.validate_system(np.eye(n), np.eye(n), np.eye(n), np.eye(n))
        with pytest.raises(GridTooLarge, match="660 rows"):
            prepare(s)

    def test_first_component_above_the_limit_is_refused_before_normalizing(self, monkeypatch):
        # m = n0 + rank >= n0 = 641 exceeds the limit whatever the rank, so
        # neither the normalization nor the SVD of D is needed to refuse it.
        n0 = 641
        s = sc.BlockSystem(np.eye(n0), np.eye(1), np.eye(n0), np.ones((1, n0)), 1.0, 1.0, 1.0)
        calls = []
        monkeypatch.setattr(certificate, "normalize_system", lambda *args: calls.append(args))
        with pytest.raises(GridTooLarge, match="641"):
            prepare(s)
        assert calls == []

    def test_random_start_uses_the_certified_splitting(self):
        # rank(C) = 2 but rank(D) = 1: beta = diag(1, 1e4) takes C's singular
        # value 1e-15 to 1e-17, below the rounding-level cutoff.  A start
        # projected with the frames of C keeps a mode that the certificate
        # excludes, and it never decays.
        s = sc.validate_system(np.eye(2), np.diag([1.0, 1e4]), np.eye(2), np.diag([1.0, 1e-15]))
        assert sc.decompose(s.C).r == 2
        audit = sc.audit_system(s)
        assert audit.certificate.rank == 1
        assert all(audit.checks.values())

    def test_resolvable_weak_coupling_is_kept_and_refused(self):
        # D = diag(1, 5e-11): the weak singular value is far above rounding
        # level, so it stays in the range, and the mode it couples decays at
        # a rate near 2.5e-21, which no certificate can claim.
        s = sc.validate_system(np.eye(2), np.diag([1.0, 100.0]), np.eye(2), np.diag([1.0, 5e-10]))
        assert prepare(s).frames.r == 2
        with pytest.raises(CertificateFailure):
            sc.full_certificate(s)

    @settings(max_examples=60, deadline=None)
    @given(
        exponent=st.floats(-17.0, -8.0),
        n0=st.integers(2, 4),
        n1=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_weak_singular_value_never_certifies_false_decay(self, exponent, n0, n1, seed):
        # One singular value of C at 10**exponent * s_max, in random unitary
        # frames: the system is refused, or the trajectory of an admissible
        # start stays under M_total*exp(-delta_cert*t) until that is 1e-13.
        rng = np.random.default_rng(seed)
        r = min(n0, n1)
        sv = np.concatenate([[1.0], rng.uniform(0.2, 1.0, r - 2), [10.0**exponent]])
        C = haar_unitary(rng, n1)[:, :r] @ np.diag(sv) @ haar_unitary(rng, n0)[:, :r].conj().T
        s = sc.validate_system(np.eye(n0), np.eye(n1), random_coercive(rng, n0), C)
        try:
            prep = prepare(s)
            cert = sc.full_certificate(prep)
        except sc.StabcertError:
            return
        ns = prep.normalized
        U0, _ = admissible_start(ns, prep.frames, *random_components(seed, n0, n1))
        t_end = math.log(cert.M_total / 1e-13) / cert.delta_cert
        trace = sc.simulate(sc.assemble_generator(ns.gamma_tilde, ns.D), U0, t_end, 2001)
        bound = cert.M_total * np.exp(-cert.delta_cert * trace.times)
        assert np.all(trace.state_norms <= bound)

    @pytest.mark.parametrize(
        "system, t_end",
        [
            (([[1.0]], [[1.0]], [[1.0]], [[1.0]]), 20.0),  # abscissa -1/2
            (_FAST_DECAY, 10.0),  # abscissa -3: 30 / 3
        ],
    )
    def test_audit_recipe(self, system, t_end):
        audit = sc.audit_system(sc.validate_system(*system))
        cert, cover = audit.certificate, audit.cover
        assert cover.a == cert.delta_cert / 2.0 and cover.re_range[0] == -cover.a
        assert cover.bound == cert.M_total * (1.0 + 1e-6)
        assert cover.passed and 0 < cover.evaluations <= 802
        assert len(audit.trace.times) == 801
        assert audit.trace.times[-1] == pytest.approx(t_end, rel=1e-12)

    def test_oracles_evaluate_few_resolvents(self, monkeypatch):
        # On a per-cell N = 3 grid, where no scalar shortcut applies, the
        # audit and the cover test fewer than 100 square centres in all (two
        # 401-point sweeps took 802), the Cholesky test decides each of them,
        # and nothing evaluates a resolvent norm by SVD.
        s = _hetero_grid()
        points, norms = [], []

        def spy(B, zs, s):
            points.append(np.asarray(zs).size)
            return _sigma_min_test(B, zs, s)

        def svd_spy(B, zs):
            norms.append(np.asarray(zs).size)
            return _resolvent_norms(B, zs)

        for module in (certificate, verify):
            for attr, value in list(vars(module).items()):
                if value is _sigma_min_test:
                    monkeypatch.setattr(module, attr, spy)
                if value is _resolvent_norms:
                    monkeypatch.setattr(module, attr, svd_spy)
        audit = sc.audit_system(s)
        assert all(audit.checks.values())
        assert 0 < sum(points) < 100
        assert not norms
        assert audit.certificate.audit.halvings == 0
        assert sum(points) == audit.cover.evaluations + audit.certificate.audit.grid_shape[1]

    def test_fast_decay_fits_above_the_rounding_floor(self):
        # Spectral abscissa -3: by t = 50/3 the trajectory sits on the
        # rounding-level ker(D*) part of the start (about 3e-16), which never
        # decays, and the fit flattened to 1.10 against delta_cert = 1.11.
        audit = sc.audit_system(sc.validate_system(*_FAST_DECAY), seed=0)
        assert audit.abscissa == pytest.approx(-3.0)
        assert audit.fitted_rate == pytest.approx(3.0, rel=1e-3)
        assert all(audit.checks.values())


def _threads_left():
    """``(other threads, stabcert threads, OpenBLAS thread count)`` of the process now."""
    blas = _openblas_threads()
    kept = [t for t in threading.enumerate() if t.name.startswith("stabcert")]
    return threading.active_count() - len(kept), kept, blas and blas[0]()


def _assert_only_the_kept_worker(before, after):
    """Each call left at most one stabcert thread, always the same, and no other.

    ``before`` and every entry of ``after`` are :func:`_threads_left` results;
    the BLAS thread count is restored after every call.
    """
    assert all(len(kept) <= 1 for _, kept, _ in [before, *after])
    assert len({t for _, kept, _ in [before, *after] for t in kept}) <= 1
    assert [(others, blas) for others, _, blas in after] == [(before[0], before[2])] * len(after)


class TestOverlappedCover:
    """audit_system's oracles on the kept worker thread: same results and errors, no leaks."""

    @pytest.fixture()
    def overlap(self, monkeypatch):
        """Force the overlap wherever the BLAS pin holds, whatever the CPU count."""
        monkeypatch.setattr(certificate, "usable_cpus", lambda: 2)
        monkeypatch.setattr(certificate, "_OVERLAP_MIN_DIM", 0)
        return monkeypatch

    def test_overlap_matches_the_serial_order(self, overlap):
        s = _hetero_grid()
        cover_threads, eigvals_threads, simulate_threads = [], [], []

        def cover(*args):
            cover_threads.append(threading.current_thread())
            return verify.resolvent_cover(*args)

        def eigvals(B):
            eigvals_threads.append(threading.current_thread())
            return verify._unlocked_eigvals(B)

        def simulate(*args):
            simulate_threads.append(threading.current_thread())
            return verify.restricted_simulate(*args)

        overlap.setattr(certificate, "resolvent_cover", cover)
        overlap.setattr(certificate, "_unlocked_eigvals", eigvals)
        overlap.setattr(certificate, "restricted_simulate", simulate)
        on = sc.audit_system(s)
        overlap.setattr(certificate, "_OVERLAP_MIN_DIM", 10**9)
        off = sc.audit_system(s)
        # The cover runs on this thread in both orders; the lock-free
        # eigensolve and then the trajectory run on the worker, and only
        # when the overlap is taken.
        here = threading.current_thread()
        overlapped = _openblas_threads() is not None
        assert cover_threads == [here] * 2
        assert len(eigvals_threads) == overlapped
        assert here not in eigvals_threads
        assert len(simulate_threads) == 2 and simulate_threads[1] is here
        assert (simulate_threads[0] is here) is not overlapped
        assert simulate_threads[:overlapped] == eigvals_threads
        assert dataclasses.asdict(on.certificate) == dataclasses.asdict(off.certificate)
        assert dataclasses.asdict(on.cover) == dataclasses.asdict(off.cover)
        assert on.abscissa == off.abscissa and on.fitted_rate == off.fitted_rate
        assert (on.restriction_residual, on.frame_defect) == (off.restriction_residual, off.frame_defect)
        assert np.array_equal(on.trace.state_norms, off.trace.state_norms)
        assert on.checks == off.checks and all(on.checks.values())

    @pytest.mark.parametrize("where", ["resolvent_cover", "fit_decay_rate"])
    def test_errors_propagate_and_leave_no_thread(self, overlap, where):
        def slow_cover(*args):
            time.sleep(0.2)
            if where == "resolvent_cover":
                raise CertificateFailure("resolvent_cover failed")
            return verify.resolvent_cover(*args)

        def fail_fit(trace):
            raise CertificateFailure("fit_decay_rate failed")

        overlap.setattr(certificate, "resolvent_cover", slow_cover)
        if where == "fit_decay_rate":
            overlap.setattr(certificate, "fit_decay_rate", fail_fit)
        before, after = _threads_left(), []
        for _ in range(2):
            with pytest.raises(CertificateFailure, match=f"{where} failed"):
                sc.audit_system(sc.validate_system([[1.0]], [[1.0]], [[1.0]], [[1.0]]))
            after.append(_threads_left())
        _assert_only_the_kept_worker(before, after)

    def test_a_certificate_error_releases_the_waiting_worker(self, overlap):
        # full_certificate fails before the start is drawn: the worker takes
        # the abscissa, no trajectory is submitted, and the certificate's
        # error is raised once the abscissa is done, on both paths.
        ran = []

        def fail_certificate(prep):
            ran.append("full_certificate")
            raise CertificateFailure("full_certificate failed")

        def eigvals(B):
            ran.append("eigensolve")
            return verify._unlocked_eigvals(B)

        def simulate(*args):
            ran.append("restricted_simulate")
            return verify.restricted_simulate(*args)

        overlap.setattr(certificate, "full_certificate", fail_certificate)
        overlap.setattr(certificate, "_unlocked_eigvals", eigvals)
        overlap.setattr(certificate, "restricted_simulate", simulate)
        s = sc.validate_system([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        before, after = _threads_left(), []
        for min_dim in (0, 0, 10**9):  # overlapped where the BLAS pin holds, then serial
            overlap.setattr(certificate, "_OVERLAP_MIN_DIM", min_dim)
            ran.clear()
            with pytest.raises(CertificateFailure, match="full_certificate failed"):
                sc.audit_system(s)
            after.append(_threads_left())
            overlapped = min_dim == 0 and _openblas_threads() is not None
            assert sorted(ran) == ["eigensolve"] * overlapped + ["full_certificate"]
        _assert_only_the_kept_worker(before, after)

    def test_the_worker_leaves_no_reference_cycle(self, overlap):
        # A task or future kept alive by a cycle would hold B_res, the frames
        # and the trajectory until the cyclic collector ran: about 2 MB more
        # heap in use on the N = 3 grid, resident because it is fragmented.
        s = sc.build_maxwell_system(sc.GridSpec(N=3))
        gc.collect()
        gc.disable()
        try:
            sc.audit_system(s)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("failing", ["calling thread", "eigensolve", "both"])
    def test_the_serial_order_decides_which_error_is_raised(self, overlap, failing):
        # The eigensolve sleeps, so a calling-thread step fails while it is
        # still running.  In the serial order the restriction defects come
        # before the abscissa, so their error is the one raised when both
        # fail, whichever path the CPU count picks.  The trajectory is
        # submitted before the cover, so there a worker whose eigensolve
        # succeeds goes on to simulate before audit_system returns.
        ran = []

        def slow_eigvals(B):
            time.sleep(0.2)
            ran.append("eigensolve")
            if failing != "calling thread":
                raise np.linalg.LinAlgError("eigensolve failed")
            return verify._unlocked_eigvals(B)

        def serial_abscissa(B):
            if failing != "calling thread":
                raise np.linalg.LinAlgError("eigensolve failed")
            return verify.spectral_abscissa(B)

        def defects(*args):
            ran.append("restriction_defects")
            if failing != "eigensolve":
                raise CertificateFailure("restriction_defects failed")
            return verify.restriction_defects(*args)

        def simulate(*args):
            ran.append("restricted_simulate")
            return verify.restricted_simulate(*args)

        overlap.setattr(certificate, "_unlocked_eigvals", slow_eigvals)
        overlap.setattr(certificate, "spectral_abscissa", serial_abscissa)
        overlap.setattr(certificate, "restriction_defects", defects)
        overlap.setattr(certificate, "restricted_simulate", simulate)
        error, match = ((np.linalg.LinAlgError, "eigensolve") if failing == "eigensolve"
                        else (CertificateFailure, "restriction_defects"))
        s = sc.validate_system([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        before, after = _threads_left(), []
        for min_dim in (0, 0, 10**9):  # overlapped where the BLAS pin holds, then serial
            overlap.setattr(certificate, "_OVERLAP_MIN_DIM", min_dim)
            ran.clear()
            with pytest.raises(error, match=f"{match} failed"):
                sc.audit_system(s)
            after.append(_threads_left())
            if min_dim == 0 and _openblas_threads() is not None:
                # Both tasks were done before the error left audit_system.
                simulated = ["restricted_simulate"] * (failing == "calling thread")
                assert ran == ["restriction_defects", "eigensolve"] + simulated
            else:
                assert "restricted_simulate" not in ran
        _assert_only_the_kept_worker(before, after)

    def test_one_worker_serves_every_call(self, overlap):
        s = sc.validate_system([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        before, after = _threads_left(), []
        for _ in range(100):
            assert all(sc.audit_system(s).checks.values())
            after.append(_threads_left())
        _assert_only_the_kept_worker(before, after)
        assert len(after[-1][1]) == (_openblas_threads() is not None)

    @pytest.mark.skipif(_openblas_threads() is None, reason="the overlap needs the BLAS pin")
    def test_the_worker_keeps_nothing_from_a_call(self, overlap):
        received = []

        def simulate(B_res, *args):
            received.append(weakref.ref(B_res))
            return verify.restricted_simulate(B_res, *args)

        overlap.setattr(certificate, "restricted_simulate", simulate)
        audit = sc.audit_system(sc.build_maxwell_system(sc.GridSpec(N=3)))
        assert len(received) == 1
        del audit
        # The trajectory's future is resolved a few bytecodes before the
        # worker drops its task; a second task is taken only after that.
        certificate._oracle_worker(os.getpid()).submit(int).result()
        gc.collect()
        assert received[0]() is None

    @pytest.mark.skipif(_openblas_threads() is None, reason="the overlap needs the BLAS pin")
    def test_a_forked_child_starts_its_own_worker(self, overlap):
        # A child forked after an overlapped call inherits the parent's
        # executor but not its thread: handed that executor, its audit would
        # wait forever for tasks no thread takes.
        s = sc.validate_system([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        sc.audit_system(s)
        with warnings.catch_warnings():
            # Python 3.12 and later warn when a process with threads forks.
            warnings.simplefilter("ignore", DeprecationWarning)
            child = multiprocessing.get_context("fork").Process(target=sc.audit_system, args=(s,))
            child.start()
        child.join(60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0


_BLOCKS = ("alpha", "beta", "gamma", "C")


def _complex_twin(s):
    """The same system with its four blocks stored as complex128."""
    return dataclasses.replace(s, **{k: getattr(s, k).astype(complex) for k in _BLOCKS})


def _assert_same_audit(real, twin):
    assert real.checks == twin.checks
    for x, y in [
        (real.certificate.delta_cert, twin.certificate.delta_cert),
        (real.certificate.M_total, twin.certificate.M_total),
        (real.abscissa, twin.abscissa),
    ]:
        assert x == pytest.approx(y, rel=1e-12, abs=0.0)


class TestRealArithmetic:
    """A real system runs in real arithmetic and agrees with its complex twin."""

    @pytest.mark.parametrize(
        "build",
        [lambda: sc.build_maxwell_system(sc.GridSpec(N=3)), _hetero_grid],
        ids=["homogeneous", "per-cell"],
    )
    def test_grid_agrees_with_its_complex_twin(self, build):
        s = build()
        twin = _complex_twin(s)
        assert {getattr(s, k).dtype for k in _BLOCKS} == {np.dtype(float)}
        assert prepare(s).B_res.dtype == np.float64
        assert prepare(twin).B_res.dtype == np.complex128
        real, complex_run = sc.audit_system(s), sc.audit_system(twin)
        assert all(real.checks.values())
        _assert_same_audit(real, complex_run)
        # The cover's strip is sized by ||B_res||, which the frames of the
        # real and the complex SVD do not change.
        assert real.cover.evaluations == complex_run.cover.evaluations
        for x, y in [(real.cover.im_range[1], complex_run.cover.im_range[1]),
                     (real.cover.max_enclosure, complex_run.cover.max_enclosure)]:
            assert x == pytest.approx(y, rel=1e-12, abs=0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n0=st.integers(1, 4),
        n1=st.integers(1, 4),
        r=st.integers(0, 4),
    )
    def test_random_real_systems_agree_with_their_complex_twins(self, seed, n0, n1, r):
        s = random_real_block_system(np.random.default_rng(seed), n0, n1, min(r, n0, n1))
        try:
            real = sc.audit_system(s)
        except sc.StabcertError as exc:
            with pytest.raises(type(exc)):
                sc.audit_system(_complex_twin(s))
            return
        _assert_same_audit(real, sc.audit_system(_complex_twin(s)))
