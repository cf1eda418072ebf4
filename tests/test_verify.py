import importlib.util
import math
import sys
from pathlib import Path

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
from stabcert.certificate import prepare
from stabcert.helmholtz import frame_embedding
from stabcert.verify import (
    _RESOLVENT_STACK_BYTES, _resolvent_norms, admissible_start, random_components,
)

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

    def test_real_generator_takes_one_svd_per_conjugate_pair(self, monkeypatch):
        # sigma(conj(z) I - B) = sigma(z I - B) for a real B.  Eight points in
        # three conjugate pairs and two on the real axis reach the SVD as five
        # matrices, and every norm is the unfolded complex computation's, bit
        # for bit; a complex B folds nothing.
        B = _grid_generator()
        assert B.dtype == float
        zs = np.array([-0.01 + 0.5j, 0.2, -0.01 - 0.5j, 1.5 - 2j, 1.5 + 2j, 0.3j, -0.3j, -0.01])
        unfolded = _resolvent_norms(B.astype(complex), zs)
        stacks = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            stacks.append(a.shape[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        folded = _resolvent_norms(B, zs)
        assert sum(stacks) == 5
        assert np.array_equal(folded[0], unfolded[0]) and np.array_equal(folded[1], unfolded[1])
        stacks.clear()
        _resolvent_norms(B.astype(complex), zs)
        assert sum(stacks) == zs.size


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


class TestSweepEngine:
    """gp_sweep's norms are the dense SVD's, :func:`_resolvent_norms`."""

    def test_per_cell_materials_take_the_dense_path_bit_for_bit(self):
        rng = np.random.default_rng(7)
        B = _grid_generator(eps=rng.uniform(1.0, 2.0, 27), sigma=rng.uniform(0.5, 1.5, 27))
        rep = sc.gp_sweep(B, -0.01, 50.0, 41)
        dense_norms, dense_singular = _resolvent_norms(B, -0.01 + 1j * rep.lambdas)
        assert np.array_equal(rep.norms, dense_norms)
        assert np.array_equal(rep.lambdas[dense_singular], rep.singular_points)

    def test_repeated_calls_are_bit_identical(self):
        B = _grid_generator()
        first, second = sc.gp_sweep(B, -0.01, 50.0, 41), sc.gp_sweep(B, -0.01, 50.0, 41)
        assert np.array_equal(first.norms, second.norms)
        assert np.array_equal(first.singular_points, second.singular_points)


def _claim_systems():
    """(name, system) of the scalar system, two N = 3 grids and the certified corpus."""
    rng = np.random.default_rng(7)
    systems = [
        ("scalar", sc.validate_system([[1.0]], [[1.0]], [[1.0]], [[1.0]])),
        ("grid", sc.build_maxwell_system(sc.GridSpec(N=3))),
        ("per-cell grid", sc.build_maxwell_system(
            sc.GridSpec(N=3), eps=rng.uniform(1.0, 2.0, 27), sigma=rng.uniform(0.5, 1.5, 27))),
    ]
    rng = np.random.default_rng(20260810)
    for k in range(200):
        n0, n1 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        r = int(rng.integers(0, min(n0, n1) + 1))
        system = random_block_system(rng, n0, n1, r)
        if r:
            systems.append((f"corpus-{k}", system))
    return systems


def _claims():
    """(name, B_res, certificate) of each of :func:`_claim_systems`."""
    for name, system in _claim_systems():
        prep = prepare(system)
        yield name, prep.B_res, sc.full_certificate(prep)


def _load_perfbench_workloads(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads


class TestResolventCover:
    def test_true_claims_pass_and_wrong_claims_fail(self):
        # A passed cover proves ||R(z)|| <= bound on all of Re z >= -a.  Half
        # the largest norm sampled on Re z = 0 (over the rectangle's height),
        # or a half-plane that holds an eigenvalue, makes that false, so the
        # cover must fail.
        count = 0
        for name, B, cert in _claims():
            a, bound = cert.delta_cert / 2.0, cert.M_total * (1.0 + 1e-6)
            cover = verify.resolvent_cover(B, a, bound)
            assert cover.passed and cover.max_enclosure <= bound, name
            low = 0.5 * sc.gp_sweep(B, 0.0, cover.im_range[1], 101).max_norm
            assert not verify.resolvent_cover(B, a, low).passed, name
            assert not verify.resolvent_cover(B, -2.0 * sc.spectral_abscissa(B), bound).passed, name
            count += 1
        assert count == 3 + 134

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 6),
        skew=st.floats(0.0, 3.0),
        a_share=st.floats(0.05, 1.5),
        factor=st.floats(0.5, 4.0),
    )
    def test_a_passed_cover_bounds_every_point(self, seed, m, skew, a_share, factor):
        # Dissipative B with Hermitian part in [-2, -0.05]; a up to 1.5 times
        # the decay rate and a bound around the largest norm on Re z = -a, so
        # that about half the covers fail.  Where one passes, dense norms at
        # random points of the half-plane, |Im z| up to 3R, stay within it.
        rng = np.random.default_rng(seed)
        Q = haar_unitary(rng, m)
        B = -Q @ np.diag(rng.uniform(0.05, 2.0, m)) @ Q.conj().T + random_skew(rng, m, skew)
        a = a_share * -sc.spectral_abscissa(B)
        peak = _resolvent_norms(B, -a + 1j * np.linspace(-10.0, 10.0, 81))[0].max()
        if not np.isfinite(peak):
            return
        bound = factor * peak
        cover = verify.resolvent_cover(B, a, bound)
        if not cover.passed:
            return
        R = cover.im_range[1]
        on_line = rng.random(400) < 0.2
        zs = -a + np.where(on_line, 0.0, rng.exponential(R, 400)) + 1j * rng.uniform(-3 * R, 3 * R, 400)
        norms, singular = _resolvent_norms(B, zs)
        assert not singular.any()
        assert norms.max() <= bound * (1.0 + 1e-9)

    def test_capped_cover_fails_without_raising(self, monkeypatch):
        # The wrong claim a = -2 * abscissa takes the uncapped cover 116
        # evaluations (re-measured with the strip sized by ||B||, 1.63 high
        # where sqrt(||B||_1 ||B||_inf) gave 2.01); capped at 20, it stops
        # after the first row of squares.
        B = sc.assemble_generator([[1.0]], [[1.0]])
        monkeypatch.setattr(verify, "_COVER_EVALS", 20)
        cover = verify.resolvent_cover(B, -2.0 * sc.spectral_abscissa(B), 80.0)
        assert not cover.passed
        assert 0 < cover.evaluations <= 20

    def test_cover_does_not_depend_on_the_frames(self, monkeypatch):
        # The maxwell-n3-hetero benchmark problems at seeds 20260810 and 7 are
        # cyclic translations of one material draw: one operator, written in
        # other frames.  With the strip sized by sqrt(||B||_1 ||B||_inf) their
        # covers spent 14 and 15 evaluations.
        workloads = _load_perfbench_workloads(monkeypatch)
        covers = []
        for seed in (20260810, 7):
            p = workloads.maxwell_n3_hetero(seed)[0]
            prep = prepare(sc.validate_system(p.alpha, p.beta, p.gamma, p.C))
            cert = sc.full_certificate(prep)
            covers.append(verify.resolvent_cover(
                prep.B_res, cert.delta_cert / 2.0, cert.M_total * (1.0 + 1e-6)))
        first, second = covers
        assert first.passed and second.passed
        assert first.evaluations == second.evaluations
        assert first.im_range[1] == pytest.approx(second.im_range[1], rel=1e-12, abs=0)
        assert first.max_enclosure == pytest.approx(second.max_enclosure, rel=1e-12, abs=0)

    def test_empty_rectangle_needs_no_evaluation(self):
        # Pure damping -I: Re z >= -0.1 lies right of h + 1/bound = -0.5.
        cover = verify.resolvent_cover(-np.eye(3), 0.1, 2.0)
        assert cover.passed and cover.evaluations == 0
        assert cover.re_range == (-0.1, -0.5)


def _mp_sigma_min(B, z) -> "mpmath.mpf":
    """sigma_min(z I - B) to 50 digits; every double converts exactly."""
    import mpmath

    with mpmath.workdps(50):
        A = mpmath.matrix(B.shape[0])
        for i, j in np.ndindex(B.shape):
            A[i, j] = (z if i == j else 0) - mpmath.mpc(complex(B[i, j]))
        return min(mpmath.svd_c(A, compute_uv=False))


class TestSigmaMinTest:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 8),
        complex_b=st.booleans(),
        complex_z=st.booleans(),
        scale=st.floats(1e-3, 1e3),
        offset=st.floats(-1e-8, 1e-8),
    )
    def test_never_accepts_below_the_true_sigma_min(self, seed, m, complex_b, complex_z, scale, offset):
        # s within 1e-8 relative of the 50-digit sigma_min of the first
        # centre, on either side; the others share that s.  A proof must
        # never be claimed where the true sigma_min is below s.
        rng = np.random.default_rng(seed)
        B = scale * rng.standard_normal((m, m))
        if complex_b:
            B = B + 1j * scale * rng.standard_normal((m, m))
        zs = scale * rng.standard_normal(3)
        if complex_z:
            zs = zs + 1j * scale * rng.standard_normal(3)
        truth = [_mp_sigma_min(B, complex(z)) for z in zs]
        s = float(truth[0]) * (1.0 + offset)
        proved, decided = verify._sigma_min_test(B, zs, s)
        for z, sigma, ok in zip(zs, truth, proved):
            assert not ok or sigma >= s, (z, sigma, s)
        assert not (proved & ~decided).any()

    def test_accepts_a_margin_of_1e_8(self):
        # Well-conditioned points: the allowance is far below 1e-8 s**2, so
        # the test proves sigma_min >= s one part in 1e8 below the truth.
        rng = np.random.default_rng(3)
        for complex_b in (False, True):
            B = rng.standard_normal((8, 8)) + (1j * rng.standard_normal((8, 8)) if complex_b else 0)
            for z in (2.5, 1.0 + 4.0j):
                sigma = float(_mp_sigma_min(B, z))
                assert verify._sigma_min_test(B, [z], sigma * (1 - 1e-8))[0].all()
                assert not verify._sigma_min_test(B, [z], sigma * (1 + 1e-8))[0].any()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_one_failing_matrix_in_a_stack_marks_its_centre(self, dtype, monkeypatch):
        # A normal B with spectrum {0, 1, 2, 3}: sigma_min(z I - B) is the
        # distance from z to it.  Only 1.1 + 0.05j lies within 0.5, so the
        # stacked factorization fails and each matrix is factored again.
        B = np.diag([0.0, 1.0, 2.0, 3.0]).astype(dtype)
        zs = np.array([1.5 + 2.0j, 1.1 + 0.05j, -1.0 + 1.0j, 4.0 + 3.0j, 1.5 - 2.0j])
        calls = []
        cholesky = np.linalg.cholesky

        def spy(X):
            calls.append(np.shape(X))
            return cholesky(X)

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        proved, decided = verify._sigma_min_test(B, zs, 0.5)
        assert decided.all()
        assert proved.tolist() == [True, False, True, True, True]
        stack = 5 if dtype is complex else 4  # a real B shares one test per conjugate pair
        assert calls == [(stack, 4, 4)] + [(4, 4)] * stack

    def test_a_bound_at_rounding_level_is_not_decided(self):
        # At s = 1e-13, s**2 is far below the rounding allowance of a Gram:
        # no centre is factored and nothing is proved, not even 0.5, where
        # sigma_min = 0.5.  At s = 0.25 the same centres are decided.
        B = np.diag([0.0, 1.0])
        proved, decided = verify._sigma_min_test(B, [1e-12, 0.5], 1e-13)
        assert not decided.any() and not proved.any()
        proved, decided = verify._sigma_min_test(B, [1e-12, 0.5], 0.25)
        assert decided.all() and proved.tolist() == [False, True]


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

    @pytest.mark.parametrize("m", [64, 133, 304, 501])
    @pytest.mark.parametrize("kind", ["real", "real spectrum", "complex"])
    def test_unlocked_eigvals_are_the_plain_eigvals(self, monkeypatch, m, kind):
        rng = np.random.default_rng(m)
        B = rng.standard_normal((m, m))
        if kind == "real spectrum":
            B = B + B.T
        elif kind == "complex":
            B = B + 1j * rng.standard_normal((m, m))
        expected = np.linalg.eigvals(B)
        shapes = []
        eigvals = np.linalg.eigvals

        def spy(a):
            shapes.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", spy)
        got = verify._unlocked_eigvals(B)
        assert got.dtype == expected.dtype == (float if kind == "real spectrum" else complex)
        assert np.array_equal(got, expected)
        # One call on a stack of more than 500 rows in all; above 500 rows, B alone.
        assert shapes == [(-(-501 // m), m, m) if m <= 500 else (m, m)]


class TestSimulate:
    def test_contraction_norms_non_increasing(self):
        rng = np.random.default_rng(65)
        gamma = random_coercive(rng, 3, c=0.4)
        D = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        B = sc.assemble_generator(gamma, D)
        U0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        trace = sc.simulate(B, U0, 10.0, 301)
        assert np.all(np.diff(trace.state_norms) <= 1e-10 * trace.state_norms[0])

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
        expected = np.linalg.norm(scipy.linalg.expm(5.0 * B) @ np.array([1.0, 1.0]))
        assert trace.state_norms[-1] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_norms_are_those_of_linalg_norm(self, dtype, monkeypatch):
        # The squares overwrite the states; the norms must be
        # np.linalg.norm's of the final states bit for bit.
        rng = np.random.default_rng(66)
        B = rng.standard_normal((7, 7)) - 2.0 * np.eye(7)
        if dtype is complex:
            B = B + 1j * rng.standard_normal((7, 7))
        U0 = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        snapshots = []
        matmul = np.matmul

        def recording_matmul(a, b, out):
            matmul(a, b, out=out)
            snapshots.append(out.base.copy())  # every state filled so far

        monkeypatch.setattr(np, "matmul", recording_matmul)
        trace = sc.simulate(B, U0, 3.0, 101)
        expected = np.linalg.norm(snapshots[-1].reshape(101, -1), axis=1)
        assert np.array_equal(trace.state_norms, expected)


class TestExpm:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_scipy_over_six_decades_of_norm(self, dtype):
        # ||A||_1 from 1e-3 to 1e3 takes 0 to 8 squarings.  The spectra are
        # shifted into Re < 0, so that no exponential overflows, and the
        # error allowed grows with ||A||_1.  Most of it is scipy's: against
        # 60-digit exponentials (mpmath, n <= 5) _expm was within
        # 1e-14 ||A||_1 everywhere and scipy 1.17 off by 1.5e-11 at n = 2,
        # ||A||_1 = 316.
        rng = np.random.default_rng(29)
        squarings = set()
        for n in (1, 2, 5, 12, 30):
            for norm in np.logspace(-3, 3, 25):
                A = rng.standard_normal((n, n)).astype(dtype)
                if dtype is complex:
                    A += 1j * rng.standard_normal((n, n))
                A -= (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(n)
                A *= norm / np.abs(A).sum(axis=0).max()
                squarings.add(max(0, math.ceil(math.log2(norm / verify._THETA13))))
                E, ref = verify._expm(A), scipy.linalg.expm(A)
                assert E.dtype == ref.dtype
                assert np.abs(E - ref).max() <= 1e-13 * max(norm, 1.0) * np.abs(ref).max(), (n, norm)
        assert squarings == set(range(9))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_each_degree_at_its_theta(self, dtype):
        # Just below theta_m the degree-m approximant runs unscaled; just
        # above, the next degree (above theta_9, degree 13) takes over.
        rng = np.random.default_rng(31)
        thetas = [theta for _, theta in verify._PADE.values()] + [verify._THETA13]
        for theta in thetas:
            for norm in (theta * (1 - 1e-6), theta * (1 + 1e-6)):
                for n in (1, 3, 12):
                    A = rng.standard_normal((n, n)).astype(dtype)
                    if dtype is complex:
                        A += 1j * rng.standard_normal((n, n))
                    A *= norm / np.abs(A).sum(axis=0).max()
                    E, ref = verify._expm(A), scipy.linalg.expm(A)
                    assert E.dtype == ref.dtype
                    assert np.abs(E - ref).max() <= 1e-13 * max(norm, 1.0) * np.abs(ref).max(), (theta, norm, n)

    def test_jordan_block(self):
        J = np.array([[-1.0, 1.0], [0.0, -1.0]])
        for t in (0.1, 5.0, 40.0):
            expected = math.exp(-t) * np.array([[1.0, t], [0.0, 1.0]])
            assert np.allclose(verify._expm(t * J), expected, rtol=1e-14, atol=0)

    def test_one_by_one_and_empty(self):
        assert verify._expm(np.array([[2.0]]))[0, 0] == pytest.approx(math.exp(2.0), rel=1e-15)
        assert verify._expm(np.array([[1j * math.pi]]))[0, 0] == pytest.approx(-1.0, abs=1e-15)
        assert verify._expm(np.zeros((0, 0))).shape == (0, 0)


class TestRestrictedSimulate:
    def test_powering_matches_scipy_expm(self):
        # The samples come from one exp(dt B_res) raised to the k-th power by
        # squaring; scipy's expm at t_k = k dt is the reference, on certify's
        # start and time range.  Measured: 1e-15 on the grids, 7e-14 on the
        # corpus, relative to the largest norm.
        count = 0
        for name, system in _claim_systems():
            prep = prepare(system)
            ns, frames, B_res = prep.normalized, prep.frames, prep.B_res
            U0, _ = admissible_start(ns, frames, *random_components(0, ns.n0, ns.n1))
            t_end = 30.0 / max(-sc.spectral_abscissa(B_res), 1.5)
            trace = verify.restricted_simulate(B_res, frames, U0, t_end, 801)
            x0 = frame_embedding(frames).conj().T @ U0
            frozen = np.linalg.norm(frames.kappa1.conj().T @ U0[ns.n0:])
            for k in (0, 1, 400, 800):
                ref = np.hypot(np.linalg.norm(scipy.linalg.expm(trace.times[k] * B_res) @ x0), frozen)
                assert abs(trace.state_norms[k] - ref) <= 1e-12 * trace.state_norms.max(), (name, k)
            count += 1
        assert count == 3 + 134

    def test_certify_trajectory_matches_the_full_generator(self):
        # simulate on the full generator G is the reference.  Near the
        # rounding floor the two differ by rounding of the ker(D*) part
        # (4e-7 of the smallest norm on corpus-9), so the norms are compared
        # relative to the largest one.
        count = 0
        for name, system in _claim_systems():
            audit = sc.audit_system(system, seed=0)
            prep = prepare(system)
            ns = prep.normalized
            U0, _ = admissible_start(ns, prep.frames, *random_components(0, ns.n0, ns.n1))
            G = sc.assemble_generator(ns.gamma_tilde, ns.D)
            ref = sc.simulate(G, U0, audit.trace.times[-1], 801)
            norms = audit.trace.state_norms
            assert np.max(np.abs(norms - ref.state_norms)) <= 1e-10 * ref.state_norms.max(), name
            assert audit.checks["restriction_consistent"], name
            count += 1
        assert count == 3 + 134

    def test_frozen_part_of_any_start_is_kept(self):
        # A start with a ker(D*) part of norm 0.6 keeps it for all time,
        # as simulate on G shows.
        rng = np.random.default_rng(11)
        system = random_block_system(rng, 3, 4, 2)
        ns = sc.normalize_system(system)
        frames = sc.decompose(ns.D)
        U0 = np.concatenate([0.8 * np.eye(3)[0], 0.6 * frames.kappa1[:, 0]])
        B_res = sc.restricted_generator(ns.gamma_tilde, frames)
        trace = verify.restricted_simulate(B_res, frames, U0, 40.0, 401)
        ref = sc.simulate(sc.assemble_generator(ns.gamma_tilde, ns.D), U0, 40.0, 401)
        assert np.allclose(trace.state_norms, ref.state_norms, rtol=1e-10, atol=0)
        assert trace.state_norms.min() >= 0.6 * (1.0 - 1e-12)


class TestFitDecayRate:
    def test_exact_exponential(self):
        times = np.linspace(0.0, 20.0, 400)
        trace = sc.TrajectoryTrace(times=times, state_norms=np.exp(-0.5 * times))
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
        trace = sc.TrajectoryTrace(times, norms)
        assert sc.fit_decay_rate(trace) == pytest.approx(0.3, abs=1e-3)

    def test_underflow_detected(self):
        times = np.linspace(0.0, 300.0, 400)
        trace = sc.TrajectoryTrace(times, np.exp(-0.5 * times))
        with pytest.raises(Underflow):
            sc.fit_decay_rate(trace)

    def test_too_few_samples(self):
        times = np.linspace(0.0, 1.0, 8)
        trace = sc.TrajectoryTrace(times, np.exp(-times))
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
