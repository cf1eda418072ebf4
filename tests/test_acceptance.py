"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

import stabcert as sc
from stabcert import DegenerateShift, ZeroFrequency, ZeroRangeOperator

from helpers import (
    assemble_shifted,
    haar_unitary,
    random_block_system,
    random_coercive,
    random_rank_matrix,
    random_skew,
)


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def _random_sized_system(rng, c_gamma=0.3, identity_weights=False):
    n0 = int(rng.integers(1, 7))
    n1 = int(rng.integers(1, 7))
    r = int(rng.integers(0, min(n0, n1) + 1))
    return random_block_system(
        rng, n0, n1, r, c_gamma=c_gamma, identity_weights=identity_weights
    ), r


def test_criterion_1_certificate_soundness_corpus():
    start = time.perf_counter()
    rng = np.random.default_rng(20260810)
    certified = 0
    rejected = 0
    for _ in range(200):
        system, r = _random_sized_system(rng)
        if r == 0:
            with pytest.raises(ZeroRangeOperator):
                sc.full_certificate(system)
            rejected += 1
            continue
        cert = sc.full_certificate(system)
        certified += 1
        ns = sc.normalize_system(system)
        frames = sc.decompose(ns.D)
        B_res = sc.restricted_generator(ns.gamma_tilde, frames)
        abscissa = sc.spectral_abscissa(B_res)
        assert abscissa <= -cert.delta_cert + 1e-9
        for a in (0.0, -cert.delta_cert / 2.0):
            sweep = sc.gp_sweep(B_res, a, 50.0, 401)
            assert sweep.n_singular == 0
            assert sweep.max_norm <= cert.M_total * (1.0 + 1e-6)
    elapsed = time.perf_counter() - start
    assert certified + rejected == 200 and certified > 0
    assert elapsed < 60.0, f"corpus took {elapsed:.1f} s"
    _report(f"1 certificate soundness ({certified} certified, "
            f"{rejected} zero-range, {elapsed:.1f} s)")


def test_criterion_2_scalar_benchmark():
    B = sc.assemble_generator(np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]]))
    peak = sc.resolvent_norm(B, 0.0)
    assert abs(peak - 1.618034) <= 1e-6

    trace = sc.simulate(B, np.array([1.0, 0.0], dtype=complex), 20.0, 2001)
    fitted = sc.fit_decay_rate(trace)
    assert abs(fitted - 0.5) <= 1e-2

    system = sc.validate_system([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    cert = sc.full_certificate(system)
    assert 0.0 < cert.delta_cert <= 0.5
    _report("2 scalar benchmark (golden-ratio peak, rate 1/2, certified rate)")


def test_criterion_3_decoupling_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(314159)
    solved = 0
    while solved < 100:
        n0 = int(rng.integers(1, 7))
        n1 = int(rng.integers(1, 7))
        r = int(rng.integers(1, min(n0, n1) + 1))
        system = random_block_system(rng, n0, n1, r, identity_weights=True)
        ns = sc.normalize_system(system)
        frames = sc.decompose(ns.D)
        c = ns.c_gamma_tilde
        z = complex(rng.uniform(-0.45 * c, 2.0), rng.uniform(-3.0, 3.0))
        if abs(z) < 0.2:
            continue
        F = rng.standard_normal(n0 + n1) + 1j * rng.standard_normal(n0 + n1)
        F[n0:] = frames.iota1 @ (frames.iota1.conj().T @ F[n0:])
        UV = sc.decoupled_solve(ns, frames, z, F)
        dense = np.linalg.solve(assemble_shifted(ns.gamma_tilde, ns.D, z), F)
        assert np.linalg.norm(UV - dense) <= 1e-9 * np.linalg.norm(dense)
        solved += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"decoupling corpus took {elapsed:.1f} s"
    _report(f"3 decoupling equivalence (100 systems, {elapsed:.1f} s)")


def test_criterion_4_coercivity_lemmas():
    rng = np.random.default_rng(271828)

    # Schur-complement coercivity of the frequency-shifted damping block.
    for _ in range(100):
        n0 = int(rng.integers(2, 6))
        n1 = int(rng.integers(1, 6))
        r = int(rng.integers(1, min(n0, n1) + 1))
        frames = sc.decompose(random_rank_matrix(rng, n1, n0, r))
        gamma = random_coercive(rng, n0, c=rng.uniform(0.1, 1.0))
        c = sc.hermitian_min_eig(gamma)
        z = complex(rng.uniform(-0.9 * c, 2.0), rng.uniform(-3.0, 3.0))
        blocks = sc.decoupling_transforms(gamma, frames, z, c)
        assert sc.hermitian_min_eig(blocks.gamma1_z) >= min(z.real + c, c) - 1e-10

    # Lower bound for the shifted damping block of the invertible case.
    for _ in range(100):
        n = int(rng.integers(1, 5))
        gamma = random_coercive(rng, n, c=rng.uniform(0.3, 1.2))
        C = haar_unitary(rng, n) @ np.diag(rng.uniform(0.4, 2.0, n)) @ haar_unitary(rng, n)
        c = sc.hermitian_min_eig(gamma)
        g = sc.operator_norm(gamma)
        k = sc.operator_norm(np.linalg.inv(C))
        delta = rng.uniform(0.02, 0.9) * c
        p = rng.uniform(0.05, 1.95)
        u_term, v_term = sc.damping_lower_bound(c, g, k, delta, p)
        z = complex(rng.uniform(-0.4 * c, 1.5), rng.uniform(-3.0, 3.0))
        shifted = gamma - delta * np.eye(n)
        block = np.zeros((2 * n, 2 * n), dtype=complex)
        block[:n, :n] = shifted
        block[:n, n:] = delta * (shifted @ np.linalg.inv(C))
        block[n:, n:] = delta * np.eye(n)
        block += z * np.eye(2 * n)
        assert sc.hermitian_min_eig(block) >= z.real + min(u_term, v_term) - 1e-10

    _report("4 coercivity bounds (100 Schur + 100 shifted-block instances)")


def test_criterion_5_change_of_variables_identity():
    rng = np.random.default_rng(161803)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        system = random_block_system(rng, n, n, n, identity_weights=True)
        ns = sc.normalize_system(system)
        c = ns.c_gamma_tilde
        while True:
            z = complex(rng.uniform(-0.45 * c, 2.0), rng.uniform(-3.0, 3.0))
            delta = rng.uniform(0.05, 0.8) * c
            if abs(z) >= delta and abs(z + delta) > 1e-6:
                break
        F = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        U = np.linalg.solve(assemble_shifted(ns.gamma_tilde, ns.D, z), F)
        residual = sc.change_of_variables_residual(ns, z, delta, U, F)
        assert residual <= 1e-9 * (np.linalg.norm(U) + np.linalg.norm(F))

    system = random_block_system(rng, 2, 2, 2, c_gamma=1.0, identity_weights=True)
    ns = sc.normalize_system(system)
    with pytest.raises(ZeroFrequency):
        sc.change_of_variables_residual(ns, 0.0, 0.1, np.zeros(4), np.zeros(4))
    with pytest.raises(DegenerateShift):
        sc.change_of_variables_residual(ns, -0.3, 0.3, np.zeros(4), np.zeros(4))
    _report("5 shifted-variable identity (100 instances + both rejections)")


def test_criterion_6_block_inverse_formula():
    rng = np.random.default_rng(577215)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Bop = haar_unitary(rng, n) @ np.diag(rng.uniform(0.3, 3.0, n)) @ haar_unitary(rng, n)
        Cop = haar_unitary(rng, n) @ np.diag(rng.uniform(0.3, 3.0, n)) @ haar_unitary(rng, n)
        assembled = np.block([[A, Bop], [Cop, np.zeros((n, n))]])
        out = sc.block_inverse(A, Bop, Cop)
        dense = np.linalg.inv(assembled)
        assert sc.operator_norm(out - dense) <= 1e-10 * sc.operator_norm(dense)
        assert sc.operator_norm(assembled @ out - np.eye(2 * n)) <= 1e-10
    _report("6 block-inverse formula (100 instances, dense + multiply-back)")


def test_criterion_7_normalization_round_trip():
    rng = np.random.default_rng(141421)
    sample_times = np.linspace(0.1, 8.0, 9)
    for _ in range(20):
        n0 = int(rng.integers(1, 5))
        n1 = int(rng.integers(1, 5))
        r = int(rng.integers(0, min(n0, n1) + 1))
        system = random_block_system(rng, n0, n1, r)
        ns = sc.normalize_system(system)

        B_norm = sc.assemble_generator(ns.gamma_tilde, ns.D)
        weight_inv = scipy.linalg.block_diag(
            np.linalg.inv(system.alpha), np.linalg.inv(system.beta)
        )
        B_orig = -weight_inv @ assemble_shifted(system.gamma, system.C, 0.0)
        M = scipy.linalg.block_diag(ns.sqrt_alpha, ns.sqrt_beta)

        conj_defect = sc.operator_norm(M @ B_orig - B_norm @ M)
        assert conj_defect <= 1e-10 * max(1.0, sc.operator_norm(B_norm) * sc.operator_norm(M))

        U0 = rng.standard_normal(n0 + n1) + 1j * rng.standard_normal(n0 + n1)
        U0_tilde = sc.map_state(ns, U0, "forward")
        for t in sample_times:
            direct = scipy.linalg.expm(t * B_orig) @ U0
            mapped = sc.map_state(ns, scipy.linalg.expm(t * B_norm) @ U0_tilde, "backward")
            assert np.linalg.norm(direct - mapped) <= 1e-9 * np.linalg.norm(U0)
    _report("7 normalization round trip (20 systems, 9 sample times each)")


def test_criterion_8_maxwell_grid():
    start = time.perf_counter()
    spec = sc.GridSpec(N=3)
    curl = sc.build_curl(spec)
    n = curl.K.shape[0]
    assert 2 * n == 162
    assert np.abs(curl.K @ curl.grad).max() <= 1e-13

    # Undamped run conserves the norm.
    B_skew = sc.assemble_generator(np.zeros((n, n)), curl.K)
    rng = np.random.default_rng(999331)
    U0 = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    U0 /= np.linalg.norm(U0)
    trace0 = sc.simulate(B_skew, U0, 20.0, 401)
    assert abs(sc.fit_decay_rate(trace0)) <= 1e-8

    # Unit-conductivity run: certified and audited end to end.
    report = sc.audit_system(sc.build_maxwell_system(spec, eps=1.0, mu=1.0, sigma=1.0))
    assert all(report.checks.values())
    cert = report.certificate
    assert cert.delta_cert > 0
    assert report.fitted_rate >= cert.delta_cert - 1e-6
    norms = report.trace.state_norms
    assert np.all(np.diff(norms) <= 1e-10 * norms[0])
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"grid criterion took {elapsed:.1f} s"
    _report(f"8 periodic-grid system (162 x 162, {elapsed:.1f} s)")


def test_criterion_9_m_dissipativity():
    rng = np.random.default_rng(693147)
    for _ in range(100):
        n0 = int(rng.integers(1, 6))
        n1 = int(rng.integers(1, 6))
        Q = haar_unitary(rng, n0)
        gamma = Q @ np.diag(rng.uniform(0.0, 2.0, n0)) @ Q.conj().T + random_skew(rng, n0)
        D = rng.standard_normal((n1, n0)) + 1j * rng.standard_normal((n1, n0))
        rep = sc.check_m_dissipative(sc.assemble_generator(gamma, D))
        assert rep.dissipative
        assert rep.max_re_quadratic <= 1e-12
        assert rep.shifted_invertible
    _report("9 m-dissipativity (100 systems with Re gamma >= 0)")
