"""Rounding guards against their specification, recomputed in mpmath.

A square of the resolvent cover is proved free of spectrum only while the
constants of ``verify._sigma_min_test`` and ``verify._decide_squares`` bound
the rounding their docstrings say they bound.  Rounding errors on test
matrices are far below those worst-case bounds, so a behavioural test does
not notice a constant that is too small.  These tests recompute each bound
from the docstrings in interval arithmetic, take its upper end, and require
the value the code hands on to be at least that large.  Two guards outside
the cover are held the same way: the scaling of ``verify._expm`` and the
power-of-two rescaling of ``verify.restriction_defects``.
"""

import mpmath
import numpy as np
import pytest

from stabcert import verify
from stabcert.helmholtz import decompose, frame_embedding, restricted_generator
from stabcert.model import assemble_generator

from helpers import random_coercive, random_rank_matrix

iv = mpmath.iv
_SIZES = (1, 2, 3, 4, 5, 8, 13, 21, 30, 40)
_MAGNITUDES = (1e-2, 1.0, 1e3, 1e6)


@pytest.fixture(autouse=True)
def _interval_precision():
    prec, iv.prec = iv.prec, 160
    yield
    iv.prec = prec


def _gamma(k: int):
    """Higham's gamma_k = k u / (1 - k u), as an interval."""
    u = iv.mpf(2) ** -53
    return k * u / (1 - k * u)


def _abs_sq(z: complex):
    return iv.mpf(z.real) ** 2 + iv.mpf(z.imag) ** 2


def _random_matrix(rng, m: int, real: bool) -> np.ndarray:
    B = rng.standard_normal((m, m))
    if not real:
        B = B + 1j * rng.standard_normal((m, m))
    return B * 10.0 ** rng.uniform(-2, 2)


def _random_points(rng, n: int, real: bool) -> np.ndarray:
    """n points at each magnitude of _MAGNITUDES; for a real B, half of them real."""
    angles = rng.uniform(0.0, 2.0 * np.pi, (len(_MAGNITUDES), n))
    if real:
        angles[:, : n // 2] = np.pi * rng.integers(0, 2, (len(_MAGNITUDES), n // 2))
    radii = np.array(_MAGNITUDES)[:, None] * rng.uniform(0.5, 2.0, angles.shape)
    return (radii * np.exp(1j * angles)).ravel()


def _specified_t(B: np.ndarray, z: complex, s: float, off_diagonal_sq):
    """Upper end of the smallest shift _sigma_min_test's docstring allows at z.

    A = fl(z I - B) differs from z I - B on its diagonal only, where each
    entry is the double fl(z - B_ii); e = 2u max |A_ii|; w = gamma_{m+1} for
    a real B and a real z, sqrt(2) gamma_{2m+2} otherwise; and
    t = (s + e)**2 + 3 w F + m 2**-1070, where F >= ||A||_F**2 keeps above it
    the margin gamma_{m**2 + 2} that its own float sum of squares (at most
    m**2 + 2 roundings on each term) may have rounded away.
    """
    m = B.shape[0]
    diagonal_sq = [_abs_sq(complex(z) - complex(b)) for b in np.diag(B)]
    e = 2 * iv.mpf(2) ** -53 * iv.sqrt(max(d.b for d in diagonal_sq))
    real = np.isrealobj(B) and complex(z).imag == 0
    w = _gamma(m + 1) if real else iv.sqrt(2) * _gamma(2 * m + 2)
    F = (off_diagonal_sq + sum(diagonal_sq)) * (1 + _gamma(m * m + 2))
    return ((s + e) ** 2 + 3 * w * F + m * iv.mpf(2) ** -1070).b


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_each_cholesky_shift_is_at_least_the_specified_allowance(real, monkeypatch):
    # Every point with a finite shift reaches _factors: with s near zero, t
    # is mostly the allowance 3 w F; with s large, (s + e)**2.
    rng = np.random.default_rng(20261021 + real)
    handed = []

    def factors(B, shifts, t):
        handed.append((shifts.copy(), t.copy()))
        return np.zeros(shifts.shape, dtype=bool)

    monkeypatch.setattr(verify, "_factors", factors)
    checked = 0
    for m in _SIZES:
        B = _random_matrix(rng, m, real)
        off_diagonal = B[~np.eye(m, dtype=bool)]
        off_diagonal_sq = sum(_abs_sq(complex(b)) for b in off_diagonal)
        points = _random_points(rng, 2, real)
        scale = float(np.abs(points).max() + np.linalg.norm(B))
        for ratio in (1e-9, 1e-3, 1.0, 30.0):
            s = ratio * scale * rng.uniform(0.5, 2.0)
            handed.clear()
            verify._sigma_min_test(B, points, s)
            for shifts, t in handed:
                for z, t_z in zip(shifts, t):
                    assert mpmath.mpf(t_z) >= _specified_t(B, z, s, off_diagonal_sq), (m, z, s)
                    checked += 1
    assert checked >= 200


def test_each_square_is_tested_at_least_at_its_widened_radius(monkeypatch):
    # _neumann_squares' docstring: a square of side ``side`` at level
    # ``level`` is tested at s = r + 1/bound, where r is its half-diagonal
    # widened by 2u (level + 2) max |z0| for the rounding of the centres.
    rng = np.random.default_rng(20261022)
    tested = []

    def sigma_min_test(B, zs, s):
        tested.append(s)
        return np.ones(len(zs), dtype=bool)

    monkeypatch.setattr(verify, "_sigma_min_test", sigma_min_test)
    u = iv.mpf(2) ** -53
    for _ in range(200):
        centres = _random_points(rng, 3, False) * 10.0 ** rng.uniform(-2, 2)
        side, bound = 10.0 ** rng.uniform(-6, 2), 10.0 ** rng.uniform(-3, 6)
        level = int(rng.integers(0, 40))
        tested.clear()
        verify._decide_squares(np.zeros((1, 1)), centres, side, bound, level)
        assert len(tested) == 1
        largest = max(iv.sqrt(_abs_sq(complex(z))).b for z in centres)
        r = side / iv.sqrt(2) + 2 * u * (level + 2) * largest
        assert mpmath.mpf(tested[0]) >= (r + 1 / iv.mpf(bound)).b, (side, bound, level)


class _Handed(Exception):
    """Raised by a spy once it has seen what it was waiting for."""


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_expm_scales_every_norm_to_at_most_theta_25(real, monkeypatch):
    # _expm's docstring: above theta_25, A is scaled by 2**-s so that
    # ||A||_1 <= theta_25.  From ||A||_1 = 1e-3 on the degree is at least 9,
    # so the first np.matmul of the polynomial receives the scaled A; the
    # spy takes it and stops the call before any squaring can overflow.
    # Its 1-norm, recomputed with upward rounding, must be at most theta_25.
    # 1 x 1 real matrices at theta_25 2**k and the doubles either side of it
    # hit the edges of frexp's exponent exactly.
    rng = np.random.default_rng(20261023 + real)
    handed = []

    def matmul(a, b, *args, **kwargs):
        handed.append(np.array(b))
        raise _Handed

    monkeypatch.setattr(np, "matmul", matmul)
    matrices = []
    for n in (1, 2, 5, 12):
        for norm in np.logspace(-3, 300, 60):
            A = rng.standard_normal((n, n))
            if not real:
                A = A + 1j * rng.standard_normal((n, n))
            matrices.append(A * (norm / np.abs(A).sum(axis=0).max()))
    if real:
        for k in (0, 1, 10, 500, 995):
            edge = verify._TAYLOR[25] * 2.0**k
            matrices += [np.array([[x]]) for x in (np.nextafter(edge, 0), edge, np.nextafter(edge, np.inf))]
    theta = mpmath.mpf(verify._TAYLOR[25])
    for A in matrices:
        handed.clear()
        with pytest.raises(_Handed):
            verify._expm(A)
        scaled = handed[0]
        columns = [
            sum(iv.sqrt(iv.mpf(z.real) ** 2 + iv.mpf(z.imag) ** 2) for z in column)
            for column in scaled.astype(complex).T
        ]
        assert max(c.b for c in columns) <= theta, float(np.abs(A).sum(axis=0).max())


def _mp_frobenius(M) -> "mpmath.mpf":
    """||M||_F to 50 digits; every double converts exactly."""
    M = np.asarray(M, dtype=complex).ravel()
    with mpmath.workdps(50):
        return mpmath.sqrt(mpmath.fsum(mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2 for z in M))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exponent", [0, 100, 154, 155, 200, 250, 300])
def test_restriction_defects_ratio_survives_the_rescaling(exponent):
    # restriction_defects' docstring: the first defect is
    # ||G F - F B_res||_F / ||G||_F.  From entries of about 1e154 on the
    # float norms overflow, so both are taken after one power-of-two scaling,
    # which must cancel in the ratio: it matches the 50-digit ratio of the
    # same float matrices, and no inf or nan appears.
    rng = np.random.default_rng(20261024 + exponent)
    for n0, n1, r in ((1, 1, 1), (3, 2, 2), (4, 4, 3), (5, 3, 3)):
        gamma = random_coercive(rng, n0)
        D = 10.0**exponent * random_rank_matrix(rng, n1, n0, r)
        frames = decompose(D)
        B_res = restricted_generator(gamma, frames)
        residual, defect = verify.restriction_defects(gamma, D, frames, B_res)
        G, F = assemble_generator(gamma, D), frame_embedding(frames)
        expected = _mp_frobenius(G @ F - F @ B_res) / _mp_frobenius(G)
        assert np.isfinite([residual, defect]).all()
        assert abs(mpmath.mpf(residual) - expected) <= 1e-13 * expected, (exponent, n0, residual, expected)
