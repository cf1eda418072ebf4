import numpy as np
import pytest

import stabcert as sc
from stabcert import DimensionMismatch, NotCoercive, NotHermitian, ParameterOutOfRange
from stabcert.verify import resolvent_cover

from helpers import haar_unitary


class TestValidateSystem:
    def test_diagonal_system(self):
        s = sc.validate_system(
            np.eye(2), np.eye(2), [[2.0, 0.0], [0.0, 3.0]], [[1.0, 0.0], [0.0, 0.0]]
        )
        assert s.c_alpha == pytest.approx(1.0, abs=1e-14)
        assert s.c_beta == pytest.approx(1.0, abs=1e-14)
        assert s.c_gamma == pytest.approx(2.0, abs=1e-14)

    def test_nonnormal_gamma_coercivity(self):
        # Oracle: the Hermitian part of [[1,1],[0,1]] is [[1,.5],[.5,1]], whose
        # characteristic polynomial is x^2 - 2x + 0.75 with smallest root 0.5.
        roots = np.roots([1.0, -2.0, 0.75])
        expected = float(roots.min())
        assert expected == pytest.approx(0.5, abs=1e-12)
        s = sc.validate_system(
            np.eye(2), np.eye(1), [[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0]]
        )
        assert s.c_gamma == pytest.approx(expected, abs=1e-12)

    def test_indefinite_alpha_rejected(self):
        with pytest.raises(NotCoercive) as exc:
            sc.validate_system(
                [[1.0, 0.0], [0.0, -1.0]], np.eye(2), 2 * np.eye(2), np.eye(2)
            )
        assert exc.value.which == "alpha"
        assert exc.value.value == pytest.approx(-1.0, abs=1e-14)

    def test_revalidation_is_idempotent(self):
        rng = np.random.default_rng(3)
        g = np.array([[1.5, 0.2 + 0.1j], [0.1, 2.0]])
        s = sc.validate_system(np.eye(2), np.eye(2), g, rng.standard_normal((2, 2)))
        s2 = sc.validate_system(s.alpha, s.beta, s.gamma, s.C)
        assert s2.c_alpha == s.c_alpha
        assert s2.c_beta == s.c_beta
        assert s2.c_gamma == s.c_gamma

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sc.validate_system(np.eye(2), np.eye(2), np.eye(3), np.eye(2))
        with pytest.raises(DimensionMismatch):
            sc.validate_system(np.eye(2), np.eye(2), np.eye(2), np.ones((3, 3)))

    def test_non_hermitian_alpha_rejected(self):
        with pytest.raises(NotHermitian) as exc:
            sc.validate_system([[1.0, 0.5], [0.0, 1.0]], np.eye(2), 2 * np.eye(2), np.eye(2))
        assert exc.value.which == "alpha"

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            sc.validate_system([[np.nan, 0], [0, 1]], np.eye(2), np.eye(2), np.eye(2))


class TestHermitianMinEig:
    def test_diagonal(self):
        assert sc.hermitian_min_eig([[2.0, 0.0], [0.0, 3.0]]) == pytest.approx(2.0)

    def test_skew_matrix_has_zero_hermitian_part(self):
        assert sc.hermitian_min_eig([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(0.0, abs=1e-15)

    def test_upper_triangular(self):
        # Oracle: roots of the characteristic polynomial of the Hermitian part.
        expected = float(np.roots([1.0, -2.0, 0.75]).min())
        assert sc.hermitian_min_eig([[1.0, 1.0], [0.0, 1.0]]) == pytest.approx(expected, abs=1e-12)

    def test_symmetrization_is_a_fixed_point(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        H = 0.5 * (M + M.conj().T)
        assert sc.hermitian_min_eig(M) == sc.hermitian_min_eig(H)

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionMismatch):
            sc.hermitian_min_eig(np.ones((2, 3)))


_RECT = np.ones((2, 3))
# (argument name, entry point, arguments with a 2 x 3 operator in that slot)
_SQUARE_CHECKS = [
    ("B", sc.resolvent_norm, (_RECT, 1.0)),
    ("B", resolvent_cover, (_RECT, 0.1, 10.0)),
    ("B", sc.gp_sweep, (_RECT, 0.0, 1.0, 5)),
    ("B", sc.spectral_abscissa, (_RECT,)),
    ("B", sc.simulate, (_RECT, np.ones(2), 1.0, 5)),
    ("B", sc.check_m_dissipative, (_RECT,)),
    ("M", sc.hermitian_min_eig, (_RECT,)),
    ("M", sc.sqrt_factor, (_RECT,)),
    ("alpha", sc.validate_system, (_RECT, np.eye(1), np.eye(2), np.eye(1, 2))),
    ("beta", sc.validate_system, (np.eye(1), _RECT, np.eye(1), np.eye(2, 1))),
    ("gamma", sc.assemble_generator, (_RECT, np.eye(1, 2))),
    ("A", sc.block_inverse, (_RECT, np.eye(2), np.eye(2))),
]


@pytest.mark.parametrize(
    "name, fn, args", _SQUARE_CHECKS, ids=[f"{fn.__name__}-{name}" for name, fn, _ in _SQUARE_CHECKS]
)
def test_square_operators_refuse_rectangles(name, fn, args):
    # Every entry point that needs a square operator refuses a 2 x 3 one and
    # names the argument.
    with pytest.raises(DimensionMismatch, match=rf"^{name} must be square, got \(2, 3\)$"):
        fn(*args)


def _power_iteration_norm(M, iters=5000):
    A = M.conj().T @ M
    x = np.ones(A.shape[0], dtype=complex)
    x /= np.linalg.norm(x)
    for _ in range(iters):
        x = A @ x
        x /= np.linalg.norm(x)
    return float(np.sqrt((x.conj() @ (A @ x)).real))


class TestOperatorNorm:
    def test_identity(self):
        assert sc.operator_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-14)

    def test_single_entry(self):
        assert sc.operator_norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(2.0, abs=1e-14)

    def test_against_power_iteration(self):
        M = np.array([[1.0, 2.0], [4.0, 0.0]])
        assert abs(sc.operator_norm(M) - _power_iteration_norm(M)) <= 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            Q = haar_unitary(rng, 4)
            assert abs(sc.operator_norm(Q @ M @ Q.conj().T) - sc.operator_norm(M)) <= 1e-10

