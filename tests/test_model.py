import numpy as np
import pytest

import stabcert as sc
from stabcert import DimensionMismatch, NotCoercive, NotHermitian, ParameterOutOfRange
from stabcert.model import as_matrix
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


_BLOCKS = ("alpha", "beta", "gamma", "C")


def _unit_blocks():
    """Real blocks of a valid 2 x 2 system."""
    C = np.array([[1.0, 2.0], [0.0, -1.0]])
    return {"alpha": np.eye(2), "beta": 2 * np.eye(2), "gamma": np.eye(2), "C": C}


class TestDtypeRule:
    @pytest.mark.parametrize("dtype", [int, float, complex])
    def test_real_blocks_and_positive_zero_imaginary_parts_give_float64(self, dtype):
        blocks = _unit_blocks()
        s = sc.validate_system(*(blocks[k].astype(dtype) for k in _BLOCKS))
        for k in _BLOCKS:
            assert getattr(s, k).dtype == np.float64
            assert getattr(s, k).tobytes() == blocks[k].tobytes()

    @pytest.mark.parametrize("name", _BLOCKS)
    @pytest.mark.parametrize("imag", [-0.0, 0.25])
    def test_a_negative_zero_or_nonzero_imaginary_part_keeps_its_block_complex(self, name, imag):
        blocks = {k: v.astype(complex) for k, v in _unit_blocks().items()}
        blocks[name][0, 1] = complex(blocks[name][0, 1].real, imag)
        if name in ("alpha", "beta"):  # the weights stay Hermitian
            blocks[name][1, 0] = blocks[name][0, 1].conjugate()
        s = sc.validate_system(*(blocks[k] for k in _BLOCKS))
        for k in _BLOCKS:
            expected = np.complex128 if k == name else np.float64
            assert getattr(s, k).dtype == expected
        kept = getattr(s, name)
        assert kept.tobytes() == blocks[name].tobytes()
        assert np.signbit(kept[0, 1].imag) == np.signbit(imag)

    @pytest.mark.parametrize(
        "a, dtype",
        [
            ([[1, 2]], np.float64),
            (np.ones((1, 2), dtype=np.float32), np.float64),
            (np.ones((1, 2)), np.float64),
            (np.ones((1, 2), dtype=np.complex64), np.complex128),
            ([[1.0, 2j]], np.complex128),
            (np.array([[complex(1.0, -0.0)]]), np.complex128),
        ],
    )
    def test_as_matrix_never_widens_real_input(self, a, dtype):
        M = as_matrix(a)
        assert M.dtype == dtype
        np.testing.assert_array_equal(M, np.asarray(a))

    def test_real_system_assembles_a_real_generator(self):
        s = sc.validate_system(*(_unit_blocks()[k] for k in _BLOCKS))
        assert sc.assemble_generator(s.gamma, s.C).dtype == np.float64
        assert sc.assemble_generator(s.gamma, s.C.astype(complex)).dtype == np.complex128


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


class TestShortcuts:
    """Exact cases skip LAPACK; every decision and value stays the same."""

    @staticmethod
    def _spy(monkeypatch, name):
        calls, fn = [], getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, **k: calls.append(a[0].shape) or fn(*a, **k))
        return calls

    def test_exactly_hermitian_weights_take_no_svd(self, monkeypatch):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        alpha = A @ A.conj().T + np.eye(4)
        alpha = 0.5 * (alpha + alpha.conj().T)  # M == M* entry by entry
        calls = self._spy(monkeypatch, "svd")
        sc.validate_system(alpha, np.diag([1.0, 2.0]), np.eye(4), np.ones((2, 4)))
        assert calls == []

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_a_small_asymmetry_is_still_refused(self, monkeypatch, dtype):
        alpha = np.eye(3, dtype=dtype)
        alpha[0, 1] = 1e-10
        calls = self._spy(monkeypatch, "svd")
        with pytest.raises(NotHermitian) as exc:
            sc.validate_system(alpha, np.eye(1), np.eye(3), np.ones((1, 3)))
        assert exc.value.which == "alpha"
        assert len(calls) == 2

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_diagonal_min_eig_equals_eigvalsh_without_calling_it(self, monkeypatch, dtype):
        rng = np.random.default_rng(9)
        diagonals = [rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6, n)
                     for n in (1, 2, 7, 81)]
        diagonals.append(np.array([-0.0, 0.0, 3.0]))
        for d in diagonals:
            M = np.diag(d).astype(dtype)
            M[0, 0] += 1j * 2.5 if dtype is complex else 0.0  # skew part, not in the Hermitian part
            expected = np.linalg.eigvalsh(0.5 * (M + M.conj().T))[0]
            calls = self._spy(monkeypatch, "eigvalsh")
            assert np.float64(sc.hermitian_min_eig(M)).tobytes() == expected.tobytes()
            assert calls == []
            monkeypatch.undo()
        calls = self._spy(monkeypatch, "eigvalsh")
        sc.hermitian_min_eig([[2.0, 1e-300], [0.0, 3.0]])
        assert calls == [(2, 2)]


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

