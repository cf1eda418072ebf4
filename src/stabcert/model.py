"""Problem data and shared scalar diagnostics for damped block systems.

The engine certifies exponential decay for finite-dimensional evolution
systems of the form

    d/dt [[alpha, 0], [0, beta]] (u, v)
        + [[gamma, 0], [0, 0]] (u, v)
        + [[0, -C*], [C, 0]] (u, v) = 0

on a product space H0 x H1.  ``alpha`` and ``beta`` are Hermitian positive
definite material weights, ``gamma`` is a damping block acting on the first
component only, coercive in its Hermitian part, and ``C`` couples the two
components.  ``validate_system`` checks exactly these standing assumptions
and records the measured coercivity constants.

In unit weights the generator is the block [[-gamma, D*], [-D, 0]], and so is
the decoupled block of :mod:`~stabcert.helmholtz`.  This module owns that
layout, :func:`assemble_generator`, and the square check, :func:`as_square_matrix`.

Coercivity is always realized as the smallest eigenvalue of the Hermitian
part (1/2)(M + M*): exact and deterministic in finite dimensions, with the
symmetrization applied before the eigensolve to kill rounding asymmetry.

Real problems run in real arithmetic.  ``validate_system`` keeps a block in
float64 when every imaginary part is +0.0, as for a Maxwell grid with real
materials; an imaginary part of -0.0 keeps the block complex, so a dumped
problem file loads back bit for bit.  Every later array takes the dtype
numpy gives the products of the blocks, so the eigensolves, SVDs and
``eigh`` calls of a real problem run on real LAPACK.  Only the shifts z - B
by complex frequencies z, in the audit and the oracles, are complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotCoercive, NotHermitian, ParameterOutOfRange

__all__ = [
    "ComplexMatrix",
    "BlockSystem",
    "as_matrix",
    "as_square_matrix",
    "assemble_generator",
    "hermitian_part",
    "hermitian_min_eig",
    "operator_norm",
    "validate_system",
]

# All bounded operators in this package are plain dense arrays: float64 when
# the operator is real, complex128 otherwise.
ComplexMatrix = np.ndarray


def _float_or_complex(a) -> np.ndarray:
    """``a`` as complex128 when it is complex and as float64 otherwise."""
    a = np.asarray(a)
    return a.astype(complex if np.iscomplexobj(a) else float, copy=False)


def as_matrix(a, name: str = "matrix") -> ComplexMatrix:
    """Coerce ``a`` to a 2-D float64 or complex128 array with finite entries.

    Real input is never widened to complex (:func:`_float_or_complex`).
    """
    M = _float_or_complex(a)
    if M.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {M.shape}")
    if M.size and not np.all(np.isfinite(M)):
        raise ParameterOutOfRange(f"{name} contains non-finite entries")
    return M


def as_square_matrix(a, name: str) -> ComplexMatrix:
    """:func:`as_matrix`, refusing a matrix that is not square."""
    M = as_matrix(a, name)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {M.shape}")
    return M


def assemble_generator(gamma, D) -> ComplexMatrix:
    """Dense generator [[-gamma, D*], [-D, 0]] in unit-weight variables.

    ``gamma`` is the damping block and ``D`` the coupling block; callers
    holding a ``NormalizedSystem`` pass ``ns.gamma_tilde`` and
    ``ns.D``.  Taking the blocks directly also serves audits that relax
    strict coercivity (for example damping with Re gamma >= 0 only) and the
    decoupled block, whose damping is gamma1(z) and coupling C_tilde.
    """
    gamma = as_square_matrix(gamma, "gamma")
    D = as_matrix(D, "D")
    n0 = gamma.shape[0]
    if D.shape[1] != n0:
        raise DimensionMismatch(f"D must have {n0} columns, got {D.shape}")
    n1 = D.shape[0]
    B = np.zeros((n0 + n1, n0 + n1), dtype=np.result_type(gamma, D))
    B[:n0, :n0] = -gamma
    B[:n0, n0:] = D.conj().T
    B[n0:, :n0] = -D
    return B


def hermitian_part(M: ComplexMatrix) -> ComplexMatrix:
    """The Hermitian part (1/2)(M + M*)."""
    return 0.5 * (M + M.conj().T)


def hermitian_min_eig(M) -> float:
    """Smallest eigenvalue of the Hermitian part of a square matrix.

    This realizes coercivity statements of the form ``Re M >= c``: the
    returned value is the largest such ``c``.  For the empty 0 x 0 matrix
    the minimum over an empty spectrum is +inf (vacuous coercivity).

    Raises
    ------
    DimensionMismatch
        If ``M`` is not square.
    """
    M = as_square_matrix(M, "M")
    if M.shape[0] == 0:
        return math.inf
    H = hermitian_part(M)
    # A diagonal H has its entries as eigenvalues, which eigvalsh returns
    # exactly; as grid weights and damping are diagonal, skip the eigensolve.
    if np.count_nonzero(H) == np.count_nonzero(H.diagonal()):
        return float(H.diagonal().real.min())
    return float(np.linalg.eigvalsh(H)[0])


def operator_norm(M) -> float:
    """Largest singular value.  Empty matrices have norm zero."""
    M = as_matrix(M)
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


@dataclass(frozen=True)
class BlockSystem:
    """Validated coefficient data of a damped block system.

    Attributes
    ----------
    alpha, beta : ComplexMatrix
        Hermitian positive definite weights on H0 and H1.
    gamma : ComplexMatrix
        Damping block on H0 with coercive Hermitian part.
    C : ComplexMatrix
        Coupling operator H0 -> H1 (shape n1 x n0).
    c_alpha, c_beta : float
        Smallest eigenvalues of alpha and beta.
    c_gamma : float
        Smallest eigenvalue of the Hermitian part of gamma.
    """

    alpha: ComplexMatrix
    beta: ComplexMatrix
    gamma: ComplexMatrix
    C: ComplexMatrix
    c_alpha: float
    c_beta: float
    c_gamma: float

    @property
    def n0(self) -> int:
        return self.alpha.shape[0]

    @property
    def n1(self) -> int:
        return self.beta.shape[0]


# Largest relative deviation ||M - M*|| / ||M|| accepted as Hermitian.
_HERMITIAN_TOL = 1e-12
# Coercivity constants at or below this count as not coercive.
_COERCIVITY_FLOOR = 1e-10


def _check_hermitian(M: ComplexMatrix, which: str) -> None:
    asymmetry = M - M.conj().T
    # M == M* entry by entry makes the deviation exactly 0: no SVD needed.
    # Otherwise M is not zero, so its norm is positive.
    if not asymmetry.any():
        return
    scale = operator_norm(M)
    deviation = operator_norm(asymmetry)
    if deviation > _HERMITIAN_TOL * scale:
        raise NotHermitian(which, deviation / scale)


def _real_if_exact(M: ComplexMatrix) -> ComplexMatrix:
    """The real part of ``M`` when every imaginary part is +0.0, else ``M``.

    The test reads bits, so an imaginary -0.0 keeps ``M`` complex: the real
    part alone would not dump back to the same problem file.  The same test
    picks the blocks that ``cli.dump_problem`` writes as plain numbers.
    """
    if M.dtype.kind == "c" and not M.imag.view(np.uint64).any():
        return M.real.copy()
    return M


def validate_system(alpha, beta, gamma, C) -> BlockSystem:
    """Validate the standing assumptions and package the system.

    Parameters
    ----------
    alpha, beta, gamma, C : array_like
        Coefficient blocks; ``alpha`` and ``gamma`` are n0 x n0, ``beta``
        n1 x n1 and ``C`` maps H0 to H1, i.e. is n1 x n0.

    Returns
    -------
    BlockSystem
        With the measured coercivity constants attached.  Each block is
        float64 when it is real or every imaginary part is +0.0, and
        complex128 otherwise.

    Raises
    ------
    DimensionMismatch
        On incompatible shapes.
    NotHermitian
        If ``alpha`` or ``beta`` deviates from Hermitian symmetry by more
        than 1e-12 relative to its norm.
    NotCoercive
        If any of the three coercivity constants is at most 1e-10.
    """
    A = _real_if_exact(as_square_matrix(alpha, "alpha"))
    B = _real_if_exact(as_square_matrix(beta, "beta"))
    G = _real_if_exact(as_matrix(gamma, "gamma"))
    Cm = _real_if_exact(as_matrix(C, "C"))
    n0, n1 = A.shape[0], B.shape[0]
    if G.shape != (n0, n0):
        raise DimensionMismatch(f"gamma must be {n0} x {n0}, got {G.shape}")
    if Cm.shape != (n1, n0):
        raise DimensionMismatch(f"C must be {n1} x {n0}, got {Cm.shape}")

    _check_hermitian(A, "alpha")
    _check_hermitian(B, "beta")

    c_alpha = hermitian_min_eig(A)
    c_beta = hermitian_min_eig(B)
    c_gamma = hermitian_min_eig(G)
    if not c_alpha > _COERCIVITY_FLOOR:
        raise NotCoercive("alpha", c_alpha)
    if not c_beta > _COERCIVITY_FLOOR:
        raise NotCoercive("beta", c_beta)
    if not c_gamma > _COERCIVITY_FLOOR:
        raise NotCoercive("gamma", c_gamma)

    return BlockSystem(A, B, G, Cm, float(c_alpha), float(c_beta), float(c_gamma))
