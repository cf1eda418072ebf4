"""Reduction of the material weights to the identity.

A system with weights ``alpha``, ``beta`` is equivalent to one with unit
weights after pushing the state through diag(sqrt(alpha), sqrt(beta)).
The transported coefficient blocks are

    gamma_tilde = sqrt(alpha)^-1 gamma sqrt(alpha)^-1
    D           = sqrt(beta)^-1  C     sqrt(alpha)^-1

and coercivity, adjoints, ranks/ranges and decay statements transfer both
ways.  Square roots are taken by full Hermitian eigendecomposition, which
is exact and simple at the dense sizes targeted here, and entry by entry
for a diagonal weight such as a grid's; near-singular
weights are refused rather than regularized, because the theory assumes
strict coercivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite
from .model import (
    ComplexMatrix,
    BlockSystem,
    _check_hermitian,
    as_square_matrix,
    hermitian_min_eig,
    hermitian_part,
)

__all__ = ["NormalizedSystem", "sqrt_factor", "normalize_system", "map_state"]


@dataclass(frozen=True)
class NormalizedSystem:
    """A block system rewritten in unit-weight variables.

    ``gamma_tilde`` and ``D`` are the transported damping and coupling
    blocks; the four square-root factors allow mapping states between the
    original and normalized variables in either direction.
    """

    gamma_tilde: ComplexMatrix
    D: ComplexMatrix
    sqrt_alpha: ComplexMatrix
    sqrt_alpha_inv: ComplexMatrix
    sqrt_beta: ComplexMatrix
    sqrt_beta_inv: ComplexMatrix
    c_gamma_tilde: float

    @property
    def n0(self) -> int:
        return self.gamma_tilde.shape[0]

    @property
    def n1(self) -> int:
        return self.D.shape[0]


def sqrt_factor(M) -> tuple[ComplexMatrix, ComplexMatrix]:
    """Hermitian square root and its inverse of a positive definite matrix.

    Returns ``(sqrt, sqrt_inv)`` with ``sqrt`` Hermitian positive definite,
    ``sqrt @ sqrt == M`` and ``sqrt @ sqrt_inv == I`` to working precision.

    Raises
    ------
    NotHermitian
        If ``M`` deviates from Hermitian symmetry, as in
        :func:`~stabcert.model.validate_system`.
    NotPositiveDefinite
        If the smallest eigenvalue is nonpositive, or so close to zero
        relative to the largest that inversion would be meaningless.
    """
    M = as_square_matrix(M, "M")
    _check_hermitian(M, "sqrt_factor argument")
    return _sqrt_factor(M)


def _sqrt_factor(M: ComplexMatrix) -> tuple[ComplexMatrix, ComplexMatrix]:
    """:func:`sqrt_factor` of a square matrix already checked Hermitian.

    A diagonal M, such as a grid's weights, is its own eigendecomposition:
    its roots are taken entry by entry.
    """
    diagonal = np.count_nonzero(M) == np.count_nonzero(np.diagonal(M))
    if diagonal:
        w = np.diagonal(M).real
    else:
        w, V = np.linalg.eigh(hermitian_part(M))
    if M.shape[0] and (w.min() <= 0.0 or w.min() <= 1e-12 * w.max()):
        raise NotPositiveDefinite(
            f"smallest eigenvalue {w.min():.6g} (largest {w.max():.6g}); refusing to factor"
        )
    s = np.sqrt(w)
    if diagonal:
        return np.diag(s).astype(M.dtype), np.diag(1.0 / s).astype(M.dtype)
    return (V * s) @ V.conj().T, (V / s) @ V.conj().T


def normalize_system(sys: BlockSystem) -> NormalizedSystem:
    """Transport a validated system to unit weights.

    :func:`~stabcert.model.validate_system` has checked that the weights are
    Hermitian, so they are factored without checking again.
    """
    sa, sai = _sqrt_factor(sys.alpha)
    sb, sbi = _sqrt_factor(sys.beta)
    gamma_tilde = sai @ sys.gamma @ sai
    D = sbi @ sys.C @ sai
    return NormalizedSystem(
        gamma_tilde=gamma_tilde,
        D=D,
        sqrt_alpha=sa,
        sqrt_alpha_inv=sai,
        sqrt_beta=sb,
        sqrt_beta_inv=sbi,
        c_gamma_tilde=hermitian_min_eig(gamma_tilde),
    )


def map_state(ns: NormalizedSystem, U, direction: str) -> np.ndarray:
    """Push a stacked state (u, v) between original and normalized variables.

    ``direction="forward"`` applies diag(sqrt(alpha), sqrt(beta)),
    ``direction="backward"`` applies the inverse; the two compose to the
    identity up to rounding.
    """
    U = np.asarray(U, dtype=complex)
    n0, n1 = ns.n0, ns.n1
    if U.shape != (n0 + n1,):
        raise DimensionMismatch(f"state must have length {n0 + n1}, got {U.shape}")
    u, v = U[:n0], U[n0:]
    if direction == "forward":
        return np.concatenate([ns.sqrt_alpha @ u, ns.sqrt_beta @ v])
    if direction == "backward":
        return np.concatenate([ns.sqrt_alpha_inv @ u, ns.sqrt_beta_inv @ v])
    raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
