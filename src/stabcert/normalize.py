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
strict coercivity.  The same eigenvalues give ``kappa_norm``, which carries
unit-weight resolvent bounds back to the original variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, ParameterOutOfRange
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
    original and normalized variables in either direction.  ``kappa_norm`` is
    max(||sqrt_alpha||, ||sqrt_beta||) max(||sqrt_alpha_inv||, ||sqrt_beta_inv||).
    """

    gamma_tilde: ComplexMatrix
    D: ComplexMatrix
    sqrt_alpha: ComplexMatrix
    sqrt_alpha_inv: ComplexMatrix
    sqrt_beta: ComplexMatrix
    sqrt_beta_inv: ComplexMatrix
    c_gamma_tilde: float
    kappa_norm: float

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
    return _sqrt_factor(M)[:2]


def _sqrt_factor(M: ComplexMatrix) -> tuple[ComplexMatrix, ComplexMatrix, np.ndarray]:
    """:func:`sqrt_factor` of a square matrix already checked Hermitian, and its roots.

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
        return np.diag(s).astype(M.dtype), np.diag(1.0 / s).astype(M.dtype), s
    return (V * s) @ V.conj().T, (V / s) @ V.conj().T, s


def normalize_system(sys: BlockSystem) -> NormalizedSystem:
    """Transport a validated system to unit weights.

    :func:`~stabcert.model.validate_system` has checked that the weights are
    Hermitian, so they are factored without checking again.  A transported
    block past the float range raises ParameterOutOfRange.
    """
    (sa, sai, roots_alpha), (sb, sbi, roots_beta) = _sqrt_factor(sys.alpha), _sqrt_factor(sys.beta)
    roots = np.concatenate([roots_alpha, roots_beta])
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without a warning
        gamma_tilde, D = sai @ sys.gamma @ sai, sbi @ sys.C @ sai
    if not (np.isfinite(gamma_tilde).all() and np.isfinite(D).all()):
        raise ParameterOutOfRange("the normalized damping or coupling has entries past the float range")
    return NormalizedSystem(
        gamma_tilde=gamma_tilde,
        D=D,
        sqrt_alpha=sa,
        sqrt_alpha_inv=sai,
        sqrt_beta=sb,
        sqrt_beta_inv=sbi,
        c_gamma_tilde=hermitian_min_eig(gamma_tilde),
        # max(1 / roots) is 1 / min(roots) bit for bit: rounded division is monotone.
        kappa_norm=float(roots.max() * (1.0 / roots.min())) if roots.size else 0.0,
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
