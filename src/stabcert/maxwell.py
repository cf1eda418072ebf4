"""Discrete curl operators on a periodic grid and conductivity-damped systems.

The continuum setting (electric/magnetic fields on an open spatial domain
with the distributional curl) is replaced by an N x N x N periodic grid.
Central differences with periodic wrap are skew and mutually commuting
circulants, which buys the two structural facts everything downstream
relies on: the assembled curl matrix is exactly Hermitian, and curl o grad
vanishes identically.  Closedness of the range is automatic in finite
dimensions; its quantitative stand-in is the smallest nonzero singular
value.

Grids are assembled densely, up to 1536 curl rows (N <= 8); the cap
bounds memory.  Whether the certificate of a grid system can finish in
time is decided by :func:`stabcert.certificate.prepare`, as for any other
system.

Note that on a two-cell axis the forward and backward periodic neighbours
coincide, so central differences and hence the whole curl vanish for
N = 2; the smallest grid with nontrivial coupling is N = 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooLarge, ParameterOutOfRange
from .model import BlockSystem, ComplexMatrix, _float_or_complex, validate_system

__all__ = ["GridSpec", "DiscreteCurl", "build_curl", "build_maxwell_system"]

_MAX_CURL_ROWS = 1536


@dataclass(frozen=True)
class GridSpec:
    """A periodic cubic grid: N cells per axis with spacing h."""

    N: int
    h: float = 1.0

    def __post_init__(self):
        if self.N < 2:
            raise ParameterOutOfRange(f"N must be at least 2, got {self.N}")
        # The difference quotients scale by 0.5 / h: an infinite h would zero
        # the curl, and an h below about 2.8e-309 would overflow it.
        if not (0 < self.h < math.inf and 0.5 / self.h < math.inf):
            raise ParameterOutOfRange(
                f"h must be finite and positive with 0.5 / h finite, got {self.h}"
            )


@dataclass(frozen=True)
class DiscreteCurl:
    """Dense curl matrix and the companion gradient.

    Its rank and closed-range constant come from ``decompose(K)``.
    """

    K: ComplexMatrix
    grad: ComplexMatrix


def _cyclic_shift(N: int) -> np.ndarray:
    S = np.zeros((N, N))
    S[np.arange(N), (np.arange(N) + 1) % N] = 1.0
    return S


def build_curl(spec: GridSpec) -> DiscreteCurl:
    """Assemble the central-difference periodic curl and gradient.

    Scalar fields are indexed (ix, iy, iz) in C order.  Each axis
    derivative is the skew circulant (S - S^T)/(2h); the curl is the usual
    cross-product arrangement

        [[0, -Dz, Dy], [Dz, 0, -Dx], [-Dy, Dx, 0]]

    acting on stacked (Fx, Fy, Fz) vector fields, and the gradient stacks
    (Dx; Dy; Dz).  Skew axis blocks make the curl exactly Hermitian, and
    commuting circulants make K @ grad vanish.
    """
    N, h = spec.N, spec.h
    dim = 3 * N**3
    if dim > _MAX_CURL_ROWS:
        raise GridTooLarge(
            f"curl would have {dim} rows, above the dense-assembly limit {_MAX_CURL_ROWS}"
        )
    S = _cyclic_shift(N)
    Dc = (S - S.T) * (0.5 / h)
    eye = np.eye(N)
    Dx = np.kron(np.kron(Dc, eye), eye)
    Dy = np.kron(np.kron(eye, Dc), eye)
    Dz = np.kron(np.kron(eye, eye), Dc)
    Z = np.zeros((N**3, N**3))
    # + 0.0 turns the -0.0 of the negated blocks into +0.0, so a problem
    # file stores only the nonzero entries; no other entry changes.
    K = np.block([[Z, -Dz, Dy], [Dz, Z, -Dx], [-Dy, Dx, Z]]) + 0.0
    grad = np.vstack([Dx, Dy, Dz])
    return DiscreteCurl(K=K, grad=grad)


def _material_diagonal(value, n_cells: int, name: str) -> np.ndarray:
    """Expand a scalar or per-cell profile to a per-component diagonal.

    A real profile stays real; a complex one stays complex.
    """
    arr = _float_or_complex(value)
    if arr.ndim == 0:
        return np.full(3 * n_cells, arr)
    if arr.ndim == 1 and arr.size == n_cells:
        return np.tile(arr, 3)
    if arr.ndim == 1 and arr.size == 3 * n_cells:
        return arr
    raise ParameterOutOfRange(
        f"{name} must be a scalar or a profile of length {n_cells} or {3 * n_cells}"
    )


def build_maxwell_system(spec: GridSpec, eps=1.0, mu=1.0, sigma=1.0) -> BlockSystem:
    """Conductivity-damped grid system: weights eps/mu, damping sigma, coupling curl."""
    curl = build_curl(spec)
    n_cells = spec.N**3
    alpha = np.diag(_material_diagonal(eps, n_cells, "eps"))
    beta = np.diag(_material_diagonal(mu, n_cells, "mu"))
    gamma = np.diag(_material_diagonal(sigma, n_cells, "sigma"))
    return validate_system(alpha, beta, gamma, curl.K)

