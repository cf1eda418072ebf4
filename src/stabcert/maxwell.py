"""Discrete curl operators on a periodic grid and conductivity-damped systems.

The continuum setting (electric/magnetic fields on an open spatial domain
with the distributional curl) is replaced by an N x N x N periodic grid.
Central differences with periodic wrap are skew and mutually commuting
circulants, which buys the two structural facts everything downstream
relies on: the assembled curl matrix is exactly Hermitian, and curl o grad
vanishes identically.  Closedness of the range is automatic in finite
dimensions; its quantitative stand-in is the smallest nonzero singular
value.

Grids are assembled densely and guarded by a size limit (default 1536
rows for the curl, i.e. N <= 8) that the environment variable
``STABCERT_DENSE_LIMIT`` overrides.

Note that on a two-cell axis the forward and backward periodic neighbours
coincide, so central differences and hence the whole curl vanish for
N = 2; the smallest grid with nontrivial coupling is N = 3.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import CertificateFailure, GridTooLarge, ParameterOutOfRange
from .model import BlockSystem, ComplexMatrix, Tolerances
from .certificate import SystemAudit, audit_system

__all__ = [
    "GridSpec",
    "DiscreteCurl",
    "dense_limit",
    "build_curl",
    "build_maxwell_system",
    "maxwell_report",
]

_DEFAULT_DENSE_LIMIT = 1536


def dense_limit() -> int:
    """Row limit for dense curl assembly (STABCERT_DENSE_LIMIT overrides)."""
    raw = os.environ.get("STABCERT_DENSE_LIMIT")
    if raw is None:
        return _DEFAULT_DENSE_LIMIT
    try:
        return int(raw)
    except ValueError as exc:
        raise ParameterOutOfRange(
            f"STABCERT_DENSE_LIMIT must be an integer, got {raw!r}"
        ) from exc


@dataclass(frozen=True)
class GridSpec:
    """A periodic cubic grid: N cells per axis with spacing h."""

    N: int
    h: float = 1.0
    bc: str = "periodic"

    def __post_init__(self):
        if self.N < 2:
            raise ParameterOutOfRange(f"N must be at least 2, got {self.N}")
        if not self.h > 0:
            raise ParameterOutOfRange(f"h must be positive, got {self.h}")
        if self.bc != "periodic":
            raise ParameterOutOfRange(f"only periodic boundaries are supported, got {self.bc!r}")


@dataclass(frozen=True)
class DiscreteCurl:
    """Dense curl matrix, the companion gradient, and range diagnostics."""

    K: ComplexMatrix
    grad: ComplexMatrix
    rank: int
    sigma_min_pos: float


def _cyclic_shift(N: int) -> np.ndarray:
    S = np.zeros((N, N))
    S[np.arange(N), (np.arange(N) + 1) % N] = 1.0
    return S


def build_curl(spec: GridSpec, tol: Tolerances | None = None) -> DiscreteCurl:
    """Assemble the central-difference periodic curl and gradient.

    Scalar fields are indexed (ix, iy, iz) in C order.  Each axis
    derivative is the skew circulant (S - S^T)/(2h); the curl is the usual
    cross-product arrangement

        [[0, -Dz, Dy], [Dz, 0, -Dx], [-Dy, Dx, 0]]

    acting on stacked (Fx, Fy, Fz) vector fields, and the gradient stacks
    (Dx; Dy; Dz).  Skew axis blocks make the curl exactly Hermitian, and
    commuting circulants make K @ grad vanish.
    """
    tol = tol or Tolerances()
    N, h = spec.N, spec.h
    dim = 3 * N**3
    limit = dense_limit()
    if dim > limit:
        raise GridTooLarge(
            f"curl would have {dim} rows, above the dense limit {limit} "
            "(raise STABCERT_DENSE_LIMIT to override)"
        )
    S = _cyclic_shift(N)
    Dc = (S - S.T) / (2.0 * h)
    eye = np.eye(N)
    Dx = np.kron(np.kron(Dc, eye), eye)
    Dy = np.kron(np.kron(eye, Dc), eye)
    Dz = np.kron(np.kron(eye, eye), Dc)
    Z = np.zeros((N**3, N**3))
    K = np.block([[Z, -Dz, Dy], [Dz, Z, -Dx], [-Dy, Dx, Z]]).astype(complex)
    grad = np.vstack([Dx, Dy, Dz]).astype(complex)

    s = np.linalg.svd(K, compute_uv=False)
    if s[0] > 0:
        rank = int(np.count_nonzero(s >= tol.rank_rel_tol * s[0]))
    else:
        rank = 0
    sigma_min_pos = float(s[rank - 1]) if rank else 0.0
    return DiscreteCurl(K=K, grad=grad, rank=rank, sigma_min_pos=sigma_min_pos)


def _material_diagonal(value, n_cells: int, name: str) -> np.ndarray:
    """Expand a scalar or per-cell profile to a per-component diagonal."""
    arr = np.asarray(value, dtype=complex)
    if arr.ndim == 0:
        return np.full(3 * n_cells, complex(arr))
    if arr.ndim == 1 and arr.size == n_cells:
        return np.tile(arr, 3)
    if arr.ndim == 1 and arr.size == 3 * n_cells:
        return arr
    raise ParameterOutOfRange(
        f"{name} must be a scalar or a profile of length {n_cells} or {3 * n_cells}"
    )


def build_maxwell_system(
    spec: GridSpec, eps=1.0, mu=1.0, sigma=1.0, tol: Tolerances | None = None
) -> BlockSystem:
    """Conductivity-damped grid system: weights eps/mu, damping sigma, coupling curl."""
    from .model import validate_system

    curl = build_curl(spec, tol)
    n_cells = spec.N**3
    alpha = np.diag(_material_diagonal(eps, n_cells, "eps"))
    beta = np.diag(_material_diagonal(mu, n_cells, "mu"))
    gamma = np.diag(_material_diagonal(sigma, n_cells, "sigma"))
    return validate_system(alpha, beta, gamma, curl.K, tol)


def maxwell_report(
    spec: GridSpec,
    eps=1.0,
    mu=1.0,
    sigma=1.0,
    seed: int = 0,
    t_end: float = 20.0,
    samples: int = 801,
    lambda_max: float = 50.0,
    sweep_points: int = 401,
    tol: Tolerances | None = None,
) -> SystemAudit:
    """:func:`~stabcert.certificate.audit_system` of a damped grid system.

    Raises CertificateFailure if any of the audit's checks fails.
    """
    system = build_maxwell_system(spec, eps, mu, sigma, tol)
    audit = audit_system(system, tol, seed=seed, t_end=t_end, samples=samples,
                         lambda_max=lambda_max, points=sweep_points)
    failed = [k for k, ok in audit.checks.items() if not ok]
    if failed:
        raise CertificateFailure(f"grid system audit failed: {', '.join(failed)}")
    return audit
