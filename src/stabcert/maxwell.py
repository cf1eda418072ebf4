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
from .normalize import normalize_system, map_state
from .helmholtz import decompose, restricted_generator
from .certificate import StabilityCertificate, full_certificate
from .verify import (
    ResolventSweepReport,
    TrajectoryTrace,
    admissible_initial,
    assemble_generator,
    fit_decay_rate,
    gp_sweep,
    simulate,
)
from dataclasses import replace

__all__ = [
    "GridSpec",
    "DiscreteCurl",
    "MaxwellReport",
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


@dataclass(frozen=True)
class MaxwellReport:
    """Certificate, sweeps, and trajectory for one damped grid system."""

    spec: GridSpec
    certificate: StabilityCertificate
    sweeps: tuple[ResolventSweepReport, ...]
    trace: TrajectoryTrace
    fitted_rate: float
    projection_residual: float
    seed: int
    checks: dict


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
) -> MaxwellReport:
    """Certify a damped grid system and audit it end to end.

    Runs the full certificate (closed-form shift optimization, then the
    small-frequency audit), sweeps the restricted generator at
    abscissae 0 and -delta_cert/2, and simulates a random admissible
    initial state in unit-weight variables.  The report is rejected
    (CertificateFailure) if any of the recorded checks fails: singular
    sweep points, a fitted decay rate below the certified one, or
    increasing state norms.
    """
    sys = build_maxwell_system(spec, eps, mu, sigma, tol)
    cert = full_certificate(sys, tol=tol)
    ns = normalize_system(sys, tol)
    frames = decompose(ns.D, tol)
    B_res = restricted_generator(ns.gamma_tilde, frames)

    sweeps = (
        gp_sweep(B_res, 0.0, lambda_max, sweep_points),
        gp_sweep(B_res, -cert.delta_cert / 2.0, lambda_max, sweep_points),
    )

    rng = np.random.default_rng(seed)
    n0, n1 = sys.n0, sys.n1
    u0 = rng.standard_normal(n0) + 1j * rng.standard_normal(n0)
    v_raw = rng.standard_normal(n1) + 1j * rng.standard_normal(n1)
    frames_C = decompose(sys.C, tol)
    v_adm, residual = admissible_initial(sys.beta, frames_C, v_raw)
    U0 = map_state(ns, np.concatenate([u0, v_adm]), "forward")
    U0 = U0 / np.linalg.norm(U0)

    B_norm = assemble_generator(ns.gamma_tilde, ns.D)
    trace = simulate(B_norm, U0, t_end, samples)
    fitted = fit_decay_rate(trace)
    trace = replace(trace, fitted_rate=fitted, fit_window=(t_end / 2.0, t_end))

    norms = trace.state_norms
    checks = {
        "no_singular_sweep_points": all(s.n_singular == 0 for s in sweeps),
        "sweep_max_within_bound": all(
            s.max_norm <= cert.M_total * (1.0 + 1e-6) for s in sweeps
        ),
        "fitted_rate_at_least_certified": fitted >= cert.delta_cert - 1e-6,
        "norms_non_increasing": bool(
            np.all(np.diff(norms) <= 1e-10 * max(norms[0], 1.0))
        ),
    }
    if not all(checks.values()):
        failed = [k for k, ok in checks.items() if not ok]
        raise CertificateFailure(f"grid system audit failed: {', '.join(failed)}")

    return MaxwellReport(
        spec=spec,
        certificate=cert,
        sweeps=sweeps,
        trace=trace,
        fitted_rate=fitted,
        projection_residual=residual,
        seed=seed,
        checks=checks,
    )
