"""Independent numerical audits: generators, resolvents, spectra, semigroups.

Nothing in this module trusts the certificate chain.  Resolvent norms come
from singular values of the shifted generator, spectral abscissae from a
dense eigensolve, trajectories from the matrix exponential, and decay
rates from a log-linear fit.  These are the oracles the certified
constants are checked against.

Resolvent sweeps take the smallest singular value from inverse Lanczos on
the complex Schur form where that converges in a few steps (EigTool's
method; Wright and Trefethen, SIAM J. Sci. Comput. 23, 2001), and from a
dense SVD everywhere else.  Lanczos Ritz values bound the norm from below,
the lenient direction: acceptable for an oracle, so the certificate's own
audit uses the dense SVD only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateShift,
    DimensionMismatch,
    NotInvertible,
    ParameterOutOfRange,
    Singular,
    SingularBlock,
    TooFewSamples,
    Underflow,
    ZeroFrequency,
)
from .model import ComplexMatrix, as_complex_matrix
from .normalize import NormalizedSystem, map_state
from .helmholtz import HelmholtzFrames, decompose

__all__ = [
    "ResolventSweepReport",
    "TrajectoryTrace",
    "DissipativityReport",
    "assemble_generator",
    "check_m_dissipative",
    "resolvent_norm",
    "gp_sweep",
    "spectral_abscissa",
    "simulate",
    "fit_decay_rate",
    "admissible_initial",
    "random_components",
    "admissible_start",
    "block_inverse",
    "change_of_variables_residual",
]


@dataclass(frozen=True)
class ResolventSweepReport:
    """Resolvent norms along a vertical line Re z = abscissa."""

    abscissa: float
    lambdas: np.ndarray
    norms: np.ndarray
    max_norm: float
    singular_points: np.ndarray

    @property
    def n_singular(self) -> int:
        return int(self.singular_points.size)


@dataclass(frozen=True)
class TrajectoryTrace:
    """Sampled state norms of a semigroup trajectory.

    ``method`` records which matrix-exponential path produced the samples:
    ``"eig"`` (diagonalization, used when the eigenvector basis is well
    conditioned) or ``"pade"`` (scaling-and-squaring stepping).  The last
    digits of the norms depend on this choice.
    """

    times: np.ndarray
    state_norms: np.ndarray
    fitted_rate: float | None
    fit_window: tuple[float, float] | None
    method: str


@dataclass(frozen=True)
class DissipativityReport:
    dissipative: bool
    max_re_quadratic: float
    shifted_invertible: bool


def assemble_generator(gamma, D) -> ComplexMatrix:
    """Dense generator [[-gamma, D*], [-D, 0]] in unit-weight variables.

    ``gamma`` is the damping block and ``D`` the coupling block; callers
    holding a :class:`NormalizedSystem` pass ``ns.gamma_tilde`` and
    ``ns.D``.  Taking the blocks directly also serves audits that relax
    strict coercivity (for example damping with Re gamma >= 0 only).
    """
    gamma = as_complex_matrix(gamma, "gamma")
    D = as_complex_matrix(D, "D")
    n0 = gamma.shape[0]
    if gamma.shape[1] != n0:
        raise DimensionMismatch(f"gamma must be square, got {gamma.shape}")
    if D.shape[1] != n0:
        raise DimensionMismatch(f"D must have {n0} columns, got {D.shape}")
    n1 = D.shape[0]
    B = np.zeros((n0 + n1, n0 + n1), dtype=complex)
    B[:n0, :n0] = -gamma
    B[:n0, n0:] = D.conj().T
    B[n0:, :n0] = -D
    return B


def check_m_dissipative(B) -> DissipativityReport:
    """Verify dissipativity of the quadratic form and invertibility of I - B."""
    B = as_complex_matrix(B, "B")
    if B.shape[0] != B.shape[1]:
        raise DimensionMismatch(f"B must be square, got {B.shape}")
    if B.shape[0] == 0:
        return DissipativityReport(True, -math.inf, True)
    w = np.linalg.eigvalsh(0.5 * (B + B.conj().T))
    max_re = float(w[-1])
    shifted = np.eye(B.shape[0]) - B
    s = np.linalg.svd(shifted, compute_uv=False)
    shifted_invertible = bool(s[-1] > 1e-12 * s[0])
    return DissipativityReport(max_re <= 1e-12, max_re, shifted_invertible)


# Bytes of one stack of shifted matrices z I - B handed to the batched SVD:
# every point of a 401-point sweep at once for m <= 12, the 41-point audit
# edge at m = 133.
_RESOLVENT_STACK_BYTES = 12 * 2**20


def _resolvent_norms(B, zs) -> tuple[np.ndarray, np.ndarray]:
    """Norms of (z - B)^-1 at every z in ``zs``, as 1/sigma_min(z I - B).

    Returns ``(norms, singular_mask)``.  A point is singular when
    sigma_min <= 1e-14 sigma_max, which separates genuine spectrum from mere
    ill-conditioning at dense desk scale; its norm entry is +inf.  The SVDs
    run in stacks whose size follows from the matrix size.
    """
    m = B.shape[0]
    zs = np.asarray(zs, dtype=complex)
    norms = np.zeros(zs.shape)
    singular = np.zeros(zs.shape, dtype=bool)
    if m == 0:
        return norms, singular
    eye = np.eye(m)
    chunk = max(1, _RESOLVENT_STACK_BYTES // (16 * m * m))
    for start in range(0, zs.size, chunk):
        part = slice(start, start + chunk)
        s = np.linalg.svd(zs[part, None, None] * eye - B, compute_uv=False)
        smin, smax = s[:, -1], s[:, 0]
        bad = smin <= 1e-14 * smax
        singular[part] = bad
        with np.errstate(divide="ignore"):
            norms[part] = np.where(bad, math.inf, 1.0 / smin)
    return norms, singular


def resolvent_norm(B, z) -> float:
    """The norm of (z - B)^-1, computed as 1/sigma_min(z I - B).

    Raises :class:`Singular` when sigma_min <= 1e-14 sigma_max: z is then
    numerically in the spectrum.
    """
    B = as_complex_matrix(B, "B")
    if B.shape[0] != B.shape[1]:
        raise DimensionMismatch(f"B must be square, got {B.shape}")
    z = complex(z)
    norms, singular = _resolvent_norms(B, [z])
    if singular[0]:
        raise Singular(f"z = {z} is numerically in the spectrum")
    return float(norms[0])


def _lanczos_top(apply, m: int, count: int, steps: int) -> np.ndarray:
    """Largest eigenvalues of ``count`` Hermitian positive definite m x m operators.

    ``apply(V, idx)`` applies the operators listed in the index array ``idx``
    to the matching columns of the m x len(idx) array ``V``.  All operators
    run Lanczos in step from one fixed start vector, with full
    reorthogonalization in two passes.  An operator leaves the batch when
    its Ritz value theta has (residual / theta)**2 <= 1e-14; theta is then a
    lower bound of the eigenvalue.  Entries not accepted within ``steps``
    steps, or whose step overflows, are nan.
    """
    theta = np.full(count, math.nan)
    idx = np.arange(count)
    rng = np.random.default_rng(0)
    q = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    Q = np.repeat((q / np.linalg.norm(q))[None, :, None], count, axis=2)
    alphas, betas = np.empty((count, 0)), np.empty((count, 0))
    for k in range(steps):
        w = apply(Q[-1], idx)
        alphas = np.column_stack([alphas, np.einsum("ij,ij->j", Q[-1].conj(), w).real])
        for _ in range(2):
            w -= np.einsum("kij,kj->ij", Q, np.einsum("kij,ij->kj", Q.conj(), w))
        beta = np.linalg.norm(w, axis=0)
        tri = np.zeros((idx.size, k + 1, k + 1))
        r = np.arange(k + 1)
        tri[:, r, r] = alphas
        tri[:, r[:-1], r[1:]] = tri[:, r[1:], r[:-1]] = betas
        ritz, vecs = np.linalg.eigh(tri)
        top = ritz[:, -1]
        done = (beta * np.abs(vecs[:, -1, -1])) ** 2 <= 1e-14 * top**2
        theta[idx[done]] = top[done]
        keep = ~done & np.isfinite(top)
        if not keep.any():
            break
        idx, w, beta = idx[keep], w[:, keep], beta[keep]
        alphas, betas = alphas[keep], np.column_stack([betas[keep], beta])
        Q = np.concatenate([Q[:, :, keep], (w / beta)[None]])
    return theta


def _sweep_norms(B, zs) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_resolvent_norms` for the points of a sweep, by inverse Lanczos where it pays.

    With a budget of m // 8 steps, inverse Lanczos on (z - B)^-* (z - B)^-1
    first runs at the point of largest |z| with an explicit inverse.  Only if
    it converges there is the complex Schur form T of B computed, once; every
    point then runs in one batch whose steps are two triangular solves with
    z - T.  Ritz values are lower bounds of the norm.  A point goes to the
    dense SVD when it does not converge within the budget, or when its
    sigma_min, or its distance to an eigenvalue of B, is at most
    1e-10 (|z| + ||B||_F); the dense rule alone then decides singularity.
    """
    m = B.shape[0]
    steps = m // 8
    if steps == 0:
        return _resolvent_norms(B, zs)
    z0 = zs[np.argmax(np.abs(zs))]
    try:
        R0 = np.linalg.inv(z0 * np.eye(m) - B)
    except np.linalg.LinAlgError:
        return _resolvent_norms(B, zs)
    if math.isnan(_lanczos_top(lambda V, idx: R0.conj().T @ (R0 @ V), m, 1, steps)[0]):
        return _resolvent_norms(B, zs)
    T, _, eigs, _, _, info = scipy.linalg.lapack.zgees(lambda x: 0, B, compute_v=0)
    if info != 0:
        return _resolvent_norms(B, zs)
    TH = np.ascontiguousarray(T.conj().T)

    tol = 1e-10 * (np.abs(zs) + np.linalg.norm(B))
    run = np.flatnonzero(np.abs(zs[:, None] - eigs).min(axis=1) > tol)
    shifts = zs[run] - eigs[:, None]

    def apply(V, idx):
        d = shifts[:, idx]
        x = np.empty_like(V)
        for i in range(m - 1, -1, -1):
            x[i] = (V[i] + T[i, i + 1:] @ x[i + 1:]) / d[i]
        for i in range(m):
            x[i] = (x[i] + TH[i, :i] @ x[:i]) / d[i].conj()
        return x

    norms = np.full(zs.shape, math.nan)
    norms[run] = np.sqrt(_lanczos_top(apply, m, run.size, steps))
    redo = ~(1.0 / norms > tol)
    singular = np.zeros(zs.shape, dtype=bool)
    norms[redo], singular[redo] = _resolvent_norms(B, zs[redo])
    return norms, singular


def gp_sweep(B, abscissa: float, lambda_max: float, points: int) -> ResolventSweepReport:
    """Resolvent norms along Re z = abscissa (a Gearhart-Pruess style audit).

    The grid is symmetric in the imaginary part and always contains
    lambda = 0 (even point counts are bumped to the next odd number).
    Singular frequencies are recorded in the report instead of aborting
    the sweep; the corresponding norm entries are +inf.

    Norms come from :func:`_sweep_norms`: inverse Lanczos Ritz values where
    they converge within a few steps, which bound the norm from below (the
    lenient direction, acceptable for an oracle but not for a certificate),
    and the dense SVD everywhere else, points at or near the spectrum
    included.
    """
    B = as_complex_matrix(B, "B")
    if B.shape[0] != B.shape[1]:
        raise DimensionMismatch(f"B must be square, got {B.shape}")
    if points < 2:
        raise ParameterOutOfRange("points must be at least 2")
    if not (math.isfinite(lambda_max) and lambda_max > 0):
        raise ParameterOutOfRange(f"lambda_max must be finite and positive, got {lambda_max!r}")
    if not math.isfinite(abscissa):
        raise ParameterOutOfRange(f"abscissa must be finite, got {abscissa!r}")
    if points % 2 == 0:
        points += 1
    lambdas = np.linspace(-lambda_max, lambda_max, points)
    norms, singular = _sweep_norms(B, abscissa + 1j * lambdas)
    finite = norms[~singular]
    max_norm = float(finite.max()) if finite.size else math.inf
    return ResolventSweepReport(
        abscissa=float(abscissa),
        lambdas=lambdas,
        norms=norms,
        max_norm=max_norm,
        singular_points=lambdas[singular],
    )


def spectral_abscissa(B) -> float:
    """Largest real part of the spectrum; the sharp decay rate is its negative."""
    B = as_complex_matrix(B, "B")
    if B.shape[0] != B.shape[1]:
        raise DimensionMismatch(f"B must be square, got {B.shape}")
    if B.shape[0] == 0:
        return -math.inf
    return float(np.linalg.eigvals(B).real.max())


def simulate(B, U0, t_end: float, samples: int) -> TrajectoryTrace:
    """Sample ||exp(t B) U0|| at equally spaced times in [0, t_end]."""
    B = as_complex_matrix(B, "B")
    n = B.shape[0]
    if B.shape[1] != n:
        raise DimensionMismatch(f"B must be square, got {B.shape}")
    U0 = np.asarray(U0, dtype=complex)
    if U0.shape != (n,):
        raise DimensionMismatch(f"U0 must have length {n}, got {U0.shape}")
    if not t_end > 0:
        raise ParameterOutOfRange("t_end must be positive")
    if samples < 2:
        raise ParameterOutOfRange("samples must be at least 2")

    times = np.linspace(0.0, t_end, samples)
    method = "pade"
    if n:
        w, V = np.linalg.eig(B)
        cond = np.linalg.cond(V)
        if np.isfinite(cond) and cond < 1e6:
            method = "eig"
            coeffs = np.linalg.solve(V, U0)
            modes = np.exp(np.outer(w, times)) * coeffs[:, None]
            states = V @ modes
            norms = np.linalg.norm(states, axis=0)
        else:
            norms = _pade_norms(B, U0, times)
    else:
        norms = np.zeros(samples)
    return TrajectoryTrace(
        times=times,
        state_norms=np.asarray(norms, dtype=float),
        fitted_rate=None,
        fit_window=None,
        method=method,
    )


def _pade_norms(B, U0, times) -> np.ndarray:
    dt = times[1] - times[0]
    step = scipy.linalg.expm(B * dt)
    norms = np.empty(len(times))
    state = U0
    norms[0] = np.linalg.norm(state)
    for k in range(1, len(times)):
        state = step @ state
        norms[k] = np.linalg.norm(state)
    return norms


def fit_decay_rate(trace: TrajectoryTrace, window_fraction: float = 0.5) -> float:
    """Least-squares slope of -log||U(t)|| over the trailing fit window.

    The window is the last ``window_fraction`` of the time range (skipping
    transients).  If the norms oscillate (more than four sign changes in
    the discrete derivative) the fit uses local maxima only, which tracks
    the envelope of rotating modes instead of averaging through it.
    """
    t = np.asarray(trace.times, dtype=float)
    n = np.asarray(trace.state_norms, dtype=float)
    if not 0 < window_fraction <= 1:
        raise ParameterOutOfRange("window_fraction must lie in (0, 1]")
    t_start = t[-1] - window_fraction * (t[-1] - t[0])
    mask = t >= t_start - 1e-12 * max(abs(t[-1]), 1.0)
    tw, nw = t[mask], n[mask]
    if tw.size < 10:
        raise TooFewSamples(f"only {tw.size} samples in the fit window, need 10")
    if np.any(nw <= 1e-30):
        raise Underflow("state norms vanish inside the fit window")

    d = np.diff(nw)
    sign_changes = int(np.count_nonzero(d[:-1] * d[1:] < 0))
    if sign_changes > 4:
        interior = np.arange(1, nw.size - 1)
        peaks = interior[(nw[interior] >= nw[interior - 1]) & (nw[interior] >= nw[interior + 1])]
        if peaks.size >= 2:
            tw, nw = tw[peaks], nw[peaks]
    slope = np.polyfit(tw, -np.log(nw), 1)[0]
    return float(slope)


def admissible_initial(beta, basis, v0) -> tuple[np.ndarray, float]:
    """Project a second-component state onto the admissible set beta^-1 ran(C).

    ``basis`` has orthonormal columns spanning ran(C).  Returns
    ``(v_adm, residual)`` with ``beta @ v_adm`` in ran(C) by construction
    and ``residual = ||v_adm - v0||``; the part outside the admissible set
    couples only to frozen kernel modes and cannot decay.
    """
    beta = as_complex_matrix(beta, "beta")
    basis = as_complex_matrix(basis, "basis")
    v0 = np.asarray(v0, dtype=complex)
    n1 = basis.shape[0]
    if beta.shape != (n1, n1) or v0.shape != (n1,):
        raise DimensionMismatch(
            f"beta must be {n1} x {n1} and v0 of length {n1}, got {beta.shape}, {v0.shape}"
        )
    bv = beta @ v0
    projected = basis @ (basis.conj().T @ bv)
    v_adm = np.linalg.solve(beta, projected) if n1 else v0.copy()
    residual = float(np.linalg.norm(v_adm - v0))
    return v_adm, residual


def random_components(seed, n0: int, n1: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw complex Gaussian draws ``(u0, v_raw)`` of a random start from ``seed``."""
    rng = np.random.default_rng(seed)
    u0 = rng.standard_normal(n0) + 1j * rng.standard_normal(n0)
    return u0, rng.standard_normal(n1) + 1j * rng.standard_normal(n1)


def admissible_start(
    ns: NormalizedSystem, frames: HelmholtzFrames, u0, v_raw
) -> tuple[np.ndarray, float]:
    """Unit-norm normalized initial state from raw component draws.

    ``frames`` are the frames of ``ns.D``.  Since ran(C) = sqrt(beta) ran(D),
    the Q factor of ``sqrt_beta @ iota1`` is an orthonormal basis of ran(C),
    onto which ``v_raw`` is projected as in :func:`admissible_initial`.
    ``(u0, v_adm)`` is mapped into the variables of ``ns`` and scaled to
    norm one unless it vanishes.  Returns ``(U0, residual)``.
    """
    basis = np.linalg.qr(ns.sqrt_beta @ frames.iota1)[0]
    beta = ns.sqrt_beta @ ns.sqrt_beta
    v_adm, residual = admissible_initial(beta, basis, v_raw)
    U0 = map_state(ns, np.concatenate([u0, v_adm]), "forward")
    norm0 = np.linalg.norm(U0)
    return (U0 / norm0 if norm0 > 0 else U0), residual


def block_inverse(A, Bop, Cop) -> ComplexMatrix:
    """Closed-form inverse of [[A, Bop], [Cop, 0]].

    With Bop and Cop invertible the inverse is
    [[0, Cop^-1], [Bop^-1, -Bop^-1 A Cop^-1]]; multiplied back against the
    assembled block matrix it reproduces the identity.
    """
    A = as_complex_matrix(A, "A")
    Bop = as_complex_matrix(Bop, "Bop")
    Cop = as_complex_matrix(Cop, "Cop")
    n0 = A.shape[0]
    if A.shape[1] != n0:
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    if Bop.shape[0] != n0 or Bop.shape[0] != Bop.shape[1]:
        raise DimensionMismatch(
            f"Bop must be square with {n0} rows to be invertible, got {Bop.shape}"
        )
    if Cop.shape[1] != n0 or Cop.shape[0] != Cop.shape[1]:
        raise DimensionMismatch(
            f"Cop must be square with {n0} columns to be invertible, got {Cop.shape}"
        )
    try:
        B_inv = np.linalg.inv(Bop)
        C_inv = np.linalg.inv(Cop)
    except np.linalg.LinAlgError as exc:
        raise SingularBlock("Bop and Cop must both be invertible") from exc
    n1 = Bop.shape[1]
    out = np.zeros((n0 + n1, n0 + n1), dtype=complex)
    out[:n0, n0:] = C_inv
    out[n0:, :n0] = B_inv
    out[n0:, n0:] = -B_inv @ A @ C_inv
    return out


def change_of_variables_residual(ns: NormalizedSystem, z, delta: float, U, F) -> float:
    """Residual of the shifted-variable identity for a resolvent solution.

    Given (z - B) U = F in unit-weight variables with an invertible
    coupling block D, the rescaled pair

        U_delta = ((1 + delta/z) u, v)
        F_delta = (f + (gamma - delta) (delta/z) D^-1 g, (1 + delta/z) g)

    satisfies

        (z I + [[gamma - delta, (gamma - delta) delta D^-1], [0, delta]]
             + [[0, -D*], [D, 0]]) U_delta = F_delta

    exactly; the returned residual norm of that equation is a pure
    floating-point quantity.
    """
    z = complex(z)
    if z == 0:
        raise ZeroFrequency("the change of variables requires z != 0")
    if abs(z + delta) <= 1e-14 * max(abs(z), abs(delta)):
        raise DegenerateShift("delta must differ from -z")
    if not delta > 0:
        raise ParameterOutOfRange("delta must be positive")

    D = ns.D
    n0, n1 = ns.n0, ns.n1
    if n0 != n1:
        raise NotInvertible(f"coupling block must be square, got {D.shape}")
    if decompose(D).r < n0:
        raise NotInvertible("coupling block is numerically rank deficient")

    U = np.asarray(U, dtype=complex)
    F = np.asarray(F, dtype=complex)
    if U.shape != (2 * n0,) or F.shape != (2 * n0,):
        raise DimensionMismatch("U and F must be stacked vectors of length n0 + n1")
    u, v = U[:n0], U[n0:]
    f, g = F[:n0], F[n0:]

    gamma = ns.gamma_tilde
    eye = np.eye(n0)
    D_inv = np.linalg.inv(D)
    shifted_gamma = gamma - delta * eye
    factor = 1.0 + delta / z

    U_delta = np.concatenate([factor * u, v])
    F_delta = np.concatenate(
        [f + shifted_gamma @ (D_inv @ g) * (delta / z), factor * g]
    )

    L = np.zeros((2 * n0, 2 * n0), dtype=complex)
    L[:n0, :n0] = shifted_gamma
    L[:n0, n0:] = delta * (shifted_gamma @ D_inv) - D.conj().T
    L[n0:, :n0] = D
    L[n0:, n0:] = delta * eye
    L += z * np.eye(2 * n0)
    return float(np.linalg.norm(L @ U_delta - F_delta))
