"""Independent numerical audits: generators, resolvents, spectra, semigroups.

Nothing in this module trusts the certificate chain.  Resolvent norms come
from singular values of the shifted generator, spectral abscissae from a
dense eigensolve, trajectories from the matrix exponential, and decay
rates from a log-linear fit.  These are the oracles the certified
constants are checked against.

The trajectory of the full generator G is computed on the restricted
generator B_res (:func:`restricted_simulate`), from the eigendecomposition
that also gives the spectral abscissa.  That rests on G F = F B_res and
F* F = I for the frame embedding F, and :func:`restriction_defects`
measures both on the computed matrices; :func:`simulate` on G itself stays
the reference it is tested against.

Every resolvent norm is one dense SVD, :func:`_resolvent_norms`.  The
resolvent oracle of the certificate is :func:`resolvent_cover`, a
Neumann-series cover of a whole half-plane; :func:`gp_sweep` samples one
vertical line, for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
from .model import (
    ComplexMatrix, as_matrix, as_square_matrix, assemble_generator, hermitian_part, operator_norm,
)
from .normalize import NormalizedSystem, map_state
from .helmholtz import HelmholtzFrames, decompose, frame_embedding

__all__ = [
    "ResolventSweepReport",
    "CoverReport",
    "TrajectoryTrace",
    "DissipativityReport",
    "assemble_generator",
    "check_m_dissipative",
    "resolvent_norm",
    "resolvent_cover",
    "gp_sweep",
    "spectral_abscissa",
    "simulate",
    "restricted_simulate",
    "restriction_defects",
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
class CoverReport:
    """Outcome of :func:`resolvent_cover` on the half-plane Re z >= -a.

    ``re_range`` x ``im_range`` is the rectangle the squares cover, ``h``
    the largest eigenvalue of the Hermitian part of B, ``evaluations`` the
    square centres evaluated, and ``max_enclosure`` the largest enclosure
    of a covered square (0.0 when no square is covered).  The rectangle's
    half-height is ||B|| + 1/bound, so the record depends on the operator,
    not on the frames it is written in, up to rounding.
    """

    a: float
    bound: float
    h: float
    re_range: tuple[float, float]
    im_range: tuple[float, float]
    evaluations: int
    max_enclosure: float
    passed: bool


@dataclass(frozen=True)
class TrajectoryTrace:
    """Sampled state norms of a semigroup trajectory.

    ``method`` records which matrix-exponential path produced the samples:
    ``"eig"`` (diagonalization, used when the eigenvector basis is well
    conditioned) or ``"pade"`` (stepping with ``scipy.linalg.expm``, the only
    path that loads scipy).  The last digits of the norms depend on this
    choice.
    """

    times: np.ndarray
    state_norms: np.ndarray
    method: str


@dataclass(frozen=True)
class DissipativityReport:
    dissipative: bool
    max_re_quadratic: float
    shifted_invertible: bool


def check_m_dissipative(B) -> DissipativityReport:
    """Verify dissipativity of the quadratic form and invertibility of I - B.

    I - B counts as singular under the rule of :func:`resolvent_norm`.
    """
    B = as_square_matrix(B, "B")
    if B.shape[0] == 0:
        return DissipativityReport(True, -math.inf, True)
    max_re = _max_hermitian_eig(B)
    _, singular = _resolvent_norms(B, [1.0])
    return DissipativityReport(max_re <= 1e-12, max_re, not singular[0])


def _max_hermitian_eig(B) -> float:
    """Largest eigenvalue of the Hermitian part of a nonempty square B."""
    return float(np.linalg.eigvalsh(hermitian_part(B))[-1])


# Bytes of one stack of shifted matrices z I - B handed to the batched SVD:
# every point of a 401-point sweep at once for m <= 12, a pass's 128 audit
# centres for m <= 78.
_RESOLVENT_STACK_BYTES = 12 * 2**20


def _resolvent_norms(B, zs) -> tuple[np.ndarray, np.ndarray]:
    """Norms of (z - B)^-1 at every z in ``zs``, as 1/sigma_min(z I - B).

    Returns ``(norms, singular_mask)``.  A point is singular when
    sigma_min <= 1e-14 sigma_max, which separates genuine spectrum from mere
    ill-conditioning at dense desk scale; its norm entry is +inf.  The SVDs
    run in stacks whose size follows from the matrix size.  For a real B a
    pair of conjugate points costs one SVD.
    """
    m = B.shape[0]
    zs = np.asarray(zs, dtype=complex).ravel()
    if m == 0:
        return np.zeros(zs.shape), np.zeros(zs.shape, dtype=bool)
    if np.isrealobj(B):
        # conj(z) I - B is the conjugate of z I - B, with the same singular
        # values (bit for bit with numpy 2.4's OpenBLAS): one SVD per conjugate pair.
        shifts, back = np.unique(np.where(zs.imag < 0, zs.conj(), zs), return_inverse=True)
    else:
        shifts, back = zs, slice(None)
    norms = np.zeros(shifts.shape)
    singular = np.zeros(shifts.shape, dtype=bool)
    eye = np.eye(m)
    chunk = max(1, _RESOLVENT_STACK_BYTES // (16 * m * m))
    for start in range(0, shifts.size, chunk):
        part = slice(start, start + chunk)
        shifted = shifts[part, None, None] * eye  # one k x m x m stack, shifted in place
        shifted -= B
        s = np.linalg.svd(shifted, compute_uv=False)
        smin, smax = s[:, -1], s[:, 0]
        bad = smin <= 1e-14 * smax
        singular[part] = bad
        with np.errstate(divide="ignore"):
            norms[part] = np.where(bad, math.inf, 1.0 / smin)
    return norms[back], singular[back]


def resolvent_norm(B, z) -> float:
    """The norm of (z - B)^-1, computed as 1/sigma_min(z I - B).

    Raises :class:`Singular` when sigma_min <= 1e-14 sigma_max: z is then
    numerically in the spectrum.
    """
    B = as_square_matrix(B, "B")
    z = complex(z)
    norms, singular = _resolvent_norms(B, [z])
    if singular[0]:
        raise Singular(f"z = {z} is numerically in the spectrum")
    return float(norms[0])


def _neumann_squares(B, centres, side, bound, meets, cap) -> tuple[bool, int, float, float]:
    """Cover squares of side ``side`` at ``centres`` by Neumann enclosures.

    By the Neumann series, ||R(z0)|| = rho and |z - z0| <= r < 1/rho give
    ||R(z)|| <= rho / (1 - rho r) (Trefethen and Embree, *Spectra and
    Pseudospectra*, 2005).  The squares are evaluated level by level with the
    dense SVD.  A square whose enclosure over its half-diagonal is within
    ``bound`` is covered; any other splits in four, and the quarters for
    which ``meets(kids, side)`` holds go on.  A singular centre, a centre
    norm above ``bound``, or a level that would take the evaluations past
    ``cap`` leaves the cover unfinished.

    Returns ``(passed, evaluations, largest centre norm, largest enclosure
    of a covered square)``.  A passed cover proves every square free of
    spectrum with norm at most that enclosure, up to the rounding of the
    centre norms.
    """
    corners = 0.5 * np.array([-1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j])
    evals, largest, enclosed = 0, 0.0, []
    while centres.size and evals + centres.size <= cap:
        evals += centres.size
        rho = _resolvent_norms(B, centres)[0]  # +inf at a singular centre
        largest = max(largest, float(rho.max()))
        if largest > bound:
            break
        slack = 1.0 - rho * side / math.sqrt(2.0)
        enclosure = np.divide(rho, slack, out=np.full_like(rho, math.inf), where=slack > 0)
        enclosed.extend(enclosure[enclosure <= bound].tolist())
        side *= 0.5
        kids = (centres[enclosure > bound, None] + side * corners).ravel()
        centres = kids[meets(kids, side)]
    return not centres.size, evals, largest, max(enclosed, default=0.0)


_COVER_EVALS = 802  # dense evaluations a cover may spend: those of two 401-point sweeps


def resolvent_cover(B, a: float, bound: float) -> CoverReport:
    """Prove ||(z - B)^-1|| <= bound on the whole half-plane Re z >= -a.

    Let h be the largest eigenvalue of the Hermitian part of B and
    R = ||B|| + 1/bound, where ||B||, the largest singular value (one SVD),
    does not depend on the orthonormal basis B is written in.  Outside the
    rectangle [-a, h + 1/bound] x [-R, R] two closed-form bounds hold, each
    at most ``bound``: ||R(z)|| <= 1/(Re z - h) by dissipativity, and
    ||R(z)|| <= 1/(|z| - ||B||) by the Neumann series.  The rectangle is
    covered by a row of squares of side max(width, min(2R, 0.5)) whose left
    edge is Re z = -a, refined as in :func:`_neumann_squares` with at most
    _COVER_EVALS dense evaluations (counted per centre, although a real B
    pays one SVD per conjugate pair); when h + 1/bound < -a the rectangle is
    empty and needs none.  A cover that does not finish returns ``passed``
    false instead of raising.
    """
    if not (math.isfinite(a) and 0 < bound < math.inf):
        raise ParameterOutOfRange(f"need a finite a and a finite positive bound, got {a!r}, {bound!r}")
    B = as_square_matrix(B, "B")
    h = _max_hermitian_eig(B) if B.size else -math.inf
    R = operator_norm(B) + 1.0 / bound
    x0, x1 = -a, h + 1.0 / bound
    side = max(x1 - x0, min(2.0 * R, 0.5))
    n = math.ceil(2.0 * R / side)
    centres = x0 + 0.5 * side + 1j * side * (np.arange(n) - 0.5 * (n - 1))

    def meets(kids, side):
        return (kids.real - 0.5 * side <= x1) & (np.abs(kids.imag) - 0.5 * side <= R)

    passed, evals, _, enclosure = _neumann_squares(
        B, centres[meets(centres, side)], side, bound, meets, _COVER_EVALS
    )
    return CoverReport(
        a=float(a), bound=float(bound), h=h, re_range=(x0, x1), im_range=(-R, R),
        evaluations=evals, max_enclosure=enclosure, passed=passed,
    )


def gp_sweep(B, abscissa: float, lambda_max: float, points: int) -> ResolventSweepReport:
    """Resolvent norms along Re z = abscissa (a Gearhart-Pruess style audit).

    The grid is symmetric in the imaginary part and always contains
    lambda = 0 (even point counts are bumped to the next odd number).
    Singular frequencies are recorded in the report instead of aborting
    the sweep; the corresponding norm entries are +inf.  Every norm is a
    dense SVD (:func:`_resolvent_norms`).  A sweep samples: it proves
    nothing between or beyond its points, which :func:`resolvent_cover`
    does.
    """
    B = as_square_matrix(B, "B")
    if points < 2:
        raise ParameterOutOfRange("points must be at least 2")
    if not (math.isfinite(lambda_max) and lambda_max > 0):
        raise ParameterOutOfRange(f"lambda_max must be finite and positive, got {lambda_max!r}")
    if not math.isfinite(abscissa):
        raise ParameterOutOfRange(f"abscissa must be finite, got {abscissa!r}")
    if points % 2 == 0:
        points += 1
    lambdas = np.linspace(-lambda_max, lambda_max, points)
    norms, singular = _resolvent_norms(B, abscissa + 1j * lambdas)
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
    B = as_square_matrix(B, "B")
    if B.shape[0] == 0:
        return -math.inf
    return float(np.linalg.eigvals(B).real.max())


def simulate(B, U0, t_end: float, samples: int) -> TrajectoryTrace:
    """Sample ||exp(t B) U0|| at equally spaced times in [0, t_end].

    The eigendecomposition of B gives the samples when its eigenvector basis
    is well conditioned (cond < 1e6); otherwise one Pade step
    ``scipy.linalg.expm(B dt)`` is repeated, the only path that loads scipy.
    """
    B = as_square_matrix(B, "B")
    U0, times = _trajectory_input(U0, B.shape[0], t_end, samples)
    norms, method = _propagate(B, U0, times)
    return TrajectoryTrace(times=times, state_norms=norms, method=method)


def restricted_simulate(
    B_res, frames: HelmholtzFrames, U0, t_end: float, samples: int, eig=None
) -> TrajectoryTrace:
    """:func:`simulate` for the full generator G = [[-gamma, D*], [-D, 0]], run on B_res.

    ``frames`` are the frames of D and ``B_res`` the restricted generator
    built from them.  With F from :func:`~stabcert.helmholtz.frame_embedding`,
    U0 = (u, v) splits into F x0, x0 = F* U0, and its ker(D*) part
    k = kappa1* v.  Since G F = F B_res and G maps ker(D*) to zero,
    ||exp(t G) U0||**2 = ||exp(t B_res) x0||**2 + ||k||**2, with ||k|| taken
    from kappa1* v itself, never as a difference of norms, so a rounding-level
    k stays at rounding level.  :func:`restriction_defects` measures how
    well the computed frames satisfy both identities.  ``eig``, when given,
    is ``np.linalg.eig(B_res)``, shared with the spectral abscissa.
    """
    B_res = as_square_matrix(B_res, "B_res")
    n0 = frames.n0
    U0, times = _trajectory_input(U0, n0 + frames.n1, t_end, samples)
    x0 = frame_embedding(frames).conj().T @ U0
    frozen = np.linalg.norm(frames.kappa1.conj().T @ U0[n0:])
    norms, method = _propagate(B_res, x0, times, eig)
    return TrajectoryTrace(times=times, state_norms=np.hypot(norms, frozen), method=method)


def _trajectory_input(U0, n: int, t_end: float, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """The checked start as a complex vector of length n, and the sample times."""
    U0 = np.asarray(U0, dtype=complex)
    if U0.shape != (n,):
        raise DimensionMismatch(f"U0 must have length {n}, got {U0.shape}")
    if not np.isfinite(U0).all():
        raise ParameterOutOfRange("U0 contains non-finite entries")
    if not 0 < t_end < math.inf:
        raise ParameterOutOfRange(f"t_end must be finite and positive, got {t_end!r}")
    if samples < 2:
        raise ParameterOutOfRange("samples must be at least 2")
    return U0, np.linspace(0.0, t_end, samples)


def _propagate(B, U0, times, eig=None) -> tuple[np.ndarray, str]:
    """``(||exp(t B) U0|| at each time, matrix-exponential path)``; see :func:`simulate`."""
    if not B.shape[0]:
        return np.zeros(times.size), "pade"
    w, V = np.linalg.eig(B) if eig is None else eig
    cond = np.linalg.cond(V)
    if not (np.isfinite(cond) and cond < 1e6):
        return _pade_norms(B, U0, times), "pade"
    coeffs = np.linalg.solve(V, U0)
    modes = np.exp(np.outer(w, times)) * coeffs[:, None]
    return np.linalg.norm(V @ modes, axis=0), "eig"


def restriction_defects(gamma, D, frames: HelmholtzFrames, B_res) -> tuple[float, float]:
    """How far the computed frames are from making B_res the restriction of G.

    Returns ``(||G F - F B_res||_F / ||G||_F, ||F* F - I||_F)`` for
    G = assemble_generator(gamma, D) and F the frame embedding; both vanish
    in exact arithmetic, and :func:`restricted_simulate` is exact when they do.
    """
    G = assemble_generator(gamma, D)
    F = frame_embedding(frames)
    scale = np.linalg.norm(G)
    residual = float(np.linalg.norm(G @ F - F @ as_square_matrix(B_res, "B_res")))
    defect = float(np.linalg.norm(F.conj().T @ F - np.eye(F.shape[1])))
    return (residual / scale if scale else residual), defect


def _pade_norms(B, U0, times) -> np.ndarray:
    import scipy.linalg  # deferred: the package's one use of scipy, slow to import

    dt = times[1] - times[0]
    step = scipy.linalg.expm(B * dt)
    norms = np.empty(len(times))
    state = U0
    norms[0] = np.linalg.norm(state)
    for k in range(1, len(times)):
        state = step @ state
        norms[k] = np.linalg.norm(state)
    return norms


def fit_decay_rate(trace: TrajectoryTrace) -> float:
    """Least-squares slope of -log||U(t)|| over the trailing fit window.

    The window is the second half of the time range (skipping transients).
    If the norms oscillate (more than four sign changes in the discrete
    derivative) the fit uses local maxima only, which tracks the envelope
    of rotating modes instead of averaging through it.
    """
    t = np.asarray(trace.times, dtype=float)
    n = np.asarray(trace.state_norms, dtype=float)
    t_start = t[-1] - 0.5 * (t[-1] - t[0])
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
    beta = as_matrix(beta, "beta")
    basis = as_matrix(basis, "basis")
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
    A = as_square_matrix(A, "A")
    Bop = as_matrix(Bop, "Bop")
    Cop = as_matrix(Cop, "Cop")
    n0 = A.shape[0]
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

    eye = np.eye(n0)
    D_inv = np.linalg.inv(D)
    shifted_gamma = ns.gamma_tilde - delta * eye
    factor = 1.0 + delta / z

    U_delta = np.concatenate([factor * u, v])
    F_delta = np.concatenate(
        [f + shifted_gamma @ (D_inv @ g) * (delta / z), factor * g]
    )

    L = z * np.eye(2 * n0) - assemble_generator(shifted_gamma, D)
    L[:n0, n0:] += delta * (shifted_gamma @ D_inv)
    L[n0:, n0:] += delta * eye
    return float(np.linalg.norm(L @ U_delta - F_delta))
