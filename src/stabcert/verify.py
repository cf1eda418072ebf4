"""Independent numerical audits: generators, resolvents, spectra, semigroups.

Nothing in this module trusts the certificate chain.  Resolvent norms come
from singular values of the shifted generator, spectral abscissae from
dense eigenvalues (no eigenvectors), trajectories from one Pade matrix
exponential raised to each sample's power, and decay rates from a
log-linear fit.  These are the oracles the certified constants are checked
against; the trajectory and the abscissa share no computation.

The trajectory of the full generator G is computed on the restricted
generator B_res (:func:`restricted_simulate`).  That rests on G F = F B_res and
F* F = I for the frame embedding F, and :func:`restriction_defects`
measures both on the computed matrices; :func:`simulate` on G itself stays
the reference it is tested against.

The resolvent oracle of the certificate is :func:`resolvent_cover`, a
Neumann-series cover of a whole half-plane.  Each of its squares asks
whether sigma_min(z0 I - B) >= s at the centre z0, and one verified Cholesky
test answers for a whole stack of centres (:func:`_sigma_min_test`): a
factorization that completes proves the bound, rounding included.  Where
the bound is too close to rounding level for the test to decide, the
square falls back to the dense SVD of :func:`_resolvent_norms`, which also
gives every resolvent norm of :func:`resolvent_norm` and of
:func:`gp_sweep`, a sample of one vertical line for diagnostics.
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
    square centres evaluated, and ``max_enclosure`` the largest norm bound
    shown on a covered square (0.0 when no square is covered): ``bound``
    itself on a square the Cholesky test proved, the SVD's Neumann
    enclosure on one that fell back to it (see :func:`_neumann_squares`).
    The rectangle's half-height is ||B|| + 1/bound, so the record depends on
    the operator, not on the frames it is written in, up to rounding.
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
    """Sampled state norms of a semigroup trajectory."""

    times: np.ndarray
    state_norms: np.ndarray


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
# every point of a 401-point sweep at once for m <= 12, 44 points at m = 133.
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


# Unit roundoff of IEEE double precision.
_U = 2.0**-53
# The Cholesky test decides a centre when its rounding allowance is at most
# this share of s**2; a bound that close to rounding level falls back to the SVD.
_DECIDES = 2.0**-10
# Bytes of one stack of Gram matrices.  Forming and factoring a stack holds
# up to three such stacks at once (shifted matrices, a conjugate copy or the
# Gram, the factors): one 133 x 133 complex matrix per stack, several
# hundred of the corpus's.
_GRAM_STACK_BYTES = 2**19


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), the bound on k successive roundings."""
    return k * _U / (1.0 - k * _U)


def _sigma_min_test(B, zs, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Prove sigma_min(z I - B) >= s at every z in ``zs`` with one Cholesky test.

    B is a nonempty square matrix.  Returns ``(proved, decided)``.  Where
    the rounding allowance c below is at most _DECIDES s**2, the test is
    decided: A = fl(z I - B) is formed, its Gram fl(A* A) shifted by
    t = (s + e)**2 + c on the diagonal, and ``proved`` holds where the
    Cholesky factorization completes.  A centre that is not decided is not
    factored, and ``proved`` is false there.

    A completed factorization is a proof (Rump, "Verification of positive
    definiteness", BIT 46, 2006), with u the unit roundoff, k = 2m + 2 and
    w = sqrt(2) gamma_k in complex arithmetic (k = m + 1 and w = gamma_k in
    real) and F >= ||A||_F**2 computed from the diagonal before any product:

    * only the diagonal of z I - B rounds, by at most e = 2u max |A_ii|, so
      sigma_min(z I - B) >= sigma_min(A) - e;
    * each Gram entry is a sum of at most 2m real products, so
      ||fl(A* A) - A* A||_2 <= w F (Higham, *Accuracy and Stability of
      Numerical Algorithms*, 2002, sections 3.1 and 3.6), also for the
      Hermitian matrix of the one triangle the factorization reads;
    * a Cholesky factorization that completes on X = fl(G - t I) gives
      R* R = X + dX with ||dX||_2 <= w / (1 - w) tr X (Demmel's bound), and
      the shift rounds the diagonal by at most u tr X <= u (1 + u)(1 + w) F.

    So lambda_min(A* A) >= t - 3 w F >= (s + e)**2 with c = 3 w F (plus
    m 2**-1070 for underflow), whose rounding the spare 0.4 w F of the sum
    encloses; t itself is rounded up.

    The stacks hold at most _GRAM_STACK_BYTES, and only a stack whose
    factorization fails is factored again matrix by matrix.  For a real B a
    pair of conjugate points shares one test, and real points run in real
    arithmetic.
    """
    m = B.shape[0]
    zs = np.asarray(zs, dtype=complex).ravel()
    if np.isrealobj(B):
        shifts, back = np.unique(np.where(zs.imag < 0, zs.conj(), zs), return_inverse=True)
    else:
        shifts, back = zs, slice(None)
    off_diagonal_sq = B.real**2 + B.imag**2
    np.fill_diagonal(off_diagonal_sq, 0.0)
    diagonal = shifts[:, None] - np.diag(B)  # the diagonal of each A, as formed below
    diagonal_sq = diagonal.real**2 + diagonal.imag**2
    F = (diagonal_sq.sum(axis=1) + off_diagonal_sq.sum()) * (1.0 + 2.0 * _gamma(m * m + 4))
    e = 2.0 * _U * np.sqrt(diagonal_sq.max(axis=1))
    real = (shifts.imag == 0) if np.isrealobj(B) else np.zeros(shifts.shape, dtype=bool)
    w = np.where(real, _gamma(m + 1), math.sqrt(2.0) * _gamma(2 * m + 2))
    t = ((s + e) ** 2 + 3.0 * w * F + m * 2.0**-1070) * (1.0 + 8.0 * _U)
    decided = t <= (1.0 + _DECIDES) * s * s
    proved = np.zeros(shifts.shape, dtype=bool)
    for group, points in ((decided & real, shifts.real), (decided & ~real, shifts)):
        if group.any():
            proved[group] = _factors(B, points[group], t[group])
    return proved[back], decided[back]


def _factors(B, shifts, t) -> np.ndarray:
    """Where the Cholesky factorization of fl(A* A) - t I, A = z I - B, completes.

    For a real B and complex points z = x + iy the Gram is
    (x I - B)^T (x I - B) + y**2 I + i y (B - B^T): one real product.  Its
    rounding, gamma_m |x I - B|^T |x I - B| and 2u y**2 on the real part and
    gamma_2 |y| |B - B^T| on the imaginary part, is at most
    gamma_{m+5} ||A||_F**2 in norm, which the allowance of
    :func:`_sigma_min_test` encloses as it does the complex Gram's.
    """
    m = B.shape[0]
    eye = np.eye(m)
    split = np.isrealobj(B) and np.iscomplexobj(shifts)
    skew = B - B.T if split else None
    done = np.zeros(shifts.shape, dtype=bool)
    chunk = max(1, _GRAM_STACK_BYTES // (np.result_type(shifts, B).itemsize * m * m))
    for start in range(0, shifts.size, chunk):
        part = slice(start, start + chunk)
        points = shifts[part]
        A = (points.real if split else points)[:, None, None] * eye
        A -= B
        X = np.matmul(A.conj().swapaxes(1, 2), A)
        del A
        if split:
            X = X.astype(complex)
            np.multiply(points.imag[:, None, None], skew, out=X.imag)
        diagonal = X.reshape(len(X), m * m)[:, :: m + 1]
        if split:
            diagonal += (points.imag**2)[:, None]
        diagonal -= t[part, None]
        if _completes(X):
            done[part] = True
        elif len(X) > 1:
            done[part] = [_completes(x) for x in X]
    return done


def _completes(X) -> bool:
    """Whether np.linalg.cholesky factors X, or every matrix of the stack X."""
    try:
        np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        return False
    return True


def _neumann_squares(B, centres, side, bound, meets, cap) -> tuple[bool, int, float]:
    """Cover squares of side ``side`` at ``centres`` by Neumann enclosures.

    For |z - z0| <= r, sigma_min(z I - B) >= sigma_min(z0 I - B) - r, so
    sigma_min(z0 I - B) >= r + 1/bound gives ||R(z)|| <= bound on the disk of
    radius r about z0 (the Neumann series; Trefethen and Embree, *Spectra
    and Pseudospectra*, 2005).  The squares are tested level by level, each
    centre by :func:`_sigma_min_test` at r = its half-diagonal, widened by
    2u (level + 2) max |z0| for the rounding of the centres' coordinates:
    a square the test proves is covered, and any other splits in four, the
    quarters for which ``meets(kids, side)`` holds going on.  A centre the
    test fails is tested again at s = 1/bound: failing that too, its norm
    is above ``bound`` and the cover stops, which only saves work.  A centre
    the test cannot decide follows the dense SVD's rule: rho = ||R(z0)||,
    covered when the enclosure rho / (1 - rho r) is within ``bound``, the
    cover stopped when rho exceeds it or z0 is singular.  A level that would
    take the evaluations past ``cap`` also leaves the cover unfinished.

    Returns ``(passed, evaluations, largest norm bound shown on a covered
    square)``: ``bound`` on a square the test proved, the enclosure on one
    the SVD decided.  A passed cover whose squares the test decided proves
    every square free of spectrum with norm at most ``bound``.
    """
    corners = 0.5 * np.array([-1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j])
    evals, enclosed, level = 0, 0.0, 0
    while centres.size and evals + centres.size <= cap:
        evals += centres.size
        covered, stop, enclosure = _decide_squares(B, centres, side, bound, level)
        if stop.any():
            break
        enclosed = max(enclosed, float(enclosure[covered].max(initial=0.0)))
        side *= 0.5
        level += 1
        kids = (centres[~covered, None] + side * corners).ravel()
        centres = kids[meets(kids, side)]
    return not centres.size, evals, enclosed


def _decide_squares(B, centres, side, bound, level) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(covered, stop, enclosure)`` of each square of one level; see :func:`_neumann_squares`."""
    r = side / math.sqrt(2.0) + 2.0 * _U * (level + 2) * float(np.abs(centres).max())
    covered, decided = _sigma_min_test(B, centres, (r + 1.0 / bound) * (1.0 + 8.0 * _U))
    stop = np.zeros(centres.shape, dtype=bool)
    failed = decided & ~covered
    if failed.any():
        held, again = _sigma_min_test(B, centres[failed], 1.0 / bound)
        stop[failed] = again & ~held
        decided[failed] = again  # undecided at 1/bound: the SVD's rule decides
    enclosure = np.where(covered, bound, math.inf)
    if not decided.all():
        rho = _resolvent_norms(B, centres[~decided])[0]  # +inf at a singular centre
        slack = 1.0 - rho * side / math.sqrt(2.0)
        svd_enclosure = np.divide(rho, slack, out=np.full_like(rho, math.inf), where=slack > 0)
        enclosure[~decided] = svd_enclosure
        covered[~decided] = svd_enclosure <= bound
        stop[~decided] = rho > bound
    return covered, stop, enclosure


_COVER_EVALS = 802  # square centres a cover may test: the points of two 401-point sweeps


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
    _COVER_EVALS evaluations (counted per centre, although a real B pays
    one test per conjugate pair); when h + 1/bound < -a the rectangle is
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

    passed, evals, enclosure = _neumann_squares(
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


def _unlocked_eigvals(B: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvals(B)`` bit for bit, run without the interpreter lock.

    numpy 2.4 releases the lock in eigvals only when the stack count times m
    exceeds 500 (at m = 133 one to three matrices hold it, four release it),
    so an m x m ``B`` with m <= 500 goes in a stack padded with
    ceil(501 / m) - 1 zero matrices; LAPACK factors each matrix alone, and
    the zeros' eigenvalues are real, so B's come back with the dtype and
    bits of the plain call.  Only the speed of a second thread depends on
    that numpy rule.
    """
    m = B.shape[0]
    if not 0 < m <= 500:
        return np.linalg.eigvals(B)
    stack = np.zeros((-(-501 // m), m, m), dtype=B.dtype)
    stack[0] = B
    return np.linalg.eigvals(stack)[0]


def simulate(B, U0, t_end: float, samples: int) -> TrajectoryTrace:
    """Sample ||exp(t B) U0|| at equally spaced times in [0, t_end].

    One Pade exponential exp(dt B), raised to every sample's power by binary
    powering (:func:`_propagate`), gives the samples, whether or not B is
    diagonalizable.
    """
    B = as_square_matrix(B, "B")
    U0, times = _trajectory_input(U0, B.shape[0], t_end, samples)
    return TrajectoryTrace(times=times, state_norms=_propagate(B, U0, times))


def restricted_simulate(
    B_res, frames: HelmholtzFrames, U0, t_end: float, samples: int
) -> TrajectoryTrace:
    """:func:`simulate` for the full generator G = [[-gamma, D*], [-D, 0]], run on B_res.

    ``frames`` are the frames of D and ``B_res`` the restricted generator
    built from them.  With F from :func:`~stabcert.helmholtz.frame_embedding`,
    U0 = (u, v) splits into F x0, x0 = F* U0, and its ker(D*) part
    k = kappa1* v.  Since G F = F B_res and G maps ker(D*) to zero,
    ||exp(t G) U0||**2 = ||exp(t B_res) x0||**2 + ||k||**2, with ||k|| taken
    from kappa1* v itself, never as a difference of norms, so a rounding-level
    k stays at rounding level.  :func:`restriction_defects` measures how
    well the computed frames satisfy both identities.
    """
    B_res = as_square_matrix(B_res, "B_res")
    n0 = frames.n0
    U0, times = _trajectory_input(U0, n0 + frames.n1, t_end, samples)
    x0 = frame_embedding(frames).conj().T @ U0
    frozen = np.linalg.norm(frames.kappa1.conj().T @ U0[n0:])
    norms = _propagate(B_res, x0, times)
    return TrajectoryTrace(times=times, state_norms=np.hypot(norms, frozen))


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


# Coefficients b_0..b_m of p in the [m/m] Pade approximant p(x)/p(-x) of
# exp, and the largest ||A||_1 at which its backward error stays below the
# unit roundoff (Higham, SIAM J. Matrix Anal. Appl. 26, 2005, Table 2.3).
_PADE = {
    3: ((120.0, 60.0, 12.0, 1.0), 1.495585217958292e-2),
    5: ((30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0), 2.539398330063230e-1),
    7: ((17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
        9.504178996162932e-1),
    9: ((17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
         2162160.0, 110880.0, 3960.0, 90.0, 1.0), 2.097847961257068e0),
}
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(A) -> np.ndarray:
    """exp(A) by scaling and squaring with a Pade approximant (Higham 2005).

    The smallest degree m in (3, 5, 7, 9) with ||A||_1 <= theta_m gives
    r = q(A)^-1 p(A) from (m + 1)/2 products and one solve.  Above theta_9,
    A is scaled by 2**-s so that ||A||_1 <= _THETA13, the [13/13]
    approximant is formed with six products and one solve, and squared s
    times.  Unlike an eigendecomposition, it is accurate however
    ill-conditioned the eigenvectors of A are.
    """
    A = np.asarray(A)
    if not A.size:
        return np.array(A)
    norm = float(np.abs(A).sum(axis=0).max())
    eye = np.eye(A.shape[0], dtype=A.dtype)
    for b, theta in _PADE.values():
        if norm <= theta:
            A2 = A @ A
            power, U, V = A2, b[1] * eye + b[3] * A2, b[0] * eye + b[2] * A2
            for j in range(4, len(b), 2):
                power = power @ A2
                U += b[j + 1] * power
                V += b[j] * power
            U = A @ U
            return np.linalg.solve(V - U, V + U)
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > _THETA13 else 0
    A = A * 0.5**s
    b = _PADE13
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


def _propagate(B, U0, times) -> np.ndarray:
    """||exp(t B) U0|| at the equally spaced ``times``; see :func:`simulate`.

    One step E = exp(dt B) fills the samples by binary powering: with E^k
    from repeated squaring, states k to 2k - 1 are E^k times states 0 to
    k - 1.  The states are rows, so each step is one matrix product.  A real
    B runs in real arithmetic, the start's real and imaginary parts as two
    rows per sample.
    """
    m, n = B.shape[0], times.size
    if not m:
        return np.zeros(n)
    if np.isrealobj(B):
        states = np.empty((2 * n, m))
        states[0], states[1], width = U0.real, U0.imag, 2
    else:
        states = np.empty((n, m), dtype=complex)
        states[0], width = U0, 1
    power = _expm((times[1] - times[0]) * B).T  # transposed, as rows multiply it
    k = 1
    while k < n:
        if k > 1:
            power = power @ power
        j = min(k, n - k)
        np.matmul(states[: width * j], power, out=states[width * k : width * (k + j)])
        k *= 2
    # np.linalg.norm(rows, axis=1), bit for bit, with the squares written
    # over the states: norm's states-sized temporaries lift the heap past
    # glibc's trim threshold, so every call would hand it back to the
    # kernel and fault it in again (about 800 page faults per N = 3 audit).
    rows = states.reshape(n, width * m)
    np.multiply(rows.conj(), rows, out=rows)
    return np.sqrt(np.add.reduce(rows.real, axis=1))


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
