"""Explicit stability constants: shift optimization and the certified chain.

The decay certificate is assembled from one inequality per link:

* For an invertible coupling block the shifted change of variables turns
  z - B into a block whose Hermitian part is bounded below by
  Re z + min{u_term, v_term}, where for a shift delta > 0 and a Young
  parameter p in (0, 2)

      u_term = c - delta * (1 + ((||gamma|| + delta) * ||C^-1||)^2 / (2 p))
      v_term = delta * (1 - p / 2).

  Maximizing d = (1/2) min{u_term, v_term} over (delta, p) gives the
  interior resolvent bound M_inner = (2/d) ((1 + ||gamma|| + delta) ||C^-1|| + 2),
  valid for Re z > -d and |z| >= 2 delta.

* A rank-deficient coupling is first decoupled; on the working half-plane
  Re z >= -c/4 the Schur damping block keeps coercivity 3c/4 and norm at
  most ||gamma|| + (4/3) ||gamma||^2 / c, the kernel block resolvent is
  bounded by 4/(3c), and the decoupling transforms by 1 + (4/3)||gamma||/c.

* The remaining small-|z| disk segment, which the interior estimate does
  not reach, is covered by squares on each of which the Neumann series
  around the centre's resolvent keeps the norm within M_total.  On failure
  the certified abscissa is halved and the cover repeats.

:func:`full_certificate` and :func:`audit_system`, which adds the oracle
checks, share one :func:`prepare` of the system.

:func:`full_certificate` is ``chain(measure(prep))`` and the audit; of the
chain's steps only :func:`measure` reads a matrix, so no norm is taken from
user input.  The claim is stated once, in :class:`StabilityCertificate`.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from ._blas import single_blas_thread, usable_cpus
from .errors import (
    CertificateFailure,
    DegenerateProblem,
    GridTooLarge,
    HalfPlaneViolation,
    ParameterOutOfRange,
    ZeroRangeOperator,
)
from .model import BlockSystem, ComplexMatrix, operator_norm
from .normalize import NormalizedSystem, normalize_system
from .helmholtz import HelmholtzFrames, decompose, restricted_generator
from .verify import (
    CoverReport,
    TrajectoryTrace,
    _neumann_squares,
    _unlocked_eigvals,
    admissible_start,
    fit_decay_rate,
    random_components,
    resolvent_cover,
    restricted_simulate,
    restriction_defects,
    spectral_abscissa,
)

__all__ = [
    "InvertibleCaseCertificate",
    "AuditRecord",
    "ChainInputs",
    "StabilityCertificate",
    "PreparedProblem",
    "SystemAudit",
    "FORMULAS",
    "damping_lower_bound",
    "optimize_shift",
    "invertible_certificate",
    "kernel_block_bound",
    "prepare",
    "refuse_oversized",
    "measure",
    "chain",
    "full_certificate",
    "audit_system",
]

# Exact formulas behind every reported constant, for hand re-derivation.
# Outside ``inner``, c and gamma_norm mean c_gamma_tilde and gamma_tilde_norm.
FORMULAS = {
    "u_term": "c - delta*(1 + ((gamma_norm + delta)*C_inv_norm)**2 / (2*p))",
    "v_term": "delta*(1 - p/2)",
    "c_tilde": "u_term evaluated at (delta_star, p_star)",
    "delta_star": "the root in (0, c/2) of 2*C_inv_norm**2*delta**3 + 3*C_inv_norm**2*gamma_norm*delta**2"
    " + (C_inv_norm**2*gamma_norm**2 + 4)*delta - 2*c",
    "d": "0.5*min(c_tilde, delta_star*(1 - p_star/2))",
    "M_inner": "(2/d)*((1 + gamma_norm + delta_star)*C_inv_norm + 2)",
    "working_abscissa": "c/4",
    "c_eff": "3*c/4 if 0 < rank < n0 else c",
    "gamma_eff": "gamma_norm + (4/3)*gamma_norm**2/c if 0 < rank < n0 else gamma_norm",
    "kernel_bound": "1/(c - working_abscissa) if rank < n0 else 0.0",
    "transform_bound": "1 + (4/3)*gamma_norm/c if 0 < rank < n0 else 1",
    "kappa_norm": "max(||sqrt_alpha||, ||sqrt_beta||) * max(||sqrt_alpha_inv||, ||sqrt_beta_inv||)",
    "delta_cert": "(min(working_abscissa, d) if rank > 0 else working_abscissa) / 2**halvings",
    "M_total": "transform_bound**2 * max(M_inner if rank > 0 else 0.0, kernel_bound) * kappa_norm**2",
}


@dataclass(frozen=True)
class InvertibleCaseCertificate:
    """Constants certifying the invertible-coupling resolvent estimate.

    ``c``, ``gamma_norm`` and ``C_inv_norm`` are the measured inputs;
    ``delta_star``/``p_star`` the optimized shift and Young parameter;
    ``c_tilde`` the residual damping margin, ``d`` half the smaller of the
    two coercivity terms, and ``M_inner`` the interior resolvent bound.
    """

    c: float
    gamma_norm: float
    C_inv_norm: float
    delta_star: float
    p_star: float
    c_tilde: float
    d: float
    M_inner: float


@dataclass(frozen=True)
class AuditRecord:
    """Outcome of the small-frequency Neumann cover.

    ``re_range`` x ``im_range`` bounds the covered disk segment,
    ``grid_shape`` is 1 x (square centres tested in the passing pass), and
    ``max_resolvent_norm`` is the largest norm bound shown on a covered
    square, a bound on the segment: M_total itself where the Cholesky test
    proved every square, smaller where a square fell back to the SVD's
    enclosure (see :func:`~stabcert.verify._neumann_squares`).  Only a
    passed cover is recorded: a failed one raises CertificateFailure.
    """

    halvings: int
    max_resolvent_norm: float
    re_range: tuple[float, float]
    im_range: tuple[float, float]
    grid_shape: tuple[int, int]


@dataclass(frozen=True)
class ChainInputs:
    """The seven measured scalars, under their report names, that :func:`chain` takes."""

    kappa_norm: float
    c_gamma_tilde: float
    gamma_tilde_norm: float
    sigma_min_pos: float
    rank: int
    n0: int
    n1: int


@dataclass(frozen=True)
class StabilityCertificate(ChainInputs):
    """A certified half-plane abscissa with a uniform resolvent bound.

    The claim, in normalized (unit-weight) variables restricted to
    H0 x ran(coupling): Re z > -delta_cert lies in the resolvent set, and on
    Re z >= -delta_cert/2 the resolvent norm is at most M_total.  The interior
    estimate (|z| >= 2 delta*) proves M_total / kappa_norm**2 there; the
    small-frequency audit and the oracle cover hold the normalized resolvent
    to M_total itself, weaker whenever kappa_norm > 1.  ``inner`` is None
    when the coupling has rank zero (then only the kernel chain contributes);
    ``audit`` is None only on :func:`chain`'s certificate, before the audit.
    """

    delta_cert: float
    M_total: float
    working_abscissa: float
    c_eff: float
    gamma_eff: float
    kernel_bound: float
    transform_bound: float
    inner: InvertibleCaseCertificate | None
    audit: AuditRecord | None


@dataclass(frozen=True)
class PreparedProblem:
    """A system after the steps every certificate starts from.

    ``normalized`` is the unit-weight system, ``frames`` the range/kernel
    frames of its coupling ``D``, and ``B_res`` the normalized generator
    restricted to H0 x ran(D) in frame coordinates.
    """

    normalized: NormalizedSystem
    frames: HelmholtzFrames
    B_res: ComplexMatrix


@dataclass(frozen=True)
class SystemAudit:
    """A certificate together with the independent oracles that check it.

    ``cover`` is the resolvent cover of Re z >= -delta_cert/2 against
    M_total, ``trace`` the trajectory of a random admissible start,
    ``restriction_residual`` and ``frame_defect`` the two defects of
    :func:`~stabcert.verify.restriction_defects` that tie B_res to the full
    generator, and ``checks`` the verdict of each comparison between
    certificate and oracle.
    """

    certificate: StabilityCertificate
    abscissa: float
    cover: CoverReport
    trace: TrajectoryTrace
    fitted_rate: float
    projection_residual: float
    restriction_residual: float
    frame_defect: float
    checks: dict


def damping_lower_bound(
    c: float, gamma_norm: float, C_inv_norm: float, delta: float, p: float
) -> tuple[float, float]:
    """Coercivity terms of the shifted damping block.

    Returns ``(u_term, v_term)``; the Hermitian part of the shifted block
    at frequency z is bounded below by Re z + min(u_term, v_term).  The
    classical statement is ``p = 1``, for which v_term equals delta/2; the
    Young parameter p in (0, 2) trades the two terms against each other.
    """
    if not c > 0:
        raise ParameterOutOfRange(f"c must be positive, got {c!r}")
    if not delta > 0:
        raise ParameterOutOfRange(f"delta must be positive, got {delta!r}")
    if not 0 < p < 2:
        raise ParameterOutOfRange(f"p must lie in (0, 2), got {p!r}")
    if gamma_norm < 0 or C_inv_norm < 0:
        raise ParameterOutOfRange("norms must be nonnegative")
    t = (gamma_norm + delta) * C_inv_norm
    u_term = c - delta * (1.0 + t * t / (2.0 * p))
    v_term = delta * (1.0 - 0.5 * p)
    return u_term, v_term


# Young parameters stay strictly inside (0, 2).
_P_MIN, _P_MAX = float(np.finfo(float).tiny), float(np.nextafter(2.0, 0.0))
_EPS = float(np.finfo(float).eps)
_DELTA_MIN = math.ulp(0.0)  # smallest positive shift, the bisection's lower end


def _balanced_margin(
    c: float, gamma_norm: float, C_inv_norm: float, delta: float
) -> tuple[float, float, float]:
    """Best ``(d, p, u_term)`` over p at a fixed shift.

    u_term rises and v_term falls with p, so the optimum is where they are
    equal: the positive root of p**2 + 2*beta*p - t**2 = 0, with
    beta = (c - 2*delta)/delta, and there d = (c - delta*hypot(beta, t))/4.
    Each branch below is free of cancellation, and the first divides by
    hypot(beta, t) first so that no intermediate overflows.  When d is far
    below c, the computed u_term (c minus a nearly equal quantity) carries a
    rounding error larger than d, so p raised by 64 ulps, where u_term no
    longer binds, is tried as well.
    """
    t = (gamma_norm + delta) * C_inv_norm
    beta = (c - 2.0 * delta) / delta
    root = math.hypot(beta, t)
    p = t * (t / root) / (1.0 + beta / root) if beta > 0 else root - beta

    def at(q):
        q = min(max(q, _P_MIN), _P_MAX)
        u_term, v_term = damping_lower_bound(c, gamma_norm, C_inv_norm, delta, q)
        return 0.5 * min(u_term, v_term), q, u_term

    return max(at(p), at(p * (1.0 + 64.0 * _EPS)))


def optimize_shift(
    c: float, gamma_norm: float, C_inv_norm: float
) -> tuple[float, float, float, float]:
    """Maximize d = (1/2) min(u_term, v_term) over the shift delta and p.

    At the balanced p of :func:`_balanced_margin`, d = (c - sqrt(f))/4 with
    f(delta) = (c - 2 delta)**2 + delta**2 (g + delta)**2 K**2, where
    g = gamma_norm and K = C_inv_norm.  f is strictly convex on delta > 0,
    so the best shift is the one root of the increasing cubic

        f'(delta)/2 = 2 K**2 delta**3 + 3 K**2 g delta**2 + (K**2 g**2 + 4) delta - 2 c,

    which is -2c at 0 and positive at c/2.  Bisection in log delta finds it
    to the last bit.  Returns ``(delta_star, p_star, c_tilde, d)``, with
    c_tilde and d exactly as :func:`damping_lower_bound` computes them there.
    """
    if not c > 0 or not C_inv_norm > 0:
        raise DegenerateProblem(
            f"need c > 0 and C_inv_norm > 0, got c={c!r}, C_inv_norm={C_inv_norm!r}"
        )
    if not gamma_norm >= 0:
        raise ParameterOutOfRange("gamma_norm must be nonnegative")
    g, K = gamma_norm, C_inv_norm
    lo, hi = _DELTA_MIN, max(0.5 * c, _DELTA_MIN)
    while lo < (mid := math.sqrt(lo) * math.sqrt(hi)) < hi:
        # f'(mid)/4 < 0, grouped so that nothing overflows or underflows early
        if mid * (K * (g + mid)) * (K * (g + 2.0 * mid) / 4.0) < 0.5 * c - mid:
            lo = mid
        else:
            hi = mid
    delta_star, t = hi, (g + hi) * K
    if not t * t < math.inf:
        raise DegenerateProblem("((gamma_norm + delta) * C_inv_norm)**2 overflows at the optimal shift")
    d, p_star, u_term = _balanced_margin(c, g, K, delta_star)
    if not d > 0:
        raise DegenerateProblem("shift optimization produced a nonpositive margin")
    return delta_star, p_star, u_term, d


def invertible_certificate(
    c: float, gamma_norm: float, C_inv_norm: float
) -> InvertibleCaseCertificate:
    """Package the optimized shift with the interior resolvent bound."""
    delta_star, p_star, c_tilde, d = optimize_shift(c, gamma_norm, C_inv_norm)
    M_inner = (2.0 / d) * ((1.0 + gamma_norm + delta_star) * C_inv_norm + 2.0)
    return InvertibleCaseCertificate(
        c=c,
        gamma_norm=gamma_norm,
        C_inv_norm=C_inv_norm,
        delta_star=delta_star,
        p_star=p_star,
        c_tilde=c_tilde,
        d=d,
        M_inner=M_inner,
    )


def kernel_block_bound(c: float, re_z_floor: float) -> float:
    """Uniform bound 1/(re_z_floor + c) on the shifted kernel block inverse."""
    if not re_z_floor > -c:
        raise HalfPlaneViolation(
            f"floor Re z = {re_z_floor!r} must exceed -c = {-c!r}"
        )
    return 1.0 / (re_z_floor + c)


def _small_frequency_audit(
    B_res: np.ndarray, delta: float, im_half: float, M_total: float
) -> tuple[float, AuditRecord]:
    """Halve the claimed abscissa until a Neumann cover of the disk segment passes.

    The interior bound covers |z| >= im_half = 2 delta*, leaving the segment
    S = {Re z >= -delta, |z| <= im_half}.  The cover starts from the square of
    side 2 im_half with left edge Re z = -delta, and the squares that meet the
    disk are refined as in :func:`~stabcert.verify._neumann_squares`, within
    ``M_total`` and _AUDIT_EVALS evaluations; a cover that does not finish
    halves delta.  A passed cover shows S free of spectrum with norm at most
    the largest bound it records, M_total where the Cholesky test decided
    every square: then the rounding is enclosed and the cover is a proof.
    """

    def meets_disk(kids, side):
        return np.hypot(*np.maximum(np.abs([kids.real, kids.imag]) - 0.5 * side, 0.0)) <= im_half

    for halvings, delta in enumerate([delta * 0.5**k for k in range(21)]):
        centres = np.array([im_half - delta + 0j])  # covers S since delta < im_half
        passed, evals, enclosure = _neumann_squares(
            B_res, centres, 2.0 * im_half, M_total, meets_disk, _AUDIT_EVALS
        )
        if passed:
            return delta, AuditRecord(
                halvings=halvings, max_resolvent_norm=enclosure,
                re_range=(-delta, im_half), im_range=(-im_half, im_half), grid_shape=(1, evals),
            )
    raise CertificateFailure(
        f"small-frequency audit failed after 20 halvings; at -delta {-delta:.6g} the cover "
        f"stopped after {evals} evaluations without bounding the norm by {M_total:.6g}"
    )


_AUDIT_EVALS = 128  # square centres tested per pass of the small-frequency cover
# Largest restricted generator, m = n0 + rank, that prepare admits.  The audit
# and the oracle cover factor dense m x m matrices, a few dozen in practice,
# and the oracles take dense eigenvalues: with per-cell materials at N = 5
# (m = 623, admitted) audit_system takes 0.83 to 1.15 s on 2 cores, about
# 0.24 s of it in the cover's 9 centres on one BLAS thread, beside the
# abscissa's eigensolve (about 0.28 s).  A cover that runs into its cap of
# 802 centres would take about 36 s there (401 Gram and Cholesky tests of
# about 0.09 s each); N = 6 (m = 1064) is refused.
_MAX_AUDIT_DIM = 640


def refuse_oversized(n0: int) -> None:
    """Raise GridTooLarge when n0 rows alone exceed the audit limit.

    The restricted generator has at least n0 rows, so a problem file can be
    refused from the row count of its ``alpha`` before any matrix is parsed.
    """
    if n0 > _MAX_AUDIT_DIM:
        raise GridTooLarge(f"n0 = {n0} rows already exceed the audit limit {_MAX_AUDIT_DIM}")


def prepare(sys: BlockSystem) -> PreparedProblem:
    """Normalize, decompose, and build the restricted generator once.

    This is the one place that decomposes the coupling (its rank cutoff is
    fixed in :func:`~stabcert.helmholtz.decompose`); everything downstream,
    the admissible initial data included, uses the frames of ``D`` built here.

    Raises
    ------
    GridTooLarge
        If the restricted generator would have more than 640 rows, too many
        for the dense audit to finish.
    """
    refuse_oversized(sys.n0)  # m >= n0: refuse before normalizing
    ns = normalize_system(sys)
    frames = decompose(ns.D)
    m = sys.n0 + frames.r
    if m > _MAX_AUDIT_DIM:
        raise GridTooLarge(
            f"restricted generator would have {m} rows, above the audit limit {_MAX_AUDIT_DIM}"
        )
    return PreparedProblem(ns, frames, restricted_generator(ns.gamma_tilde, frames))


def measure(prep: PreparedProblem) -> ChainInputs:
    """The chain's inputs: the one step of the certificate that reads a matrix.

    Raises ZeroRangeOperator and DegenerateProblem as :func:`full_certificate`.
    """
    ns, frames = prep.normalized, prep.frames
    if frames.r == 0 and ns.n1 > 0:
        raise ZeroRangeOperator(
            "coupling operator has rank 0 but the second component space has "
            f"dimension {ns.n1}; only the damped first-component block decays"
        )
    if ns.n0 == 0:
        raise DegenerateProblem("both component spaces are empty; there is nothing to certify")
    return ChainInputs(
        kappa_norm=max(operator_norm(ns.sqrt_alpha), operator_norm(ns.sqrt_beta))
        * max(operator_norm(ns.sqrt_alpha_inv), operator_norm(ns.sqrt_beta_inv)),
        c_gamma_tilde=ns.c_gamma_tilde,
        gamma_tilde_norm=operator_norm(ns.gamma_tilde),
        sigma_min_pos=frames.sigma_min_pos,
        rank=frames.r,
        n0=ns.n0,
        n1=ns.n1,
    )


def chain(inputs: ChainInputs) -> StabilityCertificate:
    """Every constant of the certificate, a pure function of seven scalars.

    ``delta_cert`` is the abscissa before the audit halves it, if it must.
    """
    c, g, r, n0 = inputs.c_gamma_tilde, inputs.gamma_tilde_norm, inputs.rank, inputs.n0
    a0 = c / 4.0
    kern = kernel_block_bound(c, -a0) if r < n0 else 0.0  # 0.0: no kernel block
    if 0 < r < n0:
        c_eff = 0.75 * c
        gamma_eff = g + (4.0 / 3.0) * g * g / c
        transform_bound = 1.0 + (4.0 / 3.0) * g / c
    else:
        c_eff, gamma_eff, transform_bound = c, g, 1.0

    # r == 0 (so n1 == 0) leaves no invertible block: the kernel bound covers Re z > -c.
    inner = invertible_certificate(c_eff, gamma_eff, 1.0 / inputs.sigma_min_pos) if r else None
    return StabilityCertificate(
        **vars(inputs),
        delta_cert=min(a0, inner.d) if inner else a0,
        M_total=transform_bound**2 * max(inner.M_inner if inner else 0.0, kern) * inputs.kappa_norm**2,
        working_abscissa=a0,
        c_eff=c_eff,
        gamma_eff=gamma_eff,
        kernel_bound=kern,
        transform_bound=transform_bound,
        inner=inner,
        audit=None,
    )


def full_certificate(sys: BlockSystem | PreparedProblem) -> StabilityCertificate:
    """Run the whole chain: prepare, :func:`measure`, :func:`chain`, audit.

    ``sys`` is a block system, or a :class:`PreparedProblem` whose
    normalization, frames and restricted generator are reused.

    Raises
    ------
    GridTooLarge
        As :func:`prepare`.
    ZeroRangeOperator
        If the coupling has rank zero while the second component space is
        nontrivial; its dynamics then have no damping path and no product-
        space decay certificate exists.
    DegenerateProblem
        If both component spaces are empty: there is nothing to certify.
    CertificateFailure
        If no Neumann cover of the small-frequency disk segment passes
        within M_total, even after halving the claimed abscissa twenty times.
    """
    prep = sys if isinstance(sys, PreparedProblem) else prepare(sys)
    cert = chain(measure(prep))
    # The segment the interior estimate (or the kernel bound) leaves open.
    im_half = 2.0 * (cert.inner.delta_star if cert.inner else cert.delta_cert)
    delta, audit = _small_frequency_audit(prep.B_res, cert.delta_cert, im_half, cert.M_total)
    return replace(cert, delta_cert=delta, audit=audit)


def audit_system(sys: BlockSystem, *, seed: int = 0) -> SystemAudit:
    """Certify a system and check the certificate against every oracle.

    The oracles follow one fixed recipe: a cover proving the resolvent norm
    of the restricted generator at most M_total (relative slack 1e-6) on
    Re z >= -delta_cert/2, which holds both lines the sweep verdicts name;
    the defects that make a trajectory of the restricted generator the
    full generator's (at most _RESTRICTION_TOL each); the spectral abscissa
    of the restricted generator, from its eigenvalues alone; and the
    801-sample trajectory of a random admissible start drawn from ``seed``,
    from one Pade exponential and no eigenvectors, with the decay rate
    fitted to it.  ``checks`` holds one verdict per comparison.

    Every dense kernel runs on one BLAS thread (:func:`single_blas_thread`).
    For a generator of at least _OVERLAP_MIN_DIM rows on more than one CPU,
    the abscissa's eigensolve runs on a worker thread, without the
    interpreter lock, while this thread runs the certificate, the cover, the
    admissible start and the defects; the trajectory, which needs the
    abscissa, follows the join.  Results, and the error raised when a step
    fails, are those of the serial order: an error of this thread wins
    over the eigensolve's.
    """
    with single_blas_thread() as pinned:
        prep = prepare(sys)
        if pinned and prep.B_res.shape[0] >= _OVERLAP_MIN_DIM and usable_cpus() > 1:
            worker = _Worker(_unlocked_eigvals, prep.B_res)
            try:
                cert, cover, U0, residual, defects = _certify_and_start(prep, seed)
            finally:
                worker.join()
            abscissa = float(worker.result().real.max())
        else:
            cert, cover, U0, residual, defects = _certify_and_start(prep, seed)
            abscissa = spectral_abscissa(prep.B_res)
        # The rounding-level part of U0 in ker(D*) never decays; end the run
        # while the decaying part, near exp(-30), is still far above it, and
        # at t = 20 at the latest.
        t_end = 30.0 / max(-abscissa, 1.5)
        trace = restricted_simulate(prep.B_res, prep.frames, U0, t_end, 801)
        fitted = fit_decay_rate(trace)

    norms = trace.state_norms
    checks = {
        "audit_passed": bool(cert.audit.max_resolvent_norm <= cert.M_total),
        "spectral_abscissa_sound": bool(abscissa <= -cert.delta_cert + 1e-9),
        "sweep_at_zero_bounded": cover.passed,
        "sweep_at_half_bounded": cover.passed,
        "decay_at_least_certified": bool(fitted >= cert.delta_cert - 1e-6),
        "norms_non_increasing": bool(
            np.all(np.diff(norms) <= 1e-10 * max(norms[0], 1.0))
        ),
        "restriction_consistent": all(d <= _RESTRICTION_TOL for d in defects),
    }
    return SystemAudit(
        certificate=cert,
        abscissa=abscissa,
        cover=cover,
        trace=trace,
        fitted_rate=fitted,
        projection_residual=residual,
        restriction_residual=defects[0],
        frame_defect=defects[1],
        checks=checks,
    )


# Largest relative residual ||G F - F B_res|| / ||G|| and frame defect
# ||F* F - I|| (Frobenius norms) for which the trajectory computed on B_res
# counts as the full generator's.  Measured: at most 1.6e-15 and 1.7e-14 on
# the benchmark grids and the certified corpus.
_RESTRICTION_TOL = 1e-10


def _certify_and_start(prep: PreparedProblem, seed: int):
    """Every step of the audit that needs neither the abscissa nor the trajectory.

    Returns ``(certificate, cover, admissible start U0, projection residual,
    (restriction residual, frame defect))``.
    """
    cert = full_certificate(prep)
    cover = resolvent_cover(prep.B_res, cert.delta_cert / 2.0, cert.M_total * (1.0 + 1e-6))
    ns = prep.normalized
    u0, v_raw = random_components(seed, ns.n0, ns.n1)
    U0, residual = admissible_start(ns, prep.frames, u0, v_raw)
    defects = restriction_defects(ns.gamma_tilde, ns.D, prep.frames, prep.B_res)
    return cert, cover, U0, residual, defects


# Smallest restricted generator for which audit_system runs the abscissa's
# eigensolve on a worker thread.  Small kernels take microseconds, and the
# two threads then mostly hand the interpreter lock back and forth: the
# benchmark corpus (m <= 12) stays serial.  Medians of 40 interleaved pairs
# on 2 cores, serial against overlapped, on random systems: 5.4 against
# 6.8 ms at m = 16 (overlap faster in 0 pairs), 12.0 against 12.9 ms at
# m = 32 (5 pairs) and 71.6 against 70.8 ms at m = 64 (20 pairs, even); on
# the per-cell N = 3 grid (m = 133), 34.0 against 25.4 ms (39 pairs).  At
# m = 133, measured as the progress a pure-Python loop keeps beside a
# thread that runs the kernel, numpy 2.4 holds the lock in eigvals (hence
# the padded stack of _unlocked_eigvals), eigvalsh, and
# svd(compute_uv=False) of one or three matrices; it releases the lock in
# matrix products, solve, Cholesky factorizations, an SVD with vectors and
# svd(compute_uv=False) of four.  So the calling thread's cover, whose
# Grams and Cholesky tests release the lock, runs beside the eigensolve.
_OVERLAP_MIN_DIM = 64


class _Worker(threading.Thread):
    """Runs ``fn(*args)`` at once; :meth:`result` joins and returns or raises."""

    def __init__(self, fn, *args) -> None:
        # A daemon: after an interrupted join the process can still exit.
        super().__init__(name=f"stabcert-{fn.__name__}", daemon=True)
        self._call = functools.partial(fn, *args)
        self._value = self._error = None
        self.start()

    def run(self) -> None:
        try:
            self._value = self._call()
        except BaseException as exc:  # handed to the joining thread
            self._error = exc

    def result(self):
        self.join()
        if self._error is not None:
            raise self._error
        return self._value
