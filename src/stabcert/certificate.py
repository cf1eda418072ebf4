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
  not reach, must hold no spectrum; the resolvent norm is subharmonic
  there, so it is checked by explicit resolvent evaluation on the segment's
  left edge Re z = -delta only.  On failure the certified abscissa is
  halved and the check repeats.

:func:`full_certificate` and :func:`audit_system`, which adds the oracle
checks, share one :func:`prepare` of the system.

All norms entering the formulas are measured from the matrices, never
taken from user input.  The certified abscissa refers to the semigroup in
normalized (unit-weight) variables restricted to H0 x ran(coupling); the
factor ``kappa_norm**2`` in ``M_total`` covers mapping the bound back to
the original variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    ResolventSweepReport,
    TrajectoryTrace,
    _resolvent_norms,
    admissible_start,
    assemble_generator,
    fit_decay_rate,
    gp_sweep,
    random_components,
    simulate,
    spectral_abscissa,
)

__all__ = [
    "InvertibleCaseCertificate",
    "AuditRecord",
    "StabilityCertificate",
    "PreparedProblem",
    "SystemAudit",
    "FORMULAS",
    "damping_lower_bound",
    "optimize_shift",
    "invertible_certificate",
    "kernel_block_bound",
    "prepare",
    "full_certificate",
    "audit_system",
]

# Exact formulas behind every reported constant, for hand re-derivation.
FORMULAS = {
    "u_term": "c - delta*(1 + ((gamma_norm + delta)*C_inv_norm)**2 / (2*p))",
    "v_term": "delta*(1 - p/2)",
    "c_tilde": "u_term evaluated at (delta_star, p_star)",
    "d": "0.5*min(c_tilde, delta_star*(1 - p_star/2))",
    "M_inner": "(2/d)*((1 + gamma_norm + delta_star)*C_inv_norm + 2)",
    "working_abscissa": "c/4",
    "c_eff": "3*c/4 if a kernel block is present else c",
    "gamma_eff": "gamma_norm + (4/3)*gamma_norm**2/c if a kernel block is present else gamma_norm",
    "kernel_bound": "1/(c - working_abscissa) = 4/(3*c)",
    "transform_bound": "1 + (4/3)*gamma_norm/c if a kernel block is present else 1",
    "kappa_norm": "max(||sqrt_alpha||, ||sqrt_beta||) * max(||sqrt_alpha_inv||, ||sqrt_beta_inv||)",
    "delta_cert": "min(working_abscissa, d) / 2**halvings",
    "M_total": "transform_bound**2 * max(M_inner, kernel_bound) * kappa_norm**2",
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
    """Outcome of the small-frequency resolvent check.

    The nodes lie on the edge Re z = -delta (``re_range`` holds -delta
    twice, ``grid_shape`` is 1 x points) with Im z in ``im_range``.
    """

    passed: bool
    halvings: int
    max_resolvent_norm: float
    singular_hits: int
    re_range: tuple[float, float]
    im_range: tuple[float, float]
    grid_shape: tuple[int, int]


@dataclass(frozen=True)
class StabilityCertificate:
    """A certified half-plane abscissa with a uniform resolvent bound.

    The claim: the open half-plane Re z > -delta_cert lies in the
    resolvent set of the normalized generator restricted to
    H0 x ran(coupling), and on Re z >= -delta_cert/2 the resolvent norm is
    at most M_total.  ``inner`` is None when the coupling has rank zero
    (then only the kernel chain contributes).
    """

    delta_cert: float
    M_total: float
    working_abscissa: float
    c_eff: float
    gamma_eff: float
    kernel_bound: float
    transform_bound: float
    kappa_norm: float
    c_gamma_tilde: float
    gamma_tilde_norm: float
    sigma_min_pos: float
    rank: int
    n0: int
    n1: int
    inner: InvertibleCaseCertificate | None
    audit: AuditRecord


@dataclass(frozen=True)
class PreparedProblem:
    """A system after the steps every certificate starts from.

    ``normalized`` is the unit-weight system, ``frames`` the range/kernel
    frames of its coupling ``D``, ``B_res`` the normalized generator
    restricted to H0 x ran(D) in frame coordinates, and ``abscissa`` the
    largest real part of its spectrum.
    """

    normalized: NormalizedSystem
    frames: HelmholtzFrames
    B_res: ComplexMatrix
    abscissa: float


@dataclass(frozen=True)
class SystemAudit:
    """A certificate together with the independent oracles that check it.

    ``sweeps`` are the resolvent sweeps at Re z = 0 and -delta_cert/2,
    ``trace`` the trajectory of a random admissible start, and ``checks``
    the verdict of each comparison between certificate and oracle.
    """

    certificate: StabilityCertificate
    abscissa: float
    sweeps: tuple[ResolventSweepReport, ResolventSweepReport]
    trace: TrajectoryTrace
    fitted_rate: float
    projection_residual: float
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
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _balanced_margin(
    c: float, gamma_norm: float, C_inv_norm: float, delta: float
) -> tuple[float, float, float]:
    """Best ``(d, p, u_term)`` over p at a fixed shift.

    u_term rises and v_term falls with p, so the optimum is the positive
    root of delta*p**2 + 2*(c - 2*delta)*p - delta*t**2 = 0, where they are
    equal; each branch below is free of cancellation.  When d is far below
    c, the computed u_term (c minus a nearly equal quantity) carries a
    rounding error larger than d, so p raised by 64 ulps, where u_term no
    longer binds, is tried as well.
    """
    t = (gamma_norm + delta) * C_inv_norm
    b, y = c - 2.0 * delta, delta * t
    # sqrt(b*b + y*y) on operands scaled by a power of two: no overflow, and
    # since the scaling is exact, the plain formula's bits wherever it works.
    e = math.frexp(max(abs(b), y))[1]
    bs, ys = math.ldexp(b, -e), math.ldexp(y, -e)
    root = math.ldexp(math.sqrt(bs * bs + ys * ys), e)
    p = delta * t * t / (b + root) if b > 0 else (root - b) / delta

    def at(q):
        q = min(max(q, _P_MIN), _P_MAX)
        u_term, v_term = damping_lower_bound(c, gamma_norm, C_inv_norm, delta, q)
        return 0.5 * min(u_term, v_term), q, u_term

    return max(at(p), at(p * (1.0 + 64.0 * _EPS)))


def optimize_shift(
    c: float, gamma_norm: float, C_inv_norm: float
) -> tuple[float, float, float, float]:
    """Maximize d = (1/2) min(u_term, v_term) over the shift delta and p.

    For each delta the best p is a closed-form root (see _balanced_margin).
    u_term can be positive only below the root delta_hi of
    delta*(1 + t**2/4) = c, and ``ceiling`` below is within a factor 3
    above delta_hi.  The margin at delta_hi/2, p = 3/2 is at least
    delta_hi/16 and every margin is below delta/2, so the best delta lies
    in (ceiling/24, ceiling).  Every positive superlevel set of the margin
    as a function of delta is an interval, so it is unimodal; it is still
    bracketed on a coarse log grid before a golden-section search in
    log delta.  Returns ``(delta_star, p_star, c_tilde, d)``, with c_tilde
    and d exactly as :func:`damping_lower_bound` computes them there.
    """
    if not c > 0 or not C_inv_norm > 0:
        raise DegenerateProblem(
            f"need c > 0 and C_inv_norm > 0, got c={c!r}, C_inv_norm={C_inv_norm!r}"
        )
    if not gamma_norm >= 0:
        raise ParameterOutOfRange("gamma_norm must be nonnegative")
    gK = gamma_norm * C_inv_norm
    ceiling = min(c / (1.0 + 0.25 * gK * gK), (4.0 * c) ** (1 / 3) / C_inv_norm ** (2 / 3))
    if not ceiling > 0:
        raise DegenerateProblem("no positive shift keeps u_term positive")

    def margin(x):
        return _balanced_margin(c, gamma_norm, C_inv_norm, math.exp(x))[0]

    xs = [math.log(ceiling) - 0.25 * math.log(2.0) * k for k in range(20, -1, -1)]
    values = [margin(x) for x in xs]
    i = max(range(len(xs)), key=values.__getitem__)
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    x1, x2 = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)
    f1, f2 = margin(x1), margin(x2)
    while b - a > 1e-10:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = margin(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = margin(x1)
    delta_star = math.exp(max((values[i], xs[i]), (f1, x1), (f2, x2))[1])
    d, p_star, u_term = _balanced_margin(c, gamma_norm, C_inv_norm, delta_star)
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
    B_res: np.ndarray, abscissa: float, delta: float, im_half: float, M_total: float
) -> tuple[float, AuditRecord]:
    """Halve the claimed abscissa until the small-frequency check passes.

    The interior bound covers |z| >= im_half = 2 delta*, leaving the disk
    segment S = {Re z >= -delta, |z| <= im_half}, the strip 0 < Re z
    included.  Once the spectrum of ``B_res`` (largest real part
    ``abscissa``) lies strictly left of Re z = -delta, the resolvent norm is
    subharmonic near S, so its maximum over S is taken on the boundary: the
    arc |z| = im_half, which the interior bound covers, and the chord of S
    on Re z = -delta.  The check passes when the spectrum is that far left
    and the resolvent at 41 equally spaced nodes of the edge Re z = -delta,
    |Im z| <= im_half stays within ``M_total`` with no singular node.  The
    nodes are samples; nothing bounds the norm between them.  Their norms
    come from the dense SVD, not from the oracle sweeps' Lanczos engine,
    whose Ritz values bound the norm from below: the lenient side for a
    certificate.  Returns the certified abscissa and the audit record.
    """
    max_norm, singular = math.nan, 0
    for halvings in range(21):
        if halvings:
            delta *= 0.5
        if not abscissa < -delta:
            continue
        lambdas = np.linspace(-im_half, im_half, _AUDIT_POINTS)
        norms, hits = _resolvent_norms(B_res, -delta + 1j * lambdas)
        singular = int(hits.sum())
        max_norm = float(norms[~hits].max()) if singular < _AUDIT_POINTS else math.inf
        if singular == 0 and max_norm <= M_total:
            return delta, AuditRecord(
                passed=True, halvings=halvings, max_resolvent_norm=max_norm, singular_hits=0,
                re_range=(-delta, -delta), im_range=(-im_half, im_half),
                grid_shape=(1, _AUDIT_POINTS),
            )
    raise CertificateFailure(
        "small-frequency audit failed after 20 halvings; spectral abscissa "
        f"{abscissa:.6g} vs -delta {-delta:.6g}, last edge max {max_norm:.6g} "
        f"vs bound {M_total:.6g}, {singular} singular edge points"
    )


# Nodes on the edge Re z = -delta of the small-frequency audit.
_AUDIT_POINTS = 41
# Largest restricted generator, m = n0 + rank, that prepare admits.  The audit
# takes 41 dense m x m SVDs.  The two oracle sweeps take 2*401 more unless
# inverse Lanczos converges within m // 8 steps; with per-cell materials
# (nonscalar damping) it does not, and N = 5 (m = 623, admitted) takes two
# minutes, five times that per SVD at m = 1064 (N = 6, refused).
_MAX_AUDIT_DIM = 640


def prepare(sys: BlockSystem) -> PreparedProblem:
    """Normalize, decompose, and build the restricted generator once.

    This is the one place that decomposes the coupling (its rank cutoff is
    fixed in :func:`~stabcert.helmholtz.decompose`); everything downstream,
    the admissible initial data included, uses the frames of ``D`` built here.

    Raises
    ------
    ZeroRangeOperator
        If the coupling has rank zero while the second component space is
        nontrivial; its dynamics then have no damping path and no product-
        space decay certificate exists.
    GridTooLarge
        If the restricted generator would have more than 640 rows, too many
        for the dense audit to finish.
    """
    ns = normalize_system(sys)
    frames = decompose(ns.D)
    if frames.r == 0 and sys.n1 > 0:
        raise ZeroRangeOperator(
            "coupling operator has rank 0 but the second component space has "
            f"dimension {sys.n1}; only the damped first-component block decays"
        )
    m = sys.n0 + frames.r
    if m > _MAX_AUDIT_DIM:
        raise GridTooLarge(
            f"restricted generator would have {m} rows, above the audit limit {_MAX_AUDIT_DIM}"
        )
    B_res = restricted_generator(ns.gamma_tilde, frames)
    return PreparedProblem(ns, frames, B_res, spectral_abscissa(B_res))


def full_certificate(sys: BlockSystem | PreparedProblem) -> StabilityCertificate:
    """Run the whole chain: normalize, decompose, optimize, audit.

    ``sys`` is a block system, or a :class:`PreparedProblem` whose
    normalization, frames and restricted generator are reused.

    Raises
    ------
    ZeroRangeOperator, GridTooLarge
        As :func:`prepare`.
    CertificateFailure
        If the small-frequency audit (spectrum left of -delta, resolvent
        on the edge Re z = -delta within M_total) cannot be satisfied
        even after halving the claimed abscissa twenty times.
    """
    prep = sys if isinstance(sys, PreparedProblem) else prepare(sys)
    ns, frames = prep.normalized, prep.frames
    r, n0, n1 = frames.r, ns.n0, ns.n1

    c = ns.c_gamma_tilde
    g = operator_norm(ns.gamma_tilde)
    kappa_norm = max(
        operator_norm(ns.sqrt_alpha), operator_norm(ns.sqrt_beta)
    ) * max(operator_norm(ns.sqrt_alpha_inv), operator_norm(ns.sqrt_beta_inv))

    a0 = c / 4.0
    kern = kernel_block_bound(c, -a0) if r < n0 else 0.0  # 0.0: no kernel block
    if 0 < r < n0:
        c_eff = 0.75 * c
        gamma_eff = g + (4.0 / 3.0) * g * g / c
        transform_bound = 1.0 + (4.0 / 3.0) * g / c
    else:
        c_eff, gamma_eff, transform_bound = c, g, 1.0

    if r >= 1:
        inner = invertible_certificate(c_eff, gamma_eff, frames.C_tilde_inv_norm)
        M_total = transform_bound**2 * max(inner.M_inner, kern) * kappa_norm**2
        delta0 = min(a0, inner.d)
        im_half = 2.0 * inner.delta_star
    else:
        # r == 0 and n1 == 0: pure damped first-component dynamics.  The
        # kernel-block bound covers every frequency with Re z > -c, so the
        # audit has no gap to close.
        inner = None
        M_total = kern * kappa_norm**2
        delta0 = a0
        im_half = 2.0 * delta0

    delta, audit = _small_frequency_audit(prep.B_res, prep.abscissa, delta0, im_half, M_total)
    return StabilityCertificate(
        delta_cert=delta,
        M_total=M_total,
        working_abscissa=a0,
        c_eff=c_eff,
        gamma_eff=gamma_eff,
        kernel_bound=kern,
        transform_bound=transform_bound,
        kappa_norm=kappa_norm,
        c_gamma_tilde=c,
        gamma_tilde_norm=g,
        sigma_min_pos=frames.sigma_min_pos,
        rank=r,
        n0=n0,
        n1=n1,
        inner=inner,
        audit=audit,
    )


def audit_system(
    sys: BlockSystem,
    *,
    seed: int = 0,
    t_end: float = 20.0,
    samples: int = 801,
    lambda_max: float = 50.0,
    points: int = 401,
) -> SystemAudit:
    """Certify a system and check the certificate against every oracle.

    The oracles: the spectral abscissa of the restricted generator, its
    resolvent sweeps along Re z = 0 and -delta_cert/2 (``points``
    frequencies in [-lambda_max, lambda_max]), and the decay rate fitted to
    the trajectory of a random admissible start drawn from ``seed``.
    ``checks`` holds one verdict per comparison.
    """
    prep = prepare(sys)
    ns = prep.normalized
    cert = full_certificate(prep)
    sweeps = tuple(
        gp_sweep(prep.B_res, a, lambda_max, points) for a in (0.0, -cert.delta_cert / 2.0)
    )

    u0, v_raw = random_components(seed, sys.n0, sys.n1)
    U0, residual = admissible_start(ns, prep.frames, u0, v_raw)

    # The rounding-level part of U0 in ker(D*) never decays; end the run
    # while the decaying part, near exp(-30), is still far above it.
    t_end = min(t_end, 30.0 / max(-prep.abscissa, 0.25))
    trace = simulate(assemble_generator(ns.gamma_tilde, ns.D), U0, t_end, samples)
    fitted = fit_decay_rate(trace)

    bound = cert.M_total * (1.0 + 1e-6)
    at_zero, at_half = (s.n_singular == 0 and s.max_norm <= bound for s in sweeps)
    norms = trace.state_norms
    checks = {
        "audit_passed": bool(cert.audit.passed),
        "spectral_abscissa_sound": bool(prep.abscissa <= -cert.delta_cert + 1e-9),
        "sweep_at_zero_bounded": bool(at_zero),
        "sweep_at_half_bounded": bool(at_half),
        "decay_at_least_certified": bool(fitted >= cert.delta_cert - 1e-6),
        "norms_non_increasing": bool(
            np.all(np.diff(norms) <= 1e-10 * max(norms[0], 1.0))
        ),
    }
    return SystemAudit(
        certificate=cert,
        abscissa=prep.abscissa,
        sweeps=sweeps,
        trace=trace,
        fitted_rate=fitted,
        projection_residual=residual,
        checks=checks,
    )
