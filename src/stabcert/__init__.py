"""Exponential-stability certificates for damped Maxwell-type block systems.

The package certifies decay of finite-dimensional evolution systems

    d/dt diag(alpha, beta) (u, v) + [[gamma, 0], [0, 0]] (u, v)
                                  + [[0, -C*], [C, 0]] (u, v) = 0

through a constructive chain (weight normalization, Helmholtz-type
range/kernel splitting, Schur-complement decoupling, shifted-variable
resolvent bounds) and audits every certified constant against independent
spectral, resolvent-cover, and time-domain oracles.
"""

from .errors import (
    CertificateFailure,
    DegenerateProblem,
    DegenerateShift,
    DimensionMismatch,
    GridTooLarge,
    HalfPlaneViolation,
    NotCoercive,
    NotHermitian,
    NotInvertible,
    NotPositiveDefinite,
    ParameterOutOfRange,
    Singular,
    SingularBlock,
    SingularKernelBlock,
    SingularReducedBlock,
    StabcertError,
    TooFewSamples,
    Underflow,
    ZeroFrequency,
    ZeroRangeOperator,
)
from .model import (
    BlockSystem,
    assemble_generator,
    hermitian_min_eig,
    operator_norm,
    validate_system,
)
from .normalize import map_state, normalize_system, sqrt_factor
from .helmholtz import (
    decompose,
    decoupled_solve,
    decoupling_transforms,
    restricted_generator,
    three_block_form,
)
from .certificate import (
    FORMULAS,
    audit_system,
    damping_lower_bound,
    full_certificate,
    invertible_certificate,
    kernel_block_bound,
    optimize_shift,
)
from .verify import (
    TrajectoryTrace,
    admissible_initial,
    block_inverse,
    change_of_variables_residual,
    check_m_dissipative,
    fit_decay_rate,
    gp_sweep,
    resolvent_norm,
    simulate,
    spectral_abscissa,
)
from .maxwell import (
    GridSpec,
    build_curl,
    build_maxwell_system,
)

__version__ = "0.1.0"

__all__ = [
    "BlockSystem",
    "TrajectoryTrace",
    "GridSpec",
    "FORMULAS",
    "validate_system",
    "hermitian_min_eig",
    "operator_norm",
    "sqrt_factor",
    "normalize_system",
    "map_state",
    "decompose",
    "three_block_form",
    "restricted_generator",
    "decoupling_transforms",
    "decoupled_solve",
    "damping_lower_bound",
    "optimize_shift",
    "invertible_certificate",
    "kernel_block_bound",
    "full_certificate",
    "audit_system",
    "assemble_generator",
    "check_m_dissipative",
    "resolvent_norm",
    "gp_sweep",
    "spectral_abscissa",
    "simulate",
    "fit_decay_rate",
    "admissible_initial",
    "block_inverse",
    "change_of_variables_residual",
    "build_curl",
    "build_maxwell_system",
    "StabcertError",
    "DimensionMismatch",
    "NotHermitian",
    "NotCoercive",
    "NotPositiveDefinite",
    "HalfPlaneViolation",
    "SingularKernelBlock",
    "SingularReducedBlock",
    "ParameterOutOfRange",
    "DegenerateProblem",
    "ZeroRangeOperator",
    "CertificateFailure",
    "Singular",
    "Underflow",
    "TooFewSamples",
    "ZeroFrequency",
    "DegenerateShift",
    "NotInvertible",
    "SingularBlock",
    "GridTooLarge",
]
