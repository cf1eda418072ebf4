"""Abstract Helmholtz decomposition and frequency-wise block decoupling.

For a coupling matrix C : H0 -> H1 the orthogonal splittings

    H1 = ran(C) (+) ker(C*),    H0 = ran(C*) (+) ker(C)

are computed from a singular value decomposition: left singular vectors of
nonzero / zero singular values span ran(C) / ker(C*), right singular
vectors span ran(C*) / ker(C).  Orthonormality and the closed-range
constant (the smallest nonzero singular value) come for free.

In the frame coordinates (iota0* u, iota1* v, kappa0* u) the shifted
operator z - B becomes a three-block matrix whose coupling rows involve
only the invertible restriction C_tilde = iota1* C iota0.  Two unipotent
transforms decouple it into a two-by-two block with a Schur-complement
damping term and a scalar-type kernel block; both transforms and their
inverses carry explicit norm bounds on the half-plane Re z > -c.  The
two-by-two block is again a generator, [[-gamma1(z), C_tilde*],
[-C_tilde, 0]], built by :func:`~stabcert.model.assemble_generator`.

All frequency-dependent objects are built per call and never cached: each
costs one small inverse and a few products next to the SVD of
:func:`decompose`, and a cache keyed on z invites staleness bugs.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    HalfPlaneViolation,
    ParameterOutOfRange,
    SingularKernelBlock,
    SingularReducedBlock,
)
from .model import ComplexMatrix, as_matrix, assemble_generator
from .normalize import NormalizedSystem

__all__ = [
    "HelmholtzFrames",
    "DecoupledBlocks",
    "decompose",
    "three_block_form",
    "restricted_generator",
    "frame_embedding",
    "decoupling_transforms",
    "decoupled_solve",
]


@dataclass(frozen=True)
class HelmholtzFrames:
    """Orthonormal bases for the range/kernel splittings of C.

    Attributes
    ----------
    iota0 : n0 x r, columns span ran(C*).
    kappa0 : n0 x (n0 - r), columns span ker(C).
    iota1 : n1 x r, columns span ran(C).
    kappa1 : n1 x (n1 - r), columns span ker(C*).
    r : numerical rank of C.
    sigma_min_pos : smallest nonzero singular value (0.0 when r == 0);
        the quantitative closed-range constant.
    C_tilde : the invertible r x r restriction iota1* C iota0.
    """

    iota0: ComplexMatrix
    kappa0: ComplexMatrix
    iota1: ComplexMatrix
    kappa1: ComplexMatrix
    r: int
    sigma_min_pos: float
    C_tilde: ComplexMatrix

    @property
    def n0(self) -> int:
        return self.iota0.shape[0]

    @property
    def n1(self) -> int:
        return self.iota1.shape[0]


@dataclass(frozen=True)
class DecoupledBlocks:
    """Frequency-dependent decoupling data at a fixed z.

    ``gamma1_z`` is the Schur-complement damping block
    iota0* g iota0 - iota0* g kappa0 (z + kappa0* g kappa0)^-1 kappa0* g iota0,
    ``gamma2`` the frequency-independent kernel block kappa0* g kappa0 and
    ``kernel_inv`` the inverse of the shifted kernel block z + gamma2.
    ``T1``/``T2`` are the unipotent decoupling transforms with their exact
    inverses (the off-diagonal blocks are nilpotent, so inversion flips a
    sign).
    """

    z: complex
    gamma1_z: ComplexMatrix
    gamma2: ComplexMatrix
    kernel_inv: ComplexMatrix
    T1: ComplexMatrix
    T1_inv: ComplexMatrix
    T2: ComplexMatrix
    T2_inv: ComplexMatrix


_EPS = float(np.finfo(float).eps)


def decompose(C) -> HelmholtzFrames:
    """Compute the range/kernel frames of a coupling matrix.

    The numerical rank counts singular values at or above
    ``max(n0, n1) * eps * sigma_max``, the rounding level of the SVD itself.
    A singular value the SVD can resolve at all is kept, so a weak coupling
    is never dropped from the range: if it is too weak to damp, the
    certificate fails instead of claiming decay for modes it couples away.
    Ties resolve into the range.  A zero matrix yields r = 0 with identity
    kernel frames and an empty invertible block.
    """
    C = as_matrix(C, "C")
    n1, n0 = C.shape

    U, s, Vh = np.linalg.svd(C)
    if s.size and not np.isfinite(s[0]):
        raise ParameterOutOfRange("the largest singular value of C overflows")
    r = int(np.count_nonzero(s >= max(n0, n1) * _EPS * s[0])) if s.size and s[0] > 0 else 0
    V = Vh.conj().T
    iota1 = U[:, :r]
    kappa1 = U[:, r:]
    iota0 = V[:, :r]
    kappa0 = V[:, r:]
    C_tilde = iota1.conj().T @ C @ iota0
    sigma_min_pos = float(s[r - 1]) if r else 0.0

    return HelmholtzFrames(
        iota0=iota0,
        kappa0=kappa0,
        iota1=iota1,
        kappa1=kappa1,
        r=r,
        sigma_min_pos=sigma_min_pos,
        C_tilde=C_tilde,
    )


def _gamma_blocks(gamma, frames: HelmholtzFrames):
    gamma = as_matrix(gamma, "gamma")
    n0 = frames.n0
    if gamma.shape != (n0, n0):
        raise DimensionMismatch(f"gamma must be {n0} x {n0}, got {gamma.shape}")
    i0, k0 = frames.iota0, frames.kappa0
    G00 = i0.conj().T @ gamma @ i0
    G0k = i0.conj().T @ gamma @ k0
    Gk0 = k0.conj().T @ gamma @ i0
    Gkk = k0.conj().T @ gamma @ k0
    return G00, G0k, Gk0, Gkk


def three_block_form(gamma, frames: HelmholtzFrames, z) -> ComplexMatrix:
    """The shifted operator in frame coordinates (iota0* u, iota1* v, kappa0* u).

    Returns the (n0 + r) square matrix

        z I + [[G00, 0, G0k], [0, 0, 0], [Gk0, 0, Gkk]]
            + [[0, -C_tilde*, 0], [C_tilde, 0, 0], [0, 0, 0]]

    where Gxy are the frame blocks of gamma.  Applying this matrix to the
    projected coordinates of (u, v) with v in ran(C) reproduces the
    projections of (z + damping + coupling)(u, v).
    """
    z = complex(z)
    G00, G0k, Gk0, Gkk = _gamma_blocks(gamma, frames)
    r, n0 = frames.r, frames.n0
    m = n0 + r
    Ct = frames.C_tilde
    M = np.zeros((m, m), dtype=complex if z else np.result_type(G00, Ct))
    M[:r, :r] = G00
    M[:r, r : 2 * r] = -Ct.conj().T
    M[:r, 2 * r :] = G0k
    M[r : 2 * r, :r] = Ct
    M[2 * r :, :r] = Gk0
    M[2 * r :, 2 * r :] = Gkk
    if z:
        M += z * np.eye(m)
    return M


def restricted_generator(gamma, frames: HelmholtzFrames) -> ComplexMatrix:
    """Generator of the semigroup restricted to H0 x ran(C), in frame coordinates."""
    return -three_block_form(gamma, frames, 0.0)


def frame_embedding(frames: HelmholtzFrames) -> ComplexMatrix:
    """The embedding F of frame coordinates (iota0* u, iota1* v, kappa0* u) into H0 x H1.

    F is the (n0 + n1) x (n0 + r) matrix [[iota0, 0, kappa0], [0, iota1, 0]],
    so F* F = I, and the generator G of :func:`~stabcert.model.assemble_generator`
    satisfies G F = F B_res for B_res = :func:`restricted_generator`.
    """
    n0, r = frames.n0, frames.r
    F = np.zeros((n0 + frames.n1, n0 + r), dtype=np.result_type(frames.iota0, frames.iota1))
    F[:n0, :r] = frames.iota0
    F[n0:, r : 2 * r] = frames.iota1
    F[:n0, 2 * r :] = frames.kappa0
    return F


def decoupling_transforms(gamma, frames: HelmholtzFrames, z, c: float) -> DecoupledBlocks:
    """Assemble the Schur block and the decoupling transforms at frequency z.

    Requires a finite z with Re z > -c, where c is the coercivity constant
    of gamma, so that the shifted kernel block z + kappa0* gamma kappa0 is
    invertible with norm of the inverse at most 1 / (Re z + c).
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ParameterOutOfRange(f"z must be finite, got {z!r}")
    if not z.real > -c:
        raise HalfPlaneViolation(f"Re z = {z.real:.6g} is not > -c = {-c:.6g}")
    G00, G0k, Gk0, Gkk = _gamma_blocks(gamma, frames)
    r, n0 = frames.r, frames.n0
    nk = n0 - r
    m = n0 + r

    S = z * np.eye(nk) + Gkk
    try:
        S_inv = np.linalg.inv(S)
    except np.linalg.LinAlgError as exc:
        raise SingularKernelBlock(f"kernel block singular at z = {z}") from exc

    coupling_right = G0k @ S_inv          # r x nk
    coupling_left = S_inv @ Gk0           # nk x r
    gamma1_z = G00 - coupling_right @ Gk0

    T1 = np.eye(m, dtype=complex)
    T1[:r, 2 * r :] = -coupling_right
    T1_inv = np.eye(m, dtype=complex)
    T1_inv[:r, 2 * r :] = coupling_right

    T2 = np.eye(m, dtype=complex)
    T2[2 * r :, :r] = -coupling_left
    T2_inv = np.eye(m, dtype=complex)
    T2_inv[2 * r :, :r] = coupling_left

    return DecoupledBlocks(
        z=z,
        gamma1_z=gamma1_z,
        gamma2=Gkk,
        kernel_inv=S_inv,
        T1=T1,
        T1_inv=T1_inv,
        T2=T2,
        T2_inv=T2_inv,
    )


# Largest back-substituted residual of decoupled_solve, relative to ||F||.
_SOLVE_TOL = 1e-10


def decoupled_solve(ns: NormalizedSystem, frames: HelmholtzFrames, z, F) -> np.ndarray:
    """Solve (z + damping + coupling)(u, v) = F through the decoupled blocks.

    ``F`` is a stacked vector (f, g) of length n0 + n1 whose second
    component must lie in ran(C); the returned (u, v) has v in ran(C) and
    satisfies the original shifted equation to 1e-10 relative to ||F||.

    Raises
    ------
    HalfPlaneViolation
        If Re z <= -c for the measured coercivity c of gamma.
    SingularReducedBlock
        If z is (numerically) in the spectrum of the reduced block, or the
        back-substituted residual exceeds 1e-10 relative to ||F||.
    ValueError
        If the second component of F leaves ran(C).
    """
    z = complex(z)
    n0, n1, r = frames.n0, frames.n1, frames.r
    F = np.asarray(F, dtype=complex)
    if F.shape != (n0 + n1,):
        raise DimensionMismatch(f"F must have length {n0 + n1}, got {F.shape}")
    f, g = F[:n0], F[n0:]

    g_norm = float(np.linalg.norm(g))
    if g_norm > 0.0:
        out_of_range = float(np.linalg.norm(frames.kappa1.conj().T @ g))
        if out_of_range > 1e-8 * g_norm:
            raise ValueError(
                "second component of F must lie in ran(C); "
                f"kernel residual {out_of_range:.3e} vs norm {g_norm:.3e}"
            )

    blocks = decoupling_transforms(ns.gamma_tilde, frames, z, ns.c_gamma_tilde)

    b = np.concatenate(
        [frames.iota0.conj().T @ f, frames.iota1.conj().T @ g, frames.kappa0.conj().T @ f]
    )
    Fp = blocks.T1 @ b

    M2 = z * np.eye(2 * r) - assemble_generator(blocks.gamma1_z, frames.C_tilde)
    try:
        U12 = np.linalg.solve(M2, Fp[: 2 * r])
    except np.linalg.LinAlgError as exc:
        raise SingularReducedBlock(f"reduced block singular at z = {z}") from exc
    U3 = blocks.kernel_inv @ Fp[2 * r :]

    x = blocks.T2 @ np.concatenate([U12, U3])
    u = frames.iota0 @ x[:r] + frames.kappa0 @ x[2 * r :]
    v = frames.iota1 @ x[r : 2 * r]
    UV = np.concatenate([u, v])

    # Back-substituted residual against the full shifted operator.
    Bz = z * np.eye(n0 + n1) - assemble_generator(ns.gamma_tilde, ns.D)
    residual = float(np.linalg.norm(Bz @ UV - F))
    if residual > _SOLVE_TOL * max(float(np.linalg.norm(F)), 1e-300):
        raise SingularReducedBlock(
            f"solution residual {residual:.3e} exceeds tolerance at z = {z}"
        )
    return UV
