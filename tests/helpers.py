"""Shared random-instance generators for the test corpora."""

import numpy as np

import stabcert as sc


def haar_unitary(rng, n):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def random_hermitian_pd(rng, n, lo=0.5, hi=3.0):
    Q = haar_unitary(rng, n)
    return Q @ np.diag(rng.uniform(lo, hi, n)) @ Q.conj().T


def random_skew(rng, n, scale=1.0):
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (S - S.conj().T)


def random_coercive(rng, n, c=0.3, spread=2.0, skew=0.5):
    """Matrix whose Hermitian part has eigenvalues in [c, c + spread]."""
    Q = haar_unitary(rng, n)
    H = Q @ np.diag(rng.uniform(c, c + spread, n)) @ Q.conj().T
    return H + random_skew(rng, n, skew)


def random_rank_matrix(rng, n1, n0, r):
    """Random n1 x n0 matrix of rank exactly r (zero matrix for r = 0)."""
    if r == 0:
        return np.zeros((n1, n0), dtype=complex)
    A = rng.standard_normal((n1, r)) + 1j * rng.standard_normal((n1, r))
    B = rng.standard_normal((r, n0)) + 1j * rng.standard_normal((r, n0))
    return A @ B


def random_block_system(rng, n0, n1, r, c_gamma=0.3, identity_weights=False):
    if identity_weights:
        alpha, beta = np.eye(n0), np.eye(n1)
    else:
        alpha = random_hermitian_pd(rng, n0)
        beta = random_hermitian_pd(rng, n1)
    gamma = random_coercive(rng, n0, c=c_gamma)
    C = random_rank_matrix(rng, n1, n0, r)
    return sc.validate_system(alpha, beta, gamma, C)


def assemble_shifted(gamma, D, z):
    """The full shifted operator z I + [[gamma, 0], [0, 0]] + [[0, -D*], [D, 0]]."""
    n0 = gamma.shape[0]
    n1 = D.shape[0]
    Bz = z * np.eye(n0 + n1, dtype=complex)
    Bz[:n0, :n0] += gamma
    Bz[:n0, n0:] -= D.conj().T
    Bz[n0:, :n0] += D
    return Bz


def random_real_block_system(rng, n0, n1, r, c_gamma=0.3):
    """A random system whose four blocks are real: symmetric weights, real gamma and C.

    The r nonzero singular values of C lie in [0.5, 2], so the certificate's
    constants are well conditioned; near a rank drop they are not, and two
    correct computations of a near-zero abscissa agree only to rounding
    relative to ||B||.
    """

    def orthogonal(n):
        return np.linalg.qr(rng.standard_normal((n, n)))[0]

    def spd(n):
        Q = orthogonal(n)
        return Q @ np.diag(rng.uniform(0.5, 3.0, n)) @ Q.T

    Q = orthogonal(n0)
    S = rng.standard_normal((n0, n0))
    gamma = Q @ np.diag(rng.uniform(c_gamma, c_gamma + 2.0, n0)) @ Q.T + 0.25 * (S - S.T)
    C = orthogonal(n1)[:, :r] @ np.diag(rng.uniform(0.5, 2.0, r)) @ orthogonal(n0)[:, :r].T
    return sc.validate_system(spd(n0), spd(n1), gamma, C)
