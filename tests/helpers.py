"""Shared random-instance generators and report checks for the test corpora."""

import math

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


# The formulas that are Python expressions of the certificate's own fields
# and give one of them.  u_term and v_term, at (delta_star, p_star), give
# c_tilde and, as 0.5*min(u_term, v_term), d.
_TOP_FORMULAS = (
    "working_abscissa", "c_eff", "gamma_eff", "kernel_bound", "transform_bound", "M_total", "delta_cert",
)


def formula_mismatches(cert: dict, formulas: dict, rel: float = 1e-12) -> dict:
    """Constants of a report's ``certificate`` that its ``formulas`` do not reproduce.

    Each formula is evaluated on the certificate's fields (those of ``inner``
    for the inner ones; outside ``inner``, c and gamma_norm are c_gamma_tilde
    and gamma_tilde_norm).  Returns ``{name: (from formula, reported)}`` for
    every constant that differs by more than ``rel`` relative.
    """
    top = dict(cert, c=cert["c_gamma_tilde"], gamma_norm=cert["gamma_tilde_norm"],
               halvings=cert["audit"]["halvings"])
    inner = cert["inner"]
    pairs = []
    if inner is not None:
        top.update(d=inner["d"], M_inner=inner["M_inner"])
        at = dict(inner, delta=inner["delta_star"], p=inner["p_star"])
        u, v = eval(formulas["u_term"], dict(at)), eval(formulas["v_term"], dict(at))
        pairs += [("c_tilde", u, inner["c_tilde"]), ("v_term", 0.5 * min(u, v), inner["d"])]
        pairs += [(k, eval(formulas[k], dict(inner)), inner[k]) for k in ("d", "M_inner")]
    pairs += [(k, eval(formulas[k], dict(top)), cert[k]) for k in _TOP_FORMULAS]
    return {k: (got, want) for k, got, want in pairs if not math.isclose(got, want, rel_tol=rel)}
