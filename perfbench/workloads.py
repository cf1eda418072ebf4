"""Problem generation and the benchmark's own spectral oracle.

Every workload is a list of :class:`Problem` objects made from the run seed.
The program only ever sees the problem files written from them; the
matrices kept here feed the benchmark's independent correctness check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stabcert import maxwell

CORPUS_SEED = 20260810
CORPUS_SIZE = 200
MAXWELL_N = 3
HETERO_MATERIAL_SEED = 20260810
RANK_REL_TOL = 1e-10  # the program's default Tolerances.rank_rel_tol


@dataclass
class Problem:
    name: str
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    C: np.ndarray
    expect_zero_range: bool


# ---------------------------------------------------------------------------
# corpus: the acceptance-criterion-1 generator, draw for draw.


def _haar_unitary(rng, n):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def _random_hermitian_pd(rng, n, lo=0.5, hi=3.0):
    Q = _haar_unitary(rng, n)
    return Q @ np.diag(rng.uniform(lo, hi, n)) @ Q.conj().T


def _random_coercive(rng, n, c=0.3, spread=2.0, skew=0.5):
    Q = _haar_unitary(rng, n)
    H = Q @ np.diag(rng.uniform(c, c + spread, n)) @ Q.conj().T
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return H + skew * 0.5 * (S - S.conj().T)


def _random_rank_matrix(rng, n1, n0, r):
    if r == 0:
        return np.zeros((n1, n0), dtype=complex)
    A = rng.standard_normal((n1, r)) + 1j * rng.standard_normal((n1, r))
    B = rng.standard_normal((r, n0)) + 1j * rng.standard_normal((r, n0))
    return A @ B


def corpus(seed: int) -> list[Problem]:
    """The 200 random dense systems of acceptance criterion 1, in seeded order.

    n0, n1 <= 6; the rank-0 systems must be refused.  The systems are
    always the acceptance corpus: a fresh corpus per seed moves the number
    of certifiable systems, and with it the pass time, by 8% between
    seeds.  The run seed only shuffles the order of the calls.
    """
    rng = np.random.default_rng(CORPUS_SEED)
    problems = []
    for k in range(CORPUS_SIZE):
        n0 = int(rng.integers(1, 7))
        n1 = int(rng.integers(1, 7))
        r = int(rng.integers(0, min(n0, n1) + 1))
        alpha = _random_hermitian_pd(rng, n0)
        beta = _random_hermitian_pd(rng, n1)
        gamma = _random_coercive(rng, n0)
        C = _random_rank_matrix(rng, n1, n0, r)
        problems.append(Problem(f"corpus-{k:03d}", alpha, beta, gamma, C, r == 0))
    order = np.random.default_rng(seed).permutation(CORPUS_SIZE)
    return [problems[i] for i in order]


# ---------------------------------------------------------------------------
# Maxwell grids


def _grid_problem(name: str, eps, sigma) -> Problem:
    # Called through the module so that the traced run sees the call.
    system = maxwell.build_maxwell_system(maxwell.GridSpec(N=MAXWELL_N), eps=eps, mu=1.0, sigma=sigma)
    return Problem(name, system.alpha, system.beta, system.gamma, system.C, False)


def maxwell_n3(seed: int) -> list[Problem]:
    """Homogeneous unit material: scalar damping, identity weights.

    The problem does not depend on the seed.
    """
    return [_grid_problem("maxwell-n3", 1.0, 1.0)]


def hetero_profile(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell eps in [1, 2] and sigma in [0.5, 1.5], translated by the seed.

    Independent draws per cell move delta_cert by a factor of 4 from one
    draw to the next, so a seeded draw per run would swamp every bound.
    A cyclic translation of one fixed draw changes the matrix entries the
    program sees but, because the periodic curl commutes with
    translations, not the spectrum: certificate quality stays comparable
    across seeds.
    """
    base = np.random.default_rng(HETERO_MATERIAL_SEED)
    shape = (MAXWELL_N,) * 3
    eps = base.uniform(1.0, 2.0, shape)
    sigma = base.uniform(0.5, 1.5, shape)
    shift = tuple(int(s) for s in np.random.default_rng(seed).integers(0, MAXWELL_N, 3))
    axes = (0, 1, 2)
    return (np.roll(eps, shift, axes).ravel(), np.roll(sigma, shift, axes).ravel())


def maxwell_n3_hetero(seed: int) -> list[Problem]:
    """Per-cell eps and sigma, mu = 1: nonscalar damping and weights."""
    eps, sigma = hetero_profile(seed)
    return [_grid_problem("maxwell-n3-hetero", eps, sigma)]


WORKLOADS = {
    "corpus": corpus,
    "maxwell-n3": maxwell_n3,
    "maxwell-n3-hetero": maxwell_n3_hetero,
}


# ---------------------------------------------------------------------------
# Independent oracle


def _inv_sqrt(M: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(0.5 * (M + M.conj().T))
    return (V / np.sqrt(w)) @ V.conj().T


@dataclass(frozen=True)
class Reference:
    rank: int
    m: int  # size of the restricted generator, n0 + rank
    abscissa: float  # max Re eig of the restricted generator


def reference(p: Problem) -> Reference:
    """Spectral abscissa of the generator restricted to H0 x ran(D).

    Built from the raw matrices with numpy alone: unit weights via the
    inverse square roots of alpha and beta, ran(D) from its own SVD.
    """
    ai = _inv_sqrt(p.alpha)
    bi = _inv_sqrt(p.beta)
    g = ai @ p.gamma @ ai
    D = bi @ p.C @ ai
    U, s, _ = np.linalg.svd(D)
    rank = int(np.count_nonzero(s >= RANK_REL_TOL * s[0])) if s.size and s[0] > 0 else 0
    n0 = g.shape[0]
    Q = U[:, :rank]
    B = np.zeros((n0 + rank, n0 + rank), dtype=complex)
    B[:n0, :n0] = -g
    B[:n0, n0:] = D.conj().T @ Q
    B[n0:, :n0] = -Q.conj().T @ D
    return Reference(rank, n0 + rank, float(np.linalg.eigvals(B).real.max()))
