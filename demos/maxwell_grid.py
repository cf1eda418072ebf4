"""Conductivity-damped fields on a periodic grid, certified and simulated.

Builds the discrete curl on a 3 x 3 x 3 periodic grid, checks its
structural identities (Hermitian; annihilates gradients), assembles the
damped field system, certifies its decay, and follows an admissible random
state through time.  Also shows what goes wrong for inadmissible data:
the part of the second component outside the curl's range is frozen.

Run:  python demos/maxwell_grid.py
"""

import numpy as np

import stabcert as sc


def main():
    spec = sc.GridSpec(N=3, h=1.0)
    curl = sc.build_curl(spec)
    frames = sc.decompose(curl.K)
    n = curl.K.shape[0]
    print("discrete curl: %d x %d, rank %d, kernel dimension %d"
          % (n, n, frames.r, n - frames.r))
    print("  Hermitian deviation:    %.1e" % np.abs(curl.K - curl.K.conj().T).max())
    print("  max entry of K @ grad:  %.1e" % np.abs(curl.K @ curl.grad).max())
    print("  closed-range constant:  %.6f (= sqrt(3)/2 on this grid)" % frames.sigma_min_pos)

    s = sc.build_maxwell_system(spec, eps=1.0, mu=1.0, sigma=1.0)
    audit = sc.audit_system(s)
    assert all(audit.checks.values()), audit.checks
    cert = audit.certificate
    print("\nunit-conductivity system (%d x %d generator):" % (2 * n, 2 * n))
    print("  certified decay rate:   %.5f" % cert.delta_cert)
    print("  resolvent bound:        %.1f" % cert.M_total)
    print("  fitted decay rate:      %.5f" % audit.fitted_rate)
    print("  projection residual of the random initial state: %.3f"
          % audit.projection_residual)
    cover = audit.cover
    print("  resolvent cover of Re z >= %+.5f: %d evaluations, largest square bound %.3f"
          " (M_total %.1f), passed: %s"
          % (-cover.a, cover.evaluations, cover.max_enclosure, cert.M_total, cover.passed))

    # The inadmissible part of the state is frozen: start inside ker(curl*).
    rng = np.random.default_rng(5)
    q0 = frames.kappa1 @ rng.standard_normal(n - frames.r)
    q0 /= np.linalg.norm(q0)
    U0 = np.concatenate([np.zeros(n), q0]).astype(complex)
    B = sc.assemble_generator(s.gamma, s.C)
    trace = sc.simulate(B, U0, 10.0, 201)
    print("\ninadmissible initial state (kernel component only):")
    print("  norm at t = 0:  %.6f" % trace.state_norms[0])
    print("  norm at t = %g: %.6f  (frozen, nothing decays)"
          % (trace.times[-1], trace.state_norms[-1]))


if __name__ == "__main__":
    main()
