"""The full certificate chain on a random system, with every constant shown.

A certificate is a pair (delta_cert, M_total): the claim that the open
half-plane Re z > -delta_cert lies in the resolvent set of the normalized
restricted generator, with resolvent norms at most M_total on
Re z >= -delta_cert/2.  By Gearhart-Pruess reasoning this pins the decay
rate of the semigroup from below.

Every constant in the chain is one measured quantity or one closed
formula, printed here next to the independent oracles that
``audit_system`` runs alongside the certificate.

Run:  python demos/certificate_pipeline.py
"""

import numpy as np

import stabcert as sc
from stabcert import FORMULAS

from numpy.random import default_rng


def main():
    rng = default_rng(42)
    n0, n1, r = 4, 3, 2

    # weights, damping, rank-deficient coupling
    def hermitian_pd(n):
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Q = np.linalg.qr(G)[0]
        return Q @ np.diag(rng.uniform(0.5, 3.0, n)) @ Q.conj().T

    gamma = hermitian_pd(n0) + 0.4 * (
        lambda S: S - S.conj().T
    )(rng.standard_normal((n0, n0)) + 1j * rng.standard_normal((n0, n0)))
    C = (rng.standard_normal((n1, r)) + 1j * rng.standard_normal((n1, r))) @ (
        rng.standard_normal((r, n0)) + 1j * rng.standard_normal((r, n0))
    )
    system = sc.validate_system(hermitian_pd(n0), hermitian_pd(n1), gamma, C)

    audit = sc.audit_system(system)
    cert = audit.certificate
    print("measured on the normalized system:")
    print("  damping coercivity c        = %.4f" % cert.c_gamma_tilde)
    print("  damping norm |gamma|        = %.4f" % cert.gamma_tilde_norm)
    print("  closed-range constant       = %.4f (rank %d)" % (cert.sigma_min_pos, cert.rank))
    print("  weight conditioning kappa   = %.4f" % cert.kappa_norm)

    print("\nchained constants:")
    print("  working abscissa a0         = %.4f   [%s]" % (cert.working_abscissa, FORMULAS["working_abscissa"]))
    print("  effective coercivity        = %.4f   [%s]" % (cert.c_eff, FORMULAS["c_eff"]))
    print("  effective damping norm      = %.4f" % cert.gamma_eff)
    print("  kernel block bound          = %.4f   [%s]" % (cert.kernel_bound, FORMULAS["kernel_bound"]))
    print("  transform bound             = %.4f" % cert.transform_bound)
    inner = cert.inner
    print("  shift delta*, parameter p*  = %.4f, %.4f" % (inner.delta_star, inner.p_star))
    print("  damping margin c~           = %.4f" % inner.c_tilde)
    print("  half-margin d               = %.4f   [%s]" % (inner.d, FORMULAS["d"]))
    print("  interior resolvent bound    = %.2f   [%s]" % (inner.M_inner, FORMULAS["M_inner"]))

    print("\nsmall-frequency audit: Neumann cover of Re z >= %.4f, |z| <= %.3f"
          % (cert.audit.re_range[0], cert.audit.im_range[1]))
    print("  centres tested: %d, halvings: %d, largest square bound: %.3f"
          % (cert.audit.grid_shape[1], cert.audit.halvings, cert.audit.max_resolvent_norm))

    print("\ncertificate:  decay rate >= %.5f,  resolvent bound M = %.2f"
          % (cert.delta_cert, cert.M_total))

    # --- independent oracles, as audit_system computed them -------------
    print("\noracles:")
    print("  spectral abscissa (restricted generator):  %.5f  -> sharp rate %.5f"
          % (audit.abscissa, -audit.abscissa))
    cover = audit.cover
    print("  resolvent cover of Re z >= %+.5f, rectangle [%.3g, %.3g] x [-%.3f, %.3f]:"
          % (-cover.a, *cover.re_range, cover.im_range[1], cover.im_range[1]))
    print("    %d evaluations, largest square bound %.3f (M_total %.2f), passed: %s"
          % (cover.evaluations, cover.max_enclosure, cert.M_total, cover.passed))
    print("  trajectory on B_res: |G F - F B_res| / |G| = %.1e, |F* F - I| = %.1e"
          % (audit.restriction_residual, audit.frame_defect))
    print("\nsound: %s (certified rate below sharp rate, resolvent covered below bound)"
          % (audit.checks["spectral_abscissa_sound"] and cover.passed))


if __name__ == "__main__":
    main()
