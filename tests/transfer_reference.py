"""The full transfer product as a product of 2x2 matrices over Z[t].

Each x-run or y-run of a word is a power of one elementary transfer matrix,
multiplied out with Mat2.pow_det1, and the word's product is the product of
its run matrices.  sl2wiggle.wiggle computes single columns of this product
with a closed-form loop instead; tests compare that loop with this product,
and verify_identities with reference_identities, which reads the identities
off the columns of this product with TPoly arithmetic.
"""

from sl2wiggle.exact.laurent import LaurentPoly
from sl2wiggle.exact.mat2 import Mat2
from sl2wiggle.exact.tpoly import TPoly
from sl2wiggle.wiggle import AssocPolys, IdentityReport, WordLike, as_pairs


def _steps(invert_params: bool) -> tuple[Mat2[TPoly], Mat2[TPoly]]:
    """Transfer matrices of x and y; their powers are the run matrices."""
    e = -1 if invert_params else 1
    lam, mu = LaurentPoly.lam(e), LaurentPoly.mu(e)
    lam_inv, mu_inv = LaurentPoly.lam(-e), LaurentPoly.mu(-e)
    zero = TPoly.zero()
    x_step = Mat2(TPoly.const(lam), TPoly([0, lam - lam_inv]), zero, TPoly.const(lam_inv))
    y_step = Mat2(TPoly.const(mu), zero, TPoly.const(mu - mu_inv), TPoly.const(mu_inv))
    return x_step, y_step


_T_IDENTITY = Mat2(TPoly.one(), TPoly.zero(), TPoly.zero(), TPoly.one())


def transfer_matrix(w: WordLike, invert_params: bool = False) -> Mat2[TPoly]:
    """Product of per-run transfer matrices, applied rightmost run first."""
    x_step, y_step = _steps(invert_params)
    m = _T_IDENTITY
    for a, b in as_pairs(w):
        m = y_step.pow_det1(b, _T_IDENTITY) * x_step.pow_det1(a, _T_IDENTITY) * m
    return m


def identity_differences(ap: AssocPolys) -> tuple[TPoly, ...]:
    """The differences of the two sides of each identity verify_identities
    checks, zero exactly when it holds: the determinant identity, the two
    entries of the sigma check and the Bezout relation, in that order."""
    m = transfer_matrix(ap.pairs)
    m_inv = transfer_matrix(ap.pairs, invert_params=True)
    alpha, beta = ap.alpha, ap.beta
    t, one = TPoly.t(), TPoly.one()
    gamma = alpha + beta * t
    det = gamma * gamma.sigma() - beta * beta.sigma() * t * (t + one) - one
    bezout = alpha * m.e22 - m.e12 * beta - one
    return det, m_inv.e11 - alpha.sigma(), m_inv.e21 - beta.sigma(), bezout


def reference_identities(ap: AssocPolys) -> IdentityReport:
    """The IdentityReport of ap from the full transfer products at the given
    and at inverted parameters."""
    det, sigma_alpha, sigma_beta, bezout = identity_differences(ap)
    return IdentityReport(
        det_identity_ok=not det,
        sigma_symmetry_ok=not sigma_alpha and not sigma_beta,
        bezout_ok=not bezout,
    )
