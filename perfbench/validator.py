"""Independent oracles for the benchmark's outputs.

Nothing here imports sl2wiggle.  Rationals are fractions.Fraction,
polynomials in t are plain coefficient lists (lowest degree first, no
trailing zeros) and words are lists of (generator, exponent) syllables.
The only shared dependency is mpmath's number type, used to re-evaluate
numeric witnesses.

A certificate for [[x^k, y^l], [x^m, y^n]] is checked by brute force: the
*uncyclic* word w(x, y^g) is multiplied out over Q[t]/(h) with
x = diag(lam, 1/lam), y = diag(mu, 1/mu) and g = ((1, 1), (t, 1 + t)),
whose xi-determinant is t.  No transfer recursion and no cyclic reduction
is involved.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

ZERO = Fraction(0)
ONE = Fraction(1)
CERTIFIED = ("Certified", "SwappedCertified")


# ----------------------------------------------------------------------
# dense polynomials over Q


def trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def padd(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def psub(a: list, b: list) -> list:
    return padd(a, [-c for c in b])


def pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def pdivmod(a: list, b: list) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quot = [ZERO] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(a) - len(b), -1, -1):
        c = rem[shift + len(b) - 1]
        if c:
            q = c / b[-1]
            quot[shift] = q
            for j, y in enumerate(b):
                rem[shift + j] -= q * y
    return trim(quot), trim(rem)


def pmod(a: list, b: list) -> list:
    return pdivmod(a, b)[1]


def pgcd(a: list, b: list) -> list:
    """Monic gcd by plain Euclid."""
    while b:
        a, b = b, pmod(a, b)
    return [c / a[-1] for c in a] if a else a


def peval(p: list, x):
    acc = 0 * x
    for c in reversed(p):
        acc = acc * x + c
    return acc


def deriv(p: list) -> list:
    return trim([i * c for i, c in enumerate(p)][1:])


def sylvester_resultant(f: list, g: list) -> Fraction:
    """det of the Sylvester matrix with the f rows on top, by elimination."""
    n, m = len(f) - 1, len(g) - 1
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    size = n + m
    fd, gd = list(reversed(f)), list(reversed(g))
    rows = [[ZERO] * i + fd + [ZERO] * (m - 1 - i) for i in range(m)]
    rows += [[ZERO] * i + gd + [ZERO] * (n - 1 - i) for i in range(n)]
    det = ONE
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        p = rows[col][col]
        det *= p
        for r in range(col + 1, size):
            factor = rows[r][col] / p
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


# ----------------------------------------------------------------------
# words


def _inv(word: list) -> list:
    return [(g, -e) for g, e in reversed(word)]


def _comm(u: list, v: list) -> list:
    return _inv(u) + _inv(v) + u + v


def dc_word(k: int, l: int, m: int, n: int) -> list:
    """[[x^k, y^l], [x^m, y^n]] as written, with [u, v] = u^-1 v^-1 u v."""
    return _comm(_comm([("x", k)], [("y", l)]), _comm([("x", m)], [("y", n)]))


def dc_cyclic_word(k: int, l: int, m: int, n: int) -> list:
    """The rotation of the double commutator that sl2wiggle's normal form,
    and so every witness's u, refers to:
    x^m y^(n-l) x^-k y^l x^k y^-n x^-m y^n x^(m-k) y^-l x^k y^l x^-m y^-n."""
    return [
        ("x", m), ("y", n - l), ("x", -k), ("y", l), ("x", k), ("y", -n),
        ("x", -m), ("y", n), ("x", m - k), ("y", -l), ("x", k), ("y", l),
        ("x", -m), ("y", -n),
    ]


def free_reduce(word: list) -> list:
    stack: list = []
    for g, e in word:
        if not e:
            continue
        if stack and stack[-1][0] == g:
            merged = stack.pop()[1] + e
            if merged:
                stack.append((g, merged))
        else:
            stack.append((g, e))
    return stack


def effective_params(entry: dict) -> tuple[int, int, int, int]:
    k, l, m, n = entry["params"]
    return (l, k, n, m) if entry["status"] == "SwappedCertified" else (k, l, m, n)


# ----------------------------------------------------------------------
# 2x2 matrices; entries are anything with ring operators, or polynomials


def mat_mul(a, b, mul=lambda x, y: x * y, add=lambda x, y: x + y):
    return [
        [add(mul(a[i][0], b[0][j]), mul(a[i][1], b[1][j])) for j in range(2)]
        for i in range(2)
    ]


def word_value(word: list, x_pow, yg_pow, identity, mul):
    """Multiply out a word left to right from per-syllable matrices."""
    value = identity
    for g, e in word:
        value = mul(value, x_pow(e) if g == "x" else yg_pow(e))
    return value


def _word_value_mod_h(word: list, lam: Fraction, mu: Fraction, h: list):
    """w(x, y^g) over Q[t]/(h) for g = ((1, 1), (t, 1 + t))."""
    one, t = [ONE], [ZERO, ONE]

    def mul(a, b):
        return mat_mul(a, b, mul=lambda x, y: pmod(pmul(x, y), h), add=padd)

    def poly_mul(a, b):
        return mat_mul(a, b, mul=pmul, add=padd)

    g = [[one, one], [t, padd(one, t)]]
    g_inv = [[padd(one, t), [-ONE]], [[ZERO, -ONE], one]]

    def x_pow(e):
        return [[[lam**e], []], [[], [lam**-e]]]

    def yg_pow(e):
        conj = poly_mul(poly_mul(g_inv, [[[mu**e], []], [[], [mu**-e]]]), g)
        return [[pmod(c, h) for c in row] for row in conj]

    return word_value(word, x_pow, yg_pow, [[one, []], [[], one]], mul)


def validate_certificate(entry: dict) -> tuple[bool, str]:
    """Check the mathematical claim a certificate's JSON makes.

    Certified claims: h has degree >= 1, is squarefree and coprime to
    t(t+1); h divides tr(u) - 2; and u - I is invertible at every root of
    h, i.e. gcd(h, all four entries of u - I) = 1.
    """
    k, l, m, n = entry["params"]
    trivial = not free_reduce(dc_word(k, l, m, n))
    status = entry["status"]
    if status == "TrivialWord":
        return (True, "") if trivial else (False, "word is not trivial")
    if trivial:
        return False, f"{status} on a trivial word"
    if status == "Inconclusive":
        return True, ""
    if status not in CERTIFIED:
        return False, f"unknown status {status!r}"
    if not all(entry.get("checks", {}).values()):
        return False, "a recorded check is false"
    lam, mu = Fraction(entry["lambda"]), Fraction(entry["mu"])
    if not lam or not mu:
        return False, "zero torus parameter"
    h = trim([Fraction(c) for c in entry["h"]])
    if len(h) < 2:
        return False, "h has degree < 1"
    h = [c / h[-1] for c in h]
    if pgcd(h, deriv(h)) != [ONE]:
        return False, "h is not squarefree"
    if pgcd(h, [ZERO, ONE, ONE]) != [ONE]:
        return False, "h shares a root with t(t+1)"
    u = _word_value_mod_h(dc_word(*effective_params(entry)), lam, mu, h)
    if pmod(psub(padd(u[0][0], u[1][1]), [2 * ONE]), h):
        return False, "h does not divide tr(u) - 2"
    g = h
    for entry_poly in (psub(u[0][0], [ONE]), u[0][1], u[1][0], psub(u[1][1], [ONE])):
        g = pgcd(g, entry_poly)
    if g != [ONE]:
        return False, "u = I at a root of h"
    return True, ""


# ----------------------------------------------------------------------
# witnesses


def _torus_word_value(word, lam, mu, g, g_inv, identity):
    def x_pow(e):
        return [[lam**e, 0 * lam], [0 * lam, lam**-e]]

    def yg_pow(e):
        return mat_mul(mat_mul(g_inv, [[mu**e, 0 * mu], [0 * mu, mu**-e]]), g)

    return word_value(word, x_pow, yg_pow, identity, mat_mul)


def validate_witness(cert: dict, witness: dict, digits: int) -> tuple[bool, str]:
    """Check a witness against its certificate by re-evaluating the word.

    Exact witnesses must reproduce u = w_cyc(x, y^g) on the nose; numeric
    ones must agree with a fresh mpmath evaluation at the printed root to
    about digits - 14 significant digits.
    """
    if witness["params"] != cert["params"]:
        return False, "params differ from the certificate"
    if (witness["lambda"], witness["mu"]) != (cert["lambda"], cert["mu"]):
        return False, "torus parameters differ from the certificate"
    if not all(witness["modular"].values()):
        return False, "modular certificate is not all true"
    f = trim([Fraction(c) for c in witness["minimal_poly"]])
    if len(f) < 2 or pmod([Fraction(c) for c in cert["h"]], f):
        return False, "minimal polynomial does not divide h"
    if witness["exact"] != (len(f) == 2):
        return False, "exact flag disagrees with the minimal polynomial degree"
    tol = Fraction(1, 10 ** (digits - 14))
    if Fraction(witness["residual"]) > tol:
        return False, "residual bound above target"
    lam, mu = Fraction(cert["lambda"]), Fraction(cert["mu"])
    word = dc_cyclic_word(*effective_params(cert))
    if witness["exact"]:
        t0 = Fraction(witness["t0"])
        if peval(f, t0):
            return False, "t0 is not a root of the minimal polynomial"
        g = [[ONE, ONE], [t0, 1 + t0]]
        if [[Fraction(c) for c in row] for row in witness["g"]] != g:
            return False, "g is not ((1, 1), (t0, 1 + t0))"
        g_inv = [[1 + t0, -ONE], [-t0, ONE]]
        u = _torus_word_value(word, lam, mu, g, g_inv, [[ONE, ZERO], [ZERO, ONE]])
        if [[Fraction(c) for c in row] for row in witness["u"]] != u:
            return False, "u differs from w(x, y^g)"
        if u[0][0] + u[1][1] != 2 or u == [[ONE, ZERO], [ZERO, ONE]]:
            return False, "u is not a non-trivial unipotent"
        return True, ""
    # The printed t0 carries `digits` significant digits; the word's entries
    # amplify that rounding by up to ~1e20 for the largest torus parameters,
    # so the numeric comparison asks for half the digits.
    with mpmath.workdps(digits + 40):
        eps = mpmath.mpf(10) ** -(digits // 2)
        t0 = mpmath.mpc(witness["t0"]["re"], witness["t0"]["im"])
        f_mp = [mpmath.mpf(c.numerator) / c.denominator for c in f]
        scale = sum(abs(c) * abs(t0) ** i for i, c in enumerate(f_mp))
        if abs(peval(f_mp, t0)) > eps * scale:
            return False, "t0 is not a root of the minimal polynomial"
        one, zero = mpmath.mpc(1), mpmath.mpc(0)
        g = [[one, one], [t0, 1 + t0]]
        g_inv = [[1 + t0, -one], [-t0, one]]
        lam_mp = mpmath.mpf(lam.numerator) / lam.denominator
        mu_mp = mpmath.mpf(mu.numerator) / mu.denominator
        u = _torus_word_value(word, lam_mp, mu_mp, g, g_inv, [[one, zero], [zero, one]])
        given = [[mpmath.mpc(c["re"], c["im"]) for c in row] for row in witness["u"]]
        size = max(1, max(abs(c) for row in u for c in row))
        if max(abs(u[i][j] - given[i][j]) for i in range(2) for j in range(2)) > eps * size:
            return False, "u differs from w(x, y^g)"
        if abs(given[0][0] + given[1][1] - 2) > eps * size:
            return False, "u is not unipotent"
        off = (given[0][0] - 1, given[0][1], given[1][0], given[1][1] - 1)
        if max(abs(c) for c in off) <= eps * size:
            return False, "u is numerically the identity"
    return True, ""


# ----------------------------------------------------------------------
# symbolic tables


def check_tables_at_point(params, tau, gamma_inner, alpha_core, res, lam, mu):
    """Check specialized table polynomials against the word itself.

    tau, gamma_inner and alpha_core are the coefficient lists of the
    symbolic cofactors evaluated at (lam, mu); res is the symbolic
    resultant evaluated there.  With P = (lam^2k - 1)(mu^2l - 1)
    (lam^2m - 1)(mu^2n - 1) and D = lam^2(k+m) mu^2(l+n), the cyclic
    word's value u at g = ((1, 1), (t, 1 + t)) must satisfy

        tr u - 2  = (P/D)^2 t^2 (t+1)^2 tau(t)
        u11 - 1   = P/D^2  t (t+1) gamma_inner(t)
        alpha - 1 = P/D^2  t (t+1) alpha_core(t),  alpha = u11 - t u12/(1+t)

    at two values of t.  The resultant is compared with a Sylvester
    determinant over Q when both leading coefficients survive the
    specialization.  Returns None or the first failure.
    """
    k, l, m, n = params
    p = (lam ** (2 * k) - 1) * (mu ** (2 * l) - 1) * (lam ** (2 * m) - 1) * (mu ** (2 * n) - 1)
    d = lam ** (2 * (k + m)) * mu ** (2 * (l + n))
    word = dc_cyclic_word(k, l, m, n)
    identity = [[ONE, ZERO], [ZERO, ONE]]
    for t0 in (Fraction(2), Fraction(-1, 3)):
        g = [[ONE, ONE], [t0, 1 + t0]]
        g_inv = [[1 + t0, -ONE], [-t0, ONE]]
        u = _torus_word_value(word, lam, mu, g, g_inv, identity)
        tt = t0 * (t0 + 1)
        if u[0][0] + u[1][1] - 2 != (p / d) ** 2 * tt**2 * peval(tau, t0):
            return f"tau disagrees with the word at t = {t0}"
        if u[0][0] - 1 != p / d**2 * tt * peval(gamma_inner, t0):
            return f"gamma_inner disagrees with the word at t = {t0}"
        alpha = u[0][0] - t0 * u[0][1] / (1 + t0)
        if alpha - 1 != p / d**2 * tt * peval(alpha_core, t0):
            return f"alpha cofactor disagrees with the word at t = {t0}"
    if tau and gamma_inner and tau[-1] and gamma_inner[-1]:
        if sylvester_resultant(tau, gamma_inner) != res:
            return "resultant disagrees with the Sylvester determinant"
    return None
