"""Independent oracles for the unstable J-coefficient machinery.

The sympy oracles are computed separately from the package's exact
kernel: the closed hypergeometric product form of the I-coefficients, a
two-chart Cech enumeration of line-bundle cohomology weights on a football
P^1, and Laurent bookkeeping in z.  The hyperplane class is an honest sympy
symbol truncated nilpotently by hand.  The Frac oracles keep the package's
earlier routes: fraction_ladder is the coefficient ladder run step by step
on Frac over the weight tables of bundle_weights, the reference the int
ladder must reproduce exactly, and fraction_coefficient_table renders
report tables through Frac terms, the reference for the int renderer.
The class inverse is the generic Neumann-series inverse, the oracle for
the geometric-series division in `verify`'s closed routes.  The Frac
q-series helpers at the end (product, inverse, exp, substitution,
reversion) and geometric_periods read the genus-zero invariants off the
I-function through its mirror map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Frac

import sympy

from conftest import laurent_terms
from helpers_p1 import LAM as SLAM
from helpers_p1 import ZSYM as SZ
from helpers_p1 import ratfun_to_sympy

from glsmx.algebra import (
    LAM,
    NILPOTENT,
    PROJLINE,
    RF_ONE,
    RF_ZERO,
    CohClass,
    RatFun,
    join_terms,
)
from glsmx.errors import DivisionByNonUnit
from glsmx.jfun import j_sector, state_rank, state_unit, unstable_J_coefficient
from glsmx.model import (
    LG,
    frac_bracket,
    graph_multiplicities,
    isotropy_order,
    make_sector,
)

SH = sympy.Symbol("H")


def nilpotent_expand(expr, r):
    """Expand a rational expression as a polynomial in H with H^r = 0.

    Done by hand (numerator times the triangular inverse of the denominator
    mod H^r) because sympy.series is far too slow on these rational
    functions."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    n = _h_coeffs(num, r)
    d = _h_coeffs(den, r)
    if d[0] == 0:
        raise ZeroDivisionError("denominator vanishes at H = 0")
    inv = [sympy.Integer(0)] * r
    inv[0] = 1 / d[0]
    for k in range(1, r):
        inv[k] = -sum(d[j] * inv[k - j] for j in range(1, k + 1)) / d[0]
    out = sympy.Integer(0)
    for k in range(r):
        c = sum(n[j] * inv[k - j] for j in range(k + 1))
        out += sympy.cancel(sympy.together(c)) * SH**k
    return sympy.expand(out)


def _h_coeffs(poly, r):
    poly = sympy.Poly(sympy.expand(poly), SH)
    return [poly.coeff_monomial(SH**k) for k in range(r)]


def coh_to_sympy(c):
    """CohClass -> sympy polynomial in H over rational functions of lam, z."""
    return sympy.expand(
        sum(ratfun_to_sympy(f) * SH**k for k, f in enumerate(c.coeffs))
    )


def closed_j_coefficient(weights, n_aux, d, phase, beta, twisted):
    """Closed product form of the q^beta coefficient of the I-function.

    Derived once by enumerating the section monomials of the field bundles
    on the parameterized component by hand; kept deliberately separate from
    the package's weight-table route so the two can be compared.
    """
    if phase == "lg":
        sector = Frac(beta + 1, d) % 1
        if any((Frac(w) * sector).denominator == 1 for w in weights):
            return sympy.Integer(0)  # sector fixes a coordinate
        m1 = Frac(-beta - 1, d) % 1
        dm = d // math.gcd(int(m1 * d) % d, d)
        expr = sympy.Rational(dm, d) * SZ
        for w in weights:
            a = sympy.Rational(w * (beta + 1), d)
            top = -((-(w * (beta + 1) + 1)) // d) - 1  # ceil((w(b+1)+1)/d) - 1
            for k in range(1, top + 1):
                expr *= (k - a) * SZ - sympy.Rational(w, d) * SH
        for b in range(1, beta + 1):
            expr /= (SH + b * SZ) ** n_aux
        r = n_aux
    else:
        expr = SZ
        for m in range(1, d * beta + 1):
            expr *= (-d * SH - m * SZ) ** n_aux
        for w in weights:
            for b in range(1, w * beta + 1):
                expr /= w * SH + b * SZ
        r = len(weights)
    if twisted:
        for b in range(beta):
            expr *= SLAM - SH - b * SZ
    return nilpotent_expand(expr, r)


def closed_edge_factor(weights, n_aux, d, phase, delta, beta, twisted, vertex):
    """Edge factor of a delta-fold cover with basepoint degree beta, built on
    the closed coefficient: the untwisted coefficient over z evaluated at the
    tangent weight t = (lam - H)/delta, over the isotropy order of the
    basepoint sector, times the twist (delta - b)*t for b < beta, over the
    moving cover sections -b^2 t^2 for b <= delta, times t (vertex "0") or
    -t (vertex "inf"), expanded with H^r = 0."""
    r = n_aux if phase == "lg" else len(weights)
    t = (SLAM - SH) / delta
    expr = (closed_j_coefficient(weights, n_aux, d, phase, beta, False) / SZ).subs(SZ, t)
    if phase == "lg":
        expr /= d // math.gcd((beta + 1) % d, d)
    if twisted:
        for b in range(beta):
            expr *= (delta - b) * t
    for b in range(1, delta + 1):
        expr /= -(b**2) * t**2
    if vertex == "0":
        expr *= t
    elif vertex == "inf":
        expr *= -t
    return nilpotent_expand(expr, r)


def cech_table(rational_degree, age0, age_inf, t, w0):
    """H^0 / H^1 weights of a line bundle on a football P^1, read off the
    Laurent-exponent window of the two-chart Cech complex: global sections
    occupy 0 <= k <= D and the obstruction window is D < k < 0, where D is
    the degree of the coarse pushforward and the exponent-k monomial has
    weight w0 - k*t."""
    coarse = Frac(rational_degree) - Frac(age0) - Frac(age_inf)
    if coarse.denominator != 1:
        raise ValueError("inconsistent orbifold data")
    deg = int(coarse)
    h0 = [sympy.expand(w0 - k * t) for k in range(0, deg + 1)]
    h1 = [sympy.expand(w0 - k * t) for k in range(deg + 1, 0)]
    return h0, h1


def z_plus_part(expr):
    """Non-negative-z part of a fully expanded Laurent expression in z."""
    out = sympy.Integer(0)
    for term in sympy.Add.make_args(sympy.expand(expr)):
        num, den = sympy.fraction(sympy.together(term))
        if sympy.degree(num, SZ) - sympy.degree(den, SZ) >= 0:
            out += term
    return sympy.expand(out)


def lam_coefficient(expr, k):
    """Coefficient of lam^k in an expanded polynomial expression."""
    return sympy.expand(sympy.expand(expr).coeff(SLAM, k))


def same_weight_multiset(got, expected):
    """Compare two lists of sympy weights up to reordering."""
    if len(got) != len(expected):
        return False
    key = sympy.default_sort_key
    got = sorted((sympy.expand(g) for g in got), key=key)
    expected = sorted((sympy.expand(e) for e in expected), key=key)
    return all(sympy.expand(a - b) == 0 for a, b in zip(got, expected))


@dataclass(frozen=True)
class WeightTable:
    """Torus weights on the sections and obstructions of a line bundle."""

    h0_weights: tuple
    h1_weights: tuple


class InconsistentOrbData(ValueError):
    """Degree and age data with no integral pushforward, or an age outside
    [0, 1)."""


def _checked_age(age):
    age = Frac(age)
    if not 0 <= age < 1:
        raise InconsistentOrbData(f"age {age} outside [0, 1)")
    return age


def bundle_weights(rational_degree, age0, age_inf, tangent_weight, fiber_weight_0):
    """Weight table of a line bundle on a football with orbifold points at
    zero and infinity.

    Sections push down to the coarse line with degree
    D = rational_degree - age0 - age_inf, which must be an integer.  The
    exponent-k section monomial at the zero point carries weight
    fiber_weight_0 - k * tangent_weight for k = 0..D, and the obstruction
    weights continue the same ladder through the window between D and zero.
    Weights may be int, Frac, RatFun or CohClass valued; an int tangent and
    an int fiber weight give a table of ints.
    """
    age0 = _checked_age(age0)
    age_inf = _checked_age(age_inf)
    coarse = Frac(rational_degree) - age0 - age_inf
    if coarse.denominator != 1:
        raise InconsistentOrbData(
            f"degree {rational_degree} with ages {age0}, {age_inf} "
            "has no integral pushforward"
        )
    degree = int(coarse)
    h0 = tuple(fiber_weight_0 - k * tangent_weight for k in range(degree + 1))
    h1 = tuple(fiber_weight_0 + (k + 1) * tangent_weight for k in range(-degree - 1))
    return WeightTable(h0, h1)


def line_bundle_degree(model, genus, n, beta):
    """Rational degree of the gauge bundle, on Frac: the oracle for
    model.bundle_degree_numerator."""
    if model.phase == LG:
        return Frac(2 * genus - 2 + n - beta, model.d)
    return Frac(beta)


def p_bundle_degree(model, genus, n, beta):
    """Rational degree of one auxiliary-field bundle (the dual d-th power
    twisted by the log canonical)."""
    if model.phase == LG:
        return Frac(beta)
    return -model.d * Frac(beta) + 2 * genus - 2 + n


def fraction_ladder(model, beta, twisted):
    """The coefficient ladder as the package computed it on Frac before it
    moved to ints: the same weight tables and recurrences, every step a
    Frac.  Kept verbatim as the oracle for the int ladder."""
    # The value is assembled from the moving weights of the field bundles on
    # the parameterized component: obstruction weights multiply, section
    # weights divide.  Each weight is a*z + c*H with c fixed per field, and
    # it moves exactly when a != 0.  Writing it as a*z*(1 + (c/a)*u) with
    # u = H/z, the value is scale * z^e * p(u), where the a's and the weight
    # count give scale and e, and p is the product of the (1 + (c/a)*u)
    # truncated at u^r, so H^j carries scale * p_j * z^(e - j).
    r = state_rank(model)
    if model.phase == LG and not make_sector(model, j_sector(model, beta)).narrow:
        # broad sectors carry no state, so their coefficients vanish
        return state_unit(model) * RF_ZERO
    marked_mult = graph_multiplicities(model, beta)[0]
    deg_l = line_bundle_degree(model, 0, 1, beta)
    deg_p = p_bundle_degree(model, 0, 1, beta)
    # (rational degree, age at infinity, H-coefficient c, multiplicity) of
    # each field bundle; the auxiliary one counts N times
    if model.phase == LG:
        fields = [
            (w * deg_l, frac_bracket(w * marked_mult), Frac(-w, model.d), 1)
            for w in model.weights
        ]
        fields.append((deg_p, frac_bracket(-model.d * marked_mult), Frac(1), model.N))
    else:
        fields = [(w * deg_l, Frac(0), Frac(w), 1) for w in model.weights]
        fields.append((deg_p, Frac(0), Frac(-model.d), model.N))
    scale = Frac(1)
    e = 1
    p = [Frac(1)] + [Frac(0)] * (r - 1)
    for degree, age_inf, c, mult in fields:
        # with tangent 1 and fiber equal to the degree, each table entry is
        # the z-coefficient a of its weight
        table = bundle_weights(degree, Frac(0), age_inf, 1, Frac(degree))
        for a in table.h1_weights:
            if a:
                x = c / a
                for _ in range(mult):
                    scale *= a
                    e += 1
                    for j in range(r - 1, 0, -1):
                        p[j] += x * p[j - 1]
        for a in table.h0_weights:
            if a:
                x = c / a
                for _ in range(mult):
                    scale /= a
                    e -= 1
                    for j in range(1, r):
                        p[j] -= x * p[j - 1]
    if model.phase == LG:
        # gerbe normalization: stabilizer order of the marked point over the
        # full orbifold structure group
        scale *= Frac(isotropy_order(model.d, marked_mult), model.d)
    rows = [{(0, e - j): scale * p[j]} for j in range(r)]
    for b in range(beta if twisted else 0):
        # the framing twist, the Euler class of the twisted obstruction of the
        # distinguished line: c*lam^l*z^n*H^j times (lam - b*z - H), cut at H^r
        out = [{} for _ in range(r)]
        for j, row in enumerate(rows):
            for (l, n), c in row.items():
                out[j][l + 1, n] = out[j].get((l + 1, n), 0) + c
                out[j][l, n + 1] = out[j].get((l, n + 1), 0) - b * c
                if j + 1 < r:
                    out[j + 1][l, n] = out[j + 1].get((l, n), 0) - c
        rows = out
    return CohClass([RatFun(row) for row in rows], NILPOTENT, r)


def _fraction_lam_term(coeff, exponent):
    if exponent == 0:
        return str(coeff)
    power = "lam" if exponent == 1 else f"lam^{exponent}"
    if coeff == 1:
        return power
    if coeff == -1:
        return f"-{power}"
    return f"{coeff}*{power}"


def fraction_lam_string(f):
    """The report rendering of a RatFun in lam alone as the package wrote it
    before it moved to ints: one Frac per Laurent term."""
    if f.is_zero():
        return "0"
    terms = laurent_terms(f)
    return join_terms([_fraction_lam_term(v, i) for (i, _), v in sorted(terms.items(), reverse=True)])


def fraction_coefficient_table(values):
    """The report's coefficient table rendered through Frac terms, as the
    package wrote it before it moved to ints: {beta: CohClass} -> flat
    {"beta,zpower,Hpower": lam string}, ordered by beta, z power, H power."""
    table = {}
    for beta in sorted(values):
        cells = {}
        for h, part in enumerate(values[beta].coeffs):
            for (i, j), v in sorted(laurent_terms(part).items(), reverse=True):
                cells.setdefault((j, h), []).append(_fraction_lam_term(v, i))
        for (j, h), terms in sorted(cells.items()):
            table[f"{beta},{j},{h}"] = join_terms(terms)
    return table


def class_inverse(x):
    """Inverse of a CohClass.  A nilpotent class c0 + n inverts as
    (1/c0)*sum_k (-n/c0)^k, cut at H^r; a projline class a + b*H as
    1/a - b*H/(a*(a + b*lam)), through its restrictions a at infinity and
    a + b*lam at zero.  A zero constant term, or a zero restriction at the
    zero fixed point, raises DivisionByNonUnit, and so does a coefficient
    that is not a monomial where the RatFun division needs one."""
    c0 = x.coeffs[0]
    if c0.is_zero():
        raise DivisionByNonUnit("CohClass with zero constant term")
    if x.relation == PROJLINE:
        a, b = x.coeffs
        at_zero = a + b * LAM
        if at_zero.is_zero():
            raise DivisionByNonUnit("CohClass vanishes at the zero fixed point")
        return CohClass([RF_ONE / a, -b / (a * at_zero)], PROJLINE)
    inv0 = RF_ONE / c0
    nil = CohClass([RF_ZERO] + [-c * inv0 for c in x.coeffs[1:]], NILPOTENT, x.r)
    out = power = CohClass.unit(NILPOTENT, x.r)
    for _ in range(1, x.r):
        power = power * nil
        out = out + power
    return out * inv0


# ---------------------------------------------------------------------------
# power series in one variable q over Frac, as lists [c_0, ..., c_n]
# truncated at q^n: the mirror-map oracles of the genus-zero invariants


def series_mul(a, b):
    n = min(len(a), len(b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def series_inverse(a):
    """1/a, for a with a nonzero constant term."""
    if not a[0]:
        raise ZeroDivisionError("series with zero constant term")
    out = [Frac(1) / a[0]]
    for k in range(1, len(a)):
        out.append(-sum(a[i] * out[k - i] for i in range(1, k + 1)) / a[0])
    return out


def series_exp(a):
    """exp(a), for a with zero constant term: e' = a' e term by term."""
    if a[0]:
        raise ValueError("exp of a series with a constant term")
    out = [Frac(1)]
    for k in range(1, len(a)):
        out.append(sum(j * a[j] * out[k - j] for j in range(1, k + 1)) / Frac(k))
    return out


def series_substitute(a, b):
    """a(b(q)), for b with zero constant term, cut at the shorter length."""
    if b[0]:
        raise ValueError("substituting a series with a constant term")
    n = min(len(a), len(b))
    out = [Frac(0)] * n
    power = [Frac(1)] + [Frac(0)] * (n - 1)
    for k in range(n):
        out = [x + a[k] * y for x, y in zip(out, power)]
        power = series_mul(power, b[:n])
    return out


def series_reversion(f):
    """The series g with f(g(q)) = q, for f = c*q + ... with c nonzero, found
    one coefficient at a time."""
    if f[0] or not f[1]:
        raise ValueError("only q times a unit has a reversion")
    n = len(f)
    g = [Frac(0), Frac(1) / f[1]] + [Frac(0)] * (n - 2)
    for k in range(2, n):
        g[k] = -series_substitute(f, g)[k] / f[1]
    return g


def geometric_periods(model, top):
    """(I_0, I~_1, I~_2) through q^top of the geometric-phase model, read as
    the lam^0 terms of the untwisted coefficients at H^0 z^1, H^1 z^0 and
    H^2 z^-1, with q replaced by s*q for s the sign of I_0's degree-1 term
    (the quintic's reads -120 before the flip)."""
    rows = ([], [], [])
    for beta in range(top + 1):
        coeffs = unstable_J_coefficient(model, beta).coeffs
        for j, row in enumerate(rows):
            f = coeffs[j]
            row.append(Frac(f.num.get((0, 1 - j), 0), f.den[(0, 0)]))
    sign = 1 if rows[0][1] > 0 else -1
    return tuple([c * sign**b for b, c in enumerate(row)] for row in rows)


def mirror_coordinate(i0, i1):
    """g = I~_1/I_0 and the mirror coordinate Q = q*e^g, as q-series."""
    g = series_mul(i1, series_inverse(i0))
    return g, series_mul([Frac(0), Frac(1)] + [Frac(0)] * (len(g) - 2), series_exp(g))


def yukawa_coupling(model, top):
    """The Yukawa coupling kappa/((1 - kappa'*q)*I_0^2*D^3) of a
    one-parameter Calabi-Yau threefold through Q^top, read in the mirror
    coordinate Q, with D = 1 + q*dg/dq, kappa = d^N/prod(w) and
    kappa' = d^(d*N)/prod(w^w).  It reads only the H^0 and H^1 rows."""
    i0, i1, _ = geometric_periods(model, top)
    g, big_q = mirror_coordinate(i0, i1)
    d_log = [Frac(1)] + [b * g[b] for b in range(1, top + 1)]
    kappa = Frac(model.d**model.N, math.prod(model.weights))
    kappa_p = Frac(model.d ** (model.d * model.N), math.prod(w**w for w in model.weights))
    den = series_mul([Frac(1), -kappa_p] + [Frac(0)] * (top - 1), series_mul(i0, i0))
    for _ in range(3):
        den = series_mul(den, d_log)
    y = [kappa * c for c in series_inverse(den)]
    return series_substitute(y, series_reversion(big_q))
