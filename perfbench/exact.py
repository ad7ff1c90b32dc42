"""Reference arithmetic for the benchmark's oracles, on `fractions.Fraction`.

Nothing here imports glsmx.  Results of the program under test are read
through plain attributes (`num`/`den` dicts of a rational function, the
coefficient dicts of a series) or through the strings of a JSON report, and
compared with values computed here from closed forms.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction as F


def binom(e, k):
    """Generalised binomial coefficient e choose k for rational e."""
    out = F(1)
    for i in range(k):
        out = out * (F(e) - i) / (i + 1)
    return out


def lam_monomial(c, e):
    """c * lam^e in the report's Laurent-string format."""
    c = F(c)
    if c == 0:
        return "0"
    if e == 0:
        return str(c)
    power = "lam" if e == 1 else f"lam^{e}"
    if c == 1:
        return power
    if c == -1:
        return f"-{power}"
    return f"{c}*{power}"


_SPLIT = re.compile(r" ([+-]) ")


def eval_lam_string(text, lam):
    """Value at lam of a report entry written as a Laurent sum in lam."""
    if text.startswith("("):
        raise ValueError(f"not a Laurent sum: {text!r}")
    parts = _SPLIT.split(text)
    total = F(0)
    sign = 1
    for i, part in enumerate(parts):
        if i % 2:
            sign = 1 if part == "+" else -1
            continue
        if "*" in part:
            coeff, power = part.split("*")
            c = F(coeff)
        elif "lam" in part:
            c = F(-1) if part.startswith("-") else F(1)
            power = part.lstrip("-")
        else:
            c, power = F(part), None
        e = 0 if power is None else (1 if power == "lam" else int(power[4:]))
        total += sign * c * F(lam) ** e
    return total


def eval_ratfun(f, lam, z=F(0)):
    """Value of a glsmx rational function at (lam, z), read from num/den."""

    def side(poly):
        return sum((F(v) * F(lam) ** i * F(z) ** j for (i, j), v in poly.items()), F(0))

    den = side(f.den)
    if den == 0:
        raise ZeroDivisionError("denominator vanishes at the evaluation point")
    return side(f.num) / den


def canon_ratfun(f):
    """Representation-independent text of a rational function: a Laurent
    dict when the denominator is one monomial, else num/den scaled so the
    denominator's graded-lex lead coefficient is 1."""
    num = {k: F(v) for k, v in f.num.items() if v}
    den = {k: F(v) for k, v in f.den.items() if v}
    if not num:
        return "0"
    if len(den) == 1:
        ((dl, dz), dc) = next(iter(den.items()))
        terms = sorted(((i - dl, j - dz), v / dc) for (i, j), v in num.items())
        return "L" + ";".join(f"{i},{j}:{v}" for (i, j), v in terms)
    lead = den[max(den, key=lambda k: (k[0] + k[1], k[0]))]
    n = sorted((k, v / lead) for k, v in num.items())
    d = sorted((k, v / lead) for k, v in den.items())
    return "R" + repr(n) + "/" + repr(d)


# ---------------------------------------------------------------------------
# truncated series over Q in one variable


def series_mul(a, b, order):
    out = [F(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


def series_inv(a, order):
    out = [F(0)] * (order + 1)
    out[0] = 1 / F(a[0])
    for k in range(1, order + 1):
        acc = sum((a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1)), F(0))
        out[k] = -acc / a[0]
    return out


def disc_power(e, order):
    """Coefficients of (1 + 4u)^e through u^order."""
    return [binom(e, k) * 4**k for k in range(order + 1)]


def root_ratio_multiples(order):
    """Coefficients of (1 - r)/(1 + r) with r = sqrt(1 + 4u), through u^order.

    The square-root ratio identity says the order-k coefficient of the tail
    ratio is this u^k coefficient times lam^(-2k)."""
    r = disc_power(F(1, 2), order)
    top = [F(1) - r[0]] + [-c for c in r[1:]]
    bottom = [F(1) + r[0]] + list(r[1:])
    return series_mul(top, series_inv(bottom, order), order)


# ---------------------------------------------------------------------------
# polynomials in a nilpotent H (H^r = 0) with Laurent-in-z coefficients;
# an element is a list of r dicts {z exponent: Fraction}


def hz_const(r, c, zexp=0):
    out = [dict() for _ in range(r)]
    if c:
        out[0][zexp] = F(c)
    return out


def hz_linear(r, c_z, c_h, c_1=0):
    """c_z * z + c_h * H + c_1."""
    out = [dict() for _ in range(r)]
    if c_z:
        out[0][1] = F(c_z)
    if c_1:
        out[0][0] = out[0].get(0, F(0)) + F(c_1)
    if r > 1 and c_h:
        out[1][0] = F(c_h)
    return out


def _lp_add(a, b, sign=1):
    out = dict(a)
    for e, v in b.items():
        s = out.get(e, F(0)) + sign * v
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _lp_mul(a, b):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, F(0)) + v1 * v2
    return {e: v for e, v in out.items() if v}


def hz_add(a, b, sign=1):
    return [_lp_add(x, y, sign) for x, y in zip(a, b)]


def hz_mul(a, b):
    r = len(a)
    out = [dict() for _ in range(r)]
    for i in range(r):
        if not a[i]:
            continue
        for j in range(r - i):
            if b[j]:
                out[i + j] = _lp_add(out[i + j], _lp_mul(a[i], b[j]))
    return out


def hz_scale(a, c):
    c = F(c)
    return [{e: v * c for e, v in x.items()} if c else {} for x in a]


def hz_inv(a):
    """Inverse of an element whose H^0 part is a single z monomial."""
    r = len(a)
    if len(a[0]) != 1:
        raise ZeroDivisionError("H^0 part is not a single z monomial")
    ((e0, c0),) = a[0].items()
    inv0 = [dict() for _ in range(r)]
    inv0[0] = {-e0: 1 / c0}
    # a * inv0 = 1 - x with x nilpotent
    x = hz_scale(hz_mul(a, inv0), -1)
    x[0] = _lp_add(x[0], {0: F(1)})
    out = hz_const(r, 1)
    power = hz_const(r, 1)
    for _ in range(1, r):
        power = hz_mul(power, x)
        out = hz_add(out, power)
    return hz_mul(out, inv0)


def hz_pow(a, n):
    out = hz_const(len(a), 1)
    base = a if n >= 0 else hz_inv(a)
    for _ in range(abs(n)):
        out = hz_mul(out, base)
    return out


def hz_subs_z(a, value):
    """Substitute z := value (an element with z exponent 0 only)."""
    r = len(a)
    out = [dict() for _ in range(r)]
    h = hz_linear(r, 0, 1)
    for i, part in enumerate(a):
        for e, c in part.items():
            term = hz_scale(hz_pow(value, e), c)
            out = hz_add(out, hz_mul(term, hz_pow(h, i)))
    return out


def hz_cells(beta, a, keep=lambda e: True):
    """{"beta,zexp,h": value} of the nonzero coefficients."""
    out = {}
    for h, part in enumerate(a):
        for e, v in part.items():
            if v and keep(e):
                out[f"{beta},{e},{h}"] = v
    return out


# ---------------------------------------------------------------------------
# model arithmetic written from the definitions


def frac_part(x):
    x = F(x)
    return x - math.floor(x)


def isotropy(d, mult):
    k = F(mult) * d
    if k.denominator != 1:
        raise ValueError(f"multiplicity {mult} not in (1/{d})Z")
    return d // math.gcd(int(k) % d, d)


def state_rank(weights, n_aux, phase):
    return n_aux if phase == "lg" else len(weights)


def j_sector(d, phase, beta):
    return F(0) if phase == "geometric" else frac_part(F(beta + 1, d))


def closed_coefficient(weights, n_aux, d, phase, beta, twisted, lam):
    """Closed product form of the q^beta I-function coefficient at lam.

    Written from the section-monomial count of the field bundles on the
    parameterized component, the same closed form the test suite's sympy
    oracle uses, but on Fraction and with lam fixed."""
    r = state_rank(weights, n_aux, phase)
    if phase == "lg":
        sector = F(beta + 1, d) % 1
        if any((w * sector).denominator == 1 for w in weights):
            return hz_const(r, 0)
        m1 = F(-beta - 1, d) % 1
        expr = hz_linear(r, F(isotropy(d, m1), d), 0)
        for w in weights:
            a = F(w * (beta + 1), d)
            top = -((-(w * (beta + 1) + 1)) // d) - 1
            for k in range(1, top + 1):
                expr = hz_mul(expr, hz_linear(r, k - a, -F(w, d)))
        for b in range(1, beta + 1):
            expr = hz_mul(expr, hz_inv(hz_pow(hz_linear(r, b, 1), n_aux)))
    else:
        expr = hz_linear(r, 1, 0)
        for m in range(1, d * beta + 1):
            expr = hz_mul(expr, hz_pow(hz_linear(r, -m, -d), n_aux))
        for w in weights:
            for b in range(1, w * beta + 1):
                expr = hz_mul(expr, hz_inv(hz_linear(r, b, w)))
    if twisted:
        for b in range(beta):
            expr = hz_mul(expr, hz_linear(r, -b, -1, lam))
    return expr


def edge_value(weights, n_aux, d, phase, delta, beta, twisted, unstable_vertex, lam):
    """Localization factor of one edge cover, from the closed coefficient:
    the coefficient over z at the cover's tangent weight, over the isotropy
    order of its sector and the Euler class of the cover's sections."""
    r = state_rank(weights, n_aux, phase)
    coeff = closed_coefficient(weights, n_aux, d, phase, beta, False, lam)
    level = hz_linear(r, 0, -1, lam)  # lam - H
    tangent = hz_scale(level, F(1, delta))
    value = hz_subs_z(hz_mul(coeff, hz_const(r, 1, -1)), tangent)
    value = hz_scale(value, F(1, isotropy(d, j_sector(d, phase, beta))))
    if twisted:
        for b in range(beta):
            value = hz_mul(value, hz_scale(tangent, delta - b))
    sections = hz_const(r, 1)
    for b in range(1, delta + 1):
        sections = hz_mul(sections, hz_scale(hz_mul(tangent, tangent), -b * b))
    value = hz_mul(value, hz_inv(sections))
    if unstable_vertex is not None:
        sign = 1 if unstable_vertex == "0" else -1
        value = hz_mul(value, hz_scale(level, F(sign, delta)))
    return value


def vertex_defect(phase, d, genus, degree, mults, extra_legs=0):
    """Multiplicity defect of a vertex; integral exactly when a line bundle
    with these multiplicities exists."""
    unit = F(1, d) if phase == "lg" else F(0)
    total = sum((F(m) for m in mults), F(0)) + extra_legs * unit
    n = len(mults) + extra_legs
    if phase == "lg":
        return F(-degree + 2 * genus - 2 + n, d) - total
    return F(degree) - total
