"""Exact-arithmetic kernel: Laurent polynomials in lam and z, nilpotent
hyperplane classes and truncated power series.  Every weight the
localization divides by is a single torus character, so a RatFun is an
element of Q[lam^+-1, z^+-1], stored as one dict of Laurent terms with int
coefficients over one positive int: dividing by anything but a nonzero
monomial raises DivisionByNonUnit.  Frac appears only where values are
read out."""

from __future__ import annotations

from fractions import Fraction as Frac
from math import gcd, lcm

from .errors import BadConstantTerm, DivisionByNonUnit

# ---------------------------------------------------------------------------
# Laurent polynomials in (lam, z) over int, keyed by (lam_exp, z_exp)


def _poly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _poly_scale(a, c):
    return a if c == 1 else {k: v * c for k, v in a.items()}


def _poly_mul(a, b):
    out = {}
    for (i, j), u in a.items():
        for (k, l), v in b.items():
            key = (i + k, j + l)
            s = out.get(key, 0) + u * v
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


class RatFun:
    """Laurent polynomial in lam and z over Q.  num maps (lam_exp, z_exp),
    exponents of either sign, to nonzero ints; den is {(0, 0): c} with c a
    positive int coprime to the content of num, and {(0, 0): 1} for zero.
    Built from int or Frac coefficients over an int or Frac denominator."""

    # num and den keep the dict shapes of a fraction of polynomials because
    # perfbench/exact.py and perfbench/tracing.py read them as such
    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if isinstance(num, (int, Frac)):
            num = {(0, 0): num}
        if not den:
            raise DivisionByNonUnit("zero denominator")
        # clear denominators, folded pairwise because lcm(*values) would
        # build a tuple of every size on each call; the sign moves to num
        num = {k: v for k, v in num.items() if v}
        mult = den.denominator
        for v in num.values():
            mult = lcm(mult, v.denominator)
        if den < 0:
            mult = -mult
        out = RatFun._reduced(
            {k: v.numerator * (mult // v.denominator) for k, v in num.items()},
            den.numerator * (mult // den.denominator),
        )
        object.__setattr__(self, "num", out.num)
        object.__setattr__(self, "den", out.den)

    @staticmethod
    def _reduced(num, den):
        """The RatFun num/den, for num a dict of nonzero ints and den a
        positive int: both divided by their joint content.  Every
        construction ends here, so the normal form has one code path."""
        g = den
        if g != 1:
            for v in num.values():
                g = gcd(g, v)
                if g == 1:
                    break
            if g != 1:
                num = {k: v // g for k, v in num.items()}
                den //= g
        out = object.__new__(RatFun)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", {(0, 0): den})
        return out

    def __setattr__(self, *a):
        raise AttributeError("RatFun is immutable")

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.den[(0, 0)], other.den[(0, 0)]
        m = lcm(a, b)
        return RatFun._reduced(
            _poly_add(_poly_scale(self.num, m // a), _poly_scale(other.num, m // b)), m
        )

    __radd__ = __add__

    def __neg__(self):
        return RatFun._reduced({k: -v for k, v in self.num.items()}, self.den[(0, 0)])

    def __sub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_ratfun(other) - self

    def __mul__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun._reduced(
            _poly_mul(self.num, other.num), self.den[(0, 0)] * other.den[(0, 0)]
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if len(other.num) != 1:
            raise DivisionByNonUnit(
                "division by zero rational function" if other.is_zero()
                else "divisor is not a monomial"
            )
        ((dl, dz), v), = other.num.items()
        # the divisor's sign moves to the numerator
        c = other.den[(0, 0)] if v > 0 else -other.den[(0, 0)]
        return RatFun._reduced(
            {(i - dl, j - dz): u * c for (i, j), u in self.num.items()},
            self.den[(0, 0)] * abs(v),
        )

    def __rtruediv__(self, other):
        return _as_ratfun(other) / self

    def __pow__(self, n):
        if n < 0:
            return RF_ONE / self ** (-n)
        num = {(0, 0): 1}
        for _ in range(n):
            num = _poly_mul(num, self.num)
        return RatFun._reduced(num, self.den[(0, 0)] ** n)

    def __eq__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    def __repr__(self):
        return f"RatFun({render_ratfun(self)})"

    # -- structure queries -------------------------------------------------

    def is_zero(self):
        return not self.num

    def as_frac(self):
        """Constant value, or None if lam/z actually occur."""
        if not self.num.keys() <= {(0, 0)}:
            return None
        return Frac(self.num.get((0, 0), 0), self.den[(0, 0)])

    def z_parts(self):
        """Split into {z_exponent: RatFun in lam only}."""
        out = {}
        for (i, j), v in self.num.items():
            out.setdefault(j, {})[(i, 0)] = v
        c = self.den[(0, 0)]
        return {e: RatFun._reduced(p, c) for e, p in sorted(out.items())}


def _as_ratfun(x):
    if isinstance(x, RatFun):
        return x
    if isinstance(x, (int, Frac)):
        return RatFun(x)
    return NotImplemented


RF_ZERO = RatFun(0)
RF_ONE = RatFun(1)
LAM = RatFun({(1, 0): 1})
Z = RatFun({(0, 1): 1})


def join_terms(terms):
    """Rendered terms joined by sign: a leading minus becomes " - "."""
    out = terms[0]
    for term in terms[1:]:
        out += " - " + term[1:] if term.startswith("-") else " + " + term
    return out


def render_ratfun(f):
    """Deterministic human/JSON rendering, graded lex descending: negative
    exponents are shifted into one monomial denominator, so (lam + z)/lam*z
    rather than lam^-1 + z^-1."""

    def side(poly):
        if not poly:
            return "0"
        bits = []
        for (i, j) in sorted(poly, key=lambda k: (-(k[0] + k[1]), -k[0])):
            v = poly[(i, j)]
            mono = "*".join(
                ([f"lam^{i}" if i > 1 else "lam"] if i else [])
                + ([f"z^{j}" if j > 1 else "z"] if j else [])
            )
            if mono:
                lead = "" if v == 1 else ("-" if v == -1 else f"{v}*")
                bits.append(f"{lead}{mono}")
            else:
                bits.append(str(v))
        return join_terms(bits)

    c = f.den[(0, 0)]
    sl = max([0] + [-i for i, _ in f.num])
    sz = max([0] + [-j for _, j in f.num])
    n = side({(i + sl, j + sz): v for (i, j), v in f.num.items()})
    if (sl, sz, c) == (0, 0, 1):
        return n
    n = f"({n})" if len(f.num) > 1 else n
    return f"{n}/{side({(sl, sz): c})}"


# ---------------------------------------------------------------------------
# cohomology classes: polynomials in H modulo a relation


NILPOTENT = "nilpotent"  # H^r = 0
PROJLINE = "projline"  # H^2 = lam*H


class CohClass:
    """Polynomial in the hyperplane symbol H with RatFun coefficients,
    reduced modulo H^r = 0 (nilpotent) or H^2 = lam*H (projline)."""

    __slots__ = ("coeffs", "relation", "r")

    def __init__(self, coeffs, relation, r=None):
        if relation == PROJLINE:
            r = 2
        elif r is None:
            raise ValueError("nilpotent CohClass needs an order r")
        coeffs = [c if isinstance(c, RatFun) else RatFun(c) for c in coeffs]
        if len(coeffs) > r:
            raise ValueError("too many coefficients for the relation")
        coeffs += [RF_ZERO] * (r - len(coeffs))
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "r", r)

    def __setattr__(self, *a):
        raise AttributeError("CohClass is immutable")

    @staticmethod
    def unit(relation, r=None):
        return CohClass([RF_ONE], relation, r)

    @staticmethod
    def hyperplane(relation, r=None):
        if relation == PROJLINE:
            return CohClass([RF_ZERO, RF_ONE], relation)
        if r >= 2:
            return CohClass([RF_ZERO, RF_ONE], relation, r)
        return CohClass([RF_ZERO], relation, r)  # H = 0 when r = 1

    def _check(self, other):
        if self.relation != other.relation or self.r != other.r:
            raise ValueError("CohClass relation mismatch")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return CohClass([a + b for a, b in zip(self.coeffs, other.coeffs)], self.relation, self.r)

    __radd__ = __add__

    def __neg__(self):
        return CohClass([-a for a in self.coeffs], self.relation, self.r)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        raw = [RF_ZERO] * (2 * self.r)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    raw[i + j] = raw[i + j] + a * b
        if self.relation == PROJLINE:
            # H^k = lam^(k-1) H for k >= 1
            c0, c1 = raw[0], raw[1]
            for k in range(2, len(raw)):
                c1 = c1 + raw[k] * LAM ** (k - 1)
            return CohClass([c0, c1], PROJLINE)
        return CohClass(raw[: self.r], NILPOTENT, self.r)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, CohClass):
            return other
        f = _as_ratfun(other)
        if f is NotImplemented:
            return NotImplemented
        return CohClass([f], self.relation, self.r)

    def inverse(self):
        c0 = self.coeffs[0]
        if c0.is_zero():
            raise DivisionByNonUnit("CohClass with zero constant term")
        if self.relation == PROJLINE:
            a, b = self.coeffs
            at_zero = a + b * LAM  # restriction where H = lam
            if at_zero.is_zero():
                raise DivisionByNonUnit("CohClass vanishes at the zero fixed point")
            return CohClass([RF_ONE / a, -b / (a * at_zero)], PROJLINE)
        inv0 = RF_ONE / c0
        nil = CohClass([RF_ZERO] + [-c * inv0 for c in self.coeffs[1:]], NILPOTENT, self.r)
        out = CohClass.unit(NILPOTENT, self.r)
        power = CohClass.unit(NILPOTENT, self.r)
        for _ in range(1, self.r):
            power = power * nil
            out = out + power
        return out * inv0

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = CohClass.unit(self.relation, self.r)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (
            self.relation == other.relation
            and self.r == other.r
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.relation, self.r, self.coeffs))

    def __repr__(self):
        bits = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            mono = "" if i == 0 else ("H" if i == 1 else f"H^{i}")
            s = render_ratfun(c)
            bits.append(f"({s})*{mono}" if mono else s)
        return "CohClass(" + (" + ".join(bits) if bits else "0") + ")"

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def restrict_zero(self):
        """Projline restriction at the zero fixed point (H -> lam)."""
        if self.relation != PROJLINE:
            raise ValueError("restriction is a projline operation")
        return self.coeffs[0] + self.coeffs[1] * LAM

    def restrict_infinity(self):
        """Projline restriction at the infinity fixed point (H -> 0)."""
        if self.relation != PROJLINE:
            raise ValueError("restriction is a projline operation")
        return self.coeffs[0]


# ---------------------------------------------------------------------------
# truncated power series in one variable over RatFun


class TruncSeries:
    """Power series in one formal variable with RatFun coefficients,
    truncated above `order`."""

    __slots__ = ("variable", "order", "coeffs")

    def __init__(self, variable, order, coeffs=None):
        if order < 0:
            raise ValueError("order must be non-negative")
        cleaned = {}
        for k, v in (coeffs or {}).items():
            if 0 <= k <= order and not v.is_zero():
                cleaned[k] = v
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", cleaned)

    def __setattr__(self, *a):
        raise AttributeError("TruncSeries is immutable")

    def coeff(self, k, default=RF_ZERO):
        return self.coeffs.get(k, default)

    def _check(self, other):
        if self.variable != other.variable:
            raise ValueError("series variable mismatch")

    def _order_with(self, other):
        return min(self.order, other.order)

    def __add__(self, other):
        self._check(other)
        return TruncSeries(self.variable, self._order_with(other), _merge(self.coeffs, other.coeffs))

    def __neg__(self):
        return TruncSeries(self.variable, self.order, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return TruncSeries(
                self.variable, self.order, {k: v * other for k, v in self.coeffs.items()}
            )
        self._check(other)
        order = self._order_with(other)
        out = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                if i + j <= order:
                    k = i + j
                    out[k] = out[k] + a * b if k in out else a * b
        return TruncSeries(self.variable, order, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        self._check(other)
        c0 = other.coeff(0)
        if c0.is_zero():
            raise DivisionByNonUnit("series with zero constant term")
        inv0 = RF_ONE / c0
        order = self._order_with(other)
        # u = 1 - other/c0 is nilpotent to the truncation order
        u = TruncSeries(self.variable, order, {0: RF_ONE}) - other * inv0
        out = self
        acc = self
        for _ in range(order):
            acc = acc * u
            out = out + acc
        return out * inv0

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.variable == other.variable
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.variable, self.order, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return f"TruncSeries({self.variable!r}, O({self.variable}^{self.order + 1}), 0)"
        bits = [f"({v!r})*{self.variable}^{k}" for k, v in sorted(self.coeffs.items())]
        return f"TruncSeries({' + '.join(bits)} + O({self.variable}^{self.order + 1}))"


def _merge(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] + v if k in out else v
    return out


def series_root_pow(s, exponent):
    """s**exponent for rational exponent, by exact binomial expansion.
    Requires constant term exactly 1."""
    exponent = Frac(exponent)
    if s.coeff(0) != RF_ONE:
        raise BadConstantTerm("series_root_pow needs constant term 1")
    one = TruncSeries(s.variable, s.order, {0: RF_ONE})
    u = s - one
    out = one
    power = one
    binom = Frac(1)
    for k in range(1, s.order + 1):
        binom *= Frac(exponent - (k - 1), k)
        power = power * u
        if not power.coeffs:
            break
        out = out + power * binom
    return out
