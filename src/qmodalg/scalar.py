"""Exact arithmetic in the coefficient field K = Frac(Q[v, v^-1]), with q = v^2.

Scalars are fractions of Laurent polynomials in v over the rationals, kept in
canonical form at all times: numerator and denominator share no polynomial
factor, the denominator is a true polynomial in v (constant term nonzero)
with leading coefficient 1, and zero is 0/1.  Equality of scalars is plain
equality of representations, so dict comparison decides field equality.

The base variable is v = q^(1/2); q is the synonym v^2.  Everything in scope
is rational in v, so coefficients are rationals, kept in stored form: an int
when the value is integral and a Fraction (denominator > 1) otherwise, never
a float.  Almost every coefficient met in practice is an integer, and int
arithmetic skips the gcd a Fraction takes per operation.  For integral values
int and Fraction agree on ==, hash and str, so the stored form changes no
comparison, dict or set behaviour and no printed byte.  Every coefficient
division goes through _div, which keeps results exact and in stored form.

A Scalar is immutable, and so are its parts: num and den are shared between
scalars and by the tables that hold them (LinearOperator.compose and the
rewrite memos keep one Scalar per distinct value), so no code may mutate
either dict.  Every Laurent scalar, the denominator-1 case, has as den the
one object _DEN_ONE; in canonical form len(den) == 1 means den == {0: 1}.

The field operations read their operands' canonical form, so each result is
canonical by construction and needs at most small gcds (Henrici's rules, as
in Knuth, TAOCP vol. 2, 4.5.1).  For a/b and c/d in lowest terms:

- inverse: b/a needs no gcd, as gcd(b, a) = 1 already; a's power of v moves
  to the numerator and a is made monic.
- product: (a/g1)(c/g2) / ((b/g2)(d/g1)) with g1 = gcd(a, d), g2 = gcd(c, b).
  Each factor is coprime to the other side's denominator, so nothing is left
  to cancel.  A gcd against denominator 1, or of a monomial (v divides no
  denominator), is 1 and is skipped.
- sum with b = 1: (a*d + c)/d needs no gcd, as a factor of d dividing
  a*d + c would divide c.
- sum with b = d: one gcd of a + c with b.
- otherwise: with g = gcd(b, d), t = a*(d/g) + c*(b/g) is coprime to
  (b/g)*(d/g), so the sum is t/g2 over (b/g)*(d/g)*(g/g2) for g2 = gcd(t, g).
- quotient: the product with the inverse.

_cancel is the one gcd these rules take; _canonize, which puts any given
num/den into canonical form by way of _cancel, serves only the constructor.

Most products met in practice have a factor 1: memo entries scaled by ONE,
pivot rows scaled to 1.  So x * ONE, ONE * x and x / ONE return x itself,
ONE / x is x.inverse(), ONE.inverse() is ONE, accumulate takes a factor ONE
as none, and a product, a negation, a sum of Laurent scalars, v_pow(0), or a
result built by _made, that equals 1 is the ONE singleton, so later products
with it are skipped too.  Only the constructor builds a 1 that is not ONE.
This is an optimisation only: equality stays value equality, and no caller
may rely on a result being ONE rather than equal to it.
"""

from __future__ import annotations

from fractions import Fraction

class ScalarDivisionError(ZeroDivisionError):
    """Division of a scalar by zero."""


class PoleAtOneError(ArithmeticError):
    """classical_limit was asked for a scalar with a pole at v = 1."""


# ---------------------------------------------------------------------------
# Laurent polynomials as sparse dicts {exponent: coefficient}, no zero values.

def _div(a, b):
    """a/b for rationals a, b != 0, exactly and in stored form."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    f = Fraction(a, b)
    return f.numerator if f.denominator == 1 else f


def _has_fraction(p):
    return Fraction in map(type, p.values())


def _as_stored(p):
    """p with its integral Fraction coefficients stored as int."""
    if _has_fraction(p):
        return {e: c.numerator if c.denominator == 1 else c for e, c in p.items()}
    return p


def accumulate(acc, pairs, c=None):
    """acc[k] += x, or c*x when c is given, for each (k, x) in pairs; returns acc.

    Works in place on any sparse dict of ring elements and drops each key
    whose sum cancels, so an acc without zero values keeps none.  A c that
    is ONE is no factor: acc then keeps the pairs' own objects.
    """
    if c is ONE:
        c = None
    for k, x in pairs:
        if c is not None:
            x = c * x
        s = acc.get(k)
        if s is None:
            acc[k] = x
        else:
            s = s + x
            if s:
                acc[k] = s
            else:
                del acc[k]
    return acc


def _lp_neg(a):
    return {e: -c for e, c in a.items()}


def _lp_mul(a, b):
    """a*b for Laurent dicts, dropping coefficients that cancel.

    Works for any coefficient ring and never mutates a or b.  A product or
    sum of Fractions may be integral, so callers that keep the result restore
    the stored form.
    """
    acc = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = acc.get(e)
            if s is None:
                acc[e] = ca * cb
            else:
                s += ca * cb
                if s:
                    acc[e] = s
                else:
                    del acc[e]
    return acc


def _poly_divmod(a, b):
    """Division with remainder of polynomial dicts (exponents >= 0), b != 0."""
    rem = dict(a)
    quo = {}
    db = max(b)
    lb = b[db]
    while rem:
        dr = max(rem)
        if dr < db:
            break
        c = _div(rem[dr], lb)
        e0 = dr - db
        quo[e0] = c  # rem[dr] cancels exactly, so each e0 comes once
        for eb, cb in b.items():
            e = eb + e0
            s = rem.get(e, 0) - c * cb
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return quo, rem


def _poly_gcd(a, b):
    """Monic gcd of polynomial dicts; at least one argument nonzero."""
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    lc = a[max(a)]
    if lc != 1:
        return {e: _div(c, lc) for e, c in a.items()}
    return a


_DEN_ONE = {0: 1}  # shared by every Laurent scalar; never mutated
_DEN_ONE_KEY = frozenset(_DEN_ONE.items())


def _shift(p, k):
    return {e + k: c for e, c in p.items()} if k else p


def _cancel(num, den):
    """(num/g, den/g) for g = gcd(num, den), num a nonzero Laurent dict and
    den monic with nonzero constant term; a monomial on either side skips it."""
    if len(num) > 1 and len(den) > 1:
        lo = min(num)
        n0 = _shift(num, -lo)
        g = _poly_gcd(den, n0)
        if len(g) > 1:
            return _shift(_poly_divmod(n0, g)[0], lo), _poly_divmod(den, g)[0]
    return num, den


def _product(a, b, c, d):
    """The Scalar a/b * c/d from canonical parts, cross-cancelled."""
    if len(b) == 1 and len(d) == 1:
        if len(a) == 1 and len(c) == 1:
            ((ea, ca),) = a.items()
            ((ec, cc),) = c.items()
            x = ca * cc
            if type(x) is not int and x.denominator == 1:
                x = x.numerator
            e = ea + ec
            if not e and x == 1:
                return ONE
            return Scalar._raw({e: x}, _DEN_ONE)
        num = _lp_mul(a, c)
        if _has_fraction(a) or _has_fraction(c):
            num = _as_stored(num)
        return Scalar._raw(num, _DEN_ONE)
    a, d = _cancel(a, d)
    c, b = _cancel(c, b)
    return _made(_lp_mul(a, c), d if len(b) == 1 else b if len(d) == 1 else _lp_mul(b, d))


def _inverted(num, den):
    """Canonical parts of den/num for canonical nonzero num/den, by no gcd."""
    lo = min(num)
    n0 = _shift(num, -lo)
    lc = n0[max(n0)]
    if len(n0) == 1:
        return {e - lo: _div(c, lc) for e, c in den.items()}, _DEN_ONE
    if lc != 1:
        den = {e: _div(c, lc) for e, c in den.items()}
        n0 = {e: _div(c, lc) for e, c in n0.items()}
    return _shift(den, -lo), n0


def _made(num, den):
    """The Scalar num/den from canonical parts, up to stored form; ONE when
    that is 1."""
    if not num:
        return ZERO
    if len(den) > 1:
        return Scalar._raw(_as_stored(num), _as_stored(den))
    if num == ONE.num:
        return ONE
    return Scalar._raw(_as_stored(num), _DEN_ONE)


def _canonize(num, den):
    """Canonical parts of num/den for Laurent dicts in any form."""
    num = _as_stored({e: c for e, c in num.items() if c})
    den = _as_stored({e: c for e, c in den.items() if c})
    if not den:
        raise ScalarDivisionError("zero denominator")
    if not num:
        return {}, _DEN_ONE
    lo, lc = min(den), den[max(den)]
    if lo or lc != 1:
        num = {e - lo: _div(c, lc) for e, c in num.items()}
        den = {e - lo: _div(c, lc) for e, c in den.items()}
    num, den = _cancel(num, den)
    return num, den if len(den) > 1 else _DEN_ONE


class Scalar:
    """An element of K = Frac(Q[v, v^-1]) in canonical form."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num=0, den=None):
        if isinstance(num, (int, Fraction)):
            num = {0: num} if num else {}
        if den is None:
            den = _DEN_ONE
        elif isinstance(den, (int, Fraction)):
            if not den:
                raise ScalarDivisionError("zero denominator")
            den = {0: den}
        if not all(isinstance(c, (int, Fraction)) for p in (num, den)
                   for c in (p.values() if isinstance(p, dict) else (p,))):
            raise TypeError("Scalar coefficients are int or Fraction: %r, %r" % (num, den))
        self.num, self.den = _canonize(num, den)
        self._hash = None

    @staticmethod
    def _raw(num, den):
        """Build from already-canonical parts (internal fast path)."""
        s = object.__new__(Scalar)
        s.num = num
        s.den = den
        s._hash = None
        return s

    # -- ring structure ----------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        if type(other) is not Scalar:
            if isinstance(other, (int, Fraction)):
                other = Scalar(other)
            elif not isinstance(other, Scalar):
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        h = self._hash
        if h is None:
            den = self.den
            den_key = _DEN_ONE_KEY if len(den) == 1 else frozenset(den.items())
            h = hash((frozenset(self.num.items()), den_key))
            self._hash = h
        return h

    def __neg__(self):
        num = _lp_neg(self.num)
        if num == ONE.num and len(self.den) == 1:
            return ONE
        return Scalar._raw(num, self.den)

    def __add__(self, other):
        if type(other) is not Scalar:
            if isinstance(other, (int, Fraction)):
                other = Scalar(other)
            elif not isinstance(other, Scalar):
                return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if len(d) == 1 < len(b):
            a, b, c, d = c, d, a, b
        if len(b) == 1:  # Laurent a: (a*d + c)/d, in lowest terms
            num = accumulate(_lp_mul(a, d) if len(d) > 1 else dict(a), c.items())
            if num == ONE.num and len(d) == 1:
                return ONE
            return Scalar._raw(_as_stored(num), d)
        if b == d:
            g, b, d = b, _DEN_ONE, _DEN_ONE
        else:
            g = _poly_gcd(b, d)
            if len(g) > 1:
                b, d = _poly_divmod(b, g)[0], _poly_divmod(d, g)[0]
        t = accumulate(_lp_mul(a, d), _lp_mul(c, b).items())
        if not t:
            return ZERO
        t, g = _cancel(t, g)
        return _made(t, _lp_mul(_lp_mul(b, d), g))

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            if isinstance(other, (int, Fraction)):
                other = Scalar(other)
            elif not isinstance(other, Scalar):
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Scalar:
            if isinstance(other, (int, Fraction)):
                other = Scalar(other)
            elif not isinstance(other, Scalar):
                return NotImplemented
        if self is ONE:
            return other
        if other is ONE:
            return self
        return _product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ScalarDivisionError("inverse of zero")
        if self is ONE:
            return ONE
        return Scalar._raw(*_inverted(self.num, self.den))

    def __truediv__(self, other):
        if type(other) is not Scalar:
            if isinstance(other, (int, Fraction)):
                other = Scalar(other)
            elif not isinstance(other, Scalar):
                return NotImplemented
        if not other.num:
            raise ScalarDivisionError("division by zero")
        if other is ONE:
            return self
        if self is ONE:
            return other.inverse()
        return _product(self.num, self.den, *_inverted(other.num, other.den))

    def __rtruediv__(self, other):
        return Scalar(other) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- evaluation ----------------------------------------------------------

    def classical_limit(self):
        """Exact value at v = 1 (q -> 1); raises PoleAtOneError on a pole."""
        dv = sum(self.den.values())
        if dv == 0:
            # canonical form has gcd(num, den) = 1, so this is a true pole
            raise PoleAtOneError(f"pole at v = 1 in {self}")
        return Fraction(sum(self.num.values()), dv)

    # -- printing / parsing ---------------------------------------------------

    def __str__(self):
        even = all(e % 2 == 0 for e in self.num) and all(e % 2 == 0 for e in self.den)
        var, unit = ("q", 2) if even else ("v", 1)
        ns = _poly_str(self.num, var, unit)
        if len(self.den) == 1:
            return ns
        return "(%s)/(%s)" % (ns, _poly_str(self.den, var, unit))

    def __repr__(self):
        return "Scalar(%s)" % self


def _poly_str(p, var, unit):
    if not p:
        return "0"
    parts = []
    for e in sorted(p, reverse=True):
        c = p[e]
        k = e // unit
        if k == 0:
            body = str(abs(c))
        else:
            pw = var if k == 1 else "%s^%d" % (var, k)
            ac = abs(c)
            body = pw if ac == 1 else "%s*%s" % (ac, pw)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# constants and named elements

ZERO = Scalar(0)
ONE = Scalar(1)


def v_pow(k):
    """v^k; a monic monomial is canonical as it stands."""
    return Scalar._raw({k: 1}, _DEN_ONE) if k else ONE


def q_pow(k):
    """q^k = v^(2k)."""
    return v_pow(2 * k)


def gauss_int(n, step=2):
    """Quantum integer [n] in q_i = v^step: v^(step(n-1)) + v^(step(n-3)) + ...

    step=2 gives the usual [n]_q, step=1 gives [n]_v, step=4 gives [n]_{q^2}.
    """
    if n < 0:
        return -gauss_int(-n, step)
    return Scalar({step * (n - 1 - 2 * j): 1 for j in range(n)})


def gauss_binom(n, k, step=2):
    """Quantum binomial coefficient [n choose k] in v^step, exact."""
    if k < 0 or k > n:
        return ZERO
    out = ONE
    for t in range(1, k + 1):
        out = out * gauss_int(n - k + t, step) / gauss_int(t, step)
    return out


# ---------------------------------------------------------------------------
# parsing (round-trips the printed form)

class _Tok:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def next_int(self):
        ch = self.peek()
        sign = 1
        if ch == "-":
            self.pos += 1
            sign = -1
            ch = self.peek()
        if ch is None or not ch.isdigit():
            raise ValueError("expected integer at %r" % self.text[self.pos:])
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return sign * int(self.text[start:self.pos])


def parse_scalar(text):
    """Parse expressions like 'q^2 - 2 + q^-2' or '(q+q^-1)/(q^2-1)'."""
    tk = _Tok(text)
    val = _parse_expr(tk)
    if tk.peek() is not None:
        raise ValueError("trailing input in scalar: %r" % text[tk.pos:])
    return val


def _parse_expr(tk):
    val = _parse_term(tk)
    while True:
        ch = tk.peek()
        if ch == "+":
            tk.pos += 1
            val = val + _parse_term(tk)
        elif ch == "-":
            tk.pos += 1
            val = val - _parse_term(tk)
        else:
            return val


def _parse_term(tk):
    val = _parse_atom(tk)
    while True:
        ch = tk.peek()
        if ch == "*":
            tk.pos += 1
            val = val * _parse_atom(tk)
        elif ch == "/":
            tk.pos += 1
            val = val / _parse_atom(tk)
        else:
            return val


def _parse_atom(tk):
    ch = tk.peek()
    if ch is None:
        raise ValueError("unexpected end of scalar text")
    if ch == "-":
        tk.pos += 1
        return -_parse_atom(tk)
    if ch == "(":
        tk.pos += 1
        val = _parse_expr(tk)
        if tk.peek() != ")":
            raise ValueError("missing ')'")
        tk.pos += 1
        return val
    if ch in ("q", "v"):
        tk.pos += 1
        k = 1
        if tk.peek() == "^":
            tk.pos += 1
            k = tk.next_int()
        return q_pow(k) if ch == "q" else v_pow(k)
    if ch.isdigit():
        return Scalar(tk.next_int())
    raise ValueError("unexpected character %r in scalar" % ch)
