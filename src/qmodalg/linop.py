"""Exact sparse linear operators over the scalar field.

Operators store a coefficient table {(row_label, col_label): Scalar} together
with ordered domain/codomain label lists.  Labels are ints for V itself and
tuples of ints for tensor powers.  No zero entries are ever stored, so
equality of operators is equality of tables.

Composition is fraction-free: each operand is put over one common
denominator with integer numerators, products are accumulated on int
coefficient dicts, and each output entry is canonicalised once at the end.
Scalars store integral coefficients as int (see scalar.py), so an operand
whose entries are all int-coefficient Laurent polynomials is used as it
stands, and when no denominator needs clearing each accumulated dict becomes
an output entry as it is.  Canonical form is unique, so the table does not
depend on this route: it is the table that summing Scalar products entry by
entry would give.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import lcm

from .scalar import (
    ONE,
    Scalar,
    _DEN_ONE,
    _div,
    _lp_fma,
    _lp_mul,
    _poly_divmod,
    _poly_gcd,
    accumulate,
)


def _den_key(den):
    return frozenset(den.items())


def _int_form(p, scale):
    """scale*p as an int-coefficient dict; scale clears p's denominators."""
    return {e: c.numerator * (scale // c.denominator) for e, c in p.items()}


def _over_one_denominator(entries):
    """Put a table of Scalars over one denominator, without adding any.

    Returns (D, L, to_int): D is the lcm of the entries' denominators, {0: 1}
    when every entry is a Laurent polynomial; L is a positive int; and
    to_int(s) is L*s*D, an int-coefficient Laurent dict, for an entry s.
    That dict may be s.num itself, so callers must not mutate it.
    """
    dens = {}
    for s in entries.values():
        if len(s.den) > 1:
            dens.setdefault(_den_key(s.den), s.den)
    lnum = lcm(
        *{
            c.denominator
            for s in entries.values()
            for c in s.num.values()
            if type(c) is not int
        }
    )

    def scaled(s):
        # a stored-form num with no Fraction coefficient is already int
        return s.num if lnum == 1 else _int_form(s.num, lnum)

    if not dens:
        return {0: 1}, lnum, scaled
    common, *rest = dens.values()
    for d in rest:
        common = _lp_mul(common, _poly_divmod(d, _poly_gcd(common, d))[0])
    cofactors = {k: _poly_divmod(common, d)[0] for k, d in dens.items()}
    cofactors[None] = common
    lcof = lcm(*{c.denominator for p in cofactors.values() for c in p.values()})
    cofactors = {k: _int_form(p, lcof) for k, p in cofactors.items()}

    def to_int(s):
        cof = cofactors[_den_key(s.den) if len(s.den) > 1 else None]
        return _lp_mul(scaled(s), cof)

    return common, lnum * lcof, to_int


class LinearOperator:
    __slots__ = ("domain", "codomain", "entries", "_by_col")

    def __init__(self, domain, codomain, entries):
        self.domain = tuple(domain)
        self.codomain = tuple(codomain)
        self.entries = {k: v for k, v in entries.items() if v}
        self._by_col = None

    @staticmethod
    def _raw(domain, codomain, entries):
        """Build from label tuples and a table with no zero entry (internal
        fast path)."""
        op = object.__new__(LinearOperator)
        op.domain = domain
        op.codomain = codomain
        op.entries = entries
        op._by_col = None
        return op

    @staticmethod
    def identity(labels):
        return LinearOperator(labels, labels, {(a, a): ONE for a in labels})

    @staticmethod
    def zero(domain, codomain=None):
        return LinearOperator(domain, codomain if codomain is not None else domain, {})

    def by_col(self):
        if self._by_col is None:
            cols = {}
            for (r, c), val in self.entries.items():
                cols.setdefault(c, []).append((r, val))
            self._by_col = cols
        return self._by_col

    def column(self, c):
        """Image of the basis vector c, as a dict {row: Scalar}."""
        return {r: val for r, val in self.by_col().get(c, [])}

    def apply(self, vec):
        out = {}
        cols = self.by_col()
        for c, coeff in vec.items():
            accumulate(out, cols.get(c, ()), coeff)
        return out

    def compose(self, other):
        """self o other (other applied first).

        Never adds two Scalars: self and other are each put over one common
        denominator (D1, D2) with int numerators scaled by L1, L2; the
        products are accumulated as int Laurent dicts; and each output entry
        is divided by L1*L2 (taken as is when that is 1) and, when D1*D2 is
        not 1, canonicalised once over D1*D2.  Cancelled entries are dropped
        here.  The canonical form is unique, so the result equals the sum of
        Scalar products, entry for entry.  Equal output entries share one
        Scalar, built (and canonicalised) once per distinct value.
        """
        if other.codomain != self.domain:
            raise ValueError("composition dimension mismatch")
        den1, scale1, to_int1 = _over_one_denominator(self.entries)
        den2, scale2, to_int2 = _over_one_denominator(other.entries)
        cols = {}
        ints = {}  # lifted operators repeat one Scalar object many times
        for (r1, c1), v1 in self.entries.items():
            n1 = ints.get(id(v1))
            if n1 is None:
                n1 = ints[id(v1)] = to_int1(v1)
            cols.setdefault(c1, []).append((r1, n1))
        acc = {}
        for (r2, c2), v2 in other.entries.items():
            col = cols.get(r2)
            if col is None:
                continue
            n2 = to_int2(v2)
            for r1, n1 in col:
                key = (r1, c2)
                a = acc.get(key)
                if a is None:
                    acc[key] = a = {}
                _lp_fma(a, n1, n2)
        scale = scale1 * scale2
        quotient = lru_cache(maxsize=None)(lambda c: _div(c, scale))
        den = _lp_mul(den1, den2)
        shared = {}  # frozenset of an accumulated dict -> its output Scalar
        cancelled = []
        for key, a in acc.items():
            if not a:
                cancelled.append(key)
                continue
            k = frozenset(a.items())
            s = shared.get(k)
            if s is None:
                num = a if scale == 1 else {e: quotient(c) for e, c in a.items()}
                s = Scalar(num, den) if len(den) > 1 else Scalar._raw(num, _DEN_ONE)
                shared[k] = s
            acc[key] = s
        for key in cancelled:
            del acc[key]
        return LinearOperator._raw(other.domain, self.codomain, acc)

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ValueError("addition dimension mismatch")
        out = accumulate(dict(self.entries), other.entries.items())
        return LinearOperator(self.domain, self.codomain, out)

    def __sub__(self, other):
        return self + other.scale(-ONE)

    def scale(self, c):
        if not c:
            return LinearOperator.zero(self.domain, self.codomain)
        return LinearOperator(
            self.domain, self.codomain, {k: c * v for k, v in self.entries.items()}
        )

    def __neg__(self):
        return self.scale(-ONE)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, LinearOperator):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.entries == other.entries
        )

    def commutes_with(self, other):
        return (self @ other) == (other @ self)


def lift_block_op(op, labels, r, start, width):
    """Embed an operator on V^(x)width at slots start..start+width-1 of V^(x)r."""
    words = [tuple(w) for w in product(labels, repeat=r)]
    entries = {}
    for ctx in product(labels, repeat=r - width):
        pre, post = ctx[: start - 1], ctx[start - 1:]
        for (rw, cw), val in op.entries.items():
            entries[(pre + rw + post, pre + cw + post)] = val
    return LinearOperator(words, words, entries)
