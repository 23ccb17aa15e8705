"""Exact sparse linear operators over the scalar field.

Operators store a coefficient table {(row_label, col_label): Scalar} together
with ordered domain/codomain label lists.  Labels are ints for V itself and
tuples of ints for tensor powers.  No zero entries are ever stored, so
equality of operators is equality of tables.

Composition is fraction-free and runs on Kronecker-packed ints.  Each operand
is put over one common denominator with integer numerators, working once per
distinct Scalar value: operators repeat one value many times, lifted ones as
one object and sums and scalings as equal new objects.  Each
int-coefficient Laurent numerator p is then packed into one Python int,
sum(c << B*(e - lo)) over its terms c*v^e, where lo is the least exponent of
the operand.  Packing turns a product of Laurent polynomials into one int
product, and a sum into one int sum, so every product-accumulate is one
big-int multiply-add.  The digit width B is chosen so that no digit can
overflow: an output coefficient is a sum of at most K products, K the most
products that meet in one entry, so its size is at most K*N1*N2, N1 and N2
the largest l1 norms of the two operands' numerators, and B makes that less
than 2^(B-1).  Each distinct accumulated int is then decoded once into
balanced digits in [-2^(B-1), 2^(B-1)), which are exactly the output
coefficients; a packed 0 is an entry that cancelled.  Each decoded entry is
divided by the operands' scales and cancelled against their common
denominator by one gcd.  Canonical form is unique, so the table does not
depend on this route: it is the table that summing Scalar products entry by
entry would give.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import lcm
from operator import itemgetter

from .scalar import (
    ONE,
    _cancel,
    _div,
    _lp_mul,
    _made,
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


def _pack(ints, width):
    """(lo, packed): lo is the least exponent of the int Laurent dicts in
    ints, and packed maps each key to its dict p as one int,
    sum(c << width*(e - lo)) over p's terms."""
    lo = min(map(min, ints.values()))
    packed = {}
    for k, p in ints.items():
        n = 0
        for e, c in p.items():
            n += c << width * (e - lo)
        packed[k] = n
    return lo, packed


def _unpack(n, width, lo):
    """The int Laurent dict packed as n at this width and least exponent.

    Its digits are balanced, in [-2^(width-1), 2^(width-1)): & on a negative
    int gives the two's-complement low bits, and a digit of half or more is
    a negative coefficient borrowing one from the next digit."""
    mask, half, full = (1 << width) - 1, 1 << (width - 1), 1 << width
    out = {}
    e = lo
    while n:
        d = n & mask
        if d >= half:
            d -= full
        if d:
            out[e] = d
        n = (n - d) >> width
        e += 1
    return out


def _l1_max(ints):
    """The largest l1 norm of the int Laurent dicts in ints."""
    return max(sum(map(abs, p.values())) for p in ints.values())


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

        Never adds two Scalars.  self and other are each put over one common
        denominator (D1, D2) with int numerators scaled by L1, L2, once per
        distinct entry value, and each numerator is packed into one int
        (see the module docstring).  The digit width B is the least with
        K*N1*N2 < 2^(B-1), where K is the smaller of len(self.domain) and
        the longest column of other, and N1, N2 are the largest l1 norms of
        self's and other's numerators.  Each output entry accumulates its
        products as packed ints, one multiply-add each.  Each distinct
        nonzero sum is decoded once into balanced digits, divided by L1*L2
        (taken as is when that is 1) and, when D1*D2 is not 1, cancelled
        once against D1*D2, which is monic with nonzero constant term, by
        one gcd; entries whose sum is 0 cancelled and are dropped.
        The canonical form is unique, so the result equals the sum of Scalar
        products, entry for entry.  Equal output entries share one Scalar.
        """
        if other.codomain != self.domain:
            raise ValueError("composition dimension mismatch")
        if not self.entries or not other.entries:
            return LinearOperator._raw(other.domain, self.codomain, {})
        # operators repeat one value many times, often as distinct objects
        vals1 = {v: v for v in self.entries.values()}
        vals2 = {v: v for v in other.entries.values()}
        den1, scale1, to_int1 = _over_one_denominator(vals1)
        den2, scale2, to_int2 = _over_one_denominator(vals2)
        ints1 = {k: to_int1(v) for k, v in vals1.items()}
        ints2 = {k: to_int2(v) for k, v in vals2.items()}
        # K, the most products one output entry sums
        k = min(len(self.domain), max(Counter(map(itemgetter(1), other.entries)).values()))
        width = (k * _l1_max(ints1) * _l1_max(ints2)).bit_length() + 1
        lo1, packed1 = _pack(ints1, width)
        lo2, packed2 = _pack(ints2, width)
        # the sums are keyed by a row index, cheaper to hash than a label
        rows = {}
        cols = {}
        for (r1, c1), v1 in self.entries.items():
            i = rows.setdefault(r1, len(rows))
            cols.setdefault(c1, []).append((i, packed1[v1]))
        row_labels = list(rows)
        acc = {}  # column of other -> {row index: packed sum}
        for (r2, c2), v2 in other.entries.items():
            col = cols.get(r2)
            if col is None:
                continue
            n2 = packed2[v2]
            out = acc.get(c2)
            if out is None:
                out = acc[c2] = {}
            for i, n1 in col:
                out[i] = out.get(i, 0) + n1 * n2
        scale = scale1 * scale2
        den = _lp_mul(den1, den2)
        shared = {}  # packed sum -> its output Scalar
        table = {}
        for c2, out in acc.items():
            for i, n in out.items():
                if not n:
                    continue  # the products cancelled
                s = shared.get(n)
                if s is None:
                    num = _unpack(n, width, lo1 + lo2)
                    if scale != 1:
                        num = {e: _div(c, scale) for e, c in num.items()}
                    s = _made(*_cancel(num, den))
                    shared[n] = s
                table[(row_labels[i], c2)] = s
        return LinearOperator._raw(other.domain, self.codomain, table)

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
    words = tuple(product(labels, repeat=r))
    entries = {}
    for ctx in product(labels, repeat=r - width):
        pre, post = ctx[: start - 1], ctx[start - 1:]
        for (rw, cw), val in op.entries.items():
            entries[(pre + rw + post, pre + cw + post)] = val
    # op stores no zero entry, so neither does its lift
    return LinearOperator._raw(words, words, entries)
