"""Exact sparse linear operators over the scalar field.

Operators store their coefficients column-major, as
{col_label: {row_label: Scalar}}, together with ordered domain/codomain
label tuples.  Labels are ints for V itself and tuples of ints for tensor
powers.  The words of V^(x)r are one cached tuple (tensor_words), and
lift_block_op and compose build every operator on V^(x)r over it, so those
operators share their domain and every label object.  No column is empty and
no entry is zero, so equality of operators is equality of column tables.
The constructor takes a flat table {(row_label, col_label): Scalar}, and
`entries` is that flat view, derived from the columns on demand.

A lifted operator (lift_block_op) is a placement: an operator on
V^(x)width and the stride of the slots start..start+width-1 of V^(x)r it
sits on.  It is an operand of compose and nothing else; it has no column
table.  A plain operator is its own placement at stride 1, and compose
reads every operand as a placement: among the words in lexicographic order,
the block of word index c is (c // s) % n^width, s being the number of
words of the slots after the block and n = len(labels), and a small entry
moves c by (row block index less column block index) * s.

over_one_denominator puts named operators over one common denominator d,
P = M / d with every entry of every M a Laurent polynomial with int
coefficients, so that identities among them (P P = P as M M = d M) are
checked on Laurent numerators, which take no gcd.

Composition is fraction-free and runs on Kronecker-packed ints.  Each operand
is put over one common denominator with integer numerators, working once per
distinct Scalar value: operators repeat one value many times, lifted ones as
one object and sums and scalings as equal new objects.  Each
int-coefficient Laurent numerator p is then packed into one Python int on
the exponent lattice of the two operands: an operand's exponents are
lo + g_i*Z, lo its least exponent and g_i the gcd of every e - lo (0 for a
single exponent; _lattice), g = gcd(g1, g2) (1 when both are 0), and p is
sum(c << B*((e - lo) // g)) over its terms c*v^e, so digit k holds the
coefficient of v^(lo + g*k).  The R-checks have coefficients in q = v^2,
so cables pack at g = 2, into ints of half the size.  Packing turns a
product of Laurent polynomials into one int product, digit k1 times digit
k2 landing in digit k1 + k2 at v^(lo1 + lo2 + g*(k1 + k2)), and a sum into
one int sum, so every product-accumulate is one big-int multiply-add.  The
digit width B is chosen so that no digit can overflow: a digit is one output
coefficient, a sum of at most K products, K the most products that meet in
one entry, so its size is at most K*N1*N2, N1 and N2 the largest l1 norms
of the two operands' numerators, and B makes that less than 2^(B-1).  Each
distinct accumulated int is then decoded once into balanced digits in
[-2^(B-1), 2^(B-1)), which are exactly the output coefficients; a packed 0
is an entry that cancelled.  Each decoded entry is divided by the operands'
scales and cancelled against their common denominator by one gcd.
Operands are prepared, bounded and decoded from
their small operators, whose entries are the lifts' entries: a column of a
lift holds the entries of one small column, so K is the longest column of
the small operator applied first.  Canonical form is unique, so the table
does not depend on this route: it is the table that summing Scalar
products entry by entry would give.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from types import MappingProxyType

from .scalar import (
    ONE,
    _DEN_ONE,
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


def over_one_denominator(ops):
    """Put operators over one common denominator: (d, {name: M}) for a
    mapping of named operators, with ops[name] == M.scale(d.inverse()).

    d is one nonzero Laurent Scalar and every entry of every M is a Laurent
    Scalar with int coefficients, so sums, scalings by Laurent scalars and
    composes of the M take no gcd.  The conversion is compose's
    (_over_one_denominator) over the entries of all the operators at once,
    once per distinct value; equal entries share one numerator.
    """
    ids, vals = _values_by_id(
        {(name, c): col for name, op in ops.items() for c, col in op.cols.items()}
    )
    den, scale, to_int = _over_one_denominator(vals)
    nums = {v: _made(to_int(v), _DEN_ONE) for v in vals}
    by_id = {i: nums[v] for i, v in ids.items()}
    out = {
        name: LinearOperator._raw(
            op.domain,
            op.codomain,
            {c: {r: by_id[id(x)] for r, x in col.items()} for c, col in op.cols.items()},
        )
        for name, op in ops.items()
    }
    return _made(_int_form(den, scale), _DEN_ONE), out


def _lattice(ints):
    """(lo, g): the least exponent of the int Laurent dicts in ints, and the
    gcd of every exponent less lo, which is 0 when every exponent is lo."""
    lo = min(map(min, ints.values()))
    return lo, gcd(*{e - lo for p in ints.values() for e in p})


def _pack(ints, width, lo, step):
    """{key: its dict p as one int}, sum(c << width*((e - lo) // step)) over
    p's terms; every e - lo is a multiple of step."""
    packed = {}
    for k, p in ints.items():
        n = 0
        for e, c in p.items():
            n += c << width * ((e - lo) // step)
        packed[k] = n
    return packed


def _unpack(n, width, lo, step):
    """The int Laurent dict packed as n at this width, least exponent and
    step: digit k is the coefficient of v^(lo + step*k).

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
        e += step
    return out


def _l1_max(ints):
    """The largest l1 norm of the int Laurent dicts in ints."""
    return max(sum(map(abs, p.values())) for p in ints.values())


# id(tensor_words tuple) -> its index, or None until first use; the cache
# holds every such tuple, so no other object takes its id
_INDEXES = {}


@lru_cache(maxsize=None)
def tensor_words(labels, r):
    """The words of V^(x)r over the letters labels, in lexicographic order.

    One tuple per (labels, r), so every operator on V^(x)r built over it
    shares its domain and its label objects."""
    words = tuple(product(labels, repeat=r))
    _INDEXES[id(words)] = None  # indexed on first use
    return words


def _label_index(labels):
    """{label: position} over a label tuple.

    A tensor_words tuple's index is built once and kept, keyed by the
    object, not its value, so a lookup never hashes the words; operators on
    V^(x)r share that tuple.  Any other tuple gets an index that is not kept,
    so a caller building fresh tuples leaves nothing behind."""
    at = _INDEXES.get(id(labels))
    if at is None:
        at = {w: i for i, w in enumerate(labels)}
        if id(labels) in _INDEXES:
            _INDEXES[id(labels)] = at
    return at


def _decoder(width, lo, step, scale, den):
    """decode(acc, labels): {labels[i]: Scalar} for the nonzero packed sums
    {i: n} of acc, at this digit width, least exponent and step.

    Each distinct sum is decoded once into balanced digits, which are the
    coefficients, divided by scale (taken as is when that is 1) and, when
    den is not 1, cancelled once against den, which is monic with nonzero
    constant term, by one gcd; equal sums share one Scalar.  A sum of 0
    cancelled and has no entry."""
    shared = {}  # packed sum -> its Scalar

    def decode(acc, labels):
        out = {}
        for i, n in acc.items():
            if not n:
                continue  # the products cancelled
            s = shared.get(n)
            if s is None:
                num = _unpack(n, width, lo, step)
                if scale != 1:
                    num = {e: _div(c, scale) for e, c in num.items()}
                s = shared[n] = _made(*_cancel(num, den))
            out[labels[i]] = s
        return out

    return decode


def _values_by_id(cols):
    """({id(s): s} over a column table's entries, {s: s} over their distinct
    values): one Scalar hash per distinct object, not per entry."""
    objs = {id(v): v for col in cols.values() for v in col.values()}
    return objs, {v: v for v in objs.values()}


class _Entries(Mapping):
    """The flat {(row, col): Scalar} view of a column table.  A view, not a
    dict, since the benchmark's tracer takes len(op.entries) after every
    compose."""

    __slots__ = ("_cols",)

    def __init__(self, cols):
        self._cols = cols

    def __getitem__(self, key):
        try:
            r, c = key
        except (TypeError, ValueError):  # not a (row, col) pair
            raise KeyError(key) from None
        return self._cols.get(c, {})[r]

    def __iter__(self):
        return ((r, c) for c, col in self._cols.items() for r in col)

    def __len__(self):
        return sum(map(len, self._cols.values()))


class LinearOperator:
    __slots__ = ("domain", "codomain", "cols")
    stride = 1  # a plain operator is its own placement at stride 1

    def __init__(self, domain, codomain, entries):
        self.domain = tuple(domain)
        self.codomain = tuple(codomain)
        rows, columns = set(self.codomain), set(self.domain)
        cols = {}
        for (r, c), v in entries.items():
            if r not in rows or c not in columns:
                raise ValueError(f"entry ({r!r}, {c!r}) is outside the operator")
            if v:
                cols.setdefault(c, {})[r] = v
        self.cols = cols

    @staticmethod
    def _raw(domain, codomain, cols):
        """Build from label tuples and a column table with no empty column
        and no zero entry (internal fast path)."""
        op = object.__new__(LinearOperator)
        op.domain = domain
        op.codomain = codomain
        op.cols = cols
        return op

    @staticmethod
    def identity(labels):
        return LinearOperator(labels, labels, {(a, a): ONE for a in labels})

    @staticmethod
    def zero(domain, codomain=None):
        return LinearOperator(domain, codomain if codomain is not None else domain, {})

    @property
    def op(self):
        """The small operator this one places: itself."""
        return self

    @property
    def entries(self):
        """The flat table {(row, col): Scalar}, a read-only view."""
        return _Entries(self.cols)

    def column(self, c):
        """Image of the basis vector c, as a read-only {row: Scalar}."""
        return MappingProxyType(self.cols.get(c, {}))

    def apply(self, vec):
        out = {}
        cols = self.cols
        for c, coeff in vec.items():
            accumulate(out, cols.get(c, {}).items(), coeff)
        return out

    def compose(self, other):
        """self o other (other applied first).

        Never adds two Scalars.  Each operand is read as a placement (a
        plain operator is its own, at stride 1), so no lifted table is
        built.  The small operators of self and other are each put over one
        common denominator (D1, D2) with int numerators scaled by L1, L2,
        once per distinct entry value, and each numerator is packed into
        one int whose digit k holds the coefficient of v^(lo + g*k), lo its
        operand's least exponent and g the gcd of both operands' exponent
        steps (see the module docstring); entries are then looked up by
        object id, so no entry is hashed as a Scalar.  The digit width B is
        the least with K*N1*N2 < 2^(B-1), where K is the smaller of
        len(self.domain) and the longest column of other's small operator,
        whatever kind other is, and N1, N2 are the largest l1 norms of the
        two numerators.  Column c of other reads other's small column at
        (c // s2) % n2, s2 being other's stride and n2 its small operator's
        column count; each of its rows j reads self's small column at
        (j // s1) % n1.  A small column is read as (row index less column
        index, times the stride, packed value) pairs, and each output row
        accumulates its products as packed ints, one multiply-add each.
        Each distinct nonzero sum is decoded once (_decoder); entries whose
        sum is 0 cancelled and are dropped, and so is a column left empty.
        Columns come in the order of other's lift and rows in the order
        they are met; their labels are the label objects of other's domain
        and self's codomain.  The canonical form is unique, so the result
        equals the sum of Scalar products, entry for entry.  Equal output
        entries share one Scalar.
        """
        if other.codomain != self.domain:
            raise ValueError("composition dimension mismatch")
        left, right = self.op.cols, other.op.cols
        if not left or not right:
            return LinearOperator._raw(other.domain, self.codomain, {})
        # operators repeat one value many times, often as distinct objects
        ids1, vals1 = _values_by_id(left)
        ids2, vals2 = _values_by_id(right)
        den1, scale1, to_int1 = _over_one_denominator(vals1)
        den2, scale2, to_int2 = _over_one_denominator(vals2)
        ints1 = {k: to_int1(v) for k, v in vals1.items()}
        ints2 = {k: to_int2(v) for k, v in vals2.items()}
        # K, the most products one output entry sums
        k = min(len(self.domain), max(map(len, right.values())))
        width = (k * _l1_max(ints1) * _l1_max(ints2)).bit_length() + 1
        (lo1, g1), (lo2, g2) = _lattice(ints1), _lattice(ints2)
        step = gcd(g1, g2) or 1  # each operand's exponents lie on its lo + step*Z
        packed1, packed2 = _pack(ints1, width, lo1, step), _pack(ints2, width, lo2, step)
        packed1 = {i: packed1[v] for i, v in ids1.items()}
        packed2 = {i: packed2[v] for i, v in ids2.items()}
        decode = _decoder(width, lo1 + lo2, step, scale1 * scale2, _lp_mul(den1, den2))
        rows, columns = self.codomain, other.domain
        outer, inner = self._small_columns(packed1), other._small_columns(packed2)
        s1, n1, s2, n2 = self.stride, len(outer), other.stride, len(inner)
        table = {}
        for c in other._column_indices():
            acc = {}  # row index -> packed sum
            for d2, x2 in inner[(c // s2) % n2]:
                j = c + d2
                for d1, x1 in outer[(j // s1) % n1]:
                    i = j + d1
                    acc[i] = acc.get(i, 0) + x1 * x2
            out = decode(acc, rows)
            if out:
                table[columns[c]] = out
        return LinearOperator._raw(other.domain, self.codomain, table)

    def _small_columns(self, by_id):
        """op's columns by domain index, empty where op has none: each as
        (row index less column index, times stride, by_id[id(entry)]) pairs
        in op's order, rows indexed in op's codomain and columns in its
        domain.  A placed entry's indices differ by its block words' indices
        times stride, so no label is built."""
        cols, stride = self.op.cols, self.stride
        at = _label_index(self.op.codomain)
        return [
            [((at[w] - b) * stride, by_id[id(v)]) for w, v in cols.get(c, {}).items()]
            for b, c in enumerate(self.op.domain)
        ]

    def _column_indices(self):
        """The indices of the lift's nonempty columns, ordered by the slots
        before the block, then after it, then op's columns."""
        stride = self.stride
        at = _label_index(self.op.domain)
        offsets = [at[c] * stride for c in self.op.cols]
        for pre in range(0, len(self.domain), len(at) * stride):
            for base in range(pre, pre + stride):
                for off in offsets:
                    yield base + off

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ValueError("addition dimension mismatch")
        cols = {c: dict(col) for c, col in self.cols.items()}
        for c, col in other.cols.items():
            mine = cols.get(c)
            if mine is None:
                cols[c] = dict(col)
            elif not accumulate(mine, col.items()):
                del cols[c]
        return LinearOperator._raw(self.domain, self.codomain, cols)

    def __sub__(self, other):
        return self + other.scale(-ONE)

    def scale(self, c):
        if not c:
            return LinearOperator.zero(self.domain, self.codomain)
        # a product of nonzero field elements is nonzero
        return LinearOperator._raw(
            self.domain,
            self.codomain,
            {col: {r: c * v for r, v in rows.items()} for col, rows in self.cols.items()},
        )

    def is_zero(self):
        return not self.cols

    def __eq__(self, other):
        if not isinstance(other, LinearOperator):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.cols == other.cols
        )


class _Placement(LinearOperator):
    """An operator on V^(x)width placed at slots start..start+width-1 of
    V^(x)r, built by lift_block_op.  It holds op and the stride of its place
    and is an operand of compose, which reads it as a placement (op,
    stride), and nothing else: it has no column table."""

    __slots__ = ("op", "stride")

    def __init__(self, op, labels, r, start, width):
        # index arithmetic would wrap a bad place round silently
        if start < 1 or start + width - 1 > r:
            raise ValueError(f"slots {start}..{start + width - 1} are not inside 1..{r}")
        if isinstance(op, _Placement):
            raise ValueError("a placement cannot be placed again")
        block = tensor_words(labels, width)
        if op.domain != block or op.codomain != block:
            raise ValueError(f"the operator is not on the words of V^(x){width}")
        self.domain = self.codomain = tensor_words(labels, r)
        self.op = op
        self.stride = len(labels) ** (r - start - width + 1)  # the words after the block


def lift_block_op(op, labels, r, start, width):
    """Place an operator on V^(x)width at slots start..start+width-1 of V^(x)r.

    op's labels are words over labels.  The result is an operand of compose
    (@) and nothing else: it records op and its place, has no column table,
    and composes with a placement or a plain operator on either side as
    their lift, op on the block and the identity on the other slots (see
    compose).
    ValueError if the slots are not inside 1..r, op is itself a placement,
    or op is not on the words of V^(x)width."""
    return _Placement(op, labels, r, start, width)
