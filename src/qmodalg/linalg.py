"""Exact sparse linear algebra over the scalar field.

Vectors are dicts {key: Scalar} over any totally ordered key set (ints,
label tuples, words).  Exact elimination swells coefficients, so pivots are
chosen for size: the entry with the fewest numerator plus denominator terms
(``_size``), in the Markowitz style.  The choice never shows in an output.
A pivot row is scaled so that its pivot entry is 1 and stored without that
entry: a step that reduces a vector by it drops the vector's entry at the
pivot, which the step cancels, rather than compute c - c*1 there.
``nullspace`` returns the reduced echelon basis over the given column order,
and that basis is unique: a column is a pivot column exactly when it is not
in the span of the earlier columns, whichever row supplies it.  An
``EchelonBasis`` exposes only its rank and span membership, which no pivot
choice changes.  Ties are broken by sizes and positions, never by hashing,
so repeated runs do the same arithmetic.
"""

from __future__ import annotations

from .scalar import ONE, accumulate


def _size(c):
    """Pivot cost of a scalar: its numerator plus denominator term count."""
    return len(c.num) + len(c.den)


def vec_axpy(a, c, b):
    """a + c*b, in a fresh dict."""
    out = dict(a)
    return accumulate(out, b.items(), c) if c else out


def _eliminate(vec, p, tail):
    """vec less vec[p] times the pivot row with entry 1 at p and tail
    elsewhere, in a fresh dict; the entry at p cancels, so it is dropped."""
    out = dict(vec)
    return accumulate(out, tail.items(), -out.pop(p))


def _scaled_tail(vec, p):
    """The entries of vec other than p, divided by vec[p]."""
    inv = vec[p].inverse()
    return {k: inv * c for k, c in vec.items() if k != p}


class EchelonBasis:
    """Incrementally maintained echelon basis.

    Each stored row is the residual of an added vector against the rows
    stored before it, scaled so that its pivot entry is 1, and kept without
    that entry.  The pivot is the residual's smallest entry by ``_size``,
    ties going to the smallest key.  Rank and span membership do not depend
    on that choice.
    """

    def __init__(self):
        self.pivots = {}  # pivot key -> row less its pivot entry 1; insertion order

    def __len__(self):
        return len(self.pivots)

    def reduce(self, vec):
        """Residual of vec after subtracting pivot rows; fresh dict.

        One pass in insertion order suffices: a stored row has no entry at
        any earlier pivot, so a later step never brings back a cleared one.
        """
        out = dict(vec)
        for p, tail in self.pivots.items():
            if out.get(p):
                out = _eliminate(out, p, tail)
        return out

    def add(self, vec):
        """Insert vec; returns True if it enlarged the span."""
        res = self.reduce(vec)
        if not res:
            return False
        p = min(res, key=lambda k: (_size(res[k]), k))
        self.pivots[p] = _scaled_tail(res, p)
        return True

    def contains(self, vec):
        return not self.reduce(vec)

    def rank(self):
        return len(self.pivots)


class Expresser:
    """Writes target vectors as exact combinations of a fixed column list.

    The rows are kept as in ``EchelonBasis``, pivot on the smallest entry,
    each with its coordinates over the columns, so one insertion-order pass
    reduces a vector.
    """

    def __init__(self, columns):
        self.rows = {}  # pivot key -> (row less its pivot entry 1; coords col index -> Scalar)
        for idx, col in enumerate(columns):
            vec, coords = self._reduce(col, {idx: ONE})
            if vec:
                p = min(vec, key=lambda k: (_size(vec[k]), k))
                inv = vec[p].inverse()
                self.rows[p] = (
                    {k: inv * c for k, c in vec.items() if k != p},
                    {j: inv * c for j, c in coords.items()},
                )

    def _reduce(self, vec, coords):
        for p, (rv, rc) in self.rows.items():
            c = vec.get(p)
            if c:
                vec = _eliminate(vec, p, rv)
                coords = vec_axpy(coords, -c, rc)
        return vec, coords

    def rank(self):
        return len(self.rows)

    def express(self, target):
        """Coordinates of target over the columns, or None if outside span."""
        vec, coords = self._reduce(target, {})
        if vec:
            return None
        return {j: -c for j, c in coords.items()}


def nullspace(rows, col_keys):
    """Basis of the right nullspace of the matrix with the given rows.

    rows: list of dicts {col_key: Scalar}; col_keys: ordered column list.
    Returns vectors as dicts over col_keys, deterministically ordered by
    their free column.

    Forward elimination visits the columns in order.  Its pivot is the
    smallest entry in the column by ``_size``, ties going to the row with
    fewest nonzeros, then to the earlier row.  The pivot rows are then
    back-substituted once, last to first, into the reduced echelon form.
    """
    work = [dict(r) for r in rows if r]
    pivots = []  # (col key, row less its pivot entry 1), in column order
    for key in col_keys:
        best = None
        for i, r in enumerate(work):
            c = r.get(key)
            if c is not None:
                cost = (_size(c), len(r), i)
                if best is None or cost < best:
                    best = cost
        if best is None:
            continue
        tail = _scaled_tail(work.pop(best[2]), key)
        nxt = []
        for r in work:
            r2 = _eliminate(r, key, tail) if key in r else r
            if r2:
                nxt.append(r2)
        work = nxt
        pivots.append((key, tail))
    # Each pivot row holds only later columns, so once the rows after it are
    # reduced, subtracting them clears every other pivot column in one pass.
    reduced = {}
    for key, row in reversed(pivots):
        for pk in list(row):
            if pk in reduced:
                row = _eliminate(row, pk, reduced[pk])
        reduced[key] = row
    free = [k for k in col_keys if k not in reduced]
    basis = []
    for f in free:
        vec = {f: ONE}
        for pk, _ in pivots:
            c = reduced[pk].get(f)
            if c:
                vec[pk] = -c
        basis.append(vec)
    return basis
