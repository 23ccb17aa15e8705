"""Exact sparse linear algebra over the scalar field.

Vectors are dicts {key: Scalar} over any totally ordered key set (ints,
label tuples, words).  Exact elimination swells coefficients, so pivots are
chosen for size: the entry with the fewest numerator plus denominator terms
(``_size``), in the Markowitz style.  The choice never shows in an output.
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


class EchelonBasis:
    """Incrementally maintained echelon basis.

    Each stored row is the residual of an added vector against the rows
    stored before it, scaled so that its pivot entry is 1.  The pivot is the
    residual's smallest entry by ``_size``, ties going to the smallest key.
    Rank and span membership do not depend on that choice.
    """

    def __init__(self):
        self.pivots = {}  # pivot key -> row, pivot scaled to 1; insertion order

    def __len__(self):
        return len(self.pivots)

    def reduce(self, vec):
        """Residual of vec after subtracting pivot rows; fresh dict.

        One pass in insertion order suffices: a stored row has no entry at
        any earlier pivot, so a later step never brings back a cleared one.
        """
        out = dict(vec)
        for p, row in self.pivots.items():
            c = out.get(p)
            if c:
                out = vec_axpy(out, -c, row)
        return out

    def add(self, vec):
        """Insert vec; returns True if it enlarged the span."""
        res = self.reduce(vec)
        if not res:
            return False
        p = min(res, key=lambda k: (_size(res[k]), k))
        inv = res[p].inverse()
        self.pivots[p] = {k: inv * c for k, c in res.items()}
        return True

    def contains(self, vec):
        return not self.reduce(vec)

    def rank(self):
        return len(self.pivots)


def rank(vectors):
    eb = EchelonBasis()
    for v in vectors:
        eb.add(v)
    return eb.rank()


class Expresser:
    """Writes target vectors as exact combinations of a fixed column list.

    The rows are kept as in ``EchelonBasis``, pivot on the smallest entry,
    each with its coordinates over the columns, so one insertion-order pass
    reduces a vector.
    """

    def __init__(self, columns):
        self.rows = {}  # pivot key -> (row, pivot scaled to 1; coords col index -> Scalar)
        for idx, col in enumerate(columns):
            vec, coords = self._reduce(col, {idx: ONE})
            if vec:
                p = min(vec, key=lambda k: (_size(vec[k]), k))
                inv = vec[p].inverse()
                self.rows[p] = (
                    {k: inv * c for k, c in vec.items()},
                    {j: inv * c for j, c in coords.items()},
                )

    def _reduce(self, vec, coords):
        for p, (rv, rc) in self.rows.items():
            c = vec.get(p)
            if c:
                vec = vec_axpy(vec, -c, rv)
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
    pivots = []  # (col key, row with pivot scaled to 1), in column order
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
        pivot_row = work.pop(best[2])
        inv = pivot_row[key].inverse()
        pivot_row = {k: inv * c for k, c in pivot_row.items()}
        nxt = []
        for r in work:
            c = r.get(key)
            r2 = vec_axpy(r, -c, pivot_row) if c else r
            if r2:
                nxt.append(r2)
        work = nxt
        pivots.append((key, pivot_row))
    # Each pivot row holds only later columns, so once the rows after it are
    # reduced, subtracting them clears every other pivot column in one pass.
    reduced = {}
    for key, row in reversed(pivots):
        for pk, c in row.items():
            if pk in reduced:
                row = vec_axpy(row, -c, reduced[pk])
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
