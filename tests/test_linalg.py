"""Equivalence of the size-pivoted elimination with first-row elimination.

The references below are the earlier pivot rules, kept as oracles: nullspace
pivoting on the first row that holds the column and clearing each pivot out
of the earlier pivot rows at once, and an echelon basis pivoting on the
smallest key.  The reduced echelon nullspace basis, rank and span membership
do not depend on the pivot rule, so both must agree exactly.  A third
reference keeps the size pivot rule but stores each pivot row whole, entry 1
at the pivot included, and subtracts it with plain vec_axpy; dropping the
pivot entry instead of computing it must change no residual, coordinate or
key order.
"""

import random
from fractions import Fraction

import pytest

from qmodalg.linalg import EchelonBasis, Expresser, _size, nullspace, vec_axpy
from qmodalg.scalar import ONE, ZERO, Scalar


def _echelon(vectors):
    """An EchelonBasis with every vector added, in order."""
    eb = EchelonBasis()
    for v in vectors:
        eb.add(v)
    return eb


def reference_nullspace(rows, col_keys):
    work = [dict(r) for r in rows if r]
    pivots = {}
    for key in col_keys:
        pivot_row = None
        for i, r in enumerate(work):
            if key in r:
                pivot_row = work.pop(i)
                break
        if pivot_row is None:
            continue
        inv = pivot_row[key].inverse()
        pivot_row = {k: inv * c for k, c in pivot_row.items()}
        for other_key, other in list(pivots.items()):
            c = other.get(key)
            if c:
                pivots[other_key] = vec_axpy(other, -c, pivot_row)
        nxt = []
        for r in work:
            c = r.get(key)
            r2 = vec_axpy(r, -c, pivot_row) if c else r
            if r2:
                nxt.append(r2)
        work = nxt
        pivots[key] = pivot_row
    free = [k for k in col_keys if k not in pivots]
    basis = []
    for f in free:
        vec = {f: ONE}
        for pk, row in pivots.items():
            c = row.get(f)
            if c:
                vec[pk] = -c
        basis.append(vec)
    return basis


class ReferenceEchelonBasis:
    def __init__(self):
        self.pivots = {}

    def reduce(self, vec):
        out = dict(vec)
        while out:
            hits = [k for k in out if k in self.pivots]
            if not hits:
                return out
            for k in sorted(hits):
                c = out.get(k)
                if c:
                    out = vec_axpy(out, -c, self.pivots[k])
        return out

    def add(self, vec):
        res = self.reduce(vec)
        if not res:
            return False
        p = min(res.keys())
        inv = res[p].inverse()
        self.pivots[p] = {k: inv * c for k, c in res.items()}
        return True

    def contains(self, vec):
        return not self.reduce(vec)

    def rank(self):
        return len(self.pivots)


class FullRowExpresser:
    """Expresser's size pivot rule, each pivot row kept whole and subtracted
    by vec_axpy, so the entry at the pivot is computed and then cancels."""

    def __init__(self, columns):
        self.rows = {}
        for idx, col in enumerate(columns):
            vec, coords = self.reduce(col, {idx: ONE})
            if vec:
                p = min(vec, key=lambda k: (_size(vec[k]), k))
                inv = vec[p].inverse()
                self.rows[p] = (
                    {k: inv * c for k, c in vec.items()},
                    {j: inv * c for j, c in coords.items()},
                )

    def reduce(self, vec, coords):
        for p, (rv, rc) in self.rows.items():
            c = vec.get(p)
            if c:
                vec = vec_axpy(vec, -c, rv)
                coords = vec_axpy(coords, -c, rc)
        return vec, coords

    def express(self, target):
        vec, coords = self.reduce(target, {})
        return None if vec else {j: -c for j, c in coords.items()}


def _laurent(rng, lo, hi):
    while True:
        exps = rng.sample(range(lo, hi + 1), rng.randint(1, 2))
        p = {e: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for e in exps}
        if any(p.values()):
            return p


def _scalar(rng):
    """A nonzero rational function in v; about half have a real denominator."""
    while True:
        den = _laurent(rng, 0, 2) if rng.random() < 0.5 else {0: Fraction(1)}
        s = Scalar(_laurent(rng, -1, 2), den)
        if s:
            return s


def _sparse_row(rng, keys, density):
    row = {k: _scalar(rng) for k in keys if rng.random() < density}
    return row or {rng.choice(keys): _scalar(rng)}


def _combination(rng, vectors):
    out = {}
    for v in rng.sample(vectors, min(len(vectors), rng.randint(1, 3))):
        out = vec_axpy(out, _scalar(rng), v)
    return out


def _matrix(rng, nrows, keys, rank_bound, density):
    """Rows over keys: rank_bound random rows, the rest their combinations,
    duplicates and zero rows, shuffled."""
    base = [_sparse_row(rng, keys, density) for _ in range(rank_bound)]
    rows = list(base)
    while len(rows) < nrows:
        kind = rng.random()
        if kind < 0.2:
            rows.append(dict(rng.choice(rows)))
        elif kind < 0.3:
            rows.append({})
        else:
            rows.append(_combination(rng, base))
    rng.shuffle(rows)
    return rows


def _in_kernel(rows, vec):
    return all(not sum((c * vec[k] for k, c in r.items() if k in vec), ZERO) for r in rows)


# (rows, columns, rank bound, density): full rank, deficient, wide, tall
SHAPES = [(4, 6, 4, 0.5), (6, 6, 3, 0.6), (3, 8, 3, 0.4), (7, 4, 4, 0.5), (4, 4, 4, 0.7)]
SEEDS = range(8)


def _case(shape, seed, keys):
    """Rows of one drawn matrix over keys, in a seeded shuffled column order."""
    nrows, ncols, rank_bound, density = shape
    rng = random.Random(1000 * nrows + 100 * ncols + seed)
    col_keys = list(keys[:ncols])
    rng.shuffle(col_keys)
    support = col_keys[: ncols - 1] if seed % 2 else col_keys  # odd seeds: a zero column
    return rng, _matrix(rng, nrows, support, rank_bound, density), col_keys


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "%dx%d-rank%d" % s[:3])
def test_nullspace_matches_first_row_pivoting(shape):
    for seed in SEEDS:
        _, rows, col_keys = _case(shape, seed, range(10))  # column order is not key order
        got, want = nullspace(rows, col_keys), reference_nullspace(rows, col_keys)
        assert got == want, seed
        assert [list(v) for v in got] == [list(v) for v in want]  # same key order too
        assert all(_in_kernel(rows, v) for v in got)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "%dx%d-rank%d" % s[:3])
def test_echelon_basis_matches_smallest_key_pivoting(shape):
    for seed in SEEDS:
        rng, vectors, keys = _case(shape, seed, [("w", i) for i in range(10)])
        eb, ref = EchelonBasis(), ReferenceEchelonBasis()
        for v in vectors:
            assert eb.add(v) == ref.add(v), seed
            assert eb.rank() == ref.rank() == len(eb)
        assert _echelon(vectors).rank() == ref.rank()
        nonzero = [v for v in vectors if v]
        probes = [_combination(rng, nonzero), _sparse_row(rng, keys, shape[3]), {}]
        for p in probes:
            assert eb.contains(p) == ref.contains(p), (seed, p)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "%dx%d-rank%d" % s[:3])
def test_expresser_coordinates_recombine_to_the_target(shape):
    for seed in SEEDS:
        rng, vectors, keys = _case(shape, seed, [("w", i) for i in range(10)])
        columns = [v for v in vectors if v]
        columns.insert(rng.randint(1, len(columns)), _combination(rng, columns))
        expr, eb = Expresser(columns), _echelon(columns)
        assert expr.rank() == eb.rank() < len(columns), seed
        inside = _combination(rng, columns)
        coords = expr.express(inside)
        recombined = {}
        for j, c in coords.items():
            recombined = vec_axpy(recombined, c, columns[j])
        assert recombined == inside, seed
        assert expr.express({}) == {}
        assert expr.express(vec_axpy(inside, ONE, {("w", 99): ONE})) is None  # a key no column has
        for _ in range(3):
            probe = _sparse_row(rng, keys, shape[3])
            assert (expr.express(probe) is None) == (not eb.contains(probe)), seed


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "%dx%d-rank%d" % s[:3])
def test_dropped_pivot_entries_match_full_row_elimination(shape):
    for seed in SEEDS:
        rng, vectors, keys = _case(shape, seed, [("w", i) for i in range(10)])
        columns = [v for v in vectors if v]
        ref, expr, eb = FullRowExpresser(columns), Expresser(columns), EchelonBasis()
        for v in columns:
            eb.add(v)
        assert eb.rank() == expr.rank() == len(ref.rows), seed
        probes = [_combination(rng, columns), _sparse_row(rng, keys, shape[3]), {}] + columns
        for p in probes:
            got, want = expr.express(p), ref.express(p)
            assert got == want and list(got or ()) == list(want or ()), (seed, p)
            res, (want_res, _) = eb.reduce(p), ref.reduce(p, {})
            assert res == want_res and list(res) == list(want_res), (seed, p)
            assert eb.contains(p) == (want is not None)


def test_draws_cover_duplicates_zero_rows_and_both_rank_cases():
    seen = set()
    for shape in SHAPES:
        for seed in SEEDS:
            _, rows, col_keys = _case(shape, seed, range(10))
            nonzero = [r for r in rows if r]
            seen.add("zero row" if len(nonzero) < len(rows) else "no zero row")
            seen.add("duplicate" if any(nonzero.count(r) > 1 for r in nonzero) else "distinct")
            full = _echelon(rows).rank() == min(len(nonzero), len(col_keys))
            seen.add("full rank" if full else "rank deficient")
            for r in nonzero:
                seen.update("rational" if len(c.den) > 1 else "Laurent" for c in r.values())
    assert {"zero row", "duplicate", "full rank", "rank deficient", "Laurent", "rational"} <= seen
