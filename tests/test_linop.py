"""Equivalence of the fraction-free compose with per-entry Scalar sums.

The reference below is the earlier compose, kept as an oracle: it multiplies
and adds Scalars entry by entry, canonicalising after every add.  The
fraction-free compose must give the same table, with no zero entry stored
and every entry in canonical form.  The column-major storage is checked the
same way: every operation gives the flat table of its reference, with no
empty column and no zero entry.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from qmodalg.braiding import (
    projectors,
    rcheck,
    rcheck_cabled,
    tensor_generator_ops,
)
from qmodalg.linop import (
    LinearOperator,
    _lattice,
    _over_one_denominator,
    lift_block_op,
    tensor_words,
)
from qmodalg.rootdata import LieTypeSpec, natural_rep
from qmodalg.scalar import ONE, Scalar, accumulate, q_pow


def reference_compose(left, right):
    if right.codomain != left.domain:
        raise ValueError("composition dimension mismatch")
    cols = {}
    for (r1, c1), v1 in left.entries.items():
        cols.setdefault(c1, []).append((r1, v1))
    out = {}
    for (r2, c2), v2 in right.entries.items():
        for r1, v1 in cols.get(r2, []):
            key = (r1, c2)
            s = out.get(key)
            t = v1 * v2
            if s is None:
                out[key] = t
            else:
                s = s + t
                if s:
                    out[key] = s
                else:
                    del out[key]
    return LinearOperator(right.domain, left.codomain, out)


def assert_canonical_table(op):
    for e in op.entries.values():
        assert e, "zero entry stored"
        c = Scalar(e.num, e.den)
        assert c == e and c.num == e.num and c.den == e.den
        for coeff in list(e.num.values()) + list(e.den.values()):
            assert type(coeff) is int or (
                type(coeff) is Fraction and coeff.denominator > 1
            )


def assert_matches_reference(left, right):
    got = left @ right
    want = reference_compose(left, right)
    assert got.domain == want.domain and got.codomain == want.codomain
    assert got.entries == want.entries
    assert_canonical_table(got)
    return got


def _poly(pairs):
    return {e: Fraction(c) for e, c in pairs}


# denominators: v^2 + 1 and v^2 - 2 are coprime; the last two share 1 + v,
# so their lcm is not their product
DENS = {
    "one": None,
    "shared": _poly([(0, 1), (2, 1)]),
    "coprime": _poly([(0, -2), (2, 1)]),
    "factor_a": _poly([(0, 1), (1, 2), (2, 2), (3, 1)]),  # (1+v)(1+v+v^2)
    "factor_b": _poly([(0, 2), (1, 1), (2, -1)]),  # (1+v)(2-v)
}

COEFFS = {
    "int": [1, -1, 2, -3, 5],
    "frac": [Fraction(1, 2), Fraction(-3, 4), 1, Fraction(5, 3), -2],
}


def random_scalar(rng, dens, coeffs):
    num = {}
    for _ in range(rng.randint(1, 3)):
        num[rng.randint(-3, 3)] = Fraction(rng.choice(COEFFS[coeffs]))
    den = DENS[rng.choice(dens)]
    s = Scalar(num, den) if den is not None else Scalar(num)
    return s if s else ONE


def random_op(rng, rows, cols, dens, coeffs, density=0.6):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                entries[(r, c)] = random_scalar(rng, dens, coeffs)
    return LinearOperator(range(cols), range(rows), entries)


CASES = {
    "den1_int": (["one"], "int"),
    "den1_frac": (["one"], "frac"),
    "shared_den": (["shared"], "frac"),
    "coprime_dens": (["shared", "coprime"], "int"),
    "common_factor_dens": (["factor_a", "factor_b"], "frac"),
    "mixed": (["one", "shared", "factor_a", "factor_b", "coprime"], "frac"),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", range(6))
def test_compose_matches_reference_on_random_operators(case, seed):
    dens, coeffs = CASES[case]
    rng = random.Random(f"{case}-{seed}")
    n, m, k = rng.randint(2, 5), rng.randint(2, 5), rng.randint(2, 5)
    left = random_op(rng, n, m, dens, coeffs)
    right = random_op(rng, m, k, dens, coeffs)
    assert_matches_reference(left, right)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", range(4))
def test_compose_drops_products_that_cancel(case, seed):
    """Column c of right cancels row 0 of left exactly; the rest is random."""
    dens, coeffs = CASES[case]
    rng = random.Random(f"cancel-{case}-{seed}")
    n, m = rng.randint(2, 4), rng.randint(2, 4)
    left = random_op(rng, n, m, dens, coeffs, density=1.0)
    a, b = left.entries[(0, 0)], left.entries[(0, 1)]
    right_entries = {}
    for c in range(3):
        s = random_scalar(rng, dens, coeffs)
        right_entries[(0, c)] = b * s
        right_entries[(1, c)] = -(a * s)
    right = LinearOperator(range(3), range(m), right_entries)
    got = assert_matches_reference(left, right)
    assert not any(r == 0 for r, _ in got.entries)
    everything_cancels = LinearOperator(range(m), range(1), {(0, 0): a, (0, 1): b})
    assert (everything_cancels @ right).is_zero()
    assert reference_compose(everything_cancels, right).is_zero()


def test_one_denominator_is_the_lcm():
    a = Scalar(_poly([(0, 1), (1, 3)]), DENS["factor_a"])
    b = Scalar(_poly([(2, Fraction(1, 2))]), DENS["factor_b"])
    c = Scalar(_poly([(-1, Fraction(-3, 4))]))
    entries = {(0, 0): a, (0, 1): b, (1, 1): c}
    den, scale, to_int = _over_one_denominator(entries)
    assert max(den) == 4  # (1+v)(1+v+v^2)(2-v), not the degree-5 product
    for s in entries.values():
        n = to_int(s)
        assert all(type(x) is int for x in n.values())
        assert Scalar({e: Fraction(x, scale) for e, x in n.items()}, den) == s


def test_compose_rejects_a_dimension_mismatch():
    a = LinearOperator.identity([0, 1])
    b = LinearOperator.identity([0, 1, 2])
    with pytest.raises(ValueError, match="dimension mismatch"):
        a @ b
    with pytest.raises(ValueError, match="dimension mismatch"):
        a.compose(b)


@pytest.mark.parametrize("family,rank", [("D", 3), ("B", 2), ("C", 3)])
def test_projector_products_match_reference(family, rank):
    projs = projectors(LieTypeSpec(family, rank))
    for name, p in projs.items():
        assert assert_matches_reference(p, p) == p, name


def test_projector_orthogonality_matches_reference():
    projs = projectors(LieTypeSpec("D", 2))
    names = sorted(projs)
    for a in names:
        for b in names:
            if a != b:
                assert assert_matches_reference(projs[a], projs[b]).is_zero()


def assert_cable_is_the_chain(spec, k, l):
    # the cable is built from two smaller cached ones; the reference is the
    # chain of kl R-checks lifted by concatenation, rightmost left-strand first
    labels = natural_rep(spec).labels
    rc = rcheck(spec)
    got = rcheck_cabled(spec, k, l)
    want = LinearOperator.identity(got.domain)
    for i in range(k, 0, -1):
        for j in range(i, i + l):
            want = reference_compose(reference_lift(rc, labels, k + l, j, 2), want)
    assert got.entries == want.entries
    assert_canonical_table(got)


@pytest.mark.parametrize(
    "k,l", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2)]
)
def test_rcheck_cabled_matches_reference(k, l):
    assert_cable_is_the_chain(LieTypeSpec("D", 2), k, l)


def test_compose_shares_equal_entries():
    # a composed table holds one Scalar object per distinct value
    values = rcheck_cabled(LieTypeSpec("D", 2), 3, 3).entries.values()
    assert len({id(c) for c in values}) == len(set(values)) < len(values)


# the odd dimension with v_0 (B1), the skew pairing (C2) and the R-matrix (GL2)
@pytest.mark.parametrize(
    "family,rank,k,l",
    [("B", 1, 2, 2), ("B", 1, 2, 3), ("C", 2, 2, 2), ("GL", 2, 2, 2), ("GL", 2, 3, 2)],
)
def test_rcheck_cabled_matches_reference_in_every_family(family, rank, k, l):
    assert_cable_is_the_chain(LieTypeSpec(family, rank), k, l)


BIG = 2 ** 40 - 1


def test_packed_compose_near_the_bound():
    # coefficients of size 2^40 - 1, negative exponents and a span of 40,
    # negative coefficients whose packed forms borrow from the next digit,
    # and a column whose two products cancel only once those borrows carry
    a = Scalar({-30: BIG, -1: -1, 9: -BIG})
    b = Scalar({-7: -BIG, 0: BIG, 10: 1})
    c = Scalar({-4: BIG, 2: -1})
    left = LinearOperator(range(2), range(2), {(0, 0): a, (0, 1): b, (1, 0): b, (1, 1): a})
    right = LinearOperator(
        range(3),
        range(2),
        {(0, 0): b * c, (1, 0): -(a * c), (0, 1): c, (1, 1): -c, (0, 2): a, (1, 2): b},
    )
    got = assert_matches_reference(left, right)
    assert (0, 0) not in got.entries and (1, 0) in got.entries
    assert max(abs(x) for s in got.entries.values() for x in s.num.values()) > BIG ** 2


@pytest.mark.parametrize("entry", [ONE, Scalar({-1: 1, 0: 1, 3: 1}), -ONE])
@pytest.mark.parametrize("k", [64, 100])
def test_packed_compose_sums_k_products(k, entry):
    # every product lands in one entry, so the digit width must allow for
    # all k of them, not just for one product
    row = LinearOperator(range(k), range(1), {(0, m): entry for m in range(k)})
    col = LinearOperator(range(1), range(k), {(m, 0): entry for m in range(k)})
    got = assert_matches_reference(row, col)
    assert got.entries == {(0, 0): (entry * entry) * Scalar(k)}


def test_compose_with_an_all_zero_operand():
    rng = random.Random("zero")
    op = random_op(rng, 3, 3, ["one", "shared"], "frac", density=1.0)
    zero = LinearOperator.zero(range(3))
    for left, right in ((zero, op), (op, zero), (zero, zero)):
        got = assert_matches_reference(left, right)
        assert got.is_zero() and got.domain == right.domain and got.codomain == left.codomain


def test_compose_works_once_per_value(monkeypatch):
    # equal entries held as distinct Scalar objects, as a sum or a scaling
    # builds them, are put over one denominator once per value
    import qmodalg.linop as linop

    seen = []

    def counted(entries):
        seen.append(len(entries))
        return _over_one_denominator(entries)

    monkeypatch.setattr(linop, "_over_one_denominator", counted)
    den = DENS["shared"]
    values = [Scalar({0: 1, 1: Fraction(1, 2)}, den), Scalar({-1: 3})]

    def copy(k):
        return Scalar(values[k].num, values[k].den)

    cells = [(r, c) for r in range(3) for c in range(3)]
    left = LinearOperator(range(3), range(3), {(r, c): copy((r + c) % 2) for r, c in cells})
    right = LinearOperator(range(2), range(3), {(r, c): copy(r % 2) for r, c in cells if c < 2})
    assert len({id(v) for v in left.entries.values()}) == 9
    assert_matches_reference(left, right)
    assert seen == [2, 2]


def reference_lift(op, labels, r, start, width):
    # the earlier lift, by concatenating label tuples
    entries = {}
    for ctx in product(labels, repeat=r - width):
        pre, post = ctx[: start - 1], ctx[start - 1:]
        for (rw, cw), val in op.entries.items():
            entries[(pre + rw + post, pre + cw + post)] = val
    words = list(product(labels, repeat=r))
    return LinearOperator(words, words, entries)


def assert_column_table(op, want):
    """op has want's flat table, no empty column and no zero entry, and its
    flat view rebuilds it."""
    assert op.entries == want
    assert len(op.entries) == len(want)
    assert all(op.cols.values()), "empty column stored"
    assert all(v for col in op.cols.values() for v in col.values()), "zero entry stored"
    assert LinearOperator(op.domain, op.codomain, op.entries) == op


@pytest.mark.parametrize("seed", range(4))
def test_every_operation_keeps_columns_nonempty_and_entries_nonzero(seed):
    rng = random.Random(f"columns-{seed}")
    a = random_op(rng, 4, 4, ["one", "shared"], "frac", density=1.0)
    b = random_op(rng, 4, 4, ["one", "factor_a"], "int", density=0.5)
    # c is b off column 0, and cancels a's column 0 and a's diagonal
    c_entries = {k: v for k, v in b.entries.items() if k[1] != 0}
    c_entries.update({(r, col): -v for (r, col), v in a.entries.items() if col == 0 or r == col})
    c = LinearOperator(range(4), range(4), c_entries)
    x = random_scalar(rng, ["shared"], "frac")
    flat_sum = accumulate(dict(a.entries), c.entries.items())
    assert_column_table(a + c, flat_sum)
    assert 0 not in (a + c).cols
    assert_column_table(a - b, accumulate(dict(a.entries), b.entries.items(), -ONE))
    assert_column_table(a - a, {})
    assert_column_table(a.scale(x), {k: x * v for k, v in a.entries.items()})
    assert_column_table(a.scale(Scalar(0)), {})
    assert_column_table(LinearOperator.identity(range(3)), {(i, i): ONE for i in range(3)})
    assert_column_table(LinearOperator.zero(range(3), range(2)), {})
    assert_column_table(LinearOperator(range(2), range(2), {(0, 0): Scalar(0)}), {})
    assert_column_table(a @ b, reference_compose(a, b).entries)
    # a rank-one left factor: column 0 of the product cancels in every row
    p, q = random_scalar(rng, ["one"], "int"), random_scalar(rng, ["shared"], "frac")
    left = LinearOperator(range(2), range(2), {(0, 0): p, (0, 1): q, (1, 0): p, (1, 1): q})
    right = LinearOperator(range(2), range(2), {(0, 0): q, (1, 0): -p, (0, 1): ONE})
    got = left @ right
    assert_column_table(got, reference_compose(left, right).entries)
    assert list(got.cols) == [1]


@pytest.mark.parametrize("family,rank", [("D", 2), ("B", 1), ("GL", 2)])
@pytest.mark.parametrize("r,start,width", [(3, 1, 2), (3, 2, 2), (4, 2, 2), (4, 1, 3), (4, 2, 3)])
def test_lift_matches_the_concatenating_lift(family, rank, r, start, width):
    spec = LieTypeSpec(family, rank)
    labels = natural_rep(spec).labels
    op = rcheck_cabled(spec, width - 1, 1)
    lift = lift_block_op(op, labels, r, start, width)
    want = reference_lift(op, labels, r, start, width)
    assert lift.domain == want.domain and lift.codomain == want.codomain
    ident = LinearOperator.identity(want.domain)
    for got in (ident @ lift, lift @ ident):
        assert_column_table(got, want.entries)
    with pytest.raises(AttributeError):
        lift.cols  # a placement has no table


def test_operators_on_a_tensor_power_share_their_labels():
    spec = LieTypeSpec("D", 2)
    labels = natural_rep(spec).labels
    cab = rcheck_cabled(spec, 3, 3)
    assert cab.domain is cab.codomain is tensor_words(labels, 6)
    words = {w: w for w in cab.domain}
    for c, col in cab.cols.items():
        assert c is words[c]
        assert all(r is words[r] for r in col)
    pairs = tensor_words(labels, 2)
    assert all(p.domain is pairs for p in projectors(spec).values())
    assert all(g.domain is pairs for g in tensor_generator_ops(natural_rep(spec), 2).values())


def test_column_is_a_read_only_view():
    rc = rcheck(LieTypeSpec("D", 2))
    w = rc.domain[0]
    col = rc.column(w)
    assert col == rc.cols[w]
    with pytest.raises(TypeError):
        col[w] = ONE
    missing = LinearOperator.zero(range(2)).column(0)
    assert missing == {}
    with pytest.raises(TypeError):
        missing[0] = ONE


@pytest.mark.parametrize("domain,codomain,entries", [
    ([0, 1], [0, 1], {(5, 0): ONE}),  # row outside the codomain
    ([0, 1], [0, 1], {(0, 2): ONE}),  # column outside the domain
    ([0, 1], [0, 1], {(0, 0): ONE, (1, "a"): Scalar(0)}),  # even a zero entry
    (range(3), ["a", "b"], {(2, "a"): ONE}),  # rows and columns swapped
])
def test_constructor_refuses_labels_outside_the_operator(domain, codomain, entries):
    with pytest.raises(ValueError):
        LinearOperator(domain, codomain, entries)


def test_entries_keep_the_mapping_contract():
    op = LinearOperator(range(2), range(2), {(0, 1): ONE})
    entries = op.entries
    assert (0, 1) in entries and (1, 0) not in entries and (0, 5) not in entries
    # keys that are not (row, col) pairs are absent, not errors
    for key in [(7,), 5, (0, 1, 2), None]:
        assert key not in entries
        assert entries.get(key) is None
        with pytest.raises(KeyError):
            entries[key]


# placements: lift_block_op records op and its place, has no table, and
# composes from the small operators with any operator


@pytest.mark.parametrize(
    "r,start,width,nested",
    [(3, 3, 2, False), (3, 0, 2, False), (3, 2, 3, False), (3, 1, 2, True)],
    ids=["3-3-2", "3-0-2", "3-2-3", "nested"],
)
def test_lift_refuses_a_bad_placement(r, start, width, nested):
    # past the last slot, before the first, an operator on V^(x)2 placed as
    # if it were on V^(x)3, and a placement on the words of V^(x)2 placed
    # again, which has no table to read
    spec = LieTypeSpec("D", 2)
    labels = natural_rep(spec).labels
    op = lift_block_op(rcheck(spec), labels, 2, 1, 2) if nested else rcheck(spec)
    with pytest.raises(ValueError):
        lift_block_op(op, labels, r, start, width)


def _block_op(spec, width, kind):
    """An operator on V^(x)width: f_1 on V at width 1; for kind "projector",
    a projector scaled by a Fraction (denominators and a scale) at width 2
    and the cable (1, width - 1) above; for kind "cable", the cable
    (width - 1, 1)."""
    if width == 1:
        return tensor_generator_ops(natural_rep(spec), 1)[("f", 1)]
    if kind == "projector" and width == 2:
        return projectors(spec)["anti"].scale(Scalar({1: Fraction(2, 3)}))
    return rcheck_cabled(spec, width - 1, 1) if kind == "cable" else rcheck_cabled(spec, 1, width - 1)


# (slot relation, r, (start, width) of a, (start, width) of b)
PLACEMENTS = [
    ("identical", 3, (1, 2), (1, 2)),
    ("identical", 4, (2, 3), (2, 3)),
    ("adjacent", 3, (1, 1), (2, 2)),
    ("adjacent", 4, (1, 2), (3, 2)),
    ("overlapping", 3, (1, 2), (2, 2)),
    ("overlapping", 4, (1, 3), (2, 3)),
    ("overlapping", 5, (1, 3), (3, 3)),
    ("nested", 3, (1, 3), (2, 2)),
    ("nested", 4, (1, 4), (2, 2)),
    ("nested", 5, (2, 3), (3, 1)),
    ("disjoint", 4, (1, 1), (3, 2)),
    ("disjoint", 5, (1, 2), (4, 2)),
]


@pytest.mark.parametrize("family,rank", [("D", 2), ("B", 1), ("C", 2), ("GL", 2)])
@pytest.mark.parametrize("relation,r,a,b", PLACEMENTS)
@pytest.mark.parametrize("kind", ["cable", "projector"])
def test_placements_compose_as_their_lifts(family, rank, relation, r, a, b, kind):
    spec = LieTypeSpec(family, rank)
    labels = natural_rep(spec).labels
    ops = [(_block_op(spec, w, kind), s, w) for s, w in (a, b)]
    for (x, sx, wx), (y, sy, wy) in (ops, ops[::-1]):  # both orders
        got = lift_block_op(x, labels, r, sx, wx) @ lift_block_op(y, labels, r, sy, wy)
        want = reference_compose(
            reference_lift(x, labels, r, sx, wx), reference_lift(y, labels, r, sy, wy)
        )
        assert got.domain is got.codomain is tensor_words(labels, r)
        assert_column_table(got, want.entries)
        assert_canonical_table(got)


def test_placements_compose_near_the_bound():
    # test_packed_compose_near_the_bound's coefficients, on V^(x)2 of GL2,
    # placed on overlapping slots of V^(x)3, with a cancelling column
    spec = LieTypeSpec("GL", 2)
    labels = natural_rep(spec).labels
    a = Scalar({-30: BIG, -1: -1, 9: -BIG})
    b = Scalar({-7: -BIG, 0: BIG, 10: 1})
    c = Scalar({-4: BIG, 2: -1})
    w = tensor_words(labels, 2)
    left = LinearOperator(w, w, {(w[0], w[0]): a, (w[0], w[1]): b, (w[1], w[0]): b,
                                 (w[1], w[1]): a, (w[3], w[2]): c})
    right = LinearOperator(w, w, {(w[0], w[0]): b * c, (w[1], w[0]): -(a * c), (w[0], w[1]): c,
                                  (w[1], w[1]): -c, (w[0], w[2]): a, (w[1], w[2]): b,
                                  (w[2], w[3]): BIG * c})
    for x, y in ((left, right), (right, left)):
        for sx, sy in ((1, 1), (1, 2), (2, 1)):
            got = lift_block_op(x, labels, 3, sx, 2) @ lift_block_op(y, labels, 3, sy, 2)
            want = reference_compose(
                reference_lift(x, labels, 3, sx, 2), reference_lift(y, labels, 3, sy, 2)
            )
            assert_column_table(got, want.entries)
            assert_canonical_table(got)
    got = lift_block_op(left, labels, 3, 1, 2) @ lift_block_op(right, labels, 3, 1, 2)
    assert max(abs(x) for s in got.entries.values() for x in s.num.values()) > BIG ** 2


@pytest.mark.parametrize("family,rank", [("D", 2), ("GL", 2)])
def test_placement_with_a_general_operator_is_the_reference_product(family, rank):
    spec = LieTypeSpec(family, rank)
    rep = natural_rep(spec)
    general = tensor_generator_ops(rep, 3)[("e", 1)] + rcheck_cabled(spec, 2, 1)
    lift = lift_block_op(projectors(spec)["sym"], rep.labels, 3, 2, 2)
    want = reference_lift(projectors(spec)["sym"], rep.labels, 3, 2, 2)
    products = [lift @ general, general @ lift]
    for got, ref in zip(products, (reference_compose(want, general),
                                   reference_compose(general, want))):
        assert type(got) is LinearOperator
        assert_column_table(got, ref.entries)


def test_placement_reads_as_its_lift():
    spec = LieTypeSpec("B", 1)
    labels = natural_rep(spec).labels
    op = rcheck_cabled(spec, 1, 2)
    want = reference_lift(op, labels, 4, 2, 3)
    lift = lift_block_op(op, labels, 4, 2, 3)
    ident = LinearOperator.identity(want.domain)
    assert ident @ lift == want and want == lift @ ident
    assert ident @ lift_block_op(op, labels, 4, 1, 3) != want
    # a placement is an operand of compose and nothing else
    vec = {want.domain[0]: q_pow(2)}
    x = Scalar({-1: 1, 2: Fraction(3, 2)})
    for read in (
        lambda: lift.cols,
        lambda: lift.entries,
        lambda: lift.column(want.domain[0]),
        lambda: lift.apply(vec),
        lambda: lift.scale(x),
        lambda: lift + lift,
        lambda: lift == want,
        lambda: lift.is_zero(),
    ):
        with pytest.raises(AttributeError):
            read()


def test_nine_cables_build_no_lifted_table():
    spec = LieTypeSpec("D", 2)
    rcheck_cabled.cache_clear()
    cables = [rcheck_cabled(spec, k, l) for k in (1, 2, 3) for l in (1, 2, 3)]
    assert all(type(cab) is LinearOperator for cab in cables)


# compose packs digit k of a numerator as the coefficient of v^(lo + g*k),
# g the gcd of both operands' exponent steps


def test_lattice_is_the_least_exponent_and_the_step():
    assert _lattice({"a": {-3: 1, 1: 2}, "b": {5: -7}}) == (-3, 4)
    assert _lattice({"a": {-1: 1, 2: 1}, "b": {4: 3}}) == (-1, 1)
    assert _lattice({"a": {2: 5}, "b": {2: -1}}) == (2, 0)  # one exponent: step 0


def packed_steps(monkeypatch):
    """The step of every _pack call from now on, one per operand."""
    import qmodalg.linop as linop

    steps, pack = [], linop._pack

    def spy(ints, width, lo, step):
        steps.append(step)
        return pack(ints, width, lo, step)

    monkeypatch.setattr(linop, "_pack", spy)
    return steps


def lattice_op(rng, rows, cols, lo, step, dens=("one",), coeffs="int"):
    """A dense operator whose numerators have exponents in lo + step*{0..3}."""
    entries = {}
    for r, c in product(range(rows), range(cols)):
        num = {lo + step * rng.randint(0, 3): Fraction(rng.choice(COEFFS[coeffs]))
               for _ in range(rng.randint(1, 3))}
        den = DENS[rng.choice(dens)]
        entries[(r, c)] = Scalar(num, den) if den is not None else Scalar(num)
    return LinearOperator(range(cols), range(rows), entries)


@pytest.mark.parametrize(
    "left_lattice,right_lattice,step",
    [
        ((0, 2), (0, 3), 1),  # steps 2 and 3 meet on step 1
        ((-4, 6), (3, 4), 2),
        ((5, 0), (-2, 2), 2),  # a single exponent takes the other's step
        ((-3, 2), (0, 2), 2),  # odd lo, so odd output exponents
        ((-3, 2), (1, 2), 2),
        ((1, 0), (-2, 0), 1),
    ],
)
@pytest.mark.parametrize("seed", range(4))
def test_lattice_compose_matches_reference(monkeypatch, left_lattice, right_lattice, step, seed):
    rng = random.Random(f"lattice-{left_lattice}-{right_lattice}-{seed}")
    n, m, k = rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 4)
    left = lattice_op(rng, n, m, *left_lattice)
    right = lattice_op(rng, m, k, *right_lattice)
    steps = packed_steps(monkeypatch)
    assert_matches_reference(left, right)
    assert steps == [step, step]


@pytest.mark.parametrize("seed", range(4))
def test_lattice_compose_of_rational_entries(monkeypatch, seed):
    # v^2 + 1 and v^2 - 2 keep the cleared numerators on the even lattice
    rng = random.Random(f"lattice-rational-{seed}")
    dens = ("one", "shared", "coprime")
    left = lattice_op(rng, 3, 3, -1, 2, dens, "frac")
    right = lattice_op(rng, 3, 2, 2, 2, dens, "frac")
    steps = packed_steps(monkeypatch)
    got = assert_matches_reference(left, right)
    assert steps == [2, 2]
    assert any(len(s.den) > 1 for s in got.entries.values())


def test_lattice_compose_near_the_bound(monkeypatch):
    # test_packed_compose_near_the_bound's coefficients on even exponents
    a = Scalar({-60: BIG, -2: -1, 18: -BIG})
    b = Scalar({-14: -BIG, 0: BIG, 20: 1})
    c = Scalar({-8: BIG, 4: -1})
    left = LinearOperator(range(2), range(2), {(0, 0): a, (0, 1): b, (1, 0): b, (1, 1): a})
    right = LinearOperator(
        range(3),
        range(2),
        {(0, 0): b * c, (1, 0): -(a * c), (0, 1): c, (1, 1): -c, (0, 2): a, (1, 2): b},
    )
    steps = packed_steps(monkeypatch)
    got = assert_matches_reference(left, right)
    assert steps == [2, 2]
    assert (0, 0) not in got.entries and (1, 0) in got.entries
    assert max(abs(x) for s in got.entries.values() for x in s.num.values()) > BIG ** 2


@pytest.mark.parametrize(
    "family,rank", [("D", 2), ("D", 3), ("B", 1), ("B", 2), ("C", 2), ("GL", 2)]
)
def test_cables_pack_on_the_even_lattice(monkeypatch, family, rank):
    # every R-check has coefficients in q = v^2, so a cable packs at step 2
    spec = LieTypeSpec(family, rank)
    rc, labels = rcheck(spec), natural_rep(spec).labels
    steps = packed_steps(monkeypatch)
    got = lift_block_op(rc, labels, 3, 1, 2) @ lift_block_op(rc, labels, 3, 2, 2)
    assert steps == [2, 2]
    want = reference_compose(
        reference_lift(rc, labels, 3, 1, 2), reference_lift(rc, labels, 3, 2, 2)
    )
    assert_column_table(got, want.entries)


def test_only_tensor_word_tuples_keep_an_index():
    # a fresh label tuple per call (validate_rep's, identity's from a list)
    # gets an index that is not kept; a tensor_words tuple keeps its own
    import qmodalg.linop as linop
    from qmodalg.rootdata import validate_rep

    rep = natural_rep(LieTypeSpec("D", 2))
    validate_rep(rep)
    kept = len(linop._INDEXES)
    for _ in range(5):
        assert validate_rep(rep) == []
        ident = LinearOperator.identity([1, 2])
        assert ident @ ident == ident
    assert len(linop._INDEXES) == kept
    words = tensor_words(rep.labels, 2)
    ident = LinearOperator.identity(words)
    assert ident @ ident == ident
    assert linop._INDEXES[id(words)] == {w: i for i, w in enumerate(words)}
