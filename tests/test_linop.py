"""Equivalence of the fraction-free compose with per-entry Scalar sums.

The reference below is the earlier compose, kept as an oracle: it multiplies
and adds Scalars entry by entry, canonicalising after every add.  The
fraction-free compose must give the same table, with no zero entry stored
and every entry in canonical form.
"""

import random
from fractions import Fraction

import pytest

from qmodalg.braiding import projectors, rcheck, rcheck_cabled
from qmodalg.linop import LinearOperator, _over_one_denominator, lift_block_op
from qmodalg.rootdata import LieTypeSpec, natural_rep
from qmodalg.scalar import ONE, Scalar


def reference_compose(left, right):
    if right.codomain != left.domain:
        raise ValueError("composition dimension mismatch")
    cols = left.by_col()
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
    # chain of kl lifted R-checks, rightmost left-strand first
    labels = natural_rep(spec).labels
    rc = rcheck(spec)
    got = rcheck_cabled(spec, k, l)
    want = LinearOperator.identity(got.domain)
    for i in range(k, 0, -1):
        for j in range(i, i + l):
            want = reference_compose(lift_block_op(rc, labels, k + l, j, 2), want)
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
