import ast
import importlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import qmodalg
from qmodalg.scalar import (
    ONE,
    PoleAtOneError,
    Scalar,
    ScalarDivisionError,
    ZERO,
    _DEN_ONE,
    _lp_mul,
    accumulate,
    gauss_binom,
    gauss_int,
    parse_scalar,
    q_pow,
    v_pow,
)


def test_product_of_conjugates():
    assert (q_pow(1) - q_pow(-1)) * (q_pow(1) + q_pow(-1)) == q_pow(2) - q_pow(-2)


def test_quantum_integer_division():
    assert (q_pow(3) - q_pow(-3)) / (q_pow(1) - q_pow(-1)) == q_pow(2) + 1 + q_pow(-2)
    assert gauss_int(3) == q_pow(2) + 1 + q_pow(-2)


def test_additive_expansion():
    # q^{1-n} (q^{n-1} + q^{1-n}) at n = 2
    val = q_pow(-1) * (q_pow(1) + q_pow(-1)) + ZERO
    assert val == 1 + q_pow(-2)


def test_division_by_zero_is_distinct_error():
    with pytest.raises(ScalarDivisionError):
        ONE / ZERO
    with pytest.raises(ScalarDivisionError):
        ZERO.inverse()


def test_classical_limit_quantum_integer():
    assert ((q_pow(4) - q_pow(-4)) / (q_pow(1) - q_pow(-1))).classical_limit() == 4
    assert (q_pow(1) - q_pow(-1)).classical_limit() == 0


def test_classical_limit_pole():
    with pytest.raises(PoleAtOneError):
        (ONE / (q_pow(1) - 1)).classical_limit()


def test_zero_over_zero_cancels_first():
    val = (q_pow(1) - 1) / (q_pow(1) - 1)
    assert val == ONE
    assert val.classical_limit() == 1


def _random_scalar(rng, max_terms=3, max_exp=4):
    num = {}
    for _ in range(rng.randint(1, max_terms)):
        num[rng.randint(-max_exp, max_exp)] = Fraction(
            rng.randint(-5, 5), rng.randint(1, 4)
        )
    den = {}
    for _ in range(rng.randint(1, max_terms)):
        den[rng.randint(-max_exp, max_exp)] = Fraction(
            rng.randint(-5, 5), rng.randint(1, 4)
        )
    if not any(den.values()):
        den = {0: Fraction(1)}
    try:
        return Scalar(num, den)
    except ScalarDivisionError:
        return Scalar(num)


def test_field_axioms_randomised():
    rng = random.Random(20240811)
    for _ in range(60):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ZERO
        if b:
            assert (a / b) * b == a
            assert b * b.inverse() == ONE


def test_canonical_form_idempotent():
    rng = random.Random(7)
    for _ in range(40):
        a = _random_scalar(rng)
        again = Scalar(dict(a.num), dict(a.den))
        assert again.num == a.num and again.den == a.den
        # equality agrees with difference being zero
        b = _random_scalar(rng)
        assert (a == b) == (a - b).is_zero()


def test_classical_limit_is_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(40):
        a, b = _random_scalar(rng), _random_scalar(rng)
        try:
            la, lb = a.classical_limit(), b.classical_limit()
        except PoleAtOneError:
            continue
        assert (a + b).classical_limit() == la + lb
        assert (a * b).classical_limit() == la * lb


def test_rendering_prefers_q_for_even_exponents():
    assert str(q_pow(2) - 2 + q_pow(-2)) == "q^2 - 2 + q^-2"
    assert str(v_pow(1) + v_pow(-1)) == "v + v^-1"
    assert str((q_pow(1) + q_pow(-1)) / (q_pow(2) - 1)) == "(q + q^-1)/(q^2 - 1)"


def test_parse_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        a = _random_scalar(rng)
        assert parse_scalar(str(a)) == a
    assert parse_scalar("q^2 - 2 + q^-2") == q_pow(2) - 2 + q_pow(-2)
    assert parse_scalar("(q+q^-1)/(q^2-1)") == (q_pow(1) + q_pow(-1)) / (q_pow(2) - 1)
    assert parse_scalar("v^3*v^-1") == q_pow(1)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("q^")
    with pytest.raises(ValueError):
        parse_scalar("(q")
    with pytest.raises(ValueError):
        parse_scalar("q + !")


def test_gauss_binomials():
    assert gauss_binom(2, 1) == q_pow(1) + q_pow(-1)
    # [3 choose 1] in v: v^2 + 1 + v^-2 = q + 1 + q^-1
    assert gauss_binom(3, 1, step=1) == v_pow(2) + 1 + v_pow(-2)
    assert gauss_binom(4, 2) == gauss_int(4) * gauss_int(3) / (gauss_int(2) * gauss_int(1))


def test_power_operator():
    a = q_pow(1) + 1
    assert a ** 3 == a * a * a
    assert a ** 0 == ONE
    assert (q_pow(2)) ** -2 == q_pow(-4)


# -- stored form and exactness -------------------------------------------------
#
# Coefficients are stored as int when integral and as Fraction otherwise.  The
# operands below mix int, Fraction and integral-Fraction (Fraction(4, 2))
# inputs, so a result that leaked an integral Fraction or a float would show.


def _mixed_coeff(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-4, 4)
    d = rng.randint(2, 4)
    if kind == 1:
        return Fraction(rng.randint(-6, 6), d)
    return Fraction(rng.randint(-3, 3) * d, d)  # integral, as a Fraction


def _mixed_poly(rng, max_terms=3, max_exp=3):
    return {
        rng.randint(-max_exp, max_exp): _mixed_coeff(rng)
        for _ in range(rng.randint(1, max_terms))
    }


def _mixed_scalar(rng):
    while True:
        den = _mixed_poly(rng) if rng.random() < 0.6 else {0: _mixed_coeff(rng)}
        if any(den.values()):
            return Scalar(_mixed_poly(rng), den)


def assert_stored_form(s):
    for c in list(s.num.values()) + list(s.den.values()):
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (
            s.num,
            s.den,
        )


def _results(a, b, k):
    yield a + b
    yield a - b
    yield a * b
    yield a + 1
    yield a * Fraction(6, 3)
    yield a - Fraction(1, 2)
    yield Fraction(3, 2) * a
    yield a ** k
    if b:
        yield a / b
        yield b.inverse()
        yield a / Fraction(4, 2)
        yield 3 / b


def test_results_are_in_stored_form():
    rng = random.Random(20261018)
    for _ in range(150):
        a, b = _mixed_scalar(rng), _mixed_scalar(rng)
        assert_stored_form(a)
        assert_stored_form(b)
        for r in _results(a, b, rng.randint(-2, 3) if a else rng.randint(0, 3)):
            assert_stored_form(r)
            assert_stored_form(parse_scalar(str(r)))
    for x, y in ((Fraction(4, 2), 1), (3, Fraction(3, 2)), (Fraction(-1, 2), 1)):
        s = Scalar(x, y)
        assert_stored_form(s)
    assert type(Scalar(Fraction(4, 2)).num[0]) is int


def _evaluate_poly(p, x):
    return sum((Fraction(c) * x ** e for e, c in p.items()), Fraction(0))


def _evaluate(s, x):
    d = _evaluate_poly(s.den, x)
    assert d != 0, "point is a pole"
    return _evaluate_poly(s.num, x) / d


def test_operations_commute_with_evaluation():
    # Schwartz-Zippel style oracle: specialise v to random nonzero rationals
    # at which no denominator vanishes; every field operation must commute
    # with evaluation, computed here in Fraction arithmetic
    rng = random.Random(1980)
    checked = 0
    for _ in range(120):
        a, b = _mixed_scalar(rng), _mixed_scalar(rng)
        x = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
        if not _evaluate_poly(a.den, x) or not _evaluate_poly(b.den, x):
            continue
        ea, eb = _evaluate(a, x), _evaluate(b, x)
        assert _evaluate(a + b, x) == ea + eb
        assert _evaluate(a - b, x) == ea - eb
        assert _evaluate(a * b, x) == ea * eb
        assert _evaluate(a ** 2, x) == ea ** 2
        if eb:
            assert _evaluate(a / b, x) == ea / eb
            assert _evaluate(b.inverse(), x) == 1 / eb
            assert _evaluate(b ** -2, x) == eb ** -2
        assert _evaluate(parse_scalar(str(a)), x) == ea
        checked += 1
    assert checked > 60


def test_classical_limit_is_an_exact_fraction():
    lim = parse_scalar("(q+1)/(q+2)").classical_limit()
    assert lim == Fraction(2, 3) and type(lim) is Fraction
    lim = gauss_int(3).classical_limit()
    assert lim == 3 and type(lim) is Fraction
    lim = Scalar({0: Fraction(1, 2), 2: Fraction(1, 2)}).classical_limit()
    assert lim == 1 and type(lim) is Fraction


# -- the Laurent fast paths and shared parts ------------------------------------
#
# Sums and products of two Laurent scalars skip _canonize, and a monomial
# times a monomial is one coefficient product.  Each result must be the
# scalar the general route builds, coefficient types included.

_LAURENT = [
    {3: 2},
    {-5: -7},
    {0: 1},
    {1: 1, -1: 1},
    {2: 3, 0: -1, -4: 5},
    {-2: Fraction(2, 3)},
    {1: Fraction(3, 2)},
    {4: Fraction(1, 2), 0: 3},
    {0: Fraction(-3, 4), 2: Fraction(4, 3)},
]
# Canonical rational operands, in v (q = v^2).  The denominators q + 1,
# q^2 - 1 = (q - 1)(q + 1), q - 1 = (v - 1)(v + 1) and v - 1 share factors;
# the numerators q + 1, q - 1 and v + 1 share factors with other operands'
# denominators; 1/(q+1), q/(q+1), -1/(q+1) and 1/(q^2-1), q/(q^2-1) are
# same-denominator pairs whose sums cancel to 0, collapse to a Laurent
# polynomial, or cancel in part.
_RATIONAL = [
    ({0: 1}, {0: 1, 2: 1}),
    ({1: Fraction(1, 2)}, {0: -1, 2: 1}),
    ({0: 1, 2: 1}, {0: 1, 4: 1}),
    ({-1: Fraction(3, 2)}, {0: -1, 4: 1}),
    ({0: Fraction(-2, 3), 2: Fraction(2, 3)}, {0: 1, 4: 1}),
    ({2: 1}, {0: 1, 2: 1}),
    ({0: -1}, {0: 1, 2: 1}),
    ({2: 1}, {0: -1, 4: 1}),
    ({0: 1}, {0: -1, 4: 1}),
    ({3: 2}, {0: -1, 1: 1}),
    ({0: 1, 1: 1}, {0: 1, 2: 1}),
    ({-2: Fraction(1, 3), 1: 5}, {0: Fraction(1, 2), 1: 1, 2: 1}),
]


def _same(got, want):
    assert got.num == want.num and got.den == want.den, (got, want)
    for part in ("num", "den"):
        g, w = getattr(got, part), getattr(want, part)
        assert [type(g[e]) for e in sorted(g)] == [type(w[e]) for e in sorted(w)]


def _operands():
    laurent = [Scalar(p) for p in _LAURENT] + [ZERO]
    return laurent + [Scalar(n, d) for n, d in _RATIONAL]


def _sum_num(a, b, sign):
    num = _lp_mul(a.num, b.den)
    for e, c in _lp_mul(b.num, a.den).items():
        num[e] = num.get(e, 0) + sign * c
    return num


def test_fast_paths_match_the_general_route():
    # every result equals the Scalar built on the uncancelled parts
    for a in _operands():
        for b in _operands():
            den = _lp_mul(a.den, b.den)
            pairs = [
                (a * b, Scalar(_lp_mul(a.num, b.num), den)),
                (a + b, Scalar(_sum_num(a, b, 1), den)),
                (a - b, Scalar(_sum_num(a, b, -1), den)),
            ]
            if b:
                pairs.append((a / b, Scalar(_lp_mul(a.num, b.den), _lp_mul(a.den, b.num))))
                pairs.append((b.inverse(), Scalar(b.den, b.num)))
            for got, want in pairs:
                _same(got, want)
                assert len(got.den) > 1 or got.den is _DEN_ONE, (a, b, got)


def test_rational_operands_fire_every_cancellation():
    ops = [Scalar(n, d) for n, d in _RATIONAL]
    for s, (n, d) in zip(ops, _RATIONAL):
        assert (s.num, s.den) == (n, d), "operand not given in canonical form"
    one_over, q_over, minus_one_over = ops[0], ops[5], ops[6]
    assert one_over + minus_one_over == ZERO
    assert one_over + q_over == ONE and (one_over + q_over).den is _DEN_ONE
    assert ops[8] + ops[7] == parse_scalar("1/(q - 1)")
    assert ops[2] * ops[3] == parse_scalar("(3/2)*v^-1/((q^2 + 1)*(q - 1))")


def test_inexact_coefficients_are_refused():
    for args in ((0.5,), ({0: 0.5},), ({0: 1, 2: 0.25},), (1, 0.5), ({0: 1}, {0: 1.5}), ("1",)):
        with pytest.raises(TypeError):
            Scalar(*args)


def test_integral_product_of_fractions_is_stored_as_int():
    for a, b, want in [
        ({1: Fraction(2, 3)}, {2: Fraction(3, 2)}, {3: 1}),
        ({-1: Fraction(1, 2)}, {1: 2}, {0: 1}),
        ({0: Fraction(5, 2), 1: 1}, {0: Fraction(2, 5)}, {0: 1, 1: Fraction(2, 5)}),
    ]:
        got = Scalar(a) * Scalar(b)
        assert got.num == want
        assert_stored_form(got)
        assert type(next(iter(got.num.values()))) is int
    s = Scalar({0: Fraction(1, 2)}) + Scalar({0: Fraction(1, 2), 1: 1})
    assert s.num == {0: 1, 1: 1} and type(s.num[0]) is int


def test_laurent_scalars_share_the_unit_denominator():
    made = [ZERO, ONE, q_pow(3), gauss_int(3), Scalar(Fraction(1, 2)), Scalar({2: 4}, {0: 2})]
    a, b = gauss_int(2), q_pow(-1)
    made += [a + b, a * b, a - b, -a, a * a, b * b, (a * b) / b, a ** 3]
    made.append(parse_scalar("(q^2 - 1)/(q - q^-1)"))
    made += [v_pow(-3), q_pow(0)]
    for s in made:
        assert s.den is _DEN_ONE, s
    # the monomials skip the constructor and match what it would build
    for k in range(-3, 4):
        _same(v_pow(k), Scalar({k: 1}))
        _same(q_pow(k), Scalar({2 * k: 1}))


def test_hash_reads_both_parts():
    # the unit denominator's key is built once; the hash value is unchanged
    for s in _operands():
        assert hash(s) == hash((frozenset(s.num.items()), frozenset(s.den.items())))


def test_operations_leave_operands_unchanged():
    ops = _operands()
    for a in ops:
        for b in ops:
            before = [(dict(x.num), dict(x.den)) for x in (a, b)]
            a + b, a - b, a * b, -a, a ** 2
            if b:
                a / b, b.inverse()
            assert [(x.num, x.den) for x in (a, b)] == before


# -- multiplying by one -----------------------------------------------------------
#
# ONE as a factor returns the other operand, and a product equal to 1 is the
# ONE singleton; both are optimisations, so equality stays value equality.


def test_a_factor_one_returns_the_other_operand():
    for x in _operands() + [ONE]:
        assert x * ONE is x and ONE * x is x, x
    one = Scalar({0: 1})  # equal to ONE, but not the singleton
    assert one == ONE and one is not ONE
    for x in _operands():
        _same(x * one, x)


def test_a_product_equal_to_one_is_the_singleton():
    assert v_pow(2) * v_pow(-2) is ONE
    assert q_pow(-3) * q_pow(3) is ONE
    assert Scalar(Fraction(3, 2)) * Scalar(Fraction(2, 3)) is ONE
    assert Scalar(Fraction(3, 2)).inverse() * Scalar(Fraction(3, 2)) is ONE
    for x in _operands():
        if x:
            assert x * x.inverse() is ONE, x
            assert x / x is ONE, x
    assert v_pow(2) * v_pow(-1) == v_pow(1)  # a product unequal to 1 is built as before


def test_accumulate_with_factor_one_keeps_the_pairs_objects():
    pairs = [(k, x) for k, x in enumerate(_operands()) if x]
    acc = accumulate({}, pairs, ONE)
    assert list(acc) == [k for k, _ in pairs]
    assert all(acc[k] is x for k, x in pairs)
    # on keys already present it adds, exactly as with no factor
    twice = accumulate(dict(acc), pairs, ONE)
    assert twice == accumulate(dict(acc), pairs) == {k: x + x for k, x in pairs}


# Run in a fresh process, so that no rewrite memo or cached operator is warm.
_GUARD = """
from qmodalg import scalar
from qmodalg.algebras import build_am, printed_rule_diffs
from qmodalg.invariants import verify_relation_suite
from qmodalg.rootdata import LieTypeSpec

product, calls, with_one, equal_one = scalar._product, [], [], []

def spy(a, b, c, d):
    calls.append(None)
    if a is scalar.ONE.num or c is scalar.ONE.num:
        with_one.append(None)
    if (a == {0: 1} and len(b) == 1) or (c == {0: 1} and len(d) == 1):
        equal_one.append(None)
    return product(a, b, c, d)

scalar._product = spy
report = verify_relation_suite(build_am(LieTypeSpec("D", 2), 4))
assert all(e["pass"] for e in report["entries"])
for family, rank in (("D", 2), ("B", 1), ("C", 2)):
    assert printed_rule_diffs(LieTypeSpec(family, rank), 2)
print(len(calls), len(with_one), len(equal_one))
"""


@lru_cache(maxsize=None)
def _guard_counts():
    """(products, with the ONE singleton, with a factor equal to 1)."""
    src = str(Path(qmodalg.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _GUARD], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(map(int, proc.stdout.split()))


def test_no_product_is_taken_with_the_one_singleton():
    calls, with_one, _ = _guard_counts()
    assert calls > 1000 and with_one == 0


def test_no_product_is_taken_with_a_factor_equal_to_one():
    # inverse, negation, Laurent sums and v_pow(0) give the ONE singleton
    # when their value is 1, so x * ONE short-cuts instead of multiplying
    calls, _, equal_one = _guard_counts()
    assert calls > 1000 and equal_one == 0


def test_unit_denominator_survives_the_module():
    # runs last in this module: no operation above wrote to the shared object
    assert _DEN_ONE == {0: 1}


# -- the benchmark tracer's contract ---------------------------------------------
#
# perfbench/tracing.py wraps Scalar.__dict__[name] for each name in its
# SCALAR_OPS, and owner.__dict__[name] for each dotted name in its SPANS.  It
# is read here by ast, so that an inherited, renamed or module-level
# operation fails Tier-1 rather than every traced benchmark worker.


def _tracing_constant(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError("perfbench/tracing.py defines no %s" % name)


def test_traced_operations_are_own_attributes():
    ops = [elt.elts[0].value for elt in _tracing_constant("SCALAR_OPS").elts]
    assert ops and all(callable(Scalar.__dict__.get(op)) for op in ops), ops
    for elt in _tracing_constant("SPANS").elts:
        module, attr = (c.value for c in elt.elts[:2])
        owner = importlib.import_module("qmodalg." + module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert name in vars(owner), (module, attr)
