import pytest

from qmodalg.rootdata import (
    LieTypeSpec,
    coproduct_image,
    irrep_dim_gl,
    natural_rep,
    positive_roots,
    quantum_dimension,
    rho_pairing,
    sigma_candidate,
    validate_rep,
)
from qmodalg.linop import LinearOperator
from qmodalg.scalar import ONE, parse_scalar, q_pow

GRID = [("D", 2), ("D", 3), ("B", 1), ("B", 2), ("C", 2), ("C", 3), ("GL", 2), ("GL", 3)]


def test_spec_validation():
    with pytest.raises(ValueError):
        LieTypeSpec("D", 1)
    with pytest.raises(ValueError):
        LieTypeSpec("B", 0)
    with pytest.raises(ValueError):
        LieTypeSpec("E", 6)
    assert str(LieTypeSpec("C", 2)) == "C2"


def test_spec_is_its_checked_field_tuple():
    # hash and equality of the field tuple keep every dict and set keyed by
    # specs in the same order, so the report bytes do not depend on the record
    spec = LieTypeSpec("D", 2)
    assert hash(spec) == hash(("D", 2))
    assert spec == LieTypeSpec(family="D", rank=2)
    assert repr(spec) == "LieTypeSpec(family='D', rank=2)"
    with pytest.raises(AttributeError):
        spec.rank = 3
    for family, rank in [("D", 1), ("X", 2), ("B", 0)]:
        with pytest.raises(ValueError):
            LieTypeSpec(family, rank)


@pytest.mark.parametrize("family,rank", GRID)
def test_defining_relations_hold_on_v(family, rank):
    rep = natural_rep(LieTypeSpec(family, rank))
    assert validate_rep(rep) == []


def _perturbed(rep, field, index):
    """rep with the first sorted entry of its field[index] matrix times q."""
    mats = dict(getattr(rep, field))
    mat = dict(mats[index])
    key = sorted(mat)[0]
    mat[key] = mat[key] * q_pow(1)
    mats[index] = mat
    return rep._replace(**{field: mats})


@pytest.mark.parametrize(
    "family,rank,field,want",
    [
        ("D", 2, "e_mats", ["[e,f]_1", "[e_1,f_2]", "serre e (1,2)", "serre e (2,1)"]),
        ("B", 1, "e_mats", ["[e,f]_1"]),
        ("C", 2, "e_mats", ["[e,f]_1"]),
        ("GL", 3, "e_mats", ["[e,f]_1"]),
        ("D", 2, "k_mats", ["[e,f]_1", "k_1 e_1 scaling", "k_1 e_2 scaling"]),
    ],
)
def test_validate_rep_names_the_broken_relations(family, rank, field, want):
    rep = natural_rep(LieTypeSpec(family, rank))
    assert validate_rep(_perturbed(rep, field, 1)) == want


@pytest.mark.parametrize("family,rank", GRID)
def test_dual_images_fix_the_coevaluation(family, rank):
    # sum_a v_a (x) v*_a spans a trivial submodule of V (x) V* when V* carries
    # pi(S(x))^T: e and f kill it and k fixes it.  Letters are (dual, label).
    rep = natural_rep(LieTypeSpec(family, rank))
    coev = [((0, a), (1, a)) for a in rep.labels]

    def on_letters(kind, i):
        return {
            (d, a): tuple(((d, b), v) for b, v in terms)
            for d in (0, 1)
            for a, terms in rep.images(kind, i, dual=d == 1).items()
        }

    for i in rep.chevalley_indices():
        k = rep.coproduct_k(i)
        cok = {(d, a): v.inverse() if d else v for a, v in k.items() for d in (0, 1)}
        for kind in "ef":
            out = {}
            for w in coev:
                coproduct_image(out, w, ONE, kind, on_letters(kind, i), cok)
            assert out == {}, (kind, i)
    for b in rep.cartan_indices():
        out = {}
        for w in coev:
            coproduct_image(out, w, ONE, "k", on_letters("k", b), None)
        assert out == {w: ONE for w in coev}


def test_d2_raising_generator_entries():
    rep = natural_rep(LieTypeSpec("D", 2))
    e2 = rep.e_mats[2]
    # +1 at (v_1, v_-2) and -1 at (v_2, v_-1)
    assert e2 == {
        (rep.position(1), rep.position(-2)): ONE,
        (rep.position(2), rep.position(-1)): -ONE,
    }


def test_b1_generator_matrices():
    rep = natural_rep(LieTypeSpec("B", 1))
    p1, p0, pm1 = rep.position(1), rep.position(0), rep.position(-1)
    assert rep.e_mats[1] == {(p1, p0): ONE, (p0, pm1): -ONE}
    k = rep.k_mats[1]
    assert k[(p1, p1)] == q_pow(1)
    assert k[(p0, p0)] == ONE
    assert k[(pm1, pm1)] == q_pow(-1)


def test_gl2_generator_matrices():
    rep = natural_rep(LieTypeSpec("GL", 2))
    assert rep.e_mats[1] == {(1, 2): ONE}
    assert rep.f_mats[1] == {(2, 1): ONE}
    assert rep.k_mats[1] == {(1, 1): q_pow(1), (2, 2): ONE}


@pytest.mark.parametrize("family,rank", GRID)
def test_weight_bookkeeping(family, rank):
    rep = natural_rep(LieTypeSpec(family, rank))
    for i in rep.chevalley_indices():
        alpha = rep.simple_roots[i - 1]
        for (r, c) in rep.e_mats[i]:
            diff = tuple(
                x - y for x, y in zip(rep.weights[r - 1], rep.weights[c - 1])
            )
            assert diff == alpha


def test_quantum_dimensions():
    assert quantum_dimension(LieTypeSpec("D", 2)) == parse_scalar("q^2 + 2 + q^-2")
    # the closed formula [n]_q (q^{n-1} + q^{1-n}) for the even family
    for n in (2, 3):
        spec = LieTypeSpec("D", n)
        qn = (q_pow(n) - q_pow(-n)) / (q_pow(1) - q_pow(-1))
        assert quantum_dimension(spec) == qn * (q_pow(n - 1) + q_pow(1 - n))
    # odd family closed formula, exact division
    for n in (1, 2):
        spec = LieTypeSpec("B", n)
        want = (q_pow(1 - 2 * n) + 1) * (q_pow(2 * n) - q_pow(-1)) / (
            q_pow(1) - q_pow(-1)
        )
        assert quantum_dimension(spec) == want
    assert quantum_dimension(LieTypeSpec("B", 1)) == parse_scalar("q + 1 + q^-1")


@pytest.mark.parametrize("family,rank", GRID)
def test_classical_limit_of_qdim_is_dimension(family, rank):
    spec = LieTypeSpec(family, rank)
    assert quantum_dimension(spec).classical_limit() == natural_rep(spec).dim_v


def test_rho_pairings():
    d2 = LieTypeSpec("D", 2)
    assert rho_pairing(d2, natural_rep(d2).position(1)) == 2
    b1 = LieTypeSpec("B", 1)
    assert rho_pairing(b1, natural_rep(b1).position(0)) == 0
    g2 = LieTypeSpec("GL", 2)
    assert positive_roots(g2) == ((1, -1),)
    assert rho_pairing(g2, 2) == -1
    with pytest.raises(ValueError):
        rho_pairing(d2, 9)


def test_rho_from_positive_roots():
    # 2rho = sum over the stored positive-root list, per family
    for family, rank in GRID:
        spec = LieTypeSpec(family, rank)
        rep = natural_rep(spec)
        acc = [0] * rank
        for r in positive_roots(spec):
            for i, c in enumerate(r):
                acc[i] += c
        assert tuple(acc) == rep.rho2


def test_irrep_dim_gl():
    assert irrep_dim_gl(2, (1,)) == 2
    assert irrep_dim_gl(2, (2, 1)) == 2
    assert irrep_dim_gl(3, (1, 1)) == 3
    assert irrep_dim_gl(3, (2, 1)) == 8
    assert irrep_dim_gl(4, ()) == 1
    with pytest.raises(ValueError):
        irrep_dim_gl(2, (1, 1, 1))
    with pytest.raises(ValueError):
        irrep_dim_gl(2, (1, 2))


def test_sigma_even_family():
    spec = LieTypeSpec("D", 2)
    rep = natural_rep(spec)
    sigma = sigma_candidate(spec)
    ident = LinearOperator.identity(rep.labels)
    assert (sigma @ sigma) == ident
    e1 = LinearOperator(rep.labels, rep.labels, rep.e_mats[1])
    e2 = LinearOperator(rep.labels, rep.labels, rep.e_mats[2])
    assert (sigma @ e1 @ sigma) == e2
    k1 = LinearOperator(rep.labels, rep.labels, rep.k_mats[1])
    k2 = LinearOperator(rep.labels, rep.labels, rep.k_mats[2])
    k12 = k1 @ k2
    assert (sigma @ k12) == (k12 @ sigma)


def test_sigma_odd_family_is_scalar():
    spec = LieTypeSpec("B", 2)
    sigma = sigma_candidate(spec)
    diag = {r for (r, c) in sigma.entries}
    assert len(sigma.entries) == natural_rep(spec).dim_v
    assert all(r == c for (r, c) in sigma.entries)
    vals = set(sigma.entries.values())
    assert len(vals) == 1


def test_sigma_sign_parameter():
    # sigma scales the highest weight vector v_1 by the rank-parity sign
    for rank, sign in ((2, ONE), (3, -ONE)):
        spec = LieTypeSpec("D", rank)
        hw = natural_rep(spec).position(1)
        assert sigma_candidate(spec).column(hw) == {hw: sign}


def test_sigma_rejected_for_gl():
    with pytest.raises(ValueError):
        sigma_candidate(LieTypeSpec("GL", 2))
