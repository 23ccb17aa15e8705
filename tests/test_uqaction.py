import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from qmodalg.algebras import (
    GeneratorRef,
    build_akl,
    build_am,
    build_exterior,
    build_sq,
    psi_pair_poly,
)
from qmodalg.ncpoly import NCPolynomial, x_, y_
from qmodalg.rootdata import LieTypeSpec, natural_rep
from qmodalg.scalar import ONE, q_pow
from qmodalg.uqaction import (
    act,
    invariant_basis,
    invariant_pair_vector,
    is_invariant,
)


def test_generator_ref_is_its_field_tuple():
    # the action cache is keyed by refs; a ref hashes as its field tuple
    e1 = GeneratorRef("e", 1)
    assert hash(e1) == hash(("e", 1, "g"))
    assert e1 == GeneratorRef(kind="e", index=1, group="g")
    assert repr(e1) == "GeneratorRef(kind='e', index=1, group='g')"
    assert (str(e1), str(GeneratorRef("f", 2, "m")), str(GeneratorRef("sigma"))) == (
        "e1", "fm2", "sigma",
    )
    with pytest.raises(AttributeError):
        e1.index = 2


def test_letter_actions_even_family():
    h = build_sq(LieTypeSpec("D", 2))
    e1 = GeneratorRef("e", 1)
    assert act(h, e1, NCPolynomial.from_word((x_(1, 2),))) == NCPolynomial.from_word(
        (x_(1, 1),)
    )
    got = act(h, e1, NCPolynomial.from_word((x_(1, 4),)))
    assert got == NCPolynomial({(x_(1, 3),): -ONE})


def test_letter_action_gl_rows():
    h = build_am(LieTypeSpec("GL", 2), 1)
    got = act(h, GeneratorRef("e", 1), NCPolynomial.from_word((x_(1, 2),)))
    assert got == NCPolynomial.from_word((x_(1, 1),))


def test_k_action_is_diagonal_by_weight():
    h = build_am(LieTypeSpec("D", 2), 2)
    rep = natural_rep(h.spec)
    w = (x_(1, 1), x_(2, 2))
    for i in rep.cartan_indices():
        got = act(h, GeneratorRef("k", i), NCPolynomial.from_word(w))
        ev1 = rep.k_diag(i, 1)
        ev2 = rep.k_diag(i, 2)
        assert got == NCPolynomial({w: ev1 * ev2})
        inv = act(h, GeneratorRef("k_inv", i), NCPolynomial.from_word(w))
        assert inv == NCPolynomial({w: (ev1 * ev2).inverse()})


def test_weights():
    h = build_am(LieTypeSpec("D", 2), 2)
    # eps_1 + (-eps_1) = 0
    assert h.weight((x_(1, 1), x_(1, 4))) == (0, 0)
    hb = build_sq(LieTypeSpec("B", 1))
    assert hb.weight((x_(1, 2),)) == (0,)
    ha = build_akl(2, 1, 1)
    assert ha.weight((x_(1, 2),)) == (0, 1)
    assert ha.weight((y_(1, 2),)) == (0, -1)


def test_weight_additivity_through_normal_form():
    h = build_am(LieTypeSpec("C", 2), 2)
    rng = random.Random(11)
    letters = list(h.alphabet)
    for _ in range(25):
        w1 = tuple(sorted(rng.sample(letters, 2)))
        w2 = tuple(sorted(rng.sample(letters, 2)))
        total = tuple(
            a + b for a, b in zip(h.weight(w1), h.weight(w2))
        )
        prod = h.multiply(NCPolynomial.from_word(w1), NCPolynomial.from_word(w2))
        for w in prod.coeffs:
            assert h.weight(w) == total


@pytest.mark.parametrize(
    "family,rank,m", [("D", 2, 2), ("B", 1, 2), ("C", 2, 2)]
)
def test_module_algebra_law_on_generator_pairs(family, rank, m):
    """e(ab) = e(a)k(b) + a e(b) and the f twin, product-side vs action-side."""
    spec = LieTypeSpec(family, rank)
    h = build_am(spec, m)
    rep = natural_rep(spec)
    letters = [NCPolynomial.from_word((l,)) for l in h.alphabet]
    for i in rep.chevalley_indices():
        e = GeneratorRef("e", i)
        f = GeneratorRef("f", i)
        k = GeneratorRef("k", i)
        ki = GeneratorRef("k_inv", i)
        for a in letters:
            ea, fa, ka, kia = (act(h, g, a) for g in (e, f, k, ki))
            for b in letters:
                ab = h.multiply(a, b)
                eb, fb, kb, kib = (act(h, g, b) for g in (e, f, k, ki))
                assert act(h, e, ab) == h.multiply(ea, kb) + h.multiply(a, eb)
                assert act(h, f, ab) == h.multiply(fa, b) + h.multiply(kia, fb)
                assert act(h, k, ab) == h.multiply(ka, kb)


def test_module_algebra_law_mixed_rows():
    h = build_akl(2, 1, 1)
    rep = natural_rep(h.spec)
    letters = [NCPolynomial.from_word((l,)) for l in h.alphabet]
    e = GeneratorRef("e", 1)
    f = GeneratorRef("f", 1)
    k = GeneratorRef("k", 1)
    ki = GeneratorRef("k_inv", 1)
    for a in letters:
        for b in letters:
            ab = h.multiply(a, b)
            lhs = act(h, e, ab)
            # the group-like in the raising coproduct is K_1 K_2^{-1}
            kb = act(h, GeneratorRef("k", 1), act(h, GeneratorRef("k_inv", 2), b))
            rhs = h.multiply(act(h, e, a), kb) + h.multiply(a, act(h, e, b))
            assert lhs == rhs


def test_ladder_consistency():
    # [e_i, f_i] acts as (k_i - k_i^-1)/(q_i - q_i^-1)
    for family, rank in [("D", 2), ("B", 2), ("C", 2), ("GL", 2)]:
        spec = LieTypeSpec(family, rank)
        h = (
            build_am(spec, 2)
            if family != "GL"
            else build_akl(spec.rank, 1, 1)
        )
        rep = natural_rep(spec)
        sample = [
            NCPolynomial.from_word((h.alphabet[0],)),
            NCPolynomial.from_word((h.alphabet[1], h.alphabet[-1])),
        ]
        for i in rep.chevalley_indices():
            e, f = GeneratorRef("e", i), GeneratorRef("f", i)
            if family == "GL":
                denom = q_pow(1) - q_pow(-1)
            elif family == "C" and i == rank:
                denom = q_pow(2) - q_pow(-2)
            else:
                denom = q_pow(1) - q_pow(-1)
            for p in sample:
                p = h.normal_form(p)
                lhs = act(h, e, act(h, f, p)) - act(h, f, act(h, e, p))
                if family == "GL":
                    kk = act(h, GeneratorRef("k", i), act(h, GeneratorRef("k_inv", i + 1), p))
                    kkinv = act(h, GeneratorRef("k_inv", i), act(h, GeneratorRef("k", i + 1), p))
                else:
                    kk = act(h, GeneratorRef("k", i), p)
                    kkinv = act(h, GeneratorRef("k_inv", i), p)
                rhs = (kk - kkinv).scale(denom.inverse())
                assert lhs == rhs


def test_invariance_examples():
    d2 = LieTypeSpec("D", 2)
    h = build_sq(d2)
    phi = h.normal_form(psi_pair_poly(d2, 1, 1))
    assert is_invariant(h, phi).verdict
    rep = is_invariant(h, NCPolynomial.from_word((x_(1, 1),)))
    assert not rep.verdict
    assert "f1" in rep.failing()


def test_invariant_basis_examples():
    d2 = LieTypeSpec("D", 2)
    h = build_sq(d2)
    basis = invariant_basis(h, (2,))
    assert len(basis) == 1
    phi = h.normal_form(psi_pair_poly(d2, 1, 1))
    # spanned by the invariant pairing up to scale
    from qmodalg.linalg import EchelonBasis

    eb = EchelonBasis()
    eb.add(basis[0].coeffs)
    assert eb.contains(phi.coeffs)
    assert invariant_basis(h, (3,)) == []
    hc = build_sq(LieTypeSpec("C", 2))
    assert invariant_basis(hc, (2,)) == []


def test_invariant_basis_elements_are_invariant():
    h = build_am(LieTypeSpec("B", 1), 2)
    for p in invariant_basis(h, (2, 2)):
        assert is_invariant(h, p).verdict


def test_invariant_pair_vector_d2_values():
    spec = LieTypeSpec("D", 2)
    rep = natural_rep(spec)
    t, report = invariant_pair_vector(spec)
    assert report["pass"]
    pos = rep.position
    assert t == {
        (pos(1), pos(-1)): q_pow(1),
        (pos(2), pos(-2)): ONE,
        (pos(-2), pos(2)): ONE,
        (pos(-1), pos(1)): q_pow(-1),
    }


def test_invariant_pair_vector_c_signs_and_b_constant():
    spec = LieTypeSpec("C", 2)
    rep = natural_rep(spec)
    t, report = invariant_pair_vector(spec)
    assert report["pass"]
    assert t[(rep.position(-1), rep.position(1))] == -q_pow(-2)
    t, report = invariant_pair_vector(LieTypeSpec("B", 1))
    assert report["pass"]
    const_entry = [
        e for e in report["entries"] if "constant 1" in e["citation"]
    ]
    assert const_entry and const_entry[0]["pass"]
    with pytest.raises(ValueError):
        invariant_pair_vector(LieTypeSpec("GL", 2))


def test_invariant_basis_json_export():
    import json

    from qmodalg.uqaction import invariant_basis_json

    h = build_sq(LieTypeSpec("D", 2))
    data = invariant_basis_json(h, (2,))
    assert len(data) == 1
    assert all(len(term) == 2 for term in data[0])
    # round-trips through json and names the slot-free letters
    encoded = json.dumps(data)
    assert "v[1]v[4]" in encoded
    ha = build_akl(2, 1, 1)
    data = invariant_basis_json(ha, (1, 1))
    assert len(data) == 1
    assert any("Y[1,1]" in word for _, word in data[0])


def test_sigma_invariance_of_pairing():
    spec = LieTypeSpec("D", 2)
    h = build_am(spec, 2)
    psi = h.normal_form(psi_pair_poly(spec, 1, 2))
    rep = is_invariant(h, psi, include_sigma=True)
    assert rep.verdict


def test_exterior_action_both_groups():
    h = build_exterior(2, 2)
    p = NCPolynomial.from_word(((0, 2, 1),))
    got = act(h, GeneratorRef("e", 1, "m"), p)
    assert got == NCPolynomial.from_word(((0, 1, 1),))
    p = NCPolynomial.from_word(((0, 1, 2),))
    got = act(h, GeneratorRef("e", 1, "n"), p)
    assert got == NCPolynomial.from_word(((0, 1, 1),))
    assert h.weight(((0, 1, 2),)) == (1, 0, 0, 1)


def test_invariant_basis_bytes_do_not_depend_on_the_hash_seed():
    import qmodalg

    code = (
        "import json\n"
        "from qmodalg.algebras import build_am\n"
        "from qmodalg.rootdata import LieTypeSpec\n"
        "from qmodalg.uqaction import invariant_basis_json\n"
        "h = build_am(LieTypeSpec('B', 1), 2)\n"
        "print(json.dumps(invariant_basis_json(h, (4, 4))))\n"
    )
    src = str(Path(qmodalg.__file__).resolve().parents[1])
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert len(json.loads(outs[0])) == 3


# sha256 of every rendered act(h, g, w): g over the invariance generators
# (sigma included) and k_inv, w over all words of degree <= 2, per handle
ACT_PIN = "9ece4633d263938a64266357b4cad842e30db1cd7344e744ebe30e1f9d0feeca"


def _act_blob():
    from itertools import product

    handles = [build_am(LieTypeSpec(f, r), 2) for f, r in (("D", 2), ("B", 1), ("C", 2), ("GL", 2))]
    handles += [build_akl(2, 2, 2), build_exterior(2, 3)]
    lines = []
    for h in handles:
        gens = h.invariance_generators(include_sigma=True)
        gens += [GeneratorRef("k_inv", g.index, g.group) for g in gens if g.kind == "k"]
        words = [w for d in range(3) for w in product(h.alphabet, repeat=d)]
        for g in gens:
            for w in words:
                img = act(h, g, NCPolynomial.from_word(w))
                lines.append(f"{h.kind} {h.spec} {h.params} {g} {w}: {h.render(img)}")
    return "\n".join(lines)


def test_letter_action_bytes_are_pinned():
    import hashlib

    assert hashlib.sha256(_act_blob().encode()).hexdigest() == ACT_PIN
