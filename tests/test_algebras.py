import hashlib
import json

import pytest

from qmodalg.algebras import (
    AlgebraHandle,
    PresentationError,
    _pair_rules_solved,
    _solve_pair_rules,
    build_akl,
    build_am,
    build_exterior,
    build_sq,
    presentation_manifest,
    printed_rule_diffs,
    psi_pair_poly,
    tensor_oracle_product,
)
from qmodalg.braiding import rcheck
from qmodalg.cli import GRID_SPECS
from qmodalg.linalg import EchelonBasis
from qmodalg.ncpoly import NCPolynomial, x_, y_
from qmodalg.rootdata import LieTypeSpec
from qmodalg.scalar import ONE, accumulate, q_pow


def test_sq_rule_counts_even_rank_two():
    # one straightening rule per inverted letter pair
    h = build_sq(LieTypeSpec("D", 2))
    assert len(h.rs.rules) == 6
    hb = build_sq(LieTypeSpec("B", 1))
    assert len(hb.rs.rules) == 3
    hc = build_sq(LieTypeSpec("C", 2))
    assert len(hc.rs.rules) == 6


def test_sq_gl_rejected():
    with pytest.raises(ValueError):
        build_sq(LieTypeSpec("GL", 2))


def test_odd_family_zero_square_rule():
    # v_{-1} v_1 = v_1 v_{-1} - (q - 1) v_0 v_0 at rank one
    h = build_sq(LieTypeSpec("B", 1))
    got = h.normal_form(NCPolynomial.from_word((x_(1, 3), x_(1, 1))))
    want = NCPolynomial(
        {(x_(1, 1), x_(1, 3)): ONE, (x_(1, 2), x_(1, 2)): -(q_pow(1) - ONE)}
    )
    assert got == want


def test_symplectic_last_straightening():
    # v_{-n} v_n = v_n v_{-n} + (q - q^-1)(q^2 v_1 v_{-1} + q v_2 v_{-2}), n = 2
    h = build_sq(LieTypeSpec("C", 2))
    got = h.normal_form(NCPolynomial.from_word((x_(1, 3), x_(1, 2))))
    qq = q_pow(1) - q_pow(-1)
    want = NCPolynomial(
        {
            (x_(1, 2), x_(1, 3)): ONE + qq * q_pow(1),
            (x_(1, 1), x_(1, 4)): qq * q_pow(2),
        }
    )
    assert got == want
    # v_{-1} v_1 = q^2 v_1 v_{-1} (the partial sum below the cut is empty)
    got = h.normal_form(NCPolynomial.from_word((x_(1, 4), x_(1, 1))))
    assert got == NCPolynomial({(x_(1, 1), x_(1, 4)): q_pow(2)})


def test_cross_rule_matches_printed_first_family():
    # X_{22} X_{13} = q X_{13} X_{22} - (q - q^-1) psi_2^{(1,2)} at n = 2
    spec = LieTypeSpec("D", 2)
    h = build_am(spec, 2)
    got = h.multiply(
        NCPolynomial.from_word((x_(2, 2),)), NCPolynomial.from_word((x_(1, 3),))
    )
    qq = q_pow(1) - q_pow(-1)
    psi2 = NCPolynomial(
        {(x_(1, 4), x_(2, 1)): q_pow(-1), (x_(1, 3), x_(2, 2)): ONE}
    )
    want = NCPolynomial({(x_(1, 3), x_(2, 2)): q_pow(1)}) + psi2.scale(-qq)
    assert got == want


def test_gl_cross_rule_no_correction():
    # t_{21} t_{12} = t_{12} t_{21}
    h = build_am(LieTypeSpec("GL", 2), 2)
    got = h.multiply(
        NCPolynomial.from_word((x_(2, 1),)), NCPolynomial.from_word((x_(1, 2),))
    )
    assert got == NCPolynomial({(x_(1, 2), x_(2, 1)): ONE})


def test_skew_twist_symplectic():
    spec = LieTypeSpec("C", 2)
    h = build_am(spec, 2)
    psi12 = h.normal_form(psi_pair_poly(spec, 1, 2))
    psi21 = h.normal_form(psi_pair_poly(spec, 2, 1))
    assert psi21 == psi12.scale(-q_pow(-5))


def test_akl_cross_rules_match_the_display():
    h = build_akl(2, 1, 1)
    qq = q_pow(1) - q_pow(-1)
    got = h.multiply(
        NCPolynomial.from_word((y_(1, 1),)), NCPolynomial.from_word((x_(1, 1),))
    )
    want = NCPolynomial({(x_(1, 1), y_(1, 1)): q_pow(1)}) + NCPolynomial(
        {(x_(1, 1), y_(1, 1)): ONE, (x_(1, 2), y_(1, 2)): ONE}
    ).scale(-qq)
    assert got == want
    got = h.multiply(
        NCPolynomial.from_word((y_(1, 2),)), NCPolynomial.from_word((x_(1, 1),))
    )
    assert got == NCPolynomial({(x_(1, 1), y_(1, 2)): ONE})


def test_dual_row_straightening():
    h = build_akl(2, 1, 2)
    # same dual row: Y_{12} Y_{11} -> q^-1 Y_{11} Y_{12}
    got = h.multiply(
        NCPolynomial.from_word((y_(1, 2),)), NCPolynomial.from_word((y_(1, 1),))
    )
    assert got == NCPolynomial({(y_(1, 1), y_(1, 2)): q_pow(-1)})
    # cross dual rows, same column: Y_{21} Y_{11} -> q^-1 Y_{11} Y_{21}
    got = h.multiply(
        NCPolynomial.from_word((y_(2, 1),)), NCPolynomial.from_word((y_(1, 1),))
    )
    assert got == NCPolynomial({(y_(1, 1), y_(2, 1)): q_pow(-1)})


def _dual_row_rules_from_rcheck_inverse(n):
    """Reference: the dual-row rules solved from the rows of q^-1 - R^-1,
    R^-1 = R-check^-1 o P, one independent row at a time."""
    rinv = rcheck(LieTypeSpec("GL", n), inverse=True)
    labels = tuple(range(1, n + 1))
    eb = EchelonBasis()
    ideal = []
    for a in labels:
        for b in labels:
            rel = {(b, a): q_pow(-1)}
            accumulate(rel, (((c1, c2), -v) for (r, (c2, c1)), v in rinv.entries.items()
                             if r == (a, b)))
            if rel and eb.add(rel):
                ideal.append(rel)
    normal = [(a, b) for a in labels for b in labels if a <= b]
    pairs = [(b, a) for b in labels for a in labels if b > a]
    return _solve_pair_rules(ideal, normal, pairs, f"dual row GL{n}")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dual_row_rules_are_the_swapped_anti_summand(n):
    got = _pair_rules_solved(LieTypeSpec("GL", n), dual=True)
    assert got == _dual_row_rules_from_rcheck_inverse(n)
    assert len(got) == n * (n - 1) // 2


def test_exterior_rules():
    h = build_exterior(2, 2)
    qq = q_pow(1) - q_pow(-1)
    got = h.normal_form(NCPolynomial.from_word(((0, 1, 2), (0, 1, 1))))
    assert got == NCPolynomial({((0, 1, 1), (0, 1, 2)): -q_pow(-1)})
    # the mixed pair straightens with the sign forced by the relations
    got = h.normal_form(NCPolynomial.from_word(((0, 2, 1), (0, 1, 2))))
    want = NCPolynomial(
        {
            ((0, 1, 2), (0, 2, 1)): -ONE,
            ((0, 1, 1), (0, 2, 2)): qq,
        }
    )
    assert got == want
    # and the claimed defining relations hold as normal-form identities
    def nf(*letters):
        return h.normal_form(NCPolynomial.from_word(tuple((0,) + l for l in letters)))

    for (i, l, j, k) in [(1, 2, 2, 1)]:
        lhs = (
            nf((i, l), (j, k))
            + nf((j, k), (i, l))
            + nf((j, l), (i, k)).scale(qq)
        )
        assert lhs.is_zero()
    assert (nf((1, 1), (2, 2)) + nf((2, 2), (1, 1))).is_zero()


def test_exterior_dimensions():
    for m, n in [(2, 2), (2, 3)]:
        h = build_exterior(m, n)
        total = 0
        for k in range(m * n + 1):
            total += sum(h.graded_dimension(d) for d in h.degree_compositions(k))
        assert total == 2 ** (m * n)
    h = build_exterior(2, 2)
    deg2 = sum(h.graded_dimension(d) for d in h.degree_compositions(2))
    assert deg2 == 6


def test_graded_dimension_examples():
    h1 = build_sq(LieTypeSpec("D", 2))
    assert h1.graded_dimension((2,)) == 10
    h2 = build_am(LieTypeSpec("D", 2), 2)
    assert h2.graded_dimension((1, 1)) == 16


def test_oracle_identity_and_agreement():
    spec = LieTypeSpec("D", 2)
    m = 2
    h = build_am(spec, m)
    y = h.normal_form(NCPolynomial.from_word((x_(1, 2), x_(2, 3))))
    assert tensor_oracle_product(spec, m, NCPolynomial.one(), y) == y
    assert tensor_oracle_product(spec, m, y, NCPolynomial.one()) == y
    for l1 in h.alphabet:
        for l2 in h.alphabet:
            p1, p2 = NCPolynomial.from_word((l1,)), NCPolynomial.from_word((l2,))
            assert h.multiply(p1, p2) == tensor_oracle_product(spec, m, p1, p2)


@pytest.mark.parametrize("family,rank", [("D", 3), ("B", 2), ("C", 3)])
def test_oracle_agreement_higher_rank_generator_pairs(family, rank):
    spec = LieTypeSpec(family, rank)
    h = build_am(spec, 2)
    for l1 in h.alphabet:
        p1 = NCPolynomial.from_word((l1,))
        for l2 in h.alphabet:
            p2 = NCPolynomial.from_word((l2,))
            assert h.multiply(p1, p2) == tensor_oracle_product(spec, 2, p1, p2)


@pytest.mark.parametrize("family,rank", [("D", 2), ("B", 1), ("C", 2)])
def test_oracle_agreement_degree_three(family, rank):
    spec = LieTypeSpec(family, rank)
    h = build_am(spec, 2)
    words1 = [(l,) for l in h.alphabet]
    words2 = []
    for d in h.degree_compositions(2):
        words2.extend(h.graded_words(d))
    for w1 in words1:
        p1 = NCPolynomial.from_word(w1)
        for w2 in words2[:: max(1, len(words2) // 12)]:
            p2 = NCPolynomial.from_word(w2)
            assert h.multiply(p1, p2) == tensor_oracle_product(spec, 2, p1, p2)
            assert h.multiply(p2, p1) == tensor_oracle_product(spec, 2, p2, p1)


@pytest.mark.parametrize("family,rank", [("D", 2), ("B", 1), ("C", 2)])
def test_oracle_braids_a_descent_inside_a_factor(family, rank):
    # x descends inside itself but meets y in slot order: only the braid
    # steps inside x bring x + y to slot order before it is straightened
    spec = LieTypeSpec(family, rank)
    x = NCPolynomial.from_word((x_(2, 1), x_(1, 1)))
    y = NCPolynomial.from_word((x_(2, 2),))
    assert tensor_oracle_product(spec, 2, x, y) == build_am(spec, 2).multiply(x, y)


def test_printed_variant_audit_counts():
    # the braiding-derived rules are the shipped ones; the printed cross
    # relations differ in the second exchange family (and for the odd family
    # also in the first), which the audit must surface
    diffs = {
        str(spec): sum(1 for e in printed_rule_diffs(spec, 2) if not e["agrees"])
        for spec in (LieTypeSpec("D", 2), LieTypeSpec("B", 1), LieTypeSpec("C", 2))
    }
    assert diffs == {"D2": 2, "B1": 1, "C2": 3}


def test_strict_variant_behaves_differently():
    spec = LieTypeSpec("B", 1)
    shipped = build_am(spec, 2)
    strict = build_am(spec, 2, strict=True)
    pattern = NCPolynomial.from_word((x_(2, 3), x_(1, 1)))
    assert shipped.normal_form(pattern) != strict.normal_form(pattern)


def test_build_am_is_one_handle_however_strict_is_spelled():
    # one handle, and so one rewrite memo, per (spec, m, strict)
    spec = LieTypeSpec("D", 2)
    shipped = build_am(spec, 2)
    assert build_am(spec, 2, False) is shipped and build_am(spec, 2, strict=False) is shipped
    strict = build_am(spec, 2, strict=True)
    assert strict is not shipped and build_am(spec, 2, True) is strict


def test_manifest_shape():
    h = build_am(LieTypeSpec("D", 2), 2)
    man = presentation_manifest(h)
    assert man["kind"] == "Am" and man["spec"] == "D2"
    assert len(man["rules"]) == len(h.rs.rules)
    entry = man["rules"][0]
    assert set(entry) == {"pattern", "replacement", "provenance"}
    # the solved degree-2 rules of every builder, byte for byte
    pins = [
        (build_sq(LieTypeSpec("D", 2)),
         "547dcff9ddfff8264adb766a643cc2e7635c40974765f23bb3e1e369a7594b09"),
        (build_am(LieTypeSpec("B", 1), 2),
         "5db448d82463b03319c6eb23c1bdcc28af1e9e69118fb223f58ce2dab18d3687"),
        (build_am(LieTypeSpec("C", 2), 2),
         "313633a0c3ec646bb89b6cbf3df6264bb07deacba2b78bbcfe71dfae50f32773"),
        (build_am(LieTypeSpec("GL", 2), 2),
         "437853b2a751f51b4b700eeec390c27a9b85aa1f8a326b950f0af22e6db38880"),
        (build_akl(2, 2, 2),
         "b428447ce0c428454f3cb29d12eaee0ad4b61700b7ad6ec388f349521048bf24"),
        (build_exterior(2, 3),
         "d2aa2ad54890bb515ed6f0a1044a7da229e684a99a7befdac2aca4acf850d282"),
        # the printed cross rules, three slots
        (build_am(LieTypeSpec("D", 2), 3, strict=True),
         "b3a5cb9f5143e08d52136fe7dbcc2b2c3a51f0a27dc5918e43483b5f85e62108"),
        (build_am(LieTypeSpec("B", 1), 3, strict=True),
         "0ca24b3f27be81e0da0bb2f5a383131ca6c528e21b3677592f1de9c81c139cd6"),
        (build_am(LieTypeSpec("C", 2), 3, strict=True),
         "1e03090fc912f63d9e406afc6003a5f067f477d370bf29738d78b7d2a2c17ee1"),
        (build_am(LieTypeSpec("D", 3), 3, strict=True),
         "f48353f9ab2476fee9df776cb1404b1ecba8bfabbb34d77d55d79038be28c56e"),
        (build_am(LieTypeSpec("B", 2), 3, strict=True),
         "ac3bc7b188cb89e54120ed178af2adff7096d0142d8720220a98e907d7783b51"),
        (build_am(LieTypeSpec("C", 3), 3, strict=True),
         "7a217571342007c883c0cc526f69e6557807957984be36b3a149f8d8632dd8d7"),
        # the derived cross-slot, dual-row and mixed rules
        (build_am(LieTypeSpec("D", 3), 3),
         "3521ba4abb2a4a14bb33e2e22a7f142530cb60c2f725d62d5b6dbfe27f131a4c"),
        (build_am(LieTypeSpec("B", 2), 3),
         "c7c923cc995236e344a876a60f350ec13b2fcb2a53a494e2eccad92e1146daea"),
        (build_am(LieTypeSpec("C", 3), 3),
         "5e22e2c99daf0cfe9bf55cf478533b5e9e0605267f106487581e8702b385d23e"),
        (build_akl(3, 2, 3),
         "0b3cf2a9164482ecfd9f9f817109ae7ea2df7f6792c7ce8fcb3dcb4beca12b0a"),
        (build_exterior(3, 2),
         "a88eb423c73959fdc5de55b2ad4d6bc9639c04df70c154f3541b86cb8fad56ae"),
    ]
    for handle, want in pins:
        blob = json.dumps(
            presentation_manifest(handle), sort_keys=True, separators=(",", ":")
        )
        assert hashlib.sha256(blob.encode()).hexdigest() == want, (
            handle.kind, str(handle.spec), handle.params, handle.strict)


@pytest.mark.parametrize(
    "build,args",
    [
        *(
            pytest.param(
                build_am,
                (LieTypeSpec(f, r), m, strict),
                id=f"A{m}({f}{r})" + ("-strict" if strict else ""),
            )
            for f, r in GRID_SPECS
            for m in (2, 3, 4)
            for strict in ((False,) if f == "GL" else (False, True))
        ),
        *(
            pytest.param(build_akl, nkl, id="Akl(GL%d)-%d,%d" % nkl)
            for nkl in ((2, 2, 2), (3, 2, 2), (2, 3, 3), (2, 4, 1))
        ),
        *(
            pytest.param(build_exterior, mn, id="Ext(%d,%d)" % mn)
            for mn in ((2, 2), (3, 2), (2, 3), (3, 3))
        ),
    ],
)
def test_every_shipped_rule_table_is_slot_local(build, args):
    # the relation suites compute one residual per slot pattern only on a
    # slot-local table, and fall back to one per instance on any other
    assert build(*args).rs.slot_local


def test_rule_degree_homogeneity():
    for handle in (
        build_am(LieTypeSpec("D", 2), 2),
        build_akl(2, 2, 2),
        build_exterior(2, 2),
    ):
        for pat, repl in handle.rs.rules.items():
            d = handle.grading(pat)
            for w in repl.coeffs:
                assert handle.grading(w) == d


def test_handles_refuse_broken_rule_tables():
    h = build_am(LieTypeSpec("D", 2), 2)
    rules = dict(h.rs.rules)
    pat = min(p for p in rules if p[0][1] == 2 and p[1][1] == 1)

    def handle(table):
        return AlgebraHandle(h.kind, h.spec, h.params, h.slots, [("test", table)])

    assert handle(rules).rs.rules == h.rs.rules
    with pytest.raises(PresentationError, match="has no straightening rule"):
        handle({p: r for p, r in rules.items() if p != pat})
    # a cross rule whose replacement sits on one slot
    one_slot = {(x_(1, w[0][2]), x_(1, w[1][2])): c for w, c in rules[pat].coeffs.items()}
    with pytest.raises(PresentationError, match="is not degree-homogeneous"):
        handle({**rules, pat: NCPolynomial(one_slot)})
