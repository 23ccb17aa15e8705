import copy
import hashlib
import json
from itertools import combinations

import pytest

from qmodalg import invariants
from qmodalg.algebras import AlgebraHandle, build_akl, build_am, build_exterior, build_sq
from qmodalg.braiding import pair_eigenvalue_p0, pairing
from qmodalg.invariants import (
    PartitionError,
    PsiRefError,
    exterior_highest_weight,
    fft_verify,
    phi_partial,
    psi,
    psi_monomial_span,
    skew_duality_check,
    verify_relation_suite,
)
from qmodalg.ncpoly import NCPolynomial, RewriteSystem, x_, y_
from qmodalg.rootdata import LieTypeSpec, natural_rep
from qmodalg.scalar import ONE, q_pow
from qmodalg.linalg import nullspace
from qmodalg.uqaction import act, invariant_basis, is_invariant, span_contained_in


def test_psi_pair_letter_expansion():
    spec = LieTypeSpec("D", 2)
    h = build_am(spec, 2)
    got = psi(h, (1, 2))
    n = 2
    want = {}
    for k in range(1, n + 1):
        want[(x_(1, k), x_(2, 2 * n + 1 - k))] = q_pow(n - k)
        want[(x_(1, 2 * n + 1 - k), x_(2, k))] = q_pow(k - n)
    assert got == NCPolynomial(want)


def test_equal_slot_psi_is_the_slot_invariant():
    spec = LieTypeSpec("D", 2)
    h = build_am(spec, 2)
    # Psi^(2,2) = q^{1-n}(q^{n-1} + q^{1-n}) phi_plus_1 in slot 2
    got = psi(h, (2, 2))
    phi1 = phi_partial(h, "phi_plus", (2,), 1)
    assert got == phi1.scale(q_pow(-1) * (q_pow(1) + q_pow(-1)))


def test_phi_ratio():
    # the printed constant q^(2n-2) is the t = 1 instance; the identity that
    # actually holds for every cut is phi_plus_t = q^(2(n-t)) phi_minus_t
    h = build_sq(LieTypeSpec("D", 3))
    n = 3
    for t in range(1, n + 1):
        plus = phi_partial(h, "phi_plus", (1,), t)
        minus = phi_partial(h, "phi_minus", (1,), t)
        assert plus == minus.scale(q_pow(2 * (n - t)))
    assert phi_partial(h, "phi_plus", (1,), 1) == phi_partial(
        h, "phi_minus", (1,), 1
    ).scale(q_pow(2 * n - 2))


def test_varphi_example_rank_one():
    h = build_am(LieTypeSpec("B", 1), 2)
    got = phi_partial(h, "varphi", (1,))
    want = NCPolynomial(
        {
            (x_(1, 1), x_(1, 3)): q_pow(0),
            (x_(1, 2), x_(1, 2)): (ONE - q_pow(-1)) / (q_pow(1) - q_pow(-1)),
        }
    )
    assert got == want


@pytest.mark.parametrize(
    "family,rank,kind,indices,t",
    [
        ("GL", 2, "psi_t", (1, 2), 1),      # GL has no pairing
        ("GL", 2, "bar_psi_t", (1, 2), 1),
        ("C", 2, "psi_t", (1, 2), 5),       # t must lie in 1..n
        ("D", 2, "psi_t", (1, 7), 1),       # slot 7 of 2
        ("D", 2, "phi_plus", 5, 1),
        ("B", 1, "varphi", (3,), None),
    ],
)
def test_phi_partial_rejects_what_it_cannot_build(family, rank, kind, indices, t):
    h = build_am(LieTypeSpec(family, rank), 2)
    with pytest.raises(PsiRefError):
        phi_partial(h, kind, indices, t)


def test_psi_gl():
    h = build_akl(2, 2, 2)
    got = psi(h, (1, 1))
    assert got == NCPolynomial(
        {(x_(1, 1), y_(1, 1)): ONE, (x_(1, 2), y_(1, 2)): ONE}
    )
    assert is_invariant(h, got).verdict


def test_symplectic_equal_slot_rejected():
    h = build_am(LieTypeSpec("C", 2), 2)
    with pytest.raises(PsiRefError):
        psi(h, (1, 1))
    with pytest.raises(PsiRefError):
        psi(h, (0, 1))
    # handles without pairing generators, and a row outside A_{2,2}
    exterior, gl = build_exterior(2, 2), build_am(LieTypeSpec("GL", 2), 2)
    for handle, ref in [(exterior, (1, 1)), (gl, (1, 2)), (build_akl(2, 2, 2), (3, 1))]:
        with pytest.raises(PsiRefError):
            psi(handle, ref)
    for handle in (exterior, gl):
        assert psi_monomial_span(handle, (1, 1))[0] == 0
        assert psi_monomial_span(handle, (0, 0))[0] == 1


@pytest.mark.parametrize("degree", [(2, 2, 2), (1, 1, 0), (2,)])
def test_span_rejects_wrong_length_degree(degree):
    h = build_am(LieTypeSpec("D", 2), 2)
    with pytest.raises(ValueError, match="degree length must match the slot count"):
        psi_monomial_span(h, degree)


@pytest.mark.parametrize("verify", [psi_monomial_span, fft_verify])
@pytest.mark.parametrize("degree", [(-1, 3), (2, -2)])
def test_negative_degree_parts_are_refused(verify, degree):
    h = build_am(LieTypeSpec("D", 2), 2)
    with pytest.raises(ValueError, match="degree parts must be non-negative"):
        verify(h, degree)


@pytest.mark.parametrize(
    "family,rank,m",
    [("D", 2, 3), ("B", 1, 3), ("C", 2, 3)],
)
def test_relation_suites_smaller_grid(family, rank, m):
    h = build_am(LieTypeSpec(family, rank), m)
    rep = verify_relation_suite(h)
    assert rep["pass"], [e for e in rep["entries"] if not e["pass"]][:3]
    # the rewrite memo holds one Scalar object per distinct coefficient value
    values = [c for nf in h.rs._memo.values() for c in nf.values()]
    assert len({id(c) for c in values}) == len(set(values)) < len(values)


# sha256 (suite_sha below) of the GL relation suites on build_akl(n, k, l)
# where the i<j and alpha<beta loops run more than once; the grid pins only
# k = l = 2.
GL_SUITE_PINS = {
    (2, 3, 3): "eb85993b2c80e796e74dc6a942c19e66a9aea09d722c66b17ece858c9633c20a",
    (3, 2, 3): "3ada78d892109158d2add63ab31253855b5143f77f05e98e10387c8b3316ed3b",
    (2, 3, 2): "98e502223520e1d72725957673aafcea6f220ffd720b5b7d7ea4cbf895ac43b3",
}


def test_relation_suite_gl():
    rep = verify_relation_suite(build_akl(2, 2, 2))
    assert rep["pass"]
    for (n, k, l), sha in GL_SUITE_PINS.items():
        rep = verify_relation_suite(build_akl(n, k, l))
        assert rep["pass"], (n, k, l)
        assert suite_sha(rep) == sha, (n, k, l)


# sha256 of the canonical JSON of each suite's entries: citation, instance,
# variant, verdict and residual text, in order.  The grid pins only the m=4
# non-strict bytes; strict mode keeps the printed presentation, whose
# residuals are pinned here.
SUITE_PINS = {
    ("D", 2, 5, False): "b2f76d702ae6fc8914171601ca92bfc5dba8cfd91f026674c4131205b2c06852",
    ("B", 1, 5, False): "30bb6eb97ca4d1e04aeef1913fb87d1977aa3529c2fae6722e076544aa6a0f99",
    ("C", 2, 5, False): "9d8d0dd88e9210224fe70502e5512154934b969d94c777070ae9f9f51e346d18",
    ("B", 2, 3, False): "32ca0076047c7cf94b78af97c5895be5c99aec02206ed6f5c9366d0f94316581",
    ("D", 3, 3, False): "60d2e40724670babe9e1667ca61161a38199eed6eb8df1bd6b16574ab7e5039e",
    ("C", 3, 3, False): "e9114ce90d4b5552222b231299ee093e41bc6f117dc91e9f8f6afa8dbc68499d",
    ("D", 2, 3, True): "fb2cdde738455f1386d65a2b1c9e9f1ffe31298cc5265d5b39b0c05d914b461b",
    ("B", 1, 3, True): "edf0482f6225c30cc4bf25c4b646bf0cca92ca5f34a6b3bd3536babcb1d570e2",
    ("C", 2, 3, True): "e3a8420ed5a9b78deac39e9db618f9c51ac06fa4d86b87c2acd34b678026582c",
    ("D", 2, 4, True): "42779004b87fe85cf08f2dee9d7e919e30058aa7a033885a78485a6df5add44f",
    ("B", 1, 4, True): "fe8f5d870f42f712c3186baee34c6fed50176c763190c7bb3b848d3f8a13f4c2",
    ("C", 2, 4, True): "76e6aa5be8a7333309d6e3d1a8039666c1970446f2168c7945c134559f7fcb20",
}


def suite_sha(rep):
    blob = json.dumps(rep["entries"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("family,rank", [("B", 2), ("D", 3), ("C", 3)])
def test_relation_suites_higher_rank(family, rank):
    # exercises the correction terms away from the smallest rank (for the
    # odd family the varphi path includes the genuine zero-weight letter)
    h = build_am(LieTypeSpec(family, rank), 3)
    rep = verify_relation_suite(h)
    assert rep["pass"], [e for e in rep["entries"] if not e["pass"]][:3]
    assert suite_sha(rep) == SUITE_PINS[(family, rank, 3, False)]


@pytest.mark.parametrize(
    "family,rank,m,strict",
    [key for key in SUITE_PINS if key[2] != 3 or key[3]],
)
def test_relation_suite_bytes_are_pinned(family, rank, m, strict):
    h = build_am(LieTypeSpec(family, rank), m, strict=strict)
    assert suite_sha(verify_relation_suite(h)) == SUITE_PINS[(family, rank, m, strict)]


# Per-instance reference: every relation instance built, multiplied and
# reduced on its own slots, as the suites did before they worked per slot
# pattern.  The suites must give these entries byte for byte.

def _eager_classical_entries(handle):
    fam = invariants._FAMILIES[handle.spec.family]
    m, n = handle.params["m"], handle.spec.rank
    skew, kappa = pairing(handle.spec).skew, pair_eigenvalue_p0(handle.spec)
    qq = q_pow(1) - q_pow(-1)
    mul = handle.multiply
    comm = lambda a, b: mul(a, b) - mul(b, a)
    exchange = lambda a, b, c: mul(a, b) - mul(b, a).scale(c)
    slots = range(1, m + 1)
    P = {ref: psi(handle, ref) for ref in handle.pairings}
    corr = {i: fam.correction(handle, i) for i in slots} if fam.correction else None
    letters = range(1, natural_rep(handle.spec).dim_v + 1)
    x = {(k, a): NCPolynomial.from_word((x_(k, a),)) for k in slots for a in letters}
    entries = []

    def add(key, instance, res):
        citation = fam.citations.get(key, invariants._CITATIONS[key])
        entries.append(invariants._entry(citation, instance, res, handle, fam.variants.get(key)))

    for i, j in combinations(slots, 2):
        add("twist", f"{fam.labels[0]}({i},{j})", P[(j, i)] - P[(i, j)].scale(kappa))
    if fam.ratio:
        for i in slots:
            add("ratio", f"i={i}", corr[i] - P[(i, i)].scale(fam.ratio(n)))
    if not skew:
        for i in slots:
            for k in slots:
                for a in letters:
                    add("central", f"i={i},k={k},a={a}", comm(x[(k, a)], P[(i, i)]))
    for i, j in combinations(slots, 2):
        for k in list(range(1, i)) + list(range(j + 1, m + 1)):
            for a in letters:
                add("outside", f"i={i},j={j},k={k},a={a}", comm(x[(k, a)], P[(i, j)]))
    for i, k, j in combinations(slots, 3):
        for a in letters:
            rhs = mul(x[(i, a)], P[(k, j)]) - mul(P[(i, k)], x[(j, a)])
            add("between", f"i={i},k={k},j={j},a={a}", comm(x[(k, a)], P[(i, j)]) - rhs.scale(qq))
    for i, j in combinations(slots, 2):
        for a in letters:
            xi, xj, pij = x[(i, a)], x[(j, a)], P[(i, j)]
            if skew:
                left = exchange(xi, pij, q_pow(1))
                right = exchange(pij, xj, q_pow(1))
            else:
                left = exchange(pij, xi, q_pow(-1)) - mul(corr[i], xj).scale(qq)
                rcorr = mul(corr[j], xi) if fam.corr_first else mul(xi, corr[j])
                right = exchange(xj, pij, q_pow(-1)) - rcorr.scale(qq)
            add("left", f"i={i},j={j},a={a}", left)
            add("right", f"i={i},j={j},a={a}", right)
    if not skew:
        for i in slots:
            for j in slots:
                for k in range(j, m + 1):
                    add("equal", f"i={i},(j,k)=({j},{k})", comm(P[(i, i)], P[(j, k)]))
    for a, b, c in combinations(slots, 3):
        shapes = (
            ("shared-left", (a, b), (a, c), a, (b, c)),
            ("shared-middle", (b, c), (a, b), b, (a, c)),
            ("shared-right", (a, c), (b, c), c, (a, b)),
        )
        for key, u, w, slot, rest in shapes:
            res = exchange(P[u], P[w], q_pow(-1))
            if corr is not None:
                res = res - mul(corr[slot], P[rest]).scale(qq)
            add(key, f"{fam.labels[1]}({a},{b},{c})", res)
    for a, b, c, d in combinations(slots, 4):
        inst = f"({a},{b},{c},{d})"
        add("nested", inst, comm(P[(b, c)], P[(a, d)]))
        add("disjoint", inst, comm(P[(a, b)], P[(c, d)]))
        rhs = mul(P[(a, b)], P[(c, d)]) - mul(P[(a, d)], P[(b, c)])
        add("interleaved", inst, comm(P[(a, c)], P[(b, d)]) - rhs.scale(qq))
    return entries


def _eager_gl_entries(handle):
    k, l, n = handle.params["k"], handle.params["l"], handle.params["n"]
    qq = q_pow(1) - q_pow(-1)
    mul = handle.multiply
    comm = lambda a, b: mul(a, b) - mul(b, a)
    exchange = lambda a, b, c: mul(a, b) - mul(b, a).scale(c)
    rows, cols, labels = range(1, k + 1), range(1, l + 1), range(1, n + 1)
    P = {ref: psi(handle, ref) for ref in handle.pairings}
    x = {(i, a): NCPolynomial.from_word((x_(i, a),)) for i in rows for a in labels}
    y = {(b, a): NCPolynomial.from_word((y_(b, a),)) for b in cols for a in labels}
    entries = []

    def add(citation, instance, res):
        entries.append(invariants._entry(citation, instance, res, handle))

    for i, j in combinations(rows, 2):
        for beta in cols:
            for a in labels:
                inst = f"i={i},j={j},b={beta},a={a}"
                add("later-row pairing commutes with X", inst, comm(P[(j, beta)], x[(i, a)]))
                res = comm(x[(j, a)], P[(i, beta)]) - mul(x[(i, a)], P[(j, beta)]).scale(qq)
                add("X past an earlier-row pairing", inst, res)
    for i in rows:
        for beta in cols:
            for a in labels:
                res = exchange(P[(i, beta)], x[(i, a)], q_pow(-1))
                add("same-row X q-exchange", f"i={i},b={beta},a={a}", res)
    for alpha, beta in combinations(cols, 2):
        for j in rows:
            for b in labels:
                inst = f"j={j},alpha={alpha},beta={beta},b={b}"
                add("later-row pairing commutes with Y", inst, comm(P[(j, beta)], y[(alpha, b)]))
                res = comm(P[(j, alpha)], y[(beta, b)]) - mul(y[(alpha, b)], P[(j, beta)]).scale(qq)
                add("Y past an earlier-row pairing", inst, res)
    for i in rows:
        for beta in cols:
            for b in labels:
                res = exchange(P[(i, beta)], y[(beta, b)], q_pow(1))
                add("same-row Y q-exchange", f"i={i},b={beta},col={b}", res)
    for i, j in combinations(rows, 2):
        for alpha, beta in combinations(cols, 2):
            res = comm(P[(j, beta)], P[(i, alpha)])
            add("disjoint pairings commute", f"({i},{alpha}),({j},{beta})", res)
            res = comm(P[(j, alpha)], P[(i, beta)]) - mul(P[(i, alpha)], P[(j, beta)]).scale(qq)
            add("crossed pairings exchange", f"({i},{beta}),({j},{alpha})", res)
    for i in rows:
        for alpha, beta in combinations(cols, 2):
            res = exchange(P[(i, beta)], P[(i, alpha)], q_pow(-1))
            add("shared X-row pairing q-exchange", f"i={i},{alpha}<{beta}", res)
    for beta in cols:
        for i, j in combinations(rows, 2):
            res = exchange(P[(j, beta)], P[(i, beta)], q_pow(1))
            add("shared Y-row pairing q-exchange", f"{i}<{j},beta={beta}", res)
    return entries


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("family,rank", [("D", 2), ("B", 1), ("C", 2)])
def test_per_pattern_suites_equal_the_per_instance_reference(family, rank, m, strict):
    # strict suites fail on thousands of instances, whose residual text
    # shows a residual relabelled onto the wrong slots or labels
    h = build_am(LieTypeSpec(family, rank), m, strict=strict)
    assert h.rs.slot_local
    entries = verify_relation_suite(h)["entries"]
    assert entries == _eager_classical_entries(h)
    assert strict == (not all(e["pass"] for e in entries))


@pytest.mark.parametrize("n,k,l", [(2, 2, 2), (2, 3, 3), (3, 2, 3), (2, 3, 2), (2, 4, 1)])
def test_per_pattern_gl_suites_equal_the_per_instance_reference(n, k, l):
    h = build_akl(n, k, l)
    assert h.rs.slot_local
    assert verify_relation_suite(h)["entries"] == _eager_gl_entries(h)


def test_suites_without_slot_local_rules_compute_every_instance():
    # one cross rule between slots 1 and 3 scaled by q: the table is no
    # longer slot-local, so an instance on slots (1,3) is not its (1,2)
    # pattern relabelled, and failing entries show it
    h = copy.copy(build_am(LieTypeSpec("D", 2), 4))
    rules = dict(h.rs.rules)
    pat = min(p for p in rules if p[0][1] == 3 and p[1][1] == 1)
    h.rs = RewriteSystem({**rules, pat: rules[pat].scale(q_pow(1))})
    assert not h.rs.slot_local
    entries = verify_relation_suite(h)["entries"]
    assert entries == _eager_classical_entries(h)
    assert not all(e["pass"] for e in entries)


@pytest.mark.parametrize("family,rank", [("D", 2), ("B", 1), ("C", 2)])
def test_suite_products_stop_growing_beyond_four_slots(monkeypatch, family, rank):
    # every relation touches at most four slots, so from m = 4 on each
    # pattern is already there and the suite only relabels
    counts = []
    for m in (4, 5, 6):
        h = build_am(LieTypeSpec(family, rank), m)
        calls = _count_multiplies(monkeypatch, h)
        assert verify_relation_suite(h)["pass"]
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2] > 0


def _count_multiplies(monkeypatch, handle):
    """A list that grows by one at each handle.multiply call."""
    calls = []

    def counted(p, r):
        calls.append(1)
        return AlgebraHandle.multiply(handle, p, r)

    monkeypatch.setattr(handle, "multiply", counted)
    return calls


def test_crossed_pairing_identity_gl():
    # Psi_21 Psi_12 - Psi_12 Psi_21 = (q - q^-1) Psi_11 Psi_22
    h = build_akl(2, 2, 2)
    p12, p21 = psi(h, (1, 2)), psi(h, (2, 1))
    p11, p22 = psi(h, (1, 1)), psi(h, (2, 2))
    lhs = h.multiply(p21, p12) - h.multiply(p12, p21)
    rhs = h.multiply(p11, p22).scale(q_pow(1) - q_pow(-1))
    assert lhs == rhs


# classical monomial-count oracles for the span dimensions

def orthogonal_count(d1, d2):
    if (d1 + d2) % 2:
        return 0
    return sum(
        1 for b in range(0, min(d1, d2) + 1) if (d1 - b) % 2 == 0 and (d2 - b) % 2 == 0
    )


def symplectic_count(d1, d2):
    return 1 if d1 == d2 else 0


def gl_count(x1, x2, y1, y2):
    if x1 + x2 != y1 + y2:
        return 0
    total = 0
    for a in range(0, min(x1, y1) + 1):
        b = x1 - a
        c = y1 - a
        d = x2 - c
        if b >= 0 and c >= 0 and d >= 0 and d == y2 - b:
            total += 1
    return total


@pytest.mark.parametrize("family,rank", [("D", 2), ("B", 1)])
def test_fft_orthogonal_matches_classical_counts(family, rank):
    h = build_am(LieTypeSpec(family, rank), 2)
    for total in range(5):
        for d in h.degree_compositions(total):
            entry = fft_verify(h, d)
            assert entry["pass"], entry
            assert entry["invariant_dim"] == orthogonal_count(*d), (d, entry)


def test_fft_symplectic_matches_classical_counts():
    h = build_am(LieTypeSpec("C", 2), 2)
    for total in range(5):
        for d in h.degree_compositions(total):
            entry = fft_verify(h, d)
            assert entry["pass"], entry
            assert entry["invariant_dim"] == symplectic_count(*d)


def test_fft_gl_matches_classical_counts():
    h = build_akl(2, 2, 2)
    from qmodalg.cli import _compositions

    for dx in range(3):
        for dy in range(3 - dx + 2):
            if dx + dy > 4:
                continue
            for cx in _compositions(dx, 2):
                for cy in _compositions(dy, 2):
                    d = tuple(cx) + tuple(cy)
                    entry = fft_verify(h, d)
                    assert entry["pass"], entry
                    assert entry["invariant_dim"] == gl_count(*d), (d, entry)


def test_fft_beyond_the_required_degrees():
    # total degrees 6, 8 and 10 as extra confluence/correctness evidence;
    # (5,5) holds the largest nullspaces in the tests, whose coefficients
    # swell for 30 s and more under first-row pivoting
    h = build_am(LieTypeSpec("D", 2), 2)
    for d, want in [((3, 3), 2), ((4, 2), 2), ((5, 1), 1), ((6, 0), 1), ((4, 4), 3), ((5, 5), 3)]:
        e = fft_verify(h, d)
        assert e["pass"] and e["invariant_dim"] == want, (d, e)
    e = fft_verify(build_am(LieTypeSpec("B", 1), 2), (5, 5))
    assert e["pass"] and e["invariant_dim"] == 3, e
    hc = build_am(LieTypeSpec("C", 2), 2)
    e = fft_verify(hc, (3, 3))
    assert e["pass"] and e["invariant_dim"] == 1


def test_span_examples():
    h = build_am(LieTypeSpec("D", 2), 2)
    assert psi_monomial_span(h, (1, 1))[0] == 1
    assert psi_monomial_span(h, (2, 0))[0] == 1
    assert psi_monomial_span(h, (2, 2))[0] == 2
    hc = build_am(LieTypeSpec("C", 2), 2)
    assert psi_monomial_span(hc, (1, 1))[0] == 1


def test_sigma_filtered_dimension_reported():
    h = build_am(LieTypeSpec("D", 2), 2)
    entry = fft_verify(h, (1, 1), include_sigma=True)
    assert entry["pass"]
    assert entry["sigma_filtered_dim"] == 1
    hb = build_am(LieTypeSpec("B", 1), 2)
    entry = fft_verify(hb, (2, 2), include_sigma=True)
    assert entry["pass"]
    assert entry["sigma_filtered_dim"] == 2


@pytest.mark.parametrize(
    "family,rank,degree,inv_dim,span_dim",
    [("B", 1, (1, 1, 1), 1, 0), ("D", 2, (1, 1, 1, 1), 4, 3)],
)
def test_sigma_verdict_from_m_equal_n(family, rank, degree, inv_dim, span_dim):
    # from m = N on, U_q (SO_N) has invariants beyond the pairings; with
    # sigma the claim is about O_N, whose invariants the pairings span
    h = build_am(LieTypeSpec(family, rank), len(degree))
    entry = fft_verify(h, degree, include_sigma=True)
    assert entry["pass"], entry
    assert entry["invariant_dim"] == inv_dim
    assert entry["span_dim"] == entry["sigma_filtered_dim"] == span_dim
    assert entry["contained"]
    assert not fft_verify(h, degree)["pass"]


def _sigma_fixed_invariants_stacked(handle, degree):
    """Reference: the sigma-fixed invariants solved for directly, as one
    system with the sigma - 1 rows stacked under the e_i and f_i rows."""
    zero = handle.weight(())
    wz = [w for w in handle.graded_words(degree) if handle.weight(w) == zero]
    gens = [g for g in handle.invariance_generators(include_sigma=True) if g.kind != "k"]
    rows = {}
    for w in wz:
        p = NCPolynomial.from_word(w)
        for g in gens:
            img = act(handle, g, p)
            if g.kind == "sigma":
                img = img - p
            for tw, c in img.coeffs.items():
                rows.setdefault((str(g), tw), {})[w] = c
    return [NCPolynomial(v) for v in nullspace([rows[k] for k in sorted(rows)], wz)]


@pytest.mark.parametrize(
    "family,rank,degree",
    [("B", 1, (1, 1, 1)), ("B", 1, (2, 1, 1)), ("D", 2, (1, 1, 1, 1)), ("D", 2, (4, 4))],
)
def test_sigma_fixed_invariants_from_one_solve(monkeypatch, family, rank, degree):
    h = build_am(LieTypeSpec(family, rank), len(degree))
    fixed = _sigma_fixed_invariants_stacked(h, degree)
    span_dim, span_vecs = psi_monomial_span(h, degree)
    contained = span_contained_in(span_vecs, fixed)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return invariant_basis(*args, **kwargs)

    monkeypatch.setattr(invariants, "invariant_basis", counted)
    entry = fft_verify(h, degree, include_sigma=True)
    assert len(calls) == 1
    assert entry["sigma_filtered_dim"] == len(fixed)
    assert entry["contained"] == contained
    assert entry["pass"] == (len(fixed) == span_dim and contained)


def test_exterior_highest_weight_examples():
    h = build_exterior(2, 2)
    pol, report = exterior_highest_weight(h, (2, 1))
    assert report["pass"]
    assert pol == NCPolynomial.from_word(((0, 1, 1), (0, 1, 2), (0, 2, 1)))
    pol, report = exterior_highest_weight(h, (1,))
    assert report["pass"]
    assert h.weight(next(iter(pol.coeffs))) == (1, 0, 1, 0)
    pol, report = exterior_highest_weight(h, ())
    assert report["pass"] and pol == NCPolynomial.one()
    with pytest.raises(PartitionError):
        exterior_highest_weight(h, (3,))
    with pytest.raises(PartitionError):
        exterior_highest_weight(h, (1, 2))
    with pytest.raises(PartitionError):
        exterior_highest_weight(h, (2, -1))
    with pytest.raises(PartitionError):
        exterior_highest_weight(h, (-1,))


def test_skew_duality_small():
    assert skew_duality_check(2, 2)["pass"]
    assert skew_duality_check(2, 3)["pass"]
    # single-row boxes: sum_k C(n, k) = 2^n
    assert skew_duality_check(1, 4)["pass"]


def test_skew_duality_dimension_sums():
    from qmodalg.rootdata import irrep_dim_gl
    from qmodalg.invariants import _box_partitions, _conjugate

    total = sum(
        irrep_dim_gl(2, lam) * irrep_dim_gl(2, _conjugate(lam))
        for lam in _box_partitions(2, 2)
    )
    assert total == 16
    total = sum(
        irrep_dim_gl(2, lam) * irrep_dim_gl(3, _conjugate(lam))
        for lam in _box_partitions(2, 3)
    )
    assert total == 64


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 5)])
def test_box_partitions_count(m, n):
    from math import comb

    from qmodalg.invariants import _box_partitions

    parts = _box_partitions(m, n)
    assert len(parts) == len(set(parts)) == comb(m + n, m)
    for lam in parts:
        assert len(lam) <= m and all(n >= a >= b > 0 for a, b in zip(lam, lam[1:] + (1,)))
    assert parts == sorted(parts, key=lambda t: (sum(t), t))
