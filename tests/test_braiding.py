from itertools import product

import pytest

import qmodalg.braiding as braiding
from qmodalg.algebras import psi_pair_poly
from qmodalg.braiding import (
    _commutes,
    invariant_vector_t,
    pair_eigenvalue_p0,
    projectors,
    rcheck,
    rcheck_cabled,
    spectral_data,
    tensor_generator_ops,
    verify_braid_and_skein,
)
from qmodalg.linalg import EchelonBasis
from qmodalg.linop import LinearOperator, lift_block_op, over_one_denominator
from qmodalg.ncpoly import NCPolynomial, x_
from qmodalg.rootdata import LieTypeSpec, natural_rep
from qmodalg.scalar import ONE, ZERO, q_pow

GRID = [("D", 2), ("D", 3), ("B", 1), ("B", 2), ("C", 2), ("C", 3), ("GL", 2), ("GL", 3)]


def spanset(vectors):
    eb = EchelonBasis()
    for v in vectors:
        eb.add(v)
    return eb


@pytest.mark.parametrize("family,rank", GRID)
def test_summands_form_a_basis(family, rank):
    spec = LieTypeSpec(family, rank)
    sd = spectral_data(spec)
    dim = natural_rep(spec).dim_v
    assert sum(sd.ranks()) == dim * dim


def test_projector_ranks_d2():
    assert spectral_data(LieTypeSpec("D", 2)).ranks() == (9, 6, 1)


@pytest.mark.parametrize("family,rank", GRID)
def test_projector_algebra(family, rank):
    spec = LieTypeSpec(family, rank)
    projs = projectors(spec)
    names = sorted(projs)
    ident = None
    for a in names:
        p = projs[a]
        assert (p @ p) == p
        ident = p if ident is None else ident + p
        for b in names:
            if a < b:
                assert (projs[a] @ projs[b]).is_zero()
                assert (projs[b] @ projs[a]).is_zero()
    assert ident == LinearOperator.identity(ident.domain)


@pytest.mark.parametrize("family,rank", GRID)
def test_projectors_are_laurent_numerators_over_one_denominator(family, rank):
    projs = projectors(LieTypeSpec(family, rank))
    d, nums = over_one_denominator(projs)
    assert d != ONE  # every grid spec has a rational projector
    assert nums.keys() == projs.keys()
    laurent = [d] + [x for m in nums.values() for col in m.cols.values() for x in col.values()]
    for s in laurent:
        assert s.den == {0: 1} and all(type(c) is int for c in s.num.values())
    for name, p in projs.items():
        assert nums[name].scale(d.inverse()) == p


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("family,rank", GRID)
def test_rcheck_is_the_eigenvalue_sum_of_the_projectors(family, rank, inverse):
    # the reference adds ev P (ev^-1 P for the inverse) entry by entry
    spec = LieTypeSpec(family, rank)
    projs = projectors(spec)
    ref = {}
    for name, ev, _ in spectral_data(spec).summands:
        c = ev.inverse() if inverse else ev
        for key, x in projs[name].entries.items():
            ref[key] = ref.get(key, ZERO) + c * x
    words = projs["sym"].domain
    assert rcheck(spec, inverse) == LinearOperator(words, words, ref)


@pytest.mark.parametrize("family,rank", GRID)
def test_braid_and_skein_suite(family, rank):
    report = verify_braid_and_skein(LieTypeSpec(family, rank))
    assert report["pass"], report


def _with_entry(op, row, col, value):
    """op with its (row, col) entry set to value."""
    entries = dict(op.entries)
    entries[row, col] = value
    return LinearOperator(op.domain, op.codomain, entries)


def _verdicts(spec):
    return {e["citation"]: e["pass"] for e in verify_braid_and_skein(spec)["entries"]}


def test_a_changed_rcheck_entry_breaks_the_braid_relation(monkeypatch):
    spec = LieTypeSpec("D", 2)
    rc = rcheck(spec)
    # the sym eigenvalue q on the highest-weight word, made q + 1
    bad = _with_entry(rc, (1, 1), (1, 1), rc.column((1, 1))[1, 1] + ONE)
    monkeypatch.setattr(braiding, "rcheck", lambda s: bad)
    assert _verdicts(spec)["YB braid relation on V^3"] is False


def test_a_weight_changing_rcheck_entry_fails_intertwining_by_the_diagonal_route(monkeypatch):
    # (1, 1) has weight 2 eps_1 and (1, 2) weight eps_1 + eps_2
    spec = LieTypeSpec("D", 2)
    rc = rcheck(spec)
    assert (1, 2) not in rc.column((1, 1))
    bad = _with_entry(rc, (1, 2), (1, 1), ONE)
    ops = tensor_generator_ops(natural_rep(spec), 2)
    diagonal = [op for (kind, _), op in sorted(ops.items()) if kind == "k"]
    assert diagonal
    real, calls = LinearOperator.compose, []

    def counting(self, other):
        calls.append(None)
        return real(self, other)

    monkeypatch.setattr(LinearOperator, "compose", counting)
    assert all(_commutes(rc, op) for op in diagonal)
    assert not all(_commutes(bad, op) for op in diagonal)
    assert calls == []  # k/K generators are compared entrywise
    # a diagonal verdict equals the compose route's on either operator
    for op in diagonal:
        for r in (rc, bad):
            assert _commutes(r, op) == ((r @ op) == (op @ r))
    monkeypatch.setattr(braiding, "rcheck", lambda s: bad)
    assert _verdicts(spec)["R-check intertwines the coproduct action"] is False


def test_rcheck_spectrum_d2():
    spec = LieTypeSpec("D", 2)
    rc = rcheck(spec)
    projs = projectors(spec)
    # R-check restricted to each projector image is the stated scalar
    sd = spectral_data(spec)
    for name, ev, basis in sd.summands:
        for vec in basis:
            got = rc.apply(vec)
            want = {k: ev * c for k, c in vec.items()}
            assert got == want
    assert pair_eigenvalue_p0(spec) == q_pow(-3)
    assert pair_eigenvalue_p0(LieTypeSpec("C", 2)) == -q_pow(-5)
    assert pair_eigenvalue_p0(LieTypeSpec("B", 1)) == q_pow(-2)


def test_gl_rcheck_entries():
    rc = rcheck(LieTypeSpec("GL", 2))
    assert rc.column((2, 1)) == {(1, 2): ONE, (2, 1): q_pow(1) - q_pow(-1)}
    assert rc.column((1, 1)) == {(1, 1): q_pow(1)}
    assert rc.column((1, 2)) == {(2, 1): ONE}


def _rmatrix_gl(n, e):
    """Reference: the textbook R-matrix of the natural GL_n module (Jimbo),
    R = 1(x)1 + (q^e-1) sum E_aa (x) E_aa + (q^e-q^-e) sum_{a<b} E_ab (x) E_ba
    with e = 1; e = -1 (q replaced by q^-1) gives its inverse."""
    labels = tuple(range(1, n + 1))
    words = [tuple(w) for w in product(labels, repeat=2)]
    entries = {}
    qq = q_pow(e) - q_pow(-e)
    for a, b in words:
        entries[((a, b), (a, b))] = q_pow(e) if a == b else ONE
        if a < b:
            entries[((a, b), (b, a))] = qq
    return LinearOperator(words, words, entries)


def _flip(n):
    words = [tuple(w) for w in product(range(1, n + 1), repeat=2)]
    return LinearOperator(words, words, {((b, a), (a, b)): ONE for a, b in words})


@pytest.mark.parametrize("family,rank", GRID)
def test_rcheck_inverse_is_inverse(family, rank):
    spec = LieTypeSpec(family, rank)
    rc = rcheck(spec)
    assert rc @ rcheck(spec, inverse=True) == LinearOperator.identity(rc.domain)


def test_gl_rcheck_matches_closure_projectors():
    # the spectral form built from the closure projectors is the textbook
    # braiding flip o R, and its inverse composed with the flip is R^-1
    for n in (2, 3):
        spec = LieTypeSpec("GL", n)
        assert rcheck(spec) == _flip(n) @ _rmatrix_gl(n, 1)
        assert rcheck(spec, inverse=True) @ _flip(n) == _rmatrix_gl(n, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gl_rcheck_is_symmetric(n):
    # the dual-row rules of A_{k,l} read P_anti through the flip because of this
    rc = rcheck(LieTypeSpec("GL", n))
    assert rc.entries == {(c, r): v for (r, c), v in rc.entries.items()}


def test_t_vector_eigen_relation():
    for family, rank in [("D", 2), ("D", 3), ("B", 1), ("B", 2), ("C", 2)]:
        spec = LieTypeSpec(family, rank)
        rc = rcheck(spec)
        t = invariant_vector_t(spec)
        kappa = pair_eigenvalue_p0(spec)
        assert rc.apply(t) == {k: kappa * c for k, c in t.items()}


def _t_reference(spec):
    """T and kappa as the per-family formulas wrote them before the pairing
    table; the reference the table is checked against."""
    rep = natural_rep(spec)
    n = spec.rank
    vec = {}
    for i in range(1, n + 1):
        pi, mi = rep.position(i), rep.position(-i)
        if spec.family == "D":
            vec[(pi, mi)] = q_pow(n - i)
            vec[(mi, pi)] = q_pow(i - n)
        elif spec.family == "B":
            vec[(pi, mi)] = q_pow(n - i)
            vec[(mi, pi)] = q_pow(i - n - 1)
        else:
            vec[(pi, mi)] = q_pow(n - i + 1)
            vec[(mi, pi)] = -q_pow(i - n - 1)
    if spec.family == "B":
        p0 = rep.position(0)
        vec[(p0, p0)] = ONE
    kappa = {"D": q_pow(1 - 2 * n), "B": q_pow(-2 * n), "C": -q_pow(-2 * n - 1)}
    return vec, kappa[spec.family]


T_SPECS = [("B", n) for n in (1, 2, 3, 4)] + [("C", n) for n in (1, 2, 3, 4)]
T_SPECS += [("D", n) for n in (2, 3, 4, 5)]


@pytest.mark.parametrize("family,rank", T_SPECS)
def test_pairing_matches_the_reference_formulas(family, rank):
    spec = LieTypeSpec(family, rank)
    vec, kappa = _t_reference(spec)
    assert invariant_vector_t(spec) == vec
    assert pair_eigenvalue_p0(spec) == kappa
    for i, j in ((1, 2), (2, 1), (2, 2)):
        lifted = {(x_(i, a), x_(j, b)): c for (a, b), c in vec.items()}
        assert psi_pair_poly(spec, i, j) == NCPolynomial(lifted)


def test_cabled_base_case():
    for family, rank in [("D", 2), ("GL", 2), ("C", 2)]:
        spec = LieTypeSpec(family, rank)
        assert rcheck_cabled(spec, 1, 1) == rcheck(spec)


def test_cabled_is_r13_r23_with_flip_gl2():
    spec = LieTypeSpec("GL", 2)
    rep = natural_rep(spec)
    labels = rep.labels
    r = _rmatrix_gl(2, 1)
    r13 = _act_on_slots(r, labels, 3, (1, 3))
    r23 = _act_on_slots(r, labels, 3, (2, 3))
    words = [w for w in r13.domain]
    flip = LinearOperator(
        words, words, {((w[2], w[0], w[1]), w): ONE for w in words}
    )
    assert rcheck_cabled(spec, 2, 1) == flip @ r13 @ r23


def _act_on_slots(op2, labels, r, slots):
    """Embed a two-slot operator acting on arbitrary (not adjacent) slots."""
    from itertools import product

    words = [tuple(w) for w in product(labels, repeat=r)]
    entries = {}
    i, j = slots
    for w in words:
        for ((a2, b2), (a1, b1)), val in op2.entries.items():
            if w[i - 1] == a1 and w[j - 1] == b1:
                row = list(w)
                row[i - 1] = a2
                row[j - 1] = b2
                key = (tuple(row), w)
                entries[key] = entries.get(key, None) or val
    return LinearOperator(words, words, entries)


def kron(ops):
    """Reference tensor product of operators on V; labels become tuples."""
    entries = {}
    for pairs in product(*[op.entries.items() for op in ops]):
        val = ONE
        for _, v in pairs:
            val = val * v
        entries[(tuple(k[0] for k, _ in pairs), tuple(k[1] for k, _ in pairs))] = val
    words = [tuple(w) for w in product(ops[0].domain, repeat=len(ops))]
    return LinearOperator(words, words, entries)


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("family,rank", [("D", 2), ("B", 1), ("C", 2), ("GL", 2)])
def test_tensor_generator_ops_are_the_kron_sums(family, rank, r):
    # Delta(e) = e (x) k + 1 (x) e and Delta(f) = f (x) 1 + k^-1 (x) f iterate
    # to sums over t of e at slot t, k after it, and f at slot t, k^-1 before
    rep = natural_rep(LieTypeSpec(family, rank))
    labels = rep.labels

    def op(mat):
        return LinearOperator(labels, labels, mat)

    ident = LinearOperator.identity(labels)
    want = {}
    for i in rep.chevalley_indices():
        k = rep.coproduct_k(i)
        kop = op({(a, a): v for a, v in k.items()})
        kinv = op({(a, a): v.inverse() for a, v in k.items()})
        for kind, x, before, after in (
            ("e", op(rep.e_mats[i]), ident, kop),
            ("f", op(rep.f_mats[i]), kinv, ident),
        ):
            terms = [kron([before] * t + [x] + [after] * (r - t - 1)) for t in range(r)]
            total = terms[0]
            for term in terms[1:]:
                total = total + term
            want[(kind, i)] = total
    for b in rep.cartan_indices():
        want[("k", b)] = kron([op(rep.k_mats[b])] * r)
    got = tensor_generator_ops(rep, r)
    assert list(got) == list(want)
    for key, total in want.items():
        assert got[key] == total, key


@pytest.mark.parametrize("family,rank", [("D", 2), ("B", 1), ("GL", 2)])
def test_cabled_intertwines(family, rank):
    spec = LieTypeSpec(family, rank)
    rep = natural_rep(spec)
    cab = rcheck_cabled(spec, 2, 1)
    for op in tensor_generator_ops(rep, 3).values():
        assert (cab @ op) == (op @ cab)


@pytest.mark.parametrize("family,rank", [("D", 2), ("B", 1), ("C", 2), ("GL", 2)])
def test_cabling_coherence(family, rank):
    spec = LieTypeSpec(family, rank)
    labels = natural_rep(spec).labels

    def cab(k, l):
        return rcheck_cabled(spec, k, l)

    for k in (1, 2):
        for l in (1, 2):
            r = k + l + 1
            # passing a block over l+1 strands = over l strands, then over the last
            over_l = lift_block_op(cab(k, l), labels, r, 1, k + l)
            over_last = lift_block_op(cab(k, 1), labels, r, l + 1, k + 1)
            assert cab(k, l + 1) == over_last @ over_l
            # passing k+1 strands over a block = its rightmost strand, then the
            # other k; at l = 1 the first factor is R-check on slots k+1, k+2
            rightmost = lift_block_op(cab(1, l), labels, r, k + 1, l + 1)
            others = lift_block_op(cab(k, l), labels, r, 1, k + l)
            assert cab(k + 1, l) == others @ rightmost


def test_nine_cables_take_eight_composes(monkeypatch):
    # each cable past (1,1) is one compose of two cached smaller ones; the
    # chain of kl lifted R-checks took 36 for the same nine
    spec = LieTypeSpec("D", 2)
    rcheck(spec)
    rcheck_cabled.cache_clear()
    real = LinearOperator.compose
    calls = []

    def counting(self, other):
        calls.append(None)
        return real(self, other)

    monkeypatch.setattr(LinearOperator, "compose", counting)
    try:
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                rcheck_cabled(spec, k, l)
    finally:
        rcheck_cabled.cache_clear()
    assert len(calls) == 8


# ---------------------------------------------------------------------------
# the printed submodule spanning lists, with the corrected readings, are
# membership-tested against the closure-generated summands

def _pairvec(rep, pairs):
    vec = {}
    for (a, b), c in pairs:
        key = (rep.position(a), rep.position(b))
        vec[key] = vec.get(key, ONE - ONE) + c
    return {k: v for k, v in vec.items() if v}


def listed_vectors_d(spec):
    rep = natural_rep(spec)
    n = spec.rank
    q = q_pow(1)
    qi = q_pow(-1)
    sym, anti = [], []
    for i in range(1, n + 1):
        sym.append(_pairvec(rep, [((i, i), ONE)]))
        sym.append(_pairvec(rep, [((-i, -i), ONE)]))
        for j in range(i + 1, n + 1):
            sym.append(_pairvec(rep, [((i, j), ONE), ((j, i), q)]))
            sym.append(_pairvec(rep, [((-j, -i), ONE), ((-i, -j), q)]))
            anti.append(_pairvec(rep, [((i, j), ONE), ((j, i), -qi)]))
            anti.append(_pairvec(rep, [((-j, -i), ONE), ((-i, -j), -qi)]))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                sym.append(_pairvec(rep, [((i, -j), ONE), ((-j, i), q)]))
                anti.append(_pairvec(rep, [((i, -j), ONE), ((-j, i), -qi)]))
    for i in range(1, n):
        sym.append(
            _pairvec(
                rep,
                [
                    ((i, -i), qi),
                    ((-i, i), q),
                    ((i + 1, -(i + 1)), -ONE),
                    ((-(i + 1), i + 1), -ONE),
                ],
            )
        )
    for i in range(1, n - 1):
        anti.append(
            _pairvec(
                rep,
                [
                    ((i, -i), ONE),
                    ((-i, i), -ONE),
                    ((i + 1, -(i + 1)), -q),
                    ((-(i + 1), i + 1), qi),
                ],
            )
        )
    anti.append(
        _pairvec(
            rep,
            [
                ((n - 1, 1 - n), ONE),
                ((1 - n, n - 1), -ONE),
                ((n, -n), -q),
                ((-n, n), qi),
            ],
        )
    )
    anti.append(
        _pairvec(
            rep,
            [
                ((n - 1, 1 - n), ONE),
                ((1 - n, n - 1), -ONE),
                ((n, -n), qi),
                ((-n, n), -q),
            ],
        )
    )
    return sym, anti


def test_even_family_lists_span_the_summands():
    for n in (2, 3):
        spec = LieTypeSpec("D", n)
        sd = spectral_data(spec)
        sym, anti = listed_vectors_d(spec)
        for name, listed in (("sym", sym), ("anti", anti)):
            _, basis = sd.summand(name)
            eb = spanset(basis)
            for v in listed:
                assert eb.contains(v)
            assert spanset(listed).rank() == len(basis)


def listed_vectors_b(spec):
    # squares restricted to the nonzero labels; the (q-1) reading of the
    # middle coefficient; v_{n+1} is the zero-weight vector
    rep = natural_rep(spec)
    n = spec.rank
    q = q_pow(1)
    qi = q_pow(-1)

    def lab(t):
        # the printed lists run over 1..n+1 with v_{n+1} = v_0
        return 0 if abs(t) == n + 1 else t

    sym, anti = [], []
    for i in range(1, n + 1):
        sym.append(_pairvec(rep, [((i, i), ONE)]))
        sym.append(_pairvec(rep, [((-i, -i), ONE)]))
    for i in range(1, n + 2):
        for j in range(i + 1, n + 2):
            sym.append(_pairvec(rep, [((lab(i), lab(j)), ONE), ((lab(j), lab(i)), q)]))
            sym.append(
                _pairvec(rep, [((lab(-j), lab(-i)), ONE), ((lab(-i), lab(-j)), q)])
            )
            anti.append(
                _pairvec(rep, [((lab(i), lab(j)), ONE), ((lab(j), lab(i)), -qi)])
            )
            anti.append(
                _pairvec(rep, [((lab(-j), lab(-i)), ONE), ((lab(-i), lab(-j)), -qi)])
            )
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                sym.append(_pairvec(rep, [((i, -j), ONE), ((-j, i), q)]))
                anti.append(_pairvec(rep, [((i, -j), ONE), ((-j, i), -qi)]))
    sym.append(
        _pairvec(rep, [((0, 0), q + ONE), ((n, -n), -qi), ((-n, n), -q)])
    )
    anti.append(
        _pairvec(rep, [((0, 0), q - ONE), ((n, -n), -ONE), ((-n, n), ONE)])
    )
    for i in range(1, n):
        sym.append(
            _pairvec(
                rep,
                [
                    ((i, -i), qi),
                    ((-i, i), q),
                    ((i + 1, -(i + 1)), -ONE),
                    ((-(i + 1), i + 1), -ONE),
                ],
            )
        )
        anti.append(
            _pairvec(
                rep,
                [
                    ((i, -i), ONE),
                    ((-i, i), -ONE),
                    ((i + 1, -(i + 1)), -q),
                    ((-(i + 1), i + 1), qi),
                ],
            )
        )
    return sym, anti


def test_odd_family_lists_span_the_summands():
    for n in (1, 2):
        spec = LieTypeSpec("B", n)
        sd = spectral_data(spec)
        sym, anti = listed_vectors_b(spec)
        for name, listed in (("sym", sym), ("anti", anti)):
            _, basis = sd.summand(name)
            eb = spanset(basis)
            for v in listed:
                assert eb.contains(v)
            assert spanset(listed).rank() == len(basis)


def test_zero_square_not_in_the_symmetric_summand():
    # including v_0 (x) v_0 in the squares line would break the span: the
    # zero-weight part of the symmetric summand is one-dimensional
    spec = LieTypeSpec("B", 1)
    rep = natural_rep(spec)
    sd = spectral_data(spec)
    _, basis = sd.summand("sym")
    eb = spanset(basis)
    assert not eb.contains(_pairvec(rep, [((0, 0), ONE)]))


def listed_vectors_c(spec):
    rep = natural_rep(spec)
    n = spec.rank
    q = q_pow(1)
    qi = q_pow(-1)
    sym, anti = [], []
    for i in range(1, n + 1):
        sym.append(_pairvec(rep, [((i, i), ONE)]))
        sym.append(_pairvec(rep, [((-i, -i), ONE)]))
        for j in range(i + 1, n + 1):
            sym.append(_pairvec(rep, [((i, j), ONE), ((j, i), q)]))
            sym.append(_pairvec(rep, [((-j, -i), ONE), ((-i, -j), q)]))
            anti.append(_pairvec(rep, [((i, j), ONE), ((j, i), -qi)]))
            anti.append(_pairvec(rep, [((-j, -i), ONE), ((-i, -j), -qi)]))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                sym.append(_pairvec(rep, [((i, -j), ONE), ((-j, i), q)]))
                anti.append(_pairvec(rep, [((i, -j), ONE), ((-j, i), -qi)]))
    for i in range(1, n):
        sym.append(
            _pairvec(
                rep,
                [
                    ((i + 1, -(i + 1)), ONE),
                    ((-(i + 1), i + 1), ONE),
                    ((i, -i), -qi),
                    ((-i, i), -q),
                ],
            )
        )
        anti.append(
            _pairvec(
                rep,
                [
                    ((i, -i), ONE),
                    ((-i, i), -ONE),
                    ((i + 1, -(i + 1)), -q),
                    ((-(i + 1), i + 1), qi),
                ],
            )
        )
    sym.append(_pairvec(rep, [((n, -n), qi), ((-n, n), q)]))
    return sym, anti


def test_symplectic_lists_span_the_summands():
    for n in (2, 3):
        spec = LieTypeSpec("C", n)
        sd = spectral_data(spec)
        sym, anti = listed_vectors_c(spec)
        for name, listed in (("sym", sym), ("anti", anti)):
            _, basis = sd.summand(name)
            eb = spanset(basis)
            for v in listed:
                assert eb.contains(v)
            assert spanset(listed).rank() == len(basis)


def test_gl_lists_span_the_summands():
    for n in (2, 3):
        spec = LieTypeSpec("GL", n)
        sd = spectral_data(spec)
        q = q_pow(1)
        qi = q_pow(-1)
        sym = [{(i, i): ONE} for i in range(1, n + 1)]
        anti = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                sym.append({(i, j): ONE, (j, i): q})
                anti.append({(i, j): ONE, (j, i): -qi})
        for name, listed in (("sym", sym), ("anti", anti)):
            _, basis = sd.summand(name)
            eb = spanset(basis)
            for v in listed:
                assert eb.contains(v)
            assert spanset(listed).rank() == len(basis)
