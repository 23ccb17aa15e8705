"""Invariant generators, their commutation relation suites, and the
desk-scale comparison of invariant spaces against pairing-monomial spans.

Every suite entry reduces a relation instance to a residual in normal form;
pass means the residual is exactly zero.  Where the transcribed source
presentation is ambiguous or fails, both variants are evaluated and the
entries record which one holds.

A relation instance's residual is computed once per slot pattern: the
instance's slots are renumbered onto 1..s in order, and the residual found
there is relabelled back.  When the rules are slot-local
(RewriteSystem.slot_local) that relabelling is an algebra map taking normal
forms to normal forms, so the entry is the one the instance gives on its own
slots; otherwise each instance is its own pattern.  Every relation touches
at most four slots, so from m = 4 on a suite adds instances, not
straightening.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import NamedTuple

from .algebras import GeneratorRef, build_exterior, slot_pair_poly
from .braiding import pair_eigenvalue_p0, pairing, pairing_terms
from .linalg import EchelonBasis, nullspace
from .ncpoly import NCPolynomial, check_degree, slot_ranks, x_, y_
from .report import check, suite
from .rootdata import irrep_dim_gl, natural_rep
from .scalar import ONE, accumulate, q_pow
from .uqaction import act, invariant_basis, span_contained_in


class PsiRefError(ValueError):
    pass


def psi(handle, ref):
    """The pairing generator Psi^ref of the handle, in normal form."""
    gen = handle.pairings.get(ref)
    if gen is None:
        raise PsiRefError(f"{handle.kind} has no pairing generator {ref}")
    return handle.normal_form(gen)


def phi_partial(handle, kind, indices, t=None):
    """Named partial sums of the pairing generators, in normal form."""
    spec = handle.spec
    if handle.kind not in ("Sq", "Am") or spec.family == "GL":
        raise PsiRefError("partial sums exist for the B, C and D slot algebras")
    m, n = handle.params["m"], spec.rank
    slots = indices if isinstance(indices, tuple) else (indices,)
    if not all(1 <= s <= m for s in slots):
        raise PsiRefError(f"slots {slots} outside 1..{m}")
    if kind in ("phi_plus", "phi_minus"):
        (i,) = slots
        t = 1 if t is None else t
        if not 1 <= t <= n + 1:
            raise PsiRefError("start index out of range")
        if pairing(spec).skew:
            raise PsiRefError("phi partial sums exist for the orthogonal families")
        if kind == "phi_minus" and spec.family != "D":
            raise PsiRefError("phi_minus is defined for the even family")
        terms = pairing_terms(spec, t, n, barred=(kind == "phi_plus"))
        return handle.normal_form(slot_pair_poly(terms, i, i))
    if kind in ("psi_t", "bar_psi_t"):
        i, j = slots
        if t is None:
            raise PsiRefError("partial sums need the cut index t")
        if not 1 <= t <= n:
            raise PsiRefError("cut index out of range")
        terms = pairing_terms(spec, 1, t, barred=(kind == "bar_psi_t"))
        return handle.normal_form(slot_pair_poly(terms, i, j))
    if kind == "varphi":
        if spec.family != "B":
            raise PsiRefError("varphi is the odd orthogonal correction term")
        (i,) = slots
        bar = phi_partial(handle, "bar_psi_t", (i, i), n)
        corr = NCPolynomial(
            {(x_(i, n + 1), x_(i, n + 1)): (ONE - q_pow(-1)) / (q_pow(1) - q_pow(-1))}
        )
        return handle.normal_form(bar + corr)
    raise PsiRefError(f"unknown partial sum kind {kind!r}")


# ---------------------------------------------------------------------------
# relation suites

def _entry(citation, instance, residual, handle, variant=None):
    ok = residual.is_zero()
    residual = None if ok else handle.render(residual)
    return check(citation, instance, ok, variant=variant, residual=residual)


def _qq():
    return q_pow(1) - q_pow(-1)


class _Family(NamedTuple):
    """What one classical family changes in the shared B/C/D relation suite.

    The suite's relation families are the same for all three: the twist
    under slot swap (by kappa), centrality, outside letters, the letter
    between the slots, the letter exchanges and the pairing-pairing
    exchanges.  A skew pairing (braiding.pairing) has no equal-slot
    generator and mirrored pure letter q-exchanges.
    """

    correction: object   # (handle, slot) -> correction term, or None
    ratio: object        # n -> c with correction = c Psi^(i,i), or None
    corr_first: bool     # right letter exchange reads corr_j x_i, not x_i corr_j
    labels: tuple        # instance prefixes of the twist and of the triples
    citations: dict      # citations where the family's printed name differs
    variants: dict       # notes where the printed source differs


_CITATIONS = {
    "twist": "twist of the pairing under slot swap",
    "ratio": "correction term is the equal-slot pairing over (1 + q^(1-2n))",
    "central": "equal-slot pairing is central",
    "outside": "pairing commutes with outside letters",
    "between": "letter between the slots",
    "left": "left slot letter exchange",
    "right": "right slot letter exchange",
    "equal": "equal-slot pairing commutes with all pairings",
    "shared-left": "shared-left-slot pairing exchange",
    "shared-middle": "shared-middle-slot pairing exchange",
    "shared-right": "shared-right-slot pairing exchange",
    "nested": "nested pairings commute",
    "disjoint": "disjoint increasing pairings commute",
    "interleaved": "interleaved pairing exchange",
}

# The printed exchange relations quantify over "k != i, j" but only hold
# shape by shape with both factors read as sorted-index generators (any
# other relative order is the reversed exchange, which is not of the
# printed form); the entries record that restriction.
_SORTED = "printed quantifier restricted to the sorted shape"
_SIGN = "printed second sign +; verified -"

_FAMILIES = {
    "D": _Family(
        correction=lambda h, i: phi_partial(h, "bar_psi_t", (i, i), h.spec.rank),
        ratio=None,
        corr_first=False,
        labels=("(i,j)=", "(a,b,c)="),
        citations={},
        variants={"shared-left": _SORTED, "shared-middle": _SORTED, "shared-right": _SORTED},
    ),
    "B": _Family(
        correction=lambda h, i: phi_partial(h, "varphi", (i,)),
        ratio=lambda n: (ONE + q_pow(1 - 2 * n)).inverse(),
        corr_first=True,
        labels=("(i,j)=", "(a,b,c)="),
        citations={},
        variants={
            "ratio": "printed scalar (q^2n - q^-1)/(q - q^-1) fails; corrected",
            "left": "printed duplicates the product; corrected reading",
            "shared-left": _SORTED,
            # the printed "i" correction slot of the middle shape is verified to be "j"
            "shared-middle": _SORTED + "; correction slot j, not the printed i",
            "shared-right": _SORTED,
        },
    ),
    "C": _Family(
        correction=None,
        ratio=None,
        corr_first=False,
        labels=("(s,t)=", ""),
        citations={
            "twist": "skew twist of the pairing under slot swap",
            "left": "left slot letter q-exchange",
            "right": "right slot letter q-exchange",
            "shared-left": "shared-left-slot q-exchange",
            "shared-middle": "shared-middle-slot q-exchange",
            "shared-right": "shared-right-slot q-exchange",
        },
        variants={
            "between": _SIGN,
            "shared-left": _SORTED,
            "shared-middle": "shape absent from the printed list; verified",
            "disjoint": "printed form claims a correction; verified commuting",
            "interleaved": _SIGN,
        },
    ),
}


def verify_relation_suite(handle):
    """All instantiable relation instances for the handle, residual-checked.

    Each residual is computed once per slot pattern and relabelled onto the
    pattern's instances (_per_pattern).  With slot-local rules the
    order-preserving slot map is an algebra map, so every entry is the one
    the instance gives computed on its own, byte for byte, and no relation
    touches more than four slots: from m = 4 on the suite computes no new
    residual, only relabels.
    """
    if handle.kind == "Akl":
        entries = _suite_gl(handle)
    elif handle.spec.family in _FAMILIES:
        entries = _suite_classical(handle, _FAMILIES[handle.spec.family])
    else:
        raise ValueError("no relation suite for this handle")
    return suite(f"relations {handle.kind}({handle.spec}, {handle.params})", entries)


class _OnFirstUse(dict):
    """{key: make(key)}, each value made on its first lookup: a suite
    straightens only the pairings and correction terms that its ranked slot
    patterns read, so its memo does not grow with m."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _per_pattern(handle, relations, instances):
    """(key, instance text, residual) for each relation instance, in order.

    An instance is (key, instance text, slots, label): slots are (kind,
    slot) pairs in the argument order of relations[key], and label is the
    instance's letter label or None.  relations[key] takes the slot numbers,
    then the label when there is one, and returns the residual.

    An instance's pattern is its key, its slots dense-ranked per kind in
    argument order ((2,5) -> (1,2), (5,2) -> (2,1), (3,3) -> (1,1)) and its
    label.  The residual is computed once per pattern, at the ranked slots
    in the same handle, and relabelled onto each instance's slots.  When
    the rules are slot-local (RewriteSystem.slot_local) the order-preserving
    slot map is an algebra map A_s -> A_m that takes ordered words to
    ordered words and the ranked pairings, correction terms and letters
    onto the instance's own, so the relabelled residual is the instance's
    residual.  Otherwise each slot is its own rank and nothing is
    relabelled.  The memo lives for one call.
    """
    local = handle.rs.slot_local
    memo = {}  # (key, ranked slots, label) -> residual at the ranked slots
    for key, instance, slots, label in instances:
        ranks = slot_ranks(slots) if local else {s: s[1] for s in slots}
        ranked = tuple(ranks[s] for s in slots)
        pattern = (key, ranked, label)
        res = memo.get(pattern)
        if res is None:
            args = ranked if label is None else ranked + (label,)
            res = memo[pattern] = relations[key](*args)
        if res and any(s[1] != r for s, r in ranks.items()):
            up = {(s[0], r): s for s, r in ranks.items()}
            res = NCPolynomial._raw(
                {tuple(up[l[:2]] + l[2:] for l in w): c for w, c in res.coeffs.items()}
            )
        yield key, instance, res


def _suite_classical(handle, fam):
    """The B, C and D suites: the shared relation families, instantiated for
    every slot index tuple in a fixed order, with the family's differences
    read from its table row."""
    m, n = handle.params["m"], handle.spec.rank
    skew, kappa = pairing(handle.spec).skew, pair_eigenvalue_p0(handle.spec)
    qq = _qq()
    mul = handle.multiply
    comm = lambda a, b: mul(a, b) - mul(b, a)
    exchange = lambda a, b, c: mul(a, b) - mul(b, a).scale(c)
    slots = range(1, m + 1)
    P = _OnFirstUse(lambda ref: psi(handle, ref))
    corr = _OnFirstUse(lambda i: fam.correction(handle, i)) if fam.correction else None
    letters = range(1, natural_rep(handle.spec).dim_v + 1)
    x = {(k, a): NCPolynomial.from_word((x_(k, a),)) for k in slots for a in letters}

    def between(i, k, j, a):
        rhs = mul(x[(i, a)], P[(k, j)]) - mul(P[(i, k)], x[(j, a)])
        return comm(x[(k, a)], P[(i, j)]) - rhs.scale(qq)

    def left(i, j, a):
        if skew:
            return exchange(x[(i, a)], P[(i, j)], q_pow(1))
        return exchange(P[(i, j)], x[(i, a)], q_pow(-1)) - mul(corr[i], x[(j, a)]).scale(qq)

    def right(i, j, a):
        if skew:
            return exchange(P[(i, j)], x[(j, a)], q_pow(1))
        xi = x[(i, a)]
        rcorr = mul(corr[j], xi) if fam.corr_first else mul(xi, corr[j])
        return exchange(x[(j, a)], P[(i, j)], q_pow(-1)) - rcorr.scale(qq)

    def shared(u, w, slot, rest):
        # the q-exchange of P[u] past P[w], less the correction at slot
        res = exchange(P[u], P[w], q_pow(-1))
        if corr is not None:
            res = res - mul(corr[slot], P[rest]).scale(qq)
        return res

    def interleaved(a, b, c, d):
        rhs = mul(P[(a, b)], P[(c, d)]) - mul(P[(a, d)], P[(b, c)])
        return comm(P[(a, c)], P[(b, d)]) - rhs.scale(qq)

    relations = {
        "twist": lambda i, j: P[(j, i)] - P[(i, j)].scale(kappa),
        "ratio": lambda i: corr[i] - P[(i, i)].scale(fam.ratio(n)),
        "central": lambda i, k, a: comm(x[(k, a)], P[(i, i)]),
        "outside": lambda i, j, k, a: comm(x[(k, a)], P[(i, j)]),
        "between": between,
        "left": left,
        "right": right,
        "equal": lambda i, j, k: comm(P[(i, i)], P[(j, k)]),
        "shared-left": lambda a, b, c: shared((a, b), (a, c), a, (b, c)),
        "shared-middle": lambda a, b, c: shared((b, c), (a, b), b, (a, c)),
        "shared-right": lambda a, b, c: shared((a, c), (b, c), c, (a, b)),
        "nested": lambda a, b, c, d: comm(P[(b, c)], P[(a, d)]),
        "disjoint": lambda a, b, c, d: comm(P[(a, b)], P[(c, d)]),
        "interleaved": interleaved,
    }
    instances = []

    def add(key, instance, args, label):
        instances.append((key, instance, tuple((0, s) for s in args), label))

    for i, j in combinations(slots, 2):
        add("twist", f"{fam.labels[0]}({i},{j})", (i, j), None)
    if fam.ratio:
        for i in slots:
            add("ratio", f"i={i}", (i,), None)
    if not skew:
        for i in slots:
            for k in slots:
                for a in letters:
                    add("central", f"i={i},k={k},a={a}", (i, k), a)
    for i, j in combinations(slots, 2):
        for k in list(range(1, i)) + list(range(j + 1, m + 1)):
            for a in letters:
                add("outside", f"i={i},j={j},k={k},a={a}", (i, j, k), a)
    for i, k, j in combinations(slots, 3):
        for a in letters:
            add("between", f"i={i},k={k},j={j},a={a}", (i, k, j), a)
    for i, j in combinations(slots, 2):
        for a in letters:
            add("left", f"i={i},j={j},a={a}", (i, j), a)
            add("right", f"i={i},j={j},a={a}", (i, j), a)
    if not skew:
        for i in slots:
            for j in slots:
                for k in range(j, m + 1):
                    add("equal", f"i={i},(j,k)=({j},{k})", (i, j, k), None)
    for a, b, c in combinations(slots, 3):
        for key in ("shared-left", "shared-middle", "shared-right"):
            add(key, f"{fam.labels[1]}({a},{b},{c})", (a, b, c), None)
    for a, b, c, d in combinations(slots, 4):
        for key in ("nested", "disjoint", "interleaved"):
            add(key, f"({a},{b},{c},{d})", (a, b, c, d), None)
    return [
        _entry(fam.citations.get(key, _CITATIONS[key]), inst, res, handle, fam.variants.get(key))
        for key, inst, res in _per_pattern(handle, relations, instances)
    ]


def _suite_gl(handle):
    """The A_{k,l} suite; X rows and Y rows are ranked separately, each
    relation taking its X rows, then its Y rows, then its label."""
    k, l, n = handle.params["k"], handle.params["l"], handle.params["n"]
    qq = _qq()
    mul = handle.multiply
    comm = lambda a, b: mul(a, b) - mul(b, a)
    exchange = lambda a, b, c: mul(a, b) - mul(b, a).scale(c)
    rows, cols, labels = range(1, k + 1), range(1, l + 1), range(1, n + 1)
    P = _OnFirstUse(lambda ref: psi(handle, ref))
    x = {(i, a): NCPolynomial.from_word((x_(i, a),)) for i in rows for a in labels}
    y = {(b, a): NCPolynomial.from_word((y_(b, a),)) for b in cols for a in labels}

    def x_past(i, j, beta, a):
        return comm(x[(j, a)], P[(i, beta)]) - mul(x[(i, a)], P[(j, beta)]).scale(qq)

    def y_past(j, alpha, beta, b):
        return comm(P[(j, alpha)], y[(beta, b)]) - mul(y[(alpha, b)], P[(j, beta)]).scale(qq)

    def crossed(i, j, alpha, beta):
        return comm(P[(j, alpha)], P[(i, beta)]) - mul(P[(i, alpha)], P[(j, beta)]).scale(qq)

    relations = {
        "later-row pairing commutes with X": lambda i, j, beta, a: comm(P[(j, beta)], x[(i, a)]),
        "X past an earlier-row pairing": x_past,
        "same-row X q-exchange": lambda i, beta, a: exchange(P[(i, beta)], x[(i, a)], q_pow(-1)),
        "later-row pairing commutes with Y": lambda j, alpha, beta, b: comm(
            P[(j, beta)], y[(alpha, b)]
        ),
        "Y past an earlier-row pairing": y_past,
        "same-row Y q-exchange": lambda i, beta, b: exchange(P[(i, beta)], y[(beta, b)], q_pow(1)),
        "disjoint pairings commute": lambda i, j, alpha, beta: comm(P[(j, beta)], P[(i, alpha)]),
        "crossed pairings exchange": crossed,
        "shared X-row pairing q-exchange": lambda i, alpha, beta: exchange(
            P[(i, beta)], P[(i, alpha)], q_pow(-1)
        ),
        "shared Y-row pairing q-exchange": lambda i, j, beta: exchange(
            P[(j, beta)], P[(i, beta)], q_pow(1)
        ),
    }
    instances = []

    def add(citation, instance, xrows, yrows, label):
        slots = tuple((0, i) for i in xrows) + tuple((1, b) for b in yrows)
        instances.append((citation, instance, slots, label))

    for i, j in combinations(rows, 2):
        for beta in cols:
            for a in labels:
                inst = f"i={i},j={j},b={beta},a={a}"
                add("later-row pairing commutes with X", inst, (i, j), (beta,), a)
                add("X past an earlier-row pairing", inst, (i, j), (beta,), a)
    for i in rows:
        for beta in cols:
            for a in labels:
                add("same-row X q-exchange", f"i={i},b={beta},a={a}", (i,), (beta,), a)
    for alpha, beta in combinations(cols, 2):
        for j in rows:
            for b in labels:
                inst = f"j={j},alpha={alpha},beta={beta},b={b}"
                add("later-row pairing commutes with Y", inst, (j,), (alpha, beta), b)
                add("Y past an earlier-row pairing", inst, (j,), (alpha, beta), b)
    for i in rows:
        for beta in cols:
            for b in labels:
                add("same-row Y q-exchange", f"i={i},b={beta},col={b}", (i,), (beta,), b)
    for i, j in combinations(rows, 2):
        for alpha, beta in combinations(cols, 2):
            ij, ab = (i, j), (alpha, beta)
            add("disjoint pairings commute", f"({i},{alpha}),({j},{beta})", ij, ab, None)
            add("crossed pairings exchange", f"({i},{beta}),({j},{alpha})", ij, ab, None)
    for i in rows:
        for alpha, beta in combinations(cols, 2):
            inst = f"i={i},{alpha}<{beta}"
            add("shared X-row pairing q-exchange", inst, (i,), (alpha, beta), None)
    for beta in cols:
        for i, j in combinations(rows, 2):
            add("shared Y-row pairing q-exchange", f"{i}<{j},beta={beta}", (i, j), (beta,), None)
    return [_entry(*e, handle) for e in _per_pattern(handle, relations, instances)]


# ---------------------------------------------------------------------------
# spans of pairing monomials and the invariant-space comparison

def psi_monomial_span(handle, degree):
    """Exact dimension (and spanning set) of the span of normal-form products
    of pairing generators with the given multidegree.

    Only the first generator of each multidegree enters: two generators
    share one only as Psi^(i,j) and Psi^(j,i) on A_m, and the twist entries
    of the relation suites show Psi^(j,i) = kappa Psi^(i,j).
    """
    check_degree(degree, len(handle.slots))
    first = {}  # multidegree -> its first ref
    for ref, gen in handle.pairings.items():
        first.setdefault(handle.grading(next(iter(gen.coeffs))), ref)
    gens = list(first.items())
    normal = {g: psi(handle, g) for _, g in gens}
    # every generator is quadratic; summed from zero, () has degree 0
    zero = (0,) * len(handle.slots)
    monomials = [
        tuple(g for _, g in mono)
        for mono in combinations_with_replacement(gens, sum(degree) // 2)
        if tuple(map(sum, zip(zero, *(d for d, _ in mono)))) == tuple(degree)
    ]
    eb = EchelonBasis()
    vectors = []
    for mono in sorted(monomials):
        prod = NCPolynomial.one()
        for g in mono:
            prod = handle.multiply(prod, normal[g])
        if prod:
            vectors.append(prod)
            eb.add(prod.coeffs)
    return eb.rank(), vectors


def _sigma_fixed(handle, basis):
    """A basis of the sigma-fixed part of span(basis): the kernel of
    sigma - 1 on it, which is the sigma-fixed invariants when basis spans
    the invariants."""
    sigma = GeneratorRef("sigma")
    rows = {}  # word -> {basis index: coefficient of word in (sigma - 1) b}
    for i, b in enumerate(basis):
        for w, c in (act(handle, sigma, b) - b).coeffs.items():
            rows.setdefault(w, {})[i] = c
    fixed = []
    for v in nullspace([rows[w] for w in sorted(rows)], list(range(len(basis)))):
        out = {}
        for i, c in v.items():
            accumulate(out, basis[i].coeffs.items(), c)
        fixed.append(NCPolynomial(out))
    return fixed


def fft_verify(handle, degree, include_sigma=False):
    """Compare the exact invariant space with the pairing-monomial span.

    With include_sigma on an algebra with a sigma generator (B, D) the claim
    is about O_N: the span is compared with the sigma-fixed invariants, cut
    out of the one invariant basis by sigma, and invariant_dim (all U_q
    invariants, SO_N's count) is reported beside it.
    """
    inv = invariant_basis(handle, degree)
    span_dim, span_vecs = psi_monomial_span(handle, degree)
    target = inv
    sigma_dim = None
    if include_sigma and GeneratorRef("sigma") in handle.invariance_generators(True):
        target = _sigma_fixed(handle, inv)
        sigma_dim = len(target)
    contained = span_contained_in(span_vecs, target)
    return check(
        "invariants generated by the pairings",
        f"degree {tuple(degree)}",
        len(target) == span_dim and contained,
        invariant_dim=len(inv),
        span_dim=span_dim,
        contained=contained,
        sigma_filtered_dim=sigma_dim,
    )


# ---------------------------------------------------------------------------
# exterior highest weight vectors and skew duality

class PartitionError(ValueError):
    pass


def _conjugate(lam):
    if not lam:
        return ()
    return tuple(
        sum(1 for x in lam if x >= j) for j in range(1, lam[0] + 1)
    )


def exterior_highest_weight(handle, lam):
    """The ordered product for a partition inside the m x n box, with the
    verification that both families of raising operators annihilate it."""
    m, n = handle.params["m"], handle.params["n"]
    lam = tuple(x for x in lam if x)
    if any(x < 0 for x in lam) or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise PartitionError("not a partition")
    if len(lam) > m or (lam and lam[0] > n):
        raise PartitionError("partition leaves the box")
    word = tuple(
        (0, i + 1, j) for i, part in enumerate(lam) for j in range(1, part + 1)
    )
    pol = NCPolynomial.from_word(word)
    entries = []
    for grp, rng in (("m", m), ("n", n)):
        for a in range(1, rng):
            img = act(handle, GeneratorRef("e", a, grp), pol)
            inst = f"lambda={lam}, e_{a}"
            entries.append(check(f"raising operator annihilates (gl_{grp})", inst, img.is_zero()))
    wt = handle.weight(word)
    lam_padded = lam + (0,) * (m - len(lam))
    conj = _conjugate(lam) + (0,) * (n - len(_conjugate(lam)))
    ok = wt == tuple(lam_padded) + tuple(conj)
    entries.append(check("bi-weight is (lambda, lambda')", f"lambda={lam}", ok))
    return pol, suite(f"highest weight lambda={lam}", entries)


def _box_partitions(m, n):
    """The partitions inside the m x n box, by size and then as tuples."""
    rows = combinations_with_replacement(range(n, -1, -1), m)
    return sorted((tuple(x for x in lam if x) for lam in rows), key=lambda t: (sum(t), t))


def skew_duality_check(m, n):
    """Dimension identity of the multiplicity-free exterior decomposition,
    degreewise, with highest-weight verification for every box partition."""
    handle = build_exterior(m, n)
    entries = []
    total = 0
    by_degree = {}
    for lam in _box_partitions(m, n):
        dim = irrep_dim_gl(m, lam) * irrep_dim_gl(n, _conjugate(lam))
        total += dim
        by_degree[sum(lam)] = by_degree.get(sum(lam), 0) + dim
        _, hw = exterior_highest_weight(handle, lam)
        entries.append(
            check("highest weight vector for the box partition", f"lambda={lam}", hw["pass"])
        )
    entries.append(check("total dimension is 2^(mn)", f"sum={total}", total == 2 ** (m * n)))
    for k in range(0, m * n + 1):
        graded = sum(
            handle.graded_dimension(d) for d in handle.degree_compositions(k)
        )
        entries.append(
            check(
                "degreewise refinement matches the graded dimension",
                f"degree {k}: {by_degree.get(k, 0)} vs {graded}",
                by_degree.get(k, 0) == graded,
            )
        )
    return suite(f"skew-duality ({m},{n})", entries)
