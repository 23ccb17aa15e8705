"""Construction of the presented algebras as rewrite systems.

Each handle owns an alphabet, a per-slot grading, a straightening rewrite
system built once from its builder's ordered rule groups, and the quadratic
pairing generators Psi its builder decides; the same groups render the
presentation manifest on demand.  Shipped rule sets are derived from the
braiding itself: same-slot rules are solved exactly from the degree-2
relation subspace of V (x) V, a summand of the spectral decomposition (for
the dual rows of A_{k,l}, the antisymmetric summand with its tensor factors
swapped), and cross-slot rules read off the entries of R-check (block
exchange).  The transcribed textbook presentation variants
are available behind strict=True and compared rule-by-rule by the
oracle-diff machinery; the independent tensor-route product (lift, braid
blocks with cabled R-checks, re-straighten slotwise) lives in
tensor_oracle_product.  A pair of words whose concatenation never steps down
a slot has no block to braid, so the route straightens that word at once.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations, groupby, product
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

from .braiding import (
    invariant_vector_t,
    pairing,
    pairing_terms,
    rcheck,
    rcheck_cabled,
    spectral_data,
)
from .linalg import Expresser
from .ncpoly import (
    NCPolynomial,
    RewriteSystem,
    default_letter_str,
    graded_words,
    sq_letter_str,
    x_,
    y_,
)
from .report import check
from .rootdata import LieTypeSpec, natural_rep, sigma_candidate
from .scalar import ONE, accumulate, q_pow


class PresentationError(RuntimeError):
    pass


class GeneratorRef(NamedTuple):
    kind: str          # e | f | k | sigma
    index: int = 0
    group: str = "g"   # 'm' / 'n' select the factor group on the exterior algebra

    def __str__(self):
        tag = "" if self.group == "g" else self.group
        return f"{self.kind}{tag}{self.index}" if self.kind != "sigma" else "sigma"


def _compositions(total, parts):
    """Tuples of parts non-negative ints summing to total, lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _letter_pos(group):
    """Where a letter keeps its index for a group: group m acts on the row
    l[1], any other group on the label l[2]."""
    return 1 if group == "m" else 2


def _letter_weight(reps, l):
    """Weight of a letter in the epsilon basis, concatenated over the sorted
    groups; a dual letter (l[0] == 1) has the negated weight."""
    sign = -1 if l[0] == 1 else 1
    return tuple(sign * x for grp, rep in reps for x in rep.weights[l[_letter_pos(grp)] - 1])


class AlgebraHandle:
    """A presented algebra: alphabet, grading, rewrite system, letter actions
    and pairing generators."""

    def __init__(self, kind, spec, params, slots, groups, strict=False, pairings=None):
        self.kind = kind          # Sq | Am | Akl | Exterior
        self.spec = spec          # LieTypeSpec (None for Exterior)
        self.params = params      # {'m': ...} | {'k':..,'l':..,'n':..} | {'m':..,'n':..}
        self.slots = slots        # list of (slot_name, tuple of letters)
        # (provenance, {pattern: replacement}) groups in order, patterns sorted
        self.groups = tuple((prov, tuple(sorted(rules.items()))) for prov, rules in groups)
        self.rs = RewriteSystem({pat: repl for _, rules in self.groups for pat, repl in rules})
        self.strict = strict
        # {ref: Psi^ref before normalisation} in ref order; empty when the
        # algebra has no pairing generators (exterior, A_m over GL)
        self.pairings = MappingProxyType(dict(pairings or {}))
        self.letter_str = sq_letter_str if kind == "Sq" else default_letter_str
        self.alphabet = tuple(l for _, block in slots for l in block)
        self._slot_index = {}
        for idx, (_, block) in enumerate(slots):
            for l in block:
                self._slot_index[l] = idx
        reps = sorted(self.reps().items())
        self._weights = {l: _letter_weight(reps, l) for l in self.alphabet}
        self._zero_weight = (0,) * len(self._weights[self.alphabet[0]])
        self._action_cache = {}
        self._validate()

    # -- structure ---------------------------------------------------------

    def _validate(self):
        rules, slot = self.rs.rules, self._slot_index.__getitem__
        for pat, repl in rules.items():
            slots = sorted(map(slot, pat))
            for w in repl.coeffs:
                if sorted(map(slot, w)) != slots:
                    raise PresentationError(f"rule {pat} is not degree-homogeneous")
        for l1 in self.alphabet:
            for l2 in self.alphabet:
                if (l1 > l2 or (l1 == l2 and self.kind == "Exterior")) and (l1, l2) not in rules:
                    raise PresentationError(
                        f"non-normal pair {(l1, l2)} has no straightening rule"
                    )

    def grading(self, word):
        d = [0] * len(self.slots)
        for l in word:
            d[self._slot_index[l]] += 1
        return tuple(d)

    def graded_words(self, degree):
        strict = self.kind == "Exterior"
        return graded_words([blk for _, blk in self.slots], degree, strict=strict)

    def graded_dimension(self, degree):
        return len(self.graded_words(degree))

    def degree_compositions(self, total):
        """All multidegrees with the given total, in lexicographic order."""
        return list(_compositions(total, len(self.slots)))

    # -- algebra operations --------------------------------------------------

    def normal_form(self, p):
        return self.rs.normal_form(p)

    def multiply(self, p, r):
        return self.rs.normal_form(p.concat(r))

    def render(self, p):
        return p.render(self.letter_str)

    # -- quantum group action ------------------------------------------------

    def reps(self):
        if self.kind == "Exterior":
            return {
                "m": natural_rep(LieTypeSpec("GL", self.params["m"])),
                "n": natural_rep(LieTypeSpec("GL", self.params["n"])),
            }
        return {"g": natural_rep(self.spec)}

    def invariance_generators(self, include_sigma=False):
        out = []
        for grp, rep in sorted(self.reps().items()):
            for i in rep.chevalley_indices():
                out.append(GeneratorRef("e", i, grp))
                out.append(GeneratorRef("f", i, grp))
            for b in rep.cartan_indices():
                out.append(GeneratorRef("k", b, grp))
        if include_sigma and self.spec is not None and self.spec.family in ("B", "D"):
            out.append(GeneratorRef("sigma"))
        return out

    def weight(self, word):
        """Weight in the epsilon basis, concatenated over the groups."""
        return tuple(map(sum, zip(self._zero_weight, *(self._weights[l] for l in word))))

    def generator_action(self, g):
        """images/cok tables for rootdata.coproduct_image of a generator."""
        if g not in self._action_cache:
            self._action_cache[g] = self._build_action(g)
        return self._action_cache[g]

    def _build_action(self, g):
        """Letter images of g, read at the letter's _letter_pos for the group;
        a letter with l[0] == 1 is dual."""
        if g.kind == "sigma":
            cols = sigma_candidate(self.spec).cols
            images = {
                l: tuple((l[:2] + (r,), v) for r, v in cols.get(l[2], {}).items())
                for l in self.alphabet
            }
            return images, None
        rep = self.reps()[g.group]
        pos = _letter_pos(g.group)
        if g.kind in ("k", "k_inv"):
            # k^-1 acts on V as k does on V*, and the other way round
            kind, flip, cok = "k", g.kind == "k_inv", None
        else:
            kind, flip, k = g.kind, False, rep.coproduct_k(g.index)
            cok = {l: k[l[pos]].inverse() if l[0] == 1 else k[l[pos]] for l in self.alphabet}
        on = {dual: rep.images(kind, g.index, dual != flip) for dual in (False, True)}
        images = {
            l: tuple((l[:pos] + (r,) + l[pos + 1:], v) for r, v in on[l[0] == 1].get(l[pos], ()))
            for l in self.alphabet
        }
        return images, cok


# ---------------------------------------------------------------------------
# same-slot straightening rules, solved from the degree-2 relation subspace

def _solve_pair_rules(ideal, normal, pairs, what):
    """Straighten each pair modulo the degree-2 ideal, exactly.

    The columns (the ideal, then one unit vector per normal pair) must be a
    basis of the degree-2 words; each pair is expressed in it and keeps its
    normal coordinates.
    """
    columns = ideal + [{p: ONE} for p in normal]
    expr = Expresser(columns)
    if expr.rank() != len(columns) or len(columns) != len(pairs) + len(normal):
        raise PresentationError(f"{what}: degree-2 solve is not determined")
    rules = {}
    for pair in pairs:
        coords = expr.express({pair: ONE})
        if coords is None:
            raise PresentationError(f"{what}: pair {pair} not expressible")
        rules[pair] = {
            normal[j - len(ideal)]: c
            for j, c in coords.items()
            if j >= len(ideal) and c
        }
    return rules


@lru_cache(maxsize=None)
def _pair_rules_solved(spec, dual=False):
    """labels (b, a) with b > a mapped to {(c, d) c<=d: Scalar}, exactly.

    dual gives GL's dual quantum matrix rows from the anti summand with its
    tensor factors swapped: GL's R-check is symmetric, so the rows of
    q^-1 - R^-1 (R^-1 = R-check^-1 o P) span the flip of the image of
    q^-1 - R-check^-1 = (q + q^-1) P_anti."""
    sd = spectral_data(spec)
    ideal = list(sd.summand("anti")[1])
    if dual:
        ideal = [{(b, a): c for (a, b), c in u.items()} for u in ideal]
    if spec.family != "GL" and pairing(spec).skew:
        ideal.extend(sd.summand("triv")[1])
    labels = natural_rep(spec).labels
    normal = [(a, b) for a in labels for b in labels if a <= b]
    pairs = [(b, a) for b in labels for a in labels if b > a]
    return _solve_pair_rules(ideal, normal, pairs, str(spec))


@lru_cache(maxsize=None)
def _pair_rules_exterior(m, n):
    """Straightening of weakly decreasing letter pairs of the exterior algebra."""
    sd_m = spectral_data(LieTypeSpec("GL", m))
    sd_n = spectral_data(LieTypeSpec("GL", n))
    ideal = []
    for part_m, part_n in (("sym", "sym"), ("anti", "anti")):
        for u in sd_m.summand(part_m)[1]:
            for w in sd_n.summand(part_n)[1]:
                vec = {}
                for (i, s), cu in u.items():
                    for (j, t), cw in w.items():
                        vec[((i, j), (s, t))] = cu * cw
                ideal.append(vec)
    letters = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    normal = [(p, r) for p in letters for r in letters if p < r]
    pairs = [(p, r) for p in letters for r in letters if p >= r]
    return _solve_pair_rules(ideal, normal, pairs, f"exterior ({m},{n})")


# ---------------------------------------------------------------------------
# rule families: label-pair tables lifted onto slots

def _slots(letter, count):
    """One letter maker per slot: slot i sends a label a to letter(i, a)."""
    return [partial(letter, i) for i in range(1, count + 1)]


def _on_slot(pair_rules, letter):
    """A label-pair rule table {(b, a): {(c, d): v}} as rules on one slot."""
    return {
        (letter(b), letter(a)): NCPolynomial(
            {(letter(c), letter(d)): v for (c, d), v in repl.items()}
        )
        for (b, a), repl in pair_rules.items()
    }


def _exchange_rules(columns, slot_pairs, labels):
    """Rules right(b) left(a) -> sum of v left(c) right(d), one per label pair
    and (left, right) slot pair, with the (c, d): v of columns[(b, a)]."""
    return {
        (right(b), left(a)): NCPolynomial(
            {(left(c), right(d)): v for (c, d), v in columns.get((b, a), {}).items()}
        )
        for left, right in slot_pairs
        for b in labels
        for a in labels
    }


# ---------------------------------------------------------------------------
# handle builders

def _family_pair_provenance(spec):
    return {
        "D": "even orthogonal degree-2 ideal solve (antisymmetric summand)",
        "B": "odd orthogonal degree-2 ideal solve (antisymmetric summand)",
        "C": "symplectic degree-2 ideal solve (antisymmetric + invariant line)",
        "GL": "quantum matrix row relations (antisymmetric summand solve)",
    }[spec.family]


@lru_cache(maxsize=None)
def build_sq(spec):
    """The braided symmetric algebra of the natural module, one slot."""
    if spec.family == "GL":
        raise ValueError("the GL quantum affine space arises inside build_akl")
    return _build_am(spec, 1, kind="Sq")


def build_am(spec, m, strict=False):
    if m < 1:
        raise ValueError("m must be positive")
    return _cached_am(spec, m, bool(strict))


@lru_cache(maxsize=None)
def _cached_am(spec, m, strict):
    """build_am's handles, keyed one way however strict was spelled."""
    return _build_am(spec, m, kind="Am", strict=strict)


def _build_am(spec, m, kind, strict=False):
    labels = natural_rep(spec).labels
    slots = [
        (f"slot{i}", tuple(x_(i, a) for a in labels)) for i in range(1, m + 1)
    ]
    pair, prov = _pair_rules_solved(spec), _family_pair_provenance(spec)
    groups = [(prov, _on_slot(pair, x)) for x in _slots(x_, m)]
    if m > 1:
        if strict and spec.family in ("B", "C", "D"):
            groups.append(_printed_cross_rules(spec, m))
        else:
            pairs = combinations(_slots(x_, m), 2)
            cross = _exchange_rules(rcheck(spec).cols, pairs, labels)
            groups.append(("cross-slot exchange from R-check entries", cross))
    pairings = {}
    if spec.family != "GL":
        # a skew pairing has no equal-slot generator
        skew, slot_range = pairing(spec).skew, range(1, m + 1)
        tvec = invariant_vector_t(spec)  # psi_pair_poly's T, built once
        pairings = {
            (i, j): slot_pair_poly(tvec, i, j)
            for i in slot_range
            for j in slot_range
            if i != j or not skew
        }
    return AlgebraHandle(
        kind=kind,
        spec=spec,
        params={"m": m},
        slots=slots,
        groups=groups,
        strict=strict,
        pairings=pairings,
    )


@lru_cache(maxsize=None)
def build_akl(n, k, l):
    """Quantum matrix rows tensor dual rows: k X-rows and l Y-rows over gl_n."""
    if min(n, k, l) < 1:
        raise ValueError("n, k, l must be positive")
    spec = LieTypeSpec("GL", n)
    labels = natural_rep(spec).labels
    slots = [(f"x{i}", tuple(x_(i, a) for a in labels)) for i in range(1, k + 1)]
    slots += [(f"y{b}", tuple(y_(b, a) for a in labels)) for b in range(1, l + 1)]
    xs, ys = _slots(x_, k), _slots(y_, l)
    pair, dual_pair = _pair_rules_solved(spec), _pair_rules_solved(spec, dual=True)
    cross = _exchange_rules(rcheck(spec).cols, combinations(xs, 2), labels)

    # inverse-R entries ((r1, r2), (c1, c2)), read from R-check^-1 at column
    # (c2, c1) since R^-1 = R-check^-1 o P: Y rows exchange along row
    # (r1, r2) read under (r2, r1); Y passes X pairing r1 with c2
    ycols, mixed = {}, {}
    for (c2, c1), col in rcheck(spec, inverse=True).cols.items():
        for (r1, r2), v in col.items():
            ycols.setdefault((r2, r1), {})[(c1, c2)] = v
            mixed.setdefault((r1, c2), {})[(r2, c1)] = v
    ycross = _exchange_rules(ycols, combinations(ys, 2), labels)
    xy = _exchange_rules(mixed, product(xs, ys), labels)

    groups = [("quantum matrix row relations", _on_slot(pair, x)) for x in xs]
    groups.append(("cross-row exchange from R-check entries", cross))
    groups += [("dual quantum matrix row relations", _on_slot(dual_pair, y)) for y in ys]
    groups.append(("dual cross-row exchange from inverse R entries", ycross))
    groups.append(("mixed exchange from inverse R pairing", xy))
    # Psi^(i,beta) = sum_a X[i,a] Y[beta,a]
    pairings = {
        (i, beta): NCPolynomial({(x_(i, a), y_(beta, a)): ONE for a in labels})
        for i in range(1, k + 1)
        for beta in range(1, l + 1)
    }
    return AlgebraHandle(
        kind="Akl",
        spec=spec,
        params={"n": n, "k": k, "l": l},
        slots=slots,
        groups=groups,
        pairings=pairings,
    )


@lru_cache(maxsize=None)
def build_exterior(m, n):
    """The braided exterior algebra of (natural gl_m) (x) (natural gl_n)."""
    if min(m, n) < 1:
        raise ValueError("m, n must be positive")
    slots = [
        (f"row{i}", tuple((0, i, j) for j in range(1, n + 1)))
        for i in range(1, m + 1)
    ]
    rules = _on_slot(_pair_rules_exterior(m, n), lambda p: (0,) + p)
    return AlgebraHandle(
        kind="Exterior",
        spec=None,
        params={"m": m, "n": n},
        slots=slots,
        groups=[("exterior degree-2 ideal solve (symmetric part)", rules)],
    )


def presentation_manifest(handle):
    """The audited rule manifest for dump-presentation."""
    style = handle.letter_str
    rules = [
        {
            "pattern": "".join(style(l) for l in pat),
            "replacement": repl.render(style),
            "provenance": prov,
        }
        for prov, group in handle.groups
        for pat, repl in group
    ]
    return {
        "kind": handle.kind,
        "spec": str(handle.spec) if handle.spec else None,
        "params": dict(handle.params),
        "strict": handle.strict,
        "rules": rules,
    }


# ---------------------------------------------------------------------------
# transcribed textbook presentation variants (strict mode)

class _Printed(NamedTuple):
    """The q-exponents of one family's printed cross rules.

    With N = dim V, t <= n, t' = N + 1 - t and psi_t, bar-psi_t the partial
    sums of the family's pairing (braiding.pairing_terms) on slots (i, j),
    the rules read
        X_j,t X_i,t' = q^first X_i,t' X_j,t - (q-q^-1) q^(n-t+first_psi) psi_t
        X_j,t' X_i,t = q^second X_i,t X_j,t' + middle (q-q^-1) X_i,t' X_j,t
                       + (q-q^-1) q^(t-n+tail) (bar-psi_(t+bar_next) - Psi)
    where first_psi None drops the psi_t term.
    """

    name: str
    first: int
    first_psi: int | None
    second: int
    middle: int
    bar_next: int
    tail: int


_PRINTED = {
    "D": _Printed("even orthogonal", 1, 0, 1, -1, 1, 0),
    "B": _Printed("odd orthogonal", 1, 1, -1, -1, 0, 0),
    "C": _Printed("symplectic", -1, None, 1, 1, 1, -1),
}


def slot_pair_poly(terms, i, j):
    """Label-pair terms {(a, b): v} as the polynomial sum of v X_i,a X_j,b."""
    return NCPolynomial({(x_(i, a), x_(j, b)): v for (a, b), v in terms.items()})


def psi_pair_poly(spec, i, j):
    """The quadratic pairing element Psi^(i,j) before normalisation: T on
    slots (i, j)."""
    return slot_pair_poly(invariant_vector_t(spec), i, j)


def _printed_cross_rules(spec, m):
    """(provenance, cross rules) exactly as the source presentation prints them."""
    if spec.family not in _PRINTED:
        raise ValueError("printed cross rules exist for B, C, D only")
    fam = _PRINTED[spec.family]
    n = spec.rank
    dim = natural_rep(spec).dim_v
    pairsum = dim + 1
    zero = n + 1 if dim % 2 else None  # the zero weight label of B
    qq = q_pow(1) - q_pow(-1)
    middle = qq if fam.middle == 1 else fam.middle * qq  # no product by the int 1
    rules = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):

            def w(a, b):
                return (x_(i, a), x_(j, b))

            def partial_sum(t, barred):
                return slot_pair_poly(pairing_terms(spec, 1, t, barred), i, j)

            psi_full = psi_pair_poly(spec, i, j)
            for a in range(1, dim + 1):
                if a != zero:
                    rules[(x_(j, a), x_(i, a))] = NCPolynomial({w(a, a): q_pow(1)})
                for b in range(a + 1, dim + 1):
                    if a + b != pairsum:
                        rules[(x_(j, b), x_(i, a))] = NCPolynomial(
                            {w(a, b): ONE, w(b, a): qq}
                        )
                        rules[(x_(j, a), x_(i, b))] = NCPolynomial({w(b, a): ONE})
            if zero is not None:
                rules[(x_(j, zero), x_(i, zero))] = NCPolynomial(
                    {w(zero, zero): ONE}
                ) - partial_sum(n, False).scale(qq)
            for t in range(1, n + 1):
                u = pairsum - t
                first = NCPolynomial({w(u, t): q_pow(fam.first)})
                if fam.first_psi is not None:
                    first = first - partial_sum(t, False).scale(
                        qq * q_pow(n - t + fam.first_psi)
                    )
                rules[(x_(j, t), x_(i, u))] = first
                tail = partial_sum(t + fam.bar_next, True) - psi_full
                rules[(x_(j, u), x_(i, t))] = NCPolynomial(
                    {w(t, u): q_pow(fam.second), w(u, t): middle}
                ) + tail.scale(qq * q_pow(t - n + fam.tail))
    return f"printed presentation: {fam.name} cross rules", rules


def printed_rule_diffs(spec, m=2):
    """Compare printed cross rules against the R-check-derived ones.

    Returns one informational (passing) report entry per printed pattern,
    recording whether both replacements agree once reduced against the
    shipped system.
    """
    shipped = build_am(spec, m)
    prov, printed = _printed_cross_rules(spec, m)
    entries = []
    for pat, repl in sorted(printed.items()):
        lhs = shipped.normal_form(NCPolynomial.from_word(pat))
        rhs = shipped.normal_form(repl)
        diff = lhs - rhs
        agrees = diff.is_zero()
        pattern = "".join(shipped.letter_str(l) for l in pat)
        residual = None if agrees else shipped.render(diff)
        text = repl.render(shipped.letter_str)
        entries.append(check(prov, pattern, True, printed=text, agrees=agrees, residual=residual))
    return entries


# ---------------------------------------------------------------------------
# the independent tensor-route product

def _slot_blocks(word):
    """The word's runs of letters on one slot, as (slot, labels)."""
    return [(slot, tuple(l[2] for l in run)) for slot, run in groupby(word, itemgetter(1))]


@lru_cache(maxsize=None)
def _slot_only_system(spec, m):
    """Rewrite system with only the per-slot straightening rules: the first
    m rule groups of A_m."""
    slot_groups = build_am(spec, m).groups[:m]
    return RewriteSystem({pat: repl for _, rules in slot_groups for pat, repl in rules})


def tensor_oracle_product(spec, m, x, y):
    """Product computed without cross-slot rewrite rules: lift each slot
    monomial to its tensor word, braid whole blocks past each other with
    cabled R-checks, then re-straighten every slot with the one-slot rules."""
    rs = _slot_only_system(spec, m)
    out = {}
    for wx, cx in x.coeffs.items():
        for wy, cy in y.coeffs.items():
            _oracle_word_product(out, spec, wx, wy, cx * cy, rs)
    return NCPolynomial._raw(out)


def _oracle_word_product(out, spec, wx, wy, coeff, slot_rs):
    """Add coeff times the tensor-route product of two words to out."""
    word = wx + wy
    if all(a[1] <= b[1] for a, b in zip(word, word[1:])):
        # no block descends, so no braid step runs: the word is its one state
        accumulate(out, slot_rs.word_normal_form(word).items(), coeff)
        return
    blocks = _slot_blocks(wx) + _slot_blocks(wy)
    slots = [b[0] for b in blocks]
    sizes = [len(b[1]) for b in blocks]
    states = {tuple(b[1] for b in blocks): coeff}
    while True:
        pos = next(
            (t for t in range(len(slots) - 1) if slots[t] > slots[t + 1]), None
        )
        if pos is None:
            break
        kk, ll = sizes[pos], sizes[pos + 1]
        cab = rcheck_cabled(spec, kk, ll)
        nxt = {}
        for labels, c in states.items():
            pre, post = labels[:pos], labels[pos + 2:]
            col = cab.column(labels[pos] + labels[pos + 1])
            images = ((pre + (w[:ll], w[ll:]) + post, v) for w, v in col.items())
            accumulate(nxt, images, c)
        states = nxt
        slots[pos], slots[pos + 1] = slots[pos + 1], slots[pos]
        sizes[pos], sizes[pos + 1] = sizes[pos + 1], sizes[pos]
    for labels, c in states.items():
        word = []
        for slot, block in zip(slots, labels):
            word.extend(x_(slot, a) for a in block)
        accumulate(out, slot_rs.word_normal_form(tuple(word)).items(), c)
