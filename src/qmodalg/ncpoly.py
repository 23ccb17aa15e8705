"""Words, noncommutative polynomials, and the straightening engine.

A Letter is a plain tuple (kind, factor, label) with kind 0 for X/v letters
and 1 for Y letters, so tuple comparison is exactly the monomial letter order
(X before Y, then factor slot, then label).  A Word is a tuple of Letters and
an ordered word is one with no adjacent pair matching a rewrite pattern.

Rewriting is leftmost reduction of two-letter redexes with memoised word
normal forms; every rule strictly decreases the degree-lexicographic order,
which makes the reduction terminating regardless of strategy.  Fuel is a
safety valve: a normal form whose words are charged more than DEFAULT_FUEL
raises FuelExhausted, a word being charged the expansions a memo-free
leftmost reduction of it makes, so a memo hit costs what a miss does.

A word's slot-compressed image renumbers the slots it uses onto 1..s,
keeping their order, separately for each letter kind (X slots and Y rows).
A rule table is slot-local when its letters are closed under moving a letter
to a lower slot of the same kind and label, and a letter pair is a pattern
exactly when its own compressed image is, with the replacement that image's
replacement relabelled back, and no replacement leaves its pattern's slots;
RewriteSystem checks this once when it is built (slot_local).  Leftmost
reduction then commutes with every order-preserving relabelling of slots,
so invariants._per_pattern computes a relation's residual once per slot
pattern and relabels it.  The memo holds every word as itself.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product
from types import MappingProxyType

from .scalar import ONE, accumulate

# the charge one normal_form may spend when the caller gives no fuel
DEFAULT_FUEL = 10 ** 6


def x_(i, a):
    return (0, i, a)


def y_(beta, b):
    return (1, beta, b)


class FuelExhausted(RuntimeError):
    """Straightening ran out of fuel; carries the partially reduced polynomial."""

    def __init__(self, partial):
        super().__init__("straightening fuel exhausted")
        self.partial = partial


class NCPolynomial:
    """Finite coefficient table Word -> Scalar; no zero coefficients stored."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {w: c for w, c in (coeffs or {}).items() if c}

    @staticmethod
    def _raw(coeffs):
        """Build from a table with no zero coefficient, which it then owns
        (internal fast path)."""
        p = object.__new__(NCPolynomial)
        p.coeffs = coeffs
        return p

    @staticmethod
    def zero():
        return NCPolynomial()

    @staticmethod
    def one():
        return NCPolynomial({(): ONE})

    @staticmethod
    def from_word(word):
        return NCPolynomial._raw({tuple(word): ONE})

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        return NCPolynomial._raw(accumulate(dict(self.coeffs), other.coeffs.items()))

    def __sub__(self, other):
        return self + other.scale(-ONE)

    def __neg__(self):
        return self.scale(-ONE)

    def scale(self, c):
        if not c:
            return NCPolynomial()
        # a field has no zero divisors, so no product is zero
        return NCPolynomial._raw({w: c * x for w, x in self.coeffs.items()})

    def concat(self, other):
        """Free (tensor-algebra) product, no straightening."""
        out = {}
        for w1, c1 in self.coeffs.items():
            accumulate(out, ((w1 + w2, c2) for w2, c2 in other.coeffs.items()), c1)
        return NCPolynomial._raw(out)

    def terms(self):
        """(word, coeff) pairs in deterministic (sorted) order."""
        return sorted(self.coeffs.items())

    def render(self, letter_str=None):
        if not self.coeffs:
            return "0"
        letter_str = letter_str or default_letter_str
        parts = []
        for w, c in self.terms():
            mono = "".join(letter_str(l) for l in w) or "1"
            cs = str(c)
            if w == ():
                body = "(%s)" % cs if " " in cs else cs
            elif cs == "1":
                body = mono
            elif cs == "-1":
                body = "-" + mono
            elif " " in cs:
                body = "(%s)*%s" % (cs, mono)
            else:
                body = "%s*%s" % (cs, mono)
            parts.append(body)
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return self.render()


def default_letter_str(l):
    kind, i, a = l
    if kind == 1:
        return "Y[%d,%d]" % (i, a)
    return "X[%d,%d]" % (i, a)


def terms_json(poly, letter_str=None):
    """Scalar-word term list [[coeff, word], ...] in report format."""
    letter_str = letter_str or default_letter_str
    return [
        [str(c), "".join(letter_str(l) for l in w) or "1"]
        for w, c in poly.terms()
    ]


def sq_letter_str(l):
    return "v[%d]" % l[2]


class RuleValidationError(ValueError):
    pass


def slot_ranks(slots):
    """{(kind, slot): rank} for a collection of (kind, slot) pairs: each
    kind's distinct slots renumbered onto 1..s, keeping their order."""
    ranks, kind, rank = {}, None, 0
    for key in sorted(set(slots)):
        rank = rank + 1 if key[0] == kind else 1
        kind = key[0]
        ranks[key] = rank
    return ranks


def _slot_map(letters, slots):
    """{letter: image} for the letters on a set of (kind, slot) pairs; the
    image renumbers each kind's slots onto 1..s, keeping their order."""
    ranks = slot_ranks(slots)
    return {l: (l[0], ranks[l[:2]], l[2]) for l in letters if l[:2] in ranks}


def _pair_lifts(image, top):
    """How many letter pairs with every slot at most top[kind, label]
    compress to the compressed pair image."""
    (k1, s1, a1), (k2, s2, a2) = image
    t1, t2 = top[k1, a1], top[k2, a2]
    if k1 != k2:
        return t1 * t2
    if s1 == s2:
        return min(t1, t2)
    low, high = (t1, t2) if s1 < s2 else (t2, t1)
    return sum(min(j - 1, low) for j in range(2, high + 1))


def _is_slot_local(rules):
    """Whether a rule table is slot-local (see the module docstring).

    Each rule is checked against its compressed image.  Closure fixes the
    letters as every (kind, slot, label) with slot at most the label's top
    slot, and every rule is a lift of its image, so the rules are all the
    lifts of the images exactly when their counts agree."""
    letters = {l for pat in rules for l in pat}
    if any(s != 1 and (k, s - 1, a) not in letters for k, s, a in letters):
        return False
    top = {}
    for k, s, a in letters:
        top[k, a] = max(s, top.get((k, a), 0))
    images, maps = set(), {}
    for pat, repl in rules.items():
        (k1, s1, _), (k2, s2, _) = pat
        down = maps.get((k1, s1, k2, s2))
        if down is None:
            down = maps[k1, s1, k2, s2] = _slot_map(letters, {(k1, s1), (k2, s2)})
        image = (down[pat[0]], down[pat[1]])
        try:
            image_repl = {(down[x], down[y]): c for (x, y), c in repl.coeffs.items()}
        except KeyError:  # a replacement letter is off the pattern's slots or letters
            return False
        if image not in rules or rules[image].coeffs != image_repl:
            return False
        images.add(image)
    return sum(_pair_lifts(image, top) for image in images) == len(rules)


class RewriteSystem:
    """Two-letter patterns with polynomial replacements, plus a memoised
    leftmost reduction to ordered-word normal form.

    _memo maps each word reduced to its normal form {word: Scalar}; _values,
    with the same lifetime, maps each coefficient value stored there to the
    one Scalar object that every memo entry of that value holds.  Every word
    is reduced and memoised as itself.  slot_local says whether the rules
    are slot-local (see the module docstring)."""

    def __init__(self, rules):
        """rules: {pattern: replacement}, checked here and fixed from then on:
        self.rules is a read-only view."""
        checked = {}
        for pattern, replacement in rules.items():
            pattern = tuple(pattern)
            if len(pattern) != 2:
                raise RuleValidationError("patterns are two-letter words")
            for w in replacement.coeffs:
                if len(w) != 2:
                    raise RuleValidationError("replacements must be degree-homogeneous")
                if not w < pattern:
                    raise RuleValidationError(
                        f"replacement word {w} not below pattern {pattern}"
                    )
            checked[pattern] = replacement
        self.rules = MappingProxyType(checked)
        self.slot_local = _is_slot_local(checked)
        self._memo = {}
        self._values = {ONE: ONE}
        self._cost = {}

    def is_normal_word(self, word):
        rules = self.rules
        return not any(
            (word[i], word[i + 1]) in rules for i in range(len(word) - 1)
        )

    def _reduce(self, word, left):
        """Memoise the normal form of word and of each word its reduction
        reaches, with the charge of each reducible one in _cost: 1 plus the
        charges of its expansion's words.  Raises FuelExhausted once a word
        completed here, and so word itself, costs more than left."""
        memo, cost, rules = self._memo, self._cost, self.rules
        values = self._values
        stack = [word]
        pending = {}  # word -> its expansion, while the expansion's words reduce
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            deps = pending.pop(top, None)
            if deps is None:
                redex = -1
                for i in range(len(top) - 1):
                    if (top[i], top[i + 1]) in rules:
                        redex = i
                        break
                if redex < 0:
                    memo[top] = {top: ONE}
                    stack.pop()
                    continue
                repl = rules[(top[redex], top[redex + 1])]
                pre, post = top[:redex], top[redex + 2:]
                # the replacement words are distinct, so no two deps coincide
                deps = {pre + w + post: c for w, c in repl.coeffs.items()}
                missing = [d for d in deps if d not in memo]
                if missing:
                    # they sit above top, so each is memoised when top is next
                    pending[top] = deps
                    stack.extend(missing)
                    continue
            charge = 1 + sum(cost.get(d, 0) for d in deps)
            if charge > left:
                raise FuelExhausted(None)
            out = {}
            for dep, c in deps.items():
                accumulate(out, memo[dep].items(), c)
            for w, c in out.items():
                out[w] = values.setdefault(c, c)
            memo[top] = out
            cost[top] = charge
            stack.pop()

    def normal_form(self, poly, fuel=None):
        """Deterministic normal form, linear in the input polynomial.

        Raises FuelExhausted exactly when the charges of poly's words add up
        to more than fuel (DEFAULT_FUEL when None), whatever the memo holds.
        The partial is the normal form of the terms reduced so far plus the
        remaining terms as they came, so it equals poly in the algebra.
        """
        left = DEFAULT_FUEL if fuel is None else fuel
        if left <= 0:
            raise ValueError("fuel must be positive")
        memo, cost = self._memo, self._cost
        terms = poly.terms()
        out = {}
        done = 0
        try:
            for word, coeff in terms:
                if word not in memo:
                    self._reduce(word, left)
                left -= cost.get(word, 0)
                if left < 0:
                    raise FuelExhausted(None)
                accumulate(out, memo[word].items(), coeff)
                done += 1
        except FuelExhausted:
            rest = NCPolynomial(dict(terms[done:]))
            raise FuelExhausted(NCPolynomial._raw(out) + rest) from None
        return NCPolynomial._raw(out)

    def word_normal_form(self, word):
        """normal_form(NCPolynomial.from_word(word)).coeffs, as a read-only
        view of the word's own memo entry: no copy, sort or wrapping.

        Raises FuelExhausted, with the word itself as its partial, as
        normal_form does, when the word costs more than DEFAULT_FUEL."""
        memo = self._memo
        if word not in memo:
            try:
                self._reduce(word, DEFAULT_FUEL)
            except FuelExhausted:
                raise FuelExhausted(NCPolynomial.from_word(word)) from None
        elif self._cost.get(word, 0) > DEFAULT_FUEL:
            raise FuelExhausted(NCPolynomial.from_word(word))
        return MappingProxyType(memo[word])


def check_degree(degree, slots):
    """Refuse a multidegree that is not `slots` non-negative parts."""
    if len(degree) != slots:
        raise ValueError("degree length must match the slot count")
    if any(d < 0 for d in degree):
        raise ValueError("degree parts must be non-negative")


def graded_words(slot_letters, degree, strict=False):
    """All ordered words of the given multidegree, lexicographically.

    slot_letters: per-slot letter lists (each already sorted); degree: the
    per-slot word lengths.  strict=True enumerates square-free strictly
    increasing picks (exterior-algebra normal form).
    """
    check_degree(degree, len(slot_letters))
    chooser = combinations if strict else combinations_with_replacement
    blocks = [sorted(chooser(block, d)) for block, d in zip(slot_letters, degree)]
    return [sum(parts, ()) for parts in product(*blocks)]
