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
    def zero():
        return NCPolynomial()

    @staticmethod
    def one():
        return NCPolynomial({(): ONE})

    @staticmethod
    def from_word(word, coeff=ONE):
        return NCPolynomial({tuple(word): coeff})

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
        return NCPolynomial(accumulate(dict(self.coeffs), other.coeffs.items()))

    def __sub__(self, other):
        return self + other.scale(-ONE)

    def __neg__(self):
        return self.scale(-ONE)

    def scale(self, c):
        if not c:
            return NCPolynomial()
        return NCPolynomial({w: c * x for w, x in self.coeffs.items()})

    def concat(self, other):
        """Free (tensor-algebra) product, no straightening."""
        out = {}
        for w1, c1 in self.coeffs.items():
            accumulate(out, ((w1 + w2, c2) for w2, c2 in other.coeffs.items()), c1)
        return NCPolynomial(out)

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


class RewriteSystem:
    """Two-letter patterns with polynomial replacements, plus a memoised
    leftmost reduction to ordered-word normal form.

    _memo maps each word met to its normal form {word: Scalar}; _values,
    with the same lifetime, maps each coefficient value stored there to the
    one Scalar object that every memo entry of that value holds."""

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
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
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
            raise FuelExhausted(NCPolynomial(out) + rest) from None
        return NCPolynomial(out)


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
