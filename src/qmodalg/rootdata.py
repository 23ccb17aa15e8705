"""Static data of each quantum group in scope.

For each family (GL, B, C, D) and rank this module builds the natural module:
basis labels in the 1..dimV relabeling, weights in the epsilon basis, sparse
matrices of the Chevalley generators, the quantum dimension and the pairings
(2rho, lambda_a).  All defining relations are checked exactly by validate().

Conventions: basis positions a in [1, dimV].  For D and C, position a <= n is
v_a and position a > n is v_{a-2n-1} (so position 2n+1-t is v_{-t}).  For B,
position n+1 is v_0 and position 2n+2-t is v_{-t}.  GL positions are v_a.
The B family uses the rescaled short-root raising generator e_n = e'_n/(v+v^-1),
so [e_i, f_i] = (k_i - k_i^-1)/(q - q^-1) holds for every i.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .linop import LinearOperator
from .scalar import ONE, ZERO, accumulate, gauss_binom, q_pow

FAMILIES = ("GL", "B", "C", "D")


class _LieType(NamedTuple):
    family: str  # GL | B | C | D
    rank: int


class LieTypeSpec(_LieType):
    """A family and rank in scope; it hashes and compares as its field tuple."""

    __slots__ = ()

    def __new__(cls, family, rank):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if family == "D" and rank < 2:
            raise ValueError("D requires rank >= 2")
        if rank < 1:
            raise ValueError("rank must be positive")
        return super().__new__(cls, family, rank)

    def __str__(self):
        return f"{self.family}{self.rank}"


def _mat(entries):
    return {k: v for k, v in entries.items() if v}


class RepData(NamedTuple):
    spec: LieTypeSpec
    dim_v: int
    signed_labels: tuple  # position a (1-based) -> i, -i, or 0
    weights: tuple        # position a -> tuple of ints (epsilon coords)
    e_mats: dict          # chevalley index -> {(row, col): Scalar}
    f_mats: dict
    k_mats: dict          # B/C/D: k_i;  GL: K_b for b in 1..n
    simple_roots: tuple   # chevalley index -> epsilon-coordinate tuple
    rho2: tuple           # 2*rho in epsilon coordinates
    qdim: Scalar
    rho_pairings: tuple   # position a -> (2rho, lambda_a), an int

    @property
    def labels(self):
        return tuple(range(1, self.dim_v + 1))

    def position(self, signed):
        """Position in [1, dimV] of the signed label i, -i or 0."""
        return self.signed_labels.index(signed) + 1

    def chevalley_indices(self):
        n = self.spec.rank
        return range(1, n) if self.spec.family == "GL" else range(1, n + 1)

    def cartan_indices(self):
        # K_b for GL, k_i otherwise; these are the group-likes whose
        # (k - 1)-residuals characterise weight zero.
        return range(1, self.spec.rank + 1)

    def k_diag(self, b, label):
        """Eigenvalue of k_b (GL: K_b) on basis vector at a position label."""
        return self.k_mats[b].get((label, label), ONE)

    def coproduct_k(self, i):
        """Diagonal of the group-like paired with e_i in Delta(e_i)=e_i(x)k+1(x)e_i."""
        if self.spec.family != "GL":
            return {a: self.k_diag(i, a) for a in self.labels}
        return {
            a: self.k_diag(i, a) / self.k_diag(i + 1, a) for a in self.labels
        }

    def images(self, kind, i, dual=False):
        """Images of e_i, f_i or k_i (GL: K_i) on V, or on V* when dual is
        set, as {label: ((label, Scalar), ...)}; a label sent to 0 is absent.

        V* is acted on by pi(S(x))^T, with the antipode S(e) = -e k^-1,
        S(f) = -k f and S(k) = k^-1, k the group-like of coproduct_k(i).
        """
        if kind == "k":
            return {
                a: ((a, self.k_diag(i, a).inverse() if dual else self.k_diag(i, a)),)
                for a in self.labels
            }
        out = {}
        k = self.coproduct_k(i)
        for (r, c), v in (self.e_mats if kind == "e" else self.f_mats)[i].items():
            if not dual:
                out.setdefault(c, []).append((r, v))
            elif kind == "e":
                out.setdefault(r, []).append((c, -v * k[c].inverse()))
            else:
                out.setdefault(r, []).append((c, -k[r] * v))
        return {a: tuple(terms) for a, terms in out.items()}


def coproduct_image(out, word, c, kind, images, cok):
    """Add c * g(word) to out, in place, for g acting through its coproduct.

    images[l] lists the (letter, Scalar) terms of g on the letter l.  A
    group-like g (cok None: k, k_inv, sigma) acts on every letter.  For g = e
    or f, Delta(e) = e (x) k + 1 (x) e and Delta(f) = f (x) 1 + k^-1 (x) f
    iterate to "e at position t, k on every later letter" and "f at position
    t, k^-1 on every earlier one", with cok[l] the eigenvalue of k on l.  The
    factors are one running product per word, from the right for e and from
    the left for f, taken only as far as the outermost position g does not kill.
    """
    if cok is None:
        branches = [((), c)]
        for l in word:
            branches = [(w + (nl,), cc * v) for w, cc in branches for nl, v in images[l]]
        return accumulate(out, branches)
    live = [t for t, l in enumerate(word) if images.get(l)]
    if not live:
        return out
    scale = [c] * len(word)
    if kind == "e":
        for t in range(len(word) - 2, live[0] - 1, -1):
            scale[t] = scale[t + 1] * cok[word[t + 1]]
    else:
        for t in range(1, live[-1] + 1):
            scale[t] = scale[t - 1] * cok[word[t - 1]].inverse()
    for t in live:
        pre, post = word[:t], word[t + 1:]
        accumulate(out, ((pre + (nl,) + post, v) for nl, v in images[word[t]]), scale[t])
    return out


@lru_cache(maxsize=None)
def natural_rep(spec: LieTypeSpec) -> RepData:
    if spec.family == "GL":
        return _natural_gl(spec, spec.rank)
    return _natural_bcd(spec, spec.rank)


def _evec(n, entries):
    w = [0] * n
    for i, c in entries:
        w[i - 1] += c
    return tuple(w)


def positive_roots(spec):
    n = spec.rank
    roots = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            roots.append(_evec(n, [(i, 1), (j, -1)]))
            if spec.family in ("B", "C", "D"):
                roots.append(_evec(n, [(i, 1), (j, 1)]))
    if spec.family == "B":
        roots.extend(_evec(n, [(i, 1)]) for i in range(1, n + 1))
    if spec.family == "C":
        roots.extend(_evec(n, [(i, 2)]) for i in range(1, n + 1))
    return tuple(roots)


def _rho2(spec):
    n = spec.rank
    acc = [0] * n
    for r in positive_roots(spec):
        for i, c in enumerate(r):
            acc[i] += c
    return tuple(acc)


def _finish(spec, signed, weights, e, f, k, simple):
    rho2 = _rho2(spec)
    pair = tuple(sum(r * w for r, w in zip(rho2, wt)) for wt in weights)
    qdim = ZERO
    for p in pair:
        qdim = qdim + q_pow(-p)
    return RepData(
        spec=spec,
        dim_v=len(signed),
        signed_labels=tuple(signed),
        weights=tuple(weights),
        e_mats={i: _mat(m) for i, m in e.items()},
        f_mats={i: _mat(m) for i, m in f.items()},
        k_mats={i: _mat(m) for i, m in k.items()},
        simple_roots=tuple(simple),
        rho2=rho2,
        qdim=qdim,
        rho_pairings=pair,
    )


def _natural_gl(spec, n):
    signed = list(range(1, n + 1))
    weights = [_evec(n, [(a, 1)]) for a in signed]
    e = {a: {(a, a + 1): ONE} for a in range(1, n)}
    f = {a: {(a + 1, a): ONE} for a in range(1, n)}
    k = {}
    for b in range(1, n + 1):
        m = {(a, a): ONE for a in range(1, n + 1)}
        m[(b, b)] = q_pow(1)
        k[b] = m
    simple = [_evec(n, [(a, 1), (a + 1, -1)]) for a in range(1, n)]
    return _finish(spec, signed, weights, e, f, k, simple)


def _bcd_last(family, n):
    """What sets B, C and D apart: whether the zero label v_0 is present, e_n
    on signed labels, and alpha_n in epsilon coordinates."""
    return {
        "B": (True, {(n, 0): ONE, (0, -n): -ONE}, [(n, 1)]),
        "C": (False, {(n, -n): ONE}, [(n, 2)]),
        "D": (False, {(n - 1, -n): ONE, (n, -n + 1): -ONE}, [(n - 1, 1), (n, 1)]),
    }[family]


def _natural_bcd(spec, n):
    with_zero, e_last, alpha_last = _bcd_last(spec.family, n)
    signed = list(range(1, n + 1)) + ([0] if with_zero else []) + list(range(-n, 0))
    weights = [_evec(n, [(abs(s), 1 if s > 0 else -1)] if s else []) for s in signed]
    pos = {s: a for a, s in enumerate(signed, start=1)}
    # the type-A part e_i = E_{i,i+1} - E_{-i-1,-i}, then e_n; f_i = e_i^T
    blocks = [{(i, i + 1): ONE, (-i - 1, -i): -ONE} for i in range(1, n)] + [e_last]
    simple = [_evec(n, [(i, 1), (i + 1, -1)]) for i in range(1, n)]
    simple.append(_evec(n, alpha_last))
    e, f, k = {}, {}, {}
    for i, block in enumerate(blocks, start=1):
        e[i] = {(pos[r], pos[c]): v for (r, c), v in block.items()}
        f[i] = {(pos[c], pos[r]): v for (r, c), v in block.items()}
        k[i] = _k_from_weight(weights, simple[i - 1])
    return _finish(spec, signed, weights, e, f, k, simple)


def _k_from_weight(weights, alpha):
    """Diagonal k with eigenvalue q^{(alpha, wt)} on each basis vector."""
    m = {}
    for a, wt in enumerate(weights, start=1):
        exp = sum(x * y for x, y in zip(alpha, wt))
        m[(a, a)] = q_pow(exp)
    return m


# ---------------------------------------------------------------------------
# named quantities

def quantum_dimension(spec):
    """dim_q V = sum_a q^{-(2rho, lambda_a)}."""
    return natural_rep(spec).qdim


def rho_pairing(spec, label):
    """(2rho, lambda_label); label is a position in [1, dimV]."""
    rep = natural_rep(spec)
    if not 1 <= label <= rep.dim_v:
        raise ValueError(f"label {label} out of range")
    return rep.rho_pairings[label - 1]


def irrep_dim_gl(k, lam):
    """Dimension of the irreducible gl_k module with partition highest weight."""
    lam = tuple(lam)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or any(
        x < 0 for x in lam
    ):
        raise ValueError("not a partition")
    if len(lam) > k:
        raise ValueError("partition longer than the rank")
    lam = lam + (0,) * (k - len(lam))
    num = 1
    den = 1
    for i in range(k):
        for j in range(i + 1, k):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    d, r = divmod(num, den)
    assert r == 0
    return d


# ---------------------------------------------------------------------------
# validation

def _cartan_pairing(ai, aj):
    return sum(x * y for x, y in zip(ai, aj))


def _ef_denominator(spec, i):
    """The (k_i - k_i^-1) divisor in [e_i, f_i]; family-dependent."""
    if spec.family == "C" and i == spec.rank:
        return q_pow(2) - q_pow(-2)
    return q_pow(1) - q_pow(-1)


def validate_rep(rep):
    """Check all defining U_q relations as exact matrix identities on V."""
    spec = rep.spec
    labels = rep.labels
    problems = []

    def op(mat):
        return LinearOperator(labels, labels, mat)

    def inv_diag(k):
        return op({(a, a): col[a].inverse() for a, col in k.cols.items() if a in col})

    def check(name, mat):
        if not mat.is_zero():
            problems.append(name)

    e = {i: op(m) for i, m in rep.e_mats.items()}
    f = {i: op(m) for i, m in rep.f_mats.items()}
    k = {b: op(m) for b, m in rep.k_mats.items()}
    idx = list(rep.chevalley_indices())

    # weights: e_i raises by alpha_i, f_i lowers
    for i in idx:
        ai = rep.simple_roots[i - 1]
        for (r, c), val in rep.e_mats[i].items():
            wr, wc = rep.weights[r - 1], rep.weights[c - 1]
            if tuple(x - y for x, y in zip(wr, wc)) != ai:
                problems.append(f"e_{i} not raising by alpha_{i}")
        for (r, c), val in rep.f_mats[i].items():
            wr, wc = rep.weights[r - 1], rep.weights[c - 1]
            if tuple(y - x for x, y in zip(wr, wc)) != ai:
                problems.append(f"f_{i} not lowering by alpha_{i}")

    # [e_i, f_i] = (k - k^-1)/(q_i - q_i^-1), k from Delta(e_i); [e_i, f_j] = 0
    for i in idx:
        den = _ef_denominator(spec, i).inverse()
        rhs = op({(a, a): (v - v.inverse()) * den for a, v in rep.coproduct_k(i).items()})
        check(f"[e,f]_{i}", e[i] @ f[i] - f[i] @ e[i] - rhs)
        for j in idx:
            if i != j:
                check(f"[e_{i},f_{j}]", e[i] @ f[j] - f[j] @ e[i])

    # k e k^-1 scaling (k diagonal with weight eigenvalues)
    grading = rep.simple_roots if spec.family != "GL" else tuple(
        _evec(spec.rank, [(b, 1)]) for b in rep.cartan_indices()
    )
    for b in rep.cartan_indices():
        for j in idx:
            lhs = k[b] @ e[j] @ inv_diag(k[b])
            exp = _cartan_pairing(grading[b - 1], rep.simple_roots[j - 1])
            check(f"k_{b} e_{j} scaling", lhs - e[j].scale(q_pow(exp)))

    # Serre relations, with q_i = v^{(alpha_i, alpha_i)}
    for i in idx:
        for j in idx:
            if i == j:
                continue
            ai, aj = rep.simple_roots[i - 1], rep.simple_roots[j - 1]
            aii = _cartan_pairing(ai, ai)
            aij = 2 * _cartan_pairing(ai, aj)
            if aij % aii:
                problems.append(f"cartan pairing ({i},{j}) not integral")
                continue
            nrel = 1 - aij // aii
            step = aii  # (alpha_i, alpha_i) in v-units: q_i = v^step
            for mats, nm in ((e, "e"), (f, "f")):
                acc = LinearOperator.zero(labels)
                for s in range(nrel + 1):
                    coeff = gauss_binom(nrel, s, step)
                    if s % 2:
                        coeff = -coeff
                    term = LinearOperator.identity(labels)
                    for _ in range(nrel - s):
                        term = term @ mats[i]
                    term = term @ mats[j]
                    for _ in range(s):
                        term = term @ mats[i]
                    acc = acc + term.scale(coeff)
                check(f"serre {nm} ({i},{j})", acc)
    return problems


# ---------------------------------------------------------------------------
# the sigma extension for orthogonal types

class SigmaValidationError(RuntimeError):
    pass


@lru_cache(maxsize=None)
def sigma_candidate(spec):
    """The extra generator of U_q(o_N) acting on V; involutive by construction.

    For D it swaps v_n and v_{-n} (fixing everything else) scaled by (-1)^n,
    its sign on the highest weight vector; for B it is the global (-1)^n.
    The candidate is validated against sigma e_{n-1} sigma^-1 = e_n (etc.)
    for D and against centrality for B.
    """
    if spec.family not in ("B", "D"):
        raise ValueError("sigma exists for the orthogonal families only")
    rep = natural_rep(spec)
    n = spec.rank
    s = -ONE if n % 2 else ONE
    labels = rep.labels
    if spec.family == "B":
        op = LinearOperator(labels, labels, {(a, a): s for a in labels})
        mapping = {i: i for i in rep.chevalley_indices()}
    else:
        pn, pm = rep.position(n), rep.position(-n)
        entries = {}
        for a in labels:
            if a == pn:
                entries[(pm, a)] = s
            elif a == pm:
                entries[(pn, a)] = s
            else:
                entries[(a, a)] = s
        op = LinearOperator(labels, labels, entries)
        mapping = {i: i for i in rep.chevalley_indices()}
        mapping[n - 1], mapping[n] = n, n - 1

    if op @ op != LinearOperator.identity(labels):
        raise SigmaValidationError("sigma is not an involution")
    inv = op  # involution
    for mats in (rep.e_mats, rep.f_mats, rep.k_mats):
        for i in rep.chevalley_indices():
            lhs = op @ LinearOperator(labels, labels, mats[i]) @ inv
            rhs = LinearOperator(labels, labels, mats[mapping[i]])
            if lhs != rhs:
                raise SigmaValidationError(
                    f"sigma conjugation failed on generator index {i}"
                )
    return op
