"""The braiding R-check on V (x) V, its projectors, and cabled powers.

The operator is assembled from the spectral form
R-check = q P_s - q^-1 P_a (+ kappa P_0 for B, C, D) where the submodules are
built as exact U_q-closures of seed vectors and validated to be a direct-sum
decomposition of V (x) V; its inverse has the inverted eigenvalues.  The
projectors have rational entries; R-check sums their Laurent numerators over
one common denominator d (linop.over_one_denominator) and divides by d once
per distinct entry.  The coproduct action on V^(x)r is
rootdata.coproduct_image on tensor words; on V (x) V it is built once per
spec (pair_generator_ops).

Labels of tensor-power operators are tuples of V-positions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .linalg import EchelonBasis, Expresser
from .linop import LinearOperator, lift_block_op, over_one_denominator, tensor_words
from .report import check, suite
from .rootdata import LieTypeSpec, coproduct_image, natural_rep
from .scalar import ONE, accumulate, q_pow


class SpectralConsistencyError(RuntimeError):
    """The listed spanning vectors failed to be a basis of V (x) V."""


class _Pairing(NamedTuple):
    """The q-exponents of one family's invariant pairing.

    With N = dim V and s' = N + 1 - s the label paired with s, the pairing
    T = bar-psi_n + sign psi_n (+ v_0 (x) v_0 when N is odd) is made of
        psi_t = sum_{s<=t} q^(s-n+psi) v_s' (x) v_s,
        bar-psi_t = sum_{s<=t} q^(n-s+bar) v_s (x) v_s',
    where sign is -1 for a skew pairing, and R-check acts on T by
    kappa = sign q^(kappa-2n).
    """

    psi: int
    bar: int
    skew: bool
    kappa: int


_PAIRINGS = {
    "D": _Pairing(0, 0, False, 1),
    "B": _Pairing(-1, 0, False, 0),
    "C": _Pairing(-1, 1, True, -1),
}


def pairing(spec):
    """The family's invariant pairing row; GL pairs V with its dual instead."""
    if spec.family not in _PAIRINGS:
        raise ValueError("GL has no invariant pairing on V (x) V")
    return _PAIRINGS[spec.family]


def pairing_terms(spec, lo, hi, barred):
    """The terms of psi (or bar-psi) for lo <= s <= hi, keyed by label pairs."""
    row = pairing(spec)
    n = spec.rank
    pairsum = natural_rep(spec).dim_v + 1
    if barred:
        return {(s, pairsum - s): q_pow(n - s + row.bar) for s in range(lo, hi + 1)}
    return {(pairsum - s, s): q_pow(s - n + row.psi) for s in range(lo, hi + 1)}


def pair_eigenvalue_p0(spec):
    """Eigenvalue of R-check on the one-dimensional summand L_0."""
    row = pairing(spec)
    kappa = q_pow(row.kappa - 2 * spec.rank)
    return -kappa if row.skew else kappa


def tensor_generator_ops(rep, r):
    """Coproduct action on V^(x)r of every e_i, f_i and k/K, as operators.

    The column of a tensor word is its rootdata.coproduct_image, the word's
    letters being V-labels.
    """
    words = tensor_words(rep.labels, r)
    gens = [(kind, i, rep.coproduct_k(i)) for i in rep.chevalley_indices() for kind in "ef"]
    gens += [("k", b, None) for b in rep.cartan_indices()]
    ops = {}
    for kind, i, cok in gens:
        images = rep.images(kind, i)
        entries = {}
        for w in words:
            for row, v in coproduct_image({}, w, ONE, kind, images, cok).items():
                entries[(row, w)] = v
        ops[(kind, i)] = LinearOperator(words, words, entries)
    return ops


@lru_cache(maxsize=None)
def pair_generator_ops(spec):
    """tensor_generator_ops on V (x) V for spec's natural representation,
    built once per spec; callers share the dict and must not mutate it."""
    return tensor_generator_ops(natural_rep(spec), 2)


def invariant_vector_t(spec):
    """The distinguished invariant vector T in V (x) V, in position labels."""
    n = spec.rank
    sign = -ONE if pairing(spec).skew else ONE
    vec = {w: sign * c for w, c in pairing_terms(spec, 1, n, False).items()}
    vec.update(pairing_terms(spec, 1, n, True))
    if natural_rep(spec).dim_v % 2:
        vec[(n + 1, n + 1)] = ONE  # v_0 (x) v_0, v_0 at position n + 1
    return vec


def _closure(seeds, ops):
    """Exact U_q-submodule closure of the seed vectors inside V^(x)r."""
    eb = EchelonBasis()
    queue = []
    for s in seeds:
        if eb.add(s):
            queue.append(s)
    basis = list(queue)
    while queue:
        v = queue.pop()
        for op in ops:
            w = op.apply(v)
            if w and eb.add(w):
                basis.append(w)
                queue.append(w)
    return basis


def _wedge(a, b):
    """v_a (x) v_b - q^-1 v_b (x) v_a in position labels."""
    return {(a, b): ONE, (b, a): -q_pow(-1)}


class SpectralData(NamedTuple):
    spec: LieTypeSpec
    summands: tuple  # (name, eigenvalue, tuple of basis vectors)

    def summand(self, name):
        for nm, ev, basis in self.summands:
            if nm == name:
                return ev, basis
        raise KeyError(name)

    def ranks(self):
        return tuple(len(basis) for _, _, basis in self.summands)


@lru_cache(maxsize=None)
def spectral_data(spec):
    """Distinguished submodule bases of V (x) V with their R-check eigenvalues."""
    rep = natural_rep(spec)
    n = spec.rank
    ops = list(pair_generator_ops(spec).values())

    sym_seed = {(1, 1): ONE}
    l_s = _closure([sym_seed], ops)

    anti_seeds = []
    if spec.family == "GL":
        if n >= 2:
            anti_seeds.append(_wedge(1, 2))
    else:
        if not (spec.family == "C" and n == 1):
            anti_seeds.append(_wedge(1, 2))
        if n >= 2:
            anti_seeds.append(_wedge(1, rep.position(-2)))
    l_a = _closure(anti_seeds, ops) if anti_seeds else []

    summands = [
        ("sym", q_pow(1), tuple(l_s)),
        ("anti", -q_pow(-1), tuple(l_a)),
    ]
    if spec.family != "GL":
        summands.append(("triv", pair_eigenvalue_p0(spec), (invariant_vector_t(spec),)))

    total = sum(len(b) for _, _, b in summands)
    if total != rep.dim_v ** 2:
        raise SpectralConsistencyError(
            f"summand sizes {[len(b) for _, _, b in summands]} do not fill "
            f"dim {rep.dim_v ** 2}"
        )
    eb = EchelonBasis()
    for _, _, basis in summands:
        for v in basis:
            if not eb.add(v):
                raise SpectralConsistencyError("summand vectors are dependent")
    return SpectralData(spec=spec, summands=tuple(summands))


@lru_cache(maxsize=None)
def projectors(spec):
    """Idempotent projections onto the summands, keyed by summand name."""
    sd = spectral_data(spec)
    columns = [v for _, _, basis in sd.summands for v in basis]
    owner = [name for name, _, basis in sd.summands for _ in basis]
    expr = Expresser(columns)
    words = tensor_words(natural_rep(spec).labels, 2)
    mats = {name: {} for name, _, _ in sd.summands}
    for w in words:
        coords = expr.express({w: ONE})
        if coords is None:
            raise SpectralConsistencyError("decomposition failed")
        imgs = {name: {} for name in mats}
        for j, c in coords.items():
            accumulate(imgs[owner[j]], columns[j].items(), c)
        for name, img in imgs.items():
            for key, val in img.items():
                mats[name][(key, w)] = val
    return {name: LinearOperator(words, words, mat) for name, mat in mats.items()}


@lru_cache(maxsize=None)
def rcheck(spec, inverse=False):
    """The braiding P R on V (x) V: the sum of ev P over the summands, or of
    ev^-1 P for its inverse.

    The projectors are read over one denominator, P = M / d
    (over_one_denominator).  Every eigenvalue is +-q^k, so the sum of ev M
    is Laurent and takes no gcd; each distinct entry of it is then divided
    by d once.
    """
    d, nums = over_one_denominator(projectors(spec))
    total = None
    for name, ev, _ in spectral_data(spec).summands:
        term = nums[name].scale(ev.inverse() if inverse else ev)
        total = term if total is None else total + term
    inv_d, quotients = d.inverse(), {}
    cols = {}
    for c, col in total.cols.items():
        out = cols[c] = {}
        for r, x in col.items():
            y = quotients.get(x)
            if y is None:
                y = quotients[x] = x * inv_d
            out[r] = y
    return LinearOperator._raw(total.domain, total.codomain, cols)


@lru_cache(maxsize=None)
def rcheck_cabled(spec, k, l):
    """The block braiding P R on V^(x)k (x) V^(x)l.

    The left block of k strands passes over the right block of l strands;
    for (1,1) this is rcheck itself.  Every larger cable is one compose of
    two cached smaller ones: for l > 1, the block passes over l - 1 strands
    and then over the last,
        cab(k, l) = lift(cab(k, 1)) o lift(cab(k, l - 1)),
    and for l = 1 its rightmost strand crosses first,
        cab(k, 1) = lift(cab(k - 1, 1)) o R_k.
    Each lift is a placement (lift_block_op), which has no table: compose
    reads the two smaller cables by index arithmetic, with the digit bound
    K = the longest column of the right factor's cable.
    tests/test_braiding.py::test_cabling_coherence proves both splits, and
    tests/test_linop.py::test_rcheck_cabled_matches_reference compares the
    result with the chain of kl lifted R-checks.
    """
    if k < 1 or l < 1:
        raise ValueError("cable sizes must be positive")
    if (k, l) == (1, 1):
        return rcheck(spec)
    labels = natural_rep(spec).labels
    r = k + l
    if l > 1:
        over_last = lift_block_op(rcheck_cabled(spec, k, 1), labels, r, l, k + 1)
        return over_last @ lift_block_op(rcheck_cabled(spec, k, l - 1), labels, r, 1, r - 1)
    rest = lift_block_op(rcheck_cabled(spec, k - 1, 1), labels, r, 1, k)
    return rest @ lift_block_op(rcheck(spec), labels, r, k, 2)


def _commutes(rc, op):
    """Whether rc o op == op o rc, for operators on one label set.

    An op whose every column holds only its own row, as the k/K generators'
    do, is diagonal: rc commutes with it exactly when op[r, r] == op[c, c]
    for every nonzero rc[r, c], an absent entry being 0, so no compose is
    needed.  Any other op is composed on both sides."""
    diag = {c: col[c] for c, col in op.cols.items() if len(col) == 1 and c in col}
    if len(diag) == len(op.cols):
        return all(diag.get(r) == diag.get(c) for c, col in rc.cols.items() for r in col)
    return (rc @ op) == (op @ rc)


def verify_braid_and_skein(spec):
    """Braid identity on V^(x)3 and the minimal (skein) polynomial of R-check."""
    rep = natural_rep(spec)
    rc = rcheck(spec)
    entries = []

    r1 = lift_block_op(rc, rep.labels, 3, 1, 2)
    r2 = lift_block_op(rc, rep.labels, 3, 2, 2)
    r21 = r2 @ r1
    braid_ok = (r1 @ r21) == (r21 @ r2)
    entries.append(check("YB braid relation on V^3", str(spec), braid_ok))

    words = rc.domain
    ident = LinearOperator.identity(words)
    factors = [rc - ident.scale(q_pow(1)), rc + ident.scale(q_pow(-1))]
    if spec.family != "GL":
        factors.append(rc - ident.scale(pair_eigenvalue_p0(spec)))
    acc = factors[0]
    for f in factors[1:]:
        acc = acc @ f
    instance = "(R-q)(R+q^-1)" + ("(R-kappa)" if spec.family != "GL" else "")
    entries.append(check("skein minimal polynomial", instance, acc.is_zero()))

    # R-check commutes with the coproduct action of every generator
    comm_ok = all(_commutes(rc, op) for op in pair_generator_ops(spec).values())
    entries.append(check("R-check intertwines the coproduct action", str(spec), comm_ok))

    if spec.family != "GL":
        # T^(2,1) has the same coefficient table as T^(1,2) once V_2 (x) V_1
        # is identified with V (x) V, so the relation is an eigenvalue statement.
        tvec = invariant_vector_t(spec)
        kappa = pair_eigenvalue_p0(spec)
        diff = accumulate(rc.apply(tvec), tvec.items(), -kappa)
        entries.append(check("R-check T^(1,2) = kappa T^(2,1)", str(spec), not diff))

    return suite(f"braiding {spec}", entries)
