"""The quantum group action on presented algebras and exact invariant solving.

Generators act on normal forms through the coproduct Leibniz rules
    e(ab) = e(a) k(b) + a e(b),   f(ab) = f(a) b + k^-1(a) f(b),
    k(ab) = k(a) k(b),
written once in rootdata.coproduct_image, with the letter-level action read
off the natural representation (RepData.images; the dual action for Y
letters).  Invariant subspaces of graded components are exact nullspaces of
the stacked e_i and f_i actions on the weight-zero words.  This is the one
U_q invariant basis: the sigma-fixed, O_N, invariants are cut out of it by
sigma - 1 (invariants.fft_verify), not solved for again.
"""

from __future__ import annotations

from typing import NamedTuple

from .braiding import invariant_vector_t, tensor_generator_ops
from .linalg import EchelonBasis, nullspace
from .ncpoly import NCPolynomial, terms_json
from .report import check, suite
from .rootdata import coproduct_image, natural_rep, rho_pairing
from .scalar import ONE, accumulate, q_pow


def act(handle, g, p):
    """Normal form of g(p) for a generator reference g."""
    images, cok = handle.generator_action(g)
    out = {}
    for word, c in p.coeffs.items():
        coproduct_image(out, word, c, g.kind, images, cok)
    return handle.normal_form(NCPolynomial(out))


class InvariantReport(NamedTuple):
    residuals: list  # (generator name, NCPolynomial)
    verdict: bool

    def failing(self):
        return [name for name, r in self.residuals if r]


def is_invariant(handle, p, include_sigma=False):
    """Residuals e_i(p), f_i(p), (k_i - 1)(p); verdict true iff all vanish."""
    residuals = []
    for g in handle.invariance_generators(include_sigma=include_sigma):
        img = act(handle, g, p)
        if g.kind in ("k", "sigma"):
            img = img - p
        residuals.append((str(g), img))
    return InvariantReport(
        residuals=residuals,
        verdict=all(r.is_zero() for _, r in residuals),
    )


def invariant_basis(handle, degree):
    """Exact basis of the invariants inside the multidegree component.

    Words of nonzero weight cannot contribute (the k-conditions), so the
    nullspace is stacked over the weight-zero block only.
    """
    zero = handle.weight(())
    wz = [w for w in handle.graded_words(degree) if handle.weight(w) == zero]
    if not wz:
        return []
    gens = [
        g
        for g in handle.invariance_generators()
        if g.kind != "k"
    ]
    rows = {}  # (generator tag, target word) -> {source word: Scalar}
    for w in wz:
        p = NCPolynomial.from_word(w)
        for g in gens:
            img = act(handle, g, p)
            for tw, c in img.coeffs.items():
                rows.setdefault((str(g), tw), {})[w] = c
    basis = nullspace([rows[k] for k in sorted(rows)], wz)
    return [NCPolynomial(v) for v in basis]


def invariant_pair_vector(spec):
    """The invariant tensor T in V (x) V with its verification report.

    Checks (i) invariance under the two-fold coproduct action, (ii) the
    constancy over i of c_i c_{-i}^{-1} q^{-(2rho, eps_i)}, and (iii) for the
    odd orthogonal family (zero weight present) that the constant is 1.
    """
    if spec.family not in ("B", "C", "D"):
        raise ValueError("the invariant pair vector exists for B, C, D")
    rep = natural_rep(spec)
    tvec = invariant_vector_t(spec)
    ops = tensor_generator_ops(rep, 2)
    entries = []
    for (kind, i), op in sorted(ops.items()):
        img = op.apply(tvec)
        if kind == "k":
            img = accumulate(img, tvec.items(), -ONE)
        entries.append(check("invariance of T", f"{kind}_{i}", not img))
    constants = []
    for i in range(1, spec.rank + 1):
        pi, mi = rep.position(i), rep.position(-i)
        ci = tvec[(pi, mi)]
        cmi = tvec[(mi, pi)]
        constants.append(ci / cmi * q_pow(-rho_pairing(spec, pi)))
    const_ok = all(c == constants[0] for c in constants)
    instance = ", ".join(str(c) for c in constants)
    entries.append(check("normalisation constant independent of i", instance, const_ok))
    if spec.family == "B":
        entries.append(
            check("zero weight present forces constant 1", str(constants[0]), constants[0] == ONE)
        )
    return tvec, suite(f"invariance {spec}", entries)


def span_contained_in(vectors, basis_polys):
    """Exact containment of span(vectors) in span(basis_polys)."""
    eb = EchelonBasis()
    for b in basis_polys:
        eb.add(b.coeffs)
    return all(eb.contains(v.coeffs) for v in vectors)


def invariant_basis_json(handle, degree):
    """The invariant basis of a graded component as term-list JSON."""
    return [
        terms_json(p, handle.letter_str)
        for p in invariant_basis(handle, degree)
    ]
