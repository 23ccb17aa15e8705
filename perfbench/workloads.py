"""The benchmark's workloads: seeded inputs, the timed verdict, and its checks.

Each workload has a `setup(seed, workdir)` that imports what it needs, builds
its algebra handles and draws its inputs, and a `verdict(state)` that runs the
program on them and checks every output against a pinned answer.  `verdict`
returns `(checks, failed)`.  `CHECKS[name]` is the number of checks one worker
attempts, which a crashed worker counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import random

# --- grid: the product, `qmodalg grid`, whose report is pinned byte for byte.
GRID_ENTRIES = 942
GRID_SHA256 = "bb2ff07e001f26293536319f513356378366e546b19e3ef4bf9cb526841ca7b1"


def check_grid_report(exit_code, data):
    """(checks, failed) for a grid run: any byte off the pinned report fails
    every entry, since none of them is then the verdict the product gives."""
    ok = exit_code == 0 and data is not None and hashlib.sha256(data).hexdigest() == GRID_SHA256
    return GRID_ENTRIES, 0 if ok else GRID_ENTRIES


def grid_setup(seed, workdir):
    import qmodalg.cli

    return qmodalg.cli, workdir / "grid-report.json"


def grid_verdict(state):
    cli, path = state
    if path.exists():
        path.unlink()
    code = cli.run(["grid", "--output", str(path)])
    data = path.read_bytes() if path.exists() else None
    return check_grid_report(code, data)


# --- invariants: the three steps fft_verify runs, at multidegree (4,4).
INVARIANT_DEGREE = (4, 4)
INVARIANT_DIM = 3
# sha256 of the compact JSON of [terms_json(p) for p in invariant_basis(...)]
# at the seed commit; a reduced echelon basis is unique.
BASIS_SHA256 = {
    "D2": "685b57841ab41ea42aa5011b0350dfd2449eca803bbe2038503e11dc7a871e11",
    "B1": "1f23ff70963b111ecf18e479cf21f72f0d621cb9f981c3a2aa219c24ba27b509",
}


def basis_sha256(basis):
    from qmodalg.ncpoly import terms_json

    text = json.dumps([terms_json(p) for p in basis], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_fft(label, basis, span_dim, contained):
    """True when the invariant space and the pairing-monomial span agree and
    the basis has the pinned bytes."""
    return (
        len(basis) == INVARIANT_DIM
        and span_dim == INVARIANT_DIM
        and contained
        and basis_sha256(basis) == BASIS_SHA256[label]
    )


def invariants_setup(seed, workdir):
    from qmodalg.algebras import build_am
    from qmodalg.rootdata import LieTypeSpec

    return [build_am(LieTypeSpec(family, rank), 2) for family, rank in (("D", 2), ("B", 1))]


def invariants_verdict(handles):
    from qmodalg.invariants import psi_monomial_span
    from qmodalg.uqaction import invariant_basis, span_contained_in

    failed = 0
    for handle in handles:
        basis = invariant_basis(handle, INVARIANT_DEGREE)
        span_dim, vectors = psi_monomial_span(handle, INVARIANT_DEGREE)
        contained = span_contained_in(vectors, basis)
        failed += not check_fft(str(handle.spec), basis, span_dim, contained)
    return len(handles), failed


# --- straighten: relation suites at m=6, and the tensor-route oracle at 3x3.
RELATION_ENTRIES = {"D2": 750, "B1": 630, "C2": 480}
SUITE_COPIES = 6
ORACLE_COPIES = 3
WORD_DEGREE = 3
PAIRS_PER_CABLE = 4


def draw_pairs(seed, labels):
    """Ordered-word pairs of degree 3 x 3 in A_3, stratified by cable.

    In stratum (k, l) the left word ends in a slot-3 block of k letters and
    the right word starts with a slot-2 block of l letters, so the tensor
    route braids exactly one k-by-l cable.  Every seed therefore builds the
    same nine cables, up to 3x3; the seed only picks the letters.
    """
    from qmodalg.ncpoly import x_

    rng = random.Random(seed)

    def block(slot, size):
        return tuple(x_(slot, a) for a in sorted(rng.choice(labels) for _ in range(size)))

    pairs = []
    for k in range(1, WORD_DEGREE + 1):
        for l in range(1, WORD_DEGREE + 1):
            for _ in range(PAIRS_PER_CABLE):
                left = block(1, WORD_DEGREE - k) + block(3, k)
                right = block(2, l) + block(3, WORD_DEGREE - l)
                pairs.append((left, right))
    return pairs


def check_relations(label, entries):
    """Failed entries of one relation suite; a suite of the wrong size fails whole."""
    expected = RELATION_ENTRIES[label]
    if len(entries) != expected:
        return expected
    return sum(1 for e in entries if not e["pass"])


def straighten_setup(seed, workdir):
    from qmodalg.algebras import build_am
    from qmodalg.ncpoly import NCPolynomial
    from qmodalg.rootdata import LieTypeSpec, natural_rep

    suites = [build_am(LieTypeSpec(f, r), SUITE_COPIES) for f, r in (("D", 2), ("B", 1), ("C", 2))]
    spec = LieTypeSpec("D", 2)
    oracle_handle = build_am(spec, ORACLE_COPIES)
    pairs = [
        (NCPolynomial.from_word(x), NCPolynomial.from_word(y))
        for x, y in draw_pairs(seed, natural_rep(spec).labels)
    ]
    return suites, oracle_handle, pairs


def straighten_verdict(state):
    from qmodalg.algebras import tensor_oracle_product
    from qmodalg.invariants import verify_relation_suite

    suites, handle, pairs = state
    checks = failed = 0
    for suite_handle in suites:
        label = str(suite_handle.spec)
        checks += RELATION_ENTRIES[label]
        failed += check_relations(label, verify_relation_suite(suite_handle)["entries"])
    for x, y in pairs:
        checks += 1
        presented = handle.multiply(x, y)
        failed += presented != tensor_oracle_product(handle.spec, ORACLE_COPIES, x, y)
    return checks, failed


WORKLOADS = {
    "grid": (grid_setup, grid_verdict),
    "invariants": (invariants_setup, invariants_verdict),
    "straighten": (straighten_setup, straighten_verdict),
}

CHECKS = {
    "grid": GRID_ENTRIES,
    "invariants": len(BASIS_SHA256),
    "straighten": sum(RELATION_ENTRIES.values()) + WORD_DEGREE ** 2 * PAIRS_PER_CABLE,
}
