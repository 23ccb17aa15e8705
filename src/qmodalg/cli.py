"""Batch entry point: build algebras, run verification suites, emit reports.

Exit codes: 0 all checks pass, 1 at least one failed, 2 usage error, 3
internal error (any other exception, ValueError included).  A usage error is
a value argparse cannot parse, with argparse's message (every subparser
parses every option, so also for one the subcommand does not take); an option
refused by the one gate, _refuse_unread; a run whose report would hold no
entry, so it checks nothing; an --output path that cannot be written; or
exhausted fuel: a normal form charged more than the fixed budget
ncpoly.DEFAULT_FUEL = 10^6 expansions, each word being charged what a
memo-free leftmost reduction of it makes.
Reports are deterministic: entries are emitted in a fixed order and JSON is
serialised with sorted keys, so identical configurations give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb

from .algebras import (
    _compositions,
    build_akl,
    build_am,
    build_exterior,
    presentation_manifest,
    printed_rule_diffs,
    tensor_oracle_product,
)
from .braiding import projectors, verify_braid_and_skein
from .invariants import (
    fft_verify,
    psi,
    skew_duality_check,
    verify_relation_suite,
)
from .linop import LinearOperator
from .ncpoly import FuelExhausted, NCPolynomial
from .report import check, suite
from .rootdata import LieTypeSpec, natural_rep, quantum_dimension
from .scalar import ZERO, PoleAtOneError
from .uqaction import invariant_pair_vector, is_invariant

GRID_SPECS = [
    ("D", 2),
    ("D", 3),
    ("B", 1),
    ("B", 2),
    ("C", 2),
    ("C", 3),
    ("GL", 2),
    ("GL", 3),
]

# the specs with pairing generators whose A_m algebras every grid suite runs on
PAIRED_SPECS = [("D", 2), ("B", 1), ("C", 2)]


# ---------------------------------------------------------------------------
# suite runners (shared between subcommands and the full grid)

def _classical_ranks(spec):
    """The dimensions of the classical summands of V (x) V, N = dim V:
    O_N loses a trivial summand from the symmetric square, Sp_N from the
    exterior square, and GL_N has no trivial summand."""
    n = natural_rep(spec).dim_v
    sym, anti = n * (n + 1) // 2, n * (n - 1) // 2
    if spec.family == "GL":
        return {"sym": sym, "anti": anti}
    if spec.family == "C":
        return {"sym": sym, "anti": anti - 1, "triv": 1}
    return {"sym": sym - 1, "anti": anti, "triv": 1}


def _trace(op):
    """The sum of op's diagonal entries, a Scalar."""
    return sum((col[c] for c, col in op.cols.items() if c in col), ZERO)


def suite_braiding(spec):
    report = verify_braid_and_skein(spec)
    entries = report["entries"]
    projs = projectors(spec)
    names = sorted(projs)
    ident = None
    idempotent = True
    for name in names:
        p = projs[name]
        ident = p if ident is None else ident + p
        ok = (p @ p) == p
        idempotent = idempotent and ok
        entries.append(check("projector idempotence", f"{spec} {name}", ok))
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            ok = (projs[a] @ projs[b]).is_zero()
            entries.append(check("projector orthogonality", f"{spec} {a}|{b}", ok))
    ok = ident == LinearOperator.identity(ident.domain)
    entries.append(check("projectors resolve the identity", str(spec), ok))
    # in characteristic 0 the trace of an idempotent is its rank, so a trace
    # counts as a rank only once every projector has passed idempotence
    ranks = {name: _trace(p) for name, p in projs.items()}
    instance = f"{spec}: " + ", ".join(f"{k}={v}" for k, v in sorted(ranks.items()))
    ok = idempotent and ranks == _classical_ranks(spec)
    entries.append(check("projector ranks", instance, ok))
    if str(spec) == "D2":
        ok = idempotent and (ranks.get("sym"), ranks.get("anti"), ranks.get("triv")) == (9, 6, 1)
        entries.append(check("expected projector ranks (9, 6, 1)", str(spec), ok))
    return suite(report["name"], entries)


def _bidegrees(handle, max_total):
    """The Akl multidegrees grouped by bidegree (dx, dy), dx + dy <= max_total."""
    k, l = handle.params["k"], handle.params["l"]
    for dx in range(max_total + 1):
        for dy in range(max_total + 1 - dx):
            yield dx, dy, [cx + cy for cx in _compositions(dx, k) for cy in _compositions(dy, l)]


def suite_dims(handle, max_degree, label):
    entries = []
    if handle.kind == "Exterior":
        m, n = handle.params["m"], handle.params["n"]
        total = 0
        for k in range(m * n + 1):
            total += sum(
                handle.graded_dimension(d) for d in handle.degree_compositions(k)
            )
        entry = check("exterior total dimension 2^(mn)", f"{label}: {total}", total == 2 ** (m * n))
        return suite(f"dims {label}", [entry])
    if handle.kind == "Akl":
        n, k, l = handle.params["n"], handle.params["k"], handle.params["l"]
        for dx, dy, degrees in _bidegrees(handle, max_degree):
            got = sum(handle.graded_dimension(d) for d in degrees)
            want = comb(k * n + dx - 1, dx) * comb(l * n + dy - 1, dy)
            instance = f"{label} ({dx},{dy}): {got} vs {want}"
            entries.append(check("flat bidegree dimension", instance, got == want))
        return suite(f"dims {label}", entries)
    m = handle.params["m"]
    dim_v = natural_rep(handle.spec).dim_v
    for k in range(max_degree + 1):
        got = sum(handle.graded_dimension(d) for d in handle.degree_compositions(k))
        want = comb(m * dim_v + k - 1, k)
        entries.append(
            check("flat total-degree dimension", f"{label} k={k}: {got} vs {want}", got == want)
        )
    return suite(f"dims {label}", entries)


def suite_oracle(spec, m, max_total_degree):
    """Presented product vs the braided tensor-route product, exhaustively."""
    handle = build_am(spec, m)
    entries = []
    # words by ascending total degree; upto[k] counts those of degree <= k
    words, upto = [], []
    for k in range(max_total_degree + 1):
        for d in handle.degree_compositions(k):
            words.extend(handle.graded_words(d))
        upto.append(len(words))
    mismatches = 0
    checked = 0
    for w1 in words:
        for w2 in words[:upto[max_total_degree - len(w1)]]:
            p1, p2 = NCPolynomial.from_word(w1), NCPolynomial.from_word(w2)
            presented = handle.rs.word_normal_form(w1 + w2)
            oracle = tensor_oracle_product(spec, m, p1, p2)
            checked += 1
            if presented != oracle.coeffs:
                mismatches += 1
                residual = NCPolynomial(dict(presented)) - oracle
                entries.append(
                    check(
                        "presented product differs from the tensor route",
                        f"{handle.render(p1)} * {handle.render(p2)}",
                        False,
                        residual=handle.render(residual),
                    )
                )
    instance = f"{spec} m={m}: {checked} pairs, {mismatches} mismatches"
    entries.append(check("tensor-route agreement", instance, mismatches == 0))
    return suite(f"oracle {spec} m={m}", entries)


def suite_oracle_diff(spec, m):
    """Printed presentation variants audited against the shipped rules."""
    entries = printed_rule_diffs(spec, m)
    disagreements = sum(1 for e in entries if not e["agrees"])
    instance = f"{spec} m={m}: {disagreements} of {len(entries)} rules differ"
    entries.append(check("printed-variant audit summary", instance, True))
    return suite(f"oracle-diff {spec}", entries)


def suite_invariance(handle, include_sigma):
    spec = handle.spec
    pair_vector = [] if spec.family == "GL" else invariant_pair_vector(spec)[1]["entries"]
    entries = [
        check(
            "pairing generator invariance",
            f"{spec} Psi[{i},{j}]",
            is_invariant(handle, psi(handle, (i, j)), include_sigma=include_sigma).verdict,
        )
        for i, j in handle.pairings
    ]
    return suite(f"invariance {spec}", entries + pair_vector)


def suite_relations(handle):
    return verify_relation_suite(handle)


def suite_fft(handle, max_total, include_sigma):
    if handle.kind == "Akl":
        degrees = [d for _, _, ds in _bidegrees(handle, max_total) for d in ds]
    else:
        degrees = [d for k in range(max_total + 1) for d in handle.degree_compositions(k)]
    entries = [fft_verify(handle, d, include_sigma) for d in degrees]
    return suite(f"fft {handle.kind} {handle.spec} {handle.params}", entries)


def suite_skew(m, n):
    return skew_duality_check(m, n)


def suite_classical():
    """Classical-limit degeneration of every rule of every grid algebra."""
    entries = []
    for fam, r in GRID_SPECS:
        spec = LieTypeSpec(fam, r)
        try:
            qd = quantum_dimension(spec).classical_limit()
        except PoleAtOneError:
            instance, ok = f"{spec}: pole at v = 1", False
        else:
            instance, ok = f"{spec}: {qd}", qd == natural_rep(spec).dim_v
        entries.append(check("classical limit of the quantum dimension", instance, ok))
    handles = [(f"A2({fam}{r})", build_am(LieTypeSpec(fam, r), 2)) for fam, r in PAIRED_SPECS]
    handles.append(("M22", build_am(LieTypeSpec("GL", 2), 2)))
    handles.append(("A22(GL2)", build_akl(2, 2, 2)))
    handles.append(("Ext(2,2)", build_exterior(2, 2)))
    handles.append(("Ext(2,3)", build_exterior(2, 3)))
    for label, handle in handles:
        bad = 0
        for pat, repl in handle.rs.rules.items():
            if not _classical_rule_ok(handle, pat, repl):
                bad += 1
        entries.append(
            check(
                "rules degenerate to the (anti)commutative algebra at v=1",
                f"{label}: {len(handle.rs.rules)} rules, {bad} defects",
                bad == 0,
            )
        )
    return suite("classical-limit", entries)


def _classical_rule_ok(handle, pattern, replacement):
    """Whether pattern - replacement vanishes at v = 1 in the commutative
    algebra, or for an exterior algebra in the anticommutative one."""
    try:
        terms = [(pattern, 1)] + [(w, -c.classical_limit()) for w, c in replacement.coeffs.items()]
    except PoleAtOneError:
        return False
    acc = {}
    for word, coeff in terms:
        if handle.kind == "Exterior":
            if len(set(word)) != len(word):
                continue  # a repeated letter squares to zero
            if sum(a > b for i, a in enumerate(word) for b in word[i + 1:]) % 2:
                coeff = -coeff
        key = tuple(sorted(word))
        acc[key] = acc.get(key, 0) + coeff
    return not any(acc.values())


def run_suites(command, args, label):
    """The suites of a run of command on its filled-in options (label names a
    dims suite); a rebound cli.suite_* is the one that runs."""
    if command == "grid":
        return grid_report(args.sigma)
    if command == "braiding":
        return [suite_braiding(_spec_from(args))]
    if command == "skew-duality":
        return [suite_skew(args.m or 2, args.n or 2)]
    if command == "oracle-diff":
        spec = _spec_from(args)
        return [suite_oracle(spec, args.copies, args.max_degree), suite_oracle_diff(spec, args.copies)]
    handle = _handle_from(args)
    if command == "dims":
        return [suite_dims(handle, args.max_degree, label)]
    if command == "relations":
        return [suite_relations(handle)]
    if command == "invariance":
        return [suite_invariance(handle, args.sigma)]
    return [suite_fft(handle, args.max_degree, args.sigma)]


def grid_plan():
    """The grid's subcommand runs in report order, as (command, given options,
    dims label) rows; the grid report is their suites, then suite_classical()."""
    am = [{"family": fam, "rank": r, "copies": 2} for fam, r in PAIRED_SPECS]
    akl = {"family": "GL", "rank": 2, "k": 2, "l": 2}
    rows = [("braiding", {"family": fam, "rank": r}, None) for fam, r in GRID_SPECS]
    rows += [("dims", {**o, "copies": m}, f"A{m}({o['family']}{o['rank']})")
             for o in am for m in (1, 2)]
    rows += [("dims", {"family": "GL", "rank": 2, "copies": 2}, "M22"), ("dims", akl, "A22(GL2)")]
    rows += [("dims", {"exterior": True, "m": 2, "n": n}, f"Ext(2,{n})") for n in (2, 3)]
    rows += [("oracle-diff", {**o, "max-degree": 3}, None) for o in am]
    for command, copies in (("invariance", 2), ("relations", 4), ("fft", 2)):
        rows += [(command, {**o, "copies": copies}, None) for o in am] + [(command, akl, None)]
    return rows + [("skew-duality", {"m": 2, "n": n}, None) for n in (2, 3)]


def grid_report(include_sigma):
    """The plan's suites; include_sigma gives --sigma to each run that reads it."""
    suites = []
    for command, given, label in grid_plan():
        if include_sigma and "sigma" in reads(command, _refuse_unread(_filled(command, given))):
            given = {**given, "sigma": True}
        suites += run_suites(command, _filled(command, given), label)
    return suites + [suite_classical()]


# ---------------------------------------------------------------------------
# report assembly

def assemble(config, suites, verbose=False):
    total = passed = 0
    out_suites = []
    for s in suites:
        entries = []
        for e in s["entries"]:
            total += 1
            if e.get("pass"):
                passed += 1
            e = dict(e)
            if not verbose and e.get("pass") and "residual" in e:
                del e["residual"]
            entries.append(e)
        out_suites.append({"name": s["name"], "entries": entries})
    return {
        "config": config,
        "suites": out_suites,
        "summary": {
            "total": total,
            "passed": passed,
            "failed": total - passed,
            "all_pass": passed == total,
        },
    }


def emit(report, fmt, path):
    """Write a report (or, as json, any manifest) to path, or to stdout."""
    if fmt == "json":
        text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    else:
        lines = []
        for s in report["suites"]:
            lines.append(f"== {s['name']}")
            for e in s["entries"]:
                mark = "ok  " if e.get("pass") else "FAIL"
                extra = ""
                if "invariant_dim" in e:
                    extra = f" inv={e['invariant_dim']} span={e['span_dim']}"
                if "sigma_filtered_dim" in e:
                    extra += f" sigma={e['sigma_filtered_dim']}"
                if e.get("contained") is False:
                    extra += " contained=False"
                if "agrees" in e:
                    extra += f" agrees={e['agrees']}"
                lines.append(f"  {mark} {e['citation']} | {e['instance']}{extra}")
                if "residual" in e:  # a passing entry keeps one only under --verbose
                    lines.append(f"       residual: {e['residual']}")
        s = report["summary"]
        lines.append(
            f"== summary: {s['passed']}/{s['total']} passed"
            + ("" if s["all_pass"] else f", {s['failed']} FAILED")
        )
        text = "\n".join(lines) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit2(f"cannot write --output {path}: {exc.strerror or exc}")


def _spec_from(args):
    try:
        return LieTypeSpec(args.family, args.rank)
    except ValueError as exc:
        raise SystemExit2(str(exc))


class SystemExit2(Exception):
    pass


# every option: flag -> argparse keywords; its default is also what a
# report's config block records for a subcommand that does not take it
OPTIONS = {
    "family": dict(choices=["GL", "B", "C", "D"]),
    "rank": dict(type=int, default=2),
    "copies": dict(type=int, default=2, help="tensor copies m"),
    "k": dict(type=int),
    "l": dict(type=int),
    "m": dict(type=int),
    "n": dict(type=int),
    "max-degree": dict(type=int, default=4),
    "strict": dict(action="store_true",
                   help="use the transcribed printed presentation variants"),
    "sigma": dict(action="store_true",
                  help="include the extension generator in invariance checks"),
    "exterior": dict(action="store_true"),
    "format": dict(choices=["json", "text"], default="json"),
    "output": dict(),
    "verbose": dict(action="store_true"),
}

# the smallest value of each integer option
LEAST = {"copies": 1, "k": 1, "l": 1, "m": 1, "n": 1, "max-degree": 0}

# the algebra kinds and the options each reads; the printed variants exist
# for B, C and D, and only the orthogonal families have sigma
_AM = ("family", "rank", "copies", "max-degree")
KIND_OPTIONS = {
    "A_m over B/D": _AM + ("strict", "sigma"),
    "A_m over C": _AM + ("strict",),
    "A_m over GL": _AM,
    "A_{k,l}": ("family", "rank", "k", "l", "max-degree"),
    "exterior": ("exterior", "m", "n"),
}

_ALGEBRA = ("family", "rank", "copies", "k", "l", "strict")
_REPORT = ("format", "output", "verbose")
_FAMILIES = ("A_m over B/D", "A_m over C", "A_m over GL")  # --family alone selects these
_PAIRED = ("A_m over B/D", "A_m over C", "A_{k,l}")  # the kinds with pairing generators

# subcommand -> (the options it takes, the algebra kinds it has a suite
# for); a run reads the options its subcommand and its kind share, and a
# subcommand with no kinds builds no algebra from the options
COMMANDS = {
    "dims": (_ALGEBRA + ("m", "n", "exterior", "max-degree") + _REPORT, tuple(KIND_OPTIONS)),
    "braiding": (("family", "rank") + _REPORT, _FAMILIES),
    "relations": (_ALGEBRA + _REPORT, _PAIRED),
    "invariance": (("family", "rank", "copies", "k", "l", "sigma") + _REPORT, _PAIRED),
    "fft": (_ALGEBRA + ("max-degree", "sigma") + _REPORT, _PAIRED),
    "skew-duality": (("m", "n") + _REPORT, ()),
    "dump-presentation": (_ALGEBRA + ("m", "n", "exterior", "output"), tuple(KIND_OPTIONS)),
    "oracle-diff": (("family", "rank", "copies", "max-degree") + _REPORT,
                    ("A_m over B/D", "A_m over C")),
    "grid": (("sigma",) + _REPORT, ()),
}


def reads(command, kind):
    """The options a run of command on an algebra of this kind reads."""
    options, _ = COMMANDS[command]
    if kind is None:
        return set(options)
    return set(options).intersection(KIND_OPTIONS[kind] + _REPORT)


def _kind(args):
    """The algebra kind the given options select, before anything is built."""
    if args.exterior:
        return "exterior"
    if not args.family:
        raise SystemExit2("--family is required for this command")
    if args.family == "GL" and {"k", "l"}.intersection(args.given):
        return "A_{k,l}"
    return {"B": "A_m over B/D", "D": "A_m over B/D", "C": "A_m over C",
            "GL": "A_m over GL"}[args.family]


def _filled(command, given):
    """A run's options: each given one (flag -> value), every other at its
    default; given keeps the given flags in their order."""
    args = argparse.Namespace(command=command, given=tuple(given))
    for flag, kw in OPTIONS.items():
        default = kw.get("default", False if kw.get("action") == "store_true" else None)
        setattr(args, flag.replace("-", "_"), given.get(flag, default))
    return args


def build_parser():
    p = argparse.ArgumentParser(
        prog="qmodalg",
        description="exact verification engine for braided module algebras",
    )
    p.add_argument("--grid", action="store_true", help="run the full verification grid")
    sub = p.add_subparsers(dest="command")
    for name, (flags, _) in COMMANDS.items():
        sp = sub.add_parser(name)
        # every option, so abbreviations resolve alike in every subcommand;
        # _refuse_unread refuses those name does not take, kept out of --help.
        # No parser default, so run() can tell "--rank 2" from no --rank
        for flag, kw in OPTIONS.items():
            hidden = {} if flag in flags else {"help": argparse.SUPPRESS}
            sp.add_argument("--" + flag, **{**kw, "default": argparse.SUPPRESS, **hidden})
    return p


def _refuse_unread(args):
    """The run's algebra kind, once it has refused, in this order, a given
    option the subcommand does not take (the first in command-line order), a
    kind with no suite, options the kind does not read, a value below LEAST."""
    options, kinds = COMMANDS[args.command]
    foreign = [flag for flag in args.given if flag not in options]
    if foreign:
        raise SystemExit2(f"--{foreign[0]} is not supported by {args.command}")
    kind = _kind(args) if kinds else None
    if kinds and kind not in kinds:
        raise SystemExit2(f"{args.command} has no suite for {kind}; it runs on {', '.join(kinds)}")
    refused = sorted(set(args.given) - reads(args.command, kind))
    if refused:
        flags = ", ".join("--" + flag for flag in refused)
        raise SystemExit2(f"{args.command} on {kind} does not read {flags}")
    for flag, least in LEAST.items():
        value = getattr(args, flag.replace("-", "_"))
        if value is not None and value < least:
            raise SystemExit2(f"--{flag} must be at least {least}, got {value}")
    return kind


def _handle_from(args):
    kind = _kind(args)
    if kind == "exterior":
        return build_exterior(args.m or 2, args.n or 2)
    spec = _spec_from(args)
    if kind == "A_{k,l}":
        if args.k is None or args.l is None:
            raise SystemExit2("--k and --l must be given together")
        return build_akl(spec.rank, args.k, args.l)
    return build_am(spec, args.copies, args.strict)


def run(argv):
    parser = build_parser()
    if "--grid" in argv and not argv[0:1] == ["grid"]:
        argv = ["grid"] + [a for a in argv if a != "--grid"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.command:
        parser.print_help()
        return 2
    # vars(args) holds the given options in command-line order
    given = {key.replace("_", "-"): value for key, value in vars(args).items()}
    args = _filled(args.command, {f: v for f, v in given.items() if f in OPTIONS})
    config = {
        "command": args.command,
        **{
            key: getattr(args, key)
            for key in ("family", "rank", "copies", "k", "l", "m", "n", "max_degree",
                        "strict", "sigma")
        },
    }
    try:
        _refuse_unread(args)
        if args.command == "dump-presentation":
            emit(presentation_manifest(_handle_from(args)), "json", args.output)
            return 0
        report = assemble(config, run_suites(args.command, args, "requested"), args.verbose)
        if not report["summary"]["total"]:
            raise SystemExit2(f"{args.command} has no entry to check on this algebra")
        emit(report, args.format, args.output)
    except SystemExit2 as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except FuelExhausted:
        sys.stderr.write("config error: straightening fuel exhausted\n")
        return 2
    except Exception as exc:
        # a crash is not a failed check: keep exit code 1 for real failures
        import traceback  # only on this path: it would add to every cold start

        traceback.print_exc()
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3
    return 0 if report["summary"]["all_pass"] else 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
