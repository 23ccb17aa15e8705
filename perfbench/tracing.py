"""In-memory spans around qmodalg's public functions, installed from outside.

`install` rebinds each traced function everywhere the package holds it: in
the module that defines it, in every module that took it with
`from .x import y`, and in class attributes that alias it (`Scalar.__radd__`,
`Scalar.__rmul__`, `LinearOperator.__matmul__`).  Scalar arithmetic runs
about 10^5 times a run, too often for one span per call, so each operation is
counted and timed on the span that encloses it.

A span is `[name, start, end, parent, nested, extra]`: `parent` is the index
of the enclosing span (-1 at the top), `nested` says an enclosing span has the
same name (a recursive call, or an lru_cache hit inside a miss), and `extra`
is the per-call count the metric table asks for (nnz, terms, useful adds).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# Per-layer metrics: (name, unit, better).  BENCHMARK.json lists the same.
PER_LAYER = [
    ("scalar.add.calls", "count", "lower"),
    ("scalar.add.s", "s", "lower"),
    ("scalar.mul.calls", "count", "lower"),
    ("scalar.mul.s", "s", "lower"),
    ("scalar.div.calls", "count", "lower"),
    ("scalar.div.s", "s", "lower"),
    ("scalar.result_terms_mean", "terms", "lower"),
    ("scalar.rational_frac", "frac", "lower"),
    ("linop.compose.calls", "count", "lower"),
    ("linop.compose.s", "s", "lower"),
    ("linop.compose.self_s", "s", "lower"),
    ("linop.compose.nnz_out", "count", "lower"),
    ("linop.apply.calls", "count", "lower"),
    ("linop.apply.s", "s", "lower"),
    ("linalg.nullspace.calls", "count", "lower"),
    ("linalg.nullspace.s", "s", "lower"),
    ("linalg.nullspace.self_s", "s", "lower"),
    ("linalg.nullspace.nnz_in", "count", "lower"),
    ("linalg.echelon_add.calls", "count", "lower"),
    ("linalg.echelon_add.s", "s", "lower"),
    ("linalg.echelon_add.useful_frac", "frac", "higher"),
    ("linalg.expresser.calls", "count", "lower"),
    ("linalg.expresser.s", "s", "lower"),
    ("ncpoly.normal_form.calls", "count", "lower"),
    ("ncpoly.normal_form.s", "s", "lower"),
    ("ncpoly.normal_form.self_s", "s", "lower"),
    ("ncpoly.normal_form.terms_out", "count", "lower"),
    ("algebras.build.calls", "count", "lower"),
    ("algebras.build.s", "s", "lower"),
    ("rootdata.natural_rep.s", "s", "lower"),
    ("braiding.projectors.s", "s", "lower"),
    ("braiding.rcheck.s", "s", "lower"),
    ("braiding.verify_braid_and_skein.s", "s", "lower"),
    ("braiding.rcheck_cabled.calls", "count", "lower"),
    ("braiding.rcheck_cabled.s", "s", "lower"),
    ("algebras.tensor_oracle_product.calls", "count", "lower"),
    ("algebras.tensor_oracle_product.s", "s", "lower"),
    ("algebras.tensor_oracle_product.self_s", "s", "lower"),
    ("uqaction.act.calls", "count", "lower"),
    ("uqaction.act.s", "s", "lower"),
    ("uqaction.act.self_s", "s", "lower"),
    ("uqaction.invariant_basis.calls", "count", "lower"),
    ("uqaction.invariant_basis.s", "s", "lower"),
    ("uqaction.invariant_basis.self_s", "s", "lower"),
    ("invariants.verify_relation_suite.s", "s", "lower"),
    ("invariants.psi_monomial_span.s", "s", "lower"),
    ("invariants.fft_verify.s", "s", "lower"),
    ("cli.suite_braiding.s", "s", "lower"),
    ("cli.suite_dims.s", "s", "lower"),
    ("cli.suite_oracle.s", "s", "lower"),
    ("cli.suite_oracle_diff.s", "s", "lower"),
    ("cli.suite_invariance.s", "s", "lower"),
    ("cli.suite_relations.s", "s", "lower"),
    ("cli.suite_fft.s", "s", "lower"),
    ("cli.suite_skew.s", "s", "lower"),
    ("cli.suite_classical.s", "s", "lower"),
    ("cli.assemble_emit.s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


def _nnz_out(args, result):
    return len(result.entries)


def _nnz_in(args, result):
    return sum(len(row) for row in args[0])


def _terms_out(args, result):
    return len(result.coeffs)


def _useful(args, result):
    return 1 if result else 0


# (module, attribute, span name, (extra metric suffix, extra function) or None)
SPANS = [
    ("linop", "LinearOperator.compose", "linop.compose", ("nnz_out", _nnz_out)),
    ("linop", "LinearOperator.apply", "linop.apply", None),
    ("linalg", "nullspace", "linalg.nullspace", ("nnz_in", _nnz_in)),
    ("linalg", "EchelonBasis.add", "linalg.echelon_add", ("useful", _useful)),
    ("linalg", "Expresser.__init__", "linalg.expresser", None),
    ("linalg", "Expresser.express", "linalg.expresser", None),
    ("ncpoly", "RewriteSystem.normal_form", "ncpoly.normal_form", ("terms_out", _terms_out)),
    ("algebras", "build_sq", "algebras.build", None),
    ("algebras", "build_am", "algebras.build", None),
    ("algebras", "build_akl", "algebras.build", None),
    ("algebras", "build_exterior", "algebras.build", None),
    ("algebras", "tensor_oracle_product", "algebras.tensor_oracle_product", None),
    ("rootdata", "natural_rep", "rootdata.natural_rep", None),
    ("braiding", "projectors", "braiding.projectors", None),
    ("braiding", "rcheck", "braiding.rcheck", None),
    ("braiding", "verify_braid_and_skein", "braiding.verify_braid_and_skein", None),
    ("braiding", "rcheck_cabled", "braiding.rcheck_cabled", None),
    ("uqaction", "act", "uqaction.act", None),
    ("uqaction", "invariant_basis", "uqaction.invariant_basis", None),
    ("invariants", "verify_relation_suite", "invariants.verify_relation_suite", None),
    ("invariants", "psi_monomial_span", "invariants.psi_monomial_span", None),
    ("invariants", "fft_verify", "invariants.fft_verify", None),
    ("cli", "suite_braiding", "cli.suite_braiding", None),
    ("cli", "suite_dims", "cli.suite_dims", None),
    ("cli", "suite_oracle", "cli.suite_oracle", None),
    ("cli", "suite_oracle_diff", "cli.suite_oracle_diff", None),
    ("cli", "suite_invariance", "cli.suite_invariance", None),
    ("cli", "suite_relations", "cli.suite_relations", None),
    ("cli", "suite_fft", "cli.suite_fft", None),
    ("cli", "suite_skew", "cli.suite_skew", None),
    ("cli", "suite_classical", "cli.suite_classical", None),
    ("cli", "assemble", "cli.assemble_emit", None),
    ("cli", "emit", "cli.assemble_emit", None),
]

# Class attributes that call a traced method by name rather than alias it;
# they are bound to the traced method itself, so each call is one span.
CALL_ALIASES = {("linop", "LinearOperator.compose"): ("__matmul__",)}

ADD, MUL, DIV = 0, 1, 2
SCALAR_OPS = [("__add__", ADD), ("__mul__", MUL), ("__truediv__", DIV), ("inverse", DIV)]
_SCALAR_NAMES = ("add", "mul", "div")


class Tracer:
    """Spans of one worker process, kept in memory until `write`."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self._open = {}
        # span index -> [add n, add s, mul n, mul s, div n, div s, terms, rational]
        self.scalar = {}

    def open(self, name):
        idx = len(self.spans)
        depth = self._open.get(name, 0)
        self._open[name] = depth + 1
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else -1,
                           depth > 0, None])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        span = self.spans[idx]
        span[2] = perf_counter()
        self.stack.pop()
        self._open[span[0]] -= 1
        return span

    def scalar_op(self, kind, seconds, result):
        key = self.stack[-1] if self.stack else -1
        c = self.scalar.get(key)
        if c is None:
            c = self.scalar[key] = [0, 0.0, 0, 0.0, 0, 0.0, 0, 0]
        c[2 * kind] += 1
        c[2 * kind + 1] += seconds
        nden = len(result.den)
        c[6] += len(result.num) + nden
        if nden > 1:
            c[7] += 1

    def metrics(self):
        """Every per-layer metric but the trace overhead, which needs an untraced run."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, nested, extra in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        acc = {}

        def add(key, value):
            acc[key] = acc.get(key, 0) + value

        for i, (name, start, end, parent, nested, extra) in enumerate(self.spans):
            add(name + ".calls", 1)
            add(name + ".self_s", end - start - covered[i])
            if not nested:
                add(name + ".s", end - start)
            if extra is not None:
                add(name + "." + extra[0], extra[1])
        totals = [sum(c[k] for c in self.scalar.values()) for k in range(8)]
        for k, op in enumerate(_SCALAR_NAMES):
            acc[f"scalar.{op}.calls"] = totals[2 * k]
            acc[f"scalar.{op}.s"] = totals[2 * k + 1]
        results = totals[0] + totals[2] + totals[4]
        acc["scalar.result_terms_mean"] = totals[6] / results if results else 0.0
        acc["scalar.rational_frac"] = totals[7] / results if results else 0.0
        adds = acc.get("linalg.echelon_add.calls", 0)
        acc["linalg.echelon_add.useful_frac"] = (
            acc.get("linalg.echelon_add.useful", 0) / adds if adds else 0.0
        )
        return {name: acc.get(name, 0) for name, _, _ in PER_LAYER
                if name != "trace.overhead_frac"}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["name", "start", "end", "parent", "nested", "extra"],
                    "spans": self.spans,
                    "scalar_fields": ["add_calls", "add_s", "mul_calls", "mul_s",
                                      "div_calls", "div_s", "result_terms", "rational"],
                    "scalar_by_span": {str(k): v for k, v in self.scalar.items()},
                },
                fh,
            )


def _span_wrapper(tracer, name, fn, extra):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = tracer.close(idx)
        if extra is not None:
            span[5] = (extra[0], extra[1](args, result))
        return result

    return traced


def _scalar_wrapper(tracer, kind, fn):
    record = tracer.scalar_op

    @functools.wraps(fn)
    def traced(*args):
        t = perf_counter()
        result = fn(*args)
        seconds = perf_counter() - t
        if result is not NotImplemented:
            record(kind, seconds, result)
        return result

    return traced


def _resolve(module, attr):
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, owner.__dict__[name]


def install(tracer):
    """Wrap every traced function of qmodalg; returns a function that undoes it."""
    def module(name):
        return importlib.import_module("qmodalg." + name)

    replacements = {}  # id(original) -> (original, wrapped)
    aliases = []  # (class, attribute, wrapped)
    for modname, attr, span, extra in SPANS:
        owner, orig = _resolve(module(modname), attr)
        wrapped = _span_wrapper(tracer, span, orig, extra)
        replacements[id(orig)] = (orig, wrapped)
        for alias in CALL_ALIASES.get((modname, attr), ()):
            aliases.append((owner, alias, wrapped))
    scalar_cls = module("scalar").Scalar
    for attr, kind in SCALAR_OPS:
        orig = scalar_cls.__dict__[attr]
        replacements[id(orig)] = (orig, _scalar_wrapper(tracer, kind, orig))

    undo = []
    namespaces = []
    for modname, mod in list(sys.modules.items()):
        if modname == "qmodalg" or modname.startswith("qmodalg."):
            namespaces.append(mod)
            namespaces.extend(v for v in vars(mod).values()
                              if isinstance(v, type) and v.__module__ == modname)
    for ns in namespaces:
        for name, value in list(vars(ns).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((ns, name, value))
                setattr(ns, name, hit[1])
    for cls, name, wrapped in aliases:
        undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapped)

    def uninstall():
        for ns, name, value in reversed(undo):
            setattr(ns, name, value)

    return uninstall
