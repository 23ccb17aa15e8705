"""Tests of the benchmark itself: wrapping, checks, inputs and metric names.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

The traced-worker tests run each workload once (about a minute in all).
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import speedometer
import tracing
import workloads
from conftest import ROOT

# The per-layer metrics each workload was chosen to move; each must be
# nonzero in that workload's trace.
MAIN_MOVERS = {
    "grid": [
        "scalar.add.calls", "scalar.add.s", "scalar.rational_frac",
        "linop.compose.calls", "linop.compose.s", "linop.compose.self_s",
        "linop.compose.nnz_out", "linop.apply.calls", "linop.apply.s",
        "braiding.projectors.s", "braiding.rcheck.s", "braiding.verify_braid_and_skein.s",
        "invariants.fft_verify.s",
        "cli.suite_braiding.s", "cli.suite_dims.s", "cli.suite_oracle.s",
        "cli.suite_oracle_diff.s", "cli.suite_invariance.s", "cli.suite_relations.s",
        "cli.suite_fft.s", "cli.suite_skew.s", "cli.suite_classical.s",
        "cli.assemble_emit.s",
    ],
    "invariants": [
        "scalar.add.calls", "scalar.add.s", "scalar.result_terms_mean",
        "linalg.nullspace.calls", "linalg.nullspace.s", "linalg.nullspace.self_s",
        "linalg.nullspace.nnz_in", "linalg.echelon_add.calls", "linalg.echelon_add.s",
        "linalg.echelon_add.useful_frac", "linalg.expresser.calls", "linalg.expresser.s",
        "uqaction.act.calls", "uqaction.act.s", "uqaction.act.self_s",
        "uqaction.invariant_basis.calls", "uqaction.invariant_basis.s",
        "uqaction.invariant_basis.self_s", "invariants.psi_monomial_span.s",
        "algebras.build.calls", "algebras.build.s", "rootdata.natural_rep.s",
    ],
    "straighten": [
        "scalar.mul.calls", "scalar.mul.s",
        "linop.compose.calls", "linop.compose.s", "linop.compose.self_s",
        "linop.compose.nnz_out",
        "ncpoly.normal_form.calls", "ncpoly.normal_form.s", "ncpoly.normal_form.self_s",
        "ncpoly.normal_form.terms_out",
        "braiding.rcheck_cabled.calls", "braiding.rcheck_cabled.s",
        "algebras.tensor_oracle_product.calls", "algebras.tensor_oracle_product.s",
        "algebras.tensor_oracle_product.self_s", "invariants.verify_relation_suite.s",
        "algebras.build.calls", "algebras.build.s", "rootdata.natural_rep.s",
    ],
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced worker per workload: {workload: (result, workdir)}."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = {}
    for name in workloads.WORKLOADS:
        workdir = tmp_path_factory.mktemp(name)
        out[name] = (run.run_worker(name, 1, workdir, env, 170, trace=True), workdir)
    return out


@pytest.mark.parametrize("name", sorted(MAIN_MOVERS))
def test_main_movers_are_nonzero_in_the_trace(traced, name):
    result, workdir = traced[name]
    assert result is not None
    assert result["failed"] == 0
    assert result["checks"] == workloads.CHECKS[name]
    assert result["setup_probes"] and result["verdict_probes"]
    zero = [m for m in MAIN_MOVERS[name] if not result["layers"][m] > 0]
    assert zero == []
    spans = json.loads((workdir / f"spans-{name}.json").read_text())
    assert {s[0] for s in spans["spans"]} >= {"setup", "verdict"}


def test_tampered_grid_report_is_rejected(traced):
    data = (traced["grid"][1] / "grid-report.json").read_bytes()
    assert workloads.check_grid_report(0, data) == (942, 0)
    assert workloads.check_grid_report(1, data) == (942, 942)
    tampered = data.replace(b'"pass": true', b'"pass": false', 1)
    assert tampered != data
    assert workloads.check_grid_report(0, tampered) == (942, 942)
    assert workloads.check_grid_report(0, None) == (942, 942)


def test_wrong_relation_entries_fail():
    entries = [{"pass": True}] * 750
    assert workloads.check_relations("D2", entries) == 0
    assert workloads.check_relations("D2", entries[:-1] + [{"pass": False}]) == 1
    assert workloads.check_relations("D2", entries[:-1]) == 750


def test_install_rebinds_imported_names_and_class_aliases():
    import qmodalg.algebras as algebras
    import qmodalg.cli as cli
    import qmodalg.invariants as invariants
    import qmodalg.linalg as linalg
    import qmodalg.uqaction as uqaction
    from qmodalg.linop import LinearOperator
    from qmodalg.scalar import Scalar, q_pow

    originals = {
        "nullspace": linalg.nullspace,
        "act": uqaction.act,
        "invariant_basis": uqaction.invariant_basis,
        "tensor_oracle_product": algebras.tensor_oracle_product,
        "add": Scalar.__dict__["__add__"],
        "mul": Scalar.__dict__["__mul__"],
        "compose": LinearOperator.__dict__["compose"],
        "matmul": LinearOperator.__dict__["__matmul__"],
    }
    tracer = tracing.Tracer("test")
    uninstall = tracing.install(tracer)
    try:
        assert uqaction.nullspace is linalg.nullspace
        assert uqaction.nullspace.__wrapped__ is originals["nullspace"]
        assert invariants.act is uqaction.act is not originals["act"]
        assert invariants.invariant_basis is uqaction.invariant_basis
        assert uqaction.invariant_basis is not originals["invariant_basis"]
        assert cli.tensor_oracle_product is algebras.tensor_oracle_product
        assert cli.tensor_oracle_product.__wrapped__ is originals["tensor_oracle_product"]
        assert Scalar.__radd__ is Scalar.__add__ is not originals["add"]
        assert Scalar.__rmul__ is Scalar.__mul__ is not originals["mul"]
        assert LinearOperator.__matmul__ is LinearOperator.compose is not originals["compose"]

        span = tracer.open("verdict")
        x = 1 + q_pow(1)          # __radd__
        y = 2 * x                 # __rmul__
        ident = LinearOperator.identity([1, 2]).scale(y)
        ident @ ident             # __matmul__
        tracer.close(span)
        layers = tracer.metrics()
        assert layers["linop.compose.calls"] == 1
        assert layers["linop.compose.nnz_out"] == 2
        assert layers["scalar.add.calls"] == 1
        assert layers["scalar.mul.calls"] >= 3
        # scalar operations are counters on the enclosing span, not spans
        assert [s[0] for s in tracer.spans] == ["verdict", "linop.compose"]
    finally:
        uninstall()
    assert linalg.nullspace is uqaction.nullspace is originals["nullspace"]
    assert invariants.act is originals["act"]
    assert Scalar.__radd__ is Scalar.__add__ is originals["add"]
    assert LinearOperator.__dict__["__matmul__"] is originals["matmul"]


def test_self_time_and_nested_spans():
    tracer = tracing.Tracer("test")
    outer = tracer.open("uqaction.invariant_basis")
    inner = tracer.open("uqaction.invariant_basis")
    act = tracer.open("uqaction.act")
    tracer.close(act)
    tracer.close(inner)
    tracer.close(outer)
    a, b, c = (s[2] - s[1] for s in tracer.spans)
    layers = tracer.metrics()
    assert layers["uqaction.invariant_basis.calls"] == 2
    assert layers["uqaction.invariant_basis.s"] == a
    assert layers["uqaction.invariant_basis.self_s"] == pytest.approx(a - c)
    assert layers["uqaction.act.self_s"] == c


def test_speed_correction():
    full = speedometer.FULL_SPEED_PROBE_S
    # One second of work at full speed, done at half speed between 20 probes.
    probes = [2 * full] * 20
    assert speedometer.corrected_s(2.0 + sum(probes), probes) == pytest.approx(1.0)
    # At full speed only the probes' own time comes off.
    assert speedometer.corrected_s(1.0 + 20 * full, [full] * 20) == pytest.approx(1.0)
    assert speedometer.corrected_s(1.5, []) == 1.5


def test_probes_are_taken_while_running():
    speedometer.start(0.002)
    end = time.perf_counter() + 0.1
    while time.perf_counter() < end:
        sum(range(1000))
    samples = speedometer.stop()
    assert len(samples) >= 10
    assert all(s > 0 for s in samples)
    assert speedometer.stop() == []


def test_seeds_draw_different_pairs_and_the_same_cables(monkeypatch):
    import qmodalg.algebras as algebras

    built = []
    real = algebras.rcheck_cabled

    def recording(spec, k, l):
        built.append((k, l))
        return real(spec, k, l)

    monkeypatch.setattr(algebras, "rcheck_cabled", recording)
    cables = {}
    draws = {}
    for seed in (1, 2):
        _, handle, pairs = workloads.straighten_setup(seed, None)
        draws[seed] = [(x.coeffs, y.coeffs) for x, y in pairs]
        built.clear()
        for x, y in pairs:
            for p in (x, y):
                (word,) = p.coeffs
                assert handle.rs.is_normal_word(word)
            algebras.tensor_oracle_product(handle.spec, workloads.ORACLE_COPIES, x, y)
        assert len(built) == len(pairs)  # one braid per pair
        cables[seed] = sorted(set(built))
    assert draws[1] != draws[2]
    assert cables[1] == cables[2] == [(k, l) for k in (1, 2, 3) for l in (1, 2, 3)]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
