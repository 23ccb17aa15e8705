import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qmodalg.braiding import projectors
from qmodalg.cli import COMMANDS, OPTIONS, reads, run
from qmodalg.linop import LinearOperator
from qmodalg.rootdata import LieTypeSpec
from qmodalg.scalar import ONE


def test_dims_subcommand_exit_zero(tmp_path, capsys):
    out = tmp_path / "dims.json"
    code = run(
        [
            "dims",
            "--family",
            "D",
            "--rank",
            "2",
            "--copies",
            "2",
            "--max-degree",
            "4",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report) == {"config", "suites", "summary"}
    assert report["summary"]["all_pass"]
    entries = report["suites"][0]["entries"]
    assert any("330" in e["instance"] for e in entries)


def test_braiding_subcommand(tmp_path):
    out = tmp_path / "braid.json"
    assert run(["braiding", "--family", "C", "--rank", "2", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["summary"]["failed"] == 0


@pytest.mark.parametrize("family, rank, want", [
    ("D", 2, "anti=6, sym=9, triv=1"), ("D", 3, "anti=15, sym=20, triv=1"),
    ("B", 1, "anti=3, sym=5, triv=1"), ("B", 2, "anti=10, sym=14, triv=1"),
    ("C", 2, "anti=5, sym=10, triv=1"), ("C", 3, "anti=14, sym=21, triv=1"),
    ("GL", 2, "anti=1, sym=3"), ("GL", 3, "anti=3, sym=6"),
])
def test_projector_ranks_are_the_classical_dimensions(family, rank, want, tmp_path):
    # O_N: sym = N(N+1)/2 - 1; Sp_N: anti = N(N-1)/2 - 1; GL has no triv
    out = tmp_path / "braid.json"
    assert run(["braiding", "--family", family, "--rank", str(rank), "--output", str(out)]) == 0
    entries = json.loads(out.read_text())["suites"][0]["entries"]
    [entry] = [e for e in entries if e["citation"] == "projector ranks"]
    assert entry["instance"] == f"{family}{rank}: {want}" and entry["pass"]


def test_a_wrong_projector_rank_fails_the_braiding_report(tmp_path, monkeypatch):
    import qmodalg.cli as cli

    trace, calls = cli._trace, []

    def off_by_one_once(op):
        calls.append(None)
        return trace(op) + int(len(calls) == 1)

    monkeypatch.setattr(cli, "_trace", off_by_one_once)
    out = tmp_path / "braid.json"
    assert run(["braiding", "--family", "C", "--rank", "2", "--output", str(out)]) == 1
    entries = json.loads(out.read_text())["suites"][0]["entries"]
    failed = [e for e in entries if not e["pass"]]
    assert [e["citation"] for e in failed] == ["projector ranks"]
    assert len(calls) == 3


def test_a_non_idempotent_projector_fails_idempotence_and_ranks(monkeypatch):
    # P + E, E one entry off the diagonal and outside P's rows and columns:
    # the trace, read as the rank, still equals the classical rank, but
    # (P + E)^2 = P != P + E, and a trace is a rank only for an idempotent
    import qmodalg.cli as cli

    spec = LieTypeSpec("C", 2)
    projs = dict(projectors(spec))
    triv = projs["triv"]
    row, col = (1, 2), (1, 1)
    assert col not in triv.cols and all(row not in c for c in triv.cols.values())
    entries = dict(triv.entries)
    entries[row, col] = ONE
    projs["triv"] = LinearOperator(triv.domain, triv.codomain, entries)
    monkeypatch.setattr(cli, "projectors", lambda s: projs)
    verdicts = {}
    for e in cli.suite_braiding(spec)["entries"]:
        verdicts.setdefault(e["citation"], []).append((e["instance"], e["pass"]))
    assert (f"{spec} triv", False) in verdicts["projector idempotence"]
    assert verdicts["projector ranks"] == [(f"{spec}: anti=5, sym=10, triv=1", False)]


def test_an_oracle_mismatch_is_reported_with_its_residual(monkeypatch):
    import qmodalg.cli as cli
    from qmodalg.ncpoly import NCPolynomial

    real, calls = cli.tensor_oracle_product, []

    def one_more_once(spec, m, x, y):
        calls.append(None)
        out = real(spec, m, x, y)
        return out + NCPolynomial.one() if len(calls) == 2 else out

    monkeypatch.setattr(cli, "tensor_oracle_product", one_more_once)
    report = cli.suite_oracle(LieTypeSpec("D", 2), 2, 1)
    failed = [e for e in report["entries"] if not e["pass"]]
    assert [e["citation"] for e in failed] == [
        "presented product differs from the tensor route", "tensor-route agreement"
    ]
    assert (failed[0]["instance"], failed[0]["residual"]) == ("1 * X[2,1]", "-1")
    assert failed[1]["instance"] == "D2 m=2: 17 pairs, 1 mismatches"


def test_braiding_and_oracle_suites_do_no_redundant_work(monkeypatch):
    # the braid relation takes 3 composes, the skein polynomial 2, the
    # intertwining check 2 per e/f generator (none for k/K), and the
    # projector checks 3 + 3; the oracle reads normal forms from the memo
    import qmodalg.cli as cli
    from qmodalg.ncpoly import RewriteSystem

    spec = LieTypeSpec("D", 2)
    cli.suite_braiding(spec)
    cli.suite_oracle(spec, 2, 3)  # builds the cached handles and cables
    composes, normal_forms = [], []
    compose, normal_form = LinearOperator.compose, RewriteSystem.normal_form

    def counting_compose(self, other):
        composes.append(None)
        return compose(self, other)

    def counting_normal_form(self, poly, fuel=None):
        normal_forms.append(None)
        return normal_form(self, poly, fuel)

    monkeypatch.setattr(LinearOperator, "compose", counting_compose)
    monkeypatch.setattr(RewriteSystem, "normal_form", counting_normal_form)
    assert cli.suite_braiding(spec)["pass"]
    assert len(composes) == 3 + 2 + 2 * 4 + 3 + 3
    assert cli.suite_oracle(spec, 2, 3)["pass"]
    assert normal_forms == []


def test_relations_subcommand(tmp_path):
    out = tmp_path / "rel.json"
    code = run(
        [
            "relations",
            "--family",
            "C",
            "--rank",
            "2",
            "--copies",
            "3",
            "--output",
            str(out),
        ]
    )
    assert code == 0


def test_fft_subcommand_gl(tmp_path):
    out = tmp_path / "fft.json"
    code = run(
        [
            "fft",
            "--family",
            "GL",
            "--rank",
            "2",
            "--k",
            "2",
            "--l",
            "2",
            "--max-degree",
            "2",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    for e in report["suites"][0]["entries"]:
        assert e["invariant_dim"] == e["span_dim"]


def test_fft_sigma_from_m_equal_n(tmp_path):
    # at degree (1,1,1) U_q(so_3) has an invariant the pairings miss; the
    # --sigma verdict compares the span with the O_3 invariants instead
    out = tmp_path / "fft.json"
    argv = "fft --family B --rank 1 --copies 3 --max-degree 3 --sigma"
    assert run(argv.split() + ["--output", str(out)]) == 0
    entries = json.loads(out.read_text())["suites"][0]["entries"]
    odd = [e for e in entries if e["instance"] == "degree (1, 1, 1)"]
    assert [(e["invariant_dim"], e["span_dim"], e["sigma_filtered_dim"]) for e in odd] == [(1, 0, 0)]


def test_fft_text_names_what_it_compared(tmp_path):
    # with --sigma the span is compared with sigma=, not inv=
    out = tmp_path / "fft.txt"
    argv = "fft --family D --rank 2 --copies 4 --max-degree 4 --sigma --format text"
    assert run(argv.split() + ["--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    want = "  ok   invariants generated by the pairings | degree (1, 1, 1, 1) inv=4 span=3 sigma=3"
    assert want in lines
    assert not any("contained=" in line for line in lines)


def test_fft_text_shows_failed_containment(tmp_path, monkeypatch):
    from qmodalg import invariants

    monkeypatch.setattr(invariants, "span_contained_in", lambda vectors, basis: False)
    out = tmp_path / "fft.txt"
    argv = "fft --family D --rank 2 --copies 2 --max-degree 2 --format text"
    assert run(argv.split() + ["--output", str(out)]) == 1
    want = "degree (1, 1) inv=1 span=1 contained=False"
    assert f"  FAIL invariants generated by the pairings | {want}" in out.read_text().splitlines()


def test_skew_duality_subcommand(tmp_path):
    out = tmp_path / "skew.json"
    assert run(["skew-duality", "--m", "2", "--n", "2", "--output", str(out)]) == 0


def test_dump_presentation(tmp_path):
    out = tmp_path / "rules.json"
    code = run(
        [
            "dump-presentation",
            "--family",
            "B",
            "--rank",
            "1",
            "--copies",
            "2",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    manifest = json.loads(out.read_text())
    assert manifest["kind"] == "Am"
    assert all(
        set(r) == {"pattern", "replacement", "provenance"} for r in manifest["rules"]
    )


def test_oracle_diff_surfaces_odd_family_discrepancies(tmp_path):
    out = tmp_path / "diff.json"
    code = run(
        [
            "oracle-diff",
            "--family",
            "B",
            "--rank",
            "1",
            "--copies",
            "2",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    audit = [
        e
        for s in report["suites"]
        for e in s["entries"]
        if e.get("agrees") is False
    ]
    assert audit, "printed-variant discrepancies must be surfaced"


def test_invariance_subcommand_text(tmp_path):
    out = tmp_path / "inv.txt"
    code = run(
        [
            "invariance",
            "--family",
            "B",
            "--rank",
            "1",
            "--copies",
            "2",
            "--format",
            "text",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    assert "summary" in out.read_text()


def test_usage_errors():
    assert run(["braiding"]) == 2  # missing family
    assert run([]) == 2
    assert run(["relations", "--family", "D", "--rank", "1"]) == 2  # bad rank


def test_grid_rejects_strict(tmp_path, capsys):
    # the grid runs the derived rules only, so --strict would be ignored
    out = tmp_path / "grid.json"
    assert run(["grid", "--strict", "--output", str(out)]) == 2
    assert "error: --strict is not supported by grid" in capsys.readouterr().err
    assert not out.exists()
    assert run(["--grid", "--strict"]) == 2


GRID_SHA256 = "bb2ff07e001f26293536319f513356378366e546b19e3ef4bf9cb526841ca7b1"

# sha256 of each grid suite as json.dumps(suite, indent=1, sort_keys=True),
# by suite name: a change to the report shows which suites it moved
GRID_SUITE_SHA256 = {
    "braiding D2":
        "288c701a783fae7453b4a161d0df33ce668a40f5d42a52bda075259b2d16b05c",
    "braiding D3":
        "af97562200eb0ea9ad2cddc24b47e3f1d18fce1a20cb8b51278ba1ad14a7a6ac",
    "braiding B1":
        "74996e7269afd2a59df3a55b4cf571933e6eca05bede9002aff0655f47c13d19",
    "braiding B2":
        "c09ed0f3f599ebc23185aaa91d39c9ae1571e53c5907419342d4f779c98814f9",
    "braiding C2":
        "546308374bf62d06a95f797926abd8ce10f0fd62df591aa4d1a253027c339684",
    "braiding C3":
        "a0bbff4fe3b9a4815f6aac23cb0a2e22b29d7eeeae97932a507f7fdb912e88aa",
    "braiding GL2":
        "242e263207869d8a50a8b1c5c46756bd86fbdae30f2ee873c60bff6821ad038c",
    "braiding GL3":
        "cd2e4b487937c9a0a681f96a830d9d9e3f2f1bcf2a4203d922053ddabf11fa84",
    "dims A1(D2)":
        "2cb0f73fcedc56b56611093e9467146ca0154e689c40410ad1300e6bd028c6f2",
    "dims A2(D2)":
        "3e656b137574a0d8c0180a75c78b6060d4d5755f4ed2b8b5ff002bd31c1cec62",
    "dims A1(B1)":
        "4e0937a052c17e58a0bc98c1c41b46870eee1030a9816214e1e3bde557dac2ac",
    "dims A2(B1)":
        "244411069411de825614845885041ef032c883cabe75586e30daa00964456f9b",
    "dims A1(C2)":
        "c37dec580f37e8f8fc9bec215ef46561dcd080242eefcb3ef1cd95e9f9c75c7e",
    "dims A2(C2)":
        "03a2fba74c8005f93ef7a16a25f0125f3d85443be752c6253955461285f3cfbc",
    "dims M22":
        "4458d71115ef3343e82ab3b10d6ef3db663b4f1ec0e189c920527c3a2420e6ae",
    "dims A22(GL2)":
        "990456bd5cf919bc89951e2a3b3bf81e8fcc8e5f3cab62c2690f8adecd230d31",
    "dims Ext(2,2)":
        "52d45f9acf76f402c4c16667cbb8db7dd405caef8ac6c74fbc69faf063872467",
    "dims Ext(2,3)":
        "7b5e5fd94536e3967328497a770e4124b712fd57c5e03254c652d0f731995b3d",
    "oracle D2 m=2":
        "1f574390908cb7512ee9be3d6ce1a8476318c11b68dea41a158ba8d06e9ef16e",
    "oracle-diff D2":
        "342c79de7c52530526533c596197de89d27ba1766692a82f72243a55a0e2931d",
    "oracle B1 m=2":
        "5f8969d54df8505d517974102c44390889874047cfa897d0f4d9ad9e79803aea",
    "oracle-diff B1":
        "4471ba615b4a6f5590ff5456b819f2bd4aaa0a637e509b30dacbf343d0d3b559",
    "oracle C2 m=2":
        "f03c56d08af071316a12874a4f92a42129f840e286cbd23a70e228dffdc7eff5",
    "oracle-diff C2":
        "6a50b95976a15d19ae0fcb0eefc5d4b2b6431a7ecf1fff8687560c1b3ad0d06d",
    "invariance D2":
        "2bf8491051c3a2c6e01a0524b3efbc6f51e182a48ed636b8b54a396bb9eba789",
    "invariance B1":
        "8e072af453ee7b516c5c6ed7fe91dcefb4ab1b55782e67e9da93919f4e71f4f0",
    "invariance C2":
        "be80223ec536bcad6207a6f40931283ca646d823b576b81b679d0ed09c353ec3",
    "invariance GL2":
        "657357f0704f45f9d0e856bbaee6166620f0a828899b955f20efde52effc8869",
    "relations Am(D2, {'m': 4})":
        "39e4959b9d03734221541a939d228e487b1a9fef708e6ba2a014ebd0d44172c6",
    "relations Am(B1, {'m': 4})":
        "a3ab6af47a3c29beb904099e3cf26ccd73043414fadd055db31fa7a68c84612a",
    "relations Am(C2, {'m': 4})":
        "8708efc8340414e37610e22499e05563942a41ef810ad5a543ef20f66c671773",
    "relations Akl(GL2, {'n': 2, 'k': 2, 'l': 2})":
        "47ee86ee37647ed4ec8f280b219ef515ba5bec8b596fcd2f866de1db4f4f3c91",
    "fft Am D2 {'m': 2}":
        "65726e5260aef08cc66ca16c0ec218babdd60b8d19590a94ebe05660f71276d6",
    "fft Am B1 {'m': 2}":
        "7ee26a5338c5edfc738c220d1a91e649270b71e96e0705fea56b60dffc9c40ec",
    "fft Am C2 {'m': 2}":
        "aca0f78eb3f57735032430744ee0343214de618313ff50c626fedf14180481d8",
    "fft Akl GL2 {'n': 2, 'k': 2, 'l': 2}":
        "dc5dd667f5cc7a5ee5b4efd1ae726ac9fc743e226c9359613d3727a8641a8844",
    "skew-duality (2,2)":
        "78d855dea279f34e39ef2e9b87977544d4ee7d28e1133d9514505f6db10b03bb",
    "skew-duality (2,3)":
        "cfd40c15d8e6378dfd5aa06a21b06c429d49a78ff796a3c4b6ac643528c5b25d",
    "classical-limit":
        "74d7a6743e272d00ca1992382cdaf2cbddfcc05c4081138666966bc9f1509b3f",
}


def test_grid_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    import qmodalg

    src = str(Path(qmodalg.__file__).resolve().parents[1])
    reports = []
    for seed in ("0", "1"):
        out = tmp_path / f"grid-{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "qmodalg.cli", "grid", "--output", str(out)],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert report["summary"]["all_pass"]
    assert {
        suite["name"]: hashlib.sha256(
            json.dumps(suite, indent=1, sort_keys=True).encode()
        ).hexdigest()
        for suite in report["suites"]
    } == GRID_SUITE_SHA256
    # the behaviour contract: the grid report's bytes are pinned
    assert hashlib.sha256(reports[0]).hexdigest() == GRID_SHA256


def _row_argv(command, given):
    """A grid plan row as a command line, its options in the row's order."""
    argv = [command]
    for flag, value in given.items():
        argv += ["--" + flag] if value is True else ["--" + flag, str(value)]
    return argv


@pytest.mark.parametrize("sigma", [False, True])
def test_the_grid_is_its_plan_of_subcommand_runs(sigma, tmp_path):
    # the grid report is each plan row's subcommand run, a dims suite read
    # after its label, then classical-limit; --sigma reaches only the rows
    # that read it
    import qmodalg.cli as cli

    grid = tmp_path / "grid.json"
    assert run(["grid", "--output", str(grid)] + ["--sigma"] * sigma) == 0
    suites = json.loads(grid.read_text())["suites"]
    runs, with_sigma = [], []
    for command, given, label in cli.grid_plan():
        kind = cli._refuse_unread(cli._filled(command, given))
        assert (label is not None) == (command == "dims"), (command, given)
        argv = _row_argv(command, given)
        if sigma and "sigma" in reads(command, kind):
            argv.append("--sigma")
            with_sigma.append(f"{command} {given['family']}{given['rank']}")
        out = tmp_path / "row.json"
        assert run(argv + ["--output", str(out)]) == 0, argv
        text = out.read_text()
        runs += json.loads(text.replace("requested", label) if label else text)["suites"]
    assert [s["name"] for s in suites[len(runs):]] == ["classical-limit"]
    assert runs == suites[:len(runs)]
    assert with_sigma == (["invariance D2", "invariance B1", "fft D2", "fft B1"] if sigma else [])


# each cli.suite_* and the number of its calls in one grid run
GRID_RUNNER_CALLS = {
    "suite_braiding": 8, "suite_dims": 10, "suite_oracle": 3, "suite_oracle_diff": 3,
    "suite_invariance": 4, "suite_relations": 4, "suite_fft": 4, "suite_skew": 2,
    "suite_classical": 1,
}


def test_a_grid_run_reaches_each_runner_through_the_module(tmp_path, monkeypatch):
    # the benchmark tracer rebinds cli.suite_* in the module namespace only,
    # so the grid must look each runner up there when it calls it
    import qmodalg.cli as cli

    assert {name for name in vars(cli) if name.startswith("suite_")} == set(GRID_RUNNER_CALLS)
    calls = dict.fromkeys(GRID_RUNNER_CALLS, 0)
    for name in GRID_RUNNER_CALLS:

        def counted(*args, _name=name, _runner=getattr(cli, name)):
            calls[_name] += 1
            return _runner(*args)

        monkeypatch.setattr(cli, name, counted)
    assert run(["grid", "--output", str(tmp_path / "grid.json")]) == 0
    assert calls == GRID_RUNNER_CALLS


# (argv, exit code, sha256 of the report file): between them these cover
# every entry shape (residual, variant, agrees and printed, the dimension
# fields, sigma_filtered_dim) and the text format
SUBCOMMAND_PINS = [
    ("braiding --family C --rank 3", 0,
     "82b49b2bd1de9568bff0a2b1fe940def0036af9a9151049fed393fab832f24c9"),
    ("dims --family GL --rank 2 --k 2 --l 3 --max-degree 3", 0,
     "0557545f405ea34e8494d1d2819bb75a04c723e745609ddcafb5972cf45d002f"),
    ("dims --exterior --m 2 --n 3", 0,
     "b121b539808ec6fa744700c6073b47c3755c861973c8726f9b9bc6f7893d6444"),
    ("dims --family B --rank 1 --copies 3 --max-degree 3", 0,
     "cbbe620e082ace851444ddc8660e25b9707f903924b80605750a009ea6913ec8"),
    ("relations --family D --rank 2 --copies 3 --strict --verbose", 1,
     "27acc56c946ebb47f79c86d6258a9c0f52f7ff2d2e2ec3fcebda0812240a83e1"),
    ("relations --family B --rank 1 --copies 3 --strict --format text", 1,
     "df53b886bdedc7e785256162149f5620272b76caf9906f156db376e89a0bb873"),
    ("relations --family GL --rank 2 --k 2 --l 3", 0,
     "780f2b25672458d2108660ccb85ff60aed862a4af62c6e1ab06dfa50857239ec"),
    ("invariance --family B --rank 1 --copies 3 --sigma", 0,
     "4f88c9078a4d9fb721eab16b9db6d2aedcb7374c2f9176a8ed23451627f3cf31"),
    ("invariance --family GL --rank 2 --k 2 --l 3", 0,
     "d4b08dccb60be304feca98ae1c14b39235a736133f7cc83bac8c1808f3c887dd"),
    ("fft --family D --rank 2 --max-degree 3 --sigma", 0,
     "5c5f98c523b49ab9a5ea28ebbb97d304c5305954d08d9abe3fc3665864f5e5f7"),
    ("fft --family GL --rank 2 --k 2 --l 2 --max-degree 2", 0,
     "453b03772c04ab92b6955f762ce23614b10d1c057cf45d2d1709b423f8954954"),
    ("skew-duality --m 2 --n 3", 0,
     "3b0295e0ca6d97295ec0138322b0ccf06616ef8ae19c2edb884882fd4cca8017"),
    ("oracle-diff --family B --rank 1 --copies 2", 0,
     "805c11ed114c53b35e3f25c1184b285487cd72aa91c7f2d1fa4d010d3ea6d4bd"),
    ("oracle-diff --family D --rank 2 --verbose", 0,
     "5b12327cb60b6d900f46cd54c53a5e93b28c0a43d6c3a4752a1d5fd2967ff613"),
    ("oracle-diff --family D --rank 2 --verbose --format text", 0,
     "286f0d4f9a54b921bb008cef9f38b7bc974f025750d796f3a503447895d4189b"),
    ("oracle-diff --family C --rank 2", 0,
     "f23aaeda906d8135352aeac1ef999c14fd9f05d77fcccbba4d92c6ecf347b669"),
]


def test_subcommand_report_bytes_are_pinned(tmp_path):
    for i, (argv, code, sha) in enumerate(SUBCOMMAND_PINS):
        out = tmp_path / f"report-{i}"
        assert run(argv.split() + ["--output", str(out)]) == code, argv
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha, argv


def test_failing_checks_exit_one(tmp_path):
    # the transcribed printed rules do not satisfy the twist relations, so
    # the relation suite under --strict must report failures and exit 1
    out = tmp_path / "strict.json"
    code = run(
        [
            "relations",
            "--family",
            "B",
            "--rank",
            "1",
            "--copies",
            "2",
            "--strict",
            "--output",
            str(out),
        ]
    )
    assert code == 1
    report = json.loads(out.read_text())
    assert report["summary"]["failed"] > 0


def test_internal_error_exits_three(tmp_path, monkeypatch, capsys):
    # an unexpected exception is neither a failed check (1) nor a usage error (2)
    import qmodalg.cli as cli

    def suite_braiding(spec):
        raise RuntimeError("kernel blew up")

    monkeypatch.setattr(cli, "suite_braiding", suite_braiding)
    out = tmp_path / "crash.json"
    code = run(["braiding", "--family", "C", "--rank", "2", "--output", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert err.rstrip().endswith("internal error: RuntimeError: kernel blew up")
    assert not out.exists()


@pytest.mark.parametrize("exc", [ValueError, KeyError])
def test_internal_value_and_key_errors_exit_three(exc, monkeypatch, capsys):
    # only bad input is a usage error; a ValueError or KeyError from inside
    # the checks is a crash
    import qmodalg.cli as cli

    def suite_braiding(spec):
        raise exc("inside the kernel")

    monkeypatch.setattr(cli, "suite_braiding", suite_braiding)
    assert run(["braiding", "--family", "C", "--rank", "2"]) == 3
    assert f"internal error: {exc.__name__}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", ["skew-duality --m 1 --n 1", "dump-presentation --family D --rank 2"])
def test_unwritable_output_exits_two(argv, tmp_path, capsys):
    # a report that cannot be written is neither a failed check nor a crash
    out = tmp_path / "missing" / "r.json"
    assert run(argv.split() + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write --output ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        "relations --family D --rank 2 --copies 0",
        "relations --family GL --rank 2 --k 0 --l 2",
        "skew-duality --m 0",
        "skew-duality --n -1",
        "fft --family B --rank 1 --max-degree -1",
        "relations --family GL --rank 2",
        "fft --family GL --rank 2 --max-degree 2",
        "relations --exterior",
        "fft --exterior",
        "oracle-diff --family GL --rank 2",
        # options the algebra would not read: --k/--l only describe a GL
        # algebra (and a handle needs both), --m/--n only an exterior one
        "dims --family D --rank 2 --k 5 --l 7",
        "dims --family GL --rank 2 --k 3",
        "relations --family B --rank 1 --k 4",
        "fft --family D --rank 2 --l 3",
        "invariance --family D --rank 2 --k 3",
        "dims --family D --rank 2 --m 3",
        "dump-presentation --family C --rank 2 --m 3 --n 4",
        # an exterior algebra reads none of the A_m options, even when one is
        # given at its default, and A_{k,l} has no --copies or --strict variant
        "dims --exterior --family GL --k 2 --l 3",
        "dims --exterior --family D --rank 3 --copies 5 --strict",
        "dims --family GL --rank 2 --k 2 --l 2 --copies 5 --strict --max-degree 1",
        "dims --exterior --m 2 --n 2 --rank 2",
        # options only another algebra kind reads: the GL suite of invariance
        # is A_{k,l}, sigma extends only B and D, the printed variants exist
        # only for B, C and D, and an exterior algebra has all its degrees
        "invariance --family GL --rank 2",
        "invariance --family GL --rank 2 --copies 5",
        "invariance --family C --rank 2 --sigma",
        "fft --family C --rank 2 --sigma",
        "invariance --family GL --rank 2 --k 1 --l 1 --sigma",
        "fft --family GL --rank 2 --k 1 --l 1 --sigma",
        "dims --exterior --max-degree 3",
        "dims --family GL --rank 2 --strict",
        "dump-presentation --family GL --rank 2 --strict",
    ],
)
def test_bad_option_values_exit_two(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(argv.split() + ["--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_fuel_exhaustion_is_a_config_error(monkeypatch, tmp_path, capsys):
    # the first run warms the handle's memo; the charge does not depend on it
    import qmodalg.ncpoly

    argv = ["relations", "--family", "D", "--rank", "2", "--output"]
    assert run(argv + [str(tmp_path / "warm.json")]) == 0
    monkeypatch.setattr(qmodalg.ncpoly, "DEFAULT_FUEL", 1)
    out = tmp_path / "x.json"
    assert run(argv + [str(out)]) == 2
    assert capsys.readouterr().err == "config error: straightening fuel exhausted\n"
    assert not out.exists()


def test_a_run_with_no_entry_exits_two(tmp_path, capsys):
    # A_1 over C2 has no relation instance (A_1 over D2 has 5): a report
    # with no entry checks nothing, so it is refused, not passed
    def relations(family, out):
        return run(["relations", "--family", family, "--copies", "1", "--output", str(out)])

    assert relations("D", tmp_path / "d.json") == 0
    out = tmp_path / "c.json"
    assert relations("C", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_exterior_dims(tmp_path):
    out = tmp_path / "ext.json"
    code = run(
        ["dims", "--exterior", "--m", "2", "--n", "2", "--output", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert "16" in report["suites"][0]["entries"][0]["instance"]


def test_subcommand_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["braiding", "--family", "D", "--rank", "2"]
    assert run(argv + ["--output", str(a)]) == 0
    assert run(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_classical_limit_pole_is_reported(monkeypatch):
    import qmodalg.cli as cli
    from qmodalg.scalar import PoleAtOneError

    real = cli.quantum_dimension
    first, last = (cli.LieTypeSpec(*s) for s in (cli.GRID_SPECS[0], cli.GRID_SPECS[-1]))

    def quantum_dimension(spec):
        if spec in (first, last):
            raise PoleAtOneError(str(spec))
        return real(spec)

    monkeypatch.setattr(cli, "quantum_dimension", quantum_dimension)
    entries = [
        e
        for e in cli.suite_classical()["entries"]
        if e["citation"] == "classical limit of the quantum dimension"
    ]
    assert len(entries) == len(cli.GRID_SPECS)
    for entry, spec in zip(entries, cli.GRID_SPECS):
        spec = cli.LieTypeSpec(*spec)
        if spec in (first, last):
            assert entry == {
                "citation": "classical limit of the quantum dimension",
                "instance": f"{spec}: pole at v = 1",
                "pass": False,
            }
        else:
            assert entry["instance"] == f"{spec}: {real(spec).classical_limit()}"
            assert entry["pass"]


def test_a_rule_off_at_v_equal_one_is_a_classical_defect():
    # a shipped rule degenerates to the (anti)commutative one; a wrong
    # coefficient, a wrong exterior sign or a pole at v = 1 is a defect
    import qmodalg.cli as cli
    from qmodalg.algebras import build_am, build_exterior
    from qmodalg.scalar import Scalar, q_pow

    pole = (q_pow(1) - ONE).inverse()
    for handle in (build_am(LieTypeSpec("D", 2), 2), build_exterior(2, 2)):
        rules = handle.rs.rules
        assert all(cli._classical_rule_ok(handle, pat, repl) for pat, repl in rules.items())
        pat, repl = next((p, r) for p, r in sorted(rules.items()) if not r.is_zero())
        for factor in (Scalar(2), Scalar(-1), pole):
            assert not cli._classical_rule_ok(handle, pat, repl.scale(factor)), factor


@pytest.mark.parametrize(
    "argv,flag",
    [
        ("dims --family D --sigma", "--sigma"),
        ("braiding --family D --copies 7", "--copies"),
        ("relations --family D --sigma", "--sigma"),
        ("invariance --family D --strict", "--strict"),
        ("fft --family D --exterior", "--exterior"),
        ("skew-duality --family D", "--family"),
        ("dump-presentation --family D --format text", "--format"),
        ("oracle-diff --family D --strict", "--strict"),
        ("grid --max-degree 2", "--max-degree"),
        # an abbreviation is refused as its full flag, and of two options
        # the subcommand does not take the first on the command line is named
        ("grid --stri", "--strict"),
        ("skew-duality --rank 3 --family D", "--rank"),
        ("braiding --family D --strict --copies 2", "--strict"),
        ("braiding --family D --copies 2 --strict", "--copies"),
    ],
)
def test_unhonoured_option_exits_two(argv, flag, tmp_path, capsys):
    # each subcommand takes only the options it reads; another's is refused
    out = tmp_path / "report.json"
    assert run(argv.split() + ["--output", str(out)]) == 2
    command = argv.split()[0]
    assert capsys.readouterr().err == f"error: {flag} is not supported by {command}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    ("skew-duality --rank x", "argument --rank: invalid int value: 'x'"),
    ("dump-presentation --family D --format xml", "argument --format: invalid choice: 'xml'"),
])
def test_an_ill_typed_option_not_taken_gets_the_parser_message(argv, message, tmp_path, capsys):
    # every subparser parses every option, so a value it cannot read is an
    # argparse error before the gate sees the option
    out = tmp_path / "report.json"
    assert run(argv.split() + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"qmodalg {argv.split()[0]}: error: {message}" in err
    assert "is not supported" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_help_lists_exactly_the_options_a_subcommand_takes(command, capsys):
    assert run([command, "--help"]) == 0
    listed = set(re.findall(r"--([a-z-]+)", capsys.readouterr().out)) - {"help"}
    assert listed == set(COMMANDS[command][0])


# one small instance per algebra kind: the options that select it (rank 2 is
# the default), and the none kind of a subcommand that builds no algebra
KIND_ARGV = {
    "A_m over B/D": ["--family", "D"],
    "A_m over C": ["--family", "C"],
    "A_m over GL": ["--family", "GL"],
    "A_{k,l}": ["--family", "GL", "--k", "1", "--l", "1"],
    "exterior": ["--exterior"],
    None: [],
}
# a small value other than the instance's for each option (a flag is given bare)
VARIED = {"rank": "3", "copies": "3", "k": "2", "l": "2", "m": "1", "n": "1",
          "max-degree": "2"}
# a legal value for each option, given where the table refuses it
GIVEN = {"family": "B", "rank": "2", "copies": "2", "k": "1", "l": "1", "m": "2",
         "n": "2", "max-degree": "1", "format": "json"}
UNCHECKED = {
    # they choose the instance's kind, so every run of a row gives them
    "family", "exterior",
    # they choose the report's form and file, not what it checks
    "format", "output", "verbose",
}
UNCHANGED = {
    # the entries are verdicts, and every generator also passes under sigma
    ("invariance", "A_m over B/D", "sigma"),
    # the count is the same whatever the rules, until an overlap suite checks them
    ("dims", "A_m over B/D", "strict"),
    ("dims", "A_m over C", "strict"),
}


def _flag(option, values):
    flag = ["--" + option]
    return flag + [values[option]] if option in values else flag


def _table_rows():
    for command, (_, kinds) in COMMANDS.items():
        for kind in kinds or (None,):
            yield command, kind


@pytest.mark.parametrize("command,kind", list(_table_rows()))
def test_every_option_is_read_or_refused(command, kind, tmp_path, capsys):
    # each option the table gives a run changes its report outside config,
    # and each other option exits 2: no option is recorded and then ignored
    reports = {}

    def report(argv):
        if tuple(argv) not in reports:
            out = tmp_path / f"{len(reports)}.json"
            assert run(argv + ["--output", str(out)]) in (0, 1), argv
            reports[tuple(argv)] = json.loads(out.read_text())
        return reports[tuple(argv)]

    def checked(argv):
        return {key: value for key, value in report(argv).items() if key != "config"}

    accepted = reads(command, kind)
    base = [command] + KIND_ARGV[kind]
    if "max-degree" in accepted:
        base += ["--max-degree", "1"]
    for option in OPTIONS:
        if option not in accepted:
            out = tmp_path / "refused.json"
            assert run(base + _flag(option, GIVEN) + ["--output", str(out)]) == 2, option
            assert capsys.readouterr().err.startswith("error: "), option
            assert not out.exists(), option
        elif option not in UNCHECKED:
            argv = base
            if (command, option) == ("fft", "strict"):
                argv = base[:-1] + ["4"]  # the printed variants differ from degree 4
            varied = argv + _flag(option, VARIED)
            if command == "grid":
                # the default grid report is pinned: with its one option set
                # back in config, the varied report's bytes stand in for a run
                default = dict(report(varied), config={**report(varied)["config"], "sigma": False})
                text = json.dumps(default, indent=1, sort_keys=True) + "\n"
                changed = hashlib.sha256(text.encode()).hexdigest() != GRID_SHA256
            else:
                changed = checked(varied) != checked(argv)
            assert changed == ((command, kind, option) not in UNCHANGED), option


def test_readme_option_table_is_the_code_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme[readme.index("| subcommand | algebra kind | options read |"):].splitlines()
    rows = {}
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        command, kind, options = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        rows[command, None if kind == "—" else kind] = {o.removeprefix("--") for o in options.split()}
    report = {"format", "output", "verbose"}
    assert rows == {(c, k): reads(c, k) - report for c, k in _table_rows()}
    # README: every subcommand reads the report options, dump-presentation only --output
    for command, (options, _) in COMMANDS.items():
        want = {"output"} if command == "dump-presentation" else report
        assert report.intersection(options) == want, command


def test_readme_grid_table_is_the_grid_plan():
    import qmodalg.cli as cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme[readme.index("| grid run | dims label |"):].splitlines()
    rows = []
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip().strip("`") for cell in line.strip("|").split("|")))
    plan = [(" ".join(["qmodalg"] + _row_argv(command, given)), label or "—")
            for command, given, label in cli.grid_plan()]
    assert rows == plan + [("classical-limit", "—")]


_IMPORT_SET = """
import sys
import qmodalg.cli
print(" ".join(m for m in ("dataclasses", "inspect", "ast", "dis", "tokenize") if m in sys.modules))
"""


def test_importing_the_cli_loads_no_introspection_modules():
    # -S keeps site hooks out, so this pins the package's own import set:
    # dataclasses would pull in inspect, ast, dis and tokenize on every cold start
    import qmodalg

    src = str(Path(qmodalg.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_SET], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
