import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qmodalg.cli import COMMANDS, OPTIONS, reads, run


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
    assert json.loads(reports[0])["summary"]["all_pass"]
    # the behaviour contract: the grid report's bytes are pinned
    assert hashlib.sha256(reports[0]).hexdigest() == GRID_SHA256


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
     "4eaec9c581fac6bc1353a30ea537accae928b6122b25c7b701e2f312e4e94738"),
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
    ],
)
def test_unhonoured_option_exits_two(argv, flag, tmp_path, capsys):
    # each subcommand takes only the options it reads; another's is refused
    out = tmp_path / "report.json"
    assert run(argv.split() + ["--output", str(out)]) == 2
    command = argv.split()[0]
    assert capsys.readouterr().err == f"error: {flag} is not supported by {command}\n"
    assert not out.exists()


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
VARIED = {"rank": "3", "copies": "1", "k": "2", "l": "2", "m": "1", "n": "1",
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
