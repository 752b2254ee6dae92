import pytest

from pregeolab import verify
from pregeolab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_single_axiom(capsys):
    code, out, _ = run(capsys, "check", "--instance", "u34",
                       "--relation", "a", "--axiom", "BMON-R")
    assert code == 0
    assert out == "RESULT a BMON-R fail witness={0,1};{};{2};{2,3}\n"


def test_check_strict_exit_code(capsys):
    code, _, _ = run(capsys, "check", "--instance", "u34", "--relation", "a",
                     "--axiom", "BMON-R", "--strict")
    assert code == 1
    code, _, _ = run(capsys, "check", "--instance", "u34", "--relation", "a",
                     "--axiom", "SYM", "--strict")
    assert code == 0


def test_check_all(capsys):
    code, out, _ = run(capsys, "check", "--instance", "trivial3",
                       "--relation", "int", "--all")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 19
    assert all(line.startswith("RESULT int ") for line in lines)
    assert sum(line.endswith("vacuous") for line in lines) == 2


def test_check_bad_axiom_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--instance", "u34",
                       "--relation", "a", "--axiom", "NOPE")
    assert code == 2
    assert "error:" in err


def test_check_missing_axiom_flag(capsys):
    code, _, err = run(capsys, "check", "--instance", "u34", "--relation", "a")
    assert code == 2
    assert "--axiom" in err


def test_check_opposite_relation(capsys):
    code, out, _ = run(capsys, "check", "--instance", "gebert4",
                       "--relation", "opp(sup)", "--axiom", "SYM")
    assert code == 0
    assert out.startswith("RESULT opp(sup) SYM")


def test_compare(capsys):
    code, out, _ = run(capsys, "compare", "--instance", "u34",
                       "--relations", "cl,a")
    assert code == 0
    assert out == "COMPARE cl a implies witness={0,1};{2,3};{}\n"
    code, out, _ = run(capsys, "compare", "--instance", "u34",
                       "--relations", "cl,a", "--strict")
    assert code == 1
    code, out, _ = run(capsys, "compare", "--instance", "u34",
                       "--relations", "aM,cl", "--strict")
    assert code == 0
    assert out == "COMPARE aM cl equal\n"


def test_compare_needs_two_ids(capsys):
    code, _, err = run(capsys, "compare", "--instance", "u34",
                       "--relations", "cl")
    assert code == 2 and "--relations" in err


def test_dim_and_basis(capsys):
    code, out, _ = run(capsys, "dim", "--instance", "u34",
                       "--set", "0,1", "--over", "2,3")
    assert code == 0
    assert out == "dim=1 basis={0}\n"
    code, out, _ = run(capsys, "basis", "--instance", "gf2-3", "--set", "0,1,2")
    assert code == 0
    assert out == "basis={0,1}\n"


def test_dim_requires_pregeometry(capsys):
    code, _, err = run(capsys, "dim", "--instance", "path3", "--set", "0")
    assert code == 2 and "not a pregeometry" in err


def test_dim_rejects_out_of_range_set(capsys):
    code, _, err = run(capsys, "dim", "--instance", "u34", "--set", "0,9")
    assert code == 2


def test_modular(capsys):
    code, out, _ = run(capsys, "modular", "--instance", "u23")
    assert code == 0
    assert "condition-1 pass" in out and "condition-5 pass" in out
    code, _, _ = run(capsys, "modular", "--instance", "u34", "--strict")
    assert code == 1


def test_search_catalog(capsys):
    code, out, _ = run(capsys, "search", "--goal", "!BMON-R",
                       "--kind", "pregeometry")
    assert code == 0
    assert out == "FOUND u34 witness={0,1};{};{2};{2,3}\n"


def test_search_exchange_fail(capsys):
    code, out, _ = run(capsys, "search", "--goal", "exchange-fail")
    assert code == 0
    assert out == "FOUND gebert4 witness={};{0};{1}\n"


def test_search_enum_space(capsys):
    code, out, _ = run(capsys, "search", "--goal", "SYM,!MON-R",
                       "--space", "enum1")
    assert code == 0
    assert out.startswith("FOUND rel20 ")


def test_search_exhausted(capsys):
    code, out, _ = run(capsys, "search", "--goal", "!SYM", "--relation", "int")
    assert code == 0
    assert out == "EXHAUSTED\n"


def test_search_bad_goal(capsys):
    code, _, err = run(capsys, "search", "--goal", "WAT")
    assert code == 2 and "error:" in err


def test_verify_single_suite(capsys, tmp_path):
    report = tmp_path / "report.txt"
    code, out, _ = run(capsys, "verify", "--suite", "dim-laws",
                       "--report", str(report))
    assert code == 0
    assert "dim-laws" in out and "pass" in out
    text = report.read_text()
    assert text.startswith("SUITE dim-laws pass\n")
    assert "RESULT " in text


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2 and "--suite" in err


def test_verify_unknown_instances_names_the_flag(capsys):
    code, _, err = run(capsys, "verify", "--instances", "nope")
    assert code == 2
    assert err == "error: --instances: unknown instances: nope\n"


def test_over_budget_instance_is_usage_error(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("type = trivial\nsize = 9\n")
    code, out, err = run(capsys, "check", "--instance", str(path),
                         "--relation", "int", "--axiom", "SYM")
    assert code == 2 and out == ""
    assert err.startswith("error: truth table needs") and err.count("\n") == 1


def test_verify_list(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    assert "rg-st:" in out


def test_list(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    for header in ("instances:", "relations:", "axioms:", "suites:"):
        assert header in out
    assert "u34" in out and "BMON-R" in out and "dlo-div" in out


def test_file_instance(capsys, tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("type = uniform\nsize = 4\nrank = 3\n")
    code, out, _ = run(capsys, "dim", "--instance", str(path), "--set",
                       "0,1,2,3")
    assert code == 0
    assert out == "dim=3 basis={0,1,2}\n"


def test_file_instance_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("type = uniform\nsize = 4\n")  # missing rank
    code, _, err = run(capsys, "dim", "--instance", str(path), "--set", "0")
    assert code == 2 and "error:" in err


def test_unknown_instance(capsys):
    code, _, err = run(capsys, "check", "--instance", "nope",
                       "--relation", "a", "--axiom", "SYM")
    assert code == 2


def test_unknown_relation(capsys):
    code, _, err = run(capsys, "check", "--instance", "u34",
                       "--relation", "wat", "--axiom", "SYM")
    assert code == 2


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_directory_instance_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "check", "--instance", str(tmp_path),
                         "--relation", "st", "--axiom", "SYM")
    assert code == 2 and out == ""
    assert err.startswith(f"error: --instance: {tmp_path}: ")
    assert err.count("\n") == 1


def test_non_utf8_instance_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bytes.txt"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, "check", "--instance", str(path),
                         "--relation", "st", "--axiom", "SYM")
    assert code == 2 and out == ""
    assert err.startswith(f"error: --instance: {path}: ")
    assert err.count("\n") == 1


def test_verify_unwritable_report_is_usage_error(capsys, tmp_path):
    report = tmp_path / "missing" / "report.txt"
    code, out, err = run(capsys, "verify", "--suite", "dlo-div",
                         "--report", str(report))
    assert code == 2
    assert out == ""  # the path is refused before any suite runs
    assert err.startswith("error: --report: ") and err.count("\n") == 1
    assert not report.exists()


def test_verify_unwritable_report_runs_no_suite(capsys, monkeypatch, tmp_path):
    ran = []
    monkeypatch.setattr(verify, "run_suites", lambda *a, **k: ran.append(a))
    code, out, err = run(capsys, "verify", "--suite", "all",
                         "--report", str(tmp_path / "missing" / "report.txt"))
    assert code == 2 and out == "" and ran == []
    assert err.startswith("error: --report: ") and err.count("\n") == 1
