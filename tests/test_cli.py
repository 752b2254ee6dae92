import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from pregeolab import geometry, instances, relcalc, verify
from pregeolab.axioms import AxiomId
from pregeolab.cli import main
from pregeolab.instances import CATALOG_NAMES, RELATIONS, catalog_instance


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


def test_search_unknown_relation_is_usage_error(capsys, monkeypatch):
    def no_catalog():
        raise AssertionError("catalog built for an unknown relation id")

    monkeypatch.setattr(instances, "catalog", no_catalog)
    for rel_id in ("nope", "opp(nope)", "opp(opp(nope))"):
        code, out, err = run(capsys, "search", "--goal", "!SYM",
                             "--relation", rel_id)
        assert code == 2 and out == ""
        assert err == "error: --relation: unknown relation id 'nope'\n"


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


def test_verify_repeated_instance_is_usage_error(capsys):
    """A name given twice would run its checks twice; it is refused
    before any suite runs."""
    code, out, err = run(capsys, "verify", "--suite", "dim-laws",
                         "--instances", "u34,u23,u34")
    assert code == 2 and out == ""
    assert err == "error: --instances: repeated instances: u34\n"


def test_verify_repeated_suite_is_usage_error(capsys):
    """A suite id given twice would print its report twice; it is refused
    before any suite runs."""
    code, out, err = run(capsys, "verify", "--suite", "dim-laws,dim-laws",
                         "--instances", "u34")
    assert code == 2 and out == ""
    assert err == "error: --suite: repeated suites: dim-laws\n"


def test_over_budget_instance_is_usage_error(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("type = trivial\nsize = 9\n")
    code, out, err = run(capsys, "check", "--instance", str(path),
                         "--relation", "int", "--axiom", "SYM")
    assert code == 2 and out == ""
    assert err.startswith("error: truth table needs") and err.count("\n") == 1


def test_over_budget_is_refused_before_quadratic_work(
        capsys, monkeypatch, tmp_path):
    """`modular` and the `cl` relation refuse an n = 9 instance before
    any work on all pairs of subsets."""
    def quadratic(*args):
        raise AssertionError("count^2 work before the budget check")

    monkeypatch.setattr(geometry, "least_unreached", quadratic)
    monkeypatch.setattr(relcalc, "dim_table", quadratic)
    path = tmp_path / "nine.txt"
    path.write_text("type = trivial\nsize = 9\n")
    for argv in (["modular"], ["check", "--relation", "cl", "--axiom", "SYM"]):
        code, out, err = run(capsys, *argv, "--instance", str(path))
        assert code == 2 and out == ""
        assert err == ("error: truth table needs 134217728 cells,"
                       " cap is 16777216\n")


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


def test_zero_denominator_point_is_usage_error(capsys, tmp_path):
    path = tmp_path / "order.txt"
    path.write_text("type = order\npoints = 0 1/0\n")
    code, out, err = run(capsys, "check", "--instance", str(path),
                         "--relation", "div", "--axiom", "SYM")
    assert code == 2 and out == ""
    assert err == f"error: --instance: {path}: points: zero denominator\n"


def test_linear_instance_over_the_span_budget_is_usage_error(capsys, tmp_path):
    """Twelve independent GF(3) vectors would keep 4^12 span vectors of
    twelve coordinates; the file is refused once the spans pass the
    budget, as one error line."""
    units = " ".join(f"{1 << k:012b}" for k in range(12))
    path = tmp_path / "gf3-12.txt"
    path.write_text(f"type = linear\nfield = gf3\nvectors = {units}\n")
    code, out, err = run(capsys, "modular", "--instance", str(path))
    assert code == 2 and out == ""
    assert err == (f"error: --instance: {path}: the spans of 12 vectors need"
                   f" more than {relcalc.DEFAULT_TABLE_CAP_BITS} coordinates\n")


def test_linear_vectors_past_64_coordinates_stay_distinct(capsys, tmp_path):
    """Two independent GF(2) vectors of 65 coordinates, one in the first
    and one in the last: neither lies in the span of the empty set, so
    each has dimension 1 over it and together they are a basis."""
    zeros = "0" * 64
    path = tmp_path / "gf2-65.txt"
    path.write_text(f"type = linear\nvectors = 1{zeros} {zeros}1\n")
    code, out, _ = run(capsys, "dim", "--instance", str(path), "--set", "{1}")
    assert code == 0 and out == "dim=1 basis={1}\n"
    code, out, _ = run(capsys, "basis", "--instance", str(path),
                       "--set", "{0,1}")
    assert code == 0 and out == "basis={0,1}\n"


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


# ---------------------------------------------------------------------------
# No argument vector ends in a traceback.

GARBAGE = ("", "nope", "{", "0,x", "-1", "!", "opp(", "\u00e9", "--")
SMALL_CATALOG = tuple(
    name for name in CATALOG_NAMES if catalog_instance(name).ground.size <= 4
)
#: instance file key -> the values drawn for it: sizes in and out of
#: range, and malformed values of every key
FILE_VALUES = {
    "size": ("0", "1", "3", "4", "9", "-1", "17", "x"),
    "rank": ("2", "5", "-1"),
    "field": ("gf2", "gf3", "gf7"),
    "vectors": ("10 01 11", "1 2x", "100 01", ""),
    "edges": ("0-1 1-2", "0-0", "0-9", "a-b"),
    "points": ("0 1/2 3", "1/0", "0 1/0", "2 1", "x", ""),
    "cl {}": ("{}", "{0}"),
    "cl {0}": ("{0}", "{0,1}", "{9}", "{0"),
    "colour": ("red",),
}
#: instance type -> the keys it needs
FILE_TYPES = {
    "trivial": ("size",), "gebert": ("size",), "uniform": ("size", "rank"),
    "linear": ("field", "vectors"), "table": ("size", "cl {}", "cl {0}"),
    "graph": ("size", "edges"), "order": ("points",), "mystery": (),
}


@st.composite
def instance_files(draw) -> str:
    kind = draw(st.sampled_from(tuple(FILE_TYPES)))
    extra = draw(st.lists(st.sampled_from(tuple(FILE_VALUES)), max_size=2))
    lines = [f"type = {kind}"] + [
        f"{key} = {draw(st.sampled_from(FILE_VALUES[key]))}"
        for key in (*FILE_TYPES[kind], *extra)
    ]
    return "\n".join(lines) + "\n"


@st.composite
def argument_vectors(draw, inst_file: str, tmp_dir: str) -> list[str]:
    def one(*options: str) -> str:
        return draw(st.sampled_from(options))

    instance = draw(st.one_of(st.just(inst_file), st.sampled_from(
        (*SMALL_CATALOG, tmp_dir, "no/such/file", *GARBAGE))))
    relation = one(*RELATIONS, "opp(a)", "opp(opp(st))", "opp(nope)",
                   *GARBAGE)
    axiom = one(*(ax.value for ax in AxiomId), "bmon-r", *GARBAGE)
    subset = one("{0,1}", "0,1,2", "{}", "0,9", *GARBAGE)
    optional = {
        "--over": one("{2}", "{}", "3", *GARBAGE),
        "--relation": relation,
        "--space": one("catalog", "enum1", *GARBAGE),
        "--kind": one("pregeometry", "closure", "graph", "order", *GARBAGE),
        # at most the default n <= 6: n = 7, 8 tables take seconds
        "--max-n": one("0", "4", "6", *GARBAGE),
        "--instances": one("u34", "u34,nope", *GARBAGE),
        "--report": one(f"{tmp_dir}/report.txt",
                        f"{tmp_dir}/missing/report.txt", tmp_dir),
        "--all": None, "--strict": None, "--list": None, "-h": None,
        "--bogus": None,
    }
    argv = one(
        ("check", "--instance", instance, "--relation", relation,
         "--axiom", axiom),
        ("check", "--instance", instance, "--relation", relation, "--all"),
        ("compare", "--instance", instance, "--relations",
         one("cl,a", "a,opp(a)", "st,div", f"{relation},a", "int",
             "a,b,c", *GARBAGE)),
        ("dim", "--instance", instance, "--set", subset),
        ("basis", "--instance", instance, "--set", subset),
        ("modular", "--instance", instance),
        ("search", "--goal", one("!SYM", "SYM,!MON-R", "!BMON-R",
                                 "exchange-fail", "!SYM,!EX", "SYM",
                                 *GARBAGE)),
        # never a suite run: a --suite no suite has, or --list
        ("verify", "--suite", one("bogus", "all,", "")),
        ("verify", "--list"),
        ("list",),
        ("nope",),
    )
    extra = draw(st.lists(st.sampled_from(tuple(optional)), max_size=3))
    for flag in extra:
        argv += (flag,) if optional[flag] is None else (flag, optional[flag])
    # a last flag may lack its value
    return [*argv, *draw(st.sampled_from(((), (), ("--set",), ("--axiom",))))]


def test_no_argument_vector_ends_in_a_traceback(tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("cli-fuzz")
    inst_file = tmp_dir / "inst.txt"

    @settings(deadline=None, max_examples=300)
    @given(instance_files(), argument_vectors(str(inst_file), str(tmp_dir)))
    def call(text, argv):
        inst_file.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage error or --help
                code = exc.code
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()

    call()
