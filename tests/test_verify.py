import re

import pytest

from pregeolab.verify import (
    SUITES,
    SuiteResult,
    UnknownSuite,
    render_report,
    render_summary,
    run_suite,
    run_suites,
)

FAST_SUITES = [s for s in SUITES if s != "rg-st"]

RESULT_RE = re.compile(
    r"^RESULT \S+ \S+ (pass|fail|vacuous)"
    r"( witness=\{[0-9,]*\}(;\{[0-9,]*\})*)?$"
)


@pytest.fixture(scope="module")
def fast_results():
    return {s: run_suite(s) for s in FAST_SUITES}


def test_all_fast_suites_pass(fast_results):
    for suite_id, res in fast_results.items():
        assert res.passed, (suite_id, [c.result_line() for c in res.failures()])
        assert res.checks


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("no-such-suite")
    with pytest.raises(UnknownSuite):
        run_suite("pregeom-axioms", instances=["no-such-instance"])


def test_result_line_grammar(fast_results):
    for res in fast_results.values():
        lines = res.result_lines()
        assert lines[0] == f"SUITE {res.suite} pass"
        for line in lines[1:]:
            assert RESULT_RE.match(line), line


def test_report_is_deterministic_across_workers():
    suites = ["pregeom-axioms", "mon-preserve", "dim-laws"]
    base = render_report(run_suites(suites, workers=1))
    for workers in (4, 8):
        assert render_report(run_suites(suites, workers=workers)) == base
    assert render_report(run_suites(suites, workers=1)) == base


def test_instance_restriction():
    full = run_suite("pregeom-axioms")
    only = run_suite("pregeom-axioms", instances=["u34"])
    assert only.passed
    assert 0 < len(only.checks) < len(full.checks)
    assert all(c.subject.startswith("u34") for c in only.checks)


def test_render_summary(fast_results):
    text = render_summary(list(fast_results.values()))
    for suite_id in fast_results:
        assert suite_id in text
    assert "FAIL" not in text


def test_suite_result_failures():
    from pregeolab.verify import CheckResult

    good = CheckResult("x", "c", "pass", None)
    bad = CheckResult("y", "c", "fail", (1, 2))
    res = SuiteResult("demo", [good, bad])
    assert not res.passed
    assert res.failures() == [bad]
    assert res.result_lines()[0] == "SUITE demo fail"
