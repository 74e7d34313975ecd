"""Reports: the JSON writer against ``json.dumps(indent=2)``, and one law sweep against single-law reports."""

import io
import json
from itertools import permutations

import pytest

from falgebroid.algebroid import Section, check_laws
from falgebroid.cli import _default_laws, main
from falgebroid.constructions import load_fixture
from falgebroid.duality import BundleMap, dubrovin_dual, nijenhuis_deformation
from falgebroid.exprparse import parse_array, parse_expr, presentation_to_document
from falgebroid.report import Report
from test_algebroid import CHECKERS, MEMO_CASES, POINT_CASES, _carried_laws, _mutant, _outcomes, _presentation

FIXTURES = ("FM2", "ACT2", "SS1", "SS2", "SS3", "SS4", "TR", "TR2", "POISSON_SEED", "DN1", "DN1_2", "DN2_2")


def check_to_dict(c) -> dict:
    """The JSON object of one check: the oracle for ``Report.write_json``."""
    d = {"law": c.law, "instance": c.instance, "pass": c.passed}
    if c.witness is not None:
        d["witness"] = c.witness
    return d


def report_to_dict(report: Report) -> dict:
    """The JSON document of a report: the oracle for ``Report.write_json``."""
    return {
        "subject": report.subject,
        "overall": "pass" if report.overall else "fail",
        "checks": [check_to_dict(c) for c in report.checks],
    }


def written(report: Report) -> str:
    fh = io.StringIO()
    report.write_json(fh)
    return fh.getvalue()


def assert_written_as_oracle(report: Report):
    assert written(report) == json.dumps(report_to_dict(report), indent=2) + "\n"


def merged_report(subject, reports):
    """The checks of ``reports`` in turn, each (law, instance) pair at its first occurrence."""
    report = Report(subject)
    for single in reports:
        report.checks.extend(single.checks)
    firsts = {(c.law, c.instance): c for c in reversed(report.checks)}
    report.checks = [c for c in report.checks if firsts[c.law, c.instance] is c]
    return report


def _default_report(name):
    """The report of ``falg check --fixture name``: the merge of its default laws' single-law reports."""
    A = load_fixture(name)
    return merged_report(f"check {name}", [CHECKERS[law](A) for law in _default_laws(A)])


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_reports_write_as_json_dumps(name):
    assert_written_as_oracle(_default_report(name))


def test_dn2_prelie_com_report_writes_as_json_dumps():
    assert_written_as_oracle(CHECKERS["prelie-com"](load_fixture("DN2")))


def test_empty_and_failing_reports_write_as_json_dumps():
    assert_written_as_oracle(Report("empty"))
    report = Report("mixed")
    report.add("associativity", "(E1,E1,E2)", False, "0, -3/2*u1 + u2^2")
    report.add("associativity", "(E1,E2,E2)", True)
    report.add("obstruction-vanishes", "theta_2", False, None)
    report.add("witnessed but empty", "(E2)", False, "")
    assert_written_as_oracle(report)
    failing = Report("all failing")
    failing.add("jacobi", "(E1,E2,E3)", False, "1")
    assert_written_as_oracle(failing)


def test_strings_are_escaped_as_json_dumps_escapes_them():
    report = Report('check "quoted" \\ back\\slash, non-ASCII: ∘ ⋆ é 😀 and control \t\n\x01')
    report.add('law "q"', "instance \\ ∘", False, 'witness "w" \\ ⋆\n')
    report.add("pass", "é", True)
    assert_written_as_oracle(report)
    assert_written_as_oracle(Report('only "a" subject ∘'))


def test_cli_json_matches_the_oracle_and_out_documents_stay_indented(tmp_path, capsys):
    """--json is the report document; --out stays ``json.dumps(indent=2)`` of the structure document."""
    report_path, out_path, nij = tmp_path / "r.json", tmp_path / "d.json", tmp_path / "n.json"
    assert main(["check", "--fixture", "SS2", "--json", str(report_path)]) == 0
    assert report_path.read_text() == json.dumps(report_to_dict(_default_report("SS2")), indent=2) + "\n"
    A = load_fixture("SS2")
    assert main(["dual", "--fixture", "SS2", "--ev", "u1 + 1,2", "--out", str(out_path)]) == 0
    dual = dubrovin_dual(A, Section([parse_expr("u1 + 1", A.base_vars), parse_expr("2", A.base_vars)])).dual
    assert out_path.read_text() == json.dumps(presentation_to_document(dual), indent=2) + "\n"
    nij.write_text('[["u1 + 2", "0"], ["0", "3"]]')
    assert main(["deform", "--fixture", "SS2", "--nijenhuis", str(nij), "--out", str(out_path)]) == 0
    rows = parse_array(json.loads(nij.read_text()), (2, 2), A.base_vars, "$")
    deformed = nijenhuis_deformation(A, BundleMap(rows))[1]
    assert out_path.read_text() == json.dumps(presentation_to_document(deformed), indent=2) + "\n"
    capsys.readouterr()


# -- one sweep against the merge of single-law reports ---------------------
#
# ``check_laws`` sweeps the union of the laws' families once, in first-occurrence
# order. The oracle is the merge ``falg check`` made before: every law's own
# report in turn, each (law, instance) pair kept at its first occurrence.

SWEEP_NAMES = ("FM2", "ACT2", "SS1", "SS2", "SS3", "SS4", "TR", "TR2", "POISSON_SEED", "DN1", "DN1_2", "DN2_2", "SS3-dual")
SWEEP_CASES = [(name, None) for name in SWEEP_NAMES]
SWEEP_CASES += [case for case in MEMO_CASES + POINT_CASES if case[1] is not None]


@pytest.mark.parametrize("name,seed", SWEEP_CASES, ids=[f"{n}-{s}" for n, s in SWEEP_CASES])
def test_one_sweep_matches_the_first_occurrence_merge(name, seed):
    """All carried laws in both orders, and every ordered list of 1-3 carried laws on a fixture; to bound the
    time, lists of 1-2 laws on the rank-3 and rank-4 fixtures and on DN2_2, and none on the mutants."""
    A = _presentation(name) if seed is None else _mutant(name, seed)
    carried = _carried_laws(A)
    singles = {law: CHECKERS[law](A) for law in carried}
    longest = 0 if seed is not None else 2 if name in ("SS3", "SS3-dual", "SS4", "DN2_2") else 3
    lists = [list(laws) for k in range(1, longest + 1) for laws in permutations(carried, k)]
    for laws in lists + [carried, carried[::-1]]:
        swept = check_laws(A, laws, Report("check"))
        merged = merged_report("check", [singles[law] for law in laws])
        assert _outcomes(swept) == _outcomes(merged), laws
