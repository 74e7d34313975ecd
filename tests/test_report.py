"""Reports: the JSON writer against ``json.dumps(indent=2)``, block reports against reports built check by check, and
one law sweep against single-law reports."""

import io
import json
from itertools import permutations

import pytest

from falgebroid.algebroid import Section, check_laws
from falgebroid.cli import _default_laws, main
from falgebroid.constructions import load_fixture
from falgebroid.duality import BundleMap, dubrovin_dual, nijenhuis_deformation
from falgebroid.exprparse import parse_array, parse_expr, presentation_to_document
from falgebroid.errors import FalgError
from falgebroid.report import Check, Report
from test_algebroid import (
    CHECKERS,
    MEMO_CASES,
    POINT_CASES,
    _carried_laws,
    _mutant,
    _outcomes,
    _plain_sweep,
    _point_oracle,
    _presentation,
    _section_families,
)

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
    checks = [c for single in reports for c in single.checks]
    firsts = {(c.law, c.instance): c for c in reversed(checks)}
    return Report(subject, [c for c in checks if firsts[c.law, c.instance] is c])


def _default_report(name):
    """The report of ``falg check --fixture name``: the merge of its default laws' single-law reports."""
    A = load_fixture(name)
    return merged_report(f"check {name}", [CHECKERS[law](A) for law in _default_laws(A)])


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_reports_write_as_json_dumps(name):
    assert_written_as_oracle(_default_report(name))


def test_dn2_prelie_com_report_writes_as_json_dumps():
    assert_written_as_oracle(CHECKERS["prelie-com"](load_fixture("DN2")))


def test_dn2_prelie_com_summary_reads_as_check_by_check():
    report = CHECKERS["prelie-com"](load_fixture("DN2"))
    assert report.summary() == summary_of(report.subject, report.checks)


def test_blocks_sharing_a_names_list_write_as_check_by_check():
    """Two blocks share one names list, as the rows of one case spec do; one passes, and one fails at its first and
    last positions, with and without a witness."""
    names = ["(E1,E1)", "(E1,E2)", "(E2,E1)", "(E2,E2)"]
    report = Report("shared")
    report.blocks += [("associativity", names, {}), ("psi-vanishing", names, {0: "1, 0", 3: None})]
    assert_written_as_oracle(report)
    assert report.summary() == summary_of(report.subject, report.checks)
    assert [c.instance for c in report.checks] == names + names and not report.overall


def test_names_that_need_escaping_write_as_json_dumps():
    """A run of several names that need escaping is written name by name through the encoder: ``extend`` puts a
    quoted, non-ASCII prefix before a 3-name block, and before a block with a failure between passing names; a
    3-name list that needs none comes first, so each list is tested for itself."""
    inner = Report("inner")
    inner.blocks += [("law", ["(E1)", "(E2)", "(E3)"], {}), ("law \\ 2", ["(E1)", "(E2)", "(E3)", "(E4)"], {1: "w"})]
    report = Report("outer")
    report.blocks.append(("plain", ["(E1)", "(E2)", "(E3)"], {}))
    report.extend(inner, '"q" ∘ ')
    assert [c.instance for c in report.checks][3:6] == ['"q" ∘ (E1)', '"q" ∘ (E2)', '"q" ∘ (E3)']
    assert_written_as_oracle(report)
    assert report.summary() == summary_of(report.subject, report.checks)
    assert_written_as_oracle(inner)


def test_empty_and_failing_reports_write_as_json_dumps():
    assert_written_as_oracle(Report("empty"))
    report = Report("mixed")
    report.add("associativity", "(E1,E1,E2)", False, "0, -3/2*u1 + u2^2")
    report.add("associativity", "(E1,E2,E2)", True)
    report.add("obstruction-vanishes", "theta_2", False, None)
    report.add("witnessed but empty", "(E2)", False, "")
    assert_written_as_oracle(report)
    assert report.summary() == summary_of(report.subject, report.checks)
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


# -- block reports against reports built check by check --------------------
#
# A law sweep records each row as one block. The oracle report is built through
# the constructor, one ``Check`` at a time, from the oracle's outcomes: over a
# point the Section evaluation, elsewhere the sweep loop that records each
# instance by itself. Both must read alike in every output.


def summary_of(subject, checks) -> str:
    """The text of a report with ``checks``: the oracle for ``Report.summary``."""
    lines = [f"subject: {subject}"]
    for c in checks:
        witness = f"  witness: {c.witness}" if c.witness else ""
        lines.append(f"  [{'pass' if c.passed else 'FAIL'}] {c.law} @ {c.instance}{witness}")
    return "\n".join(lines + [f"overall: {'pass' if all(c.passed for c in checks) else 'fail'}"])


def require_message(report):
    try:
        report.require(FalgError)
    except FalgError as exc:
        return str(exc)
    return None


BLOCK_CASES = POINT_CASES + [("SS4", seed) for seed in range(3)]


@pytest.mark.parametrize("name,seed", BLOCK_CASES, ids=[f"{n}-{s}" for n, s in BLOCK_CASES])
def test_block_reports_read_as_reports_built_check_by_check(name, seed, monkeypatch):
    A = _presentation(name) if seed is None else _mutant(name, seed)
    laws = _carried_laws(A)
    swept = {law: CHECKERS[law](A) for law in laws}
    if A.n == 0:
        oracles = _point_oracle(name, seed)
    else:
        import falgebroid.algebroid

        monkeypatch.setattr(falgebroid.algebroid, "_sweep", _plain_sweep)
        monkeypatch.setattr(falgebroid.algebroid, "LAWS", _section_families())
        oracles = {law: CHECKERS[law](A) for law in laws}
    for law in laws:
        report = swept[law]
        checks = [Check(*outcome) for outcome in _outcomes(oracles[law])]
        one_by_one = Report(report.subject, checks)
        assert len(one_by_one.blocks) == len(checks) and len(report.blocks) < len(checks)
        assert report.summary() == one_by_one.summary() == summary_of(report.subject, checks)
        text = written(report)
        assert text == written(one_by_one) and json.loads(text) == report_to_dict(one_by_one)
        assert report.failures()[:1] == one_by_one.failures()[:1] == [c for c in checks if not c.passed][:1]
        assert require_message(report) == require_message(one_by_one)
        assert report.overall == one_by_one.overall


def test_extend_moves_blocks_behind_a_prefix():
    inner = Report("inner", [Check("a", "x", True), Check("a", "y", False, "1"), Check("b", "z", False)])
    outer = Report("outer", [Check("c", "w", True)]).extend(inner, "[p] ")
    assert [(c.law, c.instance, c.passed, c.witness) for c in outer.checks] == [
        ("c", "w", True, None), ("a", "[p] x", True, None), ("a", "[p] y", False, "1"), ("b", "[p] z", False, None)]
    assert [c.instance for c in inner.checks] == ["x", "y", "z"]
    assert require_message(outer) == "[p] y: 1"


# -- one sweep against the merge of single-law reports ---------------------
#
# ``check_laws`` sweeps the union of the laws' families once, in first-occurrence
# order. The oracle is the merge ``falg check`` made before: every law's own
# report in turn, each (law, instance) pair kept at its first occurrence.

SWEEP_NAMES = ("FM2", "ACT2", "SS1", "SS2", "SS3", "SS4", "TR", "TR2", "POISSON_SEED", "DN1", "DN1_2", "DN2_2", "SS3-dual")
SWEEP_CASES = [(name, None) for name in SWEEP_NAMES]
SWEEP_CASES += [case for case in MEMO_CASES + POINT_CASES if case[1] is not None and case[0] != "DN2"]


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
