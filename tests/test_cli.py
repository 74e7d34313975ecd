"""CLI integration: exit codes, JSON report schema, witness round-trips."""

import json
import sys

import pytest

from falgebroid.cli import main
from falgebroid.exprparse import parse_expr, parse_presentation


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_fixture_pass(capsys):
    code, out, _ = run(["check", "--fixture", "SS2", "--law", "f-algebroid"], capsys)
    assert code == 0
    assert "overall: pass" in out


def test_check_prelie_com(capsys):
    code, out, _ = run(["check", "--fixture", "TR2", "--law", "prelie-com"], capsys)
    assert code == 0


def test_check_makes_one_sweep_and_builds_each_family_once(monkeypatch, capsys):
    """SS3's default laws, f-algebroid and pre-f, share the product laws; they are swept once, in one sweep."""
    import falgebroid.algebroid as alg

    sweeps, built = [], []
    sweep = alg._sweep
    monkeypatch.setattr(alg, "_sweep", lambda *args: sweeps.append(args) or sweep(*args))

    def counted(family):
        return lambda A: built.append(family.__name__) or family(A)

    wrapped = {family: counted(family) for families in alg.LAWS.values() for family in families}
    for law, families in list(alg.LAWS.items()):
        monkeypatch.setitem(alg.LAWS, law, tuple(wrapped[family] for family in families))
    code, out, _ = run(["check", "--fixture", "SS3"], capsys)
    assert code == 0 and "[pass] associativity @ (E1,E1,E1)" in out
    assert len(sweeps) == 1
    assert built == ["_comm_assoc", "_lie", "_hertling_manin", "_pre_lie", "_psi_symmetry"]


def test_check_builds_each_family_when_the_sweep_reaches_it(tmp_path, capsys):
    """Over a point, an earlier family's error comes before a later family's missing structure, as law by law."""
    big = "1" + "0" * 4000
    product = [[["0", "1"], ["1", "0"]], [[f"{big}*{big}", "0"], ["0", "0"]]]  # E1·E1 = 10^8000·E2: not associative
    path = tmp_path / "pt.json"
    path.write_text(json.dumps({"base_vars": [], "rank": 2, "product": product}))
    code, _, err = run(["check", str(path), "--law", "comm-assoc", "--law", "lie"], capsys)
    assert code == 1 and "verification failed: coefficient of more than" in err
    code, _, err = run(["check", str(path), "--law", "lie", "--law", "comm-assoc"], capsys)
    assert code == 2 and err == "error: missing structure: bracket\n"


def test_check_bad_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bad": true}')
    code, _, err = run(["check", str(bad)], capsys)
    assert code == 2
    assert "unknown field" in err


def test_check_boolean_rank_exits_2(tmp_path, capsys):
    path = tmp_path / "rank.json"
    path.write_text('{"base_vars": [], "rank": true, "product": [[["1"]]]}')
    code, out, err = run(["check", str(path)], capsys)
    assert (code, out, err) == (2, "", "error: rank: expected integer >= 1\n")


def test_check_missing_input_exits_2(capsys):
    assert run(["check"], capsys)[0] == 2
    assert run(["check", "--fixture", "NOPE"], capsys)[0] == 2
    assert run(["check", "/nonexistent/file.json"], capsys)[0] == 2


def test_usage_error_exits_2(capsys):
    assert main(["check", "--fixture", "SS2", "--law", "bogus"]) == 2
    capsys.readouterr()


def test_check_failure_exits_1_with_json_witness(tmp_path, capsys):
    # non-symmetric product to force failures with witnesses
    doc = {
        "base_vars": ["u1"],
        "rank": 2,
        "product": [
            [["0", "1"], ["0", "0"]],
            [["0", "0"], ["0", "0"]],
        ],
    }
    f = tmp_path / "asym.json"
    f.write_text(json.dumps(doc))
    report_path = tmp_path / "report.json"
    code, out, _ = run(["check", str(f), "--json", str(report_path)], capsys)
    assert code == 1
    data = json.loads(report_path.read_text())
    assert data["overall"] == "fail"
    assert {"subject", "overall", "checks"} <= set(data)
    failures = [c for c in data["checks"] if not c["pass"]]
    assert failures
    for c in failures:
        assert {"law", "instance", "pass", "witness"} <= set(c)
        # every witness component round-trips through the parser
        for comp in c["witness"].split(", "):
            parse_expr(comp, ["u1"])


def test_dual_writes_verified_structure_file(tmp_path, capsys):
    out_path = tmp_path / "dual.json"
    code, out, _ = run(
        ["dual", "--fixture", "SS2", "--ev", "u1,u2", "--out", str(out_path)], capsys
    )
    assert code == 0
    dual = parse_presentation(out_path.read_text())
    assert dual.identity is not None
    code, _, _ = run(["check", str(out_path), "--law", "f-algebroid"], capsys)
    assert code == 0


def test_dual_at_identity_is_original(tmp_path, capsys):
    out_path = tmp_path / "dual.json"
    code, _, _ = run(
        ["dual", "--fixture", "SS2", "--ev", "1,1", "--out", str(out_path)], capsys
    )
    assert code == 0
    from falgebroid.constructions import load_fixture

    dual = parse_presentation(out_path.read_text())
    assert dual.product == load_fixture("SS2").product


def test_dual_pre_f_failure_exits_1(capsys):
    code, _, err = run(
        ["dual", "--fixture", "TR2", "--ev", "u1^2,u2", "--pre-f"], capsys
    )
    assert code == 1
    assert "not an eventual identity" in err


def test_dual_bad_ev_arity_exits_2(capsys):
    code, _, err = run(["dual", "--fixture", "SS2", "--ev", "u1"], capsys)
    assert code == 2
    assert "error: --ev: expected 2 entries" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dual", "--ev", "u1+,0"], "--ev[0]: at position 3: expected integer, variable or '('"),
        (["dual", "--ev", "u1,v"], "--ev[1]: unknown variable 'v'"),
        (["hierarchy", "--flows", "u2,0;u1"], "--flows[1]: expected 2 entries"),
        (["hierarchy", "--flows", "u2,(;u1,0"], "--flows[0][1]: at position 1: expected integer, variable or '('"),
        (["dual", "--ev", "²,u2"], "--ev[0]: at position 0: expected valid token, found '²'"),
        (["dual", "--ev", "u1^²,u2"], "--ev[0]: at position 3: expected valid token, found '²'"),
    ],
    ids=["ev-syntax", "ev-variable", "flows-count", "flows-first-half-syntax", "ev-superscript", "ev-superscript-exponent"],
)
def test_section_argument_errors_name_their_path(argv, message, capsys):
    code, out, err = run([*argv, "--fixture", "SS2"], capsys)
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


def test_deeply_nested_ev_exits_2(capsys):
    ev = "(" * 5000 + "u1" + ")" * 5000 + ",u2"
    code, out, err = run(["dual", "--fixture", "SS2", "--ev", ev], capsys)
    assert code == 2
    assert err.startswith("error: --ev[0]: at position ")
    assert err.endswith(": expected expression nested less deeply\n")
    assert out == ""


@pytest.mark.parametrize(
    "ev, message",
    [
        ("u1^65536,u2", "--ev[0]: at position 3: expected exponent at most 65535"),
        ("u1^40000*u1^40000,u2", "--ev[0]: at position 17: expected total degree at most 65535"),
    ],
)
def test_degree_over_max_exits_2(ev, message, capsys):
    assert run(["dual", "--fixture", "SS2", "--ev", ev], capsys) == (2, "", f"error: {message}\n")


def test_literal_past_the_int_string_limit_exits_2(capsys):
    ev = "1" * 5000 + ",u2"
    message = f"--ev[0]: at position 0: expected integer of at most {sys.get_int_max_str_digits()} digits"
    assert run(["dual", "--fixture", "SS2", "--ev", ev], capsys) == (2, "", f"error: {message}\n")


def test_coefficient_past_the_int_string_limit_exits_1(tmp_path, capsys):
    # the eventual identity has a coefficient of 8001 digits, too long to write
    big = "1" + "0" * 4000
    out_path = tmp_path / "dual.json"
    code, out, err = run(["dual", "--fixture", "SS2", "--ev", f"{big}*{big}*u1,u2", "--out", str(out_path)], capsys)
    limit = sys.get_int_max_str_digits()
    assert (code, out, err) == (1, "", f"verification failed: coefficient of more than {limit} digits\n")
    assert not out_path.exists()


def test_degree_over_max_in_structure_file_exits_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"base_vars": ["u1"], "rank": 1, "product": [[["u1^40000*u1^40000"]]]}')
    code, out, err = run(["check", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: product[0][0][0]: at position 17: expected total degree at most 65535\n"


def _write_bytes(tmp_path, data):
    path = tmp_path / "input.json"
    path.write_bytes(data)
    return str(path)


_NOT_UTF8 = b'{"base_vars": ["\xff"]}'
_DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize(
    "argv",
    [
        lambda d: ["check", _write_bytes(d, _NOT_UTF8)],
        lambda d: ["deform", "--fixture", "SS2", "--mu1", _write_bytes(d, _NOT_UTF8)],
        lambda d: ["deform", "--fixture", "SS2", "--nijenhuis", _write_bytes(d, _NOT_UTF8)],
        lambda d: ["check", _write_bytes(d, _DEEP)],
        lambda d: ["check", "--fixture", "SS1", "--json", str(d / "missing" / "r.json")],
        lambda d: ["dual", "--fixture", "SS2", "--ev", "u1,u2", "--out", str(d / "missing" / "d")],
    ],
    ids=[
        "structure-not-utf8",
        "mu1-not-utf8",
        "nijenhuis-not-utf8",
        "deep-json",
        "json-missing-dir",
        "out-missing-dir",
    ],
)
def test_unreadable_input_and_unwritable_output_exit_2(argv, tmp_path, capsys):
    # main returns instead of raising: no exception escapes it
    code, _, err = run(argv(tmp_path), capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def nij_file(tmp_path):
    f = tmp_path / "N.json"
    f.write_text(json.dumps([["u1", "0"], ["0", "u2"]]))
    return f


def test_nijenhuis_deform_and_alias(tmp_path, capsys):
    N = nij_file(tmp_path)
    out_path = tmp_path / "deformed.json"
    code, _, _ = run(
        ["deform", "--fixture", "SS2", "--nijenhuis", str(N), "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    code, _, _ = run(["check", str(out_path), "--law", "f-algebroid"], capsys)
    assert code == 0
    # the former alias of deform is an unknown subcommand
    code, _, err = run(["nijenhuis", "--fixture", "SS2", "--nijenhuis", str(N)], capsys)
    assert code == 2
    assert "invalid choice: 'nijenhuis'" in err and "Traceback" not in err


def qu4_files(tmp_path, corrupt=False):
    r = 4
    prod = [
        [["1" if i + j == k else "0" for j in range(r)] for i in range(r)]
        for k in range(r)
    ]
    struct = tmp_path / "qu4.json"
    struct.write_text(
        json.dumps(
            {"base_vars": [], "rank": r, "product": prod, "identity": ["1", "0", "0", "0"]}
        )
    )
    D = [
        [[str(j) if i + j == k else "0" for j in range(r)] for i in range(r)]
        for k in range(r)
    ]
    if corrupt:
        D[0][1][1] = "1"
    mu = tmp_path / "mu1.json"
    mu.write_text(json.dumps({"D": D}))
    return struct, mu


def test_deform_mu1_path(tmp_path, capsys):
    struct, mu = qu4_files(tmp_path)
    code, out, _ = run(
        ["deform", str(struct), "--mu1", str(mu), "--order", "2"], capsys
    )
    assert code == 0
    assert "semiclassical" in out
    assert "obstruction-vanishes" in out


def test_deform_corrupted_mu1_exits_1(tmp_path, capsys):
    struct, mu = qu4_files(tmp_path, corrupt=True)
    code, out, _ = run(["deform", str(struct), "--mu1", str(mu)], capsys)
    assert code == 1
    assert "pre-lie-rule" in out


def test_deform_malformed_mu1_shapes_exit_2(tmp_path, capsys):
    zero = [["0", "0"], ["0", "0"]]
    zero3 = [zero, zero]
    shape, cell = "expected 2 ", "expected expression string"
    syntax = "at position 3: expected integer, variable or '('"
    cases = [
        ("--mu1", {"D": [[["0"]], [["0"]]]}, "$.D[0]", shape),
        ("--mu1", {"D": [[["0", "0", "1"], ["0", "0"]], zero]}, "$.D[0][0]", shape),
        ("--mu1", {"D": zero3, "sigma": [["1"], ["0"]]}, "$.sigma[0]", shape),
        ("--mu1", [{"D": zero3}, {"D": [zero, [["0", "0"], ["0"]]]}], "[1].D[1][1]", shape),
        ("--mu1", {"D": [[[1, "0"], ["0", "0"]], zero]}, "$.D[0][0][0]", cell),
        ("--nijenhuis", [["0", "0"]], "$", shape),
        ("--nijenhuis", [["0", "0"], ["0"]], "$[1]", shape),
        ("--nijenhuis", [[1, "0"], ["0", "0"]], "$[0][0]", cell),
        ("--nijenhuis", [["u1+", "0"], ["0", "0"]], "$[0][0]", syntax),
        ("--mu1", {"D": [[["u1+", "0"], ["0", "0"]], zero]}, "$.D[0][0][0]", syntax),
    ]
    for flag, doc, where, reason in cases:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["deform", "--fixture", "SS2", flag, str(path)], capsys)
        assert code == 2
        assert f"{where}: {reason}" in err
        assert "overall" not in out


def test_deform_requires_an_input(capsys):
    code, out, err = run(["deform", "--fixture", "SS2"], capsys)
    assert (code, out) == (2, "")
    assert "one of the arguments --nijenhuis --mu1 is required" in err


def test_deform_rejects_options_of_the_other_input(tmp_path, capsys):
    struct, mu = qu4_files(tmp_path)
    N, out_path = nij_file(tmp_path), tmp_path / "o.json"
    cases = [
        (["--fixture", "SS2", "--nijenhuis", str(N), "--mu1", str(mu)], "not allowed with argument"),
        (["--fixture", "SS2", "--nijenhuis", str(N), "--order", "3"], "--order applies only to --mu1"),
        ([str(struct), "--mu1", str(mu), "--out", str(out_path)], "--out applies only to --nijenhuis"),
    ]
    for argv, message in cases:
        code, out, err = run(["deform", *argv], capsys)
        assert (code, out) == (2, "")
        assert message in err and "Traceback" not in err
        assert not out_path.exists()


def test_deform_order_below_one_exits_2(tmp_path, capsys):
    struct, mu = qu4_files(tmp_path)
    for order in ("0", "-1"):
        code, out, err = run(["deform", str(struct), "--mu1", str(mu), "--order", order], capsys)
        assert code == 2
        assert "--order must be at least 1" in err
        assert "semiclassical" not in out


def test_hierarchy_negative_alpha_max_exits_2(capsys):
    code, _, err = run(["hierarchy", "--fixture", "SS2", "--alpha-max", "-1"], capsys)
    assert code == 2
    assert "--alpha-max must be non-negative" in err


def test_hierarchy_alpha_max_with_flows_exits_2(capsys):
    code, out, err = run(["hierarchy", "--fixture", "SS2", "--flows", "u1,0;u1,u2", "--alpha-max", "3"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: --alpha-max applies only to the principal hierarchy, not to --flows\n"


@pytest.mark.parametrize(
    "name", ["SS" + "1" * 5000, "DN1_" + "1" * 5000, "SS101"], ids=["SS1x5000", "DN1_1x5000", "SS101"]
)
def test_fixture_past_rank_limit_exits_2(name, capsys):
    code, out, err = run(["check", "--fixture", name], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: fixture {name!r} has rank above the limit 100\n"


def test_hierarchy_commands(tmp_path, capsys):
    code, _, _ = run(["hierarchy", "--fixture", "SS2", "--alpha-max", "2"], capsys)
    assert code == 0
    code, out, _ = run(
        ["hierarchy", "--fixture", "SS2", "--flows", "u2,0;u1,0"], capsys
    )
    assert code == 1
    assert "u1*u1_x*u2_x" in out
    code, _, _ = run(["hierarchy", "--fixture", "SS1", "--alpha-max", "0"], capsys)
    assert code == 0
    # non-tangent presentation is an input error
    assert run(["hierarchy", "--fixture", "FM2", "--alpha-max", "1"], capsys)[0] == 2


def test_fixtures_listing(capsys):
    code, out, _ = run(["fixtures"], capsys)
    assert code == 0
    assert "SS<n>" in out and "FM2" in out


def test_default_check_reports_each_pair_once(tmp_path, capsys):
    # SS2 carries a bracket and a pre-Lie operation, so the default check
    # runs f-algebroid and pre-f, which share the product laws
    paths = {}
    for tag, extra in (("default", []), ("f", ["--law", "f-algebroid"]), ("pre-f", ["--law", "pre-f"])):
        paths[tag] = tmp_path / f"{tag}.json"
        code, _, _ = run(["check", "--fixture", "SS2", *extra, "--json", str(paths[tag])], capsys)
        assert code == 0
    pairs = {
        tag: [(c["law"], c["instance"]) for c in json.loads(path.read_text())["checks"]]
        for tag, path in paths.items()
    }
    assert len(pairs["default"]) == len(set(pairs["default"]))
    assert set(pairs["default"]) == set(pairs["f"]) | set(pairs["pre-f"])


def test_dual_singular_ev_exits_1(capsys):
    # a well-formed section that is not invertible is a verification outcome
    for ev in ("0,0", "u1,0"):
        code, _, err = run(["dual", "--fixture", "SS2", "--ev", ev], capsys)
        assert code == 1
        assert "verification failed: matrix is singular" in err


def test_seed_flag_rejected(capsys):
    code, _, err = run(["check", "--fixture", "SS1", "--seed", "42"], capsys)
    assert code == 2
    assert "unrecognized arguments: --seed" in err


def test_monomial_at_max_degree_exits_1(capsys):
    # the gcds of u1^65535 are read off its key; then the dual's product passes the degree cap
    message = "verification failed: product of total degree over 65535\n"
    assert run(["dual", "--fixture", "SS2", "--ev", "u1^65535,u2"], capsys) == (1, "", message)


# -- golden bytes ------------------------------------------------------------
#
# The first 16 hex digits of the sha256 of the stdout and of the --json report
# of each command, recorded before reports kept their checks as blocks: every
# report keeps its bytes. No report lists an instance whose verdict is u^m (or
# u^m·u^p) times a listed frame instance: pre-lie-symmetry and the order rule
# scale only their third slot, and torsion is listed on frame pairs alone.

_QU3 = [[["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
        [["0", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]]]
_W3 = [[["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], [["0", "2", "0"], ["0", "0", "0"], ["0", "0", "0"]],
       [["0", "0", "4"], ["0", "2", "0"], ["0", "0", "0"]]]
GOLDEN_FILES = {
    # the documents of the command-line exit-code steps in CI
    "pt.json": {"base_vars": [], "rank": 2, "product": [[["0", "1"], ["1", "0"]], [["1", "0"], ["0", "0"]]]},
    "ss.json": {"base_vars": ["u1", "u2"], "rank": 2, "product": [[["1", "0"], ["0", "0"]], [["u2", "0"], ["0", "1"]]],
                "bracket": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]], "anchor": [["1", "0"], ["0", "1"]]},
    # Q[u]/u^2 with the one pre-Lie constant E1⋆E2 = E1: breaks pre-lie-symmetry and psi-vanishing
    "pl.json": {"base_vars": [], "rank": 2, "product": [[["1", "0"], ["0", "0"]], [["0", "1"], ["1", "0"]]],
                "prelie": [[["0", "1"], ["0", "0"]], [["0", "0"], ["0", "0"]]]},
    "qu3.json": {"base_vars": [], "rank": 3, "product": _QU3},
    "w3.json": {"D": _W3},
    "nc3.json": {"D": [[["0", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]], _W3[1], _W3[2]]},
    "n.json": [["u1", "0"], ["0", "u2"]],
    "t.json": [["u2", "0"], ["0", "u1"]],
    # a diagonal Nijenhuis operator with a rational entry
    "rn.json": [["1/(u1+1)", "0"], ["0", "u2"]],
    # cochains over (u1, u2) with the identity symbol rows: D = 0 deforms SS2, mu1(E1,E1) = E2 breaks order 1
    "s1.json": {"D": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]], "sigma": [["1", "0"], ["0", "1"]]},
    "s2.json": {"D": [[["0", "0"], ["0", "0"]], [["1", "0"], ["0", "0"]]], "sigma": [["1", "0"], ["0", "1"]]},
    # over (u1, u2, u3): D = 0 with symbol rows (u2, 0, 0), (0, u3, 0), 0 deforms SS3 to order 1, and its
    # obstruction, in the complex of SS3's product with zero anchor, is nonzero only in its symbol
    "ss3s.json": {"D": [[["0"] * 3] * 3] * 3, "sigma": [["u2", "0", "0"], ["0", "u3", "0"], ["0", "0", "0"]]},
    # a tangent presentation with E1·E2 = E2·E1 = E1 and E2·E2 = -E2: commutative, not associative, so its
    # commutator table K is nonzero
    "nc.json": {"base_vars": ["u1", "u2"], "rank": 2, "product": [[["0", "1"], ["1", "0"]], [["0", "0"], ["0", "-1"]]],
                "anchor": [["1", "0"], ["0", "1"]]},
}
GOLDEN_FIXTURES = ("FM2", "ACT2", "SS1", "SS2", "SS3", "SS4", "TR", "TR2", "POISSON_SEED", "DN1", "DN1_2", "DN2_2")
GOLDEN_ARGV = [["check", "--fixture", name] for name in GOLDEN_FIXTURES] + [
    ["check", "--fixture", "DN2", "--law", "prelie-com"],
    ["check", "pt.json"],
    ["check", "ss.json"],
    ["check", "pl.json", "--law", "prelie-com"],
    ["deform", "--fixture", "SS2", "--nijenhuis", "n.json"],
    ["deform", "--fixture", "SS2", "--nijenhuis", "t.json"],
    ["deform", "--fixture", "SS2", "--nijenhuis", "rn.json"],
    ["deform", "--fixture", "SS2", "--mu1", "s1.json", "--order", "2"],
    ["deform", "--fixture", "SS2", "--mu1", "s2.json"],
    ["deform", "qu3.json", "--mu1", "w3.json", "--order", "2"],
    ["deform", "qu3.json", "--mu1", "nc3.json"],
    ["deform", "--fixture", "SS3", "--mu1", "ss3s.json"],
    ["dual", "--fixture", "SS2", "--ev", "u1 + 1,2"],
    ["dual", "--fixture", "SS2", "--ev", "1/u1,1/(u2+1)"],
    ["dual", "--fixture", "SS2", "--ev", "u1,u2", "--pre-f"],
    ["dual", "--fixture", "TR2", "--ev", "u1^2,u2", "--pre-f"],
    ["hierarchy", "--fixture", "SS2", "--alpha-max", "2"],
    ["hierarchy", "--fixture", "SS2", "--flows", "u2,0;u1,0"],
    ["hierarchy", "--fixture", "SS2", "--flows", "u1/(u2+1),0;u1,0"],
    ["hierarchy", "--fixture", "SS3", "--alpha-max", "3"],
    ["hierarchy", "nc.json", "--flows", "u1,0;u1,u2"],
    ["hierarchy", "nc.json", "--flows", "1,0;u2,u1"],
]
GOLDEN = {
    'check --fixture FM2': (0, 'd39afbea20a6d245', 'ffda9de77579a3c1'),
    'check --fixture ACT2': (0, 'c1236872d05d8897', 'ec055d6c59cadfbf'),
    'check --fixture SS1': (0, '845bfcaa406d3011', 'ebc875d570c01917'),
    'check --fixture SS2': (0, '9197ab3ba11ce23a', '8ae4e0b43a7c8bf6'),
    'check --fixture SS3': (0, '2673c1889331bb25', '146b63fb17ae5b90'),
    'check --fixture SS4': (0, 'cd89268299151980', '3ffeaad9e12e12ad'),
    'check --fixture TR': (0, 'd93d4652b8e3a5aa', '6ab7b304f35a58d1'),
    'check --fixture TR2': (0, '29d26c98d79ffc39', 'f1cadd08a8db6816'),
    'check --fixture POISSON_SEED': (0, '2e1a8a6949c278fd', '7c464b863a89dd9f'),
    'check --fixture DN1': (0, '7f81845ef9e3d6f2', 'b2b2d80f5a913f0e'),
    'check --fixture DN1_2': (0, 'bdf9cd7013f533e6', '6542bf80095d8a8a'),
    'check --fixture DN2_2': (0, '33da44d8ef01decf', '00c76dfdaae78dd7'),
    'check --fixture DN2 --law prelie-com': (0, 'fd40f2cebe658e91', '66928d70aebbfa7f'),
    'check pt.json': (1, 'f71c8d3672c2b529', 'f96d0dc0103cbc98'),
    'check ss.json': (1, '4c91e3c0212e114d', 'db764071f6f1b4ed'),
    'check pl.json --law prelie-com': (1, 'c0200a1ae3c91a49', 'd63cfb0531395413'),
    'deform --fixture SS2 --nijenhuis n.json': (0, 'eabf98c1a04b1940', '09b19d800a691eb0'),
    'deform --fixture SS2 --nijenhuis t.json': (1, 'b1d598bf2132104d', 'a256817f1be9ec22'),
    'deform --fixture SS2 --nijenhuis rn.json': (0, '9ec442ada303fc57', '09b19d800a691eb0'),
    'deform --fixture SS2 --mu1 s1.json --order 2': (0, '13a37f1c8acb7bed', '399ddf3418b17e94'),
    'deform --fixture SS2 --mu1 s2.json': (1, '602b047109c0a888', 'cee51be08a06a9ea'),
    'deform qu3.json --mu1 w3.json --order 2': (0, '45a3d178aba209a8', '25801413821e56de'),
    'deform qu3.json --mu1 nc3.json': (1, '6c1445fe30e52f07', 'e950170722fbf9b0'),
    'deform --fixture SS3 --mu1 ss3s.json': (1, 'fb2bce95ef1cd85c', '71d1e5f52b12b137'),
    'dual --fixture SS2 --ev u1 + 1,2': (0, '1ceb080a527daef8', 'a3aabed0b3001ef8'),
    'dual --fixture SS2 --ev 1/u1,1/(u2+1)': (0, 'e62fc17cba4cab5b', 'a3aabed0b3001ef8'),
    'dual --fixture SS2 --ev u1,u2 --pre-f': (0, 'ad27822fd0c9c4a7', 'a3aabed0b3001ef8'),
    'dual --fixture TR2 --ev u1^2,u2 --pre-f': (1, 'e3b0c44298fc1c14', '407e4dc0850a7596'),
    'hierarchy --fixture SS2 --alpha-max 2': (0, '5d3798fa116a1c06', '18c83e7c629475a6'),
    'hierarchy --fixture SS2 --flows u2,0;u1,0': (1, 'df2d339b4c854a37', 'ea9e7ae0fb9bf6b5'),
    'hierarchy --fixture SS2 --flows u1/(u2+1),0;u1,0': (1, '4bb7b6439edc9163', 'ea687285fff674f1'),
    'hierarchy --fixture SS3 --alpha-max 3': (0, '5829cec45b9c1163', '8fa558442c5ae785'),
    'hierarchy nc.json --flows u1,0;u1,u2': (1, '3e2c6c3e48b26af2', '47c002ed71cd35b8'),
    'hierarchy nc.json --flows 1,0;u2,u1': (1, 'bb15bdf8d4a308d6', '0942f10b6c36af1a'),
}


def _golden(argv, tmp_path, monkeypatch, capsys) -> tuple:
    """The exit code and the sha256 of the stdout and of the --json bytes of ``falg argv``, run in ``tmp_path``; of
    the stderr bytes instead when the command is refused before it writes a report."""
    import hashlib

    monkeypatch.chdir(tmp_path)
    for name, doc in GOLDEN_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    code, out, err = run([*argv, "--json", "r.json"], capsys)
    digest = lambda data: hashlib.sha256(data).hexdigest()[:16]  # noqa: E731
    report = tmp_path / "r.json"
    return code, digest(out.encode()), digest(report.read_bytes() if report.exists() else err.encode())


@pytest.mark.parametrize("argv", GOLDEN_ARGV, ids=[" ".join(argv) for argv in GOLDEN_ARGV])
def test_outputs_keep_their_golden_bytes(argv, tmp_path, monkeypatch, capsys):
    assert _golden(argv, tmp_path, monkeypatch, capsys) == GOLDEN[" ".join(argv)]


GOLDEN_FLOWS = [argv for argv in GOLDEN_ARGV if "--flows" in argv]


@pytest.mark.parametrize("argv", GOLDEN_FLOWS, ids=[" ".join(argv) for argv in GOLDEN_FLOWS])
def test_flow_witnesses_keep_their_golden_bytes_without_json(argv, tmp_path, monkeypatch, capsys):
    """Without --json a failing flow pair prints the same bytes, its witness built from the jet residual."""
    import hashlib

    monkeypatch.chdir(tmp_path)
    for name, doc in GOLDEN_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    code, out, _ = run(argv, capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()[:16]) == GOLDEN[" ".join(argv)][:2]


def test_deform_failing_obstruction_has_a_witness(tmp_path, capsys):
    # an H^2 representative of Q[u]/u^3: mu1(E2,E2) = -E1, mu1(E2,E3) = E2; it passes orders 0 and 1, and its
    # obstruction is first nonzero at (E2,E3,E2)
    struct, mu = tmp_path / "qu3.json", tmp_path / "ob3.json"
    struct.write_text(json.dumps({"base_vars": [], "rank": 3, "product": _QU3}))
    zero = [["0", "0", "0"]] * 3
    mu.write_text(json.dumps({"D": [[["0", "0", "0"], ["0", "-1", "0"], ["0", "0", "0"]],
                                    [["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]], zero]}))
    code, out, _ = run(["deform", str(struct), "--mu1", str(mu), "--json", str(tmp_path / "r.json")], capsys)
    assert code == 1
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        "  [FAIL] obstruction-vanishes @ theta_1  witness: -1, 0, 0"
    ]
    last = json.loads((tmp_path / "r.json").read_text())["checks"][-1]
    assert last == {"law": "obstruction-vanishes", "instance": "theta_1", "pass": False, "witness": "-1, 0, 0"}


@pytest.mark.parametrize("mutant,want", [(False, 0), (True, 1)])
def test_closed_stdout_exits_with_the_verdict_and_no_traceback(mutant, want, tmp_path):
    """A reader that closes stdout after one line (``falg ... | head -1``) leaves the exit code of the verdict,
    not a BrokenPipeError traceback: DN2's ``prelie-com`` report is about 900 kB, far past a pipe's buffer."""
    import os
    import subprocess
    from pathlib import Path

    import falgebroid
    from falgebroid.constructions import load_fixture
    from falgebroid.exprparse import presentation_to_document

    source = ["--fixture", "DN2"]
    if mutant:  # DN2 with E1·E1 = E2 added: its product laws fail
        doc = presentation_to_document(load_fixture("DN2"))
        doc["product"][1][0][0] = "1"
        (tmp_path / "dn2.json").write_text(json.dumps(doc))
        source = [str(tmp_path / "dn2.json")]
    env = {**os.environ, "PYTHONPATH": str(Path(falgebroid.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "falgebroid.cli", "check", *source, "--law", "prelie-com"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=120) == want
    assert first.startswith(b"subject: check") and b"Traceback" not in proc.stderr.read()
    proc.stderr.close()
