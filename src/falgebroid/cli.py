"""Command line front end.

Exit codes: 0 all checks pass, 1 a verification fails, 2 bad input or
usage. The exception type decides: an ``InputError`` exits 2 and any
other ``FalgError`` exits 1. Files are read by ``_read`` and written by
``_write_json``, which turn an ``OSError`` into an ``InputError``. A
well-formed eventual identity that is not invertible at the generic
point (``dual --ev 0,0``) is a verification failure, exit 1.
Reports print as text to stdout; --json writes the same report as a
machine-readable document. ``check`` with several laws sweeps each of
their law families once, in first-occurrence order (``algebroid.LAWS``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .algebroid import LAWS, AlgebroidPresentation, Section, VectorField, check_laws
from .constructions import fixture_names, load_fixture
from .deformation import (
    FormalDeformation,
    MultiDer,
    check_n_deformation,
    obstruction,
    semiclassical_limit,
)
from .duality import (
    BundleMap,
    dubrovin_dual,
    nijenhuis_deformation,
    pre_f_dual,
    verify_certificate,
)
from .errors import FalgError, InputError, SchemaError
from .exprparse import decode_json, parse_array, parse_presentation, presentation_to_document
from .hierarchy import Connection, flow_from_section, flows_commute, principal_hierarchy
from .report import Report

def _read(path: str) -> bytes:
    """The contents of the file at ``path``; InputError if it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(str(exc)) from None


def _write_json(path: str | None, doc) -> None:
    """Write ``doc``, a Report or a structure document, as indented JSON to ``path``, or print it without one."""
    write = doc.write_json if isinstance(doc, Report) else lambda fh: fh.write(json.dumps(doc, indent=2) + "\n")
    if not path:
        return write(sys.stdout)
    try:
        with open(path, "w") as fh:
            write(fh)
    except OSError as exc:
        raise InputError(str(exc)) from None


def _load_presentation(args) -> AlgebroidPresentation:
    if args.fixture:
        return load_fixture(args.fixture)
    if not args.file:
        raise InputError("provide a structure file or --fixture NAME")
    return parse_presentation(_read(args.file))


def _emit(report: Report, json_path: str | None) -> int:
    print(report.summary())
    if json_path:
        _write_json(json_path, report)
    return 0 if report.overall else 1


def _default_laws(A: AlgebroidPresentation) -> list[str]:
    laws = []
    if A.has("bracket"):
        laws.append("f-algebroid")
    if A.has("prelie"):
        laws.append("pre-f")
    if not laws:
        laws.append("comm-assoc")
    return laws


def cmd_check(args) -> int:
    A = _load_presentation(args)
    report = check_laws(A, args.law or _default_laws(A), Report(f"check {args.fixture or args.file}"))
    return _emit(report, args.json)


def _parse_section(text: str, A: AlgebroidPresentation, what: str) -> Section:
    return Section(parse_array(text.split(","), (A.rank,), A.base_vars, what))


def cmd_dual(args) -> int:
    A = _load_presentation(args)
    E = _parse_section(args.ev, A, "--ev")
    cert = pre_f_dual(A, E) if args.pre_f else dubrovin_dual(A, E)
    report = verify_certificate(cert)
    _write_json(args.out, presentation_to_document(cert.dual))
    return _emit(report, args.json)


def _load_cochain(path: str, A: AlgebroidPresentation) -> list[MultiDer]:
    """Load one or more degree-2 cochains: {"D": c[k][i][j], "sigma": rows}."""
    raw = decode_json(_read(path))
    docs = raw if isinstance(raw, list) else [raw]
    r, n = A.rank, A.n
    out = []
    for pos, doc in enumerate(docs):
        path_k = f"[{pos}]" if isinstance(raw, list) else "$"
        if not isinstance(doc, dict) or "D" not in doc:
            raise SchemaError(path_k, "expected an object with a 'D' tensor")
        tensor = parse_array(doc["D"], (r, r, r), A.base_vars, f"{path_k}.D")
        D = {(i, j): Section(mat[i][j] for mat in tensor) for i in range(r) for j in range(r)}
        sigma = {(i,): VectorField.zero(n) for i in range(r)}
        if doc.get("sigma") is not None:
            rows = parse_array(doc["sigma"], (r, n), A.base_vars, f"{path_k}.sigma")
            sigma = {(i,): VectorField(row) for i, row in enumerate(rows)}
        out.append(MultiDer(2, r, n, D, sigma))
    return out


def cmd_deform(args) -> int:
    if args.nijenhuis and args.order is not None:
        raise InputError("--order applies only to --mu1, not to --nijenhuis")
    if args.mu1 and args.out:
        raise InputError("--out applies only to --nijenhuis, not to --mu1")
    if args.order is not None and args.order < 1:
        raise InputError(f"--order must be at least 1, got {args.order}")
    A = _load_presentation(args)
    if args.nijenhuis:
        rows = parse_array(decode_json(_read(args.nijenhuis)), (A.rank, A.rank), A.base_vars, "$")
        torsion, deformed = nijenhuis_deformation(A, BundleMap(rows))
        report = Report("nijenhuis deformation").extend(torsion)
        if deformed is not None:
            check_laws(deformed, _default_laws(deformed), report)
            _write_json(args.out, presentation_to_document(deformed))
        return _emit(report, args.json)
    mus = _load_cochain(args.mu1, A)
    order = args.order if args.order is not None else len(mus)
    while len(mus) < order:
        mus.append(MultiDer.zero(2, A.rank, A.n))
    deform = FormalDeformation(A, mus[:order])
    report = check_n_deformation(deform)
    if report.overall:
        limit = semiclassical_limit(deform)
        names, bracket = [limit.basis_name(i) for i in range(limit.rank)], limit._tables["bracket"]
        for i in range(limit.rank):
            for j in range(i + 1, limit.rank):  # [E_i,E_j] is the bracket table's entry: a(E_i)(1) = 0
                val = Section._of(bracket.get((i, j), ()), limit.rank, limit.n)
                print(f"semiclassical [{names[i]},{names[j]}] = {limit.fmt(val)}")
        witness = obstruction(deform).witness(A.base_vars)
        report.add("obstruction-vanishes", f"theta_{order}", witness is None, witness)
    return _emit(report, args.json)


def cmd_hierarchy(args) -> int:
    if args.flows and args.alpha_max is not None:
        raise InputError("--alpha-max applies only to the principal hierarchy, not to --flows")
    if args.alpha_max is not None and args.alpha_max < 0:
        raise InputError(f"--alpha-max must be non-negative, got {args.alpha_max}")
    A = _load_presentation(args)
    if args.flows:
        halves = args.flows.split(";")
        if len(halves) != 2:
            raise InputError("--flows expects two ';'-separated section expressions")
        X = _parse_section(halves[0], A, "--flows[0]")
        Y = _parse_section(halves[1], A, "--flows[1]")
        F = flow_from_section(A, X)
        G = flow_from_section(A, Y)
        return _emit(flows_commute(F, G, A.base_vars), args.json)
    alpha = args.alpha_max if args.alpha_max is not None else 1
    basis = [A.basis(i) for i in range(A.rank)]
    data = principal_hierarchy(A, Connection(), basis, alpha)
    return _emit(data.commutation, args.json)


def cmd_fixtures(args) -> int:
    for name, desc in sorted(fixture_names().items()):
        print(f"{name}\t{desc}")
    return 0


@cache  # built once per process: parse_args does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="falg",
        description="Exact symbolic checks for F-algebroids and their deformations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", nargs="?", help="structure file (JSON)")
        p.add_argument("--fixture", help="built-in fixture name (see 'fixtures')")
        p.add_argument("--json", metavar="PATH", help="also write the report as JSON")

    p = sub.add_parser("check", help="verify structure laws")
    common(p)
    p.add_argument(
        "--law",
        action="append",
        choices=sorted(LAWS),
        help="law to check (repeatable); default inferred from structures",
    )
    p.set_defaults(func="cmd_check")

    p = sub.add_parser("dual", help="build and verify an eventual-identity dual")
    common(p)
    p.add_argument("--ev", required=True, help="eventual identity, comma-separated components")
    p.add_argument("--pre-f", dest="pre_f", action="store_true", help="use the pre-F dual")
    p.add_argument("--out", help="write the dual structure file here")
    p.set_defaults(func="cmd_dual")

    p = sub.add_parser("deform", help="Nijenhuis or formal deformation checks")
    common(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--nijenhuis", metavar="FILE", help="bundle-map matrix file (JSON)")
    source.add_argument("--mu1", metavar="FILE", help="deformation cochain file (JSON)")
    p.add_argument(
        "--order", type=int, help="deformation order: pads with zero cochains or drops those past it (--mu1 only)"
    )
    p.add_argument("--out", help="write the deformed structure file here (--nijenhuis only)")
    p.set_defaults(func="cmd_deform")

    p = sub.add_parser("hierarchy", help="flow commutation and the principal hierarchy")
    common(p)
    p.add_argument("--alpha-max", type=int, dest="alpha_max", help="hierarchy depth")
    p.add_argument("--flows", help="two sections 'x1,..,xr;y1,..,yr' to compare directly")
    p.set_defaults(func="cmd_hierarchy")

    p = sub.add_parser("fixtures", help="list built-in fixtures")
    p.set_defaults(func="cmd_fixtures")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    code = None
    try:
        code = globals()[args.func](args)  # by name: the cached parser must not pin a command a caller rewraps
        sys.stdout.flush()  # a reader that closed stdout fails here, not in the interpreter's last flush
        return code
    except BrokenPipeError:
        # send the rest to devnull, where the last flush cannot fail; exit with the code the command returns on an
        # open stdout, running it again if the pipe closed before it returned
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return main(argv) if code is None else code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FalgError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
