"""The four benchmark workloads.

``build(name, seed, workdir)`` generates a workload's inputs, parses the
generated documents with the library, and returns its job list. A job is
``Job(name, run, verify)``: ``run(state)`` is the timed call into the
library, and ``verify(output, state)`` runs after the pass, untimed, and
returns ``(errors, checks)`` where ``checks`` is the list of
``(law, instance)`` pairs the job's reports verified. ``state`` is a dict
shared by the jobs of one pass, so a job may consume an earlier job's
result (the A2 and A3 almost-duality chains, the deformation cochains
built from cohomology representatives).

All jobs run closed loop: each starts when the previous one returns.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Any, Callable

import gen
import oracle


@dataclass
class Job:
    name: str
    run: Callable[[dict], Any]
    verify: Callable[[Any, dict], tuple[list[str], list[tuple]]]


def _lib():
    names = ("algebroid", "cli", "deformation", "duality", "exprparse", "hierarchy", "constructions")
    return {n: importlib.import_module(f"falgebroid.{n}") for n in names}


def _pairs(report) -> list[tuple]:
    return [(c.law, c.instance) for c in report.checks]


def _expect_pass(report) -> tuple[list[str], list[tuple]]:
    errors = [] if report.overall else [f"{len(report.failures())} checks failed"]
    return errors, _pairs(report)


def _write_json(path: str, doc) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path


# -- law-sweep ------------------------------------------------------------------

DEFAULT_LAW_FIXTURES = ("FM2", "ACT2", "SS2", "SS3", "SS4", "TR", "TR2", "POISSON_SEED", "DN2_2")


def _cli_job(lib, name: str, argv: list[str], report_path: str, expect_exit: int, witness=None) -> Job:
    """A ``falg`` command run in process; ``witness`` is (variables, points) for mutants."""
    argv = argv + ["--json", report_path]

    def run(state):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return lib["cli"].main(argv)

    def verify(code, state):
        errors = []
        if code != expect_exit:
            errors.append(f"exit {code}, expected {expect_exit}")
        try:
            with open(report_path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return errors + [f"no JSON report: {exc}"], []
        os.remove(report_path)
        checks = [(c["law"], c["instance"]) for c in data["checks"]]
        failed = [c for c in data["checks"] if not c["pass"]]
        if (data["overall"] == "pass") != (expect_exit == 0):
            errors.append(f"report overall {data['overall']}")
        if witness is not None:
            errors += _check_witnesses(lib, failed, *witness)
        return errors, checks

    return Job(name, run, verify)


def _check_witnesses(lib, failed, names, points) -> list[str]:
    """Every failing check carries a witness that re-parses and is nonzero."""
    if not failed:
        return ["mutant produced no failing check"]
    errors = []
    for c in failed:
        if "witness" not in c:
            errors.append(f"{c['law']} {c['instance']}: no witness")
            continue
        comps = [lib["exprparse"].parse_expr(t, names) for t in c["witness"].split(", ")]
        if not oracle.witness_nonzero(comps, points):
            errors.append(f"{c['law']} {c['instance']}: witness is zero")
    return errors


def law_sweep(seed: int, workdir: str) -> list[Job]:
    lib = _lib()
    rng = random.Random(f"law-sweep:{seed}")
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    jobs = []
    for fx in DEFAULT_LAW_FIXTURES:
        jobs.append(_cli_job(lib, f"check {fx}", ["check", "--fixture", fx], path(f"r-{fx}.json"), 0))
    jobs.append(
        _cli_job(lib, "check DN2 prelie-com", ["check", "--fixture", "DN2", "--law", "prelie-com"], path("r-dn2.json"), 0)
    )
    for n in (2, 3):
        names = [f"u{i + 1}" for i in range(n)]
        ev = ",".join(gen.poly_text(p, names) for p in gen.diagonal_eventual(rng, n))
        out = path(f"dual-SS{n}.json")
        jobs.append(
            _cli_job(lib, f"dual SS{n}", ["dual", "--fixture", f"SS{n}", "--ev", ev, "--out", out], path(f"r-dual{n}.json"), 0)
        )
    jobs.append(_cli_job(lib, "hierarchy SS3", ["hierarchy", "--fixture", "SS3", "--alpha-max", "2"], path("r-h.json"), 0))
    for n in (2, 3):
        N = _write_json(path(f"N{n}.json"), gen.nijenhuis_matrix(rng, n))
        argv = ["deform", "--fixture", f"SS{n}", "--nijenhuis", N, "--out", path(f"def-SS{n}.json")]
        jobs.append(_cli_job(lib, f"deform nijenhuis SS{n}", argv, path(f"r-nij{n}.json"), 0))
    for r in (3, 4):
        alg = _write_json(path(f"qu{r}.json"), gen.algebra_document(gen.truncated_product(r), [1] + [0] * (r - 1)))
        mu = _write_json(path(f"mu1-{r}.json"), {"D": _weight_cochain_text(rng, r)})
        argv = ["deform", alg, "--mu1", mu, "--order", "2"]
        jobs.append(_cli_job(lib, f"deform mu1 Q[u]/u^{r}", argv, path(f"r-mu{r}.json"), 0))
    for n in (3, 4):
        doc = gen.mutant_doc(rng, n)
        f = _write_json(path(f"mutant{n}.json"), doc)
        witness = (doc["base_vars"], gen.sample_points(rng, n, 3))
        jobs.append(_cli_job(lib, f"mutant SS{n}", ["check", f], path(f"r-mut{n}.json"), 1, witness))
    return jobs


def _weight_cochain_text(rng, r: int) -> list:
    """n times the weight cocycle X·D(Y): its obstruction vanishes, so order 2 passes."""
    n = rng.choice([1, 2, 3])
    w = gen.weight_cocycle(r)
    return [[[str(n * w[k][i][j]) for j in range(r)] for i in range(r)] for k in range(r)]


# -- Frobenius structures -----------------------------------------------------------


def _frobenius_inputs(lib, seed: int, names=("A2", "A3", "B3")) -> dict:
    out = {}
    for name in names:
        data = gen.frobenius(name, seed)
        A = lib["exprparse"].parse_presentation(json.dumps(data["doc"]))
        E = lib["algebroid"].Section(
            [lib["exprparse"].parse_expr(t, A.base_vars) for t in data["euler_text"].split(",")]
        )
        out[name] = (data, A, E)
    return out


def almost_duality(seed: int, workdir: str) -> list[Job]:
    lib = _lib()
    alg, dua = lib["algebroid"], lib["duality"]
    inputs = _frobenius_inputs(lib, seed)
    prng = random.Random(f"almost-duality:points:{seed}")
    points = {name: gen.sample_points(prng, len(data["identity"]), 3) for name, (data, _, _) in inputs.items()}
    jobs = []
    for name, (data, A, E) in inputs.items():
        jobs.append(Job(f"check_f_algebroid {name}", lambda s, A=A: alg.check_f_algebroid(A), lambda out, s: _expect_pass(out)))

    def dual_job(name):
        data, A, E = inputs[name]

        def run(state):
            state[f"cert {name}"] = dua.dubrovin_dual(A, E)
            return state[f"cert {name}"]

        def verify(cert, state):
            return oracle.check_duality(data, points[name], cert.inverse, cert.dual.product), []

        return Job(f"dubrovin_dual {name}", run, verify)

    jobs.append(dual_job("A2"))
    jobs.append(Job("verify_certificate A2", lambda s: dua.verify_certificate(s["cert A2"]), lambda out, s: _expect_pass(out)))
    jobs.append(dual_job("A3"))
    data3, A3, E3 = inputs["A3"]

    def inverse_law(state):
        cert = state["cert A3"]
        return (A3.multiply(E3, cert.inverse) - A3.identity).is_zero()

    jobs.append(
        Job("inverse law A3", inverse_law, lambda ok, s: ([] if ok else ["E·E^-1 - e is nonzero"], [("inverse-law", "A3")]))
    )

    def found_identity(found, state):
        cert = state["cert A3"]
        if found is None:
            return ["find_identity(dual) found nothing"], []
        return oracle.check_duality(data3, points["A3"], found, cert.dual.product), [("dual-identity", "A3")]

    jobs.append(Job("find_identity dual A3", lambda s: alg.find_identity(s["cert A3"].dual), found_identity))
    jobs.append(
        Job("check_f_algebroid dual A3", lambda s: alg.check_f_algebroid(s["cert A3"].dual), lambda out, s: _expect_pass(out))
    )
    return jobs


def hierarchy(seed: int, workdir: str) -> list[Job]:
    lib = _lib()
    hi = lib["hierarchy"]
    inputs = _frobenius_inputs(lib, seed)
    prng = random.Random(f"hierarchy:points:{seed}")
    jobs = []
    for name, (data, T, E) in inputs.items():
        point = gen.sample_points(prng, T.n, 1)[0]
        basis = [T.basis(i) for i in range(T.rank)]
        for alpha in (1, 2, 3):

            def verify(h, state, data=data, point=point, alpha=alpha, n=T.rank):
                errors, checks = _expect_pass(h.commutation)
                want = n * (alpha + 1) * (n * (alpha + 1) - 1) // 2
                if len(checks) != want:
                    errors.append(f"{len(checks)} commutation checks, expected {want}")
                return errors + oracle.check_hierarchy_table(data, h.table, point), checks

            run = lambda s, T=T, basis=basis, alpha=alpha: hi.principal_hierarchy(T, hi.Connection(), basis, alpha)  # noqa: E731
            jobs.append(Job(f"principal_hierarchy {name} alpha={alpha}", run, verify))
    for name, (data, T, E) in inputs.items():
        run = lambda s, T=T, E=E: hi.eventual_identity_flows(T, E, T.identity)  # noqa: E731
        jobs.append(Job(f"eventual_identity_flows {name}", run, lambda out, s: _expect_pass(out)))
    return jobs


# -- deformation over a point ---------------------------------------------------

# (dim H, cocycle dim, coboundary dim) of the pre-Lie deformation complex.
EXPECTED_COHOMOLOGY = {
    ("FM2", 2): (2, 5, 3),
    ("FM2", 3): (1, 4, 3),
    ("Q[u]/u^3", 2): (6, 13, 7),
    ("Q[u]/u^3", 3): (6, 20, 14),
    ("Q[u]/u^4", 2): (12, 25, 13),
}


def _cochain(lib, arr) -> Any:
    """A degree-2 MultiDer over a point from Fraction data arr[k][i][j]."""
    de, Section, RatFunc = lib["deformation"], lib["algebroid"].Section, lib["algebroid"].RatFunc
    r = len(arr)
    D = {(i, j): Section([RatFunc.const(0, arr[k][i][j]) for k in range(r)]) for i in range(r) for j in range(r)}
    sigma = {(i,): lib["algebroid"].VectorField([]) for i in range(r)}
    return de.MultiDer(2, r, 0, D, sigma)


def _cochain_values(md, r: int) -> list:
    """Fraction data c[k][i][j] of a degree-2 cochain over a point."""
    return [[[oracle.eval_ratfunc(md.D[(i, j)].components[k], ()) for j in range(r)] for i in range(r)] for k in range(r)]


def deformation_point(seed: int, workdir: str) -> list[Job]:
    lib = _lib()
    de, cons = lib["deformation"], lib["constructions"]
    rng = random.Random(f"deformation-point:{seed}")
    fm2_bracket = [[[F(0)] * 2 for _ in range(2)], [[F(0), F(1)], [F(-1), F(0)]]]
    algebras = {
        "FM2": cons.FiniteAlgebra(2, gen.truncated_product(2), bracket=fm2_bracket, identity=[F(1), F(0)]),
        "Q[u]/u^3": cons.FiniteAlgebra(3, gen.truncated_product(3), identity=[F(1), F(0), F(0)]),
        "Q[u]/u^4": cons.FiniteAlgebra(4, gen.truncated_product(4), identity=[F(1), F(0), F(0), F(0)]),
    }
    jobs = []
    for name, algebra in algebras.items():
        r = algebra.dim
        base = algebra.to_presentation()
        prod = gen.truncated_product(r)
        d_phi, d_phi2, d_phi3 = (_cochain(lib, gen.coboundary1(prod, gen.random_cochain1(rng, r))) for _ in range(3))
        scale = rng.choice([1, 2, 3])
        weight = [[[v * scale for v in row] for row in m] for m in gen.weight_cocycle(r)]
        w_md = _cochain(lib, weight)
        coeffs = [rng.randint(-2, 2) for _ in range(EXPECTED_COHOMOLOGY[(name, 2)][0])]
        psi_coeffs = [rng.randint(-2, 2) for _ in coeffs]
        degrees = (2, 3) if r < 4 else (2,)
        for degree in degrees:

            def verify(res, state, name=name, degree=degree):
                got = (res.dim, res.cocycle_dim, res.coboundary_dim)
                want = EXPECTED_COHOMOLOGY[(name, degree)]
                errors = [] if got == want else [f"H^{degree} {got} != {want}"]
                if len(res.representatives) != res.dim:
                    errors.append("representative count differs from dim")
                return errors, [("cohomology", f"{name} H^{degree}")]

            def run(state, algebra=algebra, degree=degree, name=name):
                res = de.cohomology_point(algebra, degree)
                state[f"H{degree} {name}"] = res
                return res

            jobs.append(Job(f"cohomology_point {name} H^{degree}", run, verify))

        def combine(state, start, coeffs, name=name):
            md = start
            for c, rep in zip(coeffs, state[f"H2 {name}"].representatives):
                md = md + rep.scale(F(c))
            return md

        def n_deformation(state, base=base, name=name, d_phi=d_phi, coeffs=coeffs, combine=combine):
            mu1 = combine(state, d_phi, coeffs)
            state[f"mu1 {name}"] = mu1
            return de.check_n_deformation(de.FormalDeformation(base, [mu1]))

        def verify_n(report, state, r=r, name=name, prod=prod):
            errors, checks = _expect_pass(report)
            mu = _cochain_values(state[f"mu1 {name}"], r)
            if not all(oracle.order_holds([prod, mu], r, k) for k in (0, 1)):
                errors.append("oracle: mu1 is not a one-step deformation")
            return errors, checks

        jobs.append(Job(f"check_n_deformation {name}", n_deformation, verify_n))

        def obstruction(state, base=base, name=name):
            return de.obstruction(de.FormalDeformation(base, [state[f"mu1 {name}"]]))

        def verify_obstruction(theta, state, r=r, name=name):
            mu = _cochain_values(state[f"mu1 {name}"], r)
            bad = [
                idx
                for idx, X, Y, Z in oracle.basis_triples(r)
                if [oracle.eval_ratfunc(c, ()) for c in theta.D[idx].components] != oracle.residual([None, mu], 2, X, Y, Z)
            ]
            return ([f"obstruction differs from oracle at {bad[:3]}"] if bad else []), []

        jobs.append(Job(f"obstruction {name}", obstruction, verify_obstruction))

        def extend(state, base=base, name=name, w_md=w_md, d_phi2=d_phi2, psi_coeffs=psi_coeffs, combine=combine):
            psi = combine(state, d_phi2, psi_coeffs)
            state[f"psi {name}"] = psi
            return de.extend(de.FormalDeformation(base, [w_md]), psi)

        def verify_extend(ext, state, r=r, name=name, prod=prod, weight=weight):
            psi = _cochain_values(state[f"psi {name}"], r)
            errors = [] if ext.order == 2 else [f"extended order {ext.order}"]
            if not all(oracle.order_holds([prod, weight, psi], r, k) for k in (0, 1, 2)):
                errors.append("oracle: extension is not an order-2 deformation")
            return errors, [("extend", name)]

        jobs.append(Job(f"extend {name}", extend, verify_extend))

        def equivalence(state, base=base, name=name, d_phi3=d_phi3):
            mu1 = state[f"mu1 {name}"]
            return de.equivalence_check(base, mu1, mu1 - d_phi3)

        jobs.append(Job(f"equivalence_check {name}", equivalence, lambda out, s: _expect_pass(out)))
    return jobs


WORKLOADS = {
    "law-sweep": law_sweep,
    "almost-duality": almost_duality,
    "hierarchy": hierarchy,
    "deformation-point": deformation_point,
}


def build(name: str, seed: int, workdir: str) -> list[Job]:
    return WORKLOADS[name](seed, workdir)
