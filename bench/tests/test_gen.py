"""The generator is a pure function of the seed, and seeds differ only in coefficients."""

import json
from pathlib import Path

import gen
import workloads


def _seeds_with_other_scales(name):
    first = gen.frobenius(name, 1)["scales"]
    return next(s for s in range(2, 50) if gen.frobenius(name, s)["scales"] != first)


def test_same_seed_same_bytes():
    for name in gen.POTENTIALS:
        a = json.dumps(gen.frobenius(name, 7)["doc"], sort_keys=True)
        b = json.dumps(gen.frobenius(name, 7)["doc"], sort_keys=True)
        assert a == b


def test_other_seed_changes_coefficients_not_support():
    for name in gen.POTENTIALS:
        a = gen.frobenius(name, 1)
        b = gen.frobenius(name, _seeds_with_other_scales(name))
        assert a["potential"].keys() == b["potential"].keys()
        assert a["potential"] != b["potential"]
        for ka, kb in zip(a["c"], b["c"]):
            for ra, rb in zip(ka, kb):
                for pa, pb in zip(ra, rb):
                    assert pa.keys() == pb.keys()
        assert a["doc"]["product"] != b["doc"]["product"]


def _written_files(tmp_path, workload, seed, sub):
    d = tmp_path / sub
    d.mkdir()
    workloads.build(workload, seed, str(d))
    return {p.name: p.read_bytes() for p in sorted(Path(d).iterdir())}


def test_law_sweep_files_repeat_byte_for_byte(tmp_path):
    a = _written_files(tmp_path, "law-sweep", 3, "a")
    b = _written_files(tmp_path, "law-sweep", 3, "b")
    c = _written_files(tmp_path, "law-sweep", 4, "c")
    assert a and a == b
    assert a.keys() == c.keys() and a != c


def test_coboundary_is_a_cocycle_and_weight_cochain_deforms():
    import random

    import oracle

    for r in (2, 3, 4):
        prod = gen.truncated_product(r)
        d = gen.coboundary1(prod, gen.random_cochain1(random.Random(r), r))
        assert all(oracle.order_holds([prod, d], r, k) for k in (0, 1))
        w = gen.weight_cocycle(r)
        assert all(oracle.order_holds([prod, w], r, k) for k in (0, 1, 2))
