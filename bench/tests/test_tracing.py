"""The tracer wraps from outside, counts deterministically and restores everything."""

import importlib
import inspect

from tracing import LAYERS, Tracer

MODULES = [importlib.import_module(f"falgebroid.{layer}") for layer in LAYERS]


def _snapshot():
    """Every function reachable from a module namespace, class dict or module-level dict."""
    seen = {}
    for mod in MODULES:
        for key, value in vars(mod).items():
            if inspect.isfunction(value):
                seen[(mod.__name__, key)] = value
            elif isinstance(value, dict) and not key.startswith("__"):
                for dk, dv in value.items():
                    if inspect.isfunction(dv):
                        seen[(mod.__name__, key, dk)] = dv
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for attr, raw in vars(value).items():
                    seen[(mod.__name__, key, attr)] = raw
    return seen


def _job():
    from falgebroid.algebroid import check_f_algebroid
    from falgebroid.cli import main
    from falgebroid.constructions import load_fixture

    assert check_f_algebroid(load_fixture("ACT2")).overall
    assert main(["check", "--fixture", "SS2"]) == 0


def test_restore_leaves_the_original_functions(capsys):
    before = _snapshot()
    tracer = Tracer()
    with tracer:
        during = _snapshot()
        changed = [k for k in before if before[k] is not during[k]]
        assert ("falgebroid.ring", "Poly", "gcd") in changed
        assert ("falgebroid.algebroid", "solve") in changed  # imported from linalg
        assert ("falgebroid.cli", "_LAWS", "f-algebroid") in changed
        _job()
    # load_fixture("ACT2") checks its algebra, then the direct call and the CLI
    assert tracer.calls("algebroid.check_f_algebroid") == 3
    assert tracer.calls("cli.main") == 1
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # an untraced run after restore records nothing
    _job()
    assert tracer.calls("cli.main") == 1
    capsys.readouterr()


def test_counts_repeat_exactly(capsys):
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            _job()
        counts.append({name: st[0] for name, st in tracer.stats.items()})
        assert tracer.calls("ring.ratfunc_add") > 0
        assert tracer.spans and all(s[3] <= s[4] for s in tracer.spans)
    assert counts[0] == counts[1]
    capsys.readouterr()


def test_self_time_never_exceeds_inclusive_time(capsys):
    tracer = Tracer()
    with tracer:
        _job()
    for calls, total, self_s in tracer.stats.values():
        assert -1e-9 <= self_s <= total + 1e-9
    roots = [s for s in tracer.spans if s[1] == 0]
    covered = sum(s[4] - s[3] for s in roots)
    assert sum(tracer.layer_self_s().values()) <= covered + 1e-6
    capsys.readouterr()
