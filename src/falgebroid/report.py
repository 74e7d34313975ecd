"""Check reports: the uniform result type for all verification operations.

A report keeps its checks in blocks (law, instance names in order, {position: witness} of the failing ones in
ascending position), one per law sweep row (a case spec's rows share one names list) and per ``add``. ``checks`` and
``failures`` build ``Check`` objects on read; other readers walk the blocks, and the writers join runs of passing names.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str


@dataclass
class Check:
    """Outcome of one verified instance of a law."""

    law: str
    instance: str
    passed: bool
    witness: str | None = None


class Report:
    def __init__(self, subject: str, checks=()):
        self.subject, self.blocks = subject, []
        for c in checks:
            self.add(c.law, c.instance, c.passed, c.witness)

    @property
    def checks(self) -> list[Check]:
        return [Check(law, name, i not in fails, fails.get(i)) for law, names, fails in self.blocks
                for i, name in enumerate(names)]

    @property
    def overall(self) -> bool:
        return not any(fails for _, _, fails in self.blocks)

    def add(self, law: str, instance: str, passed: bool, witness: str | None = None):
        self.blocks.append((law, [instance], {} if passed else {0: witness}))

    def add_verdict(self, law: str, instance: str, sub: "Report"):
        """Record ``sub``'s overall verdict as one check, witnessed by its first failure."""
        self.add(law, instance, sub.overall, None if sub.overall else sub.failures()[0].witness)

    def extend(self, other: "Report", prefix: str = "") -> "Report":
        """Append ``other``'s blocks, each instance name behind ``prefix``; return self."""
        self.blocks += [(law, [prefix + name for name in names], fails) for law, names, fails in other.blocks]
        return self

    def failures(self) -> list[Check]:
        return [Check(law, names[i], False, w) for law, names, fails in self.blocks for i, w in fails.items()]

    def require(self, error: type[Exception]) -> "Report":
        """Raise ``error`` naming the first failing instance, if any."""
        if fails := self.failures():
            raise error(f"{fails[0].instance}: {fails[0].witness}")
        return self

    def write_json(self, fh) -> None:
        """Write {subject, overall, checks: [{law, instance, pass, witness?}]} as ``json.dump(indent=2)`` and a
        newline would, a run of passing checks (``_runs``) at a time, raw if no name of its list needs escaping."""
        fh.write(f'{{\n  "subject": {_json_str(self.subject)},\n'
                 f'  "overall": "{"pass" if self.overall else "fail"}",\n  "checks": [')
        sep, ok, plain = "", ',\n      "pass": true\n    }', {}
        for law, names, fails in self.blocks:
            head = f'\n    {{\n      "law": {_json_str(law)},\n      "instance": '
            if (q := plain.get(id(names))) is None:  # once per list: the escape of a join joins the escapes
                q = plain[id(names)] = '"' if _json_str(joined := "".join(names)) == f'"{joined}"' else ""
            for run, i in _runs(names, fails):
                if run:
                    fh.write(f"{sep}{head}{q}{f'{q}{ok},{head}{q}'.join(run if q else map(_json_str, run))}{q}{ok}")
                    sep = ","
                if i is not None:
                    witness = "" if fails[i] is None else f',\n      "witness": {_json_str(fails[i])}'
                    fh.write(f'{sep}{head}{_json_str(names[i])},\n      "pass": false{witness}\n    }}')
                    sep = ","
        fh.write("\n  ]\n}\n" if sep else "]\n}\n")

    def summary(self) -> str:
        lines = [f"subject: {self.subject}"]
        for law, names, fails in self.blocks:
            sep = f"\n  [pass] {law} @ "
            for run, i in _runs(names, fails):
                if run:
                    lines.append(sep[1:] + sep.join(run))
                if i is not None:
                    lines.append(f"  [FAIL] {law} @ {names[i]}" + (f"  witness: {w}" if (w := fails[i]) else ""))
        lines.append(f"overall: {'pass' if self.overall else 'fail'}")
        return "\n".join(lines)


def _runs(names: list, fails: dict):
    """(run, i) for each failing position i after the passing names before it, then (the rest, or names, None)."""
    start = 0
    for i in fails:
        yield names[start:i], i
        start = i + 1
    yield names[start:] if start else names, None
