"""Check reports: the uniform result type for all verification operations."""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str


@dataclass
class Check:
    """Outcome of one verified instance of a law."""

    law: str
    instance: str
    passed: bool
    witness: str | None = None


@dataclass
class Report:
    subject: str
    checks: list[Check] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, law: str, instance: str, passed: bool, witness: str | None = None):
        self.checks.append(Check(law, instance, passed, witness if not passed else None))

    def add_verdict(self, law: str, instance: str, sub: "Report"):
        """Record ``sub``'s overall verdict as one check, witnessed by its first failure."""
        self.add(law, instance, sub.overall, None if sub.overall else sub.failures()[0].witness)

    def extend_from(self, other: "Report"):
        self.checks.extend(other.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def require(self, error: type[Exception]) -> "Report":
        """Raise ``error`` naming the first failing instance, if any."""
        if not self.overall:
            fail = self.failures()[0]
            raise error(f"{fail.instance}: {fail.witness}")
        return self

    def write_json(self, fh) -> None:
        """Write {subject, overall, checks: [{law, instance, pass, witness?}]} as ``json.dump(indent=2)`` and a
        newline would, line by line; the strings go through the C encoder that ``json.dumps`` uses for a str."""
        sep = "\n"
        fh.write(f'{{\n  "subject": {_json_str(self.subject)},\n  "overall": "{"pass" if self.overall else "fail"}",\n')
        fh.write('  "checks": [')
        for c in self.checks:
            witness = "" if c.witness is None else f',\n      "witness": {_json_str(c.witness)}'
            fh.write(f'{sep}    {{\n      "law": {_json_str(c.law)},\n      "instance": {_json_str(c.instance)},\n'
                     f'      "pass": {"true" if c.passed else "false"}{witness}\n    }}')
            sep = ",\n"
        fh.write("\n  ]\n}\n" if self.checks else "]\n}\n")

    def summary(self) -> str:
        lines = [f"subject: {self.subject}"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            line = f"  [{status}] {c.law} @ {c.instance}"
            if c.witness:
                line += f"  witness: {c.witness}"
            lines.append(line)
        lines.append(f"overall: {'pass' if self.overall else 'fail'}")
        return "\n".join(lines)
