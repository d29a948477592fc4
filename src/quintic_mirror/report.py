"""Pass/fail records for verification runs, with serializers.

A ``Check`` names the verified identity in mathematical terms and carries
the first offending coefficient when it fails.  Reports are lists of
checks; serialization is deterministic and free of floating point.

Import rule, kept for the CLI's start-up: no stdlib module is imported
only for annotations, and ``json`` is imported inside ``report_json``,
the one output path that uses it.
"""

from __future__ import annotations

__all__ = ["Check", "report_text", "report_json", "all_passed"]


class Check:
    __slots__ = ("name", "identity", "passed", "detail")

    def __init__(self, name: str, identity: str, passed: bool,
                 detail: str = ""):
        self.name = name
        self.identity = identity
        self.passed = passed
        self.detail = detail


def all_passed(checks: list[Check]) -> bool:
    return all(c.passed for c in checks)


def report_text(checks: list[Check]) -> str:
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        line = f"{status}  {c.name}: {c.identity}"
        if c.detail:
            line += f"  [{c.detail}]"
        lines.append(line)
    return "\n".join(lines)


def report_json(checks: list[Check]) -> str:
    import json
    return json.dumps({"checks": [{"name": c.name, "identity": c.identity,
                                   "passed": c.passed, "detail": c.detail}
                                  for c in checks],
                       "passed": all_passed(checks)},
                      indent=2, sort_keys=True)
