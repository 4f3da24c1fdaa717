"""Structured pass/fail records for inequality checks."""

from __future__ import annotations

from dataclasses import dataclass, field


def fmt17(x) -> str:
    """Format a float with 17 significant digits (deterministic output)."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class Certificate:
    """Outcome of a single certified inequality.

    ``lhs`` and ``rhs`` record the worst-case pair when the check ran over a
    sample set; ``slack`` is ``lhs - rhs`` (>= 0 means the inequality holds
    with margin).
    """

    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": fmt17(self.lhs),
            "rhs": fmt17(self.rhs),
            "slack": fmt17(self.slack),
            "pass": bool(self.passed),
            "params": {k: (fmt17(v) if isinstance(v, float) else v)
                       for k, v in sorted(self.params.items())},
        }


def comparison_certificate(name, lhs, rhs, params=None, tol=0.0) -> Certificate:
    """Certificate for ``lhs >= rhs - tol``."""
    slack = float(lhs) - float(rhs)
    return Certificate(name=name, lhs=float(lhs), rhs=float(rhs),
                       slack=slack, passed=bool(slack >= -tol),
                       params=dict(params or {}))
