"""Structured pass/fail records for inequality checks."""

from __future__ import annotations

from dataclasses import dataclass, field


def fmt17(x) -> str:
    """Format a float with 17 significant digits (deterministic output)."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class Certificate:
    """The inequality ``lhs >= rhs`` (``lhs <= rhs`` when ``upper``), held to
    ``tol``.

    ``lhs`` and ``rhs`` record the worst-case pair when the check ran over a
    sample set. The verdict follows from them: ``slack`` is the margin by
    which the inequality holds (``lhs - rhs``, or ``rhs - lhs`` when
    ``upper``) and ``passed`` is ``slack >= -tol``, false for a NaN.
    """

    name: str
    lhs: float
    rhs: float
    params: dict = field(default_factory=dict)
    upper: bool = False
    tol: float = 0.0

    @property
    def slack(self) -> float:
        lhs, rhs = float(self.lhs), float(self.rhs)
        return rhs - lhs if self.upper else lhs - rhs

    @property
    def passed(self) -> bool:
        return bool(self.slack >= -self.tol)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": fmt17(self.lhs),
            "rhs": fmt17(self.rhs),
            "slack": fmt17(self.slack),
            "pass": self.passed,
            "params": {k: (fmt17(v) if isinstance(v, float) else v)
                       for k, v in sorted(self.params.items())},
        }
