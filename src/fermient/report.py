"""Bound reports and their serialization.

Reports serialize to JSON lines with every real number written as decimal
with 17 significant digits, which round-trips doubles exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .config import TOL, Tolerances


@dataclass
class BoundReport:
    """One evaluated inequality: holds <=> slack >= -grace."""

    name: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    context: dict = field(default_factory=dict)


def bound_report(name: str, lhs: float, rhs: float, direction: str = ">=",
                 tol: Tolerances = TOL, grace: float | None = None,
                 **context) -> BoundReport:
    """Build a report for `lhs direction rhs`; slack is oriented so that
    slack >= 0 means the inequality holds with margin, and the report holds
    when slack >= -grace (default tol.bound_slack)."""
    if grace is None:
        grace = tol.bound_slack
    if direction == ">=":
        slack = lhs - rhs
    elif direction == "<=":
        slack = rhs - lhs
    else:
        raise ValueError(f"direction must be '>=' or '<=', got {direction!r}")
    return BoundReport(name=name, lhs=float(lhs), rhs=float(rhs),
                       slack=float(slack), holds=bool(slack >= -grace),
                       context=dict(context))


def fmt17(x: float) -> str:
    """Decimal with 17 significant digits (exact double round trip)."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _json_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        s = fmt17(v)
        return f'"{s}"' if s in ("NaN", "Infinity", "-Infinity") else s
    if isinstance(v, int):
        return str(v)
    if v is None:
        return "null"
    s = str(v).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{s}"'


def json_value(v) -> str:
    """JSON text for dict/list/scalar trees with 17-digit floats."""
    if isinstance(v, dict):
        items = ", ".join(f'{_json_scalar(str(k))}: {json_value(x)}' for k, x in v.items())
        return "{" + items + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(json_value(x) for x in v) + "]"
    return _json_scalar(v)


def report_json_line(r: BoundReport) -> str:
    return json_value({"name": r.name, "lhs": r.lhs, "rhs": r.rhs,
                       "slack": r.slack, "holds": r.holds, "context": r.context})
