"""Bound reports and the text encoding: the one file reader and writer, the
record rule of the fermistate/fermirdm formats, 17-digit numbers (an exact
double round trip) and JSON escaped to ASCII.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields
from typing import Iterator

from .config import TOL, Tolerances
from .errors import NumericalError, ShapeError

FMT17 = "%.17g"   # 17 significant digits: an exact decimal round trip for doubles


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
    when slack >= -grace (default tol.bound_slack). Either side may be
    infinite, but a NaN slack raises NumericalError: it is no verdict."""
    if grace is None:
        grace = tol.bound_slack
    if direction == ">=":
        slack = lhs - rhs
    elif direction == "<=":
        slack = rhs - lhs
    else:
        raise ValueError(f"direction must be '>=' or '<=', got {direction!r}")
    if math.isnan(slack):
        raise NumericalError(f"{name}: slack of {lhs!r} {direction} {rhs!r} is NaN")
    return BoundReport(name=name, lhs=float(lhs), rhs=float(rhs),
                       slack=float(slack), holds=bool(slack >= -grace),
                       context=dict(context))


def fmt17(x: float) -> str:
    """Decimal with 17 significant digits (exact double round trip)."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return FMT17 % float(x)


def _json_scalar(v) -> str:
    if isinstance(v, float):
        return FMT17 % v if math.isfinite(v) else f'"{fmt17(v)}"'
    # a string json.dumps would quote as it is (printable ASCII without " or \)
    if (type(v) is str and v.isascii() and v.isprintable()
            and '"' not in v and "\\" not in v):
        return f'"{v}"'
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if v is None:
        return "null"
    return json.dumps(str(v))


def json_value(v) -> str:
    """JSON text for dict/list/scalar trees with 17-digit floats."""
    if isinstance(v, dict):
        items = ", ".join(f'{_json_scalar(str(k))}: {json_value(x)}' for k, x in v.items())
        return "{" + items + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(json_value(x) for x in v) + "]"
    return _json_scalar(v)


REPORT_COLUMNS = tuple(f.name for f in fields(BoundReport))


def report_row(r: BoundReport) -> list:
    """A report's fields in REPORT_COLUMNS order: one JSON line or CSV row."""
    return [getattr(r, name) for name in REPORT_COLUMNS]


def report_json_line(r: BoundReport) -> str:
    return json_value(dict(zip(REPORT_COLUMNS, report_row(r))))


def read_text(path) -> str:
    """The text of an ASCII file; any other byte is a ShapeError that names
    the file and the byte's offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ShapeError(f"{path}: non-ASCII byte at offset {exc.start}") from None


def write_text(path, text: str) -> None:
    """Write `text` to `path` as UTF-8: fermistate, fermirdm and JSON text is
    ASCII already, and a CSV cell may hold a non-ASCII input path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# records splits the text into lines a block of about this many characters
# at a time, so a large file's lines never all exist at once
_BLOCK_CHARS = 1 << 16


def _lines(text: str) -> Iterator[str]:
    """text.splitlines(), lazily: each block ends at a newline, so no line
    break, a CR LF pair included, is cut."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def records(text: str, magic: str | None = None) -> Iterator[list[str]]:
    """Lazily, the fields of each line that is neither blank nor a `#`
    comment; with `magic`, the first field must be exactly `magic`."""
    recs = (f for f in map(str.split, _lines(text)) if f and not f[0].startswith("#"))
    if magic is None:
        return recs
    head = next(recs, None)
    if head is None or head[0] != magic:
        raise ShapeError(f"not a {magic} file (missing header)")
    return itertools.chain([head], recs)
