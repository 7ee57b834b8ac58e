"""Bound reports and the text encoding: the one file reader and writer, the
record rule of the fermistate/fermirdm formats and the block reader both take
their rows through, 17-digit numbers (an exact double round trip) and JSON
escaped to ASCII.
"""

from __future__ import annotations

import io
import json
import math
import warnings
from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

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


# text is cut into blocks of about this many characters, so a large file's
# lines, and the rows numpy reads from them, never all exist at once
_BLOCK_CHARS = 1 << 16

# line boundaries str.splitlines honours besides \n and \r\n; numpy's reader
# takes them for field separators, so a block holding one goes to the row walk
_OTHER_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def blocks(text: str, start: int = 0, chars: int = _BLOCK_CHARS) -> Iterator[str]:
    """text[start:], a block at a time: each block ends at the first newline
    at least `chars` characters on (or at the end), so no line break, a CR LF
    pair included, is cut."""
    while start < len(text):
        end = text.find("\n", start + chars) + 1 or len(text)
        yield text[start:end]
        start = end


def _is_record(words: list[str]) -> bool:
    return bool(words) and not words[0].startswith("#")


def records(block: str) -> Iterator[list[str]]:
    """Lazily, the fields of each line of block.splitlines() that is neither
    blank nor a `#` comment."""
    return filter(_is_record, map(str.split, block.splitlines()))


def head(text: str, magic: str | None = None) -> tuple[list[str] | None, int]:
    """The fields of the first record (see `records`) and the offset at which
    the text after its line begins, or (None, len(text)) for a text without
    one; only the lines up to the record are split. With `magic`, the first
    field must be exactly `magic`."""
    start = 0
    lines = (line for piece in blocks(text, chars=0)
             for line in piece.splitlines(keepends=True))
    for line in lines:
        start += len(line)
        record = line.split()
        if _is_record(record):
            break
    else:
        record = None
    if magic is not None and (record is None or record[0] != magic):
        raise ShapeError(f"not a {magic} file (missing header)")
    return record, start


def array_rows(block: str, dtype: np.dtype) -> np.ndarray | None:
    """The rows of `block` as read by numpy's C reader, a (rows, columns)
    array of `dtype` (one column for a structured dtype), or None where numpy
    refuses the block, where the block is blank (numpy warns on it), and where
    it holds a line boundary other than LF and CR LF. `#` is text, not a
    comment, so a block holding a comment line is refused; every refused
    block is left to the caller's row walk, which reads what numpy cannot and
    raises the caller's own errors."""
    if (block.isspace() or any(c in block for c in _OTHER_BREAKS)
            or block.count("\r") != block.count("\r\n")):
        return None
    try:
        with warnings.catch_warnings():
            # from numpy 1.23 until that deprecation expired, the reader took
            # an integer column's "1.0" as 1 and only warned; int() refuses it
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(io.StringIO(block), dtype=dtype, comments=None, ndmin=2)
    except (ValueError, DeprecationWarning):
        return None
