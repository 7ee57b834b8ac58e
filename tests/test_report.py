import json
import math

import numpy as np
import pytest

from fermient.report import _json_scalar, fmt17, json_value


def _json_scalar_general(v):
    # the general encoding every scalar used to take
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        s = fmt17(v)
        return f'"{s}"' if s in ("NaN", "Infinity", "-Infinity") else s
    if isinstance(v, int):
        return str(v)
    if v is None:
        return "null"
    return json.dumps(str(v))


class _Tag(str):
    pass


_SCALARS = [
    'say "hi"', "back\\slash", "tab\there", "del\x7f", "café", "ρ₁",
    "", "dir with spaces/state 1.fermistate", "plain-name_01", " ~", "\n",
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1, 1 / 3,
    math.nan, math.inf, -math.inf, True, False, 0, -7, 10 ** 30, None,
    np.float64(0.1), np.float64(-0.0), np.float64(np.nan), np.float64(np.inf),
    np.int64(3), np.bool_(True), np.str_("rho"), _Tag("tag"),
]


@pytest.mark.parametrize("v", _SCALARS, ids=repr)
def test_json_scalar_matches_the_general_encoding(v):
    assert _json_scalar(v) == _json_scalar_general(v)


def test_json_value_text_is_ascii_and_parses_back():
    row = {"name": 'a "b"\\c', "lhs": -0.0, "rhs": 5e-324, "holds": True,
           "context": {"M": 6, "S1": 0.1, "file": "café x", "list": [1.5, "t\tu"]}}
    text = json_value(row)
    assert text.isascii()
    back = json.loads(text)
    assert back["name"] == row["name"] and back["context"]["file"] == "café x"
    assert '"lhs": -0,' in text and back["rhs"] == 5e-324
