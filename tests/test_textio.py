"""Parity of the fermistate and fermirdm readers with a reference reader.

The readers take their rows a block at a time through numpy's C reader and
walk a block row by row where numpy refuses it or a check fails. The
reference below is the plain rule the README states: str.splitlines, blank
and `#` lines skipped, the exact magic word, then int()/float() on every
field with the documented checks. For every input both must give the same
amplitude or matrix bytes, or raise the same exception type with the same
message.
"""

import math

import numpy as np
import pytest

from fermient import (PHYSICS, UNIT, PureStateN, RankedBasis, YangParams, cli, dumps_rdm,
                      dumps_state, loads_rdm, loads_state, random_pure_state,
                      rdmcore, reduce_pure, rescale, statekit, yang_state)
from fermient.errors import NormalizationError, ShapeError


def _records(text):
    return [f for f in map(str.split, text.splitlines()) if f and not f[0].startswith("#")]


def _reference_state(text):
    recs = _records(text)
    if not recs or recs[0][0] != "fermistate":
        raise ShapeError("not a fermistate file (missing header)")
    header = recs[0]
    try:
        _, m_s, n_s = header
        basis = RankedBasis(int(m_s), int(n_s))
    except ValueError as exc:
        raise ShapeError(f"malformed fermistate header: {' '.join(header)!r}") from exc
    amps = np.zeros(basis.dim, dtype=complex)
    seen = set()
    for fields in recs[1:]:
        try:
            idx_s, re_s, im_s = fields
            idx, value = int(idx_s), complex(float(re_s), float(im_s))
        except ValueError as exc:
            raise ShapeError(f"malformed fermistate row: {' '.join(fields)!r}") from exc
        if not 0 <= idx < basis.dim:
            raise ShapeError(f"amplitude index {idx} outside basis of dim {basis.dim}")
        if idx in seen:
            raise ShapeError(f"amplitude index {idx} appears twice")
        seen.add(idx)
        amps[idx] = value
    return PureStateN(basis, amps)


def _reference_rdm(text):
    recs = _records(text)
    if not recs or recs[0][0] != "fermirdm":
        raise ShapeError("not a fermirdm file (missing header)")
    header = recs[0]
    try:
        _, m_s, k_s, tag = header
        M, k = int(m_s), int(k_s)
    except ValueError as exc:
        raise ShapeError(f"malformed fermirdm header: {' '.join(header)!r}") from exc
    if tag not in (UNIT, PHYSICS):
        raise NormalizationError(f"unknown normalization tag {tag!r}")
    D = RankedBasis(M, k).dim
    rows = []
    for i, fields in enumerate(recs[1:]):
        try:
            vals = [float(x) for x in fields]
        except ValueError as exc:
            raise ShapeError(f"row {i} has a non-numeric entry: {' '.join(fields)!r}") from exc
        if len(vals) != 2 * D:
            raise ShapeError(f"row {i} has {len(vals)} numbers, expected {2 * D}")
        if not all(map(math.isfinite, vals)):
            raise ShapeError(f"row {i} has a non-finite entry: {' '.join(fields)!r}")
        rows.append(vals)
    if len(rows) != D:
        raise ShapeError(f"expected {D} matrix rows, found {len(rows)}")
    return np.array(rows, dtype=float).view(complex)


def _state_outcome(read, text):
    try:
        st = read(text)
    except Exception as exc:
        return type(exc), str(exc)
    return st.basis, st.amplitudes.tobytes()


def _rdm_outcome(read, text):
    try:
        mat = read(text)
    except Exception as exc:
        return type(exc), str(exc)
    return mat.shape, mat.tobytes()


def _loads_rdm_matrix(text):
    return loads_rdm(text).matrix


# ---------------------------------------------------------------------------
# fermistate

# the reduce-large files: random states at (12,6), (13,6), (14,7) and the
# paired state m=7, n=3; the (14,7) text spans three reader blocks
_LARGE = {
    "random-12-6": dumps_state(random_pure_state(RankedBasis(12, 6), seed=1100)),
    "random-13-6": dumps_state(random_pure_state(RankedBasis(13, 6), seed=1101)),
    "random-14-7": dumps_state(random_pure_state(RankedBasis(14, 7), seed=1102)),
    "pair-7-3": dumps_state(yang_state(YangParams(7, 3))),
}


def _edit_row(text, row, new):
    """`text` with its row-th body line (0 = first amplitude row) replaced."""
    lines = text.splitlines(keepends=True)
    lines[1 + row] = new
    return "".join(lines)


_BIG = _LARGE["random-14-7"]
_LATE = 3000    # a row in the last block of the (14,7) text
_LATE_INDEX = _BIG.splitlines()[1 + _LATE].split()[0]

# a unit state on the 20-dim (6,3) basis, as hand-written rows
_HEAD = "fermistate 6 3\n"
_STATE_TEXTS = {
    **_LARGE,
    "plain": _HEAD + "0 0.6 0\n10 0 0.8\n",
    "blank-and-space-lines": _HEAD + "\n0 0.6 0\n   \n\t\n10 0 0.8\n\n",
    "crlf": (_HEAD + "0 0.6 0\n10 0 0.8\n").replace("\n", "\r\n"),
    "tabs": "fermistate\t6\t3\n0\t0.6\t0\n\t10 0\t0.8\n",
    "no-final-newline": _HEAD + "0 0.6 0\n10 0 0.8",
    "leading-plus": _HEAD + "+0 +0.6 +0\n+10 +0 +0.8\n",
    "underscore-index": _HEAD + "0 0.6 0\n1_0 0 0.8\n",
    "underscore-value": _HEAD + "0 0.6 0\n10 0 0.8_0\n",
    "minus-zero": _HEAD + "-0 0.6 -0\n10 -0 0.8\n",
    "nan": _HEAD + "0 nan 0\n10 0 0.8\n",
    "inf": _HEAD + "0 0.6 inf\n10 0 0.8\n",
    "vertical-tab": _HEAD + "0 0.6\x0b0\n10 0 0.8\n",
    "form-feed": _HEAD + "0 0.6\x0c0\n10 0 0.8\n",
    "file-separator": _HEAD + "0 0.6\x1c0\n10 0 0.8\n",
    "next-line": _HEAD + "0 0.6\x850\n10 0 0.8\n",
    "line-separator": _HEAD + "0 0.6\u20280\n10 0 0.8\n",
    "bare-cr": _HEAD + "0 0.6 0\r10 0 0.8\n",
    "unit-separator": _HEAD + "0 0.6\x1f0\n10 0 0.8\n",
    "comment-after-fields": _HEAD + "0 0.6 0 # note\n10 0 0.8\n",
    "comment-line": _HEAD + "0 0.6 0\n# note\n  #x y\n10 0 0.8\n",
    "float-index": _HEAD + "0 0.6 0\n1.0 0 0.8\n",
    "repeated-index": _HEAD + "0 0.6 0\n0 0 0.8\n",
    "index-past-the-basis": _HEAD + "0 0.6 0\n20 0 0.8\n",
    "negative-index": _HEAD + "-1 0.6 0\n10 0 0.8\n",
    "huge-index": _HEAD + "99999999999999999999 0.6 0\n",
    "two-fields": _HEAD + "0 0.6\n10 0 0.8\n",
    "four-fields": _HEAD + "0 0.6 0 0\n10 0 0.8\n",
    "no-rows": _HEAD,
    "not-unit": _HEAD + "0 0.6 0\n",
    "hex-float": _HEAD + "0 0x1p-1 0\n",
    "non-ascii-digit": _HEAD + "0 0.6 0\n\u0661\u0660 0 0.8\n",
    "missing-header": "0 0.6 0\n",
    "wrong-magic": "fermistates 6 3\n0 0.6 0\n",
    "malformed-header": "fermistate 6 x\n",
    "magic-after-comments": "# a\n\n#b\n" + _HEAD + "0 0.6 0\n10 0 0.8\n",
    "magic-line-ends-in-vertical-tab": "fermistate 6 3\x0b0 0.6 0\n10 0 0.8\n",
    # oddities in the last block of a three-block file
    "large-crlf": _BIG.replace("\n", "\r\n"),
    "large-comment-line": _edit_row(_BIG, _LATE, "# a note\n" + _BIG.splitlines()[1 + _LATE] + "\n"),
    "large-vertical-tab": _edit_row(_BIG, _LATE, _BIG.splitlines()[1 + _LATE].replace(" ", "\x0b", 1) + "\n"),
    "large-repeat-across-blocks": _edit_row(_BIG, _LATE, _BIG.splitlines()[1].split()[0] + " 0 0\n"),
    "large-index-past-the-basis": _edit_row(_BIG, _LATE, "3432 0 0\n"),
    "large-underscore-index": _edit_row(
        _BIG, _LATE, "_".join(_LATE_INDEX) + _BIG.splitlines()[1 + _LATE][len(_LATE_INDEX):] + "\n"),
    "large-leading-plus": "".join(("+" + ln if ln[0].isdigit() else ln)
                                  for ln in _BIG.splitlines(keepends=True)),
    "large-malformed-then-repeat": _edit_row(_edit_row(_BIG, 2900, "7 0.1\n"), _LATE,
                                             _BIG.splitlines()[1].split()[0] + " 0 0\n"),
}


@pytest.mark.parametrize("name", sorted(_STATE_TEXTS))
def test_fermistate_reader_matches_the_reference(name):
    text = _STATE_TEXTS[name]
    assert _state_outcome(loads_state, text) == _state_outcome(_reference_state, text)


def test_fermistate_parity_table_holds_states_and_both_errors():
    outcomes = [_state_outcome(loads_state, t)[0] for t in _STATE_TEXTS.values()]
    assert ShapeError in outcomes and NormalizationError in outcomes
    assert sum(isinstance(o, RankedBasis) for o in outcomes) >= 10


def _count_walks(monkeypatch, module):
    walks = []
    walk = module._walk_rows
    monkeypatch.setattr(module, "_walk_rows", lambda *a: walks.append(a[0]) or walk(*a))
    return walks


def test_clean_fermistate_blocks_are_read_without_a_row_walk(monkeypatch):
    walks = _count_walks(monkeypatch, statekit)
    for text in _LARGE.values():
        loads_state(text)
    assert walks == []
    loads_state(_STATE_TEXTS["large-comment-line"])    # the last block only
    assert len(walks) == 1 and "# a note" in walks[0]


def test_fermistate_cli_file_with_its_meta_header_matches_the_reference(
        tmp_path, capsys, monkeypatch):
    p = tmp_path / "random.fermistate"
    assert cli.main(["state", "random", "--M", "14", "--N", "7", "--seed", "9",
                     "--out", str(p)]) == 0
    capsys.readouterr()
    text = p.read_text()
    assert text.startswith("# fermient ")
    walks = _count_walks(monkeypatch, statekit)
    assert _state_outcome(loads_state, text) == _state_outcome(_reference_state, text)
    assert walks == []


# ---------------------------------------------------------------------------
# fermirdm

_SMALL_RDM = dumps_rdm(reduce_pure(random_pure_state(RankedBasis(4, 2), seed=3), 1))
_SMALL_HEAD, *_SMALL_ROWS = _SMALL_RDM.splitlines()   # four rows of 8 numbers
_BIG_RDM = dumps_rdm(reduce_pure(random_pure_state(RankedBasis(12, 6), seed=1103), 2))
_BIG_RDM_ROWS = _BIG_RDM.splitlines()                 # header and 66 rows of 132


def _small(*rows, sep="\n", end="\n"):
    return sep.join([_SMALL_HEAD, *rows]) + end


def _with_field(row, j, value):
    fields = row.split()
    fields[j] = value
    return " ".join(fields)


def _big_with_row(i, row):
    lines = list(_BIG_RDM_ROWS)
    lines[1 + i] = row
    return "\n".join(lines) + "\n"


_R0, _R1, _R2, _R3 = _SMALL_ROWS
_RDM_TEXTS = {
    "small": _SMALL_RDM,
    "large": _BIG_RDM,
    "physics": dumps_rdm(rescale(reduce_pure(random_pure_state(RankedBasis(6, 3), seed=4), 2),
                                 PHYSICS)),
    "blank-and-space-lines": _small(_R0, "", "  \t ", _R1, _R2, _R3, ""),
    "crlf": _small(*_SMALL_ROWS, sep="\r\n", end="\r\n"),
    "tabs": _small(*(r.replace(" ", "\t") for r in _SMALL_ROWS)),
    "no-final-newline": _small(*_SMALL_ROWS, end=""),
    "leading-plus": _small(_with_field(_R0, 0, "+" + _R0.split()[0]), _R1, _R2, _R3),
    "underscore": _small(_with_field(_R0, 1, "0.0_0"), _R1, _R2, _R3),
    "minus-zero": _small(_with_field(_R0, 1, "-0"), _R1, _R2, _R3),
    "nan": _small(_with_field(_R0, 1, "nan"), _R1, _R2, _R3),
    "inf": _small(_R0, _with_field(_R1, 3, "-inf"), _R2, _R3),
    "vertical-tab": _small(_R0, _R1.replace(" ", "\x0b", 1), _R2, _R3),
    "form-feed": _small(_R0, _R1.replace(" ", "\x0c", 1), _R2, _R3),
    "file-separator": _small(_R0, _R1.replace(" ", "\x1c", 1), _R2, _R3),
    "bare-cr": _small(_R0, _R1, _R2, _R3, sep="\r"),
    "comment-after-fields": _small(_R0 + " # note", _R1, _R2, _R3),
    "comment-line": _small(_R0, "# note", _R1, _R2, _R3),
    "non-numeric": _small(_R0, _with_field(_R1, 2, "x"), _R2, _R3),
    "short-row": _small(_R0, " ".join(_R1.split()[:-1]), _R2, _R3),
    "repeated-row": _small(_R0, _R1, _R1, _R2, _R3),
    "missing-row": _small(_R0, _R1, _R2),
    "no-rows": _small(),
    "unknown-tag": _SMALL_RDM.replace(" unit", " half", 1),
    "malformed-header": "fermirdm 4 x unit\n",
    "missing-header": "\n".join(_SMALL_ROWS) + "\n",
    # oddities in a later block of the four-block (12,6) 2-RDM text
    "large-crlf": _BIG_RDM.replace("\n", "\r\n"),
    "large-nan": _big_with_row(60, _with_field(_BIG_RDM_ROWS[61], 5, "nan")),
    "large-short-row": _big_with_row(60, " ".join(_BIG_RDM_ROWS[61].split()[:-2])),
    "large-underscore": _big_with_row(60, _with_field(_BIG_RDM_ROWS[61], 0, "1_0")),
    "large-vertical-tab": _big_with_row(60, _BIG_RDM_ROWS[61].replace(" ", "\x0b", 1)),
    "large-extra-row": _BIG_RDM + _BIG_RDM_ROWS[1] + "\n",
    "large-extra-row-then-bad-row": _BIG_RDM + _BIG_RDM_ROWS[1] + "\n" + "1 2\n",
}


@pytest.mark.parametrize("name", sorted(_RDM_TEXTS))
def test_fermirdm_reader_matches_the_reference(name):
    text = _RDM_TEXTS[name]
    assert _rdm_outcome(_loads_rdm_matrix, text) == _rdm_outcome(_reference_rdm, text)


def test_clean_fermirdm_blocks_are_read_without_a_row_walk(monkeypatch):
    walks = _count_walks(monkeypatch, rdmcore)
    loads_rdm(_BIG_RDM)
    assert walks == []
    loads_rdm(_RDM_TEXTS["large-underscore"])    # the last block only
    assert len(walks) == 1 and "1_0" in walks[0]


def test_fermirdm_cli_file_with_its_meta_header_matches_the_reference(
        tmp_path, capsys, monkeypatch):
    p = tmp_path / "random.fermistate"
    r = tmp_path / "random.fermirdm"
    assert cli.main(["state", "random", "--M", "12", "--N", "6", "--seed", "9",
                     "--out", str(p)]) == 0
    assert cli.main(["rdm", str(p), "--k", "2", "--norm", "physics", "--out", str(r)]) == 0
    capsys.readouterr()
    text = r.read_text()
    assert text.startswith("# fermient ")
    walks = _count_walks(monkeypatch, rdmcore)
    assert _rdm_outcome(_loads_rdm_matrix, text) == _rdm_outcome(_reference_rdm, text)
    assert walks == []
