import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fermient import (
    CapacityError,
    InvalidModeSetError,
    NormalizationError,
    PureStateN,
    RankedBasis,
    ShapeError,
    YangParams,
    as_mixture,
    chi_pair_vector,
    convex_mixture,
    dumps_state,
    load_state,
    loads_state,
    modeset,
    pair_modes,
    random_pure_state,
    rank,
    save_state,
    slater_state,
    wedge_density,
    yang_state,
)
from fermient import statekit


def test_slater_places_single_amplitude():
    basis = RankedBasis(6, 3)
    st = slater_state(basis, (1, 2, 5))
    hits = np.flatnonzero(st.amplitudes)
    assert hits.tolist() == [rank(basis, modeset((1, 2, 5)))]
    assert st.amplitudes[hits[0]] == 1.0


def test_slater_accepts_bitmask():
    basis = RankedBasis(4, 2)
    assert np.array_equal(slater_state(basis, 0b0011).amplitudes,
                          slater_state(basis, (0, 1)).amplitudes)


def test_pair_modes_layout():
    assert pair_modes(1) == 0b11
    assert pair_modes(2) == 0b1100
    assert pair_modes(5) == 0b11 << 8


def test_yang_state_support():
    st = yang_state(YangParams(3, 2))
    assert st.basis == RankedBasis(6, 4)
    nonzero = np.flatnonzero(st.amplitudes)
    assert len(nonzero) == math.comb(3, 2)
    np.testing.assert_allclose(st.amplitudes[nonzero], 1 / math.sqrt(3))
    # support is exactly the three double-pair determinants
    want = {modeset((0, 1, 2, 3)), modeset((0, 1, 4, 5)), modeset((2, 3, 4, 5))}
    got = {int(idx) for idx in nonzero}
    assert got == {rank(st.basis, bits) for bits in want}


def test_chi_is_single_pair_yang():
    np.testing.assert_array_equal(chi_pair_vector(4).amplitudes,
                                  yang_state(YangParams(4, 1)).amplitudes)


def test_yang_params_validation():
    with pytest.raises(InvalidModeSetError):
        YangParams(2, 3)
    with pytest.raises(InvalidModeSetError):
        YangParams(33, 1)


def test_random_state_normalized_and_seeded():
    basis = RankedBasis(6, 3)
    a = random_pure_state(basis, seed=9)
    b = random_pure_state(basis, seed=9)
    c = random_pure_state(basis, seed=10)
    assert np.linalg.norm(a.amplitudes) == pytest.approx(1.0, abs=1e-14)
    assert a.amplitudes.tobytes() == b.amplitudes.tobytes()
    assert not np.allclose(a.amplitudes, c.amplitudes)


def test_pure_state_validation():
    basis = RankedBasis(4, 2)
    with pytest.raises(ShapeError):
        PureStateN(basis, np.ones(3))
    with pytest.raises(NormalizationError):
        PureStateN(basis, np.full(basis.dim, 0.3))


def test_state_dim_capacity():
    with pytest.raises(CapacityError):
        random_pure_state(RankedBasis(40, 20), seed=0)


def test_convex_mixture_validation():
    basis = RankedBasis(4, 2)
    s1 = slater_state(basis, (0, 1))
    s2 = slater_state(basis, (2, 3))
    mix = convex_mixture([0.25, 0.75], [s1, s2])
    assert [w for w, _ in mix.terms] == [0.25, 0.75]
    with pytest.raises(ShapeError):
        convex_mixture([1.0], [s1, s2])
    with pytest.raises(ShapeError):
        convex_mixture([0.5, 0.5], [s1, slater_state(RankedBasis(5, 2), (0, 1))])
    with pytest.raises(NormalizationError):
        convex_mixture([0.5, 0.4], [s1, s2])
    with pytest.raises(NormalizationError):
        convex_mixture([1.5, -0.5], [s1, s2])


def test_wedge_density():
    basis = RankedBasis(4, 2)
    s1 = slater_state(basis, (0, 1))
    s2 = slater_state(basis, (2, 3))
    rho = wedge_density(convex_mixture([0.25, 0.75], [s1, s2]))
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)
    assert rho[rank(basis, 0b0011), rank(basis, 0b0011)] == 0.25
    # pure path: rank one projector
    rho_pure = wedge_density(s1)
    np.testing.assert_allclose(rho_pure @ rho_pure, rho_pure, atol=1e-15)


def test_wedge_density_refuses_a_dimension_above_tensor_dim(monkeypatch):
    # a (5, 2) state has a 10-dim basis against a bound of 8
    monkeypatch.setattr(statekit, "CAP", dataclasses.replace(statekit.CAP, tensor_dim=8))
    with pytest.raises(CapacityError, match="density dimension 10"):
        wedge_density(random_pure_state(RankedBasis(5, 2), seed=1))
    assert wedge_density(slater_state(RankedBasis(4, 2), (0, 1))).shape == (6, 6)


def test_as_mixture_idempotent():
    basis = RankedBasis(4, 2)
    s = slater_state(basis, (0, 1))
    mix = as_mixture(s)
    assert as_mixture(mix) is mix
    assert mix.terms[0][0] == 1.0


def test_fermistate_roundtrip_bytes(tmp_path):
    st = random_pure_state(RankedBasis(6, 3), seed=4)
    text = dumps_state(st)
    back = loads_state(text)
    assert back.basis == st.basis
    np.testing.assert_allclose(back.amplitudes, st.amplitudes, atol=1e-15)
    # serialization is canonical: dump(load(dump(x))) == dump(x)
    assert dumps_state(back) == text
    p = tmp_path / "state.fermistate"
    save_state(st, p)
    assert load_state(p).amplitudes.tobytes() == back.amplitudes.tobytes()


def test_fermistate_comments_and_errors():
    st = slater_state(RankedBasis(4, 2), (0, 3))
    text = "# produced by a tool\n\n" + dumps_state(st) + "# trailing note\n"
    np.testing.assert_array_equal(loads_state(text).amplitudes, st.amplitudes)
    with pytest.raises(ShapeError):
        loads_state("not a header\n0 1 0\n")
    with pytest.raises(ShapeError):
        loads_state("fermistate 4 two\n")
    with pytest.raises(ShapeError):
        loads_state("fermistate 4 2\n0 1\n")
    with pytest.raises(ShapeError):
        loads_state("fermistate 4 2\n99 1 0\n")


def test_fermistate_repeated_index_is_refused():
    # a repeated row would otherwise overwrite the earlier amplitude
    with pytest.raises(ShapeError, match="twice"):
        loads_state("fermistate 4 2\n1 0.6 0\n1 0.8 0\n")


@pytest.mark.parametrize("row", ["x 1.0 0.0", "0 abc 0", "0 1.0 i"])
def test_fermistate_non_numeric_field_is_shape_error(row):
    with pytest.raises(ShapeError):
        loads_state(f"fermistate 4 2\n{row}\n")


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_pure_state_rejects_non_finite(bad):
    amps = np.zeros(RankedBasis(4, 2).dim, dtype=complex)
    amps[0] = 1.0
    amps[1] = bad
    with pytest.raises(NormalizationError):
        PureStateN(RankedBasis(4, 2), amps)
    with pytest.raises(NormalizationError):
        loads_state("fermistate 4 2\n0 1 0\n1 nan 0\n")


@pytest.mark.parametrize("text", ["fermistatefoo 4 2\n0 1 0\n", "\n# note\n"])
def test_fermistate_magic_word_is_exact(tmp_path, text):
    p = tmp_path / "state.fermistate"
    p.write_text(text)
    with pytest.raises(ShapeError, match="not a fermistate file"):
        load_state(p)


def test_fermistate_non_ascii_byte_names_file_and_offset(tmp_path):
    p = tmp_path / "state.fermistate"
    p.write_bytes(b"fermistate 4 2\n# caf\xc3\xa9\n0 1 0\n")
    with pytest.raises(ShapeError, match=r"state\.fermistate: non-ASCII byte at offset 20"):
        load_state(p)


def test_oversized_bases_are_refused_before_allocation():
    with pytest.raises(CapacityError):
        slater_state(RankedBasis(64, 32), range(32))
    with pytest.raises(CapacityError):
        loads_state("fermistate 30 15\n0 1 0\n")


@pytest.mark.parametrize("m", range(1, 7))
def test_yang_state_matches_scalar_ranks(m):
    for n in range(1, m + 1):
        st = yang_state(YangParams(m, n))
        want = sorted(rank(st.basis, sum(pair_modes(j) for j in pairs))
                      for pairs in itertools.combinations(range(1, m + 1), n))
        assert np.flatnonzero(st.amplitudes).tolist() == want


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.nan, np.nan], [np.inf, 1.0]])
def test_convex_mixture_refuses_non_finite_weights(weights):
    b = RankedBasis(4, 2)
    with pytest.raises(NormalizationError):
        convex_mixture(weights, [slater_state(b, (0, 1)), slater_state(b, (2, 3))])


def _rows_text(rows):
    # 924-dim (12, 6) basis; rows placed past the first group of a parse
    return "fermistate 12 6\n" + "".join(f"{r}\n" for r in rows)


_FIRST = [f"{i} 0.03 0" for i in range(statekit._ROWS + 5)]


@pytest.mark.parametrize("tail,message", [
    (["600 0.1", "601 0.1 0 7"], "malformed fermistate row: '600 0.1'"),
    (["x 0.1 0"], "malformed fermistate row: 'x 0.1 0'"),
    (["5.0 0.1 0"], "malformed fermistate row: '5.0 0.1 0'"),
    (["600 0.1 abc"], "malformed fermistate row: '600 0.1 abc'"),
    (["924 0.1 0"], "amplitude index 924 outside basis of dim 924"),
    (["-1 0.1 0"], "amplitude index -1 outside basis of dim 924"),
    (["99999999999999999999 0.1 0"],
     "amplitude index 99999999999999999999 outside basis of dim 924"),
    (["600 0.1 0", "700 0.1 0", "600 0.2 0"], "amplitude index 600 appears twice"),
    (["3 0.1 0"], "amplitude index 3 appears twice"),
    (["600 0.1 0", "601 0.1", "600 0.2 0"], "malformed fermistate row: '601 0.1'"),
])
def test_fermistate_errors_past_the_first_group_name_the_first_bad_row(tail, message):
    # each bad row sits in a later group than the first; a duplicate of row 3
    # crosses groups, and a malformed row beats a later duplicate
    with pytest.raises(ShapeError) as err:
        loads_state(_rows_text(_FIRST + tail + ["800 0.1 0"]))
    assert str(err.value) == message


def test_fermistate_groups_skip_comments_read_crlf_and_keep_signed_zeros():
    basis = RankedBasis(12, 6)
    amps = random_pure_state(basis, seed=8).amplitudes.copy()
    j = statekit._ROWS + 40      # in the second group
    amps[3], amps[j] = complex(-0.0, abs(amps[3])), complex(abs(amps[j]), -0.0)
    st = PureStateN(basis, amps)
    lines = dumps_state(st).splitlines()
    lines[100:100] = ["# a note inside a group", "", "   "]
    back = loads_state("\r\n".join(lines) + "\r\n")
    assert back.amplitudes.tobytes() == st.amplitudes.tobytes()
    assert np.signbit(back.amplitudes[3].real)
    assert np.signbit(back.amplitudes[j].imag)


def test_fermistate_parse_memory_stays_near_the_text():
    text = dumps_state(random_pure_state(RankedBasis(14, 7), seed=2))
    tracemalloc.start()
    try:
        loads_state(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


def test_fermistate_parse_memory_stays_near_the_text_under_a_meta_header(tmp_path, capsys):
    # the layout the CLI writes: `#` meta lines, then the fermistate text
    from fermient import cli

    p = tmp_path / "random.fermistate"
    assert cli.main(["state", "random", "--M", "14", "--N", "7", "--seed", "2",
                     "--out", str(p)]) == 0
    capsys.readouterr()
    text = p.read_text()
    assert text.startswith("# fermient ")
    tracemalloc.start()
    try:
        loads_state(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)
