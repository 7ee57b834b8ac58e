"""Reproducible state corpus used by the verification sweep and the tests.

build_corpus(seed) is pure in its arguments: same seed, same entries, same
amplitudes, independent of call order. Entries hold states, not reductions:
`rdm(k)` reduces the state on each call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fockbasis import RankedBasis
from .rdmcore import ReducedDM, reduce_mixed
from .statekit import (MixedStateN, PureStateN, YangParams, chi_pair_vector,
                       convex_mixture, random_pure_state, slater_state,
                       yang_state)

SLATER_SHAPES = ((4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (6, 4))
YANG_SHAPES = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3))
RANDOM_SHAPES = ((4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (6, 2), (6, 3), (6, 4))


@dataclass
class CorpusEntry:
    name: str
    kind: str                       # slater | yang | chi | random | mixture | user
    state: PureStateN | MixedStateN

    @property
    def basis(self) -> RankedBasis:
        return self.state.basis

    def rdm(self, k: int) -> ReducedDM:
        return reduce_mixed(self.state, k)


def build_corpus(seed: int = 1, n_random: int = 200) -> list[CorpusEntry]:
    entries: list[CorpusEntry] = []
    for M, N in SLATER_SHAPES:
        st = slater_state(RankedBasis(M, N), range(N))
        entries.append(CorpusEntry(f"slater-M{M}-N{N}", "slater", st))
    for m, n in YANG_SHAPES:
        st = yang_state(YangParams(m, n))
        entries.append(CorpusEntry(f"yang-m{m}-n{n}", "yang", st))
    for m in (2, 3):
        st = chi_pair_vector(m)
        entries.append(CorpusEntry(f"chi-m{m}", "chi", st))
    # a few fixed mixtures exercising the mixed-state paths
    b52 = RankedBasis(5, 2)
    mix1 = convex_mixture([0.5, 0.5],
                          [slater_state(b52, (0, 1)), slater_state(b52, (2, 3))])
    entries.append(CorpusEntry("mix-slater-pair-M5-N2", "mixture", mix1))
    b63 = RankedBasis(6, 3)
    mix2 = convex_mixture([0.25, 0.25, 0.5],
                          [slater_state(b63, (0, 1, 2)),
                           slater_state(b63, (1, 2, 3)),
                           random_pure_state(b63, seed=seed * 1000 + 1)])
    entries.append(CorpusEntry("mix-3term-M6-N3", "mixture", mix2))
    mix3 = convex_mixture([0.7, 0.3],
                          [yang_state(YangParams(3, 2)),
                           slater_state(RankedBasis(6, 4), (0, 1, 2, 3))])
    entries.append(CorpusEntry("mix-yang-slater-M6-N4", "mixture", mix3))
    # random pure states, round-robin over the shape grid
    per = [n_random // len(RANDOM_SHAPES)] * len(RANDOM_SHAPES)
    for i in range(n_random - sum(per)):
        per[i] += 1
    idx = 0
    for (M, N), count in zip(RANDOM_SHAPES, per):
        basis = RankedBasis(M, N)
        for j in range(count):
            st = random_pure_state(basis, seed=seed * 100000 + idx)
            entries.append(CorpusEntry(f"random-M{M}-N{N}-{j:03d}", "random", st))
            idx += 1
    return entries
