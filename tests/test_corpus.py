import dataclasses

import numpy as np

from fermient import CorpusEntry, build_corpus


def test_corpus_entries_hold_states_only():
    assert [f.name for f in dataclasses.fields(CorpusEntry)] == ["name", "kind", "state"]
    entry = build_corpus(seed=1, n_random=0)[0]
    first, second = entry.rdm(2), entry.rdm(2)
    assert first is not second and first.matrix is not second.matrix
    np.testing.assert_array_equal(first.matrix, second.matrix)
