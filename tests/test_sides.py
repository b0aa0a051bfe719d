"""A side is ``"source"`` or ``"target"``, everywhere a side is taken.

A misspelt side, an old ``direction`` value or None raises ``ValueError``
instead of falling through to one of the two sides. A monolingual model
holds the target side only.
"""

import math

import numpy as np
import pytest

from xling.bidict import BilingualDictionary, bin_measure, trans
from xling.corpus import Document
from xling.lsi import CrossVocabulary, LsiModel, fold_in_many
from xling.retrieval import embed_documents
from xling.textprep import PipelineConfig, ReducerKind, make_reducer
from xling.vsm import build_vocabulary

CROSS_VOCABULARY = CrossVocabulary(build_vocabulary([["a"], ["b"]]),
                                   build_vocabulary([["x"], ["y"]]))
MONO = LsiModel(np.ones((2, 1)), np.ones(1), np.zeros((2, 1)), build_vocabulary([["x"], ["y"]]))
CROSS = LsiModel(np.ones((4, 1)), np.ones(1), np.zeros((2, 1)), CROSS_VOCABULARY)
DICTIONARY = BilingualDictionary([(("a",), ("x",))])

TAKES_A_SIDE = {
    # An empty collection checks its side too.
    "fold_in_mono": lambda side: fold_in_many([], MONO, side),
    "fold_in_cross": lambda side: fold_in_many([], CROSS, side),
    "fold_in_many_mono": lambda side: fold_in_many([["x"]], MONO, side),
    "fold_in_many_cross": lambda side: fold_in_many([["x"]], CROSS, side),
    "embed_documents": lambda side: embed_documents([Document("d", "ar", "x")], side, CROSS),
    "vocab_for": lambda side: CROSS_VOCABULARY.vocab_for(side),
    "offset_for": lambda side: CROSS_VOCABULARY.offset_for(side),
    "contains": lambda side: DICTIONARY.contains("a", side),
    "translations": lambda side: DICTIONARY.translations("a", side),
    "trans": lambda side: trans("a", ["x"], DICTIONARY, side=side),
    "bin_measure": lambda side: bin_measure(["a"], ["x"], DICTIONARY, side=side),
    "reducer_for": lambda side: PipelineConfig().reducer_for(side),
    **{f"make_reducer_{kind.value}": lambda side, kind=kind: make_reducer(
        kind, dictionary=DICTIONARY, side=side) for kind in ReducerKind},
}


@pytest.mark.parametrize("side", ["sourc", "forward", None])
@pytest.mark.parametrize("call", TAKES_A_SIDE.values(), ids=TAKES_A_SIDE.keys())
def test_unknown_side_raises(call, side):
    with pytest.raises(ValueError, match="side"):
        call(side)


def test_offsets_of_the_two_sides():
    assert [CROSS_VOCABULARY.offset_for(s) for s in ("source", "target")] == [0, 2]


def test_monolingual_model_holds_only_the_target_side():
    assert fold_in_many([["x"]], MONO, "target").tolist() == [[math.log(2)]]  # idf of "x"
    with pytest.raises(ValueError, match="holds only side 'target', got 'source'"):
        fold_in_many([["x"]], MONO, "source")
