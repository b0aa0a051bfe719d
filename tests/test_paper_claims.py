"""The paper's headline claim on comparable data: CL-LSI aligns comparable
documents better than the dictionary cosine, which beats the binary
dictionary measure.

Each seed draws 500 comparable couples from the default ``SyntheticSpec``
(the two halves of a couple share a topic mixture but are sampled
independently), trains CL-LSI at k 20 on 90% of them, and ranks the 50
held-out targets for every held-out source. Chance R@1 is 0.02. The test
pins the ordering at k 20 only: larger k ranks worse on this data.
"""

import pytest

from xling.bidict import bin_symmetric, dict_cosines
from xling.corpus import split_corpus
from xling.lsi import build_cross_matrix, train
from xling.retrieval import retrieve_cl_lsi
from xling.synthetic import SyntheticSpec, make_comparable_corpus, make_dictionary
from xling.textprep import tokenize
from xling.vsm import build_vocabulary

SEEDS = (1, 2, 3, 4, 5)
K = 20


def _tokens(docs) -> list[list[str]]:
    return [tokenize(d.text) for d in docs]


def _r_at_1(scores, target_ids) -> float:
    """R@1 of a query-by-target score matrix whose diagonal is gold, ranked
    by (-score, id)."""
    hits = sum(
        min(range(len(row)), key=lambda j: (-row[j], target_ids[j])) == i
        for i, row in enumerate(scores)
    )
    return hits / len(scores)


def _recall_by_route(seed: int) -> dict[str, float]:
    spec = SyntheticSpec()
    train_part, test_part = split_corpus(make_comparable_corpus(500, spec, seed=seed), 0.9, seed)

    model = train(
        build_cross_matrix(_tokens(train_part.source_docs), _tokens(train_part.target_docs)),
        k=K, seed=42,
    )
    ranked = retrieve_cl_lsi(test_part.source_docs, test_part.target_docs, model, 5)
    gold = {s.id: t.id for s, t in test_part.pairs()}
    cl_lsi = sum(r.entries[0][0] == gold[r.query_id] for r in ranked) / len(ranked)

    dictionary = make_dictionary(spec, coverage=0.6, seed=seed)
    src, tgt = _tokens(test_part.source_docs), _tokens(test_part.target_docs)
    stats_s, stats_t = build_vocabulary(src), build_vocabulary(tgt)
    target_ids = [d.id for d in test_part.target_docs]
    cos = [dict_cosines([q] * len(tgt), tgt, dictionary, stats_s, stats_t) for q in src]
    binary = [[bin_symmetric(q, t, dictionary) for t in tgt] for q in src]
    return {
        "cl-lsi": cl_lsi,
        "dict-cos": _r_at_1(cos, target_ids),
        "dict-bin": _r_at_1(binary, target_ids),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_cl_lsi_beats_dict_cos_beats_dict_bin_on_comparable_couples(seed):
    r = _recall_by_route(seed)
    assert r["cl-lsi"] > r["dict-cos"] > r["dict-bin"], r
