"""
Cross-lingual document retrieval and recall
===========================================

Use each source document of a held-out set as a query against the target
side and measure recall at 1 and at 5. Compares the cross-lingual LSI
route (no translation needed) with the monolingual route through a
word-for-word dictionary translator, and with the dictionary measures.
"""

from xling.bidict import bin_symmetric
from xling.corpus import split_corpus
from xling.lsi import build_cross_matrix, build_mono_matrix, train
from xling.retrieval import (
    RankedList,
    dictionary_translator,
    gold_mapping,
    recall_at_k,
    retrieve_ar_lsi,
    retrieve_cl_lsi,
)
from xling.synthetic import SyntheticSpec, make_dictionary, make_parallel_corpus
from xling.textprep import tokenize


def tokens(docs):
    return [tokenize(d.text) for d in docs]


spec = SyntheticSpec(n_topics=10, words_per_topic=12, common_words=8,
                     doc_length=(80, 140), topic_alpha=0.05)
corpus = make_parallel_corpus(200, spec, seed=21)
train_part, test_part = split_corpus(corpus, 0.9, seed=21)
gold = gold_mapping(test_part)
print(f"{len(train_part)} training couples, {len(test_part)} held-out queries")

# Cross-lingual LSI: train on concatenated couples, query directly.
cl_model = train(build_cross_matrix(tokens(train_part.source_docs),
                                    tokens(train_part.target_docs)), k=30, seed=42)
cl_ranked = retrieve_cl_lsi(test_part.source_docs, test_part.target_docs, cl_model, 5)
print(f"CL-LSI      : R@1={recall_at_k(cl_ranked, gold, 1):.2f}  "
      f"R@5={recall_at_k(cl_ranked, gold, 5):.2f}")

# Monolingual LSI: translate queries word by word, then project.
dictionary = make_dictionary(spec, coverage=1.0)
mono_model = train(build_mono_matrix(tokens(train_part.target_docs)), k=30, seed=42)
ar_ranked = retrieve_ar_lsi(test_part.source_docs, test_part.target_docs, mono_model,
                            dictionary_translator(dictionary), 5)
print(f"mono + dict : R@1={recall_at_k(ar_ranked, gold, 1):.2f}  "
      f"R@5={recall_at_k(ar_ranked, gold, 5):.2f}")

# Dictionary binary measure as the ranking score, with partial coverage.
partial = make_dictionary(spec, coverage=0.6, seed=3)
src_tokens, tgt_tokens = tokens(test_part.source_docs), tokens(test_part.target_docs)
bin_ranked = []
for i, query in enumerate(src_tokens):
    sims = [(test_part.target_docs[j].id, bin_symmetric(query, tgt_tokens[j], partial))
            for j in range(len(tgt_tokens))]
    sims.sort(key=lambda item: (-item[1], item[0]))
    bin_ranked.append(RankedList(test_part.source_docs[i].id, tuple(sims[:5])))
print(f"dict binary : R@1={recall_at_k(bin_ranked, gold, 1):.2f}  "
      f"R@5={recall_at_k(bin_ranked, gold, 5):.2f}   (60% dictionary coverage)")
