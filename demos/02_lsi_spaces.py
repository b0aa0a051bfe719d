"""
Monolingual and cross-lingual LSI spaces
========================================

Build the two term-document matrices behind latent semantic indexing, train
truncated-SVD models and fold unseen documents into them.

The monolingual matrix covers one language; queries from the other language
must be translated before projection. The cross-lingual matrix stacks both
vocabularies, each column being a concatenated document couple, so both
languages project into one shared concept space with no translation step.
"""

import numpy as np

from xling.lsi import build_cross_matrix, build_mono_matrix, fold_in_many, train
from xling.retrieval import Embeddings, retrieve_many
from xling.synthetic import SyntheticSpec, make_parallel_corpus
from xling.textprep import tokenize

spec = SyntheticSpec(n_topics=6, words_per_topic=30, common_words=8,
                     doc_length=(60, 100), topic_alpha=0.15)
corpus = make_parallel_corpus(60, spec, seed=11)
src_tokens = [tokenize(d.text) for d in corpus.source_docs]
tgt_tokens = [tokenize(d.text) for d in corpus.target_docs]

# --- monolingual space over the target language ---------------------------
mono_matrix = build_mono_matrix(tgt_tokens)
mono = train(mono_matrix, k=12, seed=42)
print(f"monolingual model: |V|={len(mono.vocabulary)}, d={mono.n_docs}, k={mono.k}")
print("singular values:", np.round(mono.s[:6], 3), "...")

# Folding a training document back in reproduces its row of V.
deviation = np.max(np.abs(fold_in_many([tgt_tokens[0]], mono, "target")[0] - mono.v[0]))
print(f"fold-in identity on column 0: max deviation {deviation:.2e}")

# --- cross-lingual space ---------------------------------------------------
cross_matrix = build_cross_matrix(src_tokens, tgt_tokens, "en", "ar")
cross = train(cross_matrix, k=12, seed=42)
print(f"\ncross-lingual model: |V|={len(cross.vocabulary)} "
      f"(={len(cross.vocabulary.source)} source + {len(cross.vocabulary.target)} target), k={cross.k}")

# Embed each side of a couple separately: the other language's coordinates
# are zeroed, yet the two embeddings land close together.
for j in (0, 1, 2):
    wrong = (j + 7) % len(tgt_tokens)
    query = fold_in_many([src_tokens[j]], cross, "source")
    candidates = Embeddings(["own pair", "unrelated"],
                            fold_in_many([tgt_tokens[j], tgt_tokens[wrong]], cross, "target"))
    (ranked,) = retrieve_many(query, candidates, 2, [f"couple {j}"])
    sims = dict(ranked.entries)
    print(f"couple {j}: cosine(own pair) = {sims['own pair']:.3f}   "
          f"cosine(unrelated) = {sims['unrelated']:.3f}")
