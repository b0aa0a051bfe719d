"""
Aligning two unpaired corpora
=============================

Given unaligned source and target collections bucketed by month, align each
source document to its most similar target in a shared LSI space, keep the
top pairs per bucket and report per-bucket similarity ranges, the
similarity histogram and (since the fixture plants ground truth) accuracy.
"""

from xling.lsi import build_cross_matrix, train
from xling.retrieval import align_corpora, alignment_report
from xling.synthetic import SyntheticSpec, make_grouped_documents, make_parallel_corpus
from xling.textprep import tokenize


def tokens(docs):
    return [tokenize(d.text) for d in docs]


spec = SyntheticSpec(n_topics=20, words_per_topic=80, common_words=10,
                     common_fraction=0.08, doc_length=(300, 500), topic_alpha=0.3)

# The model is trained on a separate couple corpus from the same domain,
# then applied to collections it never saw.
training = make_parallel_corpus(300, spec, seed=99)
model = train(build_cross_matrix(tokens(training.source_docs),
                                 tokens(training.target_docs)), k=20, seed=42)

# Six months of documents: 15 truly comparable pairs per month planted
# among same-topic distractors on both sides.
source_docs, target_docs, gold = make_grouped_documents(
    n_groups=6, planted_per_group=15, distractors_per_side=35, spec=spec, seed=5
)
print(f"{len(source_docs)} source docs, {len(target_docs)} target docs, "
      f"{len(gold)} planted pairs")

pairs = align_corpora(source_docs, target_docs, model, top_n=15, group_by="month")
report = alignment_report(pairs, gold=gold)

print(f"\ntop-15 pairs per month, accuracy {report.accuracy:.3f} "
      f"({report.correct_count}/{len(pairs)})")
print("\nper-month similarity ranges:")
for group, (lo, hi) in report.sim_ranges.items():
    print(f"  {group}: min={lo:.2f} max={hi:.2f}")
print("\nsimilarity histogram:")
for label, count in report.histogram.items():
    print(f"  {label:>10}: {'#' * (count // 4)}{count and ' ' or ''}{count}")
