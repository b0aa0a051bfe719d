"""Cross-lingual document similarity, retrieval and alignment.

The package splits into ingestion (:mod:`xling.corpus`, :mod:`xling.wikitext`),
text preparation (:mod:`xling.textprep`), the sparse vector-space layer
(:mod:`xling.vsm`), bilingual-dictionary measures (:mod:`xling.bidict`),
latent semantic indexing (:mod:`xling.lsi`), retrieval/alignment/evaluation
(:mod:`xling.retrieval`) and synthetic ground-truth corpora
(:mod:`xling.synthetic`). The ``xling`` console script wires them together.
"""

from .bidict import (
    BilingualDictionary,
    bin_measure,
    bin_pooled,
    bin_symmetric,
    dict_cosines,
    load_dictionary,
    matching_rate,
    oov_rate,
)
from .corpus import (
    AlignedCorpus,
    Document,
    load_aligned_corpus,
    load_documents,
    save_aligned_corpus,
    save_documents,
    split_corpus,
)
from .lsi import (
    CrossVocabulary,
    LsiModel,
    build_cross_matrix,
    build_mono_matrix,
    fold_in_many,
    load_model,
    save_model,
    train,
)
from .retrieval import (
    AlignmentPair,
    Embeddings,
    EvalReport,
    RankedList,
    align_corpora,
    alignment_report,
    cached_translator,
    dictionary_translator,
    evaluate_retrieval,
    gold_mapping,
    identity_translator,
    oracle_experiment,
    recall_at_k,
    retrieve_ar_lsi,
    retrieve_cl_lsi,
    retrieve_many,
)
from .textprep import (
    PipelineConfig,
    ReducerKind,
    light_stem,
    lemmatize,
    make_reducer,
    root_stem,
    run_pipeline,
    suffix_stem,
    tokenize,
)
from .vsm import TermDocMatrix, Vocabulary, build_vocabulary
from .wikitext import (
    extract_comparable_articles,
    parse_interlanguage_links,
    strip_wiki_markup,
)

__version__ = "0.1.0"
