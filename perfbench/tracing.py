"""Spans around calls into xling's layers, recorded from outside the package.

The traced worker replaces module attributes with wrappers that open a span
per call. Several xling modules bind names with ``from .x import y``, so
each wrapper is installed on the module where the caller looks the name up
(for example ``xling.retrieval.tokenize``, never ``xling.textprep.tokenize``,
which ``default_preprocess`` cannot see because the function object was
bound when ``retrieval`` was imported).

Spans stay in memory; ``write_spans`` dumps them once the run is over.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Span recorder for one single-threaded process.

    A span is ``[name, start, end, parent index, run id, counts]``. The run
    id names one CLI invocation; ``counts`` holds what a counter callback
    measured at the same boundary, plus ``errors`` when the call raised.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.run: int | None = None
        self._open: list[int] = []

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def call(self, name, fn, args, kwargs, count=None):
        parent = self._open[-1] if self._open else None
        span = [name, perf_counter(), 0.0, parent, self.run, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[2] = perf_counter()
            span[5] = {"errors": 1}
            raise
        finally:
            self._open.pop()
        span[2] = perf_counter()
        if count is not None:
            span[5] = count(args, kwargs, result)
        return result

    def wrap(self, owner, attr: str, name: str, count=None, only_inside: str | None = None):
        """Replace ``owner.attr`` by a traced version of itself."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if only_inside is not None and not self.inside(only_inside):
                return fn(*args, **kwargs)
            return self.call(name, fn, args, kwargs, count)

        setattr(owner, attr, traced)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def write_spans(spans: list[list], runs: dict[int, dict], path: str) -> None:
    """One JSON object per line: first the run table, then every span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"runs": {str(k): v for k, v in runs.items()}}) + "\n")
        for i, (name, start, end, parent, run, counts) in enumerate(spans):
            record = {"id": i, "name": name, "start": start, "end": end,
                      "parent": parent, "run": run}
            if counts:
                record["counts"] = counts
            fh.write(json.dumps(record) + "\n")


# --------------------------------------------------------------------------
# Where each layer is wrapped. Install the linear-algebra wrappers before
# xling is imported, so that a later switch of the SVD to scipy's QR or LU
# (or a ``from scipy.linalg import qr``) is still timed.
# --------------------------------------------------------------------------


def install_linalg(tracer: Tracer) -> None:
    import numpy.linalg
    import scipy.linalg

    for owner, attr in ((numpy.linalg, "qr"), (scipy.linalg, "qr"), (scipy.linalg, "lu")):
        tracer.wrap(owner, attr, "lsi.qr", only_inside="lsi.train")


def install_xling(tracer: Tracer) -> None:
    import numpy as np
    from xling import cli, corpus, lsi, retrieval

    def n_docs(args, kwargs, result):
        return {"docs": len(args[0])}

    def n_tokens(args, kwargs, result):
        return {"tokens": len(result)}

    def matrix_size(args, kwargs, result):
        return {"nnz": int(result.matrix.nnz), "terms": len(result.vocabulary)}

    def k_kept(args, kwargs, result):
        requested = kwargs.get("k", args[1] if len(args) > 1 else lsi.DEFAULT_RANK)
        return {"k_requested": int(requested), "k_kept": result.k}

    def model_bytes(args, kwargs, result):
        return {"bytes": os.path.getsize(args[1])}

    def embedding(args, kwargs, result):
        tokens, side, model = args
        vocab = model.vocabulary.vocab_for(side)
        oov = sum(1 for t in tokens if t not in vocab)
        return {"zero": int(not np.any(result)), "tokens": len(tokens), "oov": oov}

    def ranking(args, kwargs, result):
        return {"pairs": len(args[1]), "kept": len(result.entries)}

    def buckets(args, kwargs, result):
        source_docs, target_docs = args[0], args[1]
        grouped = (args[4] if len(args) > 4 else kwargs.get("group_by")) is not None
        if not grouped:
            return {"buckets": 1}
        return {"buckets": len({d.group_key for d in source_docs}
                               & {d.group_key for d in target_docs})}

    pair_counts: dict[int, tuple[object, int]] = {}

    def dictionary_walk(args, kwargs, result):
        dictionary = args[2]
        if id(dictionary) not in pair_counts:
            pair_counts.clear()
            pair_counts[id(dictionary)] = (dictionary, len(dictionary.translation_pairs()))
        return {"pairs": pair_counts[id(dictionary)][1]}

    wraps = [
        (cli, "main", "cli.main", None),
        (corpus, "load_aligned_corpus", "corpus.load", None),
        (corpus, "load_documents", "corpus.load", None),
        (corpus, "save_aligned_corpus", "corpus.save", None),
        (cli, "run_pipeline", "textprep.pipeline", n_docs),
        (retrieval, "tokenize", "textprep.tokenize", n_tokens),
        (lsi, "build_vocabulary", "vsm.vocab", None),
        (cli, "build_vocabulary", "vsm.vocab", None),
        (lsi, "build_cross_matrix", "lsi.matrix", matrix_size),
        (lsi, "train", "lsi.train", k_kept),
        (lsi, "save_model", "lsi.save", model_bytes),
        (lsi, "load_model", "lsi.load", None),
        (retrieval, "embed_crosslingual", "lsi.embed", embedding),
        (retrieval, "retrieve", "retrieval.rank", ranking),
        (retrieval, "retrieve_cl_lsi", "retrieval.loop", None),
        (retrieval, "oracle_experiment", "retrieval.loop", None),
        (retrieval, "embed_documents", "retrieval.loop", None),
        (retrieval, "align_corpora", "retrieval.align", buckets),
        (cli, "load_dictionary", "bidict.load", None),
        (cli, "dict_cosine", "bidict.measure", dictionary_walk),
        (cli, "matching_rate", "bidict.measure", None),
    ]
    for name in ("alignment_report", "write_ranked_lists_json", "write_alignment_tsv",
                 "write_report_json", "write_histogram_csv", "write_ranges_csv"):
        wraps.append((retrieval, name, "retrieval.write", None))
    for owner, attr, name, count in wraps:
        tracer.wrap(owner, attr, name, count)


# --------------------------------------------------------------------------
# Per-layer metrics from the spans of one round of commands
# --------------------------------------------------------------------------

# metric name -> (unit, better); every traced run reports all of them, with
# 0 for a layer the workload never reaches.
LAYER_METRICS = {
    "cli.self_s": ("s", "lower"),
    "corpus.load_s": ("s", "lower"),
    "corpus.save_s": ("s", "lower"),
    "textprep.pipeline_s": ("s", "lower"),
    "textprep.docs": ("count", "lower"),
    "textprep.tokenize_s": ("s", "lower"),
    "textprep.tokens": ("count", "lower"),
    "vsm.vocab_s": ("s", "lower"),
    "lsi.matrix_s": ("s", "lower"),
    "lsi.matrix_nnz": ("count", "lower"),
    "lsi.vocab_terms": ("count", "lower"),
    "lsi.train_s": ("s", "lower"),
    "lsi.qr_s": ("s", "lower"),
    "lsi.qr_calls": ("count", "lower"),
    "lsi.train_other_s": ("s", "lower"),
    "lsi.k_kept_ratio": ("ratio", "higher"),
    "lsi.save_s": ("s", "lower"),
    "lsi.model_bytes": ("bytes", "lower"),
    "lsi.load_s": ("s", "lower"),
    "lsi.embed_s": ("s", "lower"),
    "lsi.embed_calls": ("count", "lower"),
    "lsi.zero_embeddings": ("count", "lower"),
    "lsi.query_oov_ratio": ("ratio", "lower"),
    "retrieval.rank_s": ("s", "lower"),
    "retrieval.rank_calls": ("count", "lower"),
    "retrieval.pairs_scored": ("count", "lower"),
    "retrieval.kept_ratio": ("ratio", "higher"),
    "retrieval.loop_s": ("s", "lower"),
    "retrieval.align_self_s": ("s", "lower"),
    "retrieval.align_buckets": ("count", "lower"),
    "retrieval.write_s": ("s", "lower"),
    "bidict.load_s": ("s", "lower"),
    "bidict.measure_s": ("s", "lower"),
    "bidict.measure_calls": ("count", "lower"),
    "bidict.pairs_walked": ("count", "lower"),
    "bidict.errors": ("count", "lower"),
    "trace_overhead_ratio": ("ratio", "lower"),
}

# span name -> metric that sums its self time
_SELF_TIME = {
    "cli.main": "cli.self_s",
    "corpus.load": "corpus.load_s",
    "corpus.save": "corpus.save_s",
    "textprep.pipeline": "textprep.pipeline_s",
    "textprep.tokenize": "textprep.tokenize_s",
    "vsm.vocab": "vsm.vocab_s",
    "lsi.matrix": "lsi.matrix_s",
    "lsi.train": "lsi.train_other_s",
    "lsi.qr": "lsi.qr_s",
    "lsi.save": "lsi.save_s",
    "lsi.load": "lsi.load_s",
    "lsi.embed": "lsi.embed_s",
    "retrieval.rank": "retrieval.rank_s",
    "retrieval.loop": "retrieval.loop_s",
    "retrieval.align": "retrieval.align_self_s",
    "retrieval.write": "retrieval.write_s",
    "bidict.load": "bidict.load_s",
    "bidict.measure": "bidict.measure_s",
}

# metric -> per-round total it reports. A total is named ``<span>.<key>``:
# ``spans`` counts the spans, ``seconds`` sums their durations, any other
# key sums what the span's counter callback recorded.
_TOTALS = {
    "textprep.docs": "textprep.pipeline.docs",
    "textprep.tokens": "textprep.tokenize.tokens",
    "lsi.matrix_nnz": "lsi.matrix.nnz",
    "lsi.vocab_terms": "lsi.matrix.terms",
    "lsi.train_s": "lsi.train.seconds",
    "lsi.qr_calls": "lsi.qr.spans",
    "lsi.model_bytes": "lsi.save.bytes",
    "lsi.embed_calls": "lsi.embed.spans",
    "lsi.zero_embeddings": "lsi.embed.zero",
    "retrieval.rank_calls": "retrieval.rank.spans",
    "retrieval.pairs_scored": "retrieval.rank.pairs",
    "retrieval.align_buckets": "retrieval.align.buckets",
    "bidict.measure_calls": "bidict.measure.spans",
    "bidict.pairs_walked": "bidict.measure.pairs",
    "bidict.errors": "bidict.measure.errors",
}

# metric -> (numerator, denominator) totals
_RATIOS = {
    "lsi.k_kept_ratio": ("lsi.train.k_kept", "lsi.train.k_requested"),
    "lsi.query_oov_ratio": ("lsi.embed.oov", "lsi.embed.tokens"),
    "retrieval.kept_ratio": ("retrieval.rank.kept", "retrieval.rank.pairs"),
}


def layer_totals(spans: list[list], selfs: list[float]) -> dict[str, float]:
    """Per-layer metrics summed over the given spans (one round of commands)."""
    out = {name: 0.0 for name in _SELF_TIME.values()}
    totals: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _, counts), self_time in zip(spans, selfs):
        out[_SELF_TIME[name]] += self_time
        totals[f"{name}.spans"] += 1
        totals[f"{name}.seconds"] += end - start
        for key, value in (counts or {}).items():
            totals[f"{name}.{key}"] += value
    for metric, key in _TOTALS.items():
        out[metric] = totals[key]
    for metric, (num, den) in _RATIOS.items():
        out[metric] = totals[num] / totals[den] if totals[den] else 0.0
    return out
