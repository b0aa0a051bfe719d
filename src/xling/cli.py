"""Command-line front end: ingest, train, retrieve, align, eval, score.

Every command is reproducible: identical inputs and seeds give
byte-identical outputs in one environment. Timestamps live only in run
manifests. Exit codes: 0 success, 2 usage/input error, 3 data/model error,
4 numerical failure; every error, a bad flag included, is one line of JSON
on stderr. Flags may also come from ``@file`` arguments (see ``_Parser``).
A flag that a command, format, measure or model kind would not read is
refused, never ignored: the run exits 2 with ``<reason>: drop --flag``
before it reads its inputs where it can (see ``_unread_flags``).

``main`` pauses the cyclic garbage collector for the command and turns it
back on afterwards if it was on. A command builds large acyclic containers
(dictionary partner maps, memo dicts, token lists) that reference counting
frees; without the pause, the collector walks them again and again while
they are built. The few cycles a command leaves, mostly argparse's, wait
for the next collection.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shlex
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import corpus as corpus_io
from . import lsi, retrieval, wikitext
from .bidict import (
    BilingualDictionary,
    bin_pooled,
    bin_symmetric,
    dict_cosine,  # noqa: F401  (the per-couple case, wrapped by name in perfbench/tracing.py)
    dict_cosines,
    load_dictionary,
    matching_rate,
    oov_rate,
)
from .errors import ConvergenceError, CorpusError, DictionaryError, EmptyCorpusError, XlingError
from .textprep import PipelineConfig, Preprocessor, ReducerKind, load_stopwords, run_pipeline
from .vsm import build_vocabulary

_USAGE_ERRORS = (OSError, CorpusError, DictionaryError, ValueError)
_NUMERIC_ERRORS = (ConvergenceError, FloatingPointError, ZeroDivisionError)

_REDUCER_CHOICES = [k.value for k in ReducerKind]
_SIDES = ("source", "target")


def _print_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, ensure_ascii=False), file=sys.stderr)


def _sha256(path: Path) -> str:
    """The file's SHA-256, read in 1 MiB chunks into one reused buffer."""
    digest = hashlib.sha256()
    buffer = bytearray(1 << 20)
    view = memoryview(buffer)
    with path.open("rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2)
    path.write_text(text + "\n", encoding="utf-8")


def _write_manifest(args, path: Path, inputs: list[str | None]) -> None:
    """The run's command, options and their hash, and each input file's hash."""
    options = {k: v for k, v in vars(args).items() if k != "func"}
    canonical = json.dumps(options, sort_keys=True).encode("utf-8")
    _write_json(path, {
        "command": args.command,
        "options": options,
        "config_hash": hashlib.sha256(canonical).hexdigest(),
        "inputs": {str(p): _sha256(p) for p in map(Path, filter(None, inputs)) if p.is_file()},
        "created": datetime.now(timezone.utc).isoformat(),
    })


def _unread_flags(args, reason: str, *dests: str) -> None:
    """Refuse the listed flags (given when not None) as ones this run would not read."""
    if any(getattr(args, d) is not None for d in dests):
        flags = "/".join("--" + d.replace("_", "-") for d in dests)
        raise ValueError(f"{reason}: drop {flags}")


_PATH_OPTIONS = (
    "input", "output", "stats", "corpus", "model", "test_output", "dictionary",
    "cache", "tsv", "source_docs", "target_docs", "report", "histogram_csv",
    "ranges_csv", "stopwords",
)


def _resolve_paths(args) -> None:
    """Anchor relative path options at --data-dir (env: XLING_DATA_DIR)."""
    base = Path(args.data_dir)
    for option in _PATH_OPTIONS:
        value = getattr(args, option, None)
        if isinstance(value, str) and value and not Path(value).is_absolute():
            setattr(args, option, str(base / value))


def _pipeline_config(args) -> PipelineConfig:
    """The preprocessing the pipeline flags describe."""
    return PipelineConfig(
        stopwords=load_stopwords(args.stopwords) if args.stopwords else frozenset(),
        min_corpus_frequency=args.min_count,
        reducer_source=ReducerKind(args.reducer_source),
        reducer_target=ReducerKind(args.reducer_target),
    )


def _preprocessors(args) -> tuple[Preprocessor, Preprocessor, BilingualDictionary | None]:
    """Each side's preprocessor, and the ``--dictionary`` they share (None without one).

    The dictionary is loaded once, each side's terms reduced as they are
    read by that side's memoized reducer, so that they match the side's
    document terms. An ``identity`` side is loaded as written, and so is a
    ``morphar`` side: that reducer is built on the loaded dictionary and
    maps words onto its side's terms as written. It needs ``--dictionary``.
    """
    config = _pipeline_config(args)
    plain = {s: Preprocessor(config, s) for s in _SIDES
             if config.reducer_for(s) is not ReducerKind.MORPHAR}
    dictionary = None
    if args.dictionary:
        dictionary = load_dictionary(args.dictionary, *(
            None if p is None or p.kind is ReducerKind.IDENTITY else p.reduce
            for p in map(plain.get, _SIDES)
        ))
    elif len(plain) < len(_SIDES):
        raise ValueError("morphar reducers require --dictionary")
    source, target = (plain.get(s) or Preprocessor(config, s, dictionary) for s in _SIDES)
    return source, target, dictionary


def _preprocess_corpus(corpus, source: Preprocessor, target: Preprocessor):
    src_tokens = run_pipeline([d.text for d in corpus.source_docs], source)
    tgt_tokens = run_pipeline([d.text for d in corpus.target_docs], target)
    return src_tokens, tgt_tokens


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


# The language flags each ingest format reads, and the ones it leaves unread.
_INGEST_LANGUAGES = {
    "jsonl": ("no language", ("src_lang", "tgt_lang", "pivot_lang")),
    "pairdirs": ("--src-lang and --tgt-lang", ("pivot_lang",)),
    "wikidump": ("--pivot-lang and --tgt-lang", ("src_lang",)),
}


def _cmd_ingest(args) -> int:
    reads, unread = _INGEST_LANGUAGES[args.format]
    _unread_flags(args, f"--format {args.format} reads {reads}", *unread)
    out_path = Path(args.output)
    if args.format == "wikidump":
        if not args.pivot_lang or not args.tgt_lang:
            raise ValueError("wikidump ingestion needs --pivot-lang and --tgt-lang")
        if args.tgt_lang == args.pivot_lang:
            raise ValueError("--tgt-lang must differ from --pivot-lang")
        stats: dict = {}
        couples = list(wikitext.extract_comparable_articles(
            args.input, args.pivot_lang, {args.tgt_lang}, stats=stats
        ))
        corpus = corpus_io.AlignedCorpus(
            tuple(pivot for pivot, _ in couples), tuple(linked for _, linked in couples)
        )
        extra = {k: stats[k] for k in ("skipped_unresolved", "skipped_duplicate")}
    else:
        corpus = corpus_io.load_aligned_corpus(
            args.input, args.format, src_lang=args.src_lang, tgt_lang=args.tgt_lang
        )
        extra = {}

    corpus_io.save_aligned_corpus(corpus, out_path)
    _write_json(Path(args.stats) if args.stats else out_path.with_suffix(".stats.json"), {
        "pairs": len(corpus),
        "source": corpus_io.document_stats(corpus.source_docs) if len(corpus) else {},
        "target": corpus_io.document_stats(corpus.target_docs) if len(corpus) else {},
        **extra,
    })
    _write_manifest(args, out_path.with_suffix(".manifest.json"), [args.input])
    print(f"ingested {len(corpus)} pairs -> {out_path}")
    return 0


def _cmd_train(args) -> int:
    if args.no_split:
        _unread_flags(args, "--no-split trains on every couple", "train_fraction", "test_output")
    if args.kind == "mono" and args.reducer_source != "identity":
        _unread_flags(args, "a mono model is built from the target side alone", "reducer_source")
    if "morphar" not in (args.reducer_source, args.reducer_target):
        _unread_flags(args, "train reads --dictionary only for a morphar reducer", "dictionary")
    # Before the corpus is read and the SVD runs, not after.
    for path in (args.output, args.test_output):
        if path and not Path(path).parent.is_dir():
            raise FileNotFoundError(f"output directory does not exist: {Path(path).parent}")
    train_part, test_part = corpus_io.load_aligned_corpus(args.corpus), None
    if not args.no_split:
        fraction = 0.9 if args.train_fraction is None else args.train_fraction
        train_part, test_part = corpus_io.split_corpus(train_part, fraction, args.seed)

    source, target, _ = _preprocessors(args)
    if args.kind == "cross":
        if not len(train_part):
            raise EmptyCorpusError("no couples to train on")
        src_tokens, tgt_tokens = _preprocess_corpus(train_part, source, target)
        matrix = lsi.build_cross_matrix(
            src_tokens,
            tgt_tokens,
            train_part.source_docs[0].language,
            train_part.target_docs[0].language,
        )
    else:
        # Monolingual space lives in the target language: queries are
        # translated into it before projection.
        tgt_tokens = run_pipeline([d.text for d in train_part.target_docs], target)
        matrix = lsi.build_mono_matrix(tgt_tokens)

    model = lsi.train(matrix, args.k, seed=args.seed)

    out_path = Path(args.output)
    tmp_path = out_path.with_name(out_path.name + ".tmp")
    try:
        lsi.save_model(model, tmp_path)
        os.replace(tmp_path, out_path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise

    if test_part is not None:
        test_path = Path(args.test_output) if args.test_output else Path(
            str(out_path) + ".test.jsonl"
        )
        corpus_io.save_aligned_corpus(test_part, test_path)

    _write_manifest(args, out_path.with_suffix(out_path.suffix + ".manifest.json"), [args.corpus])
    print(f"trained {model.kind} model: k={model.k}, |V|={len(model.vocabulary)}, d={model.n_docs}")
    return 0


def _run_retrieval(args, model, corpus, n: int) -> list[retrieval.RankedList]:
    """Rank the corpus's targets for each of its sources. A monolingual
    model's queries are translated as ``--dictionary`` or ``--cache`` selects,
    and stay as written with neither. Both flags, or either with a
    crosslingual model (which translates nothing), are usage errors."""
    if args.dictionary and args.cache:
        raise ValueError("--dictionary and --cache each translate queries: give one")
    if model.kind == "crosslingual":
        _unread_flags(args, "a crosslingual model translates no queries", "dictionary", "cache")
        return retrieval.retrieve_cl_lsi(corpus.source_docs, corpus.target_docs, model, n)
    if args.dictionary:
        translate = retrieval.dictionary_translator(load_dictionary(args.dictionary))
    elif args.cache:
        translate = retrieval.cached_translator(args.cache)
    else:
        translate = retrieval.identity_translator
    return retrieval.retrieve_ar_lsi(corpus.source_docs, corpus.target_docs, model, translate, n)


def _cmd_retrieve(args) -> int:
    model = lsi.load_model(args.model)
    corpus = corpus_io.load_aligned_corpus(args.corpus)
    ranked = _run_retrieval(args, model, corpus, args.n)
    retrieval.write_ranked_lists_json(ranked, args.output)
    if args.tsv:
        with Path(args.tsv).open("w", encoding="utf-8", newline="\n") as fh:
            for rl in ranked:
                for rank, (cid, sim) in enumerate(rl.entries, start=1):
                    fh.write(f"{rl.query_id}\t{rank}\t{cid}\t{sim:.6f}\n")
    print(f"retrieved top-{args.n} for {len(ranked)} queries -> {args.output}")
    return 0


def _cmd_align(args) -> int:
    docs = (args.source_docs, args.target_docs)
    if any(docs) if args.corpus else not all(docs):
        raise ValueError("align takes either --corpus or both --source-docs and --target-docs")
    model = lsi.load_model(args.model)
    gold = None
    if args.corpus:
        corpus = corpus_io.load_aligned_corpus(args.corpus)
        source_docs, target_docs = corpus.source_docs, corpus.target_docs
        gold = retrieval.gold_mapping(corpus)
    else:
        source_docs = corpus_io.load_documents(args.source_docs)
        target_docs = corpus_io.load_documents(args.target_docs)

    pairs = retrieval.align_corpora(
        source_docs,
        target_docs,
        model,
        top_n=args.top_n,
        group_by=args.group_by,
        mutual_best=args.mutual_best,
    )
    # The report is built before any file is written, so that a run it
    # refuses (no pairs) leaves no output behind.
    report = None
    if args.report or args.histogram_csv or args.ranges_csv:
        report = retrieval.alignment_report(pairs, gold=gold)
    retrieval.write_alignment_tsv(pairs, args.output)
    if args.report:
        retrieval.write_report_json(report, args.report)
    if args.histogram_csv:
        retrieval.write_histogram_csv(report, args.histogram_csv)
    if args.ranges_csv:
        retrieval.write_ranges_csv(report, args.ranges_csv)
    _write_manifest(args, Path(args.output).with_suffix(".manifest.json"),
                    [args.corpus, args.source_docs, args.target_docs, args.model])
    print(f"aligned {len(pairs)} pairs -> {args.output}")
    return 0


def _cmd_eval(args) -> int:
    if args.oracle:
        _unread_flags(args, "--oracle queries documents as written", "dictionary", "cache", "ks")
    model = lsi.load_model(args.model)
    corpus = corpus_io.load_aligned_corpus(args.corpus)
    if args.oracle:
        score = retrieval.oracle_experiment(corpus.target_docs, model)
        print(f"R@1 {score}")
        if args.output:
            Path(args.output).write_text(
                json.dumps({"oracle_r_at_1": score}, sort_keys=True) + "\n", encoding="utf-8"
            )
        return 0

    ks = sorted({int(k) for k in ("1,5" if args.ks is None else args.ks).split(",")})
    # Depth at least 1, so that evaluate_retrieval is the one to reject a k below 1.
    ranked = _run_retrieval(args, model, corpus, max(ks[-1], 1))
    report = retrieval.evaluate_retrieval(ranked, retrieval.gold_mapping(corpus), ks)
    for k in ks:
        print(f"R@{k} {report.recall[k]}")
    if args.output:
        retrieval.write_report_json(report, args.output)
    return 0


def _cmd_score(args) -> int:
    if args.measure != "bin":
        _unread_flags(args, f"--measure {args.measure} has no variants", "bin_variant")
    corpus = corpus_io.load_aligned_corpus(args.corpus)
    source, target, dictionary = _preprocessors(args)
    src_tokens, tgt_tokens = _preprocess_corpus(corpus, source, target)

    if args.measure == "bincos":
        # Each side is weighted once for the whole corpus, not per couple.
        scores = dict_cosines(
            src_tokens,
            tgt_tokens,
            dictionary,
            build_vocabulary(src_tokens),
            build_vocabulary(tgt_tokens),
        )
    else:
        # Built per command, not at import: perfbench/tracing.py rebinds matching_rate.
        measure = {
            "bin": bin_pooled if args.bin_variant == "pooled" else bin_symmetric,
            "oov": oov_rate,
            "match": matching_rate,
        }[args.measure]
        scores = (measure(d_s, d_t, dictionary) for d_s, d_t in zip(src_tokens, tgt_tokens))
    with Path(args.output).open("w", encoding="utf-8", newline="\n") as fh:
        for (src, tgt), score in zip(corpus.pairs(), scores):
            fh.write(f"{src.id}\t{tgt.id}\t{score:.6f}\n")
    print(f"scored {len(corpus)} pairs with {args.measure} -> {args.output}")
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-count", type=int, default=1, help="minimum corpus frequency")
    parser.add_argument("--stopwords", default=None, help="stopword file (one per line)")
    parser.add_argument(
        "--reducer-source", choices=_REDUCER_CHOICES, default="identity",
        help="word reducer for the source side",
    )
    parser.add_argument(
        "--reducer-target", choices=_REDUCER_CHOICES, default="identity",
        help="word reducer for the target side",
    )


def _add_translation_flags(parser: argparse.ArgumentParser) -> None:
    """How a monolingual model's queries are translated (see ``_run_retrieval``)."""
    parser.add_argument("--dictionary", default=None, help="translate queries word for word")
    parser.add_argument("--cache", default=None, help="documents file of translated queries")


class _Parser(argparse.ArgumentParser):
    """argparse that expands ``@file`` arguments and raises on a usage error.

    An ``@file`` holds shell-quoted arguments, any number a line, with ``#``
    comments; its arguments stand where the ``@file`` stood, so a later flag
    wins. Subparsers are built from this class too.
    """

    def __init__(self, **kwargs):
        super().__init__(fromfile_prefix_chars="@", **kwargs)

    def convert_arg_line_to_args(self, arg_line: str) -> list[str]:
        try:
            return shlex.split(arg_line, comments=True)
        except ValueError as exc:  # an unclosed quote
            self.error(f"{exc} in @file line {arg_line!r}")

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="xling",
        description="Cross-lingual document similarity, retrieval and alignment.",
    )
    parser.add_argument(
        "--data-dir",
        default=os.environ.get("XLING_DATA_DIR", "."),
        help="base directory for relative data paths (env: XLING_DATA_DIR)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert raw corpora to jsonl + stats")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["pairdirs", "jsonl", "wikidump"], required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--stats", default=None)
    p.add_argument("--src-lang", default=None)
    p.add_argument("--tgt-lang", default=None)
    p.add_argument("--pivot-lang", default=None, help="pivot language for wikidump")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("train", help="split, preprocess and train an LSI model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--kind", choices=["mono", "cross"], default="cross")
    p.add_argument("--k", type=int, default=lsi.DEFAULT_RANK)
    p.add_argument("--train-fraction", type=float, default=None, help="default 0.9")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--no-split", action="store_true", help="train on the whole corpus")
    p.add_argument("--output", required=True)
    p.add_argument("--test-output", default=None, help="held-out pairs (default <output>.test.jsonl)")
    p.add_argument("--dictionary", default=None, help="needed by morphar reducers")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("retrieve", help="rank target documents for each source query")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True, help="jsonl pairs: queries + candidates")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--output", required=True, help="ranked lists JSON")
    p.add_argument("--tsv", default=None, help="optional ranked lists TSV")
    _add_translation_flags(p)
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("align", help="align two unpaired corpora in LSI space")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", default=None, help="aligned jsonl (sides used, gold kept)")
    p.add_argument("--source-docs", default=None, help="flat jsonl documents")
    p.add_argument("--target-docs", default=None, help="flat jsonl documents")
    p.add_argument("--top-n", type=int, default=15)
    p.add_argument("--group-by", default=None, help="align within groups of documents by their "
                   "own group_key; any value (e.g. month) turns this on and is not read")
    p.add_argument("--mutual-best", action="store_true")
    p.add_argument("--output", required=True, help="aligned pairs TSV")
    p.add_argument("--report", default=None, help="report JSON")
    p.add_argument("--histogram-csv", default=None)
    p.add_argument("--ranges-csv", default=None)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("eval", help="recall metrics or the oracle self-test")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--ks", default=None, help="recall depths (default 1,5)")
    p.add_argument("--oracle", action="store_true", help="identity-query self-test")
    p.add_argument("--output", default=None)
    _add_translation_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("score", help="dictionary-based comparability measures")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dictionary", required=True)
    p.add_argument("--measure", choices=["bin", "bincos", "oov", "match"], required=True)
    p.add_argument(
        "--bin-variant", choices=["symmetric", "pooled"], default=None,
        help="'symmetric' averages both directions; 'pooled' counts both sides over total size",
    )
    p.add_argument("--output", required=True)
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_score)

    return parser


def main(argv: list[str] | None = None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            args = build_parser().parse_args(argv)
        except RecursionError:  # argparse expands @file arguments recursively
            raise ValueError("xling: @file arguments nest too deeply") from None
        _resolve_paths(args)
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        _print_error(exc)
        return 4
    except _USAGE_ERRORS as exc:
        _print_error(exc)
        return 2
    except XlingError as exc:
        _print_error(exc)
        return 3
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
