"""Brute-force reference implementations of the dictionary measures and
of top-n ranking.

The dictionary measures work directly off the synset list by exhaustive
enumeration (no indexes, no shortcuts) so the package implementations have
a fully independent oracle to agree with. Only suitable for toy documents.
``pair_loop_dict_cosine`` is the exception: it walks every translation
pair and sums exactly, so the indexed ``dict_cosines`` must match it bit for
bit.
``brute_tfidf`` is the per-term loop that each row of
``Vocabulary.weight_rows`` must reproduce bit for bit, and with it every
matrix and fold-in built on it. ``loop_idf`` is one ``math.log`` per term,
which ``Vocabulary.idf`` (one per distinct df) must equal bit for bit.
``qr_power_iteration_svd`` is the randomized SVD with a full QR after every
product, and ``lu_half_step_svd`` the one that LU-normalizes both blocks on
every half step and takes an economic QR; the range finder in ``lsi``, which
normalizes once per power iteration, must match both.
``fancy_index_sign_fix`` is ``lsi.train``'s rank truncation and sign fix as
first written, negating flipped columns by fancy indexing; the in-place flip
``train`` makes must give the same bits.
``chain_couple`` builds a couple whose maximum matching needs an augmenting
path of a given length, longer than Python's recursion limit if asked.
``token_pipeline`` is the preprocessing that carried a ``Token`` (surface and
reduced form) per word occurrence through reduction and filtering; the
plain-string ``run_pipeline`` and ``tokenize`` must reproduce it exactly.
``regex_tokenize`` is ``tokenize`` without its ASCII fast path: the word
regex over the text, then each word lowercased.
``loop_light_stem``, ``loop_root_stem`` and ``loop_suffix_stem`` walk the
affix tables one entry at a time, from copies written out here, so that the
compiled tables in ``textprep`` must agree with them on every word and an
edit to either side shows up. ``two_step_reduced_dictionary`` loads a dictionary as written and then
reduces and rebuilds it, as loading with reducers must.
``split_every_side_load_dictionary`` is the dictionary loader as first
written, with each term lowercased after its strip: every side goes through
split, strip and filter, and the synsets through a list of tuples. The
loader, which takes a short path for one-term sides and lowercases the whole
text at once, must build the same dictionary or raise the same error.
``brute_align`` aligns from a dense table of per-document cosines, which
``align_corpora`` must reproduce, and ``brute_align_warnings`` lists the
warnings it must raise, in order.
``per_query_retrieve`` scores every candidate of one query elementwise, the
ranking ``retrieve_many`` must reproduce bit for bit after its BLAS screen.
``dumps_ranked_lists`` is the ranked-list JSON as one ``json.dumps`` call
writes it; ``write_ranked_lists_json`` assembles the same bytes itself.
``loads_records`` is the JSONL record reader as first written, one
``json.loads`` and a per-field test a line; ``corpus._records``, which
decodes each line once with ``raw_decode``, must yield the same records or
raise the same error with the same message.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np
import scipy.linalg

from xling.bidict import BilingualDictionary, load_dictionary
from xling.errors import MalformedLineError, MalformedRecordError
from xling.lsi import _RANK_TRUNCATION, fold_in_many
from xling.retrieval import Embeddings, _unit_rows
from xling.textprep import ReducerKind, _root_pass, make_reducer, tokenize


def tfidf(tf: int, df: int, n_docs: int) -> float:
    """``tf * ln(N/df)``, one term at a time."""
    return tf * math.log(n_docs / df)


def brute_tfidf(tokens, vocabulary) -> dict[int, float]:
    """Non-zero tfidf weight of each in-vocabulary term of ``tokens``, by index."""
    weights = {}
    for term, tf in Counter(tokens).items():
        i = vocabulary.get(term)
        if i is None:
            continue
        w = tfidf(tf, int(vocabulary.df[i]), vocabulary.n_docs)
        if w != 0.0:
            weights[i] = w
    return weights


def loop_idf(df: Sequence[int], n_docs: int) -> np.ndarray:
    """``ln(N/df)`` of each term, one ``math.log`` per term."""
    return np.array([math.log(n_docs / d) for d in df], dtype=np.float64)


def brute_fold_in(tokens, vocabulary, offset: int, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``v^t U S^{-1}`` over the rows of ``brute_tfidf``'s terms, shifted by ``offset``."""
    weights = sorted(brute_tfidf(tokens, vocabulary).items())
    rows = np.array([offset + i for i, _ in weights], dtype=np.int64)
    values = np.array([w for _, w in weights], dtype=np.float64)
    return (values @ u[rows]) / s


def _in_vocab(word: str, synsets, side: int) -> bool:
    return any(word in synset[side] for synset in synsets)


def _has_translation(word: str, doc_types: set[str], synsets, side: int) -> bool:
    other = 1 - side
    for synset in synsets:
        if word in synset[side] and any(t in doc_types for t in synset[other]):
            return True
    return False


def brute_bin(d_s, d_t, synsets, side: int = 0) -> float:
    """Directed binary measure by triple enumeration."""
    types_s = set(d_s)
    types_t = set(d_t)
    in_vocab = [w for w in types_s if _in_vocab(w, synsets, side)]
    if not in_vocab:
        return 0.0
    hits = sum(1 for w in in_vocab if _has_translation(w, types_t, synsets, side))
    return hits / len(in_vocab)


def brute_bin_symmetric(d_s, d_t, synsets) -> float:
    return (brute_bin(d_s, d_t, synsets, side=0) + brute_bin(d_t, d_s, synsets, side=1)) / 2.0


def brute_bin_pooled(d_s, d_t, synsets) -> float:
    """Pooled binary measure: each token of either side whose type has a
    translation among the other side's types, over both sides' token counts."""
    types_s = set(d_s)
    types_t = set(d_t)
    hits = sum(1 for w in d_s if _has_translation(w, types_t, synsets, 0))
    hits += sum(1 for w in d_t if _has_translation(w, types_s, synsets, 1))
    return hits / (len(d_s) + len(d_t))


def brute_oov(d_s, d_t, synsets) -> float:
    oov_s = sum(1 for w in d_s if not _in_vocab(w, synsets, 0))
    oov_t = sum(1 for w in d_t if not _in_vocab(w, synsets, 1))
    return 0.5 * (oov_s / len(d_s) + oov_t / len(d_t))


def _best_matching(sources, used_targets: set[str], edges) -> int:
    """Exhaustive search for the maximum one-to-one pairing size."""
    if not sources:
        return 0
    head, rest = sources[0], sources[1:]
    best = _best_matching(rest, used_targets, edges)  # leave head unmatched
    for target in edges.get(head, ()):
        if target in used_targets:
            continue
        used_targets.add(target)
        best = max(best, 1 + _best_matching(rest, used_targets, edges))
        used_targets.discard(target)
    return best


def brute_matched_pairs(d_s, d_t, synsets) -> int:
    types_s = sorted(set(d_s))
    types_t = set(d_t)
    edges: dict[str, list[str]] = {}
    for ws in types_s:
        partners = set()
        for src_terms, tgt_terms in synsets:
            if ws in src_terms:
                partners.update(t for t in tgt_terms if t in types_t)
        if partners:
            edges[ws] = sorted(partners)
    return _best_matching(sorted(edges), set(), edges)


def brute_matching_rate(d_s, d_t, synsets) -> float:
    return brute_matched_pairs(d_s, d_t, synsets) / (len(d_s) + len(d_t))


def brute_dict_cosine(d_s, d_t, synsets, source_stats, target_stats) -> float:
    """Dense evaluation: one explicit attribute per translation pair."""
    pairs = sorted(
        {
            (ws, wt)
            for src_terms, tgt_terms in synsets
            for ws in src_terms
            for wt in tgt_terms
        }
    )
    counts_s = Counter(d_s)
    counts_t = Counter(d_t)

    def tfidf(term, counts, stats):
        tf = counts.get(term, 0)
        if tf == 0 or term not in stats:
            return 0.0
        i = stats.index(term)
        return tf * math.log(stats.n_docs / stats.df[i])

    vec_s = [tfidf(ws, counts_s, source_stats) for ws, _ in pairs]
    vec_t = [tfidf(wt, counts_t, target_stats) for _, wt in pairs]
    dot = sum(a * b for a, b in zip(vec_s, vec_t))
    norm_s = math.sqrt(sum(a * a for a in vec_s))
    norm_t = math.sqrt(sum(b * b for b in vec_t))
    if norm_s == 0.0 or norm_t == 0.0:
        return 0.0
    return dot / (norm_s * norm_t)


def pair_loop_dict_cosine(d_s, d_t, dictionary, source_stats, target_stats) -> float:
    """One couple's ``dict_cosines`` as one loop over all of the dictionary's
    translation pairs, deduplicated, read off its synsets; each sum is exact
    (``math.fsum``), so the loop's order does not matter."""
    counts_s = Counter(d_s)
    counts_t = Counter(d_t)

    def weight(term: str, counts: Counter, stats) -> float:
        tf = counts.get(term, 0)
        if tf == 0:
            return 0.0
        i = stats.get(term)
        if i is None:
            return 0.0
        return tfidf(tf, int(stats.df[i]), stats.n_docs)

    dot, norm_s, norm_t = [], [], []
    pairs = {(ws, wt) for src, tgt in dictionary.synsets for ws in src for wt in tgt}
    for ws, wt in pairs:
        a = weight(ws, counts_s, source_stats)
        b = weight(wt, counts_t, target_stats)
        dot.append(a * b)
        norm_s.append(a * a)
        norm_t.append(b * b)
    dot, norm_s, norm_t = math.fsum(dot), math.fsum(norm_s), math.fsum(norm_t)
    if norm_s == 0.0 or norm_t == 0.0:
        return 0.0
    return dot / (norm_s**0.5 * norm_t**0.5)


def random_toy_pair(rng):
    """Random documents (up to 10 tokens) and a random small synset list."""
    src_pool = [f"s{i}" for i in range(8)]
    tgt_pool = [f"t{i}" for i in range(8)]
    d_s = [src_pool[rng.integers(len(src_pool))] for _ in range(rng.integers(1, 11))]
    d_t = [tgt_pool[rng.integers(len(tgt_pool))] for _ in range(rng.integers(1, 11))]
    synsets = []
    for _ in range(rng.integers(0, 7)):
        src_terms = frozenset(
            src_pool[rng.integers(len(src_pool))] for _ in range(rng.integers(1, 4))
        )
        tgt_terms = frozenset(
            tgt_pool[rng.integers(len(tgt_pool))] for _ in range(rng.integers(1, 4))
        )
        synsets.append((src_terms, tgt_terms))
    return d_s, d_t, synsets


def brute_cosine(u, v) -> float:
    """Cosine of two dense vectors; 0.0 when either has zero norm."""
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v)) / (nu * nv)


def brute_retrieve(query_vec, candidates: Mapping[str, np.ndarray], n: int):
    """Top ``n`` (id, similarity) pairs: one cosine per candidate, then a
    full sort by descending similarity and ascending id."""
    scored = [(cid, brute_cosine(query_vec, vec)) for cid, vec in candidates.items()]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:n]


def per_query_retrieve(query_vec, candidates: Embeddings, n: int) -> list[tuple[str, float]]:
    """Top ``n`` (id, similarity) pairs of one query, scoring every candidate.

    The similarity is one elementwise product of the unit rows summed per
    row, which never goes through BLAS; a stable sort by descending
    similarity keeps equal scores in the ascending id order of the rows.
    """
    query = np.asarray(query_vec, dtype=np.float64)
    sims = (candidates.unit * _unit_rows(query[None, :])[0]).sum(axis=1)
    top = np.argsort(-sims, kind="stable")[:n]
    return [(candidates.ids[i], float(sims[i])) for i in top]


def brute_bucket_cosines(source_docs, target_docs, model, group_by=None):
    """Per alignment bucket (sorted by key), every source-target cosine.

    Each document is folded on its own, a collection of one; one with no
    in-vocabulary term (a zero vector) is dropped, and so is a bucket left
    empty on either side. Yields ``(key, {(source_id, target_id): cosine})``.
    """
    buckets: dict = {}
    for side, docs in enumerate((source_docs, target_docs)):
        for doc in docs:
            key = doc.group_key if group_by is not None else None
            buckets.setdefault(key, ([], []))[side].append(doc)
    for key in sorted(buckets):
        folded = []
        for side, docs in zip(("source", "target"), buckets[key]):
            vectors = {d.id: fold_in_many([tokenize(d.text)], model, side)[0] for d in docs}
            folded.append({i: v for i, v in vectors.items() if np.any(v)})
        sources, targets = folded
        if sources and targets:
            yield key, {(s, t): brute_cosine(sources[s], targets[t])
                        for s in sources for t in targets}


def brute_align(source_docs, target_docs, model, top_n, group_by=None, mutual_best=False):
    """``(source_id, target_id, similarity, group_key)`` per aligned pair.

    Within each bucket of ``brute_bucket_cosines``, each source takes its
    most similar target (ties to the smaller id); ``mutual_best`` keeps a
    pair only when the target's own best source is that source. The pairs
    sort by descending similarity, then ids, and the top ``top_n`` stay.
    """
    pairs = []
    for key, cosines in brute_bucket_cosines(source_docs, target_docs, model, group_by):
        def best(own: int, doc_id: str) -> str:
            rivals = [(-c, pair[1 - own]) for pair, c in cosines.items() if pair[own] == doc_id]
            return min(rivals)[1]

        bucket = []
        for s in sorted({pair[0] for pair in cosines}):
            t = best(0, s)
            if not mutual_best or best(1, t) == s:
                bucket.append((s, t, cosines[s, t], key))
        bucket.sort(key=lambda p: (-p[2], p[0], p[1]))
        pairs.extend(bucket[:top_n])
    return pairs


def brute_align_warnings(source_docs, target_docs, model, group_by=None) -> list[str]:
    """The warnings ``align_corpora`` raises, in order: per bucket (sorted by
    key), one for a bucket empty on either side, else one per side for its
    documents that fold to a zero vector, each folded on its own. Ungrouped,
    the one bucket exists even with no documents."""
    buckets: dict = {} if group_by is not None else {None: ([], [])}
    for side, docs in enumerate((source_docs, target_docs)):
        for doc in docs:
            key = doc.group_key if group_by is not None else None
            buckets.setdefault(key, ([], []))[side].append(doc)
    messages = []
    for key in sorted(buckets):
        if not all(buckets[key]):
            messages.append(f"group {key!r} is empty on one side; skipped")
            continue
        for side, docs in zip(("source", "target"), buckets[key]):
            blank = sorted(d.id for d in docs
                           if not np.any(fold_in_many([tokenize(d.text)], model, side)[0]))
            if blank:
                messages.append(f"{side}s with no in-vocabulary term left out: {blank}")
    return messages


def dumps_ranked_lists(ranked_lists) -> str:
    """The ranked lists' JSON text, ``json.dumps`` of the whole payload."""
    payload = {
        "queries": [
            {
                "query_id": rl.query_id,
                "skipped": rl.skipped,
                "entries": [[cid, sim] for cid, sim in rl.entries],
            }
            for rl in ranked_lists
        ]
    }
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def qr_power_iteration_svd(a, k: int, oversample: int, power_iterations: int, seed: int):
    """Randomized truncated SVD that orthonormalizes every product by QR."""
    m, n = a.shape
    sketch = min(k + oversample, min(m, n))
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((n, sketch))
    q, _ = np.linalg.qr(a @ omega)
    for _ in range(power_iterations):
        z, _ = np.linalg.qr(a.T @ q)
        q, _ = np.linalg.qr(a @ z)
    b = (a.T @ q).T
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    return (q @ ub)[:, :k], s[:k], vt[:k, :]


def lu_half_step_svd(a, k: int, oversample: int, power_iterations: int, seed: int):
    """Randomized truncated SVD that LU-normalizes the tall and the short
    block after every product, then takes one economic QR."""
    m, n = a.shape
    sketch = min(k + oversample, min(m, n))
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((n, sketch))
    y = a @ omega
    for _ in range(power_iterations):
        y = scipy.linalg.lu(y, permute_l=True, check_finite=False)[0]
        z = scipy.linalg.lu(a.T @ y, permute_l=True, check_finite=False)[0]
        y = a @ z
    q = scipy.linalg.qr(y, mode="economic", check_finite=False)[0]
    b = (a.T @ q).T
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    return (q @ ub)[:, :k], s[:k], vt[:k, :]


def fancy_index_sign_fix(u, s, vt):
    """Truncate ``_randomized_svd``'s factors at the rank threshold, then
    negate each column of U whose largest-magnitude entry (the first, on a
    tie) is negative, with its row of V^T. Returns ``(u, s, v)``; the inputs
    are left as they were."""
    keep = s > _RANK_TRUNCATION * s[0]
    u, s, vt = u[:, keep].copy(), s[keep], vt[keep, :].copy()
    pivot = np.argmax(np.abs(u), axis=0)
    flip = u[pivot, np.arange(u.shape[1])] < 0
    u[:, flip] = -u[:, flip]
    vt[flip, :] = -vt[flip, :]
    return u, s, vt.T


class Token(NamedTuple):
    """A word occurrence: the raw surface form and its current reduced form."""

    surface: str
    reduced: str


_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


def regex_tokenize(text: str) -> list[str]:
    """Lowercased word tokens, by the word regex alone, for any text."""
    return list(map(str.lower, _WORD_RE.findall(text)))


def token_tokenize(text: str, lowercase: bool = True) -> list[Token]:
    """Split ``text`` into word tokens, dropping punctuation."""
    tokens = []
    for m in _WORD_RE.finditer(text):
        surface = m.group(0)
        reduced = surface.lower() if lowercase else surface
        tokens.append(Token(surface, reduced))
    return tokens


def corpus_term_counts(docs: Iterable[Sequence[Token]]) -> Counter:
    """Total occurrence count per reduced term over the whole corpus."""
    counts: Counter = Counter()
    for doc in docs:
        counts.update(t.reduced for t in doc)
    return counts


def apply_filters(docs, config, corpus_counts: Mapping[str, int]) -> list[list[Token]]:
    """Drop stopwords (by lowercased surface or reduced form) and terms
    whose corpus count is below ``config.min_corpus_frequency``."""
    out = []
    for doc in docs:
        kept = [
            t
            for t in doc
            if t.surface.lower() not in config.stopwords
            and t.reduced not in config.stopwords
            and corpus_counts.get(t.reduced, 0) >= config.min_corpus_frequency
        ]
        out.append(kept)
    return out


def token_pipeline(texts, config, *, side: str = "source", dictionary=None) -> list[list[str]]:
    """Tokenize, reduce (each distinct word once) and filter one corpus side."""
    kind = config.reducer_for(side)
    docs = [token_tokenize(text) for text in texts]
    if kind is not ReducerKind.IDENTITY:
        reducer = make_reducer(kind, dictionary=dictionary, side=side)
        memo: dict[str, str] = {}
        for doc in docs:
            for i, t in enumerate(doc):
                reduced = memo.get(t.reduced)
                if reduced is None:
                    reduced = memo[t.reduced] = reducer(t.reduced)
                doc[i] = Token(t.surface, reduced)
    counts = corpus_term_counts(docs)
    filtered = apply_filters(docs, config, counts)
    return [[t.reduced for t in doc] for doc in filtered]


# The reducer tables as the loops below walk them: in priority order, the
# longest entries first.
LOOP_AR_PREFIXES = ("وال", "بال", "كال", "فال", "لل", "ال", "سي", "و", "ف", "ي")
LOOP_AR_SUFFIXES = ("ات", "ون", "ين", "ان", "ها", "نا", "ة", "ه", "ي", "ت")
LOOP_EN_SUFFIX_RULES = (
    ("sses", "ss"), ("ies", "y"), ("ied", "y"), ("ing", "e"), ("es", "e"), ("ed", "e"), ("s", ""),
)
LOOP_MIN_STEM = 3


def _fixpoint(fn: Callable[[str], str], word: str) -> str:
    prev = None
    while word != prev:
        prev = word
        word = fn(word)
    return word


def _strip_once(word: str) -> str:
    """One light-stemming pass: strip at most one prefix and one suffix."""
    for p in LOOP_AR_PREFIXES:
        if word.startswith(p) and len(word) - len(p) >= LOOP_MIN_STEM:
            word = word[len(p):]
            break
    for s in LOOP_AR_SUFFIXES:
        if word.endswith(s) and len(word) - len(s) >= LOOP_MIN_STEM:
            word = word[: len(word) - len(s)]
            break
    return word


def loop_light_stem(word: str) -> str:
    return _fixpoint(_strip_once, word)


def loop_root_stem(word: str) -> str:
    stem = loop_light_stem(word)
    root = _fixpoint(lambda w: _root_pass(loop_light_stem(w)), stem)
    return stem if len(root) < LOOP_MIN_STEM else root


def _suffix_pass(word: str) -> str:
    for suffix, replacement in LOOP_EN_SUFFIX_RULES:
        if not word.endswith(suffix):
            continue
        if suffix == "s" and (word.endswith("ss") or word.endswith("us")):
            continue
        candidate = word[: len(word) - len(suffix)] + replacement
        if len(candidate) >= LOOP_MIN_STEM:
            return candidate
    return word


def loop_suffix_stem(word: str) -> str:
    return _fixpoint(_suffix_pass, word)


def two_step_reduced_dictionary(
    path, source_fn: Callable[[str], str], target_fn: Callable[[str], str]
) -> BilingualDictionary:
    """Load the dictionary as written, then map each synset's terms and rebuild."""
    return BilingualDictionary(
        ([source_fn(t) for t in src], [target_fn(t) for t in tgt])
        for src, tgt in load_dictionary(path).synsets
    )


def split_every_side_load_dictionary(
    path: str | Path,
    source_fn: Callable[[str], str] = str,
    target_fn: Callable[[str], str] = str,
) -> BilingualDictionary:
    """``load_dictionary`` through split, strip, filter and lowercase on every side."""
    synsets = []
    for line_number, raw in enumerate(
        Path(path).read_text(encoding="utf-8-sig").splitlines(), start=1
    ):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise MalformedLineError(line_number, "expected exactly one tab separator")
        src_terms = [t.lower() for t in filter(None, map(str.strip, parts[0].split("|")))]
        tgt_terms = [t.lower() for t in filter(None, map(str.strip, parts[1].split("|")))]
        if not src_terms or not tgt_terms:
            raise MalformedLineError(line_number, "both synset sides must be non-empty")
        synsets.append((map(source_fn, src_terms), map(target_fn, tgt_terms)))
    return BilingualDictionary(synsets)


def chain_couple(n: int) -> tuple[list[str], list[str], list[tuple[tuple[str, ...], tuple[str, ...]]]]:
    """A couple whose last augmenting path has ``n`` steps.

    The synsets are S_0 <-> T_0 and S_i <-> {T_(i-1), T_i}. Sources are named so
    that S_n sorts first: each S_i (i >= 1) takes T_(i-1), and S_0 then has to
    move every one of them on to T_i.
    """
    sources = [f"s{n - i:05d}" for i in range(n + 1)]
    targets = [f"t{i:05d}" for i in range(n + 1)]
    synsets = [((sources[0],), (targets[0],))]
    synsets += [((sources[i],), (targets[i - 1], targets[i])) for i in range(1, n + 1)]
    return sources, targets, synsets


def loads_records(path: Path, required: Sequence[str]) -> Iterator[tuple[int, dict]]:
    """``(line_number, record)`` for each non-blank line, through ``json.loads``.

    It opens the file with ``utf-8-sig``, as the package's reader does, so a
    leading byte-order mark is dropped here too.
    """
    with path.open("r", encoding="utf-8-sig") as fh:
        for line_number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise MalformedRecordError(line_number, f"invalid JSON: {exc}") from exc
            if not isinstance(record, dict) or any(f not in record for f in required):
                *rest, last = map(repr, required)
                raise MalformedRecordError(
                    line_number, f"record needs {', '.join(rest)} and {last}"
                )
            yield line_number, record
