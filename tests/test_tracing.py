"""The benchmark tracer's wrap points still exist in the package.

``perfbench/tracing.py`` replaces module attributes of xling by name, so
deleting or renaming a wrapped function breaks every ``--trace 1`` run. The
wrappers are installed in a fresh interpreter so that they cannot leak into
other tests.

Three wrap points are one-item hooks that the package no longer exports:
``retrieval.retrieve``, ``retrieval.embed_crosslingual`` and
``bidict.dict_cosine``. Each must give its batched call's bits, and no
package or demo code may call the first two.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from xling import bidict, retrieval
from xling.lsi import build_cross_matrix, fold_in_many, train
from xling.synthetic import SyntheticSpec, make_comparable_corpus, make_dictionary
from xling.vsm import build_vocabulary

ROOT = Path(__file__).resolve().parents[1]

_INSTALL = """
import tracing
tracer = tracing.Tracer()
tracing.install_linalg(tracer)
tracing.install_xling(tracer)
"""


def test_tracer_installs_on_every_wrap_point(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", _INSTALL], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


HOOKS = ("retrieve", "embed_crosslingual")


def test_hooks_equal_their_batched_calls_bit_for_bit():
    spec = SyntheticSpec(n_topics=4, words_per_topic=15, common_words=4, doc_length=(20, 40))
    corpus = make_comparable_corpus(12, spec, seed=3)
    src = [d.text.split() for d in corpus.source_docs]
    tgt = [d.text.split() for d in corpus.target_docs]
    model = train(build_cross_matrix(src, tgt), k=5)

    for side, docs in (("source", src), ("target", tgt)):
        block = fold_in_many(docs, model, side)
        for doc, row in zip(docs, block):
            assert retrieval.embed_crosslingual(doc, side, model).tobytes() == row.tobytes()

    candidates = retrieval.Embeddings([d.id for d in corpus.target_docs],
                                      fold_in_many(tgt, model, "target"))
    queries = fold_in_many(src, model, "source")
    ids = [d.id for d in corpus.source_docs]
    for query, query_id, ranked in zip(queries, ids,
                                       retrieval.retrieve_many(queries, candidates, 4, ids)):
        one = retrieval.retrieve(query, candidates, 4, query_id=query_id)
        assert [(c, s.hex()) for c, s in one.entries] == \
            [(c, s.hex()) for c, s in ranked.entries]
        assert one.query_id == ranked.query_id

    dictionary = make_dictionary(spec, coverage=0.7, seed=4)
    stats_s, stats_t = build_vocabulary(src), build_vocabulary(tgt)
    scores = bidict.dict_cosines(src, tgt, dictionary, stats_s, stats_t)
    assert any(scores)
    for d_s, d_t, score in zip(src, tgt, scores):
        assert bidict.dict_cosine(d_s, d_t, dictionary, stats_s, stats_t).hex() == score.hex()


def _hook_calls(path: Path) -> list[str]:
    calls = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in HOOKS:
                calls.append(f"{path.parent.name}/{path.name}:{node.lineno} {name}")
    return calls


def test_no_package_or_demo_code_calls_a_hook():
    files = sorted((ROOT / "src" / "xling").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    assert len(files) > 10
    assert [call for path in files for call in _hook_calls(path)] == []
