"""Every name a ``src/xling`` module imports is used there, and the package
exports exactly the names listed here.

``__init__`` re-exports by design and is skipped; a line that says
``noqa`` keeps an import on purpose (a re-export another module wraps), so
such a line may import one name only: the others would go unchecked.
"""

import ast
import types
from collections import Counter
from pathlib import Path

import pytest

import xling

SRC = Path(__file__).resolve().parents[1] / "src" / "xling"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from node.names


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for alias in _imports(tree):
        if "noqa" not in lines[alias.lineno - 1]:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def _noqa_lines_with_several_names(source: str) -> list[int]:
    lines = source.splitlines()
    names_on = Counter(alias.lineno for alias in _imports(ast.parse(source)))
    return sorted(n for n, count in names_on.items() if count > 1 and "noqa" in lines[n - 1])


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_noqa_import_line_names_one_name(path):
    assert _noqa_lines_with_several_names(path.read_text(encoding="utf-8")) == []


def test_noqa_line_with_several_names_is_caught():
    source = (
        "from .bidict import (\n"
        "    dict_cosines,\n"
        "    dict_cosine,  # noqa: F401\n"
        ")\n"
        "from .bidict import dict_cosine, dict_cosines, load_dictionary  # noqa: F401\n"
    )
    assert _noqa_lines_with_several_names(source) == [5]


# One public name per operation; a change that adds or drops one edits this list.
EXPORTS = [
    "AlignedCorpus", "AlignmentPair", "BilingualDictionary", "CrossVocabulary", "Document",
    "Embeddings", "EvalReport", "LsiModel", "PipelineConfig", "Preprocessor", "RankedList",
    "ReducerKind", "TermDocMatrix", "Vocabulary", "align_corpora", "alignment_report",
    "bin_measure", "bin_pooled", "bin_symmetric", "build_cross_matrix",
    "build_mono_matrix", "build_vocabulary", "cached_translator", "dict_cosines",
    "dictionary_translator", "evaluate_retrieval", "extract_comparable_articles",
    "fold_in_many", "gold_mapping", "identity_translator", "lemmatize", "light_stem",
    "load_aligned_corpus", "load_dictionary", "load_documents", "load_model",
    "make_reducer", "matching_rate", "oov_rate", "oracle_experiment",
    "parse_interlanguage_links", "recall_at_k", "retrieve_ar_lsi", "retrieve_cl_lsi",
    "retrieve_many", "root_stem", "run_pipeline", "save_aligned_corpus", "save_documents",
    "save_model", "split_corpus", "strip_wiki_markup", "suffix_stem", "tokenize", "train",
]


def test_package_exports_pinned():
    exported = [name for name, value in vars(xling).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(exported) == EXPORTS
