import pytest
from hypothesis import settings

from xling.bidict import BilingualDictionary
from xling.corpus import AlignedCorpus, Document

# One Hypothesis profile for every run, local or CI. No deadline: a loaded
# machine can stretch any example past one. A failure prints the blob that
# replays it. Each test draws from a seed fixed by its own code, so that
# every run tries the same examples.
settings.register_profile("xling", deadline=None, print_blob=True, derandomize=True)
settings.load_profile("xling")


@pytest.fixture
def tiny_corpus() -> AlignedCorpus:
    """Three aligned pairs with overlapping vocabulary."""
    source = (
        Document("e1", "en", "olive oil is good oil"),
        Document("e2", "en", "the press makes oil"),
        Document("e3", "en", "markets rise on news"),
    )
    target = (
        Document("a1", "ar", "zayt zaytun jayid zayt"),
        Document("a2", "ar", "mitbaa tasna zayt"),
        Document("a3", "ar", "aswaq tartafi akhbar"),
    )
    return AlignedCorpus(source, target)


@pytest.fixture
def toy_dictionary() -> BilingualDictionary:
    return BilingualDictionary(
        [
            (("olive",), ("zaytun",)),
            (("oil",), ("zayt",)),
            (("good", "fine"), ("jayid",)),
            (("press",), ("mitbaa",)),
            (("market", "markets"), ("aswaq", "suq")),
        ]
    )
