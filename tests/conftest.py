import pytest

from forlean.corpus import default_corpus_path, load_corpus
from forlean.lean import normalize_names, print_command
from forlean.lean_reader import read_command
from forlean.lexicon import preprocess, tokenize
from forlean.parsing import parse_text
from forlean.simplify import reserved_ids


@pytest.fixture(scope="session")
def corpus_cases():
    cases = load_corpus(default_corpus_path())
    assert len(cases) == 42
    return cases


def parse_source(source: str):
    """Parse a raw source string into its tree set."""
    return parse_text(tokenize(preprocess(source)))


def reserved(source: str) -> frozenset[int]:
    """The ids a raw source string reserves, for ``simplify``."""
    return reserved_ids(tokenize(preprocess(source)))


def canonical(printed: str) -> str:
    """Printed output modulo hypothesis labels, generated variable names and
    whitespace."""
    return " ".join(print_command(normalize_names(read_command(printed))).split())
