from pathlib import Path

import pytest

import forlean
from forlean import parsing
from forlean.corpus import load_corpus
from forlean.lean import normalize_names, print_command
from forlean.lean_reader import read_command
from forlean.lexicon import preprocess, tokenize
from forlean.parsing import parse_text
from forlean.simplify import reserved_ids


# the bundled regression set, beside the package's own modules
CORPUS = Path(forlean.__file__).parent / "data" / "corpus.txt"


@pytest.fixture(scope="session")
def corpus_cases():
    cases = load_corpus(CORPUS)
    assert len(cases) == 42
    return cases


def parse_source(source: str):
    """Parse a raw source string into its tree set."""
    return parse_text(tokenize(preprocess(source)))


def parse_as(tokens, start: str):
    """Parse a token list as one complete phrase of the grammar category
    ``start``, such as ``"statement"`` or ``"term"``."""
    return parsing._run(tokens, start)


def expect_trees(result) -> tuple:
    """The trees of a parse result, which must have at least one."""
    assert result.trees, result.diagnostics
    return result.trees


def reserved(source: str) -> frozenset[int]:
    """The ids a raw source string reserves, for ``simplify``."""
    return reserved_ids(tokenize(preprocess(source)))


def canonical(printed: str) -> str:
    """Printed output modulo hypothesis labels, generated variable names and
    whitespace."""
    return " ".join(print_command(normalize_names(read_command(printed))).split())
