"""Lexical layer: input normalization, tokenization, and the lexicon table
that every stage reads.

The lexicon is a static table loaded from ``data/lexicon.tsv``, one entry per
line: ``category<TAB>KEY<TAB>form1|form2|...[<TAB>Lean image[<TAB>precedence]]``,
where the category is one of ``CATEGORIES``, the names every stage and
``forthel.GRAMMAR`` give the lexical categories.  It is the only place that
says which words and symbols exist, what each means in Lean and how tightly
an operator binds; every stage builds its tables from it.  An operator is one
character, not a letter, digit, whitespace, ``.`` or ``'``, so the tokenizer
can split it from the words around it.  Surface forms may span several words
("less than or equal to") and singular/plural variants of a noun map to the
same entry, so number agreement is deliberately not checked: "x are an odd
integers" is accepted.

The table decides scanning and matching once, at import: ``tokenize`` runs
one pattern built from ``SYMBOLS`` and returns the tokens' texts, and a
``Lexicon`` keeps its index in the order ``match`` returns.
"""

from __future__ import annotations

import os
import re
import sys
from functools import lru_cache
from itertools import accumulate, islice
from typing import Iterable, NamedTuple, Sequence

from .lean import NOTATION, ArithT, Rel

__all__ = [
    "CATEGORIES",
    "Lexicon",
    "LexiconEntry",
    "LexiconError",
    "TokenError",
    "default_lexicon",
    "preprocess",
    "token_spans",
    "tokenize",
]

class TokenError(ValueError):
    """Text that is not a sequence of tokens; ``span`` is in bytes."""

    def __init__(self, message: str, span: tuple[int, int]):
        super().__init__(f"{message} at byte offset {span[0]}")
        self.span = span


def preprocess(raw: str) -> str:
    """Lowercase the input and collapse whitespace runs to single spaces.  A
    character whose lowercase is not one character of its own kind, ASCII or
    not, stays as typed: the Kelvin sign does not become "k", nor "İ" two
    characters."""
    lowered = raw.lower() if raw.isascii() else "".join(
        low if len(low := ch.lower()) == 1 and low.isascii() == ch.isascii() else ch for ch in raw
    )
    return " ".join(lowered.split())


def tokenize(text: str) -> list[str]:
    """Split preprocessed text into its tokens: a period, an integer literal
    ``-?[0-9]+`` (a spaced ``-`` is the operator), one of ``SYMBOLS`` or a
    word, a letter followed by letters or ``'`` ("it's").  A token is its
    text, which says which of the four it is; only a literal ends in a digit.
    Checks over the whole scan tell whether the text may hold what is not a
    token; only then, or where it has other whitespace than a space, is it
    scanned again, to raise the first error with its byte span."""
    tokens = _TOKENS.findall(text)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # the most digits int() takes; 0: no limit
    if (
        # a character that starts no token, a numeric in a word or a long literal
        sum(map(len, tokens)) + text.count(" ") != len(text)
        or not text.isascii() and not "".join(tokens).translate(_NOT_LETTERS).isalpha()
        or limit and len(text) > limit and max(map(len, tokens)) > limit
    ):
        for m in _TOKEN.finditer(text):
            group, lexeme, (start, end) = m.lastindex, m.group(), m.span()
            if group == _WORD and not lexeme.replace("'", "").isalpha():
                # [^\W\d_] also takes numerics such as ² and ½, which are not letters
                start = next(i for i, ch in enumerate(lexeme, start) if not ch.isalpha() and ch != "'")
                group, lexeme, end = _OTHER, text[start], start + 1
            if group == _OTHER or group == _INTEGER and len(lexeme.lstrip("-")) > limit > 0:
                message = f"unknown character {lexeme!r}" if group == _OTHER else "integer literal too long"
                raise TokenError(message, (_utf8_len(text[:start]), _utf8_len(text[:end])))
    return tokens


def token_spans(text: str, ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The byte span of each token range of ``tokenize(text)``, as in a slice
    (an empty range sits where the token before it ends, or at 0); no range
    starts before the one before it ends.  Only a diagnostic needs a span: the
    text is scanned again, up to the last token named, and its bytes counted once."""
    bounds = [(0, 0), *(m.span() for m in islice(_TOKEN.finditer(text), ranges[-1][1] if ranges else 0))]
    chars = [c for a, b in ranges for c in (bounds[a + 1][0] if b > a else bounds[a][1], bounds[b][1])]
    offsets = list(accumulate(_utf8_len(text[i:j]) for i, j in zip([0, *chars], chars)))
    return list(zip(offsets[::2], offsets[1::2]))


def _utf8_len(text: str) -> int:
    return len(text.encode("utf-8", "surrogatepass"))  # a lone surrogate still gets a span


CATEGORIES = ("rawNoun0", "rawNoun2", "rawAdjective0", "rawAdjective1", "variable")


class LexiconEntry(NamedTuple):
    # one of ``CATEGORIES``
    category: str
    key: str
    # alternative surface forms, each a sequence of token texts
    surface: tuple[tuple[str, ...], ...]
    # the entry's image in Lean: a type, predicate, relation or operator
    lean: str | None = None
    # how tightly an operator binds; a higher level binds tighter
    precedence: int | None = None


class LexiconError(ValueError):
    pass


class Lexicon:
    """A matchable collection of lexicon entries."""

    def __init__(self, entries: Iterable[LexiconEntry]):
        self._entries = tuple(entries)
        # (entry, form) pairs by the first element of the form, in the order
        # ``match`` returns them (the sort below is stable)
        self._by_first: dict[str, list[tuple[LexiconEntry, tuple[str, ...]]]] = {}
        seen: set[tuple[str, tuple[str, ...]]] = set()
        for entry in self._entries:
            if entry.category not in CATEGORIES:
                raise LexiconError(f"unknown category {entry.category!r} in entry {entry.key}")
            for form in entry.surface:
                if not form or not all(form):
                    raise LexiconError(f"empty surface form in entry {entry.key}")
                marker = (entry.category, form)
                if marker in seen:
                    raise LexiconError(
                        f"duplicate surface form {' '.join(form)!r} in category {entry.category}"
                    )
                seen.add(marker)
                # an integer literal is a term of its own, never part of a form
                if not any(element.lstrip("-").isdecimal() for element in form):
                    self._by_first.setdefault(form[0], []).append((entry, form))
        for pairs in self._by_first.values():
            pairs.sort(key=lambda pair: (-len(pair[1]), pair[0].category, pair[0].key))

    @classmethod
    def parse(cls, text: str) -> "Lexicon":
        entries = []
        keys: set[tuple[str, str]] = set()
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if not 3 <= len(parts) <= 5:
                raise LexiconError(f"line {line_no}: expected 3 to 5 tab-separated fields")
            category, key, forms, *rest = parts
            if category not in CATEGORIES:
                raise LexiconError(f"line {line_no}: unknown category {category!r}")
            if (category, key) in keys:
                raise LexiconError(f"line {line_no}: duplicate key {key!r} in category {category}")
            keys.add((category, key))
            surface = tuple(tuple(form.split()) for form in forms.split("|"))
            for form in map(" ".join, surface):
                if preprocess(form) != form:
                    raise LexiconError(f"line {line_no}: surface form {form!r} changes under normalisation")
            if category == "rawNoun2" and any(
                len(form) != 1 or len(form[0]) != 1 or form[0].isalnum() or form[0] in ".'"
                for form in surface
            ):
                raise LexiconError(f"line {line_no}: an operator is one symbol character")
            lean = rest[0] if rest else None
            try:
                precedence = int(rest[1]) if len(rest) == 2 else None
            except ValueError:
                raise LexiconError(f"line {line_no}: precedence is not an integer") from None
            entries.append(LexiconEntry(category, key, surface, lean, precedence))
        return cls(entries)

    def entries(self, category: str | None = None) -> tuple[LexiconEntry, ...]:
        """Every entry, or every entry of ``category``, one of ``CATEGORIES``."""
        if category is None:
            return self._entries
        if category not in CATEGORIES:
            raise ValueError(f"unknown category {category!r}")
        return tuple(e for e in self._entries if e.category == category)

    def images(self, category: str) -> dict[str, str | None]:
        """``{key: Lean image}`` for every entry of ``category``."""
        return {e.key: e.lean for e in self.entries(category)}

    def match(self, tokens: Sequence[str], position: int) -> list[tuple[LexiconEntry, int]]:
        """Every entry whose surface form starts at ``position``: longest
        form first, then by category and key, then in table order.

        The index is kept in that order, so ``match`` only filters it; no
        entry matches twice, as a category rejects duplicate forms.  A form
        matches where the tokens equal it, as a token is its text.  Ambiguity
        between overlapping forms ("greater than" inside "greater than or
        equal to") is left to the parser, which looks a position up only
        where its token can start a form of a category it tries.  When the
        longest form there is one word, every form matches and no other
        token is read.
        """
        if position < 0 or position > len(tokens):
            raise IndexError(f"position {position} out of range")
        pairs = self._by_first.get(tokens[position]) if position < len(tokens) else None
        if pairs is None:
            return []
        longest = len(pairs[0][1])
        if longest == 1:  # every form is the one word already compared
            return [(entry, 1) for entry, _ in pairs]
        # each form is compared with a prefix of the texts under the longest
        texts = tuple(tokens[position : position + longest])
        return [(entry, len(form)) for entry, form in pairs if texts[: len(form)] == form]


# the node that a relation or operator image builds in Lean
_NOTATION_NODES = {"rawAdjective1": Rel, "rawNoun2": ArithT}


@lru_cache(maxsize=1)
def default_lexicon() -> Lexicon:
    """The bundled table, which every stage builds its tables from: each
    entry but a variable needs a Lean image, and each operator a precedence.
    A relation or operator image must be a relation or an operator of
    ``lean.NOTATION``, so that Lean can read what is printed with it."""
    with open(os.path.join(os.path.dirname(__file__), "data", "lexicon.tsv"), encoding="utf-8") as table:
        lexicon = Lexicon.parse(table.read())
    for e in lexicon.entries():
        if not e.lean and e.category != "variable":
            raise LexiconError(f"entry {e.key} has no Lean image")
        if e.precedence is None and e.category == "rawNoun2":
            raise LexiconError(f"operator {e.key} has no precedence")
        node = _NOTATION_NODES.get(e.category)
        if node is not None and (e.lean not in NOTATION or NOTATION[e.lean].node is not node):
            raise LexiconError(f"entry {e.key}: Lean has no {e.category} notation {e.lean!r}")
    return lexicon


# the fixed punctuation and the lexicon's operators, one character each
SYMBOLS = "()," + "".join(
    symbol for e in default_lexicon().entries("rawNoun2") for (symbol,) in e.surface
)

# tried in order, so a "-" glued to digits is a literal; the rescan's last
# group takes any other character but whitespace
_ALTERNATIVES = (r"-?[0-9]+", rf"[.{re.escape(SYMBOLS)}]", r"[^\W\d_]+(?:'[^\W\d_]*)*")
_TOKENS = re.compile("|".join(_ALTERNATIVES))
_TOKEN = re.compile("|".join(f"({alternative})" for alternative in (*_ALTERNATIVES, r"\S")))
_INTEGER, _WORD, _OTHER = 1, 3, 4
# what a token holds but a word's letters
_NOT_LETTERS = dict.fromkeys(map(ord, "0123456789.'" + SYMBOLS))
