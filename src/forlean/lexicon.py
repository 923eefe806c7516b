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
one pattern built from ``SYMBOLS`` and takes each byte span from its match,
and a ``Lexicon`` keeps its index in the order ``match`` returns.
"""

from __future__ import annotations

import os
import re
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .lean import NOTATION, ArithT, Rel

__all__ = [
    "CATEGORIES",
    "Lexicon",
    "LexiconEntry",
    "LexiconError",
    "Token",
    "TokenError",
    "default_lexicon",
    "preprocess",
    "tokenize",
]

class Token(NamedTuple):
    """A token's text, the int it denotes if it is an integer literal (else
    None), and its byte offsets into the tokenized string.  The text fixes
    what the token is: a period, an integer literal, a symbol or a word."""

    text: str
    value: int | None
    span: tuple[int, int]


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


def tokenize(text: str) -> list[Token]:
    """Turn preprocessed text into tokens ``(text, value, span)``.

    One pattern, built from ``SYMBOLS`` at import, scans the text: a period
    is ``.``, an integer is ``-?[0-9]+``, a symbol is one of ``SYMBOLS`` and
    a word is a letter followed by letters or ``'`` ("it's"), so a token's
    text says which of these it is; only an integer literal has a ``value``.
    A ``-`` immediately followed by digits is a negative integer literal; a
    spaced ``-`` is the binary operator.  A span is the match's own span in
    ASCII text, where a character is a byte; otherwise it goes through a
    table of each character's UTF-8 offset.
    """
    ascii_ = text.isascii()
    if not ascii_:
        # a lone surrogate is not valid UTF-8 but must still get a span
        to_byte = [0, *accumulate(len(ch.encode("utf-8", "surrogatepass")) for ch in text)]
    tokens: list[Token] = []
    # tuple.__new__ skips the Python-level __new__ of the named tuple
    append, new = tokens.append, tuple.__new__
    for m in _TOKEN.finditer(text):
        group, lexeme, span = m.lastindex, m.group(), m.span()
        # [^\W\d_] also takes numerics such as ² and ½, which are not letters;
        # in ASCII text it takes letters only
        if group == _WORD and not ascii_ and not lexeme.replace("'", "").isalpha():
            start = span[0] + next(i for i, ch in enumerate(lexeme) if not ch.isalpha() and ch != "'")
            group, lexeme, span = _OTHER, text[start], (start, start + 1)
        if not ascii_:
            span = (to_byte[span[0]], to_byte[span[1]])
        if group == _OTHER:
            raise TokenError(f"unknown character {lexeme!r}", span)
        try:
            value = int(lexeme) if group == _INTEGER else None
        except ValueError:  # more digits than Python converts to an int
            raise TokenError("integer literal too long", span) from None
        append(new(Token, (lexeme, value, span)))
    return tokens


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

    def match(self, tokens: Sequence[Token], position: int) -> list[tuple[LexiconEntry, int]]:
        """Every entry whose surface form starts at ``position``: longest
        form first, then by category and key, then in table order.

        The index is kept in that order, so ``match`` only filters it; no
        entry matches twice, as a category rejects duplicate forms.  A form
        matches where the token texts, each a token's item 0, equal it: a
        text says whether its token is a word, a symbol, a period or an
        integer literal.  Ambiguity between overlapping forms ("greater
        than" inside "greater than or equal to") is left to the parser, which
        looks a position up only where its token can start a form of a
        category it tries.  When the longest form there is one word, every
        form matches and no token texts are read.
        """
        if position < 0 or position > len(tokens):
            raise IndexError(f"position {position} out of range")
        if position == len(tokens):
            return []
        pairs = self._by_first.get(tokens[position].text)
        if pairs is None:
            return []
        longest = len(pairs[0][1])
        if longest == 1:  # every form is the one word already compared
            return [(entry, 1) for entry, _ in pairs]
        # each form is compared with a prefix of the texts under the longest;
        # a token's text is its item 0
        texts = tuple(map(itemgetter(0), tokens[position : position + longest]))
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

# the groups are tried in order, so a "-" glued to digits is a literal: an
# integer, a period or symbol, a word, and any other character but whitespace
_TOKEN = re.compile(rf"(-?[0-9]+)|([.{re.escape(SYMBOLS)}])|([^\W\d_]+(?:'[^\W\d_]*)*)|(\S)")
_INTEGER, _WORD, _OTHER = 1, 3, 4
