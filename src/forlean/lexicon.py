"""Lexical layer: input normalization, tokenization, and the lexicon table
that every stage reads.

The lexicon is a static table loaded from ``data/lexicon.tsv``, one entry per
line: ``category<TAB>KEY<TAB>form1|form2|...[<TAB>Lean image[<TAB>precedence]]``.
It is the only place that says which words and symbols exist, what each
means in Lean and how tightly an operator binds; every stage builds its
tables from it.  An operator is one character, not a letter, digit,
whitespace, ``.`` or ``'``, so the tokenizer can split it from the words
around it.  Surface forms may span several words
("less than or equal to") and singular/plural variants of a noun map to the
same entry, so number agreement is deliberately not checked: "x are an odd
integers" is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence

__all__ = [
    "Category",
    "Lexicon",
    "LexiconEntry",
    "LexiconError",
    "Token",
    "TokenKind",
    "UnknownCharacter",
    "default_lexicon",
    "detokenize",
    "preprocess",
    "tokenize",
]

class TokenKind(Enum):
    WORD = "Word"
    INT_LIT = "IntLit"
    SYMBOL = "Symbol"
    PERIOD = "Period"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    value: int | None = None
    # byte offsets into the tokenized string; excluded from equality so that
    # tokens compare by content
    span: tuple[int, int] = field(default=(0, 0), compare=False)

    def __repr__(self) -> str:
        if self.kind is TokenKind.INT_LIT:
            return f"IntLit({self.value})"
        return f"{self.kind.value}({self.text!r})"


class UnknownCharacter(ValueError):
    """A character outside letters, digits, symbols, whitespace and '.'."""

    def __init__(self, char: str, span: tuple[int, int]):
        super().__init__(f"unknown character {char!r} at byte offset {span[0]}")
        self.char = char
        self.span = span


def preprocess(raw: str) -> str:
    """Lowercase the input and collapse whitespace runs to single spaces."""
    return " ".join(raw.lower().split())


def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def _byte_offsets(text: str) -> list[int]:
    offsets = [0]
    total = 0
    for ch in text:
        # a lone surrogate is not valid UTF-8 but must still get a span
        total += len(ch.encode("utf-8", "surrogatepass"))
        offsets.append(total)
    return offsets


def tokenize(text: str) -> list[Token]:
    """Turn preprocessed text into word/integer/symbol/period tokens.

    A word starts with a letter, an integer is ``-?[0-9]+``, a symbol is one
    of ``SYMBOLS`` and a period is ``.``, so a token's kind follows from its
    text.  A ``-`` immediately followed by digits is a negative integer
    literal; a spaced ``-`` is the binary operator.  An apostrophe is allowed
    inside a word ("it's").
    """
    offsets = _byte_offsets(text)
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == ".":
            tokens.append(Token(TokenKind.PERIOD, ".", span=(offsets[i], offsets[i + 1])))
            i += 1
        elif ch == "-" and i + 1 < n and _is_digit(text[i + 1]):
            j = i + 1
            while j < n and _is_digit(text[j]):
                j += 1
            lit = text[i:j]
            tokens.append(Token(TokenKind.INT_LIT, lit, value=int(lit), span=(offsets[i], offsets[j])))
            i = j
        elif ch in SYMBOLS:
            tokens.append(Token(TokenKind.SYMBOL, ch, span=(offsets[i], offsets[i + 1])))
            i += 1
        elif _is_digit(ch):
            j = i
            while j < n and _is_digit(text[j]):
                j += 1
            lit = text[i:j]
            tokens.append(Token(TokenKind.INT_LIT, lit, value=int(lit), span=(offsets[i], offsets[j])))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalpha() or (text[j] == "'" and j > i)):
                j += 1
            tokens.append(Token(TokenKind.WORD, text[i:j], span=(offsets[i], offsets[j])))
            i = j
        else:
            raise UnknownCharacter(ch, (offsets[i], offsets[i + 1]))
    return tokens


def detokenize(tokens: Iterable[Token]) -> str:
    """Join token texts with single spaces (inverse of tokenize up to spans)."""
    return " ".join(t.text for t in tokens)


class Category(Enum):
    RAW_NOUN0 = "rawNoun0"
    RAW_NOUN2 = "rawNoun2"
    RAW_ADJECTIVE0 = "rawAdjective0"
    RAW_ADJECTIVE1 = "rawAdjective1"
    VARIABLE = "variable"


@dataclass(frozen=True)
class LexiconEntry:
    category: Category
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
        # (entry, form) pairs by the first element of the form, in table order
        self._by_first: dict[str, list[tuple[LexiconEntry, tuple[str, ...]]]] = {}
        seen: set[tuple[Category, tuple[str, ...]]] = set()
        for entry in self._entries:
            for form in entry.surface:
                if not form or not all(form):
                    raise LexiconError(f"empty surface form in entry {entry.key}")
                marker = (entry.category, form)
                if marker in seen:
                    raise LexiconError(
                        f"duplicate surface form {' '.join(form)!r} in category {entry.category.value}"
                    )
                seen.add(marker)
                # an integer literal is a term of its own, never part of a form
                if not any(element.lstrip("-").isdecimal() for element in form):
                    self._by_first.setdefault(form[0], []).append((entry, form))

    @classmethod
    def parse(cls, text: str) -> "Lexicon":
        entries = []
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if not 3 <= len(parts) <= 5:
                raise LexiconError(f"line {line_no}: expected 3 to 5 tab-separated fields")
            cat_name, key, forms, *rest = parts
            try:
                category = Category(cat_name)
            except ValueError:
                raise LexiconError(f"line {line_no}: unknown category {cat_name!r}") from None
            surface = tuple(tuple(form.split()) for form in forms.split("|"))
            if category is Category.RAW_NOUN2 and any(
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

    def entries(self, category: Category | None = None) -> tuple[LexiconEntry, ...]:
        if category is None:
            return self._entries
        return tuple(e for e in self._entries if e.category is category)

    def images(self, category: Category) -> dict[str, str | None]:
        """``{key: Lean image}`` for every entry of ``category``."""
        return {e.key: e.lean for e in self.entries(category)}

    def match(self, tokens: Sequence[Token], position: int) -> list[tuple[LexiconEntry, int]]:
        """Every entry whose surface form starts at ``position``, longest first.

        A form matches where the token texts equal it; a text fixes its
        token's kind, so no kind is compared.  All matches are returned;
        ambiguity between overlapping forms (such as "greater than" inside
        "greater than or equal to") is left to the parser.
        """
        if position < 0 or position > len(tokens):
            raise IndexError(f"position {position} out of range")
        if position == len(tokens):
            return []
        out: list[tuple[LexiconEntry, int]] = []
        for entry, form in self._by_first.get(tokens[position].text, ()):
            if tuple(t.text for t in tokens[position : position + len(form)]) == form:
                candidate = (entry, len(form))
                if candidate not in out:
                    out.append(candidate)
        out.sort(key=lambda pair: (-pair[1], pair[0].category.value, pair[0].key))
        return out


@lru_cache(maxsize=1)
def default_lexicon() -> Lexicon:
    data = resources.files("forlean").joinpath("data/lexicon.tsv").read_text("utf-8")
    return Lexicon.parse(data)


# the fixed punctuation and the lexicon's operators, one character each
SYMBOLS = "()," + "".join(
    symbol for e in default_lexicon().entries(Category.RAW_NOUN2) for (symbol,) in e.surface
)
