"""Parser for the controlled language, returning every tree the grammar
admits for a token stream.

The parser is top-down and memoized per (production, position), after
Johnson 1995, "Memoization in top-down parsing".  It still returns every
parse, in the order plain backtracking would.  A parse records nothing for
its diagnostics; only a token stream with no complete parse is parsed a
second time, recording what each failed alternative expected at the furthest
position reached, as CPython's PEG parser does for its error messages.

Arithmetic precedence is the lexicon's: its operators grouped by their
precedence column, which in the bundled table gives, tightest first, ``^``,
then ``* /``, then ``-``, then ``+``.  Each level is left-associative and
parentheses override.  Statement connectives, tightest first: "and", ",",
"or", "iff", "if ... then"; "and", "," and "or" associate to the right.
Genuinely ambiguous inputs yield multiple trees; the documented case is "not
equal to", which parses both as the lexical unit and as polarity "not" plus
"equal to".
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .forthel import (
    And,
    BinApp,
    Does,
    Example,
    ForQuantified,
    ForthelText,
    IfThen,
    Iff,
    IntLit,
    IsAdj,
    IsAdj1,
    IsNotion,
    IsPred,
    IsTerm,
    Meta,
    MetaVar,
    Named,
    Not,
    Notion,
    Or,
    Polarity,
    Quantified,
    QuantifiedNotion,
    Quantifier,
    SuchThat,
    ThereExists,
    ThereExistsNo,
    Unnamed,
    Var,
)
from .lexicon import Category, Token, default_lexicon

__all__ = ["ParseFailure", "ParseResult", "parse_statement", "parse_term", "parse_text"]

Diagnostic = tuple[tuple[int, int], str]


@dataclass(frozen=True)
class ParseResult:
    """All distinct parses, or diagnostics at the point of furthest progress."""

    trees: tuple
    diagnostics: tuple[Diagnostic, ...] = ()

    @property
    def ok(self) -> bool:
        return bool(self.trees)

    def expect_trees(self) -> tuple:
        if not self.trees:
            raise ParseFailure(self.diagnostics)
        return self.trees


class ParseFailure(ValueError):
    def __init__(self, diagnostics: tuple[Diagnostic, ...]):
        span, message = diagnostics[0] if diagnostics else ((0, 0), "no parse")
        super().__init__(f"{message} (bytes {span[0]}..{span[1]})")
        self.diagnostics = diagnostics
        self.span = span


# statement connectives below "if ... then", loosest first, each right
# associative; (separator, node) per level
_CONNECTIVE_LEVELS = (("iff", Iff), ("or", Or), (",", And), ("and", And))

_LEXICON = default_lexicon()
_OPERATORS = _LEXICON.entries(Category.RAW_NOUN2)
# arithmetic levels, loosest first: the lexicon's operators grouped by
# precedence, {symbol: rawNoun2 key} per level
_TERM_LEVELS = tuple(
    {symbol: e.key for e in _OPERATORS if e.precedence == level for (symbol,) in e.surface}
    for level in sorted({e.precedence for e in _OPERATORS})
)

_QUANTIFIERS = {q.value: q for q in Quantifier}


class _Parser:
    """Memoized recursive descent; every production returns all
    (node, next_position) alternatives.

    ``connective`` keeps its alternatives per (level, position) as immutable
    tuples; ``term`` keeps, per position, one such tuple for each operator
    width it has built, and lexicon matches are kept per position.  The
    grammar is not left recursive, so a memo entry is complete before it is
    read.

    A failed alternative records what it wanted (``_want``) only when its
    position is at or beyond ``furthest``.  ``_run`` parses first with
    ``furthest`` out of reach, so nothing is recorded, and only when that
    finds no complete parse does it parse again from ``furthest = 0`` to build
    the diagnostic.  On that run a memo hit skips the ``_want`` calls of the
    visit that filled the entry; replaying them would change neither
    ``furthest`` nor ``expected``.
    """

    def __init__(self, tokens: Sequence[Token], furthest: int):
        self.toks = list(tokens)
        self.furthest = furthest
        self.expected: set[str] = set()
        # token texts by position, None one past the end; a text fixes its
        # token's kind, so matching a word, symbol or period compares texts
        self._texts = [t.text for t in self.toks] + [None]
        self._ints = [t.value for t in self.toks] + [None]
        self._matches: dict[int, list[tuple]] = {}
        self._connectives: dict[tuple[int, int], tuple] = {}
        self._terms: dict[int, list[tuple]] = {}

    # --- primitives ---------------------------------------------------------
    # each failure site checks ``pos >= self.furthest`` before it builds what
    # it wanted, since ``_want`` ignores positions below ``furthest``

    def _want(self, pos: int, what: str) -> None:
        if pos > self.furthest:
            self.furthest = pos
            self.expected = {what}
        elif pos == self.furthest:
            self.expected.add(what)

    def _want_others(self, pos: int, texts: Iterable[str], found: str | None) -> None:
        # what one call per alternative records: each alternative but the
        # one found at ``pos``
        for text in texts:
            if text != found:
                self._want(pos, repr(text))

    def word(self, pos: int, text: str) -> list[int]:
        if self._texts[pos] == text:
            return [pos + 1]
        if pos >= self.furthest:
            self._want(pos, repr(text))
        return []

    def word_any(self, pos: int, texts: tuple[str, ...]) -> list[int]:
        found = self._texts[pos]
        if pos >= self.furthest:
            self._want_others(pos, texts, found)
        return [pos + 1] if found in texts else []

    def words(self, pos: int, texts: tuple[str, ...]) -> list[int]:
        for text in texts:
            if self._texts[pos] != text:
                if pos >= self.furthest:
                    self._want(pos, repr(text))
                return []
            pos += 1
        return [pos]

    def lex_matches(self, pos: int, category: Category) -> list[tuple]:
        found = self._matches.get(pos)
        if found is None:
            found = self._matches[pos] = _LEXICON.match(self.toks, pos)
        matches = [(entry, pos + length) for entry, length in found if entry.category is category]
        if not matches and pos >= self.furthest:
            self._want(pos, category.value)
        return matches

    # --- texts --------------------------------------------------------------

    def text(self, pos: int) -> list[tuple]:
        out = []
        for p1 in self.word(pos, "ex"):
            for p2 in self.word(p1, "."):
                for assumptions, p3 in self.assumption_list(p2):
                    # "then" is optional and not recorded in the tree
                    for p4 in self.word(p3, "then") + [p3]:
                        for conclusion, p5 in self.statement(p4):
                            for p6 in self.word(p5, "."):
                                out.append(
                                    (ForthelText(Example(assumptions, conclusion)), p6)
                                )
        return out

    def assumption_list(self, pos: int) -> list[tuple]:
        out: list[tuple] = [((), pos)]
        for p1 in self.word(pos, "assume"):
            for stmt, p2 in self.statement(p1):
                for p3 in self.word(p2, "."):
                    for rest, p4 in self.assumption_list(p3):
                        out.append(((stmt, *rest), p4))
        return out

    # --- statements ---------------------------------------------------------

    def statement(self, pos: int) -> list[tuple]:
        out = []
        for p1 in self.word(pos, "if"):
            for antecedent, p2 in self.statement(p1):
                for p3 in self.word(p2, "then"):
                    for consequent, p4 in self.statement(p3):
                        out.append((IfThen(antecedent, consequent), p4))
        out.extend(self.connective(pos))
        return out

    def connective(self, pos: int, level: int = 0) -> tuple:
        memo = self._connectives.get((pos, level))
        if memo is not None:
            return memo
        if level == len(_CONNECTIVE_LEVELS):
            out = self.atom_statement(pos)
        else:
            separator, build = _CONNECTIVE_LEVELS[level]
            out = []
            for left, p1 in self.connective(pos, level + 1):
                out.append((left, p1))
                if self._texts[p1] == separator:
                    for right, p2 in self.connective(p1 + 1, level):
                        out.append((build(left, right), p2))
                elif p1 >= self.furthest:
                    self._want(p1, repr(separator))
        memo = self._connectives[pos, level] = tuple(out)
        return memo

    def atom_statement(self, pos: int) -> list[tuple]:
        out = []
        for p1 in self.words(pos, ("it's", "not", "that")):
            for body, p2 in self.statement(p1):
                out.append((Not(body), p2))
        for p1 in self.word(pos, "for"):
            for qnotion, p2 in self.quantified_notion(p1):
                for p3 in self.word(p2, ","):
                    for body, p4 in self.statement(p3):
                        out.append((ForQuantified(qnotion, body), p4))
        for p1 in self.word(pos, "there"):
            for p2 in self.word_any(p1, ("exists", "exist")):
                for p3 in self.word(p2, "no"):
                    for notion, p4 in self.notion(p3):
                        out.append((ThereExistsNo(notion), p4))
                for p3 in self.opt_article(p2):
                    for notion, p4 in self.notion(p3):
                        out.append((ThereExists(notion), p4))
        for subject, p1 in self.term(pos):
            for predicate, p2 in self.does_predicate(p1):
                out.append((Does(subject, predicate), p2))
        return out

    # --- predicates ---------------------------------------------------------

    def polarity(self, pos: int) -> list[tuple]:
        return [(Polarity.POS, pos)] + [(Polarity.NEG, p) for p in self.word(pos, "not")]

    def opt_article(self, pos: int) -> list[int]:
        return [pos] + self.word_any(pos, ("a", "an"))

    def does_predicate(self, pos: int) -> list[tuple]:
        out = []
        for p1 in self.word_any(pos, ("is", "are")):
            for polarity, p2 in self.polarity(p1):
                for entry, p3 in self.lex_matches(p2, Category.RAW_ADJECTIVE0):
                    out.append((IsAdj(polarity, entry.key), p3))
                for entry, p3 in self.lex_matches(p2, Category.RAW_ADJECTIVE1):
                    for term, p4 in self.term(p3):
                        out.append((IsAdj1(polarity, entry.key, term), p4))
                for p3 in self.opt_article(p2):
                    for notion, p4 in self.notion(p3):
                        out.append((IsNotion(polarity, notion), p4))
                for term, p3 in self.definite_term(p2):
                    out.append((IsTerm(polarity, term), p3))
        return out

    # --- notions ------------------------------------------------------------

    def notion(self, pos: int) -> list[tuple]:
        out = []
        lefts: list[tuple] = [(None, pos)]
        lefts += [(e.key, p) for e, p in self.lex_matches(pos, Category.RAW_ADJECTIVE0)]
        for left, p1 in lefts:
            for head, p2 in self.lex_matches(p1, Category.RAW_NOUN0):
                for name, p3 in self.name_slot(p2):
                    for right, p4 in self.right_attribute(p3):
                        out.append((Notion(head.key, name, left, right), p4))
        return out

    def name_slot(self, pos: int) -> list[tuple]:
        out: list[tuple] = [(Unnamed(), pos)]
        for entry, p1 in self.lex_matches(pos, Category.VARIABLE):
            out.append((Named(entry.key), p1))
        for mv, p1 in self.meta_ref(pos):
            out.append((Meta(mv.ident), p1))
        return out

    def right_attribute(self, pos: int) -> list[tuple]:
        out: list[tuple] = [(None, pos)]
        for polarity, p1 in self.polarity(pos):
            for entry, p2 in self.lex_matches(p1, Category.RAW_ADJECTIVE0):
                out.append((IsPred(IsAdj(polarity, entry.key)), p2))
            for entry, p2 in self.lex_matches(p1, Category.RAW_ADJECTIVE1):
                for term, p3 in self.term(p2):
                    out.append((IsPred(IsAdj1(polarity, entry.key, term)), p3))
        for p1 in self.word(pos, "that"):
            for predicate, p2 in self.does_predicate(p1):
                out.append((IsPred(predicate), p2))
        for p1 in self.words(pos, ("such", "that")):
            for stmt, p2 in self.statement(p1):
                out.append((SuchThat(stmt), p2))
        return out

    def quantified_notion(self, pos: int) -> list[tuple]:
        found = self._texts[pos]
        if pos >= self.furthest:
            self._want_others(pos, _QUANTIFIERS, found)
        quantifier = _QUANTIFIERS.get(found)
        if quantifier is None:
            return []
        return [(QuantifiedNotion(quantifier, notion), p1) for notion, p1 in self.notion(pos + 1)]

    # --- terms ----------------------------------------------------------------

    def term(self, pos: int, width: int = len(_TERM_LEVELS)) -> tuple:
        """The terms at ``pos`` built with the ``width`` tightest operator
        levels: width 0 gives the atoms, the default every term.

        A position keeps one result per width, and one call extends that list
        from the widest it holds up to ``width``, each width adding one looser
        level.  A right operand asks for one width less, so each level is
        left-associative.  Building every width in one frame, not one call per
        level, makes a parenthesis cost two frames (``term``, ``atom_term``)
        and so lets deeper nesting parse.
        """
        levels = self._terms.get(pos)
        if levels is None:
            levels = self._terms[pos] = [tuple(self.atom_term(pos))]
        while len(levels) <= width:
            tighter = len(levels) - 1
            operators = _TERM_LEVELS[-len(levels)]
            results = list(levels[tighter])
            frontier = results
            while frontier:
                grown = []
                for left, p in frontier:
                    found = self._texts[p]
                    if p >= self.furthest:
                        self._want_others(p, operators, found)
                    key = operators.get(found)
                    if key is not None:
                        for right, p1 in self.term(p + 1, tighter):
                            grown.append((BinApp(key, left, right), p1))
                results.extend(grown)
                frontier = grown
            levels.append(tuple(results))
        return levels[width]

    def definite_term(self, pos: int) -> list[tuple]:
        return [(t, p) for t, p in self.term(pos) if not isinstance(t, Quantified)]

    def atom_term(self, pos: int) -> list[tuple]:
        out: list[tuple] = []
        value = self._ints[pos]
        if value is not None:
            out.append((IntLit(value), pos + 1))
        elif pos >= self.furthest:
            self._want(pos, "integer literal")
        for entry, p1 in self.lex_matches(pos, Category.VARIABLE):
            out.append((Var(entry.key), p1))
        out.extend(self.meta_ref(pos))
        for p1 in self.word(pos, "("):
            for inner, p2 in self.term(p1):
                for p3 in self.word(p2, ")"):
                    out.append((inner, p3))
        for qnotion, p1 in self.quantified_notion(pos):
            out.append((Quantified(qnotion), p1))
        return out

    def meta_ref(self, pos: int) -> list[tuple]:
        # generated-name reference "(x N)"
        out = []
        for p1 in self.word(pos, "("):
            for p2 in self.word(p1, "x"):
                value = self._ints[p2]
                if value is not None and value >= 0:
                    for p3 in self.word(p2 + 1, ")"):
                        out.append((MetaVar(value), p3))
        return out


def _run(tokens: Sequence[Token], production: str) -> ParseResult:
    # no position reaches sys.maxsize, so this parse records nothing
    parser = _Parser(tokens, sys.maxsize)
    # the distinct complete parses in order of first occurrence, found by hash
    trees = dict.fromkeys(
        tree for tree, end in getattr(parser, production)(0) if end == len(parser.toks)
    )
    if trees:
        return ParseResult(tuple(trees))
    # no complete parse: parse again, recording from the start, to explain it
    parser = _Parser(parser.toks, 0)
    getattr(parser, production)(0)
    at = min(parser.furthest, len(parser.toks))
    if at < len(parser.toks):
        span = parser.toks[at].span
        found = f"found {parser.toks[at].text!r}"
    else:
        end_offset = parser.toks[-1].span[1] if parser.toks else 0
        span = (end_offset, end_offset)
        found = "found end of input"
    message = f"expected {', '.join(sorted(parser.expected))}; {found}"
    return ParseResult((), ((span, message),))


def parse_text(tokens: Sequence[Token]) -> ParseResult:
    """Parse a full text ``ex. <assumptions> [then] <statement> .``"""
    return _run(tokens, "text")


def parse_statement(tokens: Sequence[Token]) -> ParseResult:
    """Parse the token list as one complete statement."""
    return _run(tokens, "statement")


def parse_term(tokens: Sequence[Token]) -> ParseResult:
    """Parse the token list as one complete arithmetic term."""
    return _run(tokens, "term")
