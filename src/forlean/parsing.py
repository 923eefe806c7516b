"""Parser for the controlled language, returning every tree the grammar
admits for a token stream.

The grammar is ``forthel.GRAMMAR`` with the operator categories of
``forthel.OPERATOR_LEVELS``.  At import, ``_install`` generates one
``_Parser`` method per category from them, the nested loops a hand-written
recursive descent would have, and compiles them, as ``dataclasses`` builds
``__init__`` and pegen builds CPython's parser from its grammar (PEP 617).
The one category written by hand is ``definite_term``, a filter on ``term``.

The parser is top-down and memoizes its operator categories (see ``_Parser``),
after Johnson 1995, "Memoization in top-down parsing".  It looks one token
ahead, as GF's incremental parser predicts from the next token (Angelov 2009):
at import, ``_first_sets`` computes the token texts that can start each
category (its FIRST set), ``int`` standing for every integer literal, and a
category, or a lexicon lookup, is tried only where the next token can start
it.  An operator level runs only where its own operator follows a phrase;
every level before it takes the phrases as they are.  It still returns every
parse, in the order plain backtracking would.  A parse records nothing for its
diagnostics; only a token stream with no complete parse is parsed a second
time, recording what each failed alternative expected at the furthest position
reached, as CPython's PEG parser does for its error messages.

Genuinely ambiguous inputs yield multiple trees; the documented case is
"not equal to", which parses both as the lexical unit and as polarity "not"
plus "equal to".
"""

from __future__ import annotations

import linecache
import sys
from enum import Enum
from itertools import groupby
from typing import Iterable, NamedTuple, Sequence

from . import forthel
from .forthel import GRAMMAR, OPERATOR_LEVELS, Index, Quantified
from .lexicon import CATEGORIES, default_lexicon

__all__ = ["ParseResult", "parse_text"]

Diagnostic = tuple[tuple[int, int], str]


class ParseResult(NamedTuple):
    """Every parse, in the order the parser builds them, or diagnostics at the
    furthest token reached, spanning ``(at, at + 1)``, or ``(n, n)`` at the end."""

    trees: tuple
    diagnostics: tuple[Diagnostic, ...] = ()


_LEXICON = default_lexicon()


class _Parser:
    """Recursive descent; every category returns all (node, next_position)
    alternatives.  ``_install`` adds every category but ``definite_term``.
    Only the operator categories (``_widths``) and the lexicon matches
    (``_matches``) are kept per position.  A category of ``GRAMMAR`` runs
    twice at one position only after a phrase that parses in two ways ending
    there, as an ambiguous assumption, and each run then builds a different
    tree.  The grammar is not left recursive, so a memo entry is complete
    before it is read.  A token is its text; ``_texts`` has ``int`` for an
    integer literal, and only where one matches (``atom_term[0]``,
    ``name_slot[2]``, ``atom_term[2]``) is its text converted to its value.

    A failed alternative records what it wanted (``_want``) only when its
    position is at or beyond ``furthest``.  ``_run`` parses first with
    ``furthest`` out of reach, so nothing is recorded, and only when that
    finds no complete parse does it parse again from ``furthest = 0`` to build
    the diagnostic.  On that run a memo hit skips the ``_want`` calls of the
    visit that filled the entry; replaying them would change neither
    ``furthest`` nor ``expected``.

    A call of a category X at ``p`` is guarded: it runs only if ``texts[p]``
    is in X's FIRST set or ``p >= furthest``.  The guard is exact.  If no rule
    of X can consume the token, every alternative fails at ``p``, so the call
    could only record a want at ``p``.  The first pass records nothing, and in
    the recording pass every call at ``p >= furthest`` still runs.  Likewise
    an operator level is skipped only while every phrase ends below ``furthest``.
    """

    def __init__(self, tokens: Sequence[str], furthest: int):
        self.toks = list(tokens)
        self.furthest = furthest
        self.expected: set[str] = set()
        # token texts, int for an integer literal (ending in a digit), None past the end
        self._texts = [int if t[-1] in "0123456789" else t for t in self.toks] + [None]
        # lexicon matches per position, as (key, end) pairs by category
        self._matches: dict[int, dict[str, list[tuple]]] = {}
        # the alternatives per width, per (operator category, position)
        self._widths: dict[tuple[str, int], list[tuple]] = {}

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

    def lex_matches(self, pos: int, category: str) -> Sequence[tuple]:
        found = self._matches.get(pos)
        if found is None:
            found = self._matches[pos] = {}
            for e, length in _LEXICON.match(self.toks, pos):
                found.setdefault(e.category, []).append((e.key, pos + length))
        matches = found.get(category, ())
        if not matches and pos >= self.furthest:
            self._want(pos, category)
        return matches

    def definite_term(self, pos: int) -> list[tuple]:
        return [(t, p) for t, p in self.term(pos) if type(t) is not Quantified]


# --- the generated categories -------------------------------------------------


def _words(elements: list) -> list:
    # a keyword of several words is matched word by word
    return [w for e in elements for w in (e.split() if type(e) is str else [e])]


def _first_sets() -> dict[str, frozenset]:
    """The token texts that can start each category of ``GRAMMAR`` and each
    lexicon category (its FIRST set), by the usual fixpoint.  An operator
    category and ``definite_term`` start as their atoms do, and a lexicon
    category as the first words of its forms.  A category that can be empty
    gets no set: it can match whatever the next token is.  The set of a
    category that can start with an integer literal holds ``int``."""
    # None stands for the empty phrase and int for an integer literal
    first: dict[str, set] = {category: set() for category in GRAMMAR}
    for category, (atoms, *_) in OPERATOR_LEVELS.items():
        first[category] = first[atoms]
    first["definite_term"] = first["term"]
    first.update({category: set() for category in CATEGORIES})
    for entry in _LEXICON.entries():
        first[entry.category].update(form[0] for form in entry.surface)

    def starts(e) -> set:
        if type(e) is str:  # one word: "w", "a|b" or "[a|b]"
            found, optional = set(e.strip("[]").split("|")), e[0] == "["
        elif e[1] is int or e[1] is Index:
            return {int}
        else:
            found, optional = set(first[e[1].strip("[]")]), e[1][0] == "["
        return found | {None} if optional else found

    changed = True
    while changed:
        changed = False
        for category, rules in GRAMMAR.items():
            for _, elements in rules:
                found = {None}
                for e in _words(elements):
                    found.discard(None)
                    found |= starts(e)
                    if None not in found:
                        break
                if not found <= first[category]:
                    first[category] |= found
                    changed = True
    return {name: frozenset(texts) for name, texts in first.items() if None not in texts}


_FIRST = _first_sets()

# the generated methods are compiled under this name and their source is kept
# in linecache under it, so that tracebacks, pdb and inspect show their lines
_SOURCE_FILE = f"<{__name__}: generated from forthel.GRAMMAR and OPERATOR_LEVELS>"


def _install() -> None:
    """Generate, compile and add one ``_Parser`` method per category.  A
    category of ``GRAMMAR`` gets an ``if`` per element that matches one token,
    a ``for`` per element that can match in several ways and an ``out.append``
    per rule, labelled ``# category[i]``.  Consecutive rules that start with
    equal elements share their code, so a shared prefix is matched once and the
    parses still come in the order of backtracking.  A node is built as
    ``_new(C, (field, ...))``: ``_new`` is ``tuple.__new__``, which skips
    ``C.__new__`` and its check that every field is given.

    An operator category builds its phrases at ``pos`` with its ``width``
    tightest levels; width 0 gives the atoms.  A level extends only phrases
    its separators follow: one scan finds the next level with work, and each
    width before it takes the phrases as they are.  An ``infixl`` level reads
    a right operand one width tighter and tries each phrase it builds again
    as a left operand; an ``infixr`` level reads one as wide and follows each
    left operand at once by the phrases extending it."""
    # the node classes and constants are forthel's names; _FIRST_<category>
    # is the set that guards a call of the category
    namespace = {**vars(forthel), **{f"_FIRST_{name}": texts for name, texts in _FIRST.items()}}
    namespace.update(__name__=__name__, _new=tuple.__new__)
    lines: list[str] = []

    def new(cls: type, args: list[str]) -> str:
        return f"_new({cls.__name__}, ({', '.join(args)}{',' * (len(args) == 1)}))"

    def ref(value) -> str:
        # an expression for a class, an enum member or a constant of forthel
        if isinstance(value, type):
            return value.__name__
        return f"{type(value).__name__}.{value.name}" if isinstance(value, Enum) else repr(value)

    def build(head, fields: dict) -> str:
        if head is None or head is tuple:
            return fields[None] if head is None else f"({fields['first']}, *{fields['rest']})"
        classes = head if type(head) is tuple else (head,) if isinstance(head, type) else ()
        if not classes:
            return ref(head)
        built = [fields[name] for name in classes[-1]._fields]
        for cls in reversed(classes):
            built = [new(cls, built)]
        return built[0]

    def match(e, pos: str, p: str, v: str, t: str) -> tuple[list[str], list[str], list[str]]:
        # the lines that open the block where ``e`` has matched at ``pos``,
        # the first lines inside that block, and the lines after it
        source = e[1] if type(e) is tuple else None
        if type(source) is str:
            # a category or a lexicon category, optional in brackets, called
            # only where the next token can start it or a want is recorded
            name = source.strip("[]")
            call = f"self.lex_matches({pos}, {name!r})" if name in CATEGORIES else f"self.{name}({pos})"
            if name in _FIRST:
                call = f"({call} if texts[{pos}] in _FIRST_{name} or {pos} >= self.furthest else ())"
            pairs = f"[(None, {pos}), *{call}]" if source[0] == "[" else call
            return [f"for {v}, {p} in {pairs}:"], [], []
        step = [f"{p} = {pos} + 1"]
        if type(e) is str and "|" not in e and "[" not in e:
            want = [f"elif {pos} >= self.furthest:", f"    self._want({pos}, {repr(e)!r})"]
            return [f"if texts[{pos}] == {e!r}:"], step, want
        if source is int or source is Index:
            test = f"{v} is not None" + (f" and {v} >= 0" if source is Index else "")
            want = [f"elif {pos} >= self.furthest:", f"    self._want({pos}, 'integer literal')"]
            value = f"{v} = int(self.toks[{pos}]) if texts[{pos}] is int else None"
            return [value, f"if {test}:"], step, want if source is int else []
        # one of several words: "a|b" or "[a|b]"
        words = tuple(e.strip("[]").split("|"))
        opened = [f"{t} = texts[{pos}]", f"if {pos} >= self.furthest:",
                  f"    self._want_others({pos}, {words!r}, {t})"]
        if e[0] == "[":
            loop = f"for {p} in ({pos} + 1, {pos}) if {t} in {words!r} else ({pos},):"
            return opened + [loop], [], []
        return opened + [f"if {t} in {words!r}:"], step, []

    def emit(rules: list, indent: int, pos: str, fields: dict, n: int) -> None:
        # rules are (label, head, elements not matched yet); the next element
        # binds p<n> to the position after it and v<n> to its value
        pad, p, v, t = "    " * indent, f"p{n}", f"v{n}", f"t{n}"
        for first, group in groupby(rules, key=lambda rule: rule[2][:1]):
            if not first:
                for label, head, _ in group:
                    lines.append(f"{pad}out.append(({build(head, fields)}, {pos}))  # {label}")
                continue
            opened, inside, closed = match(first[0], pos, p, v, t)
            lines.extend(pad + line for line in opened)
            lines.extend(f"{pad}    {line}" for line in inside)
            named = {**fields, first[0][0]: v} if type(first[0]) is tuple else fields
            emit([(lb, hd, more[1:]) for lb, hd, more in group], indent + 1, p, named, n + 1)
            lines.extend(pad + line for line in closed)

    def operators(category: str, atoms: str, associativity: str, levels: tuple) -> list[str]:
        # the widths up to ``width`` that ``pos`` lacks are built in one frame,
        # so a parenthesis costs two frames and a nested statement three
        n, infixr = len(levels), associativity == "infixr"
        # the width of the tightest level each separator belongs to
        namespace[f"_WIDTH_{category}"] = {s: w for w in range(n, 0, -1) for s in levels[n - w]}
        code = [
            f"def {category}(self, pos, width={n}):",
            "    texts = self._texts",
            f"    widths = self._widths.get(({category!r}, pos))",
            "    if widths is None:",
            f"        widths = self._widths[{category!r}, pos] = [tuple(self.{atoms}(pos))]",
            "    while len(widths) <= width:",
            f"        lefts, here, at = widths[-1], len(widths), {n + 1}",
            "        for _, p in lefts:",
            f"            w = here if p >= self.furthest else _WIDTH_{category}.get(texts[p], at)",
            "            if here <= w < at:",
            "                at = w",
            "        widths += [lefts] * (at - here)",
            "        if at > width:",
            "            break",
        ]
        for w in range(1, n + 1):
            separators = levels[n - w]
            code.append(f"        {'elif' if w > 1 else 'if'} at == {w}:")
            if infixr:
                code += ["            results = []", "            for left, p in lefts:",
                         "                results.append((left, p))"]
            else:
                code += ["            results = list(lefts)", "            for left, p in results:"]
            code += ["                t = texts[p]", "                if p >= self.furthest:",
                     f"                    self._want_others(p, {tuple(separators)!r}, t)"]
            for i, (separator, (cls, *fixed)) in enumerate(separators.items()):
                node = new(cls, [*map(ref, fixed), "left", "right"])
                code += [f"                {'elif' if i else 'if'} t == {separator!r}:",
                         f"                    for right, p1 in self.{category}(p + 1, {w if infixr else w - 1}):",
                         f"                        results.append(({node}, p1))"]
        return code + ["        widths.append(tuple(results))", "    return widths[width]", ""]

    for category in (*GRAMMAR, *OPERATOR_LEVELS):
        start = len(lines)
        if category in GRAMMAR:
            lines += [f"def {category}(self, pos):", "    texts = self._texts", "    out = []"]
            rules = [(f"{category}[{i}]", head, _words(e)) for i, (head, e) in enumerate(GRAMMAR[category])]
            emit(rules, 1, "pos", {}, 1)
            lines += ["    return out", ""]
        else:
            lines += operators(category, *OPERATOR_LEVELS[category])
        # compiled alone, which takes a fraction of the memory of compiling
        # them all at once, after newlines that line it up with linecache
        exec(compile("\n" * start + "\n".join(lines[start:]), _SOURCE_FILE, "exec"), namespace)
        namespace[category].__qualname__ = f"_Parser.{category}"
        setattr(_Parser, category, namespace[category])
    source = "\n".join(lines)
    linecache.cache[_SOURCE_FILE] = (len(source), None, source.splitlines(True), _SOURCE_FILE)


_install()


def _run(tokens: Sequence[str], production: str) -> ParseResult:
    # no position reaches sys.maxsize, so this parse records nothing
    parser = _Parser(tokens, sys.maxsize)
    # the complete parses in the order the parser builds them: each is one
    # derivation, and the grammar derives no tree twice
    trees = tuple(tree for tree, end in getattr(parser, production)(0) if end == len(parser.toks))
    if trees:
        return ParseResult(trees)
    # no complete parse: parse again, recording from the start, to explain it
    parser = _Parser(parser.toks, 0)
    getattr(parser, production)(0)
    n = len(parser.toks)
    at = min(parser.furthest, n)
    found = f"found {parser.toks[at]!r}" if at < n else "found end of input"
    message = f"expected {', '.join(sorted(parser.expected))}; {found}"
    return ParseResult((), (((at, min(at + 1, n)), message),))


def parse_text(tokens: Sequence[str]) -> ParseResult:
    """Parse a full text ``ex. <assumptions> [then] <statement> .``"""
    return _run(tokens, "text")

