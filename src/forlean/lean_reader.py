"""Reader for the printer's Lean fragment.

The corpus harness compares outputs modulo renaming, so it needs to parse
expected output strings back into command trees before normalizing them.
Only the fixed fragment the printer emits is supported: fully parenthesized
compound terms and propositions, bare relations and applications, and
``∀``/``∃`` with a single annotated binder.  A proposition may carry extra
parentheses, and a quantifier body reaches as far right as it does in Lean,
over bare connectives grouped by Lean's precedence.
Its tokens are integers, identifiers, Lean's own symbols and the lexicon's
type, relation and operator images.
"""

from __future__ import annotations

import re

from .lean import (
    AndP,
    ArithT,
    Exists,
    Forall,
    HypBinder,
    IffP,
    Imp,
    LeanCommand,
    LeanProp,
    LeanTerm,
    LitT,
    NotP,
    OrP,
    PredApp,
    Rel,
    TypeBinder,
    VarT,
)
from .lexicon import Category, default_lexicon

__all__ = ["LeanReadError", "read_command"]

_TYPES = set(default_lexicon().images(Category.RAW_NOUN0).values())
# the lexicon's relations, and the "=" that "is <term>" prints
_RELS = {*default_lexicon().images(Category.RAW_ADJECTIVE1).values(), "="}
_ARITH = set(default_lexicon().images(Category.RAW_NOUN2).values())
# Lean's own syntax and the lexicon's types, relations and operators, longest
# first so that ":=" is not read as ":"; the integer pattern comes first, so
# "-3" is a literal
_SYMBOLS = sorted({":=", *"()∀∃∧∨¬→↔:,", *_TYPES, *_RELS, *_ARITH}, key=lambda t: (-len(t), t))
_TOKEN = "|".join([r"-?[0-9]+", r"[A-Za-z][A-Za-z0-9]*", *map(re.escape, _SYMBOLS)])
# one token and the whitespace before it
_TOKEN_RE = re.compile(rf"\s*({_TOKEN})")
# the tokens that follow one another from the start of the input
_READABLE_RE = re.compile(rf"(?:\s*(?:{_TOKEN}))*")
_CONNECTIVES = {"∧": AndP, "∨": OrP, "→": Imp, "↔": IffP}
# Lean's precedence of each connective; ∧ ∨ → group to the right, ↔ not at all
_PRECEDENCE = {"∧": 35, "∨": 30, "→": 25, "↔": 20}
_PREDS = set(default_lexicon().images(Category.RAW_ADJECTIVE0).values())
_INT_RE = re.compile(r"-?[0-9]+\Z")
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")


class LeanReadError(ValueError):
    pass


def _lex(text: str) -> list[str]:
    tokens = _TOKEN_RE.findall(text)
    # findall skips what no token matches, so nothing was skipped when the
    # tokens hold every character that is not whitespace
    if len("".join(tokens)) != len("".join(text.split())):
        start = _READABLE_RE.match(text).end()
        after = _TOKEN_RE.search(text, start)
        end = after.start(1) if after else len(text)
        raise LeanReadError(f"unreadable input at {text[start:end]!r}")
    return tokens


class _Reader:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> str | None:
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise LeanReadError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.take()
        if tok != text:
            raise LeanReadError(f"expected {text!r}, found {tok!r}")

    # --- grammar ------------------------------------------------------------

    def command(self) -> LeanCommand:
        self.expect("example")
        binders: list = []
        while self.peek() == "(":
            binders.append(self.binder())
        self.expect(":")
        goal = self.prop()
        self.expect(":=")
        self.expect("sorry")
        if self.peek() is not None:
            raise LeanReadError(f"trailing input at {self.peek()!r}")
        return LeanCommand(tuple(binders), goal)

    def binder(self):
        self.expect("(")
        name = self.take()
        if not _IDENT_RE.fullmatch(name):
            raise LeanReadError(f"bad binder name {name!r}")
        self.expect(":")
        tok = self.peek()
        if tok in _TYPES and self.peek(1) == ")":
            self.take()
            self.expect(")")
            return TypeBinder(name, tok)
        prop = self.prop()
        self.expect(")")
        return HypBinder(name, prop)

    def prop(self) -> LeanProp:
        tok = self.peek()
        if tok in ("∀", "∃"):
            return self.quantifier()
        if tok == "(":
            saved = self.pos
            try:
                return self.compound()
            except LeanReadError:
                self.pos = saved
            return self.relation()
        if tok in _PREDS:
            self.take()
            return PredApp(tok, self.term())
        return self.relation()

    def quantifier(self) -> LeanProp:
        head = self.take()
        self.expect("(")
        name = self.take()
        self.expect(":")
        type_tok = self.take()
        if type_tok not in _TYPES:
            raise LeanReadError(f"bad binder type {type_tok!r}")
        self.expect(")")
        self.expect(",")
        body = self.chain()
        cls = Forall if head == "∀" else Exists
        return cls(name, type_tok, body)

    def chain(self, floor: int = 0) -> LeanProp:
        """A proposition followed by bare connectives whose precedence is at
        least ``floor``."""
        left = self.prop()
        while (conn := self.peek()) in _PRECEDENCE and _PRECEDENCE[conn] >= floor:
            self.take()
            right_floor = _PRECEDENCE[conn] + (conn == "↔")
            left = _CONNECTIVES[conn](left, self.chain(right_floor))
            if conn == "↔" and self.peek() == "↔":
                raise LeanReadError("↔ does not associate")
        return left

    def compound(self) -> LeanProp:
        self.expect("(")
        if self.peek() == "¬":
            self.take()
            body = self.prop()
            self.expect(")")
            return NotP(body)
        left = self.prop()
        conn = self.take()
        if conn == ")":
            return left
        if conn not in _CONNECTIVES:
            raise LeanReadError(f"expected a connective, found {conn!r}")
        right = self.prop()
        self.expect(")")
        return _CONNECTIVES[conn](left, right)

    def relation(self) -> LeanProp:
        left = self.term()
        op = self.take()
        if op not in _RELS:
            raise LeanReadError(f"expected a relation, found {op!r}")
        return Rel(op, left, self.term())

    def term(self) -> LeanTerm:
        tok = self.take()
        if _INT_RE.fullmatch(tok):
            try:
                return LitT(int(tok))
            except ValueError:  # more digits than Python converts to an int
                raise LeanReadError("integer literal too long") from None
        if tok == "(":
            left = self.term()
            op = self.take()
            if op not in _ARITH:
                raise LeanReadError(f"expected an operator, found {op!r}")
            right = self.term()
            self.expect(")")
            return ArithT(op, left, right)
        if _IDENT_RE.fullmatch(tok):
            return VarT(tok)
        raise LeanReadError(f"expected a term, found {tok!r}")


def read_command(text: str) -> LeanCommand:
    """Parse one printed command back into its tree."""
    try:
        return _Reader(_lex(text)).command()
    except RecursionError:
        raise LeanReadError("input nested too deeply") from None
