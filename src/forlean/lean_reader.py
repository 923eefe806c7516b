"""Reader for forlean's fragment of Lean, in Lean's notation.

The corpus harness compares outputs modulo renaming, so it reads expected
output strings back into command trees before normalizing them.  Terms and
propositions are one expression language, as in Lean, read by one Pratt
loop over ``lean.NOTATION`` that checks sorts as it builds: so any
bracketing Lean accepts reads to the tree Lean builds, and ``∀``/``∃``
bodies reach as far right as they can.  The one departure from Lean is a
``-`` glued to digits, which is read as a negative literal (see ``_TOKEN``).
Its tokens are integers, identifiers, Lean's own symbols, the symbols of
``NOTATION`` and the lexicon's types.
"""

from __future__ import annotations

import re

from .lean import (
    MAX_PREC,
    NOTATION,
    ArithT,
    Exists,
    Forall,
    HypBinder,
    LeanCommand,
    LeanProp,
    LitT,
    Notation,
    PredApp,
    Rel,
    TypeBinder,
    VarT,
)
from .lexicon import default_lexicon

__all__ = ["LeanReadError", "read_command"]

_TYPES = set(default_lexicon().images("rawNoun0").values())
# Lean's own syntax, the notation's symbols and the lexicon's types, longest
# first so that ":=" is not read as ":"
_SYMBOLS = sorted({":=", *"():,", *NOTATION, *_TYPES}, key=lambda t: (-len(t), t))
# The integer pattern comes first, so "-3" is one literal although Lean reads
# it as Neg.neg 3 (`prefix:75 "-"`): Lean parses `pos -3` as `pos - 3` and
# `(-3 ^ 2)` as `-(3 ^ 2)`.  forlean's printer and the bench's reference
# printer both print negative literals bare, so the reader keeps their
# reading until both bracket them.
_TOKEN = "|".join([r"-?[0-9]+", r"[A-Za-z][A-Za-z0-9]*", *map(re.escape, _SYMBOLS)])
# one token and the whitespace before it
_TOKEN_RE = re.compile(rf"\s*({_TOKEN})")
_PREDS = set(default_lexicon().images("rawAdjective0").values())
# an integer literal (group 1) or an identifier
_ATOM_RE = re.compile(r"(-?[0-9]+)|[A-Za-z][A-Za-z0-9]*")
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")
_INFIX = {symbol: n for symbol, n in NOTATION.items() if n.left is not None}
_PREFIX = {symbol: n for symbol, n in NOTATION.items() if n.left is None}
# a predicate applied to its argument, which Lean reads at `max`
_APPLICATION = Notation(PredApp, MAX_PREC, None, MAX_PREC)
_TERMS = (VarT, LitT, ArithT)


class LeanReadError(ValueError):
    pass


def _lex(text: str) -> list[str]:
    tokens, start = [], 0
    while token := _TOKEN_RE.match(text, start):
        tokens.append(token[1])
        start = token.end()
    if text[start:].strip():
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
        expr = self.expr()
        if type(expr) in _TERMS:
            raise LeanReadError("expected a proposition, found a term")
        return expr

    def expr(self):
        """The longest expression from here.  The operators that wait for
        their right operand are kept on a stack, not in Python frames, so
        only a parenthesis adds a frame; a quantifier waits with its binder
        as its left operand."""
        waiting: list = []
        while True:
            tok = self.take()
            notation = _PREFIX.get(tok)
            if tok in _PREDS and (self.peek() == "(" or _ATOM_RE.fullmatch(self.peek() or "")):
                notation = _APPLICATION
            if notation is not None:
                binder = None
                if notation.node in (Forall, Exists):
                    binder = self.binder()
                    if type(binder) is not TypeBinder:
                        raise LeanReadError(f"bad binder type in {binder.label!r}")
                    self.expect(",")
                waiting.append((tok, notation, binder))
                continue
            if tok == "(":
                operand = self.expr()
                self.expect(")")
            else:
                operand = _atom(tok)
            prec = MAX_PREC
            while True:
                op = self.peek()
                infix = _INFIX.get(op)
                # an operator that binds looser than the waiting one allows
                # ends the waiting one's right operand
                if waiting and (infix is None or infix.precedence < waiting[-1][1].right):
                    operand, prec = _reduce(*waiting.pop(), operand)
                    continue
                if infix is None:
                    return operand
                if prec < infix.left:
                    raise LeanReadError(f"{op} does not associate")
                self.take()
                waiting.append((op, infix, operand))
                break


def _atom(tok: str):
    atom = _ATOM_RE.fullmatch(tok)
    if atom is None:
        if tok == "-":
            raise LeanReadError("prefix '-' on a non-literal is outside forlean's fragment")
        raise LeanReadError(f"expected a term, found {tok!r}")
    if atom[1] is None:
        return VarT(tok)
    try:
        return LitT(int(tok))
    except ValueError:  # more digits than Python converts to an int
        raise LeanReadError("integer literal too long") from None


def _reduce(symbol: str, notation: Notation, left, right):
    """The node an operator builds from its operands, after checking their
    sorts, and that node's precedence."""
    node = notation.node
    prop = node not in (Rel, ArithT, PredApp)
    operands = (right,) if notation.left is None else (left, right)
    if any((type(operand) not in _TERMS) != prop for operand in operands):
        raise LeanReadError(f"the operands of {symbol!r} must be {'propositions' if prop else 'terms'}")
    if node in (Forall, Exists):
        return node(left.name, left.type, right), notation.precedence
    return (node(*operands) if prop else node(symbol, *operands)), notation.precedence


def read_command(text: str) -> LeanCommand:
    """Read one command in Lean's notation into its tree."""
    try:
        return _Reader(_lex(text)).command()
    except RecursionError:
        raise LeanReadError("input nested too deeply") from None
