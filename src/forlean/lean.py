"""Target expression trees, Lean's notation for them, and their printer.

``NOTATION`` is the one description of Lean's operators: each symbol with
the node it builds and its precedences, transcribed from Lean 4 core.  The
printer takes its connective and quantifier symbols from it, and
``lean_reader`` parses with it.

Printing is deliberately rigid so that output is byte-stable: every compound
arithmetic term and every binary or negated proposition is parenthesized;
atoms and predicate applications never are, and quantifiers only as the left
operand of a connective, because a quantifier reaches as far right as it can.

Printing is pure, so ``print_command`` caches it in a memo that
``run_pipeline`` shares among the parses of a text: each proposition and
binders tuple the parses share is printed once.  The printer tests
``type(node) is C``, most frequent class first, not a ``match`` class
pattern: an ``isinstance`` test, tried case after case.

``normalize_names`` collects names in one ``tree.iter_nodes`` pass and renames
them in one ``tree.transform``; ``alpha_equivalent`` compares two commands'
locally nameless forms, each built by one walk with a binder environment.
"""

from __future__ import annotations

import dataclasses
import re
from typing import NamedTuple, Union

from .tree import _IS_NODE, iter_nodes, node, once, transform

__all__ = [
    "AndP",
    "ArithT",
    "Binder",
    "DuplicateBinderName",
    "Exists",
    "Forall",
    "HypBinder",
    "IffP",
    "Imp",
    "LeanCommand",
    "LeanProp",
    "LeanTerm",
    "LitT",
    "MAX_PREC",
    "NOTATION",
    "NotP",
    "Notation",
    "OrP",
    "PredApp",
    "Rel",
    "TypeBinder",
    "VarT",
    "alpha_equivalent",
    "normalize_names",
    "print_command",
    "print_prop",
    "print_term",
]


# --- terms ---------------------------------------------------------------------


@node
class VarT:
    name: str


@node
class LitT:
    value: int


@node
class ArithT:
    op: str  # a rawNoun2 image of the lexicon, such as +
    left: "LeanTerm"
    right: "LeanTerm"


LeanTerm = Union[VarT, LitT, ArithT]


# --- propositions -----------------------------------------------------------------


@node
class Rel:
    op: str  # a rawAdjective1 image of the lexicon, such as <, or = for "is <term>"
    left: LeanTerm
    right: LeanTerm


@node
class PredApp:
    pred: str  # a rawAdjective0 image of the lexicon, such as odd
    arg: LeanTerm


@node
class NotP:
    body: "LeanProp"


@node
class AndP:
    left: "LeanProp"
    right: "LeanProp"


@node
class OrP:
    left: "LeanProp"
    right: "LeanProp"


@node
class Imp:
    left: "LeanProp"
    right: "LeanProp"


@node
class IffP:
    left: "LeanProp"
    right: "LeanProp"


@node
class Forall:
    name: str
    type: str  # a rawNoun0 image of the lexicon, such as ℤ
    body: "LeanProp"


@node
class Exists:
    name: str
    type: str  # a rawNoun0 image of the lexicon, such as ℤ
    body: "LeanProp"


LeanProp = Union[Rel, PredApp, NotP, AndP, OrP, Imp, IffP, Forall, Exists]


# --- commands -----------------------------------------------------------------------


@node
class TypeBinder:
    name: str
    type: str  # a rawNoun0 image of the lexicon, such as ℤ


@node
class HypBinder:
    label: str
    prop: LeanProp


Binder = Union[TypeBinder, HypBinder]


@node
class LeanCommand:
    binders: tuple[Binder, ...]
    goal: LeanProp


class DuplicateBinderName(ValueError):
    pass


# --- notation ------------------------------------------------------------------------


class Notation(NamedTuple):
    """How Lean parses an operator: the precedence of the whole, and the
    least precedence of each operand (``left`` is None for a prefix)."""

    node: type
    precedence: int
    left: int | None
    right: int


# Lean's `max`, the precedence of atoms, applications and parentheses
MAX_PREC = 1024

# Lean 4 core's notation for forlean's fragment, one row per declaration.
# Lean expands `infixl:p` to `notation:p lhs:p op rhs:(p+1)`, `infixr:p` to
# `lhs:(p+1) op rhs:p` and `infix:p` to `lhs:(p+1) op rhs:(p+1)`, so an
# `infix` operator neither associates nor chains.  These are Lean's
# precedences, not those of the input language in lexicon.tsv.
NOTATION = {
    "↔": Notation(IffP, 20, 21, 21),  # infix:20 " ↔ " => Iff
    "→": Notation(Imp, 25, 26, 25),  # the built-in arrow, right-associative at 25
    "∨": Notation(OrP, 30, 31, 30),  # infixr:30 " ∨ " => Or
    "∧": Notation(AndP, 35, 36, 35),  # infixr:35 " ∧ " => And
    "¬": Notation(NotP, MAX_PREC, None, 40),  # notation:max "¬" p:40 => Not p
    "=": Notation(Rel, 50, 51, 51),  # infix:50 " = " => Eq
    "≠": Notation(Rel, 50, 51, 51),  # infix:50 " ≠ " => Ne
    "<": Notation(Rel, 50, 51, 51),  # infix:50 " < " => LT.lt
    ">": Notation(Rel, 50, 51, 51),  # infix:50 " > " => GT.gt
    "≤": Notation(Rel, 50, 51, 51),  # infix:50 " ≤ " => LE.le
    "≥": Notation(Rel, 50, 51, 51),  # infix:50 " ≥ " => GE.ge
    "+": Notation(ArithT, 65, 65, 66),  # infixl:65 " + " => HAdd.hAdd
    "-": Notation(ArithT, 65, 65, 66),  # infixl:65 " - " => HSub.hSub
    "*": Notation(ArithT, 70, 70, 71),  # infixl:70 " * " => HMul.hMul
    "/": Notation(ArithT, 70, 70, 71),  # infixl:70 " / " => HDiv.hDiv
    "%": Notation(ArithT, 70, 70, 71),  # infixl:70 " % " => HMod.hMod
    "^": Notation(ArithT, 75, 76, 75),  # infixr:75 " ^ " => HPow.hPow
    # the binder notations `∀ x, p` and `∃ x, p` lead at `lead` (max - 1) and
    # read their body at 0, so that it reaches as far right as it can
    "∀": Notation(Forall, MAX_PREC - 1, None, 0),
    "∃": Notation(Exists, MAX_PREC - 1, None, 0),
}


# --- printing ------------------------------------------------------------------------

# the symbol of each connective and quantifier
_SYMBOLS = {n.node: symbol for symbol, n in NOTATION.items() if n.node not in (Rel, ArithT)}
_BINARY = (AndP, OrP, Imp, IffP)


def print_term(t: LeanTerm) -> str:
    cls = type(t)
    if cls is VarT:
        return t.name
    if cls is ArithT:
        return f"({print_term(t.left)} {t.op} {print_term(t.right)})"
    if cls is LitT:
        return str(t.value)
    raise TypeError(f"not a term: {t!r}")


def print_prop(p: LeanProp, memo: dict | None = None) -> str:
    """``memo`` caches the result per node identity and holds each node it
    keys."""
    memo = {} if memo is None else memo
    hit = memo.get(id(p))
    if hit is not None:
        return hit[1]
    cls = type(p)
    if cls is Rel:
        text = f"{print_term(p.left)} {p.op} {print_term(p.right)}"
    elif cls is PredApp:
        text = f"{p.pred} {print_term(p.arg)}"
    elif cls in _BINARY:
        left = print_prop(p.left, memo)
        if type(p.left) in (Forall, Exists):
            left = f"({left})"
        text = f"({left} {_SYMBOLS[cls]} {print_prop(p.right, memo)})"
    elif cls is NotP:
        text = f"({_SYMBOLS[NotP]} {print_prop(p.body, memo)})"
    elif cls is Forall or cls is Exists:
        text = f"{_SYMBOLS[cls]} ({p.name} : {p.type}), {print_prop(p.body, memo)}"
    else:
        raise TypeError(f"not a proposition: {p!r}")
    memo[id(p)] = (p, text)
    return text


def print_command(c: LeanCommand, memo: dict | None = None) -> str:
    """``memo`` is a cache handle: pass the same dict for every command of
    one text, and a proposition the commands share is printed once, and a
    binders tuple they share is checked and printed once."""
    memo = {} if memo is None else memo
    props = memo.setdefault(print_prop, {})
    prefix = once(memo, _print_binders, c.binders, props)
    return f"{prefix} : {print_prop(c.goal, props)} := sorry"


def _print_binders(binders: tuple[Binder, ...], props: dict) -> str:
    names = [b.name if type(b) is TypeBinder else b.label for b in binders]
    duplicates = {n for n in names if names.count(n) > 1}
    if duplicates:
        raise DuplicateBinderName(", ".join(sorted(duplicates)))
    types = [b.type if type(b) is TypeBinder else print_prop(b.prop, props) for b in binders]
    return " ".join(["example", *(f"({n} : {t})" for n, t in zip(names, types))])


# --- name normalization ------------------------------------------------------------------

_GENERATED = re.compile(r"x[0-9]+\Z")
_NAMED = (VarT, Forall, Exists, TypeBinder)


def normalize_names(c: LeanCommand) -> LeanCommand:
    """Rename hypothesis labels to h1, h2, ... in binder order and generated
    variables to x1, x2, ... in first-occurrence order; user-written variable
    letters are untouched."""
    labels: dict[str, str] = {}
    generated: dict[str, str] = {}
    for node in iter_nodes(c):
        if type(node) is HypBinder:
            labels.setdefault(node.label, f"h{len(labels) + 1}")
        elif type(node) in _NAMED and _GENERATED.fullmatch(node.name):
            generated.setdefault(node.name, f"x{len(generated) + 1}")

    def rename(n):
        if type(n) is HypBinder:
            return HypBinder(labels[n.label], n.prop)
        if type(n) in _NAMED and n.name in generated:
            return dataclasses.replace(n, name=generated[n.name])
        return n

    return transform(c, rename)


# --- alpha equivalence -------------------------------------------------------------------


def alpha_equivalent(a: LeanCommand, b: LeanCommand) -> bool:
    """Structural equality modulo consistent renaming of binder-introduced
    names; hypothesis labels are ignored."""
    return _nameless(a) == _nameless(b)


def _nameless(node, env: dict[str, int] | None = None, depth: int = 0) -> tuple:
    """The locally nameless form of ``node`` (de Bruijn 1972; Charguéraud
    2012) as nested tuples, class first: a bound name becomes its binder's de
    Bruijn level, the binder's depth counted from the command's first; binder
    names and hypothesis labels go and free names stay.  ``env`` maps the
    names in scope to their levels.  Tuples, not nodes: ``==`` on them
    recurses once per tree level, as this walk does."""
    cls = type(node)
    if cls is VarT:
        return (VarT, env.get(node.name, node.name))
    if cls is Forall or cls is Exists:
        return (cls, node.type, _nameless(node.body, {**env, node.name: depth}, depth + 1))
    if cls is LeanCommand:
        env, binders = {}, []
        for binder in node.binders:
            if type(binder) is TypeBinder:
                binders.append((TypeBinder, binder.type))
                env, depth = {**env, binder.name: depth}, depth + 1
            else:
                binders.append((HypBinder, _nameless(binder.prop, env, depth)))
        return (LeanCommand, tuple(binders), _nameless(node.goal, env, depth))
    # a loop, not a comprehension: one Python frame per tree level
    form = [cls]
    for field in vars(node).values():
        form.append(_nameless(field, env, depth) if _IS_NODE[type(field)] else field)
    return tuple(form)
