"""Target expression trees and their printer.

Printing is deliberately rigid so that output is byte-stable: every compound
arithmetic term and every binary or negated proposition is parenthesized;
atoms and predicate applications never are, and quantifiers only as the left
operand of a connective, because a quantifier reaches as far right as it can.

Printing is pure, so ``print_command`` can take one memo for all parses of a
text: each proposition and binders tuple the parses share is printed once.

``normalize_names`` collects names in one ``tree.iter_nodes`` pass and renames
them in one ``tree.transform``; ``alpha_equivalent`` is one paired walk over
node fields.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from typing import Union

from .tree import _IS_NODE, iter_nodes, once, transform

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
    "NotP",
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


@dataclass(frozen=True)
class VarT:
    name: str


@dataclass(frozen=True)
class LitT:
    value: int


@dataclass(frozen=True)
class ArithT:
    op: str  # a rawNoun2 image of the lexicon, such as +
    left: "LeanTerm"
    right: "LeanTerm"


LeanTerm = Union[VarT, LitT, ArithT]


# --- propositions -----------------------------------------------------------------


@dataclass(frozen=True)
class Rel:
    op: str  # a rawAdjective1 image of the lexicon, such as <, or = for "is <term>"
    left: LeanTerm
    right: LeanTerm


@dataclass(frozen=True)
class PredApp:
    pred: str  # a rawAdjective0 image of the lexicon, such as odd
    arg: LeanTerm


@dataclass(frozen=True)
class NotP:
    body: "LeanProp"


@dataclass(frozen=True)
class AndP:
    left: "LeanProp"
    right: "LeanProp"


@dataclass(frozen=True)
class OrP:
    left: "LeanProp"
    right: "LeanProp"


@dataclass(frozen=True)
class Imp:
    left: "LeanProp"
    right: "LeanProp"


@dataclass(frozen=True)
class IffP:
    left: "LeanProp"
    right: "LeanProp"


@dataclass(frozen=True)
class Forall:
    name: str
    type: str  # a rawNoun0 image of the lexicon, such as ℤ
    body: "LeanProp"


@dataclass(frozen=True)
class Exists:
    name: str
    type: str  # a rawNoun0 image of the lexicon, such as ℤ
    body: "LeanProp"


LeanProp = Union[Rel, PredApp, NotP, AndP, OrP, Imp, IffP, Forall, Exists]


# --- commands -----------------------------------------------------------------------


@dataclass(frozen=True)
class TypeBinder:
    name: str
    type: str  # a rawNoun0 image of the lexicon, such as ℤ


@dataclass(frozen=True)
class HypBinder:
    label: str
    prop: LeanProp


Binder = Union[TypeBinder, HypBinder]


@dataclass(frozen=True)
class LeanCommand:
    binders: tuple[Binder, ...]
    goal: LeanProp


class DuplicateBinderName(ValueError):
    pass


# --- printing ------------------------------------------------------------------------

_CONNECTIVES = {AndP: "∧", OrP: "∨", Imp: "→", IffP: "↔"}


def print_term(t: LeanTerm) -> str:
    match t:
        case VarT(name):
            return name
        case LitT(value):
            return str(value)
        case ArithT(op, left, right):
            return f"({print_term(left)} {op} {print_term(right)})"
    raise TypeError(f"not a term: {t!r}")


def print_prop(p: LeanProp, memo: dict | None = None) -> str:
    """``memo`` caches the result per node identity and holds each node it
    keys."""
    if memo is not None:
        hit = memo.get(id(p))
        if hit is not None:
            return hit[1]
    match p:
        case Rel(op, left, right):
            text = f"{print_term(left)} {op} {print_term(right)}"
        case PredApp(pred, arg):
            text = f"{pred} {print_term(arg)}"
        case NotP(body):
            text = f"(¬ {print_prop(body, memo)})"
        case AndP() | OrP() | Imp() | IffP():
            symbol = _CONNECTIVES[type(p)]
            left = print_prop(p.left, memo)
            if type(p.left) in (Forall, Exists):
                left = f"({left})"
            text = f"({left} {symbol} {print_prop(p.right, memo)})"
        case Forall(name, type_, body):
            text = f"∀ ({name} : {type_}), {print_prop(body, memo)}"
        case Exists(name, type_, body):
            text = f"∃ ({name} : {type_}), {print_prop(body, memo)}"
        case _:
            raise TypeError(f"not a proposition: {p!r}")
    if memo is not None:
        memo[id(p)] = (p, text)
    return text


def print_command(c: LeanCommand, memo: dict | None = None) -> str:
    """``memo`` is a cache handle: pass the same dict for every command of
    one text, and a proposition the commands share is printed once, and a
    binders tuple they share is checked and printed once.  The result is the
    same with or without it."""
    props = None if memo is None else memo.setdefault(print_prop, {})
    prefix = once(memo, _print_binders, c.binders, props)
    return f"{prefix} : {print_prop(c.goal, props)} := sorry"


def _print_binders(binders: tuple[Binder, ...], props: dict | None) -> str:
    names = [b.name if isinstance(b, TypeBinder) else b.label for b in binders]
    duplicates = {n for n in names if names.count(n) > 1}
    if duplicates:
        raise DuplicateBinderName(", ".join(sorted(duplicates)))
    types = [b.type if isinstance(b, TypeBinder) else print_prop(b.prop, props) for b in binders]
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
    names; hypothesis labels are ignored.

    The renaming is one-to-one: ``env`` maps each name bound in ``a`` to its
    partner in ``b`` and ``rev`` maps back, and a variable matches only when
    both maps agree, so a binder may neither merge two names nor capture a
    free one."""
    if len(a.binders) != len(b.binders):
        return False
    env: dict[str, str] = {}
    rev: dict[str, str] = {}
    for ba, bb in zip(a.binders, b.binders):
        match (ba, bb):
            case (TypeBinder(na, ta), TypeBinder(nb, tb)):
                if ta != tb:
                    return False
                env[na] = nb
                rev[nb] = na
            case (HypBinder(_, pa), HypBinder(_, pb)):
                if not _alpha(pa, pb, env, rev):
                    return False
            case _:
                return False
    return _alpha(a.goal, b.goal, env, rev)


def _alpha(s, t, env: dict[str, str], rev: dict[str, str]) -> bool:
    """Whether terms or propositions ``s`` and ``t`` match under ``env`` and
    ``rev``; any node but a variable or a quantifier matches field by field."""
    cls = type(s)
    if cls is not type(t):
        return False
    if cls is VarT:
        return env.get(s.name, s.name) == t.name and rev.get(t.name, t.name) == s.name
    if cls is Forall or cls is Exists:
        inner_env, inner_rev = {**env, s.name: t.name}, {**rev, t.name: s.name}
        return s.type == t.type and _alpha(s.body, t.body, inner_env, inner_rev)
    for x, y in zip(vars(s).values(), vars(t).values()):
        if not (_alpha(x, y, env, rev) if _IS_NODE[type(x)] else x == y):
            return False
    return True
