"""Target expression trees and their printer.

Printing is deliberately rigid so that output is byte-stable: every compound
arithmetic term and every binary or negated proposition is parenthesized;
atoms and predicate applications never are, and quantifiers only as the left
operand of a connective, because a quantifier reaches as far right as it can.

Printing is pure, so ``print_command`` can take one memo for all parses of a
text: each proposition object the parses share is printed once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Union

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
    "LeanType",
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


class LeanType(Enum):
    REAL = "ℝ"
    INT = "ℤ"
    RAT = "ℚ"


# --- terms ---------------------------------------------------------------------


@dataclass(frozen=True)
class VarT:
    name: str


@dataclass(frozen=True)
class LitT:
    value: int


@dataclass(frozen=True)
class ArithT:
    op: str  # one of + - * / ^
    left: "LeanTerm"
    right: "LeanTerm"


LeanTerm = Union[VarT, LitT, ArithT]


# --- propositions -----------------------------------------------------------------


@dataclass(frozen=True)
class Rel:
    op: str  # one of < ≤ > ≥ = ≠
    left: LeanTerm
    right: LeanTerm


@dataclass(frozen=True)
class PredApp:
    pred: str  # pos odd even nneg neg
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
    type: LeanType
    body: "LeanProp"


@dataclass(frozen=True)
class Exists:
    name: str
    type: LeanType
    body: "LeanProp"


LeanProp = Union[Rel, PredApp, NotP, AndP, OrP, Imp, IffP, Forall, Exists]


# --- commands -----------------------------------------------------------------------


@dataclass(frozen=True)
class TypeBinder:
    name: str
    type: LeanType


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
            text = f"∀ ({name} : {type_.value}), {print_prop(body, memo)}"
        case Exists(name, type_, body):
            text = f"∃ ({name} : {type_.value}), {print_prop(body, memo)}"
        case _:
            raise TypeError(f"not a proposition: {p!r}")
    if memo is not None:
        memo[id(p)] = (p, text)
    return text


def print_command(c: LeanCommand, memo: dict | None = None) -> str:
    """``memo`` is a cache handle: pass the same dict for every command of
    one text, and a proposition the commands share is printed once.  The
    result is the same with or without it."""
    props = None if memo is None else memo.setdefault(print_prop, {})
    names = [b.name if isinstance(b, TypeBinder) else b.label for b in c.binders]
    duplicates = {n for n in names if names.count(n) > 1}
    if duplicates:
        raise DuplicateBinderName(", ".join(sorted(duplicates)))
    parts = ["example"]
    for binder in c.binders:
        match binder:
            case TypeBinder(name, type_):
                parts.append(f"({name} : {type_.value})")
            case HypBinder(label, prop):
                parts.append(f"({label} : {print_prop(prop, props)})")
    return " ".join(parts) + f" : {print_prop(c.goal, props)} := sorry"


# --- name normalization ------------------------------------------------------------------

_GENERATED = re.compile(r"x[0-9]+\Z")


def normalize_names(c: LeanCommand) -> LeanCommand:
    """Rename hypothesis labels to h1, h2, ... in binder order and generated
    variables to x1, x2, ... in first-occurrence order; user-written variable
    letters are untouched."""
    labels: dict[str, str] = {}
    for binder in c.binders:
        if isinstance(binder, HypBinder) and binder.label not in labels:
            labels[binder.label] = f"h{len(labels) + 1}"

    generated: list[str] = []

    def note(name: str) -> None:
        if _GENERATED.fullmatch(name) and name not in generated:
            generated.append(name)

    def scan_term(t: LeanTerm) -> None:
        match t:
            case VarT(name):
                note(name)
            case ArithT(_, left, right):
                scan_term(left)
                scan_term(right)

    def scan_prop(p: LeanProp) -> None:
        match p:
            case Rel(_, left, right):
                scan_term(left)
                scan_term(right)
            case PredApp(_, arg):
                scan_term(arg)
            case NotP(body):
                scan_prop(body)
            case AndP() | OrP() | Imp() | IffP():
                scan_prop(p.left)
                scan_prop(p.right)
            case Forall(name, _, body) | Exists(name, _, body):
                note(name)
                scan_prop(body)

    for binder in c.binders:
        if isinstance(binder, TypeBinder):
            note(binder.name)
        else:
            scan_prop(binder.prop)
    scan_prop(c.goal)
    renames = {old: f"x{i + 1}" for i, old in enumerate(generated)}

    def rename(name: str) -> str:
        return renames.get(name, name)

    def map_term(t: LeanTerm) -> LeanTerm:
        match t:
            case VarT(name):
                return VarT(rename(name))
            case ArithT(op, left, right):
                return ArithT(op, map_term(left), map_term(right))
        return t

    def map_prop(p: LeanProp) -> LeanProp:
        match p:
            case Rel(op, left, right):
                return Rel(op, map_term(left), map_term(right))
            case PredApp(pred, arg):
                return PredApp(pred, map_term(arg))
            case NotP(body):
                return NotP(map_prop(body))
            case AndP(left, right):
                return AndP(map_prop(left), map_prop(right))
            case OrP(left, right):
                return OrP(map_prop(left), map_prop(right))
            case Imp(left, right):
                return Imp(map_prop(left), map_prop(right))
            case IffP(left, right):
                return IffP(map_prop(left), map_prop(right))
            case Forall(name, type_, body):
                return Forall(rename(name), type_, map_prop(body))
            case Exists(name, type_, body):
                return Exists(rename(name), type_, map_prop(body))
        raise TypeError(f"not a proposition: {p!r}")

    binders = tuple(
        TypeBinder(rename(b.name), b.type)
        if isinstance(b, TypeBinder)
        else HypBinder(labels[b.label], map_prop(b.prop))
        for b in c.binders
    )
    return LeanCommand(binders, map_prop(c.goal))


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
                if ta is not tb:
                    return False
                env[na] = nb
                rev[nb] = na
            case (HypBinder(_, pa), HypBinder(_, pb)):
                if not _alpha_prop(pa, pb, env, rev):
                    return False
            case _:
                return False
    return _alpha_prop(a.goal, b.goal, env, rev)


def _alpha_term(s: LeanTerm, t: LeanTerm, env: dict[str, str], rev: dict[str, str]) -> bool:
    match (s, t):
        case (VarT(ns), VarT(nt)):
            return env.get(ns, ns) == nt and rev.get(nt, nt) == ns
        case (LitT(vs), LitT(vt)):
            return vs == vt
        case (ArithT(ops, ls, rs), ArithT(opt, lt, rt)):
            return ops == opt and _alpha_term(ls, lt, env, rev) and _alpha_term(rs, rt, env, rev)
    return False


def _alpha_prop(p: LeanProp, q: LeanProp, env: dict[str, str], rev: dict[str, str]) -> bool:
    match (p, q):
        case (Rel(op1, l1, r1), Rel(op2, l2, r2)):
            return op1 == op2 and _alpha_term(l1, l2, env, rev) and _alpha_term(r1, r2, env, rev)
        case (PredApp(f1, a1), PredApp(f2, a2)):
            return f1 == f2 and _alpha_term(a1, a2, env, rev)
        case (NotP(b1), NotP(b2)):
            return _alpha_prop(b1, b2, env, rev)
        case (AndP(l1, r1), AndP(l2, r2)) | (OrP(l1, r1), OrP(l2, r2)) | (
            Imp(l1, r1),
            Imp(l2, r2),
        ) | (IffP(l1, r1), IffP(l2, r2)):
            return _alpha_prop(l1, l2, env, rev) and _alpha_prop(r1, r2, env, rev)
        case (Forall(n1, t1, b1), Forall(n2, t2, b2)) | (
            Exists(n1, t1, b1),
            Exists(n2, t2, b2),
        ):
            if t1 is not t2 or type(p) is not type(q):
                return False
            return _alpha_prop(b1, b2, {**env, n1: n2}, {**rev, n2: n1})
    return False
