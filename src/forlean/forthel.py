"""Abstract syntax of the controlled input language and its linearization
back to surface text.

Linearization is the display convention used by the stage-dump CLI flags:
metavariable names print as ``(x n)``, ex-situ quantified statements print as
``for every/some/no ..., ...``, and every sentence ends with ``.``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

from .lexicon import Category, default_lexicon
from .tree import _IS_NODE


class Quantifier(Enum):
    EVERY = "every"
    SOME = "some"
    NO = "no"


class Polarity(Enum):
    POS = "pos"
    NEG = "neg"


# --- name slots -------------------------------------------------------------


@dataclass(frozen=True)
class Named:
    letter: str


@dataclass(frozen=True)
class Meta:
    ident: int


@dataclass(frozen=True)
class Unnamed:
    pass


NameSlot = Union[Named, Meta, Unnamed]


# --- terms -------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class MetaVar:
    """Reference to a generated name, the term-level counterpart of Meta."""

    ident: int


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class BinApp:
    op: str  # rawNoun2 key
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Quantified:
    """In-situ quantified term; removed by the simplifier."""

    qnotion: "QuantifiedNotion"


Term = Union[Var, MetaVar, IntLit, BinApp, Quantified]


# --- notions and predicates ---------------------------------------------------


@dataclass(frozen=True)
class IsAdj:
    polarity: Polarity
    adjective: str  # rawAdjective0 key


@dataclass(frozen=True)
class IsAdj1:
    polarity: Polarity
    adjective: str  # rawAdjective1 key
    term: Term


@dataclass(frozen=True)
class IsNotion:
    polarity: Polarity
    notion: "Notion"


@dataclass(frozen=True)
class IsTerm:
    polarity: Polarity
    term: Term


Predicate = Union[IsAdj, IsAdj1, IsNotion, IsTerm]


@dataclass(frozen=True)
class IsPred:
    predicate: Predicate


@dataclass(frozen=True)
class SuchThat:
    statement: "Statement"


RightAttribute = Union[IsPred, SuchThat]


@dataclass(frozen=True)
class Notion:
    head: str  # rawNoun0 key
    name: NameSlot
    left_attribute: str | None = None  # rawAdjective0 key, at most one
    right_attribute: RightAttribute | None = None


@dataclass(frozen=True)
class QuantifiedNotion:
    quantifier: Quantifier
    notion: Notion


# --- statements ---------------------------------------------------------------


@dataclass(frozen=True)
class And:
    left: "Statement"
    right: "Statement"


@dataclass(frozen=True)
class Or:
    left: "Statement"
    right: "Statement"


@dataclass(frozen=True)
class IfThen:
    antecedent: "Statement"
    consequent: "Statement"


@dataclass(frozen=True)
class Iff:
    left: "Statement"
    right: "Statement"


@dataclass(frozen=True)
class Not:
    body: "Statement"


@dataclass(frozen=True)
class ForQuantified:
    qnotion: QuantifiedNotion
    body: "Statement"


@dataclass(frozen=True)
class Does:
    subject: Term
    predicate: Predicate


@dataclass(frozen=True)
class ThereExists:
    notion: Notion


@dataclass(frozen=True)
class ThereExistsNo:
    notion: Notion


Statement = Union[
    And, Or, IfThen, Iff, Not, ForQuantified, Does, ThereExists, ThereExistsNo
]


@dataclass(frozen=True)
class Example:
    assumptions: tuple[Statement, ...]
    conclusion: Statement


@dataclass(frozen=True)
class ForthelText:
    example: Example


# --- linearization ------------------------------------------------------------

# the lexicon's precedence of each arithmetic operator; a higher level binds
# tighter, and every level is left-associative
_TERM_PREC = {e.key: e.precedence for e in default_lexicon().entries(Category.RAW_NOUN2)}
# the first surface form of each entry, {key: surface} per category
_NOUNS, _OPERATORS, _ADJECTIVES, _COMPARATIVES = (
    {e.key: " ".join(e.surface[0]) for e in default_lexicon().entries(category)}
    for category in (
        Category.RAW_NOUN0, Category.RAW_NOUN2, Category.RAW_ADJECTIVE0, Category.RAW_ADJECTIVE1
    )
)


def _article(phrase: str) -> str:
    return "an" if phrase[:1] in "aeiou" else "a"


def _lin_term(t: Term) -> str:
    match t:
        case Var(name):
            return name
        case MetaVar(ident):
            return f"(x {ident})"
        case IntLit(value):
            return str(value)
        case Quantified(qnotion):
            return _lin_qnotion(qnotion)
        case BinApp(op, left, right):
            prec = _TERM_PREC[op]
            ls = _lin_term(left)
            rs = _lin_term(right)
            if isinstance(left, BinApp) and _TERM_PREC[left.op] < prec:
                ls = f"({ls})"
            if isinstance(right, BinApp) and _TERM_PREC[right.op] <= prec:
                rs = f"({rs})"
            return f"{ls} {_OPERATORS[op]} {rs}"
    raise TypeError(f"not a term: {t!r}")


def _lin_name(name: NameSlot) -> str:
    match name:
        case Named(letter):
            return letter
        case Meta(ident):
            return f"(x {ident})"
        case Unnamed():
            return ""
    raise TypeError(f"not a name slot: {name!r}")


def _lin_attribute(p: Predicate) -> str:
    # bare adjectival phrase for adjectives, a "that is ..." clause otherwise
    neg = "not " if p.polarity is Polarity.NEG else ""
    match p:
        case IsAdj(_, adjective):
            return f"{neg}{_ADJECTIVES[adjective]}"
        case IsAdj1(_, adjective, term):
            return f"{neg}{_COMPARATIVES[adjective]} {_lin_term(term)}"
        case _:
            return f"that {_lin_is_predicate(p)}"


def _lin_notion(n: Notion, article: bool) -> str:
    parts: list[str] = []
    if n.left_attribute is not None:
        parts.append(_ADJECTIVES[n.left_attribute])
    parts.append(_NOUNS[n.head])
    name = _lin_name(n.name)
    if name:
        parts.append(name)
    match n.right_attribute:
        case IsPred(predicate):
            parts.append(_lin_attribute(predicate))
        case SuchThat(statement):
            parts.append(f"such that {_lin_statement(statement)}")
        case None:
            pass
    phrase = " ".join(parts)
    return f"{_article(phrase)} {phrase}" if article else phrase


def _lin_qnotion(qn: QuantifiedNotion) -> str:
    return f"{qn.quantifier.value} {_lin_notion(qn.notion, article=False)}"


def _lin_is_predicate(p: Predicate) -> str:
    neg = "not " if p.polarity is Polarity.NEG else ""
    match p:
        case IsAdj(_, adjective):
            return f"is {neg}{_ADJECTIVES[adjective]}"
        case IsAdj1(_, adjective, term):
            return f"is {neg}{_COMPARATIVES[adjective]} {_lin_term(term)}"
        case IsNotion(_, notion):
            return f"is {neg}{_lin_notion(notion, article=True)}"
        case IsTerm(_, term):
            return f"is {neg}{_lin_term(term)}"
    raise TypeError(f"not a predicate: {p!r}")


def _lin_statement(s: Statement) -> str:
    match s:
        case Does(subject, predicate):
            return f"{_lin_term(subject)} {_lin_is_predicate(predicate)}"
        case And(left, right):
            # a left-nested And can only come from the comma form, which binds
            # looser than "and"; print it back as a comma so it reparses
            lin = f"{_lin_statement(left)}, " if isinstance(left, And) else f"{_lin_statement(left)} and "
            return lin + _lin_statement(right)
        case Or(left, right):
            return f"{_lin_statement(left)} or {_lin_statement(right)}"
        case Iff(left, right):
            return f"{_lin_statement(left)} iff {_lin_statement(right)}"
        case IfThen(antecedent, consequent):
            return f"if {_lin_statement(antecedent)} then {_lin_statement(consequent)}"
        case Not(body):
            return f"it's not that {_lin_statement(body)}"
        case ForQuantified(qnotion, body):
            return f"for {_lin_qnotion(qnotion)}, {_lin_statement(body)}"
        case ThereExists(notion):
            phrase = _lin_notion(notion, article=False)
            return f"there exists {_article(phrase)} {phrase}"
        case ThereExistsNo(notion):
            return f"there exists no {_lin_notion(notion, article=False)}"
    raise TypeError(f"not a statement: {s!r}")


def _lin_example(ex: Example) -> str:
    parts = ["ex ."]
    for assumption in ex.assumptions:
        parts.append(f"assume {_lin_statement(assumption)}.")
    parts.append(f"then {_lin_statement(ex.conclusion)}.")
    return " ".join(parts)


def linearize_forthel(node) -> str:
    """Deterministic surface string for any node of the source syntax."""
    match node:
        case ForthelText(example):
            return _lin_example(example)
        case Example():
            return _lin_example(node)
        case Notion():
            return _lin_notion(node, article=True)
        case QuantifiedNotion():
            return _lin_qnotion(node)
        case IsAdj() | IsAdj1() | IsNotion() | IsTerm():
            return _lin_is_predicate(node)
        case IsPred(predicate):
            return _lin_attribute(predicate)
        case SuchThat(statement):
            return f"such that {_lin_statement(statement)}"
        case Named() | Meta() | Unnamed():
            return _lin_name(node)
        case Var() | MetaVar() | IntLit() | BinApp() | Quantified():
            return _lin_term(node)
        case _:
            return _lin_statement(node)


def to_debug_tree(node):
    """JSON-compatible tree dump: constructor name plus children, in field
    order."""
    if type(node) is tuple:
        return [to_debug_tree(item) for item in node]
    if _IS_NODE[type(node)]:
        fields = {name: to_debug_tree(child) for name, child in vars(node).items()}
        return {"node": type(node).__name__, **fields}
    if isinstance(node, Enum):
        return node.value
    return node
