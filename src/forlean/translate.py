"""Conversion of simplified source trees into Lean statement trees.

Each word becomes the Lean image its lexicon entry gives, as text: nouns
become types, arithmetic nouns operators, plain adjectives unary predicates
and comparative adjectives relations.  ``translate_statement`` maps each
quantified notion by rule in its own case analysis: every C, P -> ∀ (C → P);
some C, P -> ∃ (C ∧ P); no C, P -> ∀ (C → ¬P), C the such-that condition.

Translation is pure, so ``translate_text`` caches it in a memo that
``run_pipeline`` shares among the parses of a text: each statement and
assumptions tuple the parses share is translated once, and the parses then
share its Lean image too.

Per-node functions test ``type(node) is C``, most frequent class first, not
a ``match`` class pattern: an ``isinstance`` test, tried case after case.
"""

from __future__ import annotations

import itertools

from . import forthel as ftl
from .forthel import Polarity, Quantifier
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
from .lexicon import default_lexicon
from .simplify import typed_notion
from .tree import _new, once  # _new builds a node without its class's __new__

__all__ = [
    "UntranslatableNode",
    "translate_predicate",
    "translate_statement",
    "translate_term",
    "translate_text",
]


class UntranslatableNode(ValueError):
    """A construct outside the simplifier's normal form reached translation."""


_LEXICON = default_lexicon()
_TYPES = _LEXICON.images("rawNoun0")
_OPERATORS = _LEXICON.images("rawNoun2")
_PREDICATES = _LEXICON.images("rawAdjective0")
_RELATIONS = _LEXICON.images("rawAdjective1")


def _binder_name(notion: ftl.Notion) -> str:
    name = notion.name
    if type(name) is ftl.Named:
        return name.letter
    if type(name) is ftl.Meta:
        return f"x{name.ident}"
    raise UntranslatableNode(f"unnamed notion {notion!r}")


def translate_term(t: ftl.Term) -> LeanTerm:
    cls = type(t)
    if cls is ftl.Var:
        return _new(VarT, (t.name,))
    if cls is ftl.BinApp:
        return _new(ArithT, (_OPERATORS[t.op], translate_term(t.left), translate_term(t.right)))
    if cls is ftl.IntLit:
        return _new(LitT, (t.value,))
    if cls is ftl.MetaVar:
        return _new(VarT, (f"x{t.ident}",))
    if cls is ftl.Quantified:
        raise UntranslatableNode("in-situ quantified term (simplifier should have raised it)")
    raise TypeError(f"not a term: {t!r}")


def translate_predicate(subject: LeanTerm, p: ftl.Predicate) -> LeanProp:
    cls = type(p)
    if cls is ftl.IsAdj1:
        prop: LeanProp = Rel(_RELATIONS[p.adjective], subject, translate_term(p.term))
    elif cls is ftl.IsAdj:
        prop = PredApp(_PREDICATES[p.adjective], subject)
    elif cls is ftl.IsTerm:
        prop = Rel("=", subject, translate_term(p.term))
    elif cls is ftl.IsNotion:
        raise UntranslatableNode("notion predicate (simplifier should have split it)")
    else:
        raise TypeError(f"not a predicate: {p!r}")
    return NotP(prop) if p.polarity is Polarity.NEG else prop


def _condition(notion: ftl.Notion, memo) -> LeanProp | None:
    attribute = notion.right_attribute
    if notion.left_attribute is not None or type(attribute) not in (type(None), ftl.SuchThat):
        raise UntranslatableNode("unflattened notion attribute")
    return None if attribute is None else translate_statement(attribute.statement, memo)


_CONNECTIVES = {ftl.And: AndP, ftl.Or: OrP, ftl.IfThen: Imp, ftl.Iff: IffP}


def translate_statement(s: ftl.Statement, memo: dict | None = None) -> LeanProp:
    """``memo`` caches the result per node identity and holds each node it
    keys."""
    memo = {} if memo is None else memo
    hit = memo.get(id(s))
    if hit is not None:
        return hit[1]
    cls = type(s)
    if cls is ftl.Does:
        prop = translate_predicate(translate_term(s.subject), s.predicate)
    elif cls in _CONNECTIVES:
        left, right = s
        prop = _CONNECTIVES[cls](translate_statement(left, memo), translate_statement(right, memo))
    elif cls is ftl.ForQuantified and type(s.qnotion) is ftl.QuantifiedNotion:
        quantifier, notion = s.qnotion.quantifier, s.qnotion.notion
        prop = translate_statement(s.body, memo)
        name, type_ = _binder_name(notion), _TYPES[notion.head]
        if quantifier is Quantifier.NO:
            prop = NotP(prop)
        condition = _condition(notion, memo)
        if condition is not None:
            prop = (AndP if quantifier is Quantifier.SOME else Imp)(condition, prop)
        prop = (Exists if quantifier is Quantifier.SOME else Forall)(name, type_, prop)
    elif cls is ftl.Not:
        prop = NotP(translate_statement(s.body, memo))
    elif cls is ftl.ThereExists or cls is ftl.ThereExistsNo:
        condition = _condition(s.notion, memo)
        if condition is None:
            raise UntranslatableNode("existential without a condition has no Lean image")
        prop = Exists(_binder_name(s.notion), _TYPES[s.notion.head], condition)
        if cls is ftl.ThereExistsNo:
            prop = NotP(prop)
    else:
        raise TypeError(f"not a statement: {s!r}")
    memo[id(s)] = (s, prop)
    return prop


def translate_text(nf: ftl.ForthelText, memo: dict | None = None) -> LeanCommand:
    """Map split assumptions to binders in order and the conclusion to the
    goal.  Hypothesis labels are provisional; normalize_names gives the
    deterministic h1, h2, ... numbering.

    ``memo`` is a cache handle: pass the same dict for every parse of one
    text, and a statement the parses share is translated once, and an
    assumptions tuple they share becomes binders once, which their commands
    then share."""
    memo = {} if memo is None else memo
    statements = memo.setdefault(translate_statement, {})
    binders = once(memo, _binders, nf.example.assumptions, statements)
    return LeanCommand(binders, translate_statement(nf.example.conclusion, statements))


def _binders(assumptions: tuple[ftl.Statement, ...], statements: dict) -> tuple:
    labels = itertools.count(1)
    binders = []
    for assumption in assumptions:
        notion = typed_notion(assumption)
        if notion is not None and notion.left_attribute is None and notion.right_attribute is None:
            binders.append(TypeBinder(notion.name.letter, _TYPES[notion.head]))
        else:
            hypothesis = translate_statement(assumption, statements)
            binders.append(HypBinder(f"h{next(labels)}", hypothesis))
    return tuple(binders)
