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
from .lexicon import Category, default_lexicon
from .tree import once

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
_TYPES = _LEXICON.images(Category.RAW_NOUN0)
_OPERATORS = _LEXICON.images(Category.RAW_NOUN2)
_PREDICATES = _LEXICON.images(Category.RAW_ADJECTIVE0)
_RELATIONS = _LEXICON.images(Category.RAW_ADJECTIVE1)


def _binder_name(notion: ftl.Notion) -> str:
    match notion.name:
        case ftl.Named(letter):
            return letter
        case ftl.Meta(ident):
            return f"x{ident}"
    raise UntranslatableNode(f"unnamed notion {notion!r}")


def translate_term(t: ftl.Term) -> LeanTerm:
    match t:
        case ftl.Var(name):
            return VarT(name)
        case ftl.MetaVar(ident):
            return VarT(f"x{ident}")
        case ftl.IntLit(value):
            return LitT(value)
        case ftl.BinApp(op, left, right):
            return ArithT(_OPERATORS[op], translate_term(left), translate_term(right))
        case ftl.Quantified():
            raise UntranslatableNode("in-situ quantified term (simplifier should have raised it)")
    raise TypeError(f"not a term: {t!r}")


def translate_predicate(subject: LeanTerm, p: ftl.Predicate) -> LeanProp:
    match p:
        case ftl.IsAdj(polarity, adjective):
            prop: LeanProp = PredApp(_PREDICATES[adjective], subject)
        case ftl.IsAdj1(polarity, adjective, term):
            prop = Rel(_RELATIONS[adjective], subject, translate_term(term))
        case ftl.IsTerm(polarity, term):
            prop = Rel("=", subject, translate_term(term))
        case ftl.IsNotion():
            raise UntranslatableNode("notion predicate (simplifier should have split it)")
        case _:
            raise TypeError(f"not a predicate: {p!r}")
    return NotP(prop) if polarity is Polarity.NEG else prop


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
    match s:
        case ftl.And(l, r) | ftl.Or(l, r) | ftl.IfThen(l, r) | ftl.Iff(l, r):
            prop = _CONNECTIVES[type(s)](translate_statement(l, memo), translate_statement(r, memo))
        case ftl.Not(body):
            prop = NotP(translate_statement(body, memo))
        case ftl.ForQuantified(ftl.QuantifiedNotion(quantifier, notion), body):
            prop = translate_statement(body, memo)
            name, type_ = _binder_name(notion), _TYPES[notion.head]
            if quantifier is Quantifier.NO:
                prop = NotP(prop)
            condition = _condition(notion, memo)
            if condition is not None:
                prop = (AndP if quantifier is Quantifier.SOME else Imp)(condition, prop)
            prop = (Exists if quantifier is Quantifier.SOME else Forall)(name, type_, prop)
        case ftl.Does(subject, predicate):
            prop = translate_predicate(translate_term(subject), predicate)
        case ftl.ThereExists(notion) | ftl.ThereExistsNo(notion):
            condition = _condition(notion, memo)
            if condition is None:
                raise UntranslatableNode("existential without a condition has no Lean image")
            prop = Exists(_binder_name(notion), _TYPES[notion.head], condition)
            if type(s) is ftl.ThereExistsNo:
                prop = NotP(prop)
        case _:
            raise TypeError(f"not a statement: {s!r}")
    memo[id(s)] = (s, prop)
    return prop


def _bare_typing(assumption: ftl.Statement) -> tuple[str, str] | None:
    """Match "v is a <bare notion v>", returning (variable, noun key)."""
    match assumption:
        case ftl.Does(
            ftl.Var(v),
            ftl.IsNotion(
                Polarity.POS,
                ftl.Notion(head, ftl.Named(name), None, None),
            ),
        ) if name == v:
            return v, head
    return None


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
        typing = _bare_typing(assumption)
        if typing is not None:
            variable, head = typing
            binders.append(TypeBinder(variable, _TYPES[head]))
        else:
            hypothesis = translate_statement(assumption, statements)
            binders.append(HypBinder(f"h{next(labels)}", hypothesis))
    return tuple(binders)
