"""Conversion of simplified source trees into Lean statement trees.

The lexicon image is fixed: nouns become the types ℝ/ℤ/ℚ, arithmetic nouns
become the corresponding operators, plain adjectives become the unary
predicates pos/odd/even/nneg/neg, and comparative adjectives become the
relations < ≤ > ≥ = ≠.

Translation is pure, so ``translate_text`` can take one memo for all parses of
a text: each statement the parses share is translated once, and the parses
then share its Lean proposition too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

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
    LeanType,
    LitT,
    NotP,
    OrP,
    PredApp,
    Rel,
    TypeBinder,
    VarT,
)

__all__ = [
    "DEFAULT_SEMANTICS",
    "LexiconSemantics",
    "UntranslatableNode",
    "translate_predicate",
    "translate_statement",
    "translate_term",
    "translate_text",
]


class UntranslatableNode(ValueError):
    """A construct outside the simplifier's normal form reached translation."""


@dataclass(frozen=True)
class LexiconSemantics:
    noun_types: Mapping[str, LeanType]
    noun2_ops: Mapping[str, str]
    adj0_preds: Mapping[str, str]
    adj1_rels: Mapping[str, str]


DEFAULT_SEMANTICS = LexiconSemantics(
    noun_types=MappingProxyType(
        {
            "REAL_NUMBER": LeanType.REAL,
            "INTEGER": LeanType.INT,
            "RATIONAL_NUMBER": LeanType.RAT,
        }
    ),
    noun2_ops=MappingProxyType(
        {"SUM": "+", "MINUS": "-", "PROD": "*", "DIV": "/", "EXP": "^"}
    ),
    adj0_preds=MappingProxyType(
        {
            "POSITIVE": "pos",
            "ODD": "odd",
            "EVEN": "even",
            "NONNEGATIVE": "nneg",
            "NEGATIVE": "neg",
        }
    ),
    adj1_rels=MappingProxyType(
        {
            "LESS_THAN": "<",
            "LESS_TE": "≤",
            "GREATER_THAN": ">",
            "GREATER_TE": "≥",
            "EQUAL_TO": "=",
            "NOT_EQUAL_TO": "≠",
        }
    ),
)


def _binder_name(notion: ftl.Notion) -> str:
    match notion.name:
        case ftl.Named(letter):
            return letter
        case ftl.Meta(ident):
            return f"x{ident}"
    raise UntranslatableNode(f"unnamed notion {notion!r}")


def translate_term(t: ftl.Term, semantics: LexiconSemantics = DEFAULT_SEMANTICS) -> LeanTerm:
    match t:
        case ftl.Var(name):
            return VarT(name)
        case ftl.MetaVar(ident):
            return VarT(f"x{ident}")
        case ftl.IntLit(value):
            return LitT(value)
        case ftl.BinApp(op, left, right):
            return ArithT(
                semantics.noun2_ops[op],
                translate_term(left, semantics),
                translate_term(right, semantics),
            )
        case ftl.Quantified():
            raise UntranslatableNode("in-situ quantified term (simplifier should have raised it)")
    raise TypeError(f"not a term: {t!r}")


def translate_predicate(
    subject: LeanTerm, p: ftl.Predicate, semantics: LexiconSemantics = DEFAULT_SEMANTICS
) -> LeanProp:
    match p:
        case ftl.IsAdj(polarity, adjective):
            prop: LeanProp = PredApp(semantics.adj0_preds[adjective], subject)
        case ftl.IsAdj1(polarity, adjective, term):
            prop = Rel(semantics.adj1_rels[adjective], subject, translate_term(term, semantics))
        case ftl.IsTerm(polarity, term):
            prop = Rel("=", subject, translate_term(term, semantics))
        case ftl.IsNotion():
            raise UntranslatableNode("notion predicate (simplifier should have split it)")
        case _:
            raise TypeError(f"not a predicate: {p!r}")
    return NotP(prop) if polarity is Polarity.NEG else prop


def _condition(notion: ftl.Notion, semantics: LexiconSemantics, memo) -> LeanProp | None:
    match notion.right_attribute:
        case None:
            pass
        case ftl.SuchThat(statement):
            return translate_statement(statement, semantics, memo)
        case _:
            raise UntranslatableNode("unflattened notion attribute")
    if notion.left_attribute is not None:
        raise UntranslatableNode("unflattened notion attribute")
    return None


def _quantified(qn: ftl.QuantifiedNotion, body: LeanProp, semantics, memo) -> LeanProp:
    """Ex-situ quantifier semantics: every C, P -> ∀ (C → P); some C, P ->
    ∃ (C ∧ P); no C, P -> ∀ (C → ¬P)."""
    notion = qn.notion
    name = _binder_name(notion)
    type_ = semantics.noun_types[notion.head]
    condition = _condition(notion, semantics, memo)
    match qn.quantifier:
        case Quantifier.EVERY:
            inner = Imp(condition, body) if condition is not None else body
            return Forall(name, type_, inner)
        case Quantifier.SOME:
            inner = AndP(condition, body) if condition is not None else body
            return Exists(name, type_, inner)
        case Quantifier.NO:
            negated = NotP(body)
            inner = Imp(condition, negated) if condition is not None else negated
            return Forall(name, type_, inner)
    raise TypeError(f"not a quantifier: {qn.quantifier!r}")


_CONNECTIVES = {ftl.And: AndP, ftl.Or: OrP, ftl.IfThen: Imp, ftl.Iff: IffP}


def translate_statement(
    s: ftl.Statement, semantics: LexiconSemantics = DEFAULT_SEMANTICS, memo: dict | None = None
) -> LeanProp:
    """``memo`` caches the result per node identity and holds each node it
    keys; share one only between calls with the same semantics."""
    if memo is not None:
        hit = memo.get(id(s))
        if hit is not None:
            return hit[1]
    match s:
        case ftl.And(l, r) | ftl.Or(l, r) | ftl.IfThen(l, r) | ftl.Iff(l, r):
            prop = _CONNECTIVES[type(s)](
                translate_statement(l, semantics, memo), translate_statement(r, semantics, memo)
            )
        case ftl.Not(body):
            prop = NotP(translate_statement(body, semantics, memo))
        case ftl.ForQuantified(qn, body):
            prop = _quantified(qn, translate_statement(body, semantics, memo), semantics, memo)
        case ftl.Does(subject, predicate):
            prop = translate_predicate(translate_term(subject, semantics), predicate, semantics)
        case ftl.ThereExists(notion) | ftl.ThereExistsNo(notion):
            condition = _condition(notion, semantics, memo)
            if condition is None:
                raise UntranslatableNode("existential without a condition has no Lean image")
            prop = Exists(_binder_name(notion), semantics.noun_types[notion.head], condition)
            if type(s) is ftl.ThereExistsNo:
                prop = NotP(prop)
        case _:
            raise TypeError(f"not a statement: {s!r}")
    if memo is not None:
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


def translate_text(
    nf: ftl.ForthelText,
    semantics: LexiconSemantics = DEFAULT_SEMANTICS,
    memo: dict | None = None,
) -> LeanCommand:
    """Map split assumptions to binders in order and the conclusion to the
    goal.  Hypothesis labels are provisional; normalize_names gives the
    deterministic h1, h2, ... numbering.

    ``memo`` is a cache handle: pass the same dict for every parse of one
    text, and a statement the parses share is translated once.  The result is
    equal with or without it."""
    statements = None if memo is None else memo.setdefault(translate_statement, {})
    labels = itertools.count(1)
    binders = []
    for assumption in nf.example.assumptions:
        typing = _bare_typing(assumption)
        if typing is not None:
            variable, head = typing
            binders.append(TypeBinder(variable, semantics.noun_types[head]))
        else:
            binders.append(
                HypBinder(
                    f"h{next(labels)}", translate_statement(assumption, semantics, statements)
                )
            )
    goal = translate_statement(nf.example.conclusion, semantics, statements)
    return LeanCommand(tuple(binders), goal)
