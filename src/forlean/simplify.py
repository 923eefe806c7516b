"""Tree normalization between parsing and translation.

One ``tree.transform`` per parse names each unnamed notion and rewrites each
node: variable unification and quantifier raising at a ``Does`` clause,
attribute flattening at a ``Notion``.  No clause both unifies and raises, and
renaming a metavariable commutes with flattening.  A rewrite can expose
another (flattening can expose an in-situ quantifier, raising a clause that
still has to unify), so a node is rewritten to a local fixpoint: the node a
rewrite builds is walked again.  That walk stops at a subtree recorded as
normal at the current next fresh id; one recorded before an id was drawn is
walked again and, holding no unnamed notion, comes back unchanged.
Assumption splitting runs last.  Per-node functions test ``type(node) is
C``, most frequent class first: a ``match`` class pattern is an
``isinstance`` test, tried case after case.

``simplify`` caches its work in a memo that ``run_pipeline`` shares among
the parses of a text, so each subtree they share is done once: the names in
use are collected from the first parse (every parse holds the same generated
names, each read from a ``(x N)`` token group), a node's result is cached per
node identity and next fresh id, and a shared assumptions tuple is split once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .forthel import (
    And,
    BinApp,
    Does,
    Example,
    ForQuantified,
    ForthelText,
    IsAdj,
    IsAdj1,
    IsNotion,
    IsPred,
    IsTerm,
    Meta,
    MetaVar,
    Named,
    Notion,
    Polarity,
    Quantified,
    Statement,
    SuchThat,
    Term,
    Unnamed,
    Var,
)
from .tree import iter_nodes, once, transform

__all__ = [
    "NameSupply",
    "assign_names",
    "flatten_attributes",
    "is_normal_form",
    "normal_form_violations",
    "raise_quantifiers",
    "simplify",
    "split_assumptions",
    "unify_variables",
]


# --- names ---------------------------------------------------------------------


@dataclass
class NameSupply:
    """Source of fresh metavariable ids, avoiding every name already in use."""

    used_names: frozenset[str] = frozenset()
    next_id: int = 1

    def fresh(self) -> int:
        while f"x{self.next_id}" in self.used_names:
            self.next_id += 1
        ident = self.next_id
        self.next_id += 1
        return ident

    @classmethod
    def for_text(cls, text: ForthelText) -> "NameSupply":
        return cls(used_names=frozenset(_names_in(text)))


def _names_in(node) -> set[str]:
    names: set[str] = set()
    for n in iter_nodes(node):
        cls = type(n)
        if cls is Var:
            names.add(n.name)
        elif cls is Named:
            names.add(n.letter)
        elif cls is Meta or cls is MetaVar:
            names.add(f"x{n.ident}")
    return names


def _name_ref(notion: Notion) -> Term:
    name = notion.name
    if type(name) is Named:
        return Var(name.letter)
    if type(name) is Meta:
        return MetaVar(name.ident)
    raise ValueError(f"notion {notion!r} has no name")


# --- fresh names --------------------------------------------------------------


def assign_names(text: ForthelText, supply: NameSupply) -> ForthelText:
    """Replace every unnamed notion slot by a fresh metavariable name, in
    field order."""
    return transform(text, lambda n: Meta(supply.fresh()) if type(n) is Unnamed else n)


# --- variable unification -------------------------------------------------------


def unify_variables(text: ForthelText) -> ForthelText:
    """In "v is a <notion named (x n)>", rename the metavariable to v,
    including every reference to it inside the notion's condition."""
    return transform(text, _unify_one)


def _unify_one(n):
    if type(n) is Does and type(n.subject) is Var and type(n.predicate) is IsNotion:
        notion = n.predicate.notion
        if type(notion.name) is Meta:
            renamed = _substitute_meta(notion, notion.name.ident, n.subject.name)
            return Does(n.subject, IsNotion(n.predicate.polarity, renamed))
    return n


def _substitute_meta(node, ident: int, letter: str):
    def substitute(n):
        cls = type(n)
        if cls is Meta and n.ident == ident:
            return Named(letter)
        if cls is MetaVar and n.ident == ident:
            return Var(letter)
        return n

    return transform(node, substitute)


# --- quantifier raising ----------------------------------------------------------


def raise_quantifiers(stmt: Statement) -> Statement:
    """Turn in-situ quantified terms into leading ex-situ quantifiers.

    In each clause the subject is raised first, then quantified terms inside
    the predicate, left to right; earlier raisings scope over later ones.
    """
    return transform(stmt, _raise_does)


def _raise_does(does):
    if type(does) is not Does:
        return does
    subject, predicate = does.subject, does.predicate
    found = _find_quantified(subject)
    if found is not None:
        subject = _replace_first(subject, found, _name_ref(found.qnotion.notion))
    elif type(predicate) in (IsAdj1, IsTerm):
        found = _find_quantified(predicate.term)
        if found is not None:
            ref = _name_ref(found.qnotion.notion)
            predicate = replace(predicate, term=_replace_first(predicate.term, found, ref))
    if found is None:
        return does
    return ForQuantified(found.qnotion, _raise_does(Does(subject, predicate)))


def _find_quantified(t: Term) -> Quantified | None:
    cls = type(t)
    if cls is BinApp:
        return _find_quantified(t.left) or _find_quantified(t.right)
    if cls is Quantified:
        return t
    return None


def _replace_first(t: Term, target: Quantified, ref: Term) -> Term:
    if t is target:
        return ref
    if type(t) is BinApp:
        left = _replace_first(t.left, target, ref)
        if left is not t.left:
            return BinApp(t.op, left, t.right)
        right = _replace_first(t.right, target, ref)
        if right is not t.right:
            return BinApp(t.op, t.left, right)
    return t


# --- attribute flattening ---------------------------------------------------------


def flatten_attributes(node):
    """In every notion of ``node``, rewrite the left adjective and an
    adjectival right attribute as a single such-that condition; conjunct
    order is left attribute first."""
    return transform(node, _flatten_one)


def _flatten_one(n):
    if type(n) is not Notion:
        return n
    if n.left_attribute is None and not isinstance(n.right_attribute, IsPred):
        return n
    subject = _name_ref(n)
    conjuncts: list[Statement] = []
    if n.left_attribute is not None:
        conjuncts.append(Does(subject, IsAdj(Polarity.POS, n.left_attribute)))
    attribute = n.right_attribute
    if type(attribute) is IsPred:
        conjuncts.append(Does(subject, attribute.predicate))
    elif type(attribute) is SuchThat:
        conjuncts.append(attribute.statement)
    return Notion(n.head, n.name, None, SuchThat(_conjoin(conjuncts)))


def _conjoin(conjuncts: list[Statement]) -> Statement:
    if len(conjuncts) == 1:
        return conjuncts[0]
    return And(conjuncts[0], _conjoin(conjuncts[1:]))


# --- assumption splitting -----------------------------------------------------------


def split_assumptions(ex: Example) -> Example:
    """Split conjunctive assumptions, and "v is a <notion such that S>" into
    the bare typing assumption followed by the conjuncts of S."""
    return Example(_split_all(ex.assumptions), ex.conclusion)


def _split_all(assumptions: tuple[Statement, ...]) -> tuple[Statement, ...]:
    return tuple(piece for assumption in assumptions for piece in _split_one(assumption))


def _split_one(stmt: Statement) -> list[Statement]:
    match stmt:
        case And(left, right):
            return _split_one(left) + _split_one(right)
        case Does(Var(v), IsNotion(Polarity.POS, n)) if (
            n.name == Named(v)
            and n.left_attribute is None
            and isinstance(n.right_attribute, SuchThat)
        ):
            bare = Does(Var(v), IsNotion(Polarity.POS, Notion(n.head, n.name)))
            return [bare, *_split_one(n.right_attribute.statement)]
    return [stmt]


# --- the composed pass ----------------------------------------------------------------


def simplify(text: ForthelText, memo: dict | None = None) -> ForthelText:
    """Full normalization; the result satisfies the normal-form invariants.

    One walk names each unnamed notion and rewrites each clause and notion
    to a local fixpoint; each is recorded as normal with the next fresh id,
    so a re-walk at that id stops there.
    ``memo`` is a cache handle: pass the same dict for every parse of one
    text, and a subtree or an assumptions tuple the parses share is
    normalized once.
    """
    memo = {} if memo is None else memo
    if NameSupply not in memo:
        memo[NameSupply] = NameSupply.for_text(text).used_names
    supply = NameSupply(memo[NameSupply])
    normal = memo.setdefault(simplify, {})

    def normalize(n):
        cls = type(n)
        if cls is Does:
            # a unified clause has nothing to raise
            rewritten = _raise_does(_unify_one(n))
        elif cls is Notion:
            rewritten = _flatten_one(n)
        elif cls is Unnamed:
            return Meta(supply.fresh())
        else:
            return n
        if rewritten is not n:
            return transform(rewritten, normalize, normal, supply)
        normal[id(n), supply.next_id] = (n, n, supply.next_id)
        return n

    example = transform(text, normalize, normal, supply).example
    assumptions = once(memo, _split_all, example.assumptions)
    return ForthelText(Example(assumptions, example.conclusion))


# --- normal-form checking ----------------------------------------------------------------


def normal_form_violations(text: ForthelText) -> tuple[str, ...]:
    """Why ``text`` is not in simplifier normal form; empty when it is."""
    problems: list[str] = []
    for node in iter_nodes(text):
        match node:
            case Unnamed():
                problems.append("unnamed notion")
            case Quantified():
                problems.append("in-situ quantified term")
            case Notion(_, _, left, right):
                if left is not None:
                    problems.append(f"left attribute {left}")
                if isinstance(right, IsPred):
                    problems.append("adjectival right attribute")
    for assumption in text.example.assumptions:
        if isinstance(assumption, And):
            problems.append("conjunctive assumption")
        elif _split_one(assumption) != [assumption]:
            problems.append("unsplit typing assumption")
    return tuple(problems)


def is_normal_form(text: ForthelText) -> bool:
    return not normal_form_violations(text)
