"""Tree normalization between parsing and translation.

One ``tree.transform`` per parse names each unnamed notion and rewrites each
node: variable unification and quantifier raising at a ``Does`` clause,
attribute flattening at a ``Notion``.  No clause both unifies and raises, and
renaming a metavariable commutes with flattening.  A rewrite can expose
another (flattening can expose an in-situ quantifier, raising a clause that
still has to unify), so a node is rewritten to a local fixpoint: the node a
rewrite builds is walked again.  ``transform`` records each result as one
that draws no fresh id, so that walk stops at each normal subtree.
Assumption splitting runs last.  Per-node functions test ``type(node) is
C``, most frequent class first, and no module uses a ``match`` class
pattern: that is an ``isinstance`` test, tried case after case.

``simplify`` takes the ids a text reserves, the N of each ``(x N)`` token
group (``reserved_ids``), and draws its fresh ids around them: a word holds
letters only, so no user-written name is ``x<n>``.  It caches its work in a
memo that ``run_pipeline`` shares among the parses of a text, so each
subtree they share is done once: a node's result is cached per node
identity with the next fresh ids its visit began and ended at, and a
shared assumptions tuple is split once.  Nothing about names goes into the
memo: a node belongs to one text, whose tokens fix the reserved ids.  A call
leaves no reference cycle, so reference counting frees its memo once
``run_pipeline`` drops it.
"""

from __future__ import annotations

from functools import partial

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
from .lexicon import Token
from .tree import once, transform

__all__ = ["NameSupply", "reserved_ids", "simplify", "typed_notion"]


# --- names ---------------------------------------------------------------------


class NameSupply:
    """Source of fresh metavariable ids, skipping the ids a text reserves."""

    def __init__(self, reserved: frozenset[int], next_id: int = 1):
        self.reserved, self.next_id = reserved, next_id

    def fresh(self) -> int:
        while self.next_id in self.reserved:
            self.next_id += 1
        ident = self.next_id
        self.next_id += 1
        return ident


def reserved_ids(tokens: list[Token]) -> frozenset[int]:
    """The N of every ``( x N )`` group in ``tokens``: the ids of the
    generated names a text writes itself."""
    return frozenset(
        n.value
        for o, x, n, c in zip(tokens, tokens[1:], tokens[2:], tokens[3:])
        if x.text == "x" and o.text == "(" and c.text == ")" and n.value is not None
    )


def _name_ref(notion: Notion) -> Term:
    name = notion.name
    if type(name) is Named:
        return Var(name.letter)
    if type(name) is Meta:
        return MetaVar(name.ident)
    raise ValueError(f"notion {notion!r} has no name")


# --- variable unification -------------------------------------------------------


def _unify_one(n):
    """In "v is a <notion named (x n)>", rename the metavariable to v,
    including every reference to it inside the notion's condition."""
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


def _raise_does(does):
    """Turn the in-situ quantified terms of a clause into leading ex-situ
    quantifiers: the subject first, then those inside the predicate, left to
    right; earlier raisings scope over later ones."""
    if type(does) is not Does:
        return does
    subject, predicate = does.subject, does.predicate
    found = _raise_first(subject)
    if found is not None:
        subject = found[1]
    elif type(predicate) in (IsAdj1, IsTerm):
        found = _raise_first(predicate.term)
        if found is not None:
            predicate = predicate._replace(term=found[1])
    if found is None:
        return does
    return ForQuantified(found[0].qnotion, _raise_does(Does(subject, predicate)))


def _raise_first(t: Term) -> tuple[Quantified, Term] | None:
    """The first quantified term in ``t``, left to right, and ``t`` with it
    replaced by a reference to the name it binds; None if there is none."""
    cls = type(t)
    if cls is Quantified:
        return t, _name_ref(t.qnotion.notion)
    if cls is BinApp:
        found = _raise_first(t.left)
        if found is not None:
            return found[0], BinApp(t.op, found[1], t.right)
        found = _raise_first(t.right)
        if found is not None:
            return found[0], BinApp(t.op, t.left, found[1])
    return None


# --- attribute flattening ---------------------------------------------------------


def _flatten_one(n):
    """Rewrite a notion's left adjective and an adjectival right attribute as
    a single such-that condition; conjunct order is left attribute first."""
    if type(n) is not Notion:
        return n
    if n.left_attribute is None and type(n.right_attribute) is not IsPred:
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


def _split_all(assumptions: tuple[Statement, ...]) -> tuple[Statement, ...]:
    """Split conjunctive assumptions, and "v is a <notion such that S>" into
    the bare typing assumption followed by the conjuncts of S."""
    return tuple(piece for assumption in assumptions for piece in _split_one(assumption))


def _split_one(stmt: Statement) -> list[Statement]:
    if type(stmt) is And:
        return _split_one(stmt.left) + _split_one(stmt.right)
    n = typed_notion(stmt)
    if n is not None and n.left_attribute is None and type(n.right_attribute) is SuchThat:
        bare = Does(stmt.subject, IsNotion(Polarity.POS, Notion(n.head, n.name)))
        return [bare, *_split_one(n.right_attribute.statement)]
    return [stmt]


def typed_notion(stmt: Statement) -> Notion | None:
    """The notion of "v is a <notion named v>", else None."""
    if type(stmt) is Does and type(stmt.subject) is Var and type(stmt.predicate) is IsNotion:
        notion = stmt.predicate.notion
        if stmt.predicate.polarity is Polarity.POS and notion.name == Named(stmt.subject.name):
            return notion
    return None


# --- the composed pass ----------------------------------------------------------------


def simplify(text: ForthelText, reserved: frozenset[int], memo: dict | None = None) -> ForthelText:
    """Full normalization; the result satisfies the normal-form invariants.

    One walk names each unnamed notion with a fresh id not in ``reserved``
    (``reserved_ids`` of the text's tokens) and rewrites each clause and
    notion to a local fixpoint; ``transform`` records each result as drawing
    no fresh id, so a re-walk stops at it.
    ``memo`` is a cache handle: pass the same dict for every parse of one
    text, and a subtree or an assumptions tuple the parses share is
    normalized once.
    """
    memo = {} if memo is None else memo
    supply = NameSupply(reserved)
    normal = memo.setdefault(simplify, {})
    example = transform(text, partial(_normalize, normal, supply), normal, supply).example
    assumptions = once(memo, _split_all, example.assumptions)
    return ForthelText(Example(assumptions, example.conclusion))


def _normalize(normal: dict, supply: NameSupply, n):
    # bound per call with ``partial``: a nested function passing itself to
    # ``transform`` is a cycle through its closure, freed only by the collector
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
        return transform(rewritten, partial(_normalize, normal, supply), normal, supply)
    return n
