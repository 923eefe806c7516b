"""Abstract syntax of the controlled input language, its one concrete
syntax ``GRAMMAR``, from which parsing.py generates the parser, and the
linearization back to surface text that reads ``GRAMMAR`` backwards.

Linearization is the display convention used by the stage-dump CLI flags:
metavariable names print as ``(x n)``, ex-situ quantified statements print as
``for every/some/no ..., ...``, and every sentence ends with ``.``.
"""

from __future__ import annotations

from enum import Enum
from typing import Union

from .lexicon import Category, default_lexicon
from .tree import _IS_NODE, node


class Quantifier(Enum):
    EVERY = "every"
    SOME = "some"
    NO = "no"


class Polarity(Enum):
    POS = "pos"
    NEG = "neg"


# --- name slots -------------------------------------------------------------


@node
class Named:
    letter: str


@node
class Meta:
    ident: int


@node
class Unnamed:
    pass


NameSlot = Union[Named, Meta, Unnamed]


# --- terms -------------------------------------------------------------------


@node
class Var:
    name: str


@node
class MetaVar:
    """Reference to a generated name, the term-level counterpart of Meta."""

    ident: int


@node
class IntLit:
    value: int


@node
class BinApp:
    op: str  # rawNoun2 key
    left: "Term"
    right: "Term"


@node
class Quantified:
    """In-situ quantified term; removed by the simplifier."""

    qnotion: "QuantifiedNotion"


Term = Union[Var, MetaVar, IntLit, BinApp, Quantified]


# --- notions and predicates ---------------------------------------------------


@node
class IsAdj:
    polarity: Polarity
    adjective: str  # rawAdjective0 key


@node
class IsAdj1:
    polarity: Polarity
    adjective: str  # rawAdjective1 key
    term: Term


@node
class IsNotion:
    polarity: Polarity
    notion: "Notion"


@node
class IsTerm:
    polarity: Polarity
    term: Term


Predicate = Union[IsAdj, IsAdj1, IsNotion, IsTerm]


@node
class IsPred:
    predicate: Predicate


@node
class SuchThat:
    statement: "Statement"


RightAttribute = Union[IsPred, SuchThat]


@node
class Notion:
    head: str  # rawNoun0 key
    name: NameSlot
    left_attribute: str | None = None  # rawAdjective0 key, at most one
    right_attribute: RightAttribute | None = None


@node
class QuantifiedNotion:
    quantifier: Quantifier
    notion: Notion


# --- statements ---------------------------------------------------------------


@node
class And:
    left: "Statement"
    right: "Statement"


@node
class Or:
    left: "Statement"
    right: "Statement"


@node
class IfThen:
    antecedent: "Statement"
    consequent: "Statement"


@node
class Iff:
    left: "Statement"
    right: "Statement"


@node
class Not:
    body: "Statement"


@node
class ForQuantified:
    qnotion: QuantifiedNotion
    body: "Statement"


@node
class Does:
    subject: Term
    predicate: Predicate


@node
class ThereExists:
    notion: Notion


@node
class ThereExistsNo:
    notion: Notion


Statement = Union[
    And, Or, IfThen, Iff, Not, ForQuantified, Does, ThereExists, ThereExistsNo
]


@node
class Example:
    assumptions: tuple[Statement, ...]
    conclusion: Statement


@node
class ForthelText:
    example: Example


# --- concrete syntax ------------------------------------------------------------


class Index:
    """Source of the N in a generated name "(x N)": an integer literal >= 0,
    whose absence the parser does not report."""


ARTICLE = "[a|an]"

# The concrete syntax, from which parsing.py generates the parser and which
# ``linearize_forthel`` reads backwards, as one GF concrete syntax gives both
# (Ranta, "Grammatical Framework", JFP 2004).  A category lists its rules in
# parse order.  A rule is (head, elements); its head is a node class, a tuple
# of classes each holding the next as its one field, ``tuple`` for
# ``(first, *rest)``, None for a pass-through of its one field (named None),
# or else a constant.  An element is keywords or a (field, source) pair.
# Keywords are words separated by spaces, "a|b" for either word and "[a|b]"
# if optional; each prints its first form, and "[a|an]" the article the next
# word takes.  A source is a category: one of these or of ``OPERATOR_LEVELS``,
# ``definite_term`` (code in parsing.py) or a lexicon category, giving the
# entry's key, and "[c]" if optional (None when absent); or ``int``, an
# integer literal; ``Index``; or an Enum whose values are words.
GRAMMAR = {
    "text": [
        ((ForthelText, Example), ["ex .", ("assumptions", "assumption_list"), "[then]",
                                  ("conclusion", "statement"), "."]),
    ],
    "assumption_list": [
        ((), []),
        (tuple, ["assume", ("first", "statement"), ".", ("rest", "assumption_list")]),
    ],
    "statement": [
        (IfThen, ["if", ("antecedent", "statement"), "then", ("consequent", "statement")]),
        (None, [(None, "connective")]),
    ],
    "atom_statement": [
        (Not, ["it's not that", ("body", "statement")]),
        (ForQuantified, ["for", ("qnotion", "quantified_notion"), ",", ("body", "statement")]),
        (ThereExistsNo, ["there exists|exist", "no", ("notion", "notion")]),
        (ThereExists, ["there exists|exist", ARTICLE, ("notion", "notion")]),
        (Does, [("subject", "term"), ("predicate", "does_predicate")]),
    ],
    "polarity": [(Polarity.POS, []), (Polarity.NEG, ["not"])],
    "does_predicate": [
        (IsAdj, ["is|are", ("polarity", "polarity"), ("adjective", "rawAdjective0")]),
        (IsAdj1, ["is|are", ("polarity", "polarity"), ("adjective", "rawAdjective1"), ("term", "term")]),
        (IsNotion, ["is|are", ("polarity", "polarity"), ARTICLE, ("notion", "notion")]),
        (IsTerm, ["is|are", ("polarity", "polarity"), ("term", "definite_term")]),
    ],
    "notion": [
        (Notion, [("left_attribute", "[rawAdjective0]"), ("head", "rawNoun0"),
                  ("name", "name_slot"), ("right_attribute", "[right_attribute]")]),
    ],
    "name_slot": [
        (Unnamed(), []),
        (Named, [("letter", "variable")]),
        (Meta, ["(", "x", ("ident", Index), ")"]),
    ],
    # an adjective after the noun is bare; any other predicate takes "that"
    "right_attribute": [
        ((IsPred, IsAdj), [("polarity", "polarity"), ("adjective", "rawAdjective0")]),
        ((IsPred, IsAdj1), [("polarity", "polarity"), ("adjective", "rawAdjective1"), ("term", "term")]),
        (IsPred, ["that", ("predicate", "does_predicate")]),
        (SuchThat, ["such that", ("statement", "statement")]),
    ],
    "quantified_notion": [(QuantifiedNotion, [("quantifier", Quantifier), ("notion", "notion")])],
    "atom_term": [
        (IntLit, [("value", int)]),
        (Var, [("name", "variable")]),
        (MetaVar, ["(", "x", ("ident", Index), ")"]),
        (None, ["(", (None, "term"), ")"]),
        (Quantified, [("qnotion", "quantified_notion")]),
    ],
}

_LEXICON = default_lexicon()
_OPERATORS = _LEXICON.entries(Category.RAW_NOUN2)

# The operator categories, which the parser and ``linearize_forthel`` both
# read, as GF's ``Formal.gf`` declares ``infixl`` and ``infixr``: category:
# (atoms, "infixl" or "infixr", levels loosest first).  A level maps each
# separator to the head of the node it builds: the node's class and the values
# of its fields before the last two, which are the operands.
OPERATOR_LEVELS = {
    # the statement connectives below "if ... then"
    "connective": ("atom_statement", "infixr",
                   ({"iff": (Iff,)}, {"or": (Or,)}, {",": (And,)}, {"and": (And,)})),
    # the lexicon's operators grouped by its precedence column, where a higher
    # precedence binds tighter
    "term": ("atom_term", "infixl", tuple(
        {symbol: (BinApp, e.key) for e in _OPERATORS if e.precedence == level for (symbol,) in e.surface}
        for level in sorted({e.precedence for e in _OPERATORS})
    )),
}


# --- linearization ------------------------------------------------------------

# the first surface form of each entry, {key: surface} per category
_SURFACE = {c.value: {e.key: " ".join(e.surface[0]) for e in _LEXICON.entries(c)} for c in Category}
_RULES = [rule for rules in GRAMMAR.values() for rule in rules]
# {class: {fields before the operands: (slack, brackets, places)}}.  The slack
# is 0 on the side the category associates to and 1 on the other; brackets
# are the atoms' rule that holds a whole phrase, such as "(" term ")", if any;
# places are the (level, separator) pairs building the node, tightest first.
_PLACES: dict[type, dict] = {}
for _category, (_atoms, _associativity, _levels) in OPERATOR_LEVELS.items():
    _slack = (0, 1) if _associativity == "infixl" else (1, 0)
    _brackets = next((rule for _, rule in GRAMMAR[_atoms] if (None, _category) in rule), None)
    for _level in reversed(range(len(_levels))):
        for _separator, (_cls, *_fixed) in _levels[_level].items():
            _operator = _PLACES.setdefault(_cls, {}).setdefault(tuple(_fixed), (_slack, _brackets, []))
            _operator[2].append((_level, _separator))


def linearize_forthel(node) -> str:
    """Deterministic surface string for any node of the source syntax, by
    the first rule that builds it or holds it; a notion takes its article."""
    return _join([ARTICLE, _lin(node)[0]]) if type(node) is Notion else _lin(node)[0]


def _lin(value) -> tuple[str, float]:
    # the text and its level, as GF's ``TermPrec``: infinite unless an operator
    if (operators := _PLACES.get(type(value))) is not None:
        # an operand prints bare if its level is at least the operator's plus
        # its slack, else in brackets if it can.  The operator takes the
        # tightest of its places where the left operand prints bare, which
        # leaves the right one the most room, or else its tightest.
        *fixed, left, right = value
        slack, brackets, places = operators[tuple(fixed)]
        (left, left_level), (right, right_level) = _lin(left), _lin(right)
        level, separator = next((p for p in places if left_level >= p[0] + slack[0]), places[0])
        if brackets and left_level < level + slack[0]:
            left = _join([left if type(e) is tuple else e for e in brackets])
        if brackets and right_level < level + slack[1]:
            right = _join([right if type(e) is tuple else e for e in brackets])
        return _join([left, separator, right]), level
    for head, elements in _RULES:
        if (fields := _fields(head, value)) is not None:
            # a loop, not a comprehension: one Python frame per tree level
            pieces = []
            for element in elements:
                piece = _piece(element, fields)
                pieces.append(piece if type(piece) is str else _lin(piece)[0])
            return _join(pieces), float("inf")
    raise TypeError(f"no rule prints {value!r}")


def _fields(head, value) -> dict | None:
    # the fields from which the rule with ``head`` builds ``value``, or a node
    # its head holds; None if it builds neither
    if head is tuple:
        return {"first": value[0], "rest": value[1:]} if type(value) is tuple and value else None
    classes = head if type(head) is tuple else (head,)
    if type(value) not in classes:  # a constant, or another node
        return {} if head is not None and value == head else None
    for cls in classes[classes.index(type(value)) + 1 :]:
        (value,) = value
        if type(value) is not cls:
            return None
    return dict(zip(value.__match_args__, value))


def _piece(element, fields: dict):
    # the text of ``element``, or the child node that ``_lin`` prints for it
    if type(element) is str:  # keywords, printed in their first forms
        return element if element == ARTICLE else " ".join(
            word.strip("[]").split("|")[0] for word in element.split()
        )
    name, source = element
    child = fields[name]
    if child is None or type(source) is not str:
        return "" if child is None else child.value if isinstance(child, Enum) else str(child)
    source = source.strip("[]")
    return _SURFACE[source][child] if source in _SURFACE else child


def _join(pieces: list) -> str:
    # words separated by spaces: empty pieces drop out, ",", "." and ")"
    # attach to the word on their left and "(" to the word on its right
    out, glue = [], True
    for i, piece in enumerate(pieces):
        if piece == ARTICLE:
            piece = "an" if pieces[i + 1][:1] in "aeiou" else "a"
        if piece:
            out.append(piece if glue or piece in (",", ".", ")") else f" {piece}")
            glue = piece == "("
    return "".join(out)


def to_debug_tree(node):
    """JSON-compatible tree dump: constructor name plus children, in field
    order."""
    if type(node) is tuple:
        return [to_debug_tree(item) for item in node]
    if _IS_NODE[type(node)]:
        # a loop: before Python 3.12 a comprehension costs a second frame
        tree = {"node": type(node).__name__}
        for name, child in zip(node.__match_args__, node):
            tree[name] = to_debug_tree(child)
        return tree
    if isinstance(node, Enum):
        return node.value
    return node
