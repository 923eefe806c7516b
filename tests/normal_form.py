"""The simplifier's normal form, checked from outside: the oracle the
simplify, property and acceptance tests hold ``simplify``'s output to."""

from forlean.forthel import And, ForthelText, IsPred, Notion, Quantified, Unnamed
from forlean.simplify import _split_one
from forlean.tree import iter_nodes


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
