import ast
import dataclasses
import inspect
from pathlib import Path
from types import SimpleNamespace

import pytest

import forlean
from forlean import forthel, lean
from forlean.forthel import Named, Notion, Unnamed
from forlean.lexicon import LexiconEntry, Token
from forlean.parsing import ParseResult
from forlean.pipeline import PipelineTrace
from forlean.tree import _IS_NODE, iter_nodes, node, transform


def twins():
    """One class body declared twice: with ``tree.node`` and as a plain
    frozen dataclass."""

    def declare():
        class Pair:
            op: str
            left: object
            right: object = None

        return Pair

    return node(declare()), dataclasses.dataclass(frozen=True)(declare())


Pair, PlainPair = twins()


def test_setting_or_deleting_a_field_raises():
    pair = Pair("+", 1, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.left = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.other = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        del pair.left
    assert pair.left == 1


def test_defaults_and_keywords():
    notion = Notion("INTEGER", Unnamed())
    assert (notion.left_attribute, notion.right_attribute) == (None, None)
    assert Notion("INTEGER", Named("x"), "ODD") == Notion(
        name=Named("x"), left_attribute="ODD", head="INTEGER"
    )
    with pytest.raises(TypeError):
        Notion("INTEGER")
    assert Unnamed() == Unnamed()


def test_vars_keep_field_order():
    assert list(vars(Pair(right=2, left=1, op="+"))) == ["op", "left", "right"]
    assert list(vars(Notion(right_attribute=None, name=Unnamed(), head="INTEGER"))) == [
        "head",
        "name",
        "left_attribute",
        "right_attribute",
    ]
    assert _IS_NODE[Pair]


def test_behaves_as_a_plain_frozen_dataclass():
    pairs, plain = (Pair("+", 1, 2), Pair("+", 1)), (PlainPair("+", 1, 2), PlainPair("+", 1))
    assert [repr(p) for p in pairs] == [repr(p) for p in plain]
    assert [hash(p) for p in pairs] == [hash(p) for p in plain]
    assert pairs[0] == Pair("+", 1, 2) and pairs[0] != pairs[1] and pairs[0] != plain[0]
    assert repr(dataclasses.replace(pairs[0], left=5)) == repr(dataclasses.replace(plain[0], left=5))
    assert [(f.name, f.default) for f in dataclasses.fields(Pair)] == [
        (f.name, f.default) for f in dataclasses.fields(PlainPair)
    ]
    assert Pair.__match_args__ == PlainPair.__match_args__ == ("op", "left", "right")
    assert str(inspect.signature(Pair)) == str(inspect.signature(PlainPair))
    assert Pair.__doc__ == PlainPair.__doc__ == "Pair(op: str, left: object, right: object = None)"
    match pairs[0]:
        case Pair("+", left, right=2):
            assert left == 1
        case _:
            pytest.fail("no pattern matched")


def test_node_declares_every_node_class():
    for module in (forthel, lean):
        declared = [
            cls
            for cls in vars(module).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
        ]
        assert declared and all(_IS_NODE[cls] for cls in declared), module.__name__
    # a dataclass or named tuple not declared with ``node`` is a leaf
    for cls in (PipelineTrace, ParseResult, Token, LexiconEntry, PlainPair):
        assert not _IS_NODE[cls], cls.__name__


def test_a_plain_dataclass_is_a_leaf_of_the_walks():
    inner = Pair("*", 1, 2)
    plain = PlainPair("+", inner)
    tree = (Pair("-", 1), plain)
    rebuilt = transform(tree, lambda n: dataclasses.replace(n, right=0))
    assert type(rebuilt) is tuple and rebuilt[0] == Pair("-", 1, 0)
    assert rebuilt[1] is plain and plain.left is inner
    assert list(iter_nodes(tree)) == [tree[0]]


def test_a_memo_stops_a_walk_at_each_result():
    # with a memo, each result is recorded as its own at the next id the walk
    # left: walking a result again there calls ``fn`` on nothing
    supply = SimpleNamespace(next_id=1)
    calls = []

    def number(n):
        calls.append(n)
        if n.right is None:
            supply.next_id += 1
            return Pair(n.op, n.left, supply.next_id - 1)
        return n

    memo: dict = {}
    result = transform((Pair("+", Pair("*", 1)), Pair("-", 2, 3)), number, memo, supply)
    assert result == (Pair("+", Pair("*", 1, 1), 2), Pair("-", 2, 3)) and supply.next_id == 3
    calls.clear()
    assert transform(result, number, memo, supply) is result
    assert transform(result[0], number, memo, supply) is result[0]
    supply.next_id = 2  # as the walk left it after numbering the inner pair
    assert transform(result[0].left, number, memo, supply) is result[0].left
    assert calls == [] and supply.next_id == 2
    # at another next id a result is walked again, and comes back unchanged
    supply.next_id = 7
    assert transform(result[0], number, memo, supply) is result[0]
    assert calls == [result[0].left, result[0]] and supply.next_id == 7
    # without a supply the memo keys on node identity alone
    memo.clear()
    calls.clear()
    doubled = transform(Pair("*", 1, 2), lambda n: calls.append(n) or Pair(n.op, n.left, n.right * 2), memo)
    assert transform(doubled, None, memo) is doubled and len(calls) == 1


def test_no_module_dispatches_with_a_match_class_pattern():
    # a per-node function tests ``type(node) is C``; a ``match`` class
    # pattern is an ``isinstance`` test, tried case after case
    sources = sorted(Path(forlean.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    for source in sources:
        patterns = [n for n in ast.walk(ast.parse(source.read_text("utf-8"))) if type(n) is ast.MatchClass]
        assert patterns == [], source.name
