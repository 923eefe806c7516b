import __future__
import ast
import dataclasses
import importlib
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


def module_twins(module):
    """Each class of ``module`` declared with ``node``, paired with a plain
    frozen dataclass declared from the same class body."""
    pairs = []
    for stmt in ast.parse(Path(module.__file__).read_text("utf-8")).body:
        if type(stmt) is ast.ClassDef and [ast.unparse(d) for d in stmt.decorator_list] == ["node"]:
            stmt.decorator_list = []
            flags = __future__.annotations.compiler_flag
            code = compile(ast.Module([stmt], []), module.__file__, "exec", flags=flags, dont_inherit=True)
            namespace = dict(vars(module))
            exec(code, namespace)
            pairs.append((getattr(module, stmt.name), dataclasses.dataclass(frozen=True)(namespace[stmt.name])))
    return pairs


def test_every_node_class_behaves_as_its_frozen_dataclass_twin():
    pairs = module_twins(forthel) + module_twins(lean)
    assert len(pairs) == 42
    for cls, twin in pairs:
        name = cls.__name__
        assert cls.__doc__ == twin.__doc__, name
        assert str(inspect.signature(cls)) == str(inspect.signature(twin)), name
        assert cls.__match_args__ == twin.__match_args__, name
        fields = [(f.name, f.default) for f in dataclasses.fields(cls)]
        assert fields == [(f.name, f.default) for f in dataclasses.fields(twin)], name
        args = [f"{field}-{i}" for i, (field, _) in enumerate(fields)]
        required = [a for a, (_, default) in zip(args, fields) if default is dataclasses.MISSING]
        for values in (args, required):
            ours, theirs = cls(*values), twin(*values)
            assert repr(ours) == repr(theirs) and hash(ours) == hash(theirs), name
            assert ours == cls(*values) and not ours != cls(*values), name
            assert ours.__eq__(theirs) is theirs.__eq__(ours) is NotImplemented, name
        ours, theirs = cls(*args), twin(*args)
        for field, _ in fields:
            assert ours != dataclasses.replace(ours, **{field: 0}), name
            replaced = dataclasses.replace(ours, **{field: 0}), dataclasses.replace(theirs, **{field: 0})
            assert repr(replaced[0]) == repr(replaced[1]), name
        for field in [f for f, _ in fields] + ["other"]:
            errors = []
            for instance in (ours, theirs):
                with pytest.raises(dataclasses.FrozenInstanceError) as set_error:
                    setattr(instance, field, 0)
                with pytest.raises(dataclasses.FrozenInstanceError) as del_error:
                    delattr(instance, field)
                errors.append((str(set_error.value), str(del_error.value)))
            assert errors[0] == errors[1], name
        assert vars(ours) == vars(theirs), name


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


def test_no_module_dispatches_with_a_match_class_pattern():
    # a per-node function tests ``type(node) is C``; a ``match`` class
    # pattern is an ``isinstance`` test, tried case after case
    sources = sorted(Path(forlean.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    for source in sources:
        patterns = [n for n in ast.walk(ast.parse(source.read_text("utf-8"))) if type(n) is ast.MatchClass]
        assert patterns == [], source.name


def test_no_module_tests_a_node_class_with_isinstance():
    # ``isinstance`` walks the class's MRO where ``type(node) is C`` compares
    # one pointer; a node class has no subclasses, so both say the same
    checks = []
    for source in sorted(Path(forlean.__file__).parent.glob("*.py")):
        module = "forlean" if source.stem == "__init__" else f"forlean.{source.stem}"
        names = vars(importlib.import_module(module))
        for call in ast.walk(ast.parse(source.read_text("utf-8"))):
            if type(call) is ast.Call and type(call.func) is ast.Name and call.func.id == "isinstance":
                classes = [names.get(n.id) for n in ast.walk(call.args[1]) if type(n) is ast.Name]
                if any(type(cls) is type and _IS_NODE.get(cls) for cls in classes):
                    checks.append((source.name, ast.unparse(call)))
    assert checks == []
