import __future__
import ast
import copy
import dataclasses
import importlib
import inspect
import operator
import os
import pickle
import subprocess
import sys
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace

import pytest

import forlean
from conftest import CORPUS, parse_source
from forlean import forthel, lean
from forlean.forthel import Meta, MetaVar, Named, Notion, Unnamed, Var
from forlean.lexicon import LexiconEntry
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
TuplePair = namedtuple("Pair", ["op", "left", "right"], defaults=[None])


@node
class Box:
    value: object


def test_setting_or_deleting_a_field_raises():
    pair = Pair("+", 1, 2)
    with pytest.raises(AttributeError):
        pair.left = 3
    with pytest.raises(AttributeError):
        pair.other = 3
    with pytest.raises(AttributeError):
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


def test_fields_keep_their_declared_order():
    assert list(Pair(right=2, left=1, op="+")._asdict()) == ["op", "left", "right"]
    assert list(Notion(right_attribute=None, name=Unnamed(), head="INTEGER")._asdict()) == [
        "head",
        "name",
        "left_attribute",
        "right_attribute",
    ]
    assert _IS_NODE[Pair]


def test_a_field_without_a_default_must_not_follow_one_with_a_default():
    class Misordered:
        op: str = "+"
        left: object

    with pytest.raises(TypeError):
        node(Misordered)


def test_behaves_as_its_named_tuple_twin():
    pairs, tuples = (Pair("+", 1, 2), Pair("+", 1)), (TuplePair("+", 1, 2), TuplePair("+", 1))
    assert [repr(p) for p in pairs] == [repr(p) for p in tuples]
    assert [hash(p) for p in pairs] == [hash(p) for p in tuples] == [hash(tuple(p)) for p in tuples]
    assert pairs[0] == Pair("+", 1, 2) and pairs[0] != pairs[1]
    assert pairs[0] != tuples[0] and pairs[0] != PlainPair("+", 1, 2)
    replaced = pairs[0]._replace(left=5)
    assert repr(replaced) == repr(tuples[0]._replace(left=5)) == "Pair(op='+', left=5, right=2)"
    assert dataclasses.replace(pairs[0], left=5) == replaced
    assert [(f.name, f.default) for f in dataclasses.fields(Pair)] == [
        (f.name, f.default) for f in dataclasses.fields(PlainPair)
    ]
    assert Pair.__match_args__ == TuplePair.__match_args__ == PlainPair.__match_args__
    assert Pair.__match_args__ == ("op", "left", "right")
    assert str(inspect.signature(Pair)) == str(inspect.signature(TuplePair)) == "(op, left, right=None)"
    for pair, twin in zip(pairs, tuples):
        assert repr(copy.copy(pair)) == repr(copy.deepcopy(pair)) == repr(copy.copy(twin))
        assert pickle.loads(pickle.dumps(pair)) == pair
    match pairs[0]:
        case Pair("+", left, right=2):
            assert left == 1
        case _:
            pytest.fail("no pattern matched")


def test_a_node_equals_only_an_equal_node_of_its_own_class():
    # tuple's own == would say True to each of these pairs
    for a, b in [(Unnamed(), ()), (Var("x"), ("x",)), (Meta(1), MetaVar(1)), (Pair("+", 1), ("+", 1, None))]:
        assert a != b and b != a and not a == b and not b == a, (a, b)
    assert Var("x") == Var("x") and not Var("x") != Var("x")


def test_nodes_are_unordered_and_true():
    for a, b in [(Var("a"), Var("b")), (Meta(1), MetaVar(2)), (Var("a"), ("b",)), (("b",), Var("a"))]:
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(a, b)
    assert bool(Unnamed()) is True and bool(Var("")) is True


def test_copy_and_pickle_rebuild_a_tree(corpus_cases):
    for case in corpus_cases[:10]:
        for trace in forlean.run_pipeline(case.input):
            for tree in (*trace.parses, *trace.normals, *trace.commands):
                for rebuilt in (copy.copy(tree), copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
                    assert rebuilt == tree and repr(rebuilt) == repr(tree), case.id


def test_a_node_hashes_as_the_tuple_of_its_fields(corpus_cases):
    for case in corpus_cases:
        for trace in forlean.run_pipeline(case.input):
            for n in iter_nodes((trace.parses, trace.normals, trace.commands)):
                assert hash(n) == hash(tuple(n._asdict().values())), case.id


def module_twins(module):
    """Each class of ``module`` declared with ``node``, with two twins
    declared from the same class body: a ``collections.namedtuple`` of its
    annotations and their defaults, keeping any docstring of the body, and
    a plain frozen dataclass."""
    triples = []
    for stmt in ast.parse(Path(module.__file__).read_text("utf-8")).body:
        if type(stmt) is ast.ClassDef and [ast.unparse(d) for d in stmt.decorator_list] == ["node"]:
            stmt.decorator_list = []
            flags = __future__.annotations.compiler_flag
            code = compile(ast.Module([stmt], []), module.__file__, "exec", flags=flags, dont_inherit=True)
            namespace = dict(vars(module))
            exec(code, namespace)
            declared = namespace[stmt.name]
            fields = declared.__annotations__
            defaults = [vars(declared)[field] for field in fields if field in vars(declared)]
            twin = namedtuple(stmt.name, fields, defaults=defaults, module=module.__name__)
            twin.__doc__ = declared.__doc__ or twin.__doc__
            triples.append((getattr(module, stmt.name), twin, dataclasses.dataclass(frozen=True)(declared)))
    return triples


def test_every_node_class_behaves_as_its_named_tuple_twin():
    triples = module_twins(forthel) + module_twins(lean)
    assert len(triples) == 42
    for cls, twin, plain in triples:
        name = cls.__name__
        assert cls.__doc__ == twin.__doc__, name
        assert str(inspect.signature(cls)) == str(inspect.signature(twin)), name
        assert cls.__match_args__ == twin.__match_args__ == plain.__match_args__, name
        fields = [(f.name, f.default) for f in dataclasses.fields(cls)]
        assert fields == [(f.name, f.default) for f in dataclasses.fields(plain)], name
        args = [f"{field}-{i}" for i, (field, _) in enumerate(fields)]
        required = [a for a, (_, default) in zip(args, fields) if default is dataclasses.MISSING]
        for values in (args, required):
            ours, theirs = cls(*values), twin(*values)
            assert repr(ours) == repr(theirs) and hash(ours) == hash(theirs), name
            assert ours == cls(*values) and not ours != cls(*values), name
            # a node equals no tuple of another class, however equal as tuples
            assert tuple(ours) == tuple(theirs) and ours.__eq__(theirs) is False, name
            assert ours.__eq__(plain(*values)) is plain(*values).__eq__(ours) is NotImplemented, name
            for copied in (copy.copy(ours), copy.deepcopy(ours), pickle.loads(pickle.dumps(ours))):
                assert type(copied) is cls and copied == ours, name
        ours, theirs = cls(*args), twin(*args)
        for field, _ in fields:
            assert ours != dataclasses.replace(ours, **{field: 0}), name
            assert dataclasses.replace(ours, **{field: 0}) == ours._replace(**{field: 0}), name
            assert repr(ours._replace(**{field: 0})) == repr(theirs._replace(**{field: 0})), name
        for field in [f for f, _ in fields] + ["other"]:
            errors = []
            for instance in (ours, theirs):
                with pytest.raises(AttributeError) as set_error:
                    setattr(instance, field, 0)
                with pytest.raises(AttributeError) as del_error:
                    delattr(instance, field)
                errors.append((str(set_error.value), str(del_error.value)))
            assert errors[0] == errors[1], name
        assert ours._asdict() == theirs._asdict(), name


# run in a fresh interpreter: the corpus first, and only then ``dataclasses``
# and the bench's node count, which reads nodes through ``fields``
FIELDS_ON_FIRST_READ = """
import sys
import forlean
from forlean.corpus import load_corpus
from forlean.forthel import Notion
from forlean.tree import iter_nodes

corpus, bench = sys.argv[1:]
traces = [t for case in load_corpus(corpus) for t in forlean.run_pipeline(case.input)]
loaded_first = "dataclasses" in sys.modules
import dataclasses
sys.path.insert(0, bench)
from spans import count_nodes

notion = next(n for n in iter_nodes(traces[0].parses) if type(n) is Notion)
print(repr({
    "loaded first": loaded_first,
    "is_dataclass": [dataclasses.is_dataclass(x) for x in (notion, Notion, traces[0])],
    "fields": [
        (f.name, "MISSING" if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(notion)
    ],
    "replaced": dataclasses.replace(notion, left_attribute="EVEN")
    == Notion(notion.head, notion.name, "EVEN", notion.right_attribute),
    "counts": [
        [(count_nodes(trees), len(list(iter_nodes(trees)))) for trees in stage]
        for stage in zip(*[(t.parses, t.normals, t.commands) for t in traces])
    ],
}))
"""


def test_a_node_records_its_dataclass_fields_when_first_read():
    root = Path(__file__).parent.parent
    done = subprocess.run(
        [sys.executable, "-c", FIELDS_ON_FIRST_READ, str(CORPUS), str(root / "bench")],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(Path(forlean.__file__).parent.parent)},
        encoding="utf-8",
        check=True,
    )
    found = ast.literal_eval(done.stdout)
    # count_nodes gives the bench's parsing, simplify and translate node rows
    counts = found.pop("counts")
    assert len(counts) == 3 and all(bench == ours for stage in counts for bench, ours in stage)
    assert all(sum(bench for bench, _ in stage) > 0 for stage in counts)
    assert found == {
        "loaded first": False,
        "is_dataclass": [True, True, False],
        "fields": [("head", "MISSING"), ("name", "MISSING"), ("left_attribute", None), ("right_attribute", None)],
        "replaced": True,
    }


def test_node_declares_every_node_class():
    for module in (forthel, lean):
        declared = [
            cls
            for cls in vars(module).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
        ]
        assert declared and all(_IS_NODE[cls] for cls in declared), module.__name__
    # a dataclass or named tuple not declared with ``node`` is a leaf
    for cls in (PipelineTrace, ParseResult, LexiconEntry, PlainPair, TuplePair):
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
    # with a memo, each result is recorded as its own, having drawn no id:
    # walking a result again calls ``fn`` on nothing, at any next id
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
    # a result drew no id, so it is reused at any other next id too
    supply.next_id = 7
    assert transform(result[0], number, memo, supply) is result[0]
    assert calls == [] and supply.next_id == 7


def test_a_walk_keeps_each_child_its_table_does_not_descend_into():
    # a child of a class the table marks false, or one its class's test
    # rejects, comes back as it is: no call of ``fn`` and no memo entry,
    # for it or for anything below it
    inner, kept, boxed = Pair("*", 1), Pair("-", 2), Box(Pair("/", 3))
    tree = (Pair("+", inner, kept), boxed)
    walks = _IS_NODE | {Box: False, Pair: lambda n: n.op != "-"}
    calls, memo, supply = [], {}, SimpleNamespace(next_id=1)

    def close(n):
        calls.append(n)
        return n._replace(right=0) if n.right is None else n

    result = transform(tree, close, memo, supply, walks)
    assert result == (Pair("+", Pair("*", 1, 0), kept), boxed)
    assert result[0].right is kept and result[1] is boxed
    assert [id(n) for n in calls] == [id(inner), id(result[0])]
    assert {id(kept), id(boxed), id(boxed.value)}.isdisjoint(memo)
    assert {id(tree), id(tree[0]), id(inner)} <= memo.keys()


def test_the_default_table_walks_every_node(corpus_cases):
    # without a table, or with ``_IS_NODE``, ``fn`` sees every node that
    # ``_IS_NODE`` calls one, children first, in field order
    def children_first(n):
        for child in n:
            if _IS_NODE[type(child)]:
                yield from children_first(child)
        if type(n) is not tuple:
            yield n

    for case in corpus_cases:
        for tree in parse_source(case.input).trees:
            for walks in ({}, {"walks": _IS_NODE}):
                calls = []
                assert transform(tree, lambda n: calls.append(n) or n, **walks) is tree
                assert [id(n) for n in calls] == [id(n) for n in children_first(tree)], case.id


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


def test_no_module_imports_a_private_standard_library_module():
    # a private module such as ``_collections`` may change in any release
    imports = []
    for source in sorted(Path(forlean.__file__).parent.glob("*.py")):
        for stmt in ast.walk(ast.parse(source.read_text("utf-8"))):
            if type(stmt) is ast.Import:
                imports += [(source.name, alias.name) for alias in stmt.names]
            elif type(stmt) is ast.ImportFrom and stmt.level == 0:
                imports.append((source.name, stmt.module))
    assert len(imports) > 10
    private = [
        (name, module)
        for name, module in imports
        if any(part.startswith("_") and not part.startswith("__") for part in module.split("."))
    ]
    assert private == []
