"""The node toolkit shared by both tree families: the input language's
syntax trees (``forthel``) and the Lean expression trees (``lean``).

A tree is made of nodes and leaves.  A node is a tuple or an instance of a
class declared with ``node``; everything else (str, int, enums, None) is a
leaf.  A pass names only the node types it treats specially and leaves the
walk to what is here: ``transform`` rebuilds a tree bottom-up, ``iter_nodes``
visits it top-down, ``_IS_NODE`` tells a node from a leaf for code that walks
fields itself (a node iterates over its fields in field order), and
``once`` caches a function of a whole node per node identity.

``node`` declares a node class as ``collections.namedtuple`` does: a tuple
of its fields, read through C accessors, with no instance dict; otherwise a
frozen dataclass.  Declaring one loads no ``dataclasses``: the class records
the fields of its declared body on the first read of ``__dataclass_fields__``,
so ``fields``, ``replace`` and ``is_dataclass`` stay the library's.
"""

from __future__ import annotations

from _collections import _tuplegetter
from collections import defaultdict
from types import MappingProxyType

__all__ = ["iter_nodes", "node", "once", "transform"]


# whether a type is a node: tuple and each class declared with ``node``
_IS_NODE: defaultdict[type, bool] = defaultdict(bool, {tuple: True})
# the code of each source ``node`` generates, compiled once; each class runs a
# copy, since classes sharing one code object would share its inline caches
_COMPILED: dict[str, object] = {}
_new, _tuple_eq = tuple.__new__, tuple.__eq__


def _frozen(self, name, *value):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _tuple_eq(self, other)
    return False if isinstance(other, tuple) else NotImplemented


def _unordered(self, other):
    raise TypeError(f"{type(self).__name__} nodes are not ordered")


# what every node class has; its own are __new__, __repr__ and its fields' accessors
_SHARED = dict(
    __slots__=(), __eq__=_eq, __ne__=object.__ne__, __hash__=tuple.__hash__, __lt__=_unordered,
    __le__=_unordered, __gt__=_unordered, __ge__=_unordered, __bool__=lambda self: True,
    __setattr__=_frozen, __delattr__=_frozen, __reduce__=lambda self: (self.__class__, tuple(self)),
    __dict__=property(lambda self: MappingProxyType(dict(zip(self.__match_args__, self)))),
    _replace=lambda self, **changes: type(self)(**{**dict(zip(self.__match_args__, self)), **changes}),
)


class _LazyFields:
    """A node class's ``__dataclass_fields__`` until first read: the read
    runs ``dataclass`` on the declared body and puts its fields in its place."""

    def __init__(self, declared: type):
        self.declared = declared

    def __get__(self, instance, owner):
        from dataclasses import dataclass

        owner.__dataclass_fields__ = dataclass(init=False, repr=False, eq=False)(self.declared).__dataclass_fields__
        return owner.__dataclass_fields__


def _shown(a) -> str:
    """A class or string annotation as ``inspect.formatannotation`` shows it."""
    if not isinstance(a, type):
        return repr(a)
    return a.__qualname__ if a.__module__ == "builtins" else f"{a.__module__}.{a.__qualname__}"


def node(cls: type) -> type:
    """``dataclass(frozen=True)`` as a tuple subclass: one generated source,
    run once, defines ``__new__`` with the dataclass ``__init__``'s signature
    and the dataclass's ``__repr__``.  Hash and ``==`` are tuple's, but a node
    equals no tuple of another class; ordering raises ``TypeError``, setting
    or deleting an attribute ``FrozenInstanceError``.  A node is true,
    ``vars(node)`` is a read-only view of its fields, ``node._replace(**kw)``
    a copy with fields changed, as a named tuple's, and ``copy`` and
    ``pickle`` rebuild it from its fields.  The fields are the class's own
    annotations, with plain defaults or none, in ``__match_args__``; an
    undocumented class is named by its signature."""
    fields = cls.__dict__.get("__annotations__", {})
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    params = ", ".join(["cls", *(f"{n}=_{n}" if n in defaults else n for n in fields)])
    shown = ", ".join(f"{n}={{self[{i}]!r}}" for i, n in enumerate(fields))
    lines = [f"def __new__({params}):", f"    return _new(cls, ({''.join(f'{n}, ' for n in fields)}))"]
    lines += ["def __repr__(self):", f'    return self.__class__.__qualname__ + f"({shown})"']
    source = "\n".join(lines)
    if source not in _COMPILED:
        _COMPILED[source] = compile(source, "<node>", "exec")
    namespace = {"_new": _new, **{f"_{name}": value for name, value in defaults.items()}}
    exec(_COMPILED[source], namespace)
    body = {k: v for k, v in cls.__dict__.items() if k not in fields and k not in ("__dict__", "__weakref__")}
    for name in ("__new__", "__repr__"):
        fn = body[name] = namespace[name]
        fn.__code__, fn.__qualname__ = fn.__code__.replace(), f"{cls.__qualname__}.{name}"
    body["__new__"].__annotations__ = {**fields, "return": None}
    body.update({name: _tuplegetter(i, f"Alias for field number {i}") for i, name in enumerate(fields)})
    body.update(_SHARED, __qualname__=cls.__qualname__, __match_args__=tuple(fields))
    body["__dataclass_fields__"] = _LazyFields(cls)
    if not cls.__doc__:
        params = [f"{n}: {_shown(a)}" for n, a in fields.items()]
        params = [f"{p} = {defaults[n]!r}" if n in defaults else p for p, n in zip(params, fields)]
        body["__doc__"] = f"{cls.__name__}({', '.join(params)})"
    cls = type(cls.__name__, (tuple,), body)
    _IS_NODE[cls] = True
    return cls


def transform(node, fn, memo: dict | None = None, supply=None):
    """Rebuild ``node``, a tuple or a ``node`` instance, bottom-up: children
    first, in field order, then ``fn`` on the node ``tuple.__new__`` rebuilds
    from them.  Plain tuples are rebuilt alike and not passed to ``fn``.  Returns ``node``
    itself when no child changed and ``fn`` returned its argument.

    ``memo`` caches results for an ``fn`` that draws fresh ids from ``supply``:
    ``memo[id(node)]`` is ``(node, result, first_id, last_id)``, the next ids
    the visit began and ended at.  A walk that meets ``node`` again reuses
    ``result`` at ``first_id``, restoring ``last_id``, or at any next id if
    the visit drew none.  Share one only between calls with the same pure
    ``fn``, which must return each of its own results unchanged: a result is
    recorded as its own, drawing no id.  The memo holds each node it keys,
    so an id cannot be reused while it lives.
    """
    if memo is not None:
        first_id = supply.next_id
        hit = memo.get(id(node))
        if hit is not None and hit[2] in (first_id, hit[3]):
            supply.next_id = hit[3] if hit[2] == first_id else first_id
            return hit[1]
    rebuilt = None
    # a loop, not a comprehension: one Python frame per tree level
    for i, child in enumerate(node):
        if _IS_NODE[type(child)]:
            new = transform(child, fn, memo, supply)
            if new is not child:
                if rebuilt is None:
                    rebuilt = list(node)
                rebuilt[i] = new
    result = node if rebuilt is None else _new(type(node), rebuilt)
    if type(node) is not tuple:
        result = fn(result)
    if memo is not None:
        last_id = supply.next_id
        memo[id(node)] = (node, result, first_id, last_id)
        if result is not node:
            memo[id(result)] = (result, result, last_id, last_id)
    return result


def iter_nodes(node):
    """Every node reachable from ``node``, a tuple or a ``node`` instance,
    through fields and tuples but the tuples themselves, that is every
    instance of a class declared with ``node``: parents before children,
    children in field order; a node reachable twice is yielded twice."""
    stack = [node]
    while stack:
        n = stack.pop()
        if type(n) is not tuple:
            yield n
        for child in reversed(n):
            if _IS_NODE[type(child)]:
                stack.append(child)


def once(memo: dict, fn, node, *args):
    """``fn(node, *args)``, cached per ``node`` identity in ``memo[fn]``,
    which holds each node it keys."""
    table = memo.setdefault(fn, {})
    hit = table.get(id(node))
    if hit is None:
        hit = table[id(node)] = (node, fn(node, *args))
    return hit[1]
