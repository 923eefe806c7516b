"""The node toolkit shared by both tree families: the input language's
syntax trees (``forthel``) and the Lean expression trees (``lean``).

A tree is made of nodes and leaves.  A node is a tuple or an instance of a
class declared with ``node``; everything else (str, int, enums, None) is a
leaf.  A pass names only the node types it treats specially and leaves the
walk to what is here: ``transform`` rebuilds a tree bottom-up, ``iter_nodes``
visits it top-down, ``_IS_NODE`` tells a node from a leaf for code that walks
fields itself (a node iterates over its fields in field order), and
``once`` caches a function of a whole node per node identity.

``node`` declares a node class as a ``collections.namedtuple``: a tuple of
its fields, read through C accessors, with no instance dict.  Declaring one
loads no ``dataclasses``: the class records the fields of its declared body
on the first read of ``__dataclass_fields__``, so ``fields``, ``replace``
and ``is_dataclass`` stay the library's.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple

__all__ = ["iter_nodes", "node", "once", "transform"]


# whether a type is a node: tuple and each class declared with ``node``
_IS_NODE: defaultdict[type, bool] = defaultdict(bool, {tuple: True})
_new, _tuple_eq = tuple.__new__, tuple.__eq__


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _tuple_eq(self, other)
    return False if isinstance(other, tuple) else NotImplemented


def _unordered(self, other):
    raise TypeError(f"{type(self).__name__} nodes are not ordered")


# what ``node`` adds to each named tuple; hash stays tuple's
_ADDED = dict(
    __eq__=_eq, __ne__=object.__ne__, __lt__=_unordered, __le__=_unordered, __gt__=_unordered,
    __ge__=_unordered, __bool__=lambda self: True,
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


def node(cls: type) -> type:
    """The ``collections.namedtuple`` of ``cls``'s own annotations and their
    plain defaults, with ``cls``'s name, module and any docstring.  ``==``
    is tuple's between two nodes of one class, but a node equals no tuple of
    another class; ordering raises ``TypeError``, and a node is true, even
    with no fields.  The class is recorded in ``_IS_NODE``, and its
    ``__dataclass_fields__`` are the declared body's, made on first read.
    As in a dataclass, no field without a default may follow one with one."""
    fields = cls.__dict__.get("__annotations__", {})
    defaults = [cls.__dict__[name] for name in fields if name in cls.__dict__]
    named = namedtuple(cls.__name__, fields, defaults=defaults, module=cls.__module__)
    if list(named._field_defaults) != [name for name in fields if name in cls.__dict__]:
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    for name, value in {**_ADDED, "__dataclass_fields__": _LazyFields(cls)}.items():
        setattr(named, name, value)
    named.__doc__ = cls.__doc__ or named.__doc__
    _IS_NODE[named] = True
    return named


def transform(node, fn, memo: dict | None = None, supply=None, walks=_IS_NODE):
    """Rebuild ``node``, a tuple or a ``node`` instance, bottom-up: children
    first, in field order, then ``fn`` on the node ``tuple.__new__`` rebuilds
    from them.  Plain tuples are rebuilt alike and not passed to ``fn``.  Returns ``node``
    itself when no child changed and ``fn`` returned its argument.

    ``walks`` maps the class of a child to whether the walk enters it: True,
    False or a test of the child.  A child not entered is kept as it is, with
    no call of ``fn`` and no memo entry, so ``fn`` must return each node in it
    unchanged and draw no id there.  The default enters every node.

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
        walk = walks[type(child)]
        if walk is True or walk and walk(child):
            new = transform(child, fn, memo, supply, walks)
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
