"""The node toolkit shared by both tree families: the input language's
syntax trees (``forthel``) and the Lean expression trees (``lean``).

A tree is made of nodes and leaves.  A node is a tuple or an instance of a
class declared with ``node``; everything else (str, int, enums, None) is a
leaf.  A pass names only the node types it treats specially and leaves the
walk to what is here: ``transform`` rebuilds a tree bottom-up, ``iter_nodes``
visits it top-down, ``_IS_NODE`` tells a node from a leaf for code that walks
fields itself (``vars(node)`` gives a node's fields in field order), and
``once`` caches a function of a whole node per node identity.

``node`` declares a node class: a frozen dataclass whose ``__init__`` writes
the fields straight into the instance ``__dict__``, in field order, instead
of through ``object.__setattr__`` per field as a frozen dataclass's does, so
``cls(*vars(n).values())`` rebuilds a node ``n``.
"""

from __future__ import annotations

import dataclasses
import inspect
from collections import defaultdict

__all__ = ["iter_nodes", "node", "once", "transform"]


# whether a type is a node: tuple and each class declared with ``node``
_IS_NODE: defaultdict[type, bool] = defaultdict(bool, {tuple: True})


def node(cls: type) -> type:
    """``dataclass(frozen=True)`` with a cheaper ``__init__`` of the same
    signature: assigning a field still raises ``FrozenInstanceError``, and
    ``==``, ``hash``, ``repr``, ``replace``, ``fields`` and
    ``__match_args__`` are the dataclass's own.  The fields are the class's
    own annotations, each with a plain default or none."""
    # the __init__ comes first, so that dataclass names an undocumented class
    # by its signature; a default is a global of it, as in dataclasses
    fields = inspect.get_annotations(cls)
    defaults = {f"_{name}": cls.__dict__[name] for name in fields if name in cls.__dict__}
    params = ", ".join(["self", *(f"{n}=_{n}" if f"_{n}" in defaults else n for n in fields)])
    lines = [f"def __init__({params}):", "    __d = self.__dict__"]
    lines += [f"    __d[{name!r}] = {name}" for name in fields]
    exec("\n".join(lines), defaults)
    init = defaults["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**fields, "return": None}
    cls.__init__ = init
    _IS_NODE[cls] = True
    return dataclasses.dataclass(frozen=True, init=False)(cls)


def transform(node, fn, memo: dict | None = None, supply=None):
    """Rebuild ``node``, a tuple or a ``node`` instance, bottom-up: children
    first, in field order, then ``fn`` on the node rebuilt from them.  Tuples
    are rebuilt item by item and not passed to ``fn``.  Returns ``node``
    itself when no child changed and ``fn`` returned its argument.

    ``memo`` caches the result per node identity; share one only between
    calls with the same pure ``fn``, which must return each of its own
    results unchanged: a result is recorded as its own too, so a walk that
    meets it again stops there.  The memo holds each node it keys, so an id
    cannot be reused while it lives.  When ``fn`` draws fresh ids from
    ``supply``, a subtree's result also depends on ``supply.next_id``: the
    memo then keys on the pair, a result on the ``next_id`` the walk leaves,
    and a hit restores the ``next_id`` that the first visit left.
    """
    if memo is not None:
        key = id(node) if supply is None else (id(node), supply.next_id)
        hit = memo.get(key)
        if hit is not None:
            if supply is not None:
                supply.next_id = hit[2]
            return hit[1]
    cls = type(node)
    children = node if cls is tuple else node.__dict__.values()
    rebuilt = None
    # a loop, not a comprehension: one Python frame per tree level
    for i, child in enumerate(children):
        if _IS_NODE[type(child)]:
            new = transform(child, fn, memo, supply)
            if new is not child:
                if rebuilt is None:
                    rebuilt = list(children)
                rebuilt[i] = new
    if cls is tuple:
        result = node if rebuilt is None else tuple(rebuilt)
    else:
        result = fn(node if rebuilt is None else cls(*rebuilt))
    if memo is not None:
        next_id = None if supply is None else supply.next_id
        memo[key] = (node, result, next_id)
        if result is not node:
            memo[id(result) if supply is None else (id(result), next_id)] = (result, result, next_id)
    return result


def iter_nodes(node):
    """Every node reachable from ``node``, a tuple or a ``node`` instance,
    through fields and tuples but the tuples themselves, that is every
    instance of a class declared with ``node``: parents before children,
    children in field order; a node reachable twice is yielded twice."""
    stack = [node]
    while stack:
        n = stack.pop()
        if type(n) is tuple:
            children = n
        else:
            yield n
            children = n.__dict__.values()
        for child in reversed(children):
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
