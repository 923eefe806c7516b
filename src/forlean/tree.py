"""The node toolkit shared by both tree families: the input language's
syntax trees (``forthel``) and the Lean expression trees (``lean``).

A tree is made of nodes and leaves.  A node is a tuple or an instance of a
class declared with ``node``; everything else (str, int, enums, None) is a
leaf.  A pass names only the node types it treats specially and leaves the
walk to what is here: ``transform`` rebuilds a tree bottom-up, ``iter_nodes``
visits it top-down, ``_IS_NODE`` tells a node from a leaf for code that walks
fields itself (``vars(node)`` gives a node's fields in field order), and
``once`` caches a function of a whole node per node identity.

``node`` declares a node class: a frozen dataclass whose methods come from a
source generated for it, with an ``__init__`` that writes the fields straight
into ``__dict__`` in field order, so ``cls(*vars(n).values())`` rebuilds a
node ``n``; ``fields``, ``replace`` and ``is_dataclass`` stay the library's.
"""

from __future__ import annotations

import dataclasses
import inspect
from collections import defaultdict

__all__ = ["iter_nodes", "node", "once", "transform"]


# whether a type is a node: tuple and each class declared with ``node``
_IS_NODE: defaultdict[type, bool] = defaultdict(bool, {tuple: True})
# the code of each source ``node`` generates, compiled once; each class runs a
# copy, since classes sharing one code object would share its inline caches
_COMPILED: dict[str, object] = {}


def _frozen_setattr(self, name, value):
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


def node(cls: type) -> type:
    """``dataclass(frozen=True)``, cheaper: one generated source, run once,
    defines ``__init__`` of the same signature and the dataclass's
    ``__repr__``, ``__eq__`` and ``__hash__`` on the tuple of the fields.
    Setting or deleting an attribute raises ``FrozenInstanceError``, and an
    undocumented class is named by its signature.  The fields are the class's
    own annotations, with plain defaults or none; ``dataclass`` records them."""
    fields = inspect.get_annotations(cls)
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    params = ", ".join(["self", *(f"{n}=_{n}" if n in defaults else n for n in fields)])
    own, other = ("".join(f"{obj}.{n}," for n in fields) for obj in ("self", "other"))
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in fields)
    lines = [f"def __init__({params}):", "    __d = self.__dict__"]
    lines += [f"    __d[{name!r}] = {name}" for name in fields]
    lines += ["def __repr__(self):", f'    return self.__class__.__qualname__ + f"({shown})"']
    lines += ["def __eq__(self, other):", "    if other.__class__ is self.__class__:"]
    lines += [f"        return ({own}) == ({other})", "    return NotImplemented"]
    lines += ["def __hash__(self):", f"    return hash(({own}))"]
    source = "\n".join(lines)
    if source not in _COMPILED:
        _COMPILED[source] = compile(source, "<node>", "exec")
    namespace = {f"_{name}": value for name, value in defaults.items()}
    exec(_COMPILED[source], namespace)
    for name in ("__init__", "__repr__", "__eq__", "__hash__"):
        fn = namespace[name]
        fn.__code__, fn.__qualname__ = fn.__code__.replace(), f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    cls.__init__.__annotations__ = {**fields, "return": None}
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    if not cls.__doc__:
        params = [f"{n}: {inspect.formatannotation(a)}" for n, a in fields.items()]
        params = [f"{p} = {defaults[n]!r}" if n in defaults else p for p, n in zip(params, fields)]
        cls.__doc__ = f"{cls.__name__}({', '.join(params)})"
    _IS_NODE[cls] = True
    return dataclasses.dataclass(init=False, repr=False, eq=False)(cls)


def transform(node, fn, memo: dict | None = None, supply=None):
    """Rebuild ``node``, a tuple or a ``node`` instance, bottom-up: children
    first, in field order, then ``fn`` on the node rebuilt from them.  Tuples
    are rebuilt item by item and not passed to ``fn``.  Returns ``node``
    itself when no child changed and ``fn`` returned its argument.

    ``memo`` caches results for an ``fn`` that draws fresh ids from
    ``supply``, so a subtree's result depends on ``supply.next_id`` too: the
    memo keys on ``(id(node), supply.next_id)``, and a hit restores the
    ``next_id`` that the first visit left.  Share one only between calls
    with the same pure ``fn``, which must return each of its own results
    unchanged: a result is recorded as its own too, at the ``next_id`` the
    walk leaves, so a walk that meets it again there stops.  The memo holds
    each node it keys, so an id cannot be reused while it lives.
    """
    if memo is not None:
        key = (id(node), supply.next_id)
        hit = memo.get(key)
        if hit is not None:
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
        next_id = supply.next_id
        memo[key] = (node, result, next_id)
        if result is not node:
            memo[id(result), next_id] = (result, result, next_id)
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
