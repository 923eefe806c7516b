"""The node toolkit shared by both tree families: the input language's
syntax trees (``forthel``) and the Lean expression trees (``lean``).

A tree is made of nodes and leaves.  Nodes are tuples and dataclass
instances; everything else (str, int, enums, None) is a leaf.  A pass names
only the node types it treats specially and leaves the walk to what is here:
``transform`` rebuilds a tree bottom-up, ``iter_nodes`` visits it top-down,
``_IS_NODE`` tells a node from a leaf for code that walks fields itself
(``vars(node)`` gives a node's fields in field order), and ``once`` caches a
function of a whole node per node identity.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .simplify import NameSupply

__all__ = ["iter_nodes", "once", "transform"]


class _NodeTypes(dict):
    """Whether a type is a tree node, decided once per type.  Nodes are
    tuples and dataclass instances whose ``__dict__`` holds exactly their
    fields, in field order, so that ``cls(*vars(node).values())`` rebuilds
    them; str, int, enums and None are leaves."""

    def __missing__(self, cls: type) -> bool:
        is_node = cls is tuple or dataclasses.is_dataclass(cls)
        if is_node and cls is not tuple:
            if hasattr(cls, "__slots__") or any(
                not f.init or f.kw_only for f in dataclasses.fields(cls)
            ):
                raise TypeError(f"cannot rebuild {cls.__name__} from its instance dict")
        self[cls] = is_node
        return is_node


_IS_NODE = _NodeTypes()


def transform(node, fn, memo: dict | None = None, supply: "NameSupply | None" = None):
    """Rebuild ``node`` bottom-up: children first, in field order, then ``fn``
    on the node rebuilt from them.  Tuples are rebuilt item by item and not
    passed to ``fn``.  Returns ``node`` itself when no child changed and
    ``fn`` returned its argument.

    ``memo`` caches the result per node identity; share one only between
    calls with the same pure ``fn``.  It holds each node it keys, so an id
    cannot be reused while the memo lives.  When ``fn`` draws fresh ids from
    ``supply``, a subtree's result also depends on ``supply.next_id``: the
    memo then keys on the pair, and a hit restores the ``next_id`` that the
    first visit left.
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
        memo[key] = (node, result, None if supply is None else supply.next_id)
    return result


def iter_nodes(node):
    """Every dataclass node reachable from ``node`` through fields and
    tuples, parents before children, children in field order; a node
    reachable twice is yielded twice."""
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


def once(memo: dict | None, fn, node, *args):
    """``fn(node, *args)``, cached per ``node`` identity in ``memo[fn]``,
    which holds each node it keys; with ``memo`` None, a plain call."""
    if memo is None:
        return fn(node, *args)
    table = memo.setdefault(fn, {})
    hit = table.get(id(node))
    if hit is None:
        hit = table[id(node)] = (node, fn(node, *args))
    return hit[1]
