"""Spans around the calls into forlean's public functions, recorded from
outside the program, and the generic IR size walk.

`Tracer.installed` replaces, for the duration of a ``with`` block, the
names that ``forlean.pipeline`` calls (``preprocess``, ``tokenize``,
``split_texts``, ``parse_text``, ``simplify``, ``translate_text``,
``print_command``) and the ``match`` method of the default lexicon instance
with wrappers that record a span each.  Outside the block forlean runs
untouched, so untraced timings carry no tracing cost.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    """Keeps every span in memory, in the order the spans were opened, as a
    tuple ``(name, start_ns, end_ns, parent, text_id, size)``: ``parent`` is
    the index of the enclosing span or -1, ``size`` the length of a list
    result (tokens, lexicon matches) or -1."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.text_id = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open

        def traced(*args):
            index = len(spans)
            parent = open_[-1] if open_ else -1
            spans.append(None)
            open_.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args)
            except BaseException:
                spans[index] = (name, start, perf_counter_ns(), parent, self.text_id, -1)
                open_.pop()
                raise
            end = perf_counter_ns()
            open_.pop()
            size = len(result) if type(result) is list else -1
            spans[index] = (name, start, end, parent, self.text_id, size)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap each ``(owner, attribute, span name)`` target while inside."""
        saved = []
        try:
            for owner, attribute, name in targets:
                saved.append((owner, attribute, vars(owner).get(attribute)))
                setattr(owner, attribute, self.wrap(name, getattr(owner, attribute)))
            yield
        finally:
            for owner, attribute, original in reversed(saved):
                if original is None:  # an instance attribute shadowing a method
                    delattr(owner, attribute)
                else:
                    setattr(owner, attribute, original)


def stage_targets():
    """The public stage calls ``run_pipeline`` makes, in the order
    ``pipeline._run_one`` makes them, plus ``Lexicon.match`` on the
    default lexicon, which runs inside ``parse_text``."""
    from forlean import lexicon, pipeline

    return [
        (pipeline, "preprocess", "lexicon.preprocess"),
        (pipeline, "tokenize", "lexicon.tokenize"),
        (pipeline, "split_texts", "pipeline.split_texts"),
        (pipeline, "parse_text", "parsing.parse_text"),
        (pipeline, "simplify", "simplify.simplify"),
        (pipeline, "translate_text", "translate.translate_text"),
        (pipeline, "print_command", "lean.print_command"),
        (lexicon.default_lexicon(), "match", "lexicon.match"),
    ]


def wrapper_cost_ns(calls: int = 20000, trials: int = 5) -> float:
    """Nanoseconds one traced call adds to the span around it: a wrapped
    no-op minus a plain one, each the best of ``trials`` timings.  Spans are
    corrected by it as cProfile corrects for its own cost."""
    probe = Tracer()

    def nothing():
        return None

    wrapped = probe.wrap("probe", nothing)
    best = {}
    for fn in (nothing, wrapped) * trials:
        probe.spans.clear()
        start = perf_counter_ns()
        for _ in range(calls):
            fn()
        best[fn] = min(best.get(fn, float("inf")), perf_counter_ns() - start)
    return max(0.0, (best[wrapped] - best[nothing]) / calls)


def span_times(spans: list[tuple], cost_ns: float = 0.0) -> list[tuple[float, float]]:
    """(duration, self time) of each span in nanoseconds, less ``cost_ns``
    for each traced call nested in it.  The self time is the duration minus
    the time the span's children cover."""
    duration = [end - start for _, start, end, *_ in spans]
    own = list(duration)
    nested = [0] * len(spans)
    children = [0] * len(spans)
    # children are opened after their parents, so walk backwards
    for i in range(len(spans) - 1, -1, -1):
        parent = spans[i][3]
        if parent >= 0:
            own[parent] -= duration[i]
            nested[parent] += 1 + nested[i]
            children[parent] += 1
    return [
        (duration[i] - cost_ns * nested[i], own[i] - cost_ns * children[i])
        for i in range(len(spans))
    ]


def count_nodes(root) -> int:
    """Dataclass instances reachable from ``root`` through dataclass fields
    and tuples: the size of any of forlean's trees."""
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        if dataclasses.is_dataclass(node):
            count += 1
            stack.extend(getattr(node, f.name) for f in dataclasses.fields(node))
        elif isinstance(node, (tuple, list)):
            stack.extend(node)
    return count
