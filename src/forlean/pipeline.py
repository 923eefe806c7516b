"""End-to-end driver: preprocess, tokenize, parse, simplify, translate and
print, keeping per-stage snapshots for the CLI dump flags.

A source string may hold several ``ex.``-delimited texts; each is processed
independently and failures in one text do not abort the others.
"""

from __future__ import annotations

import gc
from typing import NamedTuple

from .forthel import ForthelText
from .lean import DuplicateBinderName, LeanCommand, print_command
from .lexicon import TokenError, preprocess, token_spans, tokenize
from .parsing import Diagnostic, parse_text
from .simplify import reserved_ids, simplify
from .translate import UntranslatableNode, translate_text

__all__ = ["PipelineTrace", "run_pipeline", "split_texts"]


class PipelineTrace(NamedTuple):
    """Stage snapshots for one text; parses, normals and commands are
    index-aligned, printed is deduplicated preserving order.  A text has
    printed lines exactly when it has no diagnostic."""

    parses: tuple[ForthelText, ...] = ()
    normals: tuple[ForthelText, ...] = ()
    commands: tuple[LeanCommand, ...] = ()
    printed: tuple[str, ...] = ()
    diagnostics: tuple[Diagnostic, ...] = ()


def split_texts(tokens: list[str]) -> list[tuple[int, list[str]]]:
    """Split a token stream on "ex." at sentence starts: each text with the index of its first token."""
    # token i is texts[i + 1], between texts[i] and texts[i + 2]: a sentence
    # starts after a period or at the first token
    texts = [".", *tokens, None]
    starts = [i for i, text in enumerate(texts, -1) if text == "ex" and texts[i] == texts[i + 2] == "."]
    bounds = sorted({0, *starts, len(tokens)})
    return [(a, tokens[a:b]) for a, b in zip(bounds, bounds[1:])]


def _run_one(start: int, tokens: list[str], first_parse_only: bool) -> PipelineTrace:
    parses: tuple[ForthelText, ...] = ()
    normals: tuple[ForthelText, ...] = ()
    commands: tuple[LeanCommand, ...] = ()
    # a failure after parsing belongs to the whole text: it spans all its tokens
    at = (0, len(tokens))
    try:
        result = parse_text(tokens)
        if result.trees:
            parses = result.trees[:1] if first_parse_only else result.trees
            # the parses share subtrees: one memo for the text lets each stage
            # work once per shared subtree.  Each stage is called once per
            # parse, with positional arguments only, as the bench's spans expect
            memo: dict = {}
            reserved = reserved_ids(tokens)
            normals = tuple(simplify(tree, reserved, memo) for tree in parses)
            commands = tuple(translate_text(normal, memo) for normal in normals)
            printed = tuple(dict.fromkeys(print_command(command, memo) for command in commands))
            return PipelineTrace(parses, normals, commands, printed)
        ((at, message),) = result.diagnostics
    except RecursionError:
        message = "input nested too deeply"
    except UntranslatableNode as err:
        message = f"untranslatable: {err}"
    except DuplicateBinderName as err:
        message = f"duplicate binder name: {err}"
    # a token range of the source, which run_pipeline turns into bytes
    return PipelineTrace(parses, normals, commands, diagnostics=(((start + at[0], start + at[1]), message),))


def run_pipeline(source: str, *, first_parse_only: bool = False) -> list[PipelineTrace]:
    """Process every text in ``source``; one trace per text.  What a call
    builds holds no reference cycle, so the cyclic collector is paused for
    the call: a thread that turns it off during another thread's call finds
    it on again when that call ends."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        tokens = tokenize(text := preprocess(source))
    except TokenError as err:
        return [PipelineTrace(diagnostics=((err.span, str(err)),))]
    else:
        traces = [_run_one(start, segment, first_parse_only) for start, segment in split_texts(tokens)]
        spans = iter(token_spans(text, [at for trace in traces for at, _ in trace.diagnostics]))
        return [
            trace._replace(diagnostics=tuple((next(spans), m) for _, m in trace.diagnostics))
            if trace.diagnostics else trace
            for trace in traces
        ]
    finally:
        if enabled:
            gc.enable()
