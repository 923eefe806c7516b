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
from .lexicon import Token, TokenError, preprocess, tokenize
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


def split_texts(tokens: list[Token]) -> list[list[Token]]:
    """Split a token stream on the text delimiter "ex." at sentence starts."""
    # token i's text is texts[i + 1], between texts[i] and texts[i + 2]: a
    # sentence starts after a period or at the first token
    texts = [".", *[t.text for t in tokens], None]
    starts = [i for i, text in enumerate(texts, -1) if text == "ex" and texts[i] == texts[i + 2] == "."]
    bounds = sorted({0, *starts, len(tokens)})
    return [tokens[a:b] for a, b in zip(bounds, bounds[1:])]


def _run_one(tokens: list[Token], first_parse_only: bool) -> PipelineTrace:
    parses: tuple[ForthelText, ...] = ()
    normals: tuple[ForthelText, ...] = ()
    commands: tuple[LeanCommand, ...] = ()
    try:
        result = parse_text(tokens)
        if not result.trees:
            return PipelineTrace(diagnostics=result.diagnostics)
        parses = result.trees[:1] if first_parse_only else result.trees
        # the parses share subtrees, and one memo for the text lets each stage
        # work once per shared subtree.  Each stage is called once per parse
        # with positional arguments only, as the bench's stage spans expect
        memo: dict = {}
        reserved = reserved_ids(tokens)
        normals = tuple(simplify(tree, reserved, memo) for tree in parses)
        commands = tuple(translate_text(normal, memo) for normal in normals)
        printed = tuple(dict.fromkeys(print_command(command, memo) for command in commands))
    except RecursionError:
        message = "input nested too deeply"
    except UntranslatableNode as err:
        message = f"untranslatable: {err}"
    except DuplicateBinderName as err:
        message = f"duplicate binder name: {err}"
    else:
        return PipelineTrace(parses, normals, commands, printed)
    # these failures belong to the whole text: span all of its tokens
    span = (tokens[0].span[0], tokens[-1].span[1])
    return PipelineTrace(parses, normals, commands, diagnostics=((span, message),))


def run_pipeline(source: str, *, first_parse_only: bool = False) -> list[PipelineTrace]:
    """Process every text in ``source``; one trace per text.  What a call
    builds holds no reference cycle, so the cyclic collector is paused for
    the call: a thread that turns it off during another thread's call finds
    it on again when that call ends."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        tokens = tokenize(preprocess(source))
    except TokenError as err:
        return [PipelineTrace(diagnostics=((err.span, str(err)),))]
    else:
        return [_run_one(segment, first_parse_only) for segment in split_texts(tokens)]
    finally:
        if enabled:
            gc.enable()
