"""Command line interface.

``forlean translate [FILE|-]`` prints one Lean command per line to stdout;
stage dumps are available behind flags.  ``forlean corpus CORPUS_FILE`` runs
the regression harness.  Exit codes: 0 success, 1 any text or case failed,
2 usage, file or encoding errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .forthel import linearize_forthel, to_debug_tree
from .pipeline import PipelineTrace, run_pipeline

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forlean",
        description="Translate controlled mathematical English into Lean theorem statements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    translate = sub.add_parser("translate", help="translate texts from a file or stdin")
    translate.add_argument("file", nargs="?", default="-", help="input file, or - for stdin")
    translate.add_argument(
        "--first-parse",
        action="store_true",
        help="carry only the first parse of an ambiguous text through the pipeline",
    )
    translate.add_argument("--show-ast", action="store_true", help="dump parse trees")
    translate.add_argument(
        "--show-simplified", action="store_true", help="show the simplified texts"
    )
    translate.add_argument(
        "--show-lean-ast", action="store_true", help="dump the target expression trees"
    )

    corpus = sub.add_parser("corpus", help="run the regression corpus")
    corpus.add_argument("corpus_file", help="corpus file to check")
    corpus.add_argument("--json", dest="json_path", help="also write a JSON report here")
    return parser


def _dump_trace(trace: PipelineTrace, args) -> None:
    if args.show_ast:
        for i, tree in enumerate(trace.parses):
            print(f"-- parse {i}")
            print(json.dumps(to_debug_tree(tree), ensure_ascii=False, indent=2))
    if args.show_simplified:
        for i, normal in enumerate(trace.normals):
            print(f"-- simplified {i}")
            print(linearize_forthel(normal))
    if args.show_lean_ast:
        for i, command in enumerate(trace.commands):
            print(f"-- lean ast {i}")
            print(json.dumps(to_debug_tree(command), ensure_ascii=False, indent=2))


def _cmd_translate(args) -> int:
    if args.file == "-":
        source = sys.stdin.read().removeprefix("\ufeff")
    else:
        with open(args.file, encoding="utf-8-sig") as handle:
            source = handle.read()
    status = 0
    for trace in run_pipeline(source, first_parse_only=args.first_parse):
        _dump_trace(trace, args)
        for line in trace.printed:
            print(line)
        if trace.diagnostics:
            status = 1
            for span, message in trace.diagnostics:
                print(f"error: {message} (bytes {span[0]}..{span[1]})", file=sys.stderr)
    return status


def _cmd_corpus(args) -> int:
    from .corpus import CorpusFormatError, corpus_check  # not loaded by ``forlean translate``
    try:
        report = corpus_check(args.corpus_file, json_path=args.json_path)
    except CorpusFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0 if report.failed == 0 else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "translate":
            return _cmd_translate(args)
        return _cmd_corpus(args)
    except (OSError, UnicodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
