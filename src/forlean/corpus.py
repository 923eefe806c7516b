"""Regression-corpus harness.

Corpus files hold blocks of the form::

    == <case id>
    -- input
    <input text, may wrap over several lines>
    -- expect
    <one expected output, may wrap>
    -- expect
    <another expected output, for ambiguous inputs>

Blocks are separated by blank lines; ``#`` starts a comment line.  A case
has one ``-- input`` and at least one ``-- expect``.  Outputs are compared
as trees: the commands a text printed are taken from its trace, and only the
expectations are read (``read_command``, which also drops their layout).
An expectation may use any bracketing Lean reads, such as ``x + 1 > 1`` for
the printed ``(x + 1) > 1``.  A case passes when both multisets of commands,
printed again with hypothesis labels and generated variables renamed to
their canonical forms, are equal.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .lean import LeanCommand, normalize_names, print_command
from .lean_reader import LeanReadError, read_command
from .pipeline import run_pipeline

__all__ = [
    "CorpusCase",
    "CorpusFormatError",
    "CorpusReport",
    "check_cases",
    "corpus_check",
    "load_corpus",
    "parse_corpus",
]


class CorpusCase(NamedTuple):
    id: str
    input: str
    expected: tuple[str, ...]


class CorpusReport:
    def __init__(self) -> None:
        self.total = self.passed = self.failed = 0
        self.failures: list[tuple[str, str]] = []

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "passed": self.passed,
            "failed": self.failed,
            "failures": [{"id": i, "diff": d} for i, d in self.failures],
        }


class CorpusFormatError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")


def parse_corpus(text: str) -> list[CorpusCase]:
    cases: list[CorpusCase] = []
    case_id: str | None = None
    input_lines: list[str] | None = None  # None until the case's ``-- input``
    expects: list[list[str]] = []
    section: list[str] | None = None
    seen_ids: set[str] = set()

    def finish(line_no: int) -> None:
        nonlocal case_id, input_lines, expects, section
        if case_id is None:
            return
        if not input_lines:
            raise CorpusFormatError(line_no, f"case {case_id!r} has no input")
        if not expects or not all(expects):
            raise CorpusFormatError(line_no, f"case {case_id!r} has no expected output")
        cases.append(
            CorpusCase(case_id, " ".join(input_lines), tuple(" ".join(e) for e in expects))
        )
        case_id, input_lines, expects, section = None, None, [], None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("== "):
            finish(line_no)
            case_id = line[3:].strip()
            if not case_id:
                raise CorpusFormatError(line_no, "empty case id")
            if case_id in seen_ids:
                raise CorpusFormatError(line_no, f"duplicate case id {case_id!r}")
            seen_ids.add(case_id)
        elif line == "-- input":
            if case_id is None:
                raise CorpusFormatError(line_no, "'-- input' outside a case")
            if input_lines is not None:
                raise CorpusFormatError(line_no, f"case {case_id!r} has a second input")
            section = input_lines = []
        elif line == "-- expect":
            if case_id is None:
                raise CorpusFormatError(line_no, "'-- expect' outside a case")
            expects.append([])
            section = expects[-1]
        else:
            if section is None:
                raise CorpusFormatError(line_no, f"content outside a section: {line!r}")
            section.append(line)
    finish(len(text.splitlines()) + 1)
    return cases


def load_corpus(path) -> list[CorpusCase]:
    with open(path, encoding="utf-8-sig") as handle:
        return parse_corpus(handle.read())


def _canonical(command: LeanCommand) -> str:
    """Print with normalized hypothesis labels and generated variables."""
    return print_command(normalize_names(command))


def check_cases(cases: list[CorpusCase]) -> CorpusReport:
    """Run every case through the pipeline, printing one PASS/FAIL line per
    case (sorted by id) and a summary to stdout."""
    report = CorpusReport()
    for case in sorted(cases, key=lambda c: c.id):
        report.total += 1
        diff = _check_one(case)
        if diff is None:
            report.passed += 1
            print(f"PASS {case.id}")
        else:
            report.failed += 1
            report.failures.append((case.id, diff))
            print(f"FAIL {case.id}")
            for line in diff.splitlines():
                print(f"  {line}")
    print(f"passed {report.passed}/{report.total}")
    return report


def _check_one(case: CorpusCase) -> str | None:
    traces = run_pipeline(case.input)
    problems = [message for trace in traces for _, message in trace.diagnostics]
    try:
        expected = sorted(_canonical(read_command(e)) for e in case.expected)
    except LeanReadError as err:
        return f"unreadable expectation: {err}"
    except RecursionError:  # a tree read without recursion may be too deep to print
        return "unreadable expectation: input nested too deeply"
    # a text whose print failed keeps its commands but printed nothing
    got = sorted(
        _canonical(command)
        for trace in traces
        if trace.printed
        for command in dict.fromkeys(trace.commands)
    )
    if got == expected and not problems:
        return None
    lines = ["expected:"] + [f"  {e}" for e in expected] + ["got:"] + [f"  {g}" for g in got]
    lines.extend(f"error: {p}" for p in problems)
    return "\n".join(lines)


def corpus_check(path, *, json_path=None) -> CorpusReport:
    """Check the corpus file at ``path``; optionally write a JSON report."""
    report = check_cases(load_corpus(path))
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, ensure_ascii=False, indent=2)
            handle.write("\n")
    return report
