import gc
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import forlean
from conftest import CORPUS, canonical
from forlean import lexicon, pipeline
from forlean.cli import main
from forlean.corpus import CorpusCase, CorpusFormatError, check_cases, corpus_check, parse_corpus
from forlean.lean import print_command
from forlean.lean_reader import read_command
from forlean.lexicon import preprocess, token_spans, tokenize
from forlean.pipeline import run_pipeline, split_texts
from test_properties import QuantifiedOperandGenerator, generate_sentences

INTRO = (
    "Ex. Assume x is a rational number. Assume x is equal to 2 + 2 * 2. "
    "Then x is greater than 3."
)
DATA = Path(__file__).parent / "data"
# the deepest conclusions that translate in a fresh interpreter, measured per
# version: parentheses, "it's not that", nested "(x + ...)", and the same with
# a quantified term innermost
DEPTH_LIMITS = {
    (3, 10): (492, 328, 328, 327),
    (3, 11): (492, 328, 328, 327),
    (3, 12): (493, 329, 329, 328),
    (3, 13): (493, 329, 329, 328),
}
AMBIGUOUS = (
    "Ex. Assume x is a real number. Assume x is greater than 0 and x is less than 1. "
    "Then x ^ 2 - 2 * x + 2 is not equal to 0."
)


LONG_LITERAL_SOURCE = "Ex. Assume x is an integer. Then x is less than " + "9" * 5000 + "."


def _new_adjective_and_moved_precedence(lines):
    (minus,) = [i for i, line in enumerate(lines) if line.startswith("rawNoun2\tMINUS\t")]
    lines[minus] = lines[minus].rsplit("\t", 1)[0] + "\t0"
    return lines + ["rawAdjective0\tPRIME\tprime\tprime"]


def _new_operator_and_type(lines):
    return lines + [
        "rawNoun2\tMOD\t%\t%\t2",
        "rawNoun0\tNATURAL_NUMBER\tnatural number|natural numbers\tℕ",
    ]


def _package_copy(tmp_path, edit):
    """Copy the forlean package under ``tmp_path`` with its lexicon's lines
    passed through ``edit``; return the environment that imports the copy."""
    shutil.copytree(
        Path(forlean.__file__).parent,
        tmp_path / "forlean",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    table = tmp_path / "forlean" / "data" / "lexicon.tsv"
    lines = edit(table.read_text(encoding="utf-8").splitlines())
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONIOENCODING": "utf-8"}


def segments(source):
    """The texts ``split_texts`` finds in ``source``, as (text, span) pairs,
    each span found from the index of its text's first token."""
    text = preprocess(source)
    return [
        list(zip(tokens, token_spans(text, [(start + i, start + i + 1) for i in range(len(tokens))])))
        for start, tokens in split_texts(tokenize(text))
    ]


class TestSplitTexts:
    def test_empty_stream(self):
        assert split_texts([]) == []

    def test_tokens_before_the_first_text_are_a_segment(self):
        assert segments("x is odd. Ex. Then x is odd.") == [
            [("x", (0, 1)), ("is", (2, 4)), ("odd", (5, 8)), (".", (8, 9))],
            [("ex", (10, 12)), (".", (12, 13)), ("then", (14, 18)), ("x", (19, 20)),
             ("is", (21, 23)), ("odd", (24, 27)), (".", (27, 28))],
        ]

    def test_ex_inside_a_sentence_does_not_split(self):
        assert segments("Ex. Then ex. Ex x.") == [
            [("ex", (0, 2)), (".", (2, 3)), ("then", (4, 8)), ("ex", (9, 11)), (".", (11, 12)),
             ("ex", (13, 15)), ("x", (16, 17)), (".", (17, 18))],
        ]

    def test_back_to_back_texts(self):
        assert segments("Ex. Ex.") == [[("ex", (0, 2)), (".", (2, 3))], [("ex", (4, 6)), (".", (6, 7))]]

    def test_trailing_text_start(self):
        assert segments("Ex. Then x is odd. Ex.") == [
            [("ex", (0, 2)), (".", (2, 3)), ("then", (4, 8)), ("x", (9, 10)), ("is", (11, 13)),
             ("odd", (14, 17)), (".", (17, 18))],
            [("ex", (19, 21)), (".", (21, 22))],
        ]


class TestRunPipeline:
    def test_single_text(self):
        (trace,) = run_pipeline(INTRO)
        assert not trace.diagnostics
        assert list(trace.printed) == [
            "example (x : ℚ) (h1 : x = (2 + (2 * 2))) : x > 3 := sorry"
        ]

    def test_ambiguous_text_yields_two_outputs(self):
        (trace,) = run_pipeline(AMBIGUOUS)
        assert len(trace.printed) == 2
        assert len(trace.parses) == len(trace.normals) == len(trace.commands) == 2

    def test_first_parse_only(self):
        (trace,) = run_pipeline(AMBIGUOUS, first_parse_only=True)
        assert len(trace.printed) == 1
        assert "≠" in trace.printed[0]

    def test_invalid_text_keeps_diagnostics(self):
        (trace,) = run_pipeline("Ex. Assume x is.")
        assert trace.diagnostics
        assert trace.printed == ()
        assert trace.diagnostics

    def test_multiple_texts_processed_independently(self):
        bad_then_good = "Ex. Assume x is. " + INTRO
        first, second = run_pipeline(bad_then_good)
        assert first.diagnostics
        assert not second.diagnostics

    @pytest.mark.parametrize(
        "source, span",
        [("Ex. Then x % 2 is even.", (11, 12)), ("Ex. Then x is odd\ud800.", (17, 20))],
        ids=["percent", "lone-surrogate"],
    )
    def test_unknown_character(self, source, span):
        (trace,) = run_pipeline(source)
        assert trace.diagnostics
        ((got_span, message),) = trace.diagnostics
        assert message.startswith("unknown character")
        assert got_span == span

    @pytest.mark.parametrize(
        "source, char, span",
        [("Ex. Then \u212a is odd.", "\u212a", (9, 12)), ("Ex. Then \u0130 is odd.", "\u0130", (9, 11))],
        ids=["kelvin-sign", "dotted-capital-i"],
    )
    def test_lowercasing_keeps_each_character_of_its_kind(self, source, char, span):
        # the Kelvin sign lowercases to an ASCII "k" and "İ" to "i" and a
        # combining dot: both stay as typed, an unknown word
        (trace,) = run_pipeline(source)
        assert trace.printed == ()
        ((got_span, message),) = trace.diagnostics
        assert message.startswith("expected ") and message.endswith(f"; found {char!r}")
        assert got_span == span

    def test_empty_source(self):
        assert run_pipeline("") == []

    def test_integer_literal_too_long(self):
        # more digits than Python converts to an int (4,300 by default)
        (trace,) = run_pipeline(LONG_LITERAL_SOURCE)
        assert trace.diagnostics
        assert trace.diagnostics == (((48, 5048), "integer literal too long at byte offset 48"),)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int() digit limit")
    def test_integer_literal_too_long_follows_the_interpreters_limit(self):
        # a literal is too long by the limit in force at the call, so the
        # parser never converts one that int() refuses
        source = "Ex. Assume x is an integer. Then x is less than {}."
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            (refused,) = run_pipeline(source.format("9" * 1000))
            (longest,) = run_pipeline(source.format("-" + "9" * 640))
        finally:
            sys.set_int_max_str_digits(limit)
        assert refused.diagnostics == (((48, 1048), "integer literal too long at byte offset 48"),)
        assert longest.printed == (f"example (x : ℤ) : x < -{'9' * 640} := sorry",)

    def test_spans_of_later_texts(self):
        # spans count bytes of the preprocessed source: the first text has
        # collapsed whitespace and a two-byte letter before the later texts,
        # which fail mid-text, at the end of input and in translation
        source = (
            "Ex.   Assume x is an   integer. Then x is grösser than 0.\n"
            "Ex. Assume x is an integer. Then x is banana.  "
            "Ex. Assume  x is an integer.  "
            "Ex. Then there exists an integer."
        )
        expected = (
            "expected '(', 'a', 'an', 'every', 'no', 'not', 'some', integer literal, "
            "rawAdjective0, rawAdjective1, rawNoun0, variable"
        )
        assert [trace.diagnostics for trace in run_pipeline(source)] == [
            (((38, 46), f"{expected}; found 'grösser'"),),
            (((93, 99), f"{expected}; found 'banana'"),),
            (((128, 128), "expected \"it's\", '(', 'assume', 'every', 'for', 'if', 'no', 'some', 'then', "
                          "'there', integer literal, variable; found end of input"),),
            (((129, 162), "untranslatable: existential without a condition has no Lean image"),),
        ]

    def test_spans_of_every_text_come_from_one_scan(self, monkeypatch):
        # a scan of the source per failing text would take time quadratic in
        # the source's length
        scans, pattern = [], lexicon._TOKEN

        class Counted:
            def finditer(self, text):
                scans.append(text)
                return pattern.finditer(text)

        monkeypatch.setattr(lexicon, "_TOKEN", Counted())
        source = " ".join(f"Ex. Assume x is an integer. Then x is banana {i}." for i in range(50))
        traces = run_pipeline(source)
        assert len(scans) == 1
        assert len(traces) == 50 and all(trace.diagnostics for trace in traces)
        last = preprocess(source).rindex("banana")
        assert traces[-1].diagnostics[0][0] == (last, last + len("banana"))

    def test_deterministic(self):
        assert run_pipeline(AMBIGUOUS) == run_pipeline(AMBIGUOUS)

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("Ex. Then there exists an integer.", "untranslatable: "),
            (
                "Ex. Assume x is an integer. Assume x is a real number. Then x is odd.",
                "duplicate binder name: x",
            ),
            # flattening "that is a rational number" exposes a unification
            # that only a later simplifier round makes
            (
                "Ex. Assume x is an integer that is a rational number. Then x is odd.",
                "duplicate binder name: x",
            ),
        ],
    )
    def test_translate_and_print_failures_are_diagnostics(self, source, expected):
        first, second = run_pipeline(source + " " + INTRO)
        assert first.diagnostics
        assert first.printed == ()
        ((span, message),) = first.diagnostics
        assert message.startswith(expected)
        assert span == (0, len(source))  # the whole first text
        assert not second.diagnostics

    @pytest.mark.parametrize(
        "conclusion, goal",
        [
            ("it's not that " * 150 + "x is odd", None),
            ("x is equal to " + "(" * 170 + "x" + ")" * 170, None),
            (" and ".join(["x is odd"] * 400), None),
            # two Python frames per parenthesis keep this within the default
            # recursion limit
            ("x is equal to " + "(" * 300 + "x" + ")" * 300, "x = x"),
            # the simplifier walks a rewritten node again from inside its
            # walk; these pin that this costs no depth on unrewritten nodes
            ("it's not that " * 130 + "x is odd", "(¬ " * 130 + "odd x" + ")" * 130),
            ("for every integer y, " * 130 + "x is odd", "∀ (y : ℤ), " * 130 + "odd x"),
            # one frame per connective stack, not one per connective level
            ("it's not that " * 300 + "x is odd", "(¬ " * 300 + "odd x" + ")" * 300),
            ("for every integer y, " * 300 + "x is odd", "∀ (y : ℤ), " * 300 + "odd x"),
        ],
        ids=[
            "150-negations",
            "170-parentheses",
            "400-conjuncts",
            "300-parentheses",
            "130-negations",
            "130-for-every",
            "300-negations",
            "300-for-every",
        ],
    )
    def test_deep_input_is_a_diagnostic_not_an_exception(self, conclusion, goal):
        source = f"Ex. Assume x is an integer. Then {conclusion}."
        first, second = run_pipeline(source + " " + INTRO)
        if goal is not None:
            assert first.printed == (f"example (x : ℤ) : {goal} := sorry",)
        if first.diagnostics:
            assert first.printed == ()
            ((span, message),) = first.diagnostics
            assert message == "input nested too deeply"
            assert span[0] == 0 and span[1] > len(conclusion)
        assert not second.diagnostics

    def test_input_just_below_the_nesting_limit_translates(self):
        # in a fresh interpreter, whose stack a call starts from as a
        # program's own does.  The parser's frames per level set each limit;
        # the simplifier's test for a quantified term recurses over the term
        # too, and must cost no depth of its own
        limits = DEPTH_LIMITS.get(sys.version_info[:2], min(DEPTH_LIMITS.values()))
        parens, negations, sums, quantified = (limit - 2 for limit in limits)
        cases = {
            "x is equal to " + "(" * parens + "x" + ")" * parens: "x = x",
            "it's not that " * negations + "x is odd": "(¬ " * negations + "odd x" + ")" * negations,
            "(x + " * sums + "1" + ")" * sums + " is odd": "odd " + "(x + " * sums + "1" + ")" * sums,
            "(x + " * quantified + "every integer" + ")" * quantified + " is odd": (
                "∀ (x2 : ℤ), odd " + "(x + " * quantified + "x2" + ")" * quantified
            ),
        }
        script = (
            "import json, sys\n"
            "from forlean import run_pipeline\n"
            "for conclusion in json.load(sys.stdin):\n"
            "    (trace,) = run_pipeline(f'Ex. Assume x is an integer. Then {conclusion}.')\n"
            "    print(json.dumps([trace.printed, trace.diagnostics]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(list(cases)),
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(Path(forlean.__file__).parent.parent)},
            encoding="utf-8",
        )
        assert done.returncode == 0, done.stderr
        results = [json.loads(line) for line in done.stdout.splitlines()]
        expected = [[[f"example (x : ℤ) : {goal} := sorry"], []] for goal in cases.values()]
        assert results == expected

    def test_a_call_leaves_no_cyclic_garbage(self, corpus_cases):
        # reference counting frees all that a call builds: with the cyclic
        # collector off, gc.collect() after a call finds what only the
        # collector could have freed.  One text per failure path and per way
        # a span is found: the tokenizer's rescan raises from inside
        # tokenize, and a later text's span counts the texts before it
        failing = {
            "Ex. Then x % 2 is even.": "unknown character",
            "Ex. Then é is odd ².": "unknown character",
            LONG_LITERAL_SOURCE: "integer literal too long",
            "Ex. Then x odd.": "expected",
            "Ex. Assume x is an integer. Then x is odd. Ex. Then x odd.": "expected",
            "Ex. Then " + "(" * 600 + "x" + ")" * 600 + " is odd.": "input nested too deeply",
            "Ex. Assume x is an integer. Assume x is a real number. Then x is odd.": "duplicate binder name",
            "Ex. Then there exists an integer.": "untranslatable",
        }
        sources = [case.input for case in corpus_cases] + (DATA / "translate.input").read_text().splitlines()
        sources += generate_sentences(300) + list(failing)
        left = {}
        gc.disable()
        try:
            gc.collect()  # what importing and earlier tests left
            for source in sources:
                traces = run_pipeline(source)
                assert not gc.isenabled()
                left[source] = gc.collect()
                if source in failing:
                    ((_, message),) = traces[-1].diagnostics
                    assert message.startswith(failing[source]), source
        finally:
            gc.enable()
        assert {source: n for source, n in left.items() if n} == {}

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_call_leaves_the_collector_as_it_found_it(self, monkeypatch, enabled):
        def interrupted(tokens):
            raise KeyboardInterrupt

        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            for source in (INTRO, "Ex. Then x % 2 is even."):
                run_pipeline(source)
                assert gc.isenabled() is enabled, source
            monkeypatch.setattr(pipeline, "parse_text", interrupted)
            with pytest.raises(KeyboardInterrupt):
                run_pipeline(INTRO)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_no_collection_starts_during_a_call(self):
        # the 300 clauses build far more containers than the collector's
        # first threshold, all alive until the call returns
        source = "Ex. Then " + " and ".join(["x is odd"] * 300) + "."
        code, starts = run_pipeline.__code__, []

        def probe(phase, info):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not code:
                frame = frame.f_back
            if phase == "start" and frame is not None:
                starts.append(info["generation"])

        was = gc.isenabled()
        gc.enable()
        gc.callbacks.append(probe)
        try:
            (trace,) = run_pipeline(source)
        finally:
            gc.callbacks.remove(probe)
            (gc.enable if was else gc.disable)()
        assert trace.printed and 0 < gc.get_threshold()[0] < 10_000
        assert starts == []

    @pytest.mark.parametrize(
        "conclusion, expected",
        [
            (
                "x * 2 + some integer is even",
                "example (x : ℤ) : ∃ (x2 : ℤ), even ((x * 2) + x2) := sorry",
            ),
            (
                "x is less than x + 1 + some integer",
                "example (x : ℤ) : ∃ (x2 : ℤ), x < ((x + 1) + x2) := sorry",
            ),
            (
                "x + every integer is greater than x * (1 + some integer)",
                "example (x : ℤ) : ∀ (x2 : ℤ), ∃ (x3 : ℤ), (x + x2) > (x * (1 + x3)) := sorry",
            ),
            (
                "every integer + some integer is even",
                "example (x : ℤ) : ∀ (x2 : ℤ), ∃ (x3 : ℤ), even (x2 + x3) := sorry",
            ),
            (
                "(some integer - every integer) * no integer is less than every integer",
                "example (x : ℤ) : ∃ (x2 : ℤ), ∀ (x3 : ℤ), ∀ (x4 : ℤ),"
                " (¬ ∀ (x5 : ℤ), ((x2 - x3) * x4) < x5) := sorry",
            ),
        ],
        ids=["product-plus-some", "sum-plus-some", "both-sides", "two-in-one-sum", "three-in-one-subject"],
    )
    def test_quantified_arithmetic_operand_is_raised(self, conclusion, expected):
        (trace,) = run_pipeline(f"Ex. Assume x is an integer. Then {conclusion}.")
        assert trace.diagnostics == ()
        assert trace.printed == (expected,)

    @pytest.mark.parametrize(
        "conclusion, expected",
        [
            (
                "for every integer y, y is odd or x is even",
                (
                    "example (x : ℤ) : ((∀ (y : ℤ), odd y) ∨ even x) := sorry",
                    "example (x : ℤ) : ∀ (y : ℤ), (odd y ∨ even x) := sorry",
                ),
            ),
            (
                "every integer x is odd and x is even",
                ("example (x : ℤ) : ((∀ (x : ℤ), odd x) ∧ even x) := sorry",),
            ),
        ],
        ids=["for-every-or", "every-and"],
    )
    def test_quantifier_scope_survives_printing(self, conclusion, expected):
        (trace,) = run_pipeline(f"Ex. Assume x is an integer. Then {conclusion}.")
        assert trace.printed == expected
        assert tuple(read_command(printed) for printed in trace.printed) == trace.commands

    def test_printed_commands_read_back_to_their_trees(self, corpus_cases):
        for source in [case.input for case in corpus_cases] + generate_sentences(300):
            for trace in run_pipeline(source):
                for command in trace.commands if not trace.diagnostics else ():
                    assert read_command(print_command(command)) == command, source

    def test_word_edits_never_raise_and_print_readable_commands(self):
        # each printed string of a text with a word deleted, duplicated or
        # swapped reads back to one of its trace's commands
        rng = random.Random(2000)
        sources = generate_sentences(400, seed=3)
        for _ in range(2000):
            words = rng.choice(sources).split()
            i, j = rng.randrange(len(words)), rng.randrange(len(words))
            edit = rng.choice(["delete", "duplicate", "swap"])
            if edit == "delete":
                del words[i]
            elif edit == "duplicate":
                words.insert(i, words[i])
            else:
                words[i], words[j] = words[j], words[i]
            source = " ".join(words)
            for trace in run_pipeline(source):
                for printed in trace.printed:
                    assert read_command(printed) in trace.commands, source

    def test_shallow_input_is_never_too_deep(self, corpus_cases):
        generator = QuantifiedOperandGenerator(seed=5151)
        generated = [generator.text() for _ in range(200)]
        for source in [case.input for case in corpus_cases] + generated:
            for trace in run_pipeline(source):
                messages = [message for _, message in trace.diagnostics]
                assert "input nested too deeply" not in messages, source
                assert trace.normals, source


class TestCorpusFormat:
    def test_parse_blocks(self):
        cases = parse_corpus(
            "== one\n-- input\nEx. Then 4 is greater than 3.\n-- expect\n"
            "example : 4 > 3 := sorry\n\n"
            "== two\n-- input\nline a\nline b\n-- expect\nfirst\n-- expect\nsecond\n"
        )
        assert [c.id for c in cases] == ["one", "two"]
        assert cases[1].input == "line a line b"
        assert cases[1].expected == ("first", "second")

    def test_empty_corpus(self):
        assert parse_corpus("") == []
        assert parse_corpus("# only a comment\n") == []

    @pytest.mark.parametrize(
        "text",
        [
            "-- input\nstray\n",
            "== case\n-- expect\nout\n",  # no input
            "== case\n-- input\nin\n",  # no expectation
            "== case\nstray content\n",
            "== dup\n-- input\ni\n-- expect\ne\n== dup\n-- input\ni\n-- expect\ne\n",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(CorpusFormatError):
            parse_corpus(text)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("== case\n-- input\nEx. Then 1 is 1.\n-- input\nEx. Then 2 is 2.\n-- expect\ne\n", 4),
            ("== case\n-- input\n-- expect\ne\n-- input\nEx. Then 2 is 2.\n", 5),
        ],
    )
    def test_a_second_input_is_an_error_at_its_line(self, text, line):
        with pytest.raises(CorpusFormatError, match=f"^line {line}: case 'case' has a second input$"):
            parse_corpus(text)


class TestCorpusCheck:
    def test_shipped_corpus_passes(self, corpus_cases, capsys):
        report = check_cases(corpus_cases)
        out = capsys.readouterr().out
        assert (report.total, report.passed, report.failed) == (42, 42, 0)
        assert out.count("PASS") == 42
        assert "passed 42/42" in out

    def test_corrupted_expectation_fails_with_diff(self, corpus_cases, capsys):
        case = corpus_cases[0]
        corrupted = type(case)(case.id, case.input, ("example : 1 > 2 := sorry",))
        report = check_cases([corrupted])
        out = capsys.readouterr().out
        assert report.failed == 1
        assert report.failures[0][0] == case.id
        assert "expected:" in out and "got:" in out

    @pytest.mark.parametrize(
        "source, error",
        [
            (
                "Ex. Assume x is an integer. Assume x is a real number. Then x is odd.",
                "error: duplicate binder name: x",
            ),
            ("Ex. Then there exists an integer.", "error: untranslatable: "),
        ],
    )
    def test_text_that_prints_nothing_fails_with_its_diagnostic(self, source, error, capsys):
        # the duplicate-binder text has commands but printed none of them
        report = check_cases([CorpusCase("c", source, ("example : 4 > 3 := sorry",))])
        ((case_id, diff),) = report.failures
        assert case_id == "c"
        *lines, last = diff.splitlines()
        assert lines == ["expected:", "  example : 4 > 3 := sorry", "got:"]
        assert last.startswith(error)
        assert capsys.readouterr().out.startswith("FAIL c\n")

    def test_empty_case_list(self, capsys):
        report = check_cases([])
        assert report.total == 0
        assert "passed 0/0" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        report = corpus_check(CORPUS, json_path=report_path)
        capsys.readouterr()
        data = json.loads(report_path.read_text(encoding="utf-8"))
        assert data["total"] == report.total == 42
        assert data["failed"] == 0

    def test_output_sorted_by_case_id(self, corpus_cases, capsys):
        check_cases(corpus_cases)
        lines = [l.split()[1] for l in capsys.readouterr().out.splitlines() if l.startswith("PASS")]
        assert lines == sorted(lines)


class TestCli:
    def test_translate_file(self, tmp_path, capsys):
        source = tmp_path / "input.txt"
        source.write_text(INTRO, encoding="utf-8")
        assert main(["translate", str(source)]) == 0
        out = capsys.readouterr().out
        assert out == "example (x : ℚ) (h1 : x = (2 + (2 * 2))) : x > 3 := sorry\n"

    def test_translate_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(INTRO))
        assert main(["translate"]) == 0
        assert "x > 3 := sorry" in capsys.readouterr().out

    def test_translate_multiple_texts(self, tmp_path, capsys):
        source = tmp_path / "input.txt"
        source.write_text(INTRO + " " + INTRO, encoding="utf-8")
        assert main(["translate", str(source)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_first_parse_flag(self, tmp_path, capsys):
        source = tmp_path / "input.txt"
        source.write_text(AMBIGUOUS, encoding="utf-8")
        assert main(["translate", "--first-parse", str(source)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_dump_flags(self, tmp_path, capsys):
        source = tmp_path / "input.txt"
        source.write_text(INTRO, encoding="utf-8")
        assert (
            main(["translate", "--show-ast", "--show-simplified", "--show-lean-ast", str(source)])
            == 0
        )
        out = capsys.readouterr().out
        assert "-- parse 0" in out
        assert '"node": "ForthelText"' in out
        assert "-- simplified 0" in out
        assert "ex . assume x is a rational number x." in out
        assert "-- lean ast 0" in out
        assert '"node": "LeanCommand"' in out

    @pytest.mark.parametrize(
        "conclusion, flags, goal",
        [
            # a 500-operand sum, whose trees are 500 levels deep
            (" + ".join(["x"] * 500) + " is odd", ["--show-ast", "--show-lean-ast"], "odd ("),
            # 960 nested conditionals, each one tree level
            ("if x is odd then " * 960 + "x is odd", ["--show-simplified"], "(odd x → "),
        ],
        ids=["sum-500", "if-then-960"],
    )
    def test_dump_flags_reach_as_deep_as_the_translation(self, tmp_path, conclusion, flags, goal):
        # a text that translates dumps too, run as the CLI runs, on a fresh
        # stack
        source = tmp_path / "input.txt"
        source.write_text(f"Ex. Assume x is an integer. Then {conclusion}.", encoding="utf-8")
        package_root = str(Path(forlean.__file__).parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "forlean.cli", "translate", *flags, str(source)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": package_root, "PYTHONIOENCODING": "utf-8"},
            encoding="utf-8",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1].startswith(f"example (x : ℤ) : {goal}")

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        source = tmp_path / "input.txt"
        source.write_text("Ex. Assume x is.", encoding="utf-8")
        assert main(["translate", str(source)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    def test_missing_file_exit_code(self, capsys):
        assert main(["translate", "no-such-file.txt"]) == 2
        assert "error" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus-command"])
        assert exc.value.code == 2

    def test_corpus_command(self, capsys):
        assert main(["corpus", str(CORPUS)]) == 0
        assert "passed 42/42" in capsys.readouterr().out

    def test_outputs_are_byte_identical_to_their_pinned_hashes(self, tmp_path, capsys):
        # a change that moves one byte of the corpus check, its JSON report or
        # the dump of every stage of tests/data/translate.input shows here
        def sha256(data: str) -> str:
            return hashlib.sha256(data.encode("utf-8")).hexdigest()

        report = tmp_path / "report.json"
        assert main(["corpus", str(CORPUS), "--json", str(report)]) == 0
        assert sha256(capsys.readouterr().out) == (
            "718a8dca4dd8b3438411eba9d560d6ab6030c6b2858f792ebcdc2f0bf19ad99f"
        )
        assert sha256(report.read_text(encoding="utf-8")) == (
            "6d516812f9749fc9b6876fd21c0d46daad0cc7dfeb10b6731ed8e9bc7ba597df"
        )
        flags = ["--show-ast", "--show-simplified", "--show-lean-ast"]
        assert main(["translate", *flags, str(DATA / "translate.input")]) == 0
        assert sha256(capsys.readouterr().out) == (
            "4fe5fd9ae6043721fde753a3bcb2bc145bc054f68873b50381de84cf289cd9f0"
        )

    @pytest.mark.parametrize(
        "edit, source, simplified_line, expected",
        [
            pytest.param(
                _new_adjective_and_moved_precedence,
                "Ex. Assume x is a prime integer. Then x + 1 - 2 is not prime.",
                "then x + 1 - 2 is not prime.",
                "example (x : ℤ) (h1 : prime x) : (¬ prime ((x + 1) - 2)) := sorry",
                id="adjective-and-precedence",
            ),
            pytest.param(
                _new_operator_and_type,
                "Ex. Assume n is a natural number. Then n % 2 is less than 2.",
                "then n % 2 is less than 2.",
                "example (n : ℕ) : (n % 2) < 2 := sorry",
                id="operator-and-type",
            ),
        ],
    )
    def test_lexicon_is_the_only_vocabulary_table(
        self, tmp_path, edit, source, simplified_line, expected
    ):
        # words, symbols, types and precedences written in a copy of the
        # lexicon and nowhere else reach every stage
        env = _package_copy(tmp_path, edit)

        def run(*args):
            return subprocess.run(
                [sys.executable, *args],
                input=source,
                capture_output=True,
                cwd=tmp_path,
                env=env,
                encoding="utf-8",
                check=True,
            ).stdout.splitlines()

        header, simplified, printed = run("-m", "forlean.cli", "translate", "--show-simplified")
        assert header == "-- simplified 0"
        assert simplified_line in simplified
        assert printed == expected
        read_back = (
            "import sys, forlean; (trace,) = forlean.run_pipeline(sys.stdin.read()); "
            "print(forlean.__file__); "
            "from forlean.lean_reader import read_command; "
            "print(read_command(trace.printed[0]) == trace.commands[0])"
        )
        location, same = run("-c", read_back)
        assert Path(location).is_relative_to(tmp_path)
        assert same == "True"

    @pytest.mark.parametrize(
        "line, error",
        [
            ("rawNoun2\tEXP\t^\t^", "operator EXP has no precedence"),
            ("rawAdjective0\tODD\todd", "entry ODD has no Lean image"),
            ("rawNoun0\tINTEGER\tinteger|integers", "entry INTEGER has no Lean image"),
            ("rawAdjective1\tLESS_THAN\tless than\t", "entry LESS_THAN has no Lean image"),
            ("rawNoun2\tPROD\t·\t·\t2", "entry PROD: Lean has no rawNoun2 notation '·'"),
            (
                "rawAdjective1\tLESS_THAN\tless than\t∧",
                "entry LESS_THAN: Lean has no rawAdjective1 notation '∧'",
            ),
        ],
        ids=[
            "operator-without-precedence",
            "adjective-without-image",
            "noun-without-image",
            "relation-with-empty-image",
            "operator-image-without-notation",
            "relation-image-of-a-connective",
        ],
    )
    def test_incomplete_lexicon_is_rejected(self, tmp_path, line, error):
        # every stage builds its tables from the bundled lexicon, so an entry
        # it cannot use stops the import instead of a later stage
        key = line.split("\t")[1]
        env = _package_copy(
            tmp_path, lambda lines: [line if old.split("\t")[1:2] == [key] else old for old in lines]
        )
        done = subprocess.run(
            [sys.executable, "-c", "import forlean"],
            capture_output=True,
            cwd=tmp_path,
            env=env,
            encoding="utf-8",
        )
        assert done.returncode == 1
        assert done.stderr.splitlines()[-1] == f"forlean.lexicon.LexiconError: {error}"

    def test_translate_does_not_load_the_corpus_harness(self, tmp_path):
        source = tmp_path / "input.txt"
        source.write_text("Ex. Assume n is an odd integer. Then n is odd.", encoding="utf-8")
        script = (
            "import sys; from forlean.cli import main; "
            f"status = main(['translate', {str(source)!r}]); "
            "print(status, 'forlean.corpus' in sys.modules)"
        )
        package_root = str(Path(forlean.__file__).parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": package_root, "PYTHONIOENCODING": "utf-8"},
            encoding="utf-8",
            check=True,
        )
        assert done.stdout.splitlines() == ["example (n : ℤ) (h1 : odd n) : odd n := sorry", "0 False"]

    def test_import_loads_no_package_resource_machinery(self):
        # with -S, site loads nothing first, so what the import needs shows
        script = (
            "import sys, forlean; "
            "print([m for m in ('importlib.resources', 'pathlib', 'zipfile', 'tempfile') if m in sys.modules])"
        )
        package_root = str(Path(forlean.__file__).parent.parent)
        done = subprocess.run(
            [sys.executable, "-S", "-c", script],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": package_root},
            encoding="utf-8",
            check=True,
        )
        assert done.stdout == "[]\n"

    def test_run_and_corpus_load_only_what_they_use(self):
        # a fresh interpreter per program path, with -S so that site loads
        # nothing first: what the path needs is all that sys.modules shows.
        # Neither path loads dataclasses, nor what it imports for itself
        dataclasses = ("dataclasses", "inspect", "ast", "dis", "copy")
        unused = {
            "import forlean; forlean.run_pipeline('Ex. Assume n is an odd integer. Then n is odd.')": (
                "forlean.lean_reader",
                "forlean.corpus",
                "importlib.resources",
                *dataclasses,
            ),
            f"from forlean.cli import main; main(['corpus', {str(CORPUS)!r}])": (
                "importlib.resources",
                "pathlib",
                "zipfile",
                "tempfile",
                *dataclasses,
            ),
        }
        package_root = str(Path(forlean.__file__).parent.parent)
        for call, modules in unused.items():
            script = f"import sys; {call}; print([m for m in {modules!r} if m in sys.modules])"
            done = subprocess.run(
                [sys.executable, "-S", "-c", script],
                capture_output=True,
                env={**os.environ, "PYTHONPATH": package_root, "PYTHONIOENCODING": "utf-8"},
                encoding="utf-8",
                check=True,
            )
            assert done.stdout.splitlines()[-1] == "[]", call

    def test_translate_integer_literal_too_long(self, tmp_path, capsys):
        source = tmp_path / "input.txt"
        source.write_text(LONG_LITERAL_SOURCE, encoding="utf-8")
        assert main(["translate", str(source)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "integer literal too long at byte offset 48 (bytes 48..5048)"
        assert captured.err == f"error: {message}\n"

    def test_corpus_integer_literal_too_long_in_expectation_fails_the_case(
        self, tmp_path, capsys
    ):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "== long\n-- input\nEx. Then 4 is greater than 3.\n-- expect\n"
            f"example : {'9' * 5000} > 3 := sorry\n",
            encoding="utf-8",
        )
        assert main(["corpus", str(corpus)]) == 1
        out = capsys.readouterr().out
        assert "FAIL long" in out
        assert "unreadable expectation: integer literal too long" in out

    def test_corpus_expectation_may_use_lean_minimal_bracketing(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "== minimal\n-- input\n"
            "Ex. Assume x is an integer. Assume x is positive. Then x + 1 is greater than 1.\n"
            "-- expect\nexample (x : ℤ) (h1 : pos x) : x + 1 > 1 := sorry\n",
            encoding="utf-8",
        )
        assert main(["corpus", str(corpus)]) == 0
        assert capsys.readouterr().out == "PASS minimal\npassed 1/1\n"

    def test_corpus_command_failure(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "== bad\n-- input\nEx. Then 4 is greater than 3.\n-- expect\n"
            "example : 4 > 2 := sorry\n",
            encoding="utf-8",
        )
        assert main(["corpus", str(corpus)]) == 1
        assert "FAIL bad" in capsys.readouterr().out

    def test_corpus_malformed_exit_code(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("-- input\nstray\n", encoding="utf-8")
        assert main(["corpus", str(corpus)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["translate", "corpus"])
    def test_file_not_utf8_exit_code(self, tmp_path, capsys, command):
        source = tmp_path / "input.txt"
        source.write_bytes(b"Ex. Then x is odd\xff.\n")
        assert main([command, str(source)]) == 2
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")

    def test_translate_file_may_start_with_a_byte_order_mark(self, tmp_path, capsys):
        source = tmp_path / "input.txt"
        source.write_text(INTRO, encoding="utf-8-sig")
        assert main(["translate", str(source)]) == 0
        assert capsys.readouterr().out == "example (x : ℚ) (h1 : x = (2 + (2 * 2))) : x > 3 := sorry\n"

    def test_translate_stdin_may_start_with_a_byte_order_mark(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + INTRO))
        assert main(["translate"]) == 0
        assert capsys.readouterr().out == "example (x : ℚ) (h1 : x = (2 + (2 * 2))) : x > 3 := sorry\n"

    def test_corpus_file_may_start_with_a_byte_order_mark(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "== bom\n-- input\nEx. Then 4 is greater than 3.\n-- expect\nexample : 4 > 3 := sorry\n",
            encoding="utf-8-sig",
        )
        assert main(["corpus", str(corpus)]) == 0
        assert capsys.readouterr().out == "PASS bom\npassed 1/1\n"

    def test_output_the_terminal_cannot_encode_exits_2(self):
        # exit 1 is kept for a text that failed; an encoding error is the
        # caller's environment, as an unreadable file is
        package_root = str(Path(forlean.__file__).parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "forlean.cli", "translate", "-"],
            input=INTRO,
            capture_output=True,
            env={**os.environ, "PYTHONPATH": package_root, "PYTHONIOENCODING": "ascii"},
            encoding="utf-8",
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: 'ascii' codec can't encode character '\\u211a'"), done.stderr

    def test_corpus_deeply_nested_expectation_fails_the_case(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        nested = "(" * 2000 + "4" + ")" * 2000
        corpus.write_text(
            "== deep\n-- input\nEx. Then 4 is greater than 3.\n-- expect\n"
            f"example : {nested} > 3 := sorry\n",
            encoding="utf-8",
        )
        assert main(["corpus", str(corpus)]) == 1
        out = capsys.readouterr().out
        assert "FAIL deep" in out
        assert "unreadable expectation: input nested too deeply" in out

    def test_corpus_expectation_too_deep_to_print_fails_the_case(self, tmp_path, capsys):
        # the reader keeps nested quantifiers on a stack, but printing the
        # tree it reads recurses once per quantifier
        corpus = tmp_path / "corpus.txt"
        nested = "∀ (x : ℤ), " * 2000
        corpus.write_text(
            "== deep\n-- input\nEx. Then 4 is greater than 3.\n-- expect\n"
            f"example : {nested}4 > 3 := sorry\n",
            encoding="utf-8",
        )
        assert main(["corpus", str(corpus)]) == 1
        out = capsys.readouterr().out
        assert "FAIL deep" in out
        assert "unreadable expectation: input nested too deeply" in out

    def test_translate_matches_golden_output(self, capsys):
        # the corpus inputs plus multi-parse texts with unnamed notions,
        # user-written metavariables and ambiguous or splitting assumptions,
        # byte for byte, fresh ids included;
        # regenerate with: forlean translate --show-simplified
        #   tests/data/translate.input > tests/data/translate.golden
        assert main(["translate", "--show-simplified", str(DATA / "translate.input")]) == 0
        assert capsys.readouterr().out == (DATA / "translate.golden").read_text(encoding="utf-8")

    def test_repeated_runs_byte_identical(self, tmp_path, capsys):
        source = tmp_path / "input.txt"
        source.write_text(AMBIGUOUS, encoding="utf-8")
        main(["translate", str(source)])
        first = capsys.readouterr().out
        main(["translate", str(source)])
        assert capsys.readouterr().out == first


def test_stdout_pipes_cleanly(tmp_path, capsys, corpus_cases):
    # without dump flags, stdout is exactly the printed commands
    source = tmp_path / "input.txt"
    source.write_text(corpus_cases[0].input, encoding="utf-8")
    main(["translate", str(source)])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert all(line.startswith("example ") for line in lines)
    assert canonical(lines[0]) == canonical(corpus_cases[0].expected[0])


def test_every_printed_command_well_formed(corpus_cases):
    for case in corpus_cases:
        for trace in run_pipeline(case.input):
            for printed in trace.printed:
                assert printed.count(":=") == 1
                assert printed.endswith("sorry")
                assert "  " not in printed and not printed.endswith(" ")


def word_edited_sources(corpus_cases, seed: int = 977) -> list[str]:
    """The corpus, the golden inputs, generated texts and the multi-parse
    texts, each with two seeded copies where 1-3 words drawn from all of them
    are inserted, deleted or replaced: untranslatable and unparsable texts
    beside the ones that translate."""
    from test_simplify import MULTI_PARSE_TEXTS

    generator = QuantifiedOperandGenerator(seed=4242)
    sources = [case.input for case in corpus_cases] + (DATA / "translate.input").read_text().splitlines()
    sources += generate_sentences(300) + [generator.text() for _ in range(200)] + MULTI_PARSE_TEXTS
    pool = sorted({word for source in sources for word in source.split()})
    rng = random.Random(seed)
    edited = []
    for source in sources:
        for _ in range(2):
            words = source.split()
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(words) + 1)
                action = rng.random()
                if i < len(words) and action < 0.3:
                    del words[i]
                elif i < len(words) and action < 0.5:
                    words[i] = rng.choice(pool)
                else:
                    words.insert(i, rng.choice(pool))
            edited.append(" ".join(words))
    return sources + edited


def test_stage_outputs_are_pinned(corpus_cases):
    # the normal forms, commands, printed strings and diagnostics of every
    # trace: a change to simplify, translate or print that moves one node or
    # one message of one parse shows here
    digest = hashlib.sha256()
    counts = {"texts": 0, "printed": 0, "failed": 0}
    sources = word_edited_sources(corpus_cases)
    for source in sources:
        for trace in run_pipeline(source):
            counts["texts"] += 1
            counts["printed"] += len(trace.printed)
            counts["failed"] += bool(trace.diagnostics)
            # a text that parses has a tree, so a normal form, a command and a
            # printed line, and every other path returns a diagnostic and
            # prints nothing: the CLI has no trace with neither or both
            assert bool(trace.printed) != bool(trace.diagnostics), source
            stages = (trace.normals, trace.commands, trace.printed, trace.diagnostics)
            digest.update(repr(stages).encode())
    assert len(sources) == 1815
    assert counts == {"texts": 1830, "printed": 561, "failed": 1489}
    assert digest.hexdigest() == "05408146a2e198fd829f7742bc8c161cb4a105a1ec6e1fd684e46a97441eac1b"
