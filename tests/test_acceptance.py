"""Acceptance suite: one test per shipped criterion, printing one PASS/FAIL
line each (run with ``pytest tests/test_acceptance.py -v -s`` to see them)."""

import io
import time
from contextlib import contextmanager, redirect_stdout

from conftest import canonical, expect_trees, parse_as, parse_source, reserved
from forlean.corpus import check_cases
from forlean.lean import alpha_equivalent, normalize_names, print_command, print_term
from forlean.lean_reader import read_command
from forlean.lexicon import preprocess, tokenize
from forlean.pipeline import run_pipeline
from forlean.simplify import simplify
from forlean.translate import translate_term, translate_text
from test_properties import check_generated_sentences, check_quantifier_semantics


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL: {name}")
        raise
    print(f"PASS: {name}")


def outputs_of(source: str) -> list[str]:
    traces = run_pipeline(source)
    assert len(traces) == 1
    return [canonical(p) for p in traces[0].printed]


def test_criterion_1_corpus_reproduction(corpus_cases):
    with criterion("criterion 1: all 42 corpus cases reproduce in under 5 s"):
        start = time.perf_counter()
        # the case lines stay out of this suite's PASS/FAIL lines
        with redirect_stdout(io.StringIO()):
            report = check_cases(corpus_cases)
        elapsed = time.perf_counter() - start
        assert (report.total, report.passed, report.failed) == (42, 42, 0)
        assert elapsed < 5.0, f"corpus run took {elapsed:.2f}s"


def test_criterion_2_ambiguity_fidelity(corpus_cases):
    with criterion("criterion 2: exactly one ambiguous case with exactly two outputs"):
        for case in corpus_cases:
            (trace,) = run_pipeline(case.input)
            if case.id == "exercise-3-1":
                assert len(trace.printed) == 2
                assert sum("≠" in p for p in trace.printed) == 1
                assert sum("(¬ " in p and "= 0)" in p for p in trace.printed) == 1
            else:
                assert len(trace.printed) == 1, case.id


SHOWCASE = [
    (
        "Ex. Assume x is a rational number equal to 2 * 2. Then x is greater than 3.",
        "example (x : ℚ) (h33 : x = (2 * 2)) : x > 3 := sorry",
    ),
    (
        "Ex. Assume x is a real number less than 0. "
        "Then no nonnegative integer a such that a is positive is not greater than x.",
        "example (x : ℝ) (h67 : x < 0) : ∀ (a : ℤ), ((nneg a ∧ pos a) → (¬ (¬ a > x))) := sorry",
    ),
    (
        "Ex. Assume x is an even integer greater than 32. "
        "Then x is greater than every integer less than 32.",
        "example (x : ℤ) (h70 : even x) (h56 : x > 32) : "
        "∀ (x34 : ℤ), (x34 < 32 → x > x34) := sorry",
    ),
]

NESTED_INPUT = (
    "Ex. Assume x is an odd integer greater than 3. "
    "Then no even integer greater than x is less than every negative integer."
)
NESTED_EXPECTED = (
    "example (x : ℤ) (h111 : odd x) (h98 : x > 3) : ∀ (x32 : ℤ), "
    "((even x32 ∧ x32 > x) → (¬ ∀ (x53 : ℤ), (neg x53 → x32 < x53))) := sorry"
)


def test_criterion_3_showcase_pairs():
    with criterion("criterion 3: the three showcase pairs reproduce modulo renaming"):
        for source, expected in SHOWCASE:
            assert outputs_of(source) == [canonical(expected)], source
        double_negation = outputs_of(SHOWCASE[1][0])[0]
        assert "(¬ (¬ a > x))" in double_negation
        quantified = outputs_of(SHOWCASE[2][0])[0]
        assert "∀ (x1 : ℤ), (x1 < 32 → x > x1)" in quantified


def test_criterion_4_nested_quantifiers():
    with criterion("criterion 4: the nested-quantifier example reproduces modulo renaming"):
        assert outputs_of(NESTED_INPUT) == [canonical(NESTED_EXPECTED)]


# expression/parenthesization pairs frozen from the corpus outputs
GROUPINGS = [
    ("2 + 2 * 2", "(2 + (2 * 2))"),
    ("2 + (2 * 2)", "(2 + (2 * 2))"),
    ("x ^ 2 - 2 * x + 2", "(((x ^ 2) - (2 * x)) + 2)"),
    ("x ^ 3 - 5 * x - 1", "(((x ^ 3) - (5 * x)) - 1)"),
    ("4 * n ^ 3 + 2 * n - 1", "((4 * (n ^ 3)) + ((2 * n) - 1))"),
    ("(2 + 2) * 2", "((2 + 2) * 2)"),
    ("-5 * n - 3", "((-5 * n) - 3)"),
    ("x * y ^ 2", "(x * (y ^ 2))"),
    ("(r ^ 2 + 1) / r", "(((r ^ 2) + 1) / r)"),
    ("a + b + c", "((a + b) + c)"),
    ("(n - 5) * (n + 7) * (n + 13)", "(((n - 5) * (n + 7)) * (n + 13))"),
    ("x ^ 2 + y ^ 2 + z ^ 2", "(((x ^ 2) + (y ^ 2)) + (z ^ 2))"),
    ("n ^ 2 - 3 * n + 9", "(((n ^ 2) - (3 * n)) + 9)"),
]


def test_criterion_5_precedence(corpus_cases):
    with criterion("criterion 5: arithmetic precedence matches the corpus groupings"):
        implicit = expect_trees(parse_as(tokenize(preprocess("2 + 2 * 2")), "term"))
        explicit = expect_trees(parse_as(tokenize(preprocess("2 + (2 * 2)")), "term"))
        assert implicit == explicit
        for expression, grouping in GROUPINGS:
            (term,) = expect_trees(parse_as(tokenize(preprocess(expression)), "term"))
            assert print_term(translate_term(term)) == grouping, expression
        # grouping inside every corpus case agrees with its expected output
        for case in corpus_cases:
            ids = reserved(case.input)
            got = sorted(
                canonical(print_command(normalize_names(translate_text(simplify(tree, ids)))))
                for tree in expect_trees(parse_source(case.input))
            )
            expected = sorted(canonical(e) for e in case.expected)
            assert got == expected, case.id


def test_criterion_6_property_suites(corpus_cases):
    with criterion("criterion 6: generated-sentence, round-trip and semantics suites"):
        assert check_generated_sentences(250) >= 250
        for case in corpus_cases:
            tokens = tokenize(preprocess(case.input))
            # the texts come back; spans move with the spacing
            assert tokenize(" ".join(tokens)) == tokens
        for case in corpus_cases:
            for expected in case.expected:
                command = read_command(expected)
                assert alpha_equivalent(command, normalize_names(command))
        assert check_quantifier_semantics() > 0
