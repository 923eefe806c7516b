import time

import pytest

from conftest import parse_source
from forlean.forthel import (
    And,
    BinApp,
    Does,
    IntLit,
    IsAdj,
    IsAdj1,
    IsPred,
    Named,
    Not,
    Notion,
    Or,
    Polarity,
    Quantified,
    QuantifiedNotion,
    Quantifier,
    Var,
    linearize_forthel,
)
from forlean.lexicon import preprocess, tokenize
from forlean.parsing import ParseFailure, parse_statement, parse_term, parse_text
from forlean.pipeline import run_pipeline


def term_of(text: str):
    trees = parse_term(tokenize(preprocess(text))).expect_trees()
    assert len(trees) == 1
    return trees[0]


def statement_of(text: str):
    trees = parse_statement(tokenize(preprocess(text))).expect_trees()
    assert len(trees) == 1
    return trees[0]


class TestTerms:
    def test_multiplication_binds_tighter_than_addition(self):
        assert term_of("2 + 2 * 2") == term_of("2 + (2 * 2)")

    def test_parentheses_override(self):
        assert term_of("(2 + 2) * 2") == BinApp(
            "PROD", BinApp("SUM", IntLit(2), IntLit(2)), IntLit(2)
        )

    def test_minus_chain_left_associative(self):
        # x ^ 3 - 5 * x - 1 groups as ((x ^ 3) - (5 * x)) - 1
        assert term_of("x ^ 3 - 5 * x - 1") == BinApp(
            "MINUS",
            BinApp("MINUS", BinApp("EXP", Var("x"), IntLit(3)), BinApp("PROD", IntLit(5), Var("x"))),
            IntLit(1),
        )

    def test_minus_binds_tighter_than_plus(self):
        # 4 * n ^ 3 + 2 * n - 1 groups as (4 * (n ^ 3)) + ((2 * n) - 1)
        assert term_of("4 * n ^ 3 + 2 * n - 1") == BinApp(
            "SUM",
            BinApp("PROD", IntLit(4), BinApp("EXP", Var("n"), IntLit(3))),
            BinApp("MINUS", BinApp("PROD", IntLit(2), Var("n")), IntLit(1)),
        )

    def test_exponent_tightest(self):
        assert term_of("x * y ^ 2") == BinApp(
            "PROD", Var("x"), BinApp("EXP", Var("y"), IntLit(2))
        )

    def test_negative_literal(self):
        assert term_of("-5 * n - 3") == BinApp(
            "MINUS", BinApp("PROD", IntLit(-5), Var("n")), IntLit(3)
        )

    def test_quantified_operand_parses_in_a_fixed_order(self):
        # the comparative's term may end after any operand, so the quantified
        # notion takes a growing prefix of the operators; the order is the one
        # plain backtracking gives, loosest operator level first
        def some_y_less_than(term):
            notion = Notion(
                "INTEGER", Named("y"), None, IsPred(IsAdj1(Polarity.POS, "LESS_THAN", term))
            )
            return Quantified(QuantifiedNotion(Quantifier.SOME, notion))

        x, one, two = Var("x"), IntLit(1), IntLit(2)
        tokens = tokenize("some integer y less than x * 2 + 1 - x")
        assert parse_term(tokens).trees == (
            some_y_less_than(
                BinApp("SUM", BinApp("PROD", x, two), BinApp("MINUS", one, x))
            ),
            BinApp(
                "MINUS",
                some_y_less_than(BinApp("SUM", BinApp("PROD", x, two), one)),
                x,
            ),
            BinApp(
                "SUM", some_y_less_than(BinApp("PROD", x, two)), BinApp("MINUS", one, x)
            ),
            BinApp(
                "SUM",
                BinApp("PROD", some_y_less_than(x), two),
                BinApp("MINUS", one, x),
            ),
        )


class TestStatements:
    def test_plain_conjunction(self):
        assert statement_of("x is odd and y is odd") == And(
            Does(Var("x"), IsAdj(Polarity.POS, "ODD")),
            Does(Var("y"), IsAdj(Polarity.POS, "ODD")),
        )

    def test_its_not_that(self):
        assert statement_of("it's not that x is odd") == Not(
            Does(Var("x"), IsAdj(Polarity.POS, "ODD"))
        )

    def test_connective_precedence(self):
        # "and" binds tighter than ",", "," tighter than "or"; all right-nested
        def adj(v, polarity=Polarity.POS):
            return Does(Var(v), IsAdj(polarity, "EVEN"))

        got = statement_of(
            "x is even , y is even and z is not even "
            "or x is even , y is not even and z is even "
            "or x is not even , y is even and z is even"
        )
        neg = Polarity.NEG
        expected = Or(
            And(adj("x"), And(adj("y"), adj("z", neg))),
            Or(
                And(adj("x"), And(adj("y", neg), adj("z"))),
                And(adj("x", neg), And(adj("y"), adj("z"))),
            ),
        )
        assert got == expected

    def test_comma_after_and_nests_left(self):
        got = statement_of("x is even and y is even , z is even")
        def adj(v):
            return Does(Var(v), IsAdj(Polarity.POS, "EVEN"))
        assert got == And(And(adj("x"), adj("y")), adj("z"))


class TestTexts:
    def test_two_assumptions(self):
        result = parse_source(
            "Ex. Assume x is a real number. Assume x is less than 0. "
            "Then x ^ 2 + 1 is greater than 0."
        )
        (tree,) = result.expect_trees()
        assert len(tree.example.assumptions) == 2

    def test_lexical_ambiguity_yields_two_trees(self):
        result = parse_source(
            "Ex. Assume x is a real number. Assume x is greater than 0 and x is less than 1. "
            "Then x ^ 2 - 2 * x + 2 is not equal to 0."
        )
        first, second = result.expect_trees()
        pred1 = first.example.conclusion.predicate
        pred2 = second.example.conclusion.predicate
        assert pred1 == IsAdj1(Polarity.POS, "NOT_EQUAL_TO", pred1.term)
        assert pred2 == IsAdj1(Polarity.NEG, "EQUAL_TO", pred2.term)

    def test_without_leading_then(self):
        result = parse_source(
            "Ex. Assume n is an integer. If 1 - n ^ 2 is greater than 0 then 3 * n - 2 is even."
        )
        assert len(result.trees) == 1

    def test_number_agreement_not_enforced(self):
        # singular and plural forms produce the same tree
        sloppy = parse_source("Ex. Assume x are an odd integers. Then x is odd.")
        strict = parse_source("Ex. Assume x is an odd integer. Then x is odd.")
        assert sloppy.trees == strict.trees

    def test_truncated_sentence_fails(self):
        result = parse_source("Ex. Assume x is.")
        assert not result.ok
        assert result.diagnostics
        with pytest.raises(ParseFailure):
            result.expect_trees()

    def test_failure_reports_furthest_position(self):
        result = parse_source("Ex. Assume x is a real number. Then x is banana.")
        ((span, message),) = result.diagnostics
        source = preprocess("Ex. Assume x is a real number. Then x is banana.")
        assert source[span[0] : span[1]] == "banana"
        assert "expected" in message

    @pytest.mark.parametrize(
        "parse, source, diagnostic",
        [
            pytest.param(
                parse_text,
                "Ex. Assume x is an integer. Then for x.",
                ((37, 38), "expected 'every', 'no', 'some'; found 'x'"),
                id="quantifiers",
            ),
            pytest.param(
                parse_text,
                "Ex. Assume x is an integer. Then x + is odd.",
                (
                    (37, 39),
                    "expected '(', 'every', 'no', 'some', integer literal, variable; found 'is'",
                ),
                id="term-atoms",
            ),
            pytest.param(
                parse_text,
                "Ex. Assume x is a real number. Then x is banana.",
                (
                    (41, 47),
                    "expected '(', 'a', 'an', 'every', 'no', 'not', 'some', integer literal, "
                    "rawAdjective0, rawAdjective1, rawNoun0, variable; found 'banana'",
                ),
                id="lexicon-categories",
            ),
            pytest.param(
                parse_text,
                "Ex. Assume x is an integer. Then x is odd",
                ((41, 41), "expected ',', '.', 'and', 'iff', 'or', rawNoun0; found end of input"),
                id="connectives-at-end",
            ),
            pytest.param(
                parse_term,
                "(x + 2",
                ((6, 6), "expected ')', '*', '+', '-', '/', '^'; found end of input"),
                id="operators",
            ),
            pytest.param(
                parse_statement,
                "x is odd and",
                (
                    (12, 12),
                    "expected \"it's\", '(', 'every', 'for', 'no', 'some', 'there', "
                    "integer literal, variable; found end of input",
                ),
                id="statement-start",
            ),
        ],
    )
    def test_failure_diagnostic_is_exact(self, parse, source, diagnostic):
        result = parse(tokenize(preprocess(source)))
        assert result.trees == ()
        assert result.diagnostics == (diagnostic,)

    def test_empty_input_fails(self):
        result = parse_text([])
        assert not result.ok


class TestParseSetProperties:
    def test_corpus_tree_counts(self, corpus_cases):
        # one tree everywhere except the documented ambiguous case
        for case in corpus_cases:
            trees = parse_source(case.input).expect_trees()
            expected = 2 if case.id == "exercise-3-1" else 1
            assert len(trees) == expected, case.id

    def test_deterministic_tree_order(self, corpus_cases):
        for case in corpus_cases:
            tokens = tokenize(preprocess(case.input))
            assert parse_text(tokens).trees == parse_text(tokens).trees

    def test_no_structurally_equal_duplicates(self, corpus_cases):
        for case in corpus_cases:
            trees = parse_source(case.input).trees
            for i, a in enumerate(trees):
                assert a not in trees[i + 1 :]

    def test_linearization_reparses_to_same_tree(self, corpus_cases):
        # parse(linearize(t)) contains t for every corpus parse t
        for case in corpus_cases:
            for tree in parse_source(case.input).expect_trees():
                again = parse_source(linearize_forthel(tree))
                assert tree in again.trees, case.id

    def test_many_ambiguous_phrases_parse_quickly(self):
        # 11 "not equal to" phrases, each with two readings: 2,048 distinct
        # parses, deduplicated by hash rather than by scanning the trees kept
        phrases = " and ".join(f"x is not equal to {i}" for i in range(11))
        source = f"Ex. Assume x is an integer. Then {phrases}."
        tokens = tokenize(preprocess(source))
        start = time.perf_counter()
        result = parse_text(tokens)
        elapsed = time.perf_counter() - start
        assert len(result.trees) == 2048
        assert elapsed < 1.0

    def test_metavariable_reference_reparses(self):
        source = (
            "ex . assume x is an integer x. then for no integer (x 35) such that "
            "(x 35) is odd, (x 35) is greater than x."
        )
        (tree,) = parse_source(source).expect_trees()
        assert tree in parse_source(linearize_forthel(tree)).trees


def test_deeply_nested_parentheses_parse_and_print():
    # guards the Python frames each nesting level costs: 90 levels must stay
    # within the default recursion limit
    depth = 90
    source = (
        "Ex. Assume x is an integer. Then x is equal to "
        + "(" * depth + "x" + ")" * depth + "."
    )
    (trace,) = run_pipeline(source)
    assert trace.printed == ("example (x : ℤ) : x = x := sorry",)
