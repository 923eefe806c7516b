import ast
import hashlib
import inspect
import linecache
import random
import re
import string
import sys
import time
from pathlib import Path

import pytest

from conftest import expect_trees, parse_as, parse_source
from forlean import forthel, parsing
from forlean.forthel import (
    And,
    BinApp,
    Does,
    GRAMMAR,
    Iff,
    Index,
    IntLit,
    IsAdj,
    IsAdj1,
    IsPred,
    Named,
    Not,
    Notion,
    OPERATOR_LEVELS,
    Or,
    Polarity,
    Quantified,
    QuantifiedNotion,
    Quantifier,
    Var,
    linearize_forthel,
)
from forlean.lexicon import CATEGORIES, SYMBOLS, preprocess, tokenize
from forlean.parsing import parse_text
from forlean.pipeline import run_pipeline
from forlean.tree import _IS_NODE
from test_properties import QuantifiedOperandGenerator, generate_sentences


def term_of(text: str):
    trees = expect_trees(parse_as(tokenize(preprocess(text)), "term"))
    assert len(trees) == 1
    return trees[0]


def statement_of(text: str):
    trees = expect_trees(parse_as(tokenize(preprocess(text)), "statement"))
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
        assert parse_as(tokens, "term").trees == (
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

    def test_every_connective_level_with_two_ambiguous_phrases(self):
        # each "not equal to" has two readings, so four parses; every parse
        # has the same connective structure, and the first phrase's lexical
        # reading comes first
        def adj(v, adjective):
            return Does(Var(v), IsAdj(Polarity.POS, adjective))

        def not_equal(v, n, lexical):
            if lexical:
                return Does(Var(v), IsAdj1(Polarity.POS, "NOT_EQUAL_TO", IntLit(n)))
            return Does(Var(v), IsAdj1(Polarity.NEG, "EQUAL_TO", IntLit(n)))

        def tree(first, second):
            clauses = And(And(not_equal("x", 0, first), adj("y", "ODD")), not_equal("z", 1, second))
            return Iff(Or(clauses, adj("x", "EVEN")), adj("y", "ODD"))

        source = (
            "x is not equal to 0 and y is odd , z is not equal to 1 "
            "or x is even iff y is odd"
        )
        assert parse_as(tokenize(preprocess(source)), "statement").trees == (
            tree(True, True),
            tree(True, False),
            tree(False, True),
            tree(False, False),
        )


class TestTexts:
    def test_two_assumptions(self):
        result = parse_source(
            "Ex. Assume x is a real number. Assume x is less than 0. "
            "Then x ^ 2 + 1 is greater than 0."
        )
        (tree,) = expect_trees(result)
        assert len(tree.example.assumptions) == 2

    def test_lexical_ambiguity_yields_two_trees(self):
        result = parse_source(
            "Ex. Assume x is a real number. Assume x is greater than 0 and x is less than 1. "
            "Then x ^ 2 - 2 * x + 2 is not equal to 0."
        )
        first, second = expect_trees(result)
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
        assert result.trees == ()
        assert result.diagnostics

    def test_failure_reports_furthest_position(self):
        # as a token range: (at, at + 1) for the token found there
        tokens = tokenize(preprocess("Ex. Assume x is a real number. Then x is banana."))
        ((span, message),) = parse_text(tokens).diagnostics
        assert tokens[span[0] : span[1]] == ["banana"]
        assert "expected" in message

    @pytest.mark.parametrize(
        "start, source, diagnostic",
        [
            pytest.param(
                "text",
                "Ex. Assume x is an integer. Then for x.",
                ((10, 11), "expected 'every', 'no', 'some'; found 'x'"),
                id="quantifiers",
            ),
            pytest.param(
                "text",
                "Ex. Assume x is an integer. Then x + is odd.",
                (
                    (11, 12),
                    "expected '(', 'every', 'no', 'some', integer literal, variable; found 'is'",
                ),
                id="term-atoms",
            ),
            pytest.param(
                "text",
                "Ex. Assume x is a real number. Then x is banana.",
                (
                    (12, 13),
                    "expected '(', 'a', 'an', 'every', 'no', 'not', 'some', integer literal, "
                    "rawAdjective0, rawAdjective1, rawNoun0, variable; found 'banana'",
                ),
                id="lexicon-categories",
            ),
            pytest.param(
                "text",
                "Ex. Assume x is an integer. Then x is odd",
                ((12, 12), "expected ',', '.', 'and', 'iff', 'or', rawNoun0; found end of input"),
                id="connectives-at-end",
            ),
            pytest.param(
                "term",
                "(x + 2",
                ((4, 4), "expected ')', '*', '+', '-', '/', '^'; found end of input"),
                id="operators",
            ),
            pytest.param(
                "statement",
                "x is odd and",
                (
                    (4, 4),
                    "expected \"it's\", '(', 'every', 'for', 'no', 'some', 'there', "
                    "integer literal, variable; found end of input",
                ),
                id="statement-start",
            ),
        ],
    )
    def test_failure_diagnostic_is_exact(self, start, source, diagnostic):
        result = parse_as(tokenize(preprocess(source)), start)
        assert result.trees == ()
        assert result.diagnostics == (diagnostic,)

    def test_empty_input_fails(self):
        result = parse_text([])
        assert result.trees == ()


class TestParseSetProperties:
    def test_corpus_tree_counts(self, corpus_cases):
        # one tree everywhere except the documented ambiguous case
        for case in corpus_cases:
            trees = expect_trees(parse_source(case.input))
            expected = 2 if case.id == "exercise-3-1" else 1
            assert len(trees) == expected, case.id

    def test_deterministic_tree_order(self, corpus_cases):
        for case in corpus_cases:
            tokens = tokenize(preprocess(case.input))
            assert parse_text(tokens).trees == parse_text(tokens).trees

    def test_no_structurally_equal_duplicates(self, corpus_cases):
        # the parser returns every derivation it builds and removes no equal
        # trees, so no two derivations of the grammar may give one tree: here
        # on the corpus, the golden inputs, generated texts, and a copy of each
        # with 1-3 keywords inserted or deleted at seeded places
        keywords = "not and or iff is a such that every some no equal to then".split()
        generator = QuantifiedOperandGenerator(seed=4242)
        inputs = Path(__file__).parent / "data" / "translate.input"
        sources = [case.input for case in corpus_cases] + inputs.read_text().splitlines()
        sources += generate_sentences(300) + [generator.text() for _ in range(200)]
        rng = random.Random(1)
        edited = []
        for source in sources:
            words = source.split()
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(words) + 1)
                if i < len(words) and rng.random() < 0.5:
                    del words[i]
                else:
                    words.insert(i, rng.choice(keywords))
            edited.append(" ".join(words))
        ambiguous = 0
        for source in sources + edited:
            trees = parse_source(source).trees
            ambiguous += len(trees) > 1
            assert len(set(trees)) == len(trees), source
        assert ambiguous >= 200

    def test_linearization_reparses_to_same_tree(self, corpus_cases):
        # parse(linearize(t)) contains t for every parse t of the corpus and
        # of generated texts, and for every normal form of the corpus and the
        # golden inputs: the trees that --show-simplified prints
        generator = QuantifiedOperandGenerator(seed=4242)
        inputs = Path(__file__).parent / "data" / "translate.input"
        cases = [case.input for case in corpus_cases]
        sources = cases + generate_sentences(300)
        trees = [
            tree
            for source in sources + [generator.text() for _ in range(200)]
            for tree in expect_trees(parse_source(source))
        ]
        normals = [
            normal
            for source in cases + inputs.read_text().splitlines()
            for trace in run_pipeline(source)
            for normal in trace.normals
        ]
        assert len(normals) == 144
        for tree in trees + normals:
            again = parse_source(linearize_forthel(tree))
            assert tree in again.trees, linearize_forthel(tree)

    def test_many_ambiguous_phrases_parse_quickly(self):
        # 11 "not equal to" phrases, each with two readings: 2,048 parses, one
        # per derivation
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
        (tree,) = expect_trees(parse_source(source))
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


class TestGeneratedParser:
    def test_generated_methods_show_their_source(self):
        source = inspect.getsource(parsing._Parser.does_predicate)
        assert source.startswith("def does_predicate(self, pos):\n")
        assert "out.append((_new(IsAdj1, (v2, v3, v4)), p4))  # does_predicate[1]\n" in source
        # a call is guarded by the texts that can start its category, int
        # standing for every integer literal
        guard = "texts[p2] in _FIRST_rawAdjective1 or p2 >= self.furthest else ()"
        assert f"for v3, p3 in (self.lex_matches(p2, 'rawAdjective1') if {guard}):" in source
        guard = "texts[p2] in _FIRST_definite_term or p2 >= self.furthest else ()"
        assert f"for v3, p3 in (self.definite_term(p2) if {guard}):" in source
        # an operator category tests each separator and builds each node inline
        source = inspect.getsource(parsing._Parser.term)
        assert source.startswith("def term(self, pos, width=4):\n")
        assert "if t == '+':\n" in source
        assert "results.append((_new(BinApp, ('SUM', left, right)), p1))\n" in source
        source = inspect.getsource(parsing._Parser.connective)
        assert source.startswith("def connective(self, pos, width=4):\n")
        assert "if t == 'or':\n" in source and "results.append((_new(Or, (left, right)), p1))\n" in source
        # every category but definite_term is generated, and each method,
        # compiled on its own, starts on its line of the linecache entry
        lines = linecache.getlines(parsing._SOURCE_FILE)
        generated = {*GRAMMAR, *OPERATOR_LEVELS}
        for name, method in vars(parsing._Parser).items():
            code = getattr(method, "__code__", None)
            assert (code is not None and code.co_filename == parsing._SOURCE_FILE) == (name in generated), name
        for name in generated:
            method = getattr(parsing._Parser, name)
            assert inspect.getsourcefile(method) == parsing._SOURCE_FILE
            assert lines[method.__code__.co_firstlineno - 1].startswith(f"def {name}(self, pos"), name

    def test_generated_nodes_get_every_field(self):
        # tuple.__new__ does not check the arity that a node class's __new__
        # checks: each _new(C, (...)) passes one item per field of C, and no
        # generated line calls a node class itself.  An integer literal's text
        # is converted only where an int or Index element matches (atom_term[0],
        # name_slot[2], atom_term[2]), never in a guard, which reads texts
        classes = {c.__name__: c for c in vars(forthel).values() if isinstance(c, type) and _IS_NODE[c]}
        built, assigned, reads = set(), set(), []
        for node in ast.walk(ast.parse("".join(linecache.getlines(parsing._SOURCE_FILE)))):
            if isinstance(node, ast.Assign):
                assigned.update(map(id, ast.walk(node.value)))
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "int":
                assert ast.unparse(node.args[0]).startswith("self.toks["), ast.unparse(node)
                reads.append(node)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in classes, ast.unparse(node)
                if node.func.id == "_new":
                    cls, items = node.args
                    assert isinstance(items, ast.Tuple), ast.unparse(node)
                    assert len(items.elts) == len(classes[cls.id]._fields), ast.unparse(node)
                    built.add(cls.id)
        assert built == set(classes)
        assert len(reads) == 3 and all(id(read) in assigned for read in reads), [ast.unparse(r) for r in reads]

    def test_every_element_is_keywords_or_a_field_and_its_source(self):
        # a source is a category, bracketed if optional, an integer literal
        # or an Index: words that build a constant are rules of a category
        categories = {*GRAMMAR, *OPERATOR_LEVELS, "definite_term", *CATEGORIES}
        for category, rules in GRAMMAR.items():
            for _, elements in rules:
                for e in elements:
                    if type(e) is not str:
                        field, source = e
                        assert field is None or type(field) is str, (category, e)
                        named = type(source) is str and source.strip("[]") in categories
                        assert named or source is int or source is Index, (category, e)

    def test_every_rule_builds_a_node(self, corpus_cases):
        # the out.append line of each rule of GRAMMAR runs while these texts
        # and the linearizations of their parses parse; only the latter write
        # an adjective after a noun without "that is"
        lines = linecache.getlines(parsing._SOURCE_FILE)
        labels = {}
        for number, line in enumerate(lines, start=1):
            if found := re.search(r"  # (\w+\[\d+\])$", line):
                labels[number] = found.group(1)
        rules = {f"{category}[{i}]" for category, rs in GRAMMAR.items() for i in range(len(rs))}
        assert sorted(labels.values()) == sorted(rules)
        built = set()

        def trace_lines(frame, event, arg):
            if event == "line" and frame.f_lineno in labels:
                built.add(labels[frame.f_lineno])
            return trace_lines

        def trace_calls(frame, event, arg):
            return trace_lines if frame.f_code.co_filename == parsing._SOURCE_FILE else None

        inputs = Path(__file__).parent / "data" / "translate.input"
        sources = [case.input for case in corpus_cases] + inputs.read_text().splitlines()
        previous = sys.gettrace()
        sys.settrace(trace_calls)
        try:
            for source in sources + generate_sentences(300):
                for tree in parse_source(source).trees:
                    parse_source(linearize_forthel(tree))
        finally:
            sys.settrace(previous)
        assert rules - built == set()


def _pool_key(token: str) -> str:
    """How a token once printed, when it carried its kind: the order of the
    edited streams' token pool, and so the parse pin, rests on it."""
    if token[-1] in string.digits:
        return f"IntLit({int(token)})"
    kind = "Period" if token == "." else "Symbol" if token in SYMBOLS else "Word"
    return f"{kind}({token!r})"


def edited_streams(corpus_cases, seed: int = 977) -> list[list]:
    """Token streams of the corpus, the golden inputs and generated texts,
    and of a seeded slice of each, each with two copies where 1-3 tokens
    drawn from all of them are inserted, deleted or replaced at seeded places:
    mostly failing streams, which start and end inside every category."""
    inputs = Path(__file__).parent / "data" / "translate.input"
    sources = [case.input for case in corpus_cases] + inputs.read_text().splitlines()
    texts = [tokenize(preprocess(source)) for source in sources + generate_sentences(300)]
    # each token once, in the order first met
    pool = sorted(dict.fromkeys(token for tokens in texts for token in tokens), key=_pool_key)
    rng = random.Random(seed)
    streams, edited = list(texts), []
    for tokens in texts:
        start = rng.randrange(len(tokens))
        piece = tokens[start : rng.randrange(start + 1, len(tokens) + 1)]
        streams.append(piece)
        for base in (tokens, tokens, piece, piece):
            copy = list(base)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(copy) + 1)
                action = rng.random()
                if i < len(copy) and action < 0.3:
                    del copy[i]
                elif i < len(copy) and action < 0.5:
                    copy[i] = rng.choice(pool)
                else:
                    copy.insert(i, rng.choice(pool))
            edited.append(copy)
    return streams + edited


def test_parse_results_and_diagnostics_are_pinned(corpus_cases):
    # every tree in order and every diagnostic of three start categories over
    # 2,382 streams, most of them failing: a failing stream is parsed a second
    # time to record what each alternative wanted, and only that pass shows
    # which alternatives the parser tried where no complete parse exists
    digest = hashlib.sha256()
    failing = 0
    streams = edited_streams(corpus_cases)
    for tokens in streams:
        for start in ("text", "statement", "term"):
            result = parse_as(tokens, start)
            failing += not result.trees
            digest.update(repr((result.trees, result.diagnostics)).encode())
    assert len(streams) == 2382
    assert failing == 6688
    assert digest.hexdigest() == "f227688e7518e800873801e14b3bdc15d5a893a508cadcf2e2b3bef4a66cc1c6"


class TestFirstSets:
    def test_sets_of_some_categories(self):
        first = parsing._FIRST
        assert first["quantifier"] == first["quantified_notion"] == {"every", "some", "no"}
        assert first["does_predicate"] == {"is", "are"}
        assert first["text"] == {"ex"}
        assert first["notion"] == first["rawAdjective0"] | first["rawNoun0"]
        assert first["right_attribute"] == (
            {"not", "that", "such"} | first["rawAdjective0"] | first["rawAdjective1"]
        )
        assert first["rawAdjective1"] == {"equal", "greater", "less", "not"}
        # a category that can be empty (assumption_list, polarity, name_slot)
        # gets no guard; one that can start with an integer literal holds int
        starts_with_int = {"statement", "connective", "atom_statement", "term", "atom_term", "definite_term"}
        assert {name for name, texts in first.items() if int in texts} == starts_with_int
        assert first["term"] == first["atom_term"] == first["definite_term"] == (
            {int, "(", "every", "some", "no"} | first["variable"]
        )
        guarded = {"text", "does_predicate", "notion", "right_attribute", "quantifier", "quantified_notion"}
        assert set(first) == guarded | starts_with_int | set(CATEGORIES)

    def test_a_category_parses_nothing_where_its_set_lacks_the_next_token(self, corpus_cases):
        # at every position of the edited streams, the end included, whose
        # text (int for an integer literal) is outside a category's set, its
        # generated method and lex_matches return nothing: the guard only
        # skips calls that fail
        skipped = 0
        for tokens in edited_streams(corpus_cases):
            parser = parsing._Parser(tokens, sys.maxsize)
            for pos, text in enumerate(parser._texts):
                for name, texts in parsing._FIRST.items():
                    if text not in texts:
                        if name in CATEGORIES:
                            assert not parser.lex_matches(pos, name), (name, pos, tokens)
                        else:
                            assert not getattr(parser, name)(pos), (name, pos, tokens)
                        skipped += 1
        assert skipped > 400_000, skipped
