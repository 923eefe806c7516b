import importlib
import re
from collections import Counter

import pytest

from conftest import parse_source
from forlean.forthel import (
    And,
    Does,
    Example,
    ForQuantified,
    ForthelText,
    IntLit,
    IsAdj,
    IsAdj1,
    IsNotion,
    IsPred,
    Meta,
    MetaVar,
    Named,
    Notion,
    Polarity,
    SuchThat,
    Unnamed,
    Var,
    linearize_forthel,
)
from forlean.lean import print_command
from forlean.pipeline import run_pipeline
from forlean.simplify import (
    NameSupply,
    assign_names,
    flatten_attributes,
    is_normal_form,
    normal_form_violations,
    raise_quantifiers,
    simplify,
    split_assumptions,
    unify_variables,
)
from forlean.translate import UntranslatableNode, translate_text
from forlean.tree import transform
from test_properties import QuantifiedOperandGenerator, generate_sentences

POS = Polarity.POS
# multi-parse texts with unnamed notions in the ambiguous part, with
# user-written metavariables, which fresh names skip, and with conjunctive,
# splitting or ambiguous assumptions
MULTI_PARSE_TEXTS = [
    "Ex. Then every integer is not equal to some integer and "
    "some integer is not equal to every integer.",
    "Ex. Assume x is an integer (x 2) such that (x 2) is not equal to 3. "
    "Then some integer is not equal to x or x is not equal to some integer.",
    "Ex. Assume y is a real number (x 1). Assume y is not equal to 0. Then every rational "
    "number is not equal to y and no odd integer less than y is not equal to some integer.",
    "Ex. Assume x is an integer and y is an integer. "
    "Then x is not equal to 1 and y is not equal to 2 or x is not equal to y.",
    "Ex. Assume x is an integer such that x is positive and x is less than 5. "
    "Then x is not equal to 0 and x is not equal to 7.",
    "Ex. Assume x is an integer such that x is not equal to 1. Assume x is not equal to 2. "
    "Then x is not equal to 3.",
    "Ex. Assume x is an integer. Assume every integer is not equal to some integer. "
    "Then x is not equal to some integer.",
    "Ex. Assume x is an integer less than some odd integer. Then every integer is not equal "
    "to some integer and x is not equal to every integer.",
]


def canon_ids(text: str) -> str:
    """Renumber metavariables in order of first appearance, so linearized
    texts compare independently of the id scheme."""
    seen: dict[str, str] = {}

    def repl(match):
        ident = match.group(1)
        seen.setdefault(ident, str(len(seen) + 1))
        return f"(x {seen[ident]})"

    return re.sub(r"\(x (\d+)\)", repl, text)


def first_parse(source: str):
    return parse_source(source).expect_trees()[0]


class TestAssignNames:
    def test_unnamed_get_distinct_fresh_ids(self):
        tree = first_parse(
            "Ex. Assume x is an integer. Assume x is greater than 2. "
            "Then no odd integer less than 1 is greater than x."
        )
        named = assign_names(tree, NameSupply.for_text(tree))
        ids = [m.ident for m in _collect(named, Meta)]
        assert len(ids) == 2
        assert len(set(ids)) == 2  # pairwise distinct

    def test_fixpoint_when_everything_named(self):
        tree = first_parse("Ex. Assume x is an integer x. Then x is odd.")
        assert assign_names(tree, NameSupply.for_text(tree)) == tree

    def test_two_unnamed_in_one_sentence(self):
        tree = first_parse("Ex. Then every integer is greater than some integer.")
        named = assign_names(tree, NameSupply.for_text(tree))
        ids = [m.ident for m in _collect(named, Meta)]
        assert len(ids) == 2 and ids[0] != ids[1]

    def test_memo_keys_on_node_and_next_fresh_id(self):
        stmt = Does(Var("x"), IsNotion(POS, Notion("INTEGER", Unnamed())))
        memo: dict = {}
        first = assign_names(stmt, NameSupply(), memo)
        supply = NameSupply()
        assert assign_names(stmt, supply, memo) is first  # a hit
        assert supply.next_id == 2  # as the first visit left it
        assert first.predicate.notion.name == Meta(1)
        later = NameSupply(next_id=5)  # the same subtree after four fresh names
        assert assign_names(stmt, later, memo).predicate.notion.name == Meta(5)
        assert later.next_id == 6


class TestUnifyVariables:
    def test_meta_unifies_with_subject_variable(self):
        stmt = Does(Var("x"), IsNotion(POS, Notion("RATIONAL_NUMBER", Meta(6))))
        text = ForthelText(Example((stmt,), Does(Var("x"), IsAdj(POS, "ODD"))))
        unified = unify_variables(text)
        assert unified.example.assumptions[0] == Does(
            Var("x"), IsNotion(POS, Notion("RATIONAL_NUMBER", Named("x")))
        )

    def test_non_variable_subject_keeps_meta(self):
        stmt = Does(IntLit(4), IsNotion(POS, Notion("INTEGER", Meta(7))))
        text = ForthelText(Example((stmt,), Does(Var("x"), IsAdj(POS, "ODD"))))
        assert unify_variables(text) == text

    def test_already_named_unchanged(self):
        stmt = Does(Var("x"), IsNotion(POS, Notion("INTEGER", Named("x"))))
        text = ForthelText(Example((stmt,), Does(Var("x"), IsAdj(POS, "ODD"))))
        assert unify_variables(text) == text


class TestRaiseQuantifiers:
    def test_quantified_subject_moves_out(self):
        stmt = first_parse(
            "Ex. Then every integer x greater than 1 is greater than 2."
        ).example.conclusion
        raised = raise_quantifiers(stmt)
        assert isinstance(raised, ForQuantified)
        assert linearize_forthel(raised) == (
            "for every integer x greater than 1, x is greater than 2"
        )

    def test_subject_then_predicate_nesting(self):
        tree = first_parse(
            "Ex. Then no even integer greater than x is less than every negative integer."
        )
        named = assign_names(tree, NameSupply.for_text(tree))
        raised = raise_quantifiers(named.example.conclusion)
        # subject quantifier outermost, predicate quantifier nested inside
        assert isinstance(raised, ForQuantified)
        assert raised.qnotion.quantifier.value == "no"
        inner = raised.body
        assert isinstance(inner, ForQuantified)
        assert inner.qnotion.quantifier.value == "every"
        assert isinstance(inner.body, Does)

    def test_no_quantified_terms_is_noop(self):
        stmt = first_parse("Ex. Then x is greater than 3.").example.conclusion
        assert raise_quantifiers(stmt) == stmt

    def test_quantifier_inside_adjectival_attribute_is_raised(self):
        tree = first_parse(
            "Ex. Then x is an integer less than some integer y such that "
            "y is greater than every real number."
        )
        named = assign_names(tree, NameSupply.for_text(tree))
        raised = raise_quantifiers(named.example.conclusion)
        assert linearize_forthel(raised) == (
            "x is an integer (x 1) less than some integer y such that "
            "for every real number (x 2), y is greater than (x 2)"
        )


class TestFlattenAttributes:
    def test_left_and_right_attributes_become_such_that(self):
        notion = Notion(
            "INTEGER",
            Named("x"),
            left_attribute="ODD",
            right_attribute=IsPred(IsAdj1(POS, "GREATER_THAN", IntLit(1))),
        )
        assert flatten_attributes(notion) == Notion(
            "INTEGER",
            Named("x"),
            None,
            SuchThat(
                And(
                    Does(Var("x"), IsAdj(POS, "ODD")),
                    Does(Var("x"), IsAdj1(POS, "GREATER_THAN", IntLit(1))),
                )
            ),
        )
        assert linearize_forthel(flatten_attributes(notion)) == (
            "an integer x such that x is odd and x is greater than 1"
        )

    def test_left_attribute_conjunct_comes_first(self):
        notion = Notion(
            "INTEGER",
            Named("a"),
            left_attribute="NONNEGATIVE",
            right_attribute=SuchThat(Does(Var("a"), IsAdj(POS, "POSITIVE"))),
        )
        flattened = flatten_attributes(notion)
        condition = flattened.right_attribute.statement
        assert condition == And(
            Does(Var("a"), IsAdj(POS, "NONNEGATIVE")),
            Does(Var("a"), IsAdj(POS, "POSITIVE")),
        )

    def test_bare_notion_unchanged(self):
        notion = Notion("INTEGER", Named("x"))
        assert flatten_attributes(notion) == notion

    def test_meta_named_notion_uses_meta_reference(self):
        notion = Notion("INTEGER", Meta(35), left_attribute="ODD")
        flattened = flatten_attributes(notion)
        assert flattened.right_attribute == SuchThat(Does(MetaVar(35), IsAdj(POS, "ODD")))


class TestSplitAssumptions:
    def split_sources(self, source):
        tree = first_parse(source)
        supply = NameSupply.for_text(tree)
        prepared = unify_variables(assign_names(tree, supply))
        flattened = flatten_attributes(prepared)
        return [
            linearize_forthel(a)
            for a in split_assumptions(flattened.example).assumptions
        ]

    def test_adjectives_split_into_separate_assumptions(self):
        assert self.split_sources("Ex. Assume x is an odd integer greater than 3. Then x is odd.") == [
            "x is an integer x",
            "x is odd",
            "x is greater than 3",
        ]

    def test_top_level_and_splits(self):
        assert self.split_sources(
            "Ex. Assume x is greater than 0 and x is less than 1. Then x is odd."
        ) == ["x is greater than 0", "x is less than 1"]

    def test_or_assumption_not_split(self):
        got = self.split_sources(
            "Ex. Assume x is even, y is even or x is odd. Then x is odd."
        )
        assert len(got) == 1
        assert " or " in got[0]


class TestSimplify:
    def test_worked_example(self):
        tree = first_parse(
            "Ex. Assume x is an integer. Assume x is greater than 2. "
            "Then no odd integer less than 1 is greater than x."
        )
        expected = (
            "ex . assume x is an integer x. assume x is greater than 2. "
            "then for no integer (x 35) such that (x 35) is odd and (x 35) is less than 1, "
            "(x 35) is greater than x."
        )
        assert canon_ids(linearize_forthel(simplify(tree))) == canon_ids(expected)

    def test_attribute_on_typing_assumption(self):
        tree = first_parse(
            "Ex. Assume x is a rational number equal to 2 * 2. Then x is greater than 3."
        )
        normal = simplify(tree)
        assert [linearize_forthel(a) for a in normal.example.assumptions] == [
            "x is a rational number x",
            "x is equal to 2 * 2",
        ]

    def test_idempotent_on_corpus(self, corpus_cases):
        for case in corpus_cases:
            for tree in parse_source(case.input).expect_trees():
                normal = simplify(tree)
                assert simplify(normal) == normal, case.id

    def test_normal_form_accepted(self, corpus_cases):
        for case in corpus_cases:
            for tree in parse_source(case.input).expect_trees():
                assert is_normal_form(simplify(tree)), case.id

    def test_raw_parses_rejected(self, corpus_cases):
        # every corpus input names a type via an unnamed notion, so no raw
        # parse is in normal form
        seen = set()
        for case in corpus_cases:
            for tree in parse_source(case.input).expect_trees():
                violations = normal_form_violations(tree)
                assert violations, case.id
                seen.update(violations)
        assert "left attribute ODD" in seen

    def test_in_situ_quantifier_rejected(self):
        (tree,) = parse_source(
            "Ex. Then x is greater than every integer less than 32."
        ).expect_trees()
        assert "in-situ quantified term" in normal_form_violations(tree)

    def test_unsplit_typing_assumption_rejected(self):
        (tree,) = parse_source(
            "Ex. Assume x is an integer x such that x is odd. Then x is odd."
        ).expect_trees()
        assert "unsplit typing assumption" in normal_form_violations(tree)
        assert is_normal_form(simplify(tree))


class TestNameSupply:
    def test_skips_names_already_in_use(self):
        supply = NameSupply(used_names=frozenset({"x1", "x3"}))
        assert [supply.fresh() for _ in range(4)] == [2, 4, 5, 6]

    def test_collects_user_and_generated_names(self):
        (tree,) = parse_source(
            "Ex. Assume y is an integer (x 2). Then y is odd."
        ).expect_trees()
        supply = NameSupply.for_text(tree)
        assert {"y", "x2"} <= supply.used_names
        assert supply.fresh() == 1
        assert supply.fresh() == 3

    def test_fresh_names_disjoint_from_user_variables(self, corpus_cases):
        for case in corpus_cases:
            for tree in parse_source(case.input).expect_trees():
                normal = simplify(tree)
                user = {v.name for v in _collect(tree, Var)}
                generated = {f"x{m.ident}" for m in _collect(normal, Meta)}
                assert user.isdisjoint(generated)

    def test_quantifier_inside_attribute_still_normalizes(self):
        # flattening exposes the in-situ quantifier; the raise/flatten loop
        # must clean it up
        tree = first_parse(
            "Ex. Then x is an integer greater than every rational number."
        )
        normal = simplify(tree)
        assert is_normal_form(normal)


class TestTransform:
    def test_identity_returns_the_same_object(self, corpus_cases):
        for case in corpus_cases:
            for tree in parse_source(case.input).expect_trees():
                assert transform(tree, lambda n: n) is tree, case.id

    def test_shared_memo_gives_the_same_normal_forms(self, corpus_cases):
        # and run_pipeline, which shares one memo across the stages and
        # parses of a text, gives what the memo-free stages give per parse
        ambiguous = [s for s in generate_sentences(300) if 1 <= s.count("not equal to") <= 4]
        assert ambiguous
        generator = QuantifiedOperandGenerator(seed=6262)
        quantified = [generator.text() for _ in range(200)]
        sources = [case.input for case in corpus_cases] + ambiguous + MULTI_PARSE_TEXTS + quantified
        for source in sources:
            memo: dict = {}
            for tree in parse_source(source).expect_trees():
                assert simplify(tree, memo) == simplify(tree), source
            (trace,) = run_pipeline(source)
            normals = tuple(simplify(tree) for tree in trace.parses)
            assert trace.normals == normals, source
            try:
                commands = tuple(translate_text(normal) for normal in normals)
            except UntranslatableNode:
                assert trace.diagnostics, source
                continue
            assert trace.commands == commands, source
            printed = tuple(dict.fromkeys(print_command(command) for command in commands))
            assert trace.printed == printed, source

    @pytest.mark.parametrize("phrases", [1, 3, 5])
    def test_assumptions_are_split_and_typed_once_per_text(self, monkeypatch, phrases):
        calls: Counter = Counter()

        def counted(module, name):
            original = getattr(module, name)

            def count(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, count)

        counted(importlib.import_module("forlean.simplify"), "_split_one")
        counted(importlib.import_module("forlean.translate"), "_bare_typing")
        clauses = " and ".join(f"x is not equal to {k}" for k in range(phrases))
        (trace,) = run_pipeline(
            f"Ex. Assume x is an integer. Assume y is an integer. Then {clauses}."
        )
        assert len(trace.printed) == 2**phrases
        assert calls == {"_split_one": 2, "_bare_typing": 2}

    def test_parses_share_the_translation_of_a_common_assumption(self):
        (trace,) = run_pipeline(
            "Ex. Assume x is a real number. Assume x is greater than 0 and x is less than 1. "
            "Then x ^ 2 - 2 * x + 2 is not equal to 0."
        )
        first, second = trace.commands
        assert first.binders[1].prop is second.binders[1].prop


def _collect(node, cls):
    import dataclasses

    found = []

    def visit(n):
        if isinstance(n, cls):
            found.append(n)
        if dataclasses.is_dataclass(n):
            for f in dataclasses.fields(n):
                visit(getattr(n, f.name))
        elif isinstance(n, tuple):
            for item in n:
                visit(item)

    visit(node)
    return found
