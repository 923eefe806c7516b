import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

from conftest import expect_trees, parse_source, reserved
from forlean.forthel import (
    And,
    BinApp,
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
    Quantified,
    SuchThat,
    Unnamed,
    Var,
    linearize_forthel,
)
from forlean.lean import print_command
from forlean.lexicon import preprocess, tokenize
from forlean.parsing import parse_text
from forlean.pipeline import run_pipeline, split_texts
from forlean.simplify import (
    NameSupply,
    _flatten_one,
    _raise_does,
    _split_all,
    _unify_one,
    reserved_ids,
    simplify,
    typed_notion,
)
from forlean.translate import UntranslatableNode, translate_text
from forlean.tree import iter_nodes, transform
from normal_form import is_normal_form, normal_form_violations
from test_properties import QuantifiedOperandGenerator, generate_sentences

POS = Polarity.POS
DATA = Path(__file__).parent / "data"
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
    return expect_trees(parse_source(source))[0]


def named_first_parse(source: str):
    """The first parse of ``source``, each unnamed notion given a fresh id in
    field order."""
    supply = NameSupply(reserved(source))
    return transform(first_parse(source), lambda n: Meta(supply.fresh()) if type(n) is Unnamed else n)


class TestAssignNames:
    def test_unnamed_get_distinct_fresh_ids(self):
        named = named_first_parse(
            "Ex. Assume x is an integer. Assume x is greater than 2. "
            "Then no odd integer less than 1 is greater than x."
        )
        ids = [m.ident for m in _collect(named, Meta)]
        assert len(ids) == 2
        assert len(set(ids)) == 2  # pairwise distinct

    def test_fixpoint_when_everything_named(self):
        source = "Ex. Assume x is an integer x. Then x is odd."
        assert named_first_parse(source) == first_parse(source)

    def test_two_unnamed_in_one_sentence(self):
        named = named_first_parse("Ex. Then every integer is greater than some integer.")
        ids = [m.ident for m in _collect(named, Meta)]
        assert len(ids) == 2 and ids[0] != ids[1]

    def test_memo_keys_on_node_and_next_fresh_id(self):
        stmt = Does(Var("x"), IsNotion(POS, Notion("INTEGER", Unnamed())))
        memo: dict = {}

        def fresh_names(supply):
            return transform(stmt, lambda n: Meta(supply.fresh()) if type(n) is Unnamed else n, memo, supply)

        first = fresh_names(NameSupply(frozenset()))
        supply = NameSupply(frozenset())
        assert fresh_names(supply) is first  # a hit
        assert supply.next_id == 2  # as the first visit left it
        assert first.predicate.notion.name == Meta(1)
        later = NameSupply(frozenset(), next_id=5)  # the same subtree after four fresh names
        assert fresh_names(later).predicate.notion.name == Meta(5)
        assert later.next_id == 6


class TestUnifyVariables:
    def test_meta_unifies_with_subject_variable(self):
        stmt = Does(Var("x"), IsNotion(POS, Notion("RATIONAL_NUMBER", Meta(6))))
        text = ForthelText(Example((stmt,), Does(Var("x"), IsAdj(POS, "ODD"))))
        unified = transform(text, _unify_one)
        assert unified.example.assumptions[0] == Does(
            Var("x"), IsNotion(POS, Notion("RATIONAL_NUMBER", Named("x")))
        )

    def test_non_variable_subject_keeps_meta(self):
        stmt = Does(IntLit(4), IsNotion(POS, Notion("INTEGER", Meta(7))))
        text = ForthelText(Example((stmt,), Does(Var("x"), IsAdj(POS, "ODD"))))
        assert transform(text, _unify_one) == text

    def test_already_named_unchanged(self):
        stmt = Does(Var("x"), IsNotion(POS, Notion("INTEGER", Named("x"))))
        text = ForthelText(Example((stmt,), Does(Var("x"), IsAdj(POS, "ODD"))))
        assert transform(text, _unify_one) == text


class TestRaiseQuantifiers:
    def test_quantified_subject_moves_out(self):
        stmt = first_parse(
            "Ex. Then every integer x greater than 1 is greater than 2."
        ).example.conclusion
        raised = transform(stmt, _raise_does)
        assert isinstance(raised, ForQuantified)
        assert linearize_forthel(raised) == (
            "for every integer x greater than 1, x is greater than 2"
        )

    def test_subject_then_predicate_nesting(self):
        named = named_first_parse(
            "Ex. Then no even integer greater than x is less than every negative integer."
        )
        raised = transform(named.example.conclusion, _raise_does)
        # subject quantifier outermost, predicate quantifier nested inside
        assert isinstance(raised, ForQuantified)
        assert raised.qnotion.quantifier.value == "no"
        inner = raised.body
        assert isinstance(inner, ForQuantified)
        assert inner.qnotion.quantifier.value == "every"
        assert isinstance(inner.body, Does)

    def test_no_quantified_terms_is_noop(self):
        stmt = first_parse("Ex. Then x is greater than 3.").example.conclusion
        assert transform(stmt, _raise_does) == stmt

    def test_quantifier_inside_adjectival_attribute_is_raised(self):
        named = named_first_parse(
            "Ex. Then x is an integer less than some integer y such that "
            "y is greater than every real number."
        )
        raised = transform(named.example.conclusion, _raise_does)
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
        assert transform(notion, _flatten_one) == Notion(
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
        assert linearize_forthel(transform(notion, _flatten_one)) == (
            "an integer x such that x is odd and x is greater than 1"
        )

    def test_left_attribute_conjunct_comes_first(self):
        notion = Notion(
            "INTEGER",
            Named("a"),
            left_attribute="NONNEGATIVE",
            right_attribute=SuchThat(Does(Var("a"), IsAdj(POS, "POSITIVE"))),
        )
        flattened = transform(notion, _flatten_one)
        condition = flattened.right_attribute.statement
        assert condition == And(
            Does(Var("a"), IsAdj(POS, "NONNEGATIVE")),
            Does(Var("a"), IsAdj(POS, "POSITIVE")),
        )

    def test_bare_notion_unchanged(self):
        notion = Notion("INTEGER", Named("x"))
        assert transform(notion, _flatten_one) == notion

    def test_meta_named_notion_uses_meta_reference(self):
        notion = Notion("INTEGER", Meta(35), left_attribute="ODD")
        flattened = transform(notion, _flatten_one)
        assert flattened.right_attribute == SuchThat(Does(MetaVar(35), IsAdj(POS, "ODD")))


class TestSplitAssumptions:
    def split_sources(self, source):
        prepared = transform(named_first_parse(source), _unify_one)
        flattened = transform(prepared, _flatten_one)
        return [linearize_forthel(a) for a in _split_all(flattened.example.assumptions)]

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


def test_typed_notion_is_that_of_a_variable_typed_by_its_own_name():
    def assumption(phrase):
        source = f"Ex. Assume {phrase}. Then x is odd."
        (typing,) = simplify(first_parse(source), reserved(source)).example.assumptions
        return typing

    assert typed_notion(assumption("x is an integer")) == Notion("INTEGER", Named("x"))
    assert typed_notion(assumption("x is not an integer")) is None
    assert typed_notion(assumption("x is an integer y")) is None


class TestSimplify:
    def test_worked_example(self):
        source = (
            "Ex. Assume x is an integer. Assume x is greater than 2. "
            "Then no odd integer less than 1 is greater than x."
        )
        expected = (
            "ex . assume x is an integer x. assume x is greater than 2. "
            "then for no integer (x 35) such that (x 35) is odd and (x 35) is less than 1, "
            "(x 35) is greater than x."
        )
        normal = simplify(first_parse(source), reserved(source))
        assert canon_ids(linearize_forthel(normal)) == canon_ids(expected)

    def test_attribute_on_typing_assumption(self):
        source = "Ex. Assume x is a rational number equal to 2 * 2. Then x is greater than 3."
        normal = simplify(first_parse(source), reserved(source))
        assert [linearize_forthel(a) for a in normal.example.assumptions] == [
            "x is a rational number x",
            "x is equal to 2 * 2",
        ]

    def test_idempotent_on_corpus(self, corpus_cases):
        for case in corpus_cases:
            for tree in expect_trees(parse_source(case.input)):
                normal = simplify(tree, reserved(case.input))
                assert simplify(normal, reserved(case.input)) == normal, case.id

    def test_normal_form_accepted(self, corpus_cases):
        for case in corpus_cases:
            for tree in expect_trees(parse_source(case.input)):
                assert is_normal_form(simplify(tree, reserved(case.input))), case.id

    def test_raw_parses_rejected(self, corpus_cases):
        # every corpus input names a type via an unnamed notion, so no raw
        # parse is in normal form
        seen = set()
        for case in corpus_cases:
            for tree in expect_trees(parse_source(case.input)):
                violations = normal_form_violations(tree)
                assert violations, case.id
                seen.update(violations)
        assert "left attribute ODD" in seen

    def test_in_situ_quantifier_rejected(self):
        (tree,) = expect_trees(parse_source("Ex. Then x is greater than every integer less than 32."))
        assert "in-situ quantified term" in normal_form_violations(tree)

    def test_unsplit_typing_assumption_rejected(self):
        source = "Ex. Assume x is an integer x such that x is odd. Then x is odd."
        (tree,) = expect_trees(parse_source(source))
        assert "unsplit typing assumption" in normal_form_violations(tree)
        assert is_normal_form(simplify(tree, reserved(source)))


class TestNameSupply:
    def test_skips_names_already_in_use(self):
        supply = NameSupply(frozenset({1, 3}))
        assert [supply.fresh() for _ in range(4)] == [2, 4, 5, 6]

    def test_reserves_the_ids_written_in_the_tokens(self):
        # a word holds letters only, so the user's y can never be x<n>
        supply = NameSupply(reserved("Ex. Assume y is an integer (x 2). Then y is odd."))
        assert supply.reserved == {2}
        assert supply.fresh() == 1
        assert supply.fresh() == 3

    def test_reserved_ids_are_the_generated_names_of_every_parse(self, corpus_cases):
        # the walk simplify no longer makes: every parse holds a Meta or
        # MetaVar for each ( x N ) group of its tokens, and no other
        def idents(tree):
            return {n.ident for n in iter_nodes(tree) if type(n) in (Meta, MetaVar)}

        generator = QuantifiedOperandGenerator(seed=2121)
        probes = [
            "Ex. Assume x is an integer (x 0). Then x is odd.",
            "Ex. Then (x 01) is less than some integer.",
            "Ex. Assume y is an integer (x 2). Then (x 3) is less than y and y is a real number (x 7).",
        ]
        sources = [
            *(case.input for case in corpus_cases),
            *(DATA / "translate.input").read_text("utf-8").splitlines(),
            *generate_sentences(300),
            *(generator.text() for _ in range(200)),
            *probes,
        ]
        reserving = 0
        for source in sources:
            for _, tokens in split_texts(tokenize(preprocess(source))):
                ids = reserved_ids(tokens)
                reserving += bool(ids)
                for tree in parse_text(tokens).trees:
                    assert ids == idents(tree), source
        assert reserving >= len(probes) and all(parse_source(probe).trees for probe in probes)
        assert [reserved(probe) for probe in probes] == [{0}, {1}, {2, 3, 7}]
        # -1 is no id: the group does not parse, and the text prints nothing
        (trace,) = run_pipeline("Ex. Then ( x -1 ) is less than some integer.")
        assert not trace.parses and not trace.printed and trace.diagnostics

    def test_a_memo_shared_by_two_texts_keeps_each_texts_reserved_ids(self):
        # the second text's (x 1) is not captured by the fresh name that
        # the first text, which reserves nothing, gave its integer
        def printed(source, memo):
            trees, ids = parse_source(source).trees, reserved(source)
            return [print_command(translate_text(simplify(t, ids, memo))) for t in trees]

        first, second = "Ex. Then every integer is even.", "Ex. Then (x 1) is less than some integer."
        memo: dict = {}
        assert printed(first, memo) == printed(first, {})
        assert printed(second, memo) == printed(second, {}) == [
            "example : ∃ (x2 : ℤ), x1 < x2 := sorry"
        ]

    def test_fresh_names_disjoint_from_user_variables(self, corpus_cases):
        for case in corpus_cases:
            for tree in expect_trees(parse_source(case.input)):
                normal = simplify(tree, reserved(case.input))
                user = {v.name for v in _collect(tree, Var)}
                generated = {f"x{m.ident}" for m in _collect(normal, Meta)}
                assert user.isdisjoint(generated)

    def test_quantifier_inside_attribute_still_normalizes(self):
        # flattening exposes the in-situ quantifier; the raise/flatten loop
        # must clean it up
        source = "Ex. Then x is an integer greater than every rational number."
        normal = simplify(first_parse(source), reserved(source))
        assert is_normal_form(normal)


class TestTransform:
    def test_identity_returns_the_same_object(self, corpus_cases):
        for case in corpus_cases:
            for tree in expect_trees(parse_source(case.input)):
                assert transform(tree, lambda n: n) is tree, case.id

    def test_shared_memo_gives_the_same_normal_forms(self, corpus_cases):
        # and run_pipeline, which shares one memo across the stages and
        # parses of a text, gives what each stage gives one parse called
        # without a memo, with a fresh one of its own
        ambiguous = [s for s in generate_sentences(300) if 1 <= s.count("not equal to") <= 4]
        assert ambiguous
        generator = QuantifiedOperandGenerator(seed=6262)
        quantified = [generator.text() for _ in range(200)]
        sources = [case.input for case in corpus_cases] + ambiguous + MULTI_PARSE_TEXTS + quantified
        for source in sources:
            memo: dict = {}
            ids = reserved(source)
            for tree in expect_trees(parse_source(source)):
                assert simplify(tree, ids, memo) == simplify(tree, ids), source
            (trace,) = run_pipeline(source)
            normals = tuple(simplify(tree, ids) for tree in trace.parses)
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
        counted(importlib.import_module("forlean.translate"), "typed_notion")
        clauses = " and ".join(f"x is not equal to {k}" for k in range(phrases))
        (trace,) = run_pipeline(
            f"Ex. Assume x is an integer. Assume y is an integer. Then {clauses}."
        )
        assert len(trace.printed) == 2**phrases
        assert calls == {"_split_one": 2, "typed_notion": 2}

    def test_each_node_is_normalized_once_per_text(self, monkeypatch, corpus_cases):
        # a normal subtree draws no fresh id, so the re-walk after a rewrite
        # reuses it at whatever next id it meets it; holding each node keeps
        # its id from being reused by a later one
        module = importlib.import_module("forlean.simplify")
        original, seen = module._normalize, {}

        def once(normal, supply, n):
            assert id(n) not in seen, n
            seen[id(n)] = n
            return original(normal, supply, n)

        monkeypatch.setattr(module, "_normalize", once)
        sources = [case.input for case in corpus_cases]
        sources += (DATA / "translate.input").read_text("utf-8").splitlines()
        normalized = 0
        for source in sources:
            seen.clear()
            run_pipeline(source)
            normalized += len(seen)
        assert normalized > 0

    def test_names_and_quantifier_free_terms_are_not_walked(self, monkeypatch, corpus_cases):
        # no rewrite changes a name or a term with no quantified term in it,
        # and neither draws a fresh id, so the walk keeps them as they are
        module = importlib.import_module("forlean.simplify")
        original, kinds = module._normalize, Counter()

        def checked(normal, supply, n):
            assert type(n) not in (Var, IntLit, MetaVar, Named, Meta), n
            if type(n) is BinApp:
                assert any(type(m) is Quantified for m in iter_nodes(n)), n
            kinds[type(n)] += 1
            return original(normal, supply, n)

        monkeypatch.setattr(module, "_normalize", checked)
        generator = QuantifiedOperandGenerator(seed=6262)
        sources = [case.input for case in corpus_cases]
        sources += (DATA / "translate.input").read_text("utf-8").splitlines()
        sources += generate_sentences(300) + [generator.text() for _ in range(200)]
        for source in sources:
            run_pipeline(source)
        # quantified operands inside arithmetic are still named and raised
        assert kinds[BinApp] > 0 and kinds[Unnamed] > 0
        (trace,) = run_pipeline("Ex. Then 1 + every integer is positive.")
        assert trace.printed == ("example : ∀ (x1 : ℤ), pos (1 + x1) := sorry",)

    def test_parses_share_the_translation_of_a_common_assumption(self):
        (trace,) = run_pipeline(
            "Ex. Assume x is a real number. Assume x is greater than 0 and x is less than 1. "
            "Then x ^ 2 - 2 * x + 2 is not equal to 0."
        )
        first, second = trace.commands
        assert first.binders[1].prop is second.binders[1].prop


def _collect(node, cls):
    return [n for n in iter_nodes(node) if isinstance(n, cls)]
