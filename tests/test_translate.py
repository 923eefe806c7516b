from pathlib import Path

import pytest

from conftest import canonical, expect_trees, parse_source, reserved
from forlean import forthel as ftl
from forlean import lean
from forlean.lean import (
    AndP,
    LitT,
    PredApp,
    Rel,
    VarT,
    normalize_names,
    print_command,
    print_prop,
    print_term,
)
from forlean.lean_reader import _lex
from forlean.lexicon import default_lexicon
from forlean.simplify import _name_ref, simplify, typed_notion
from forlean.translate import (
    UntranslatableNode,
    _binders,
    translate_predicate,
    translate_statement,
    translate_term,
    translate_text,
)
from forlean.tree import _IS_NODE
from test_properties import generate_sentences

POS = ftl.Polarity.POS
NEG = ftl.Polarity.NEG


def pipeline(source: str) -> list[str]:
    trees = expect_trees(parse_source(source))
    ids = reserved(source)
    return [print_command(normalize_names(translate_text(simplify(t, ids)))) for t in trees]


class TestLexiconSemantics:
    def test_total_over_lexicon(self):
        lex = default_lexicon()
        for category in ("rawNoun0", "rawNoun2", "rawAdjective0", "rawAdjective1"):
            assert None not in lex.images(category).values(), category
        for image in lex.images("rawNoun0").values():
            assert _lex(image) == [image]
        for entry in lex.entries("rawNoun2"):
            assert entry.precedence is not None, entry.key
            assert all(len(form) == 1 for form in entry.surface), entry.key

    def test_images(self):
        lex = default_lexicon()
        assert lex.images("rawNoun0")["INTEGER"] == "ℤ"
        assert lex.images("rawAdjective0")["NONNEGATIVE"] == "nneg"
        assert lex.images("rawAdjective1")["NOT_EQUAL_TO"] == "≠"


class TestTranslateTerm:
    def test_exponent(self):
        term = ftl.BinApp("EXP", ftl.Var("x"), ftl.IntLit(2))
        assert print_prop(Rel(">", translate_term(term), LitT(0))) == "(x ^ 2) > 0"

    def test_negative_literal(self):
        assert translate_term(ftl.IntLit(-5)) == LitT(-5)

    def test_variable(self):
        assert translate_term(ftl.Var("n")) == VarT("n")

    def test_metavariable(self):
        assert translate_term(ftl.MetaVar(34)) == VarT("x34")

    def test_residual_quantifier_rejected(self):
        quantified = ftl.Quantified(
            ftl.QuantifiedNotion(ftl.Quantifier.EVERY, ftl.Notion("INTEGER", ftl.Named("k")))
        )
        with pytest.raises(UntranslatableNode):
            translate_term(quantified)


class TestTranslatePredicate:
    def test_negative_polarity_wraps(self):
        prop = translate_predicate(LitT(4), ftl.IsAdj1(NEG, "LESS_THAN", ftl.IntLit(3)))
        assert print_prop(prop) == "(¬ 4 < 3)"

    def test_lexical_not_equal(self):
        prop = translate_predicate(VarT("x"), ftl.IsAdj1(POS, "NOT_EQUAL_TO", ftl.IntLit(0)))
        assert print_prop(prop) == "x ≠ 0"

    def test_polarity_not_plus_equal(self):
        prop = translate_predicate(VarT("x"), ftl.IsAdj1(NEG, "EQUAL_TO", ftl.IntLit(0)))
        assert print_prop(prop) == "(¬ x = 0)"

    def test_is_term_becomes_equality(self):
        prop = translate_predicate(VarT("x"), ftl.IsTerm(POS, ftl.IntLit(4)))
        assert prop == Rel("=", VarT("x"), LitT(4))

    def test_notion_predicate_rejected(self):
        predicate = ftl.IsNotion(POS, ftl.Notion("INTEGER", ftl.Named("x")))
        with pytest.raises(UntranslatableNode):
            translate_predicate(VarT("x"), predicate)


class TestTranslateStatement:
    def test_no_quantifier_with_condition(self):
        source = (
            "Ex. Assume x is a real number less than 0. "
            "Then no nonnegative integer a such that a is positive is not greater than x."
        )
        (tree,) = expect_trees(parse_source(source))
        goal = translate_statement(simplify(tree, reserved(source)).example.conclusion)
        assert print_prop(goal) == "∀ (a : ℤ), ((nneg a ∧ pos a) → (¬ (¬ a > x)))"

    def test_every_without_condition_has_bare_body(self):
        source = "Ex. Then for every integer b, a * b + a * c is even."
        (tree,) = expect_trees(parse_source(source))
        goal = translate_statement(simplify(tree, reserved(source)).example.conclusion)
        assert print_prop(goal) == "∀ (b : ℤ), even ((a * b) + (a * c))"

    def test_some_with_condition_uses_conjunction(self):
        source = "Ex. Then for some integer y such that y is even, y is greater than x."
        (tree,) = expect_trees(parse_source(source))
        goal = translate_statement(simplify(tree, reserved(source)).example.conclusion)
        assert print_prop(goal) == "∃ (y : ℤ), (even y ∧ y > x)"

    def test_there_exists(self):
        source = "Ex. Then there exists an integer y such that y is greater than x."
        (tree,) = expect_trees(parse_source(source))
        goal = translate_statement(simplify(tree, reserved(source)).example.conclusion)
        assert print_prop(goal) == "∃ (y : ℤ), y > x"

    def test_there_exists_no(self):
        source = "Ex. Then there exists no integer y such that y is less than x."
        (tree,) = expect_trees(parse_source(source))
        goal = translate_statement(simplify(tree, reserved(source)).example.conclusion)
        assert print_prop(goal) == "(¬ ∃ (y : ℤ), y < x)"

    def test_bare_existential_rejected(self):
        source = "Ex. Then there exists an integer."
        (tree,) = expect_trees(parse_source(source))
        with pytest.raises(UntranslatableNode):
            translate_statement(simplify(tree, reserved(source)).example.conclusion)

    @pytest.mark.parametrize(
        "conclusion",
        [
            "for every odd integer y such that y is positive, y is even",
            "there exists an odd integer y such that y is positive",
        ],
    )
    def test_unflattened_adjective_rejected_beside_a_condition(self, conclusion):
        # an adjective the simplifier did not flatten is reported, not dropped
        (tree,) = expect_trees(parse_source(f"Ex. Then {conclusion}."))
        with pytest.raises(UntranslatableNode, match="unflattened"):
            translate_statement(tree.example.conclusion)


class TestTranslateText:
    def test_assumptions_become_binders_in_order(self):
        got = pipeline(
            "Ex. Assume x is a real number. Assume x is less than 0. "
            "Then x ^ 2 + 1 is greater than 0."
        )
        assert got == ["example (x : ℝ) (h1 : x < 0) : ((x ^ 2) + 1) > 0 := sorry"]

    def test_conditional_stays_in_goal(self):
        got = pipeline(
            "Ex. Assume n is an integer. If 1 - n ^ 2 is greater than 0 then 3 * n - 2 is even."
        )
        assert got == ["example (n : ℤ) : ((1 - (n ^ 2)) > 0 → even ((3 * n) - 2)) := sorry"]

    def test_no_assumptions(self):
        got = pipeline("Ex. Then 4 is greater than 3.")
        assert got == ["example : 4 > 3 := sorry"]

    def test_interleaved_binder_order_preserved(self):
        got = pipeline(
            "Ex. Assume a is an odd integer, b is an odd integer and c is an odd integer. "
            "Assume a + b + c is equal to 0. Then a * b * c is less than 0."
        )
        assert got == [
            "example (a : ℤ) (h1 : odd a) (b : ℤ) (h2 : odd b) (c : ℤ) (h3 : odd c) "
            "(h4 : ((a + b) + c) = 0) : ((a * b) * c) < 0 := sorry"
        ]

    def test_non_variable_typing_assumption_rejected(self):
        source = "Ex. Assume 4 is an integer. Then 4 is greater than 3."
        (tree,) = expect_trees(parse_source(source))
        with pytest.raises(UntranslatableNode):
            translate_text(simplify(tree, reserved(source)))

    def test_totality_on_corpus_normal_forms(self, corpus_cases):
        for case in corpus_cases:
            for tree in expect_trees(parse_source(case.input)):
                translate_text(simplify(tree, reserved(case.input)))  # must not raise

    def test_corpus_outputs_modulo_renaming(self, corpus_cases):
        for case in corpus_cases:
            got = sorted(canonical(p) for p in pipeline(case.input))
            expected = sorted(canonical(e) for e in case.expected)
            assert got == expected, case.id


ODD_X = PredApp("odd", VarT("x"))
UNNAMED = ftl.Notion("INTEGER", ftl.Unnamed())
ODD = ftl.IsAdj(POS, "ODD")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: translate_term(ODD), TypeError, f"not a term: {ODD!r}"),
        (lambda: translate_statement(ftl.Var("x")), TypeError, "not a statement: Var(name='x')"),
        (lambda: translate_predicate(VarT("x"), ftl.Var("y")), TypeError, "not a predicate: Var(name='y')"),
        (lambda: print_term(AndP(ODD_X, ODD_X)), TypeError, f"not a term: {AndP(ODD_X, ODD_X)!r}"),
        (lambda: print_prop(VarT("x")), TypeError, "not a proposition: VarT(name='x')"),
        # a quantified statement whose quantified notion is not one
        (
            lambda: translate_statement(ftl.ForQuantified(ftl.Var("x"), ftl.Does(ftl.Var("x"), ODD))),
            TypeError,
            f"not a statement: {ftl.ForQuantified(ftl.Var('x'), ftl.Does(ftl.Var('x'), ODD))!r}",
        ),
        (lambda: _name_ref(UNNAMED), ValueError, f"notion {UNNAMED!r} has no name"),
        (
            lambda: translate_statement(ftl.ThereExists(UNNAMED)),
            UntranslatableNode,
            "existential without a condition has no Lean image",
        ),
        (
            lambda: translate_statement(
                ftl.ThereExists(ftl.Notion("INTEGER", ftl.Unnamed(), None, ftl.SuchThat(ftl.Does(ftl.Var("x"), ODD))))
            ),
            UntranslatableNode,
            f"unnamed notion {ftl.Notion('INTEGER', ftl.Unnamed(), None, ftl.SuchThat(ftl.Does(ftl.Var('x'), ODD)))!r}",
        ),
        (
            lambda: translate_term(
                ftl.Quantified(ftl.QuantifiedNotion(ftl.Quantifier.EVERY, ftl.Notion("INTEGER", ftl.Named("k"))))
            ),
            UntranslatableNode,
            "in-situ quantified term (simplifier should have raised it)",
        ),
        (
            lambda: translate_predicate(VarT("x"), ftl.IsNotion(POS, ftl.Notion("INTEGER", ftl.Named("x")))),
            UntranslatableNode,
            "notion predicate (simplifier should have split it)",
        ),
        (
            lambda: translate_statement(ftl.ThereExists(ftl.Notion("INTEGER", ftl.Named("y"), "ODD"))),
            UntranslatableNode,
            "unflattened notion attribute",
        ),
        (
            lambda: translate_statement(ftl.ThereExists(ftl.Notion("INTEGER", ftl.Named("y"), None, ftl.IsPred(ODD)))),
            UntranslatableNode,
            "unflattened notion attribute",
        ),
    ],
)
def test_a_node_of_another_kind_raises_its_own_error(call, error, message):
    # the per-node functions dispatch on a node's exact class: what reaches
    # none of their branches raises this error with this message
    with pytest.raises(Exception) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_no_node_class_has_a_subclass():
    # ``type(node) is C`` and a class pattern ``case C()`` decide alike only
    # while no node class has a subclass, which the pattern would accept
    classes = [
        cls
        for module in (ftl, lean)
        for cls in vars(module).values()
        if isinstance(cls, type) and _IS_NODE.get(cls) and cls.__module__ == module.__name__
    ]
    assert len(classes) == 28 + 15
    for cls in classes:
        assert cls.__subclasses__() == [], cls


def test_a_type_binder_exactly_where_an_assumption_types_its_variable(corpus_cases):
    # simplify splits and translate binds by one typing test: an assumption
    # becomes a TypeBinder exactly where ``typed_notion`` finds a notion with
    # no attribute, and is otherwise a hypothesis or untranslatable
    inputs = Path(__file__).parent / "data" / "translate.input"
    sources = [case.input for case in corpus_cases] + inputs.read_text("utf-8").splitlines()
    kinds = set()
    for source in sources + generate_sentences(300):
        ids = reserved(source)
        for tree in parse_source(source).trees:
            for assumption in simplify(tree, ids).example.assumptions:
                notion = typed_notion(assumption)
                typing = notion is not None and (notion.left_attribute, notion.right_attribute) == (None, None)
                try:
                    (binder,) = _binders((assumption,), {})
                except UntranslatableNode:
                    binder = None
                assert (type(binder) is lean.TypeBinder) == typing, source
                kinds.add((typing, type(binder)))
    assert kinds == {(True, lean.TypeBinder), (False, lean.HypBinder), (False, type(None))}
