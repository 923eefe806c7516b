import json

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
    QuantifiedNotion,
    Quantifier,
    SuchThat,
    Unnamed,
    Var,
    linearize_forthel,
    to_debug_tree,
)
from forlean.lean import (
    Exists,
    HypBinder,
    LeanCommand,
    LitT,
    PredApp,
    Rel,
    TypeBinder,
    VarT,
)

POS = Polarity.POS


def test_literal():
    assert linearize_forthel(IntLit(4)) == "4"
    assert linearize_forthel(IntLit(-2)) == "-2"


def test_meta_name_prints_in_parens():
    notion = Notion("RATIONAL_NUMBER", Meta(6))
    assert linearize_forthel(notion) == "a rational number (x 6)"


def test_article_choice():
    assert linearize_forthel(Notion("INTEGER", Named("x"))) == "an integer x"
    assert linearize_forthel(Notion("INTEGER", Named("x"), left_attribute="ODD")) == "an odd integer x"
    assert linearize_forthel(Notion("REAL_NUMBER", Unnamed())) == "a real number"


def test_term_precedence_parenthesization():
    # linearization re-inserts parentheses only where precedence requires them
    four_n_cubed = BinApp("PROD", IntLit(4), BinApp("EXP", Var("n"), IntLit(3)))
    two_n_minus_1 = BinApp("MINUS", BinApp("PROD", IntLit(2), Var("n")), IntLit(1))
    assert linearize_forthel(BinApp("SUM", four_n_cubed, two_n_minus_1)) == "4 * n ^ 3 + 2 * n - 1"
    grouped = BinApp("PROD", BinApp("SUM", IntLit(2), IntLit(2)), IntLit(2))
    assert linearize_forthel(grouped) == "(2 + 2) * 2"


def test_quantified_statement():
    notion = Notion(
        "INTEGER",
        Meta(35),
        right_attribute=SuchThat(
            And(
                Does(MetaVar(35), IsAdj(POS, "ODD")),
                Does(MetaVar(35), IsAdj1(POS, "LESS_THAN", IntLit(1))),
            )
        ),
    )
    stmt = ForQuantified(
        QuantifiedNotion(Quantifier.NO, notion),
        Does(MetaVar(35), IsAdj1(POS, "GREATER_THAN", Var("x"))),
    )
    assert linearize_forthel(stmt) == (
        "for no integer (x 35) such that (x 35) is odd and (x 35) is less than 1, "
        "(x 35) is greater than x"
    )


def test_full_text():
    text = ForthelText(
        Example(
            (
                Does(Var("x"), IsNotion(POS, Notion("INTEGER", Named("x")))),
                Does(Var("x"), IsAdj1(POS, "GREATER_THAN", IntLit(2))),
            ),
            Does(Var("x"), IsAdj(POS, "EVEN")),
        )
    )
    assert (
        linearize_forthel(text)
        == "ex . assume x is an integer x. assume x is greater than 2. then x is even."
    )


def test_negated_predicate():
    stmt = Does(IntLit(4), IsAdj1(Polarity.NEG, "LESS_THAN", IntLit(3)))
    assert linearize_forthel(stmt) == "4 is not less than 3"


def test_quantified_term():
    term = Quantified(
        QuantifiedNotion(
            Quantifier.EVERY,
            Notion("INTEGER", Unnamed(), right_attribute=IsPred(IsAdj1(POS, "LESS_THAN", IntLit(32)))),
        )
    )
    assert linearize_forthel(term) == "every integer less than 32"


def test_debug_tree_dump():
    tree = to_debug_tree(Does(Var("x"), IsAdj(POS, "ODD")))
    assert tree == {
        "node": "Does",
        "subject": {"node": "Var", "name": "x"},
        "predicate": {"node": "IsAdj", "polarity": "pos", "adjective": "ODD"},
    }


def test_debug_tree_handles_tuples():
    text = ForthelText(Example((), Does(Var("x"), IsAdj(POS, "ODD"))))
    tree = to_debug_tree(text)
    assert tree["node"] == "ForthelText"
    assert tree["example"]["assumptions"] == []


def test_debug_tree_json_keeps_field_order():
    # the --show-ast and --show-lean-ast dumps are these strings, indented
    stmt = Does(Var("x"), IsNotion(Polarity.NEG, Notion("INTEGER", Meta(2), "ODD")))
    assert json.dumps(to_debug_tree(stmt), ensure_ascii=False) == (
        '{"node": "Does", "subject": {"node": "Var", "name": "x"}, '
        '"predicate": {"node": "IsNotion", "polarity": "neg", "notion": '
        '{"node": "Notion", "head": "INTEGER", "name": {"node": "Meta", "ident": 2}, '
        '"left_attribute": "ODD", "right_attribute": null}}}'
    )
    command = LeanCommand(
        (TypeBinder("x", "ℤ"), HypBinder("h1", PredApp("odd", VarT("x")))),
        Exists("y", "ℝ", Rel(">", VarT("y"), LitT(3))),
    )
    assert json.dumps(to_debug_tree(command), ensure_ascii=False) == (
        '{"node": "LeanCommand", "binders": [{"node": "TypeBinder", "name": "x", "type": "ℤ"}, '
        '{"node": "HypBinder", "label": "h1", "prop": {"node": "PredApp", "pred": "odd", '
        '"arg": {"node": "VarT", "name": "x"}}}], "goal": {"node": "Exists", "name": "y", '
        '"type": "ℝ", "body": {"node": "Rel", "op": ">", "left": {"node": "VarT", "name": "y"}, '
        '"right": {"node": "LitT", "value": 3}}}}'
    )


def test_linearization_injective_up_to_ambiguity(corpus_cases):
    # distinct normal forms may share a surface string only when that string
    # is genuinely ambiguous (e.g. polarity "not" + "equal to" versus the
    # lexical "not equal to"); any collision must reparse to all its trees
    from conftest import expect_trees, parse_source, reserved
    from forlean.simplify import simplify

    by_string: dict[str, list] = {}
    for case in corpus_cases:
        for tree in expect_trees(parse_source(case.input)):
            normal = simplify(tree, reserved(case.input))
            group = by_string.setdefault(linearize_forthel(normal), [])
            if normal not in group:
                group.append(normal)
    collisions = 0
    for string, group in by_string.items():
        if len(group) > 1:
            collisions += 1
            reparsed = expect_trees(parse_source(string))
            for normal in group:
                assert normal in reparsed, string
    assert collisions == 1  # exactly the documented "not equal to" case
