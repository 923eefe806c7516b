import pkgutil
from pathlib import Path

import pytest

import forlean
from forlean.lean import (
    AndP,
    ArithT,
    DuplicateBinderName,
    Exists,
    Forall,
    HypBinder,
    IffP,
    Imp,
    LeanCommand,
    LitT,
    NotP,
    OrP,
    PredApp,
    Rel,
    TypeBinder,
    VarT,
    alpha_equivalent,
    normalize_names,
    print_command,
    print_prop,
    print_term,
)
from forlean.lean_reader import LeanReadError, read_command
from forlean.pipeline import run_pipeline
from test_properties import QuantifiedOperandGenerator, generate_sentences

X = VarT("x")

# Lean 4's precedences, written out again for the printer below so that its
# property does not check lean.NOTATION against itself: the precedence of the
# whole and the least precedences of the left and right operands
LEAN_MAX = 1024
LEAN_BINARY = {
    IffP: (20, 21, 21),
    Imp: (25, 26, 25),
    OrP: (30, 31, 30),
    AndP: (35, 36, 35),
    Rel: (50, 51, 51),
    "+": (65, 65, 66),
    "-": (65, 65, 66),
    "*": (70, 70, 71),
    "/": (70, 70, 71),
    "^": (75, 76, 75),
}
LEAN_SYMBOL = {IffP: "↔", Imp: "→", OrP: "∨", AndP: "∧"}


def print_minimal(node, prec: int = 0, follow: int | None = None) -> str:
    """``node`` with only the parentheses Lean needs, in a slot that takes
    precedence ``prec`` or more and is followed by an operator of precedence
    ``follow`` (None when nothing follows).  Lean reads a negative literal as
    ``prefix:75 "-"`` applied to a literal, and ¬ (``p:40``), ∀ and ∃ (body
    at 0) reach right over any operator of at least their body's precedence."""
    reach = None
    match node:
        case VarT(name):
            own, text = LEAN_MAX, name
        case LitT(value) if value < 0:
            own, reach, text = 75, 75, str(value)
        case LitT(value):
            own, text = LEAN_MAX, str(value)
        case PredApp(pred, arg):
            own, text = LEAN_MAX, f"{pred} {print_minimal(arg, LEAN_MAX, None)}"
        case NotP(body):
            own, reach = LEAN_MAX, 40
            text = f"¬ {print_minimal(body, 40, follow)}"
        case Forall(name, type_, body) | Exists(name, type_, body):
            own, reach = LEAN_MAX - 1, 0
            head = "∀" if type(node) is Forall else "∃"
            text = f"{head} ({name} : {type_}), {print_minimal(body, 0, follow)}"
        case Rel(op, left, right) | ArithT(op, left, right):
            own, left_prec, right_prec = LEAN_BINARY[Rel if type(node) is Rel else op]
            left_text = print_minimal(left, left_prec, own)
            text = f"{left_text} {op} {print_minimal(right, right_prec, follow)}"
        case AndP(left, right) | OrP(left, right) | Imp(left, right) | IffP(left, right):
            own, left_prec, right_prec = LEAN_BINARY[type(node)]
            left_text = print_minimal(left, left_prec, own)
            text = f"{left_text} {LEAN_SYMBOL[type(node)]} {print_minimal(right, right_prec, follow)}"
    absorbs = reach is not None and follow is not None and follow >= reach
    if own < prec or absorbs:
        return f"({print_minimal(node)})"
    return text


def print_command_minimal(command: LeanCommand) -> str:
    binders = [
        f"({b.name} : {b.type})" if isinstance(b, TypeBinder) else f"({b.label} : {print_minimal(b.prop)})"
        for b in command.binders
    ]
    return " ".join(["example", *binders, ":", print_minimal(command.goal), ":= sorry"])


def test_star_import():
    # a star import fails on any name in __all__ that the module lacks
    for module in ["forlean", *(m.name for m in pkgutil.iter_modules(forlean.__path__, "forlean."))]:
        namespace: dict = {}
        exec(f"from {module} import *", namespace)
        if module == "forlean.lean":
            assert "print_command" in namespace
        if module == "forlean":
            assert {"run_pipeline", "simplify", "reserved_ids"} <= namespace.keys()


class TestPrintTerm:
    def test_compound_always_parenthesized(self):
        term = ArithT("+", ArithT("^", X, LitT(2)), LitT(1))
        assert print_term(term) == "((x ^ 2) + 1)"

    def test_negative_literal(self):
        assert print_term(LitT(-2)) == "-2"

    def test_atom_bare(self):
        assert print_term(X) == "x"


class TestPrintProp:
    def test_forall_with_condition(self):
        prop = Forall("x34", "ℤ", Imp(Rel("<", VarT("x34"), LitT(32)), Rel(">", X, VarT("x34"))))
        assert print_prop(prop) == "∀ (x34 : ℤ), (x34 < 32 → x > x34)"

    def test_negated_forall(self):
        prop = NotP(
            Forall(
                "x53",
                "ℤ",
                Imp(PredApp("neg", VarT("x53")), Rel("<", VarT("x32"), VarT("x53"))),
            )
        )
        assert print_prop(prop) == "(¬ ∀ (x53 : ℤ), (neg x53 → x32 < x53))"

    def test_double_negation(self):
        prop = NotP(NotP(Rel(">", VarT("a"), X)))
        assert print_prop(prop) == "(¬ (¬ a > x))"

    def test_relation_unparenthesized(self):
        assert print_prop(Rel("≠", X, LitT(0))) == "x ≠ 0"

    def test_connectives(self):
        even_x = PredApp("even", X)
        odd_x = PredApp("odd", X)
        assert print_prop(AndP(even_x, odd_x)) == "(even x ∧ odd x)"
        assert print_prop(OrP(even_x, odd_x)) == "(even x ∨ odd x)"
        assert print_prop(IffP(even_x, odd_x)) == "(even x ↔ odd x)"

    def test_exists(self):
        assert print_prop(Exists("y", "ℚ", PredApp("pos", VarT("y")))) == (
            "∃ (y : ℚ), pos y"
        )


    @pytest.mark.parametrize("connective, symbol", [(AndP, "∧"), (OrP, "∨"), (Imp, "→"), (IffP, "↔")])
    @pytest.mark.parametrize("quantifier, head", [(Forall, "∀"), (Exists, "∃")])
    def test_quantifier_as_left_operand_is_parenthesized(self, connective, symbol, quantifier, head):
        # a quantifier reaches as far right as it can, so only a left operand
        # needs closing; Lean reads the right one the same either way
        quantified = quantifier("y", "ℤ", PredApp("odd", VarT("y")))
        even_x = PredApp("even", X)
        assert print_prop(connective(quantified, even_x)) == (
            f"(({head} (y : ℤ), odd y) {symbol} even x)"
        )
        assert print_prop(connective(even_x, quantified)) == (
            f"(even x {symbol} {head} (y : ℤ), odd y)"
        )


class TestPrintCommand:
    def test_binders_and_goal(self):
        command = LeanCommand(
            (
                TypeBinder("x", "ℝ"),
                HypBinder("h1", Rel("<", X, LitT(0))),
            ),
            Rel(">", ArithT("+", ArithT("^", X, LitT(2)), LitT(1)), LitT(0)),
        )
        assert print_command(command) == (
            "example (x : ℝ) (h1 : x < 0) : ((x ^ 2) + 1) > 0 := sorry"
        )

    def test_zero_binders(self):
        command = LeanCommand((), Rel(">", LitT(4), LitT(3)))
        assert print_command(command) == "example : 4 > 3 := sorry"

    def test_goal_quantifier_without_parens(self):
        command = LeanCommand(
            (
                TypeBinder("a", "ℤ"),
                HypBinder("h1", PredApp("odd", VarT("a"))),
                TypeBinder("c", "ℤ"),
                HypBinder("h2", PredApp("odd", VarT("c"))),
            ),
            Forall(
                "b",
                "ℤ",
                PredApp(
                    "even",
                    ArithT("+", ArithT("*", VarT("a"), VarT("b")), ArithT("*", VarT("a"), VarT("c"))),
                ),
            ),
        )
        assert print_command(command) == (
            "example (a : ℤ) (h1 : odd a) (c : ℤ) (h2 : odd c) : "
            "∀ (b : ℤ), even ((a * b) + (a * c)) := sorry"
        )

    def test_single_assignment_and_sorry(self, corpus_cases):
        for case in corpus_cases:
            for expected in case.expected:
                assert expected.count(":=") == 1
                assert expected.endswith("sorry")

    def test_duplicate_binder_names_rejected(self):
        command = LeanCommand(
            (TypeBinder("x", "ℤ"), TypeBinder("x", "ℤ")),
            Rel(">", LitT(4), LitT(3)),
        )
        with pytest.raises(DuplicateBinderName):
            print_command(command)


class TestNormalizeNames:
    def test_labels_renumbered_in_binder_order(self):
        source = (
            "example (a : ℤ) (h106 : odd a) (b : ℤ) (h85 : odd b) (c : ℤ) (h64 : odd c) "
            "(h51 : ((a + b) + c) = 0) : ((a * b) * c) < 0 := sorry"
        )
        normalized = normalize_names(read_command(source))
        labels = [b.label for b in normalized.binders if isinstance(b, HypBinder)]
        assert labels == ["h1", "h2", "h3", "h4"]
        assert alpha_equivalent(read_command(source), normalized)

    def test_generated_variables_renumbered(self):
        source = (
            "example (x : ℤ) (h111 : odd x) (h98 : x > 3) : ∀ (x32 : ℤ), "
            "((even x32 ∧ x32 > x) → (¬ ∀ (x53 : ℤ), (neg x53 → x32 < x53))) := sorry"
        )
        normalized = normalize_names(read_command(source))
        printed = print_command(normalized)
        assert "x32" not in printed and "x53" not in printed
        assert "∀ (x1 : ℤ)" in printed and "∀ (x2 : ℤ)" in printed
        assert alpha_equivalent(read_command(source), normalized)

    def test_user_letters_untouched(self):
        source = "example (x : ℚ) (h39 : x = (2 + (2 * 2))) : x > 3 := sorry"
        printed = print_command(normalize_names(read_command(source)))
        assert printed == "example (x : ℚ) (h1 : x = (2 + (2 * 2))) : x > 3 := sorry"

    def test_fixpoint(self):
        source = "example (x : ℤ) (h1 : even x) : ∀ (x1 : ℤ), x1 < x := sorry"
        command = read_command(source)
        assert normalize_names(command) == command

    def test_alpha_equivalence_on_corpus(self, corpus_cases):
        for case in corpus_cases:
            for expected in case.expected:
                command = read_command(expected)
                assert alpha_equivalent(command, normalize_names(command)), case.id


class TestAlphaEquivalence:
    def test_label_names_ignored(self):
        a = read_command("example (x : ℤ) (h9 : even x) : odd x := sorry")
        b = read_command("example (x : ℤ) (h1 : even x) : odd x := sorry")
        assert alpha_equivalent(a, b)

    def test_bound_variable_renaming(self):
        a = read_command("example : ∀ (x34 : ℤ), x34 < 32 := sorry")
        b = read_command("example : ∀ (x1 : ℤ), x1 < 32 := sorry")
        assert alpha_equivalent(a, b)

    def test_structural_difference_detected(self):
        a = read_command("example : ∀ (x1 : ℤ), x1 < 32 := sorry")
        b = read_command("example : ∀ (x1 : ℤ), x1 > 32 := sorry")
        assert not alpha_equivalent(a, b)

    def test_type_difference_detected(self):
        a = read_command("example (x : ℤ) : odd x := sorry")
        b = read_command("example (x : ℝ) : odd x := sorry")
        assert not alpha_equivalent(a, b)

    def test_free_variable_must_match(self):
        a = read_command("example : x > 3 := sorry")
        b = read_command("example : y > 3 := sorry")
        assert not alpha_equivalent(a, b)

    def test_renaming_must_be_one_to_one(self):
        a = read_command("example : ∀ (x : ℤ), ∀ (y : ℤ), x < y := sorry")
        b = read_command("example : ∀ (a : ℤ), ∀ (a : ℤ), a < a := sorry")
        assert not alpha_equivalent(a, b)
        assert not alpha_equivalent(b, a)

    def test_binder_must_not_capture_an_outer_name(self):
        a = read_command("example (x : ℤ) : ∀ (y : ℤ), x < y := sorry")
        b = read_command("example (x : ℤ) : ∀ (x : ℤ), x < x := sorry")
        assert not alpha_equivalent(a, b)
        assert not alpha_equivalent(b, a)

    def test_binder_must_not_capture_a_free_name(self):
        a = read_command("example : ∀ (y : ℤ), x < y := sorry")
        b = read_command("example : ∀ (x : ℤ), x < x := sorry")
        assert not alpha_equivalent(a, b)
        assert not alpha_equivalent(b, a)

    def test_shadowing_renamed_consistently(self):
        a = read_command("example : ∀ (x : ℤ), ∀ (x : ℤ), x < 1 := sorry")
        b = read_command("example : ∀ (a : ℤ), ∀ (b : ℤ), b < 1 := sorry")
        assert alpha_equivalent(a, b)
        assert alpha_equivalent(b, a)
        # a binder after a shadowing one is one level deeper than the names
        # in scope, so it cannot take the level of the name it shadowed
        a = read_command("example : ∀ (x : ℤ), ∀ (y : ℤ), ∀ (x : ℤ), ∀ (z : ℤ), x < z := sorry")
        b = read_command("example : ∀ (x : ℤ), ∀ (y : ℤ), ∀ (x : ℤ), ∀ (z : ℤ), z < z := sorry")
        assert not alpha_equivalent(a, b)
        assert not alpha_equivalent(b, a)


class TestReader:
    def test_roundtrips_every_corpus_output(self, corpus_cases):
        for case in corpus_cases:
            for expected in case.expected:
                reconstructed = print_command(read_command(expected))
                assert reconstructed == " ".join(expected.split()), case.id

    def test_quantifier_body_reaches_as_far_right_as_in_lean(self):
        command = read_command("example (x : ℤ) : (∀ (y : ℤ), odd y ∨ even x) := sorry")
        assert command.goal == Forall(
            "y", "ℤ", OrP(PredApp("odd", VarT("y")), PredApp("even", X))
        )

    def test_reads_a_parenthesized_quantifier(self):
        command = read_command("example (x : ℤ) : ((∃ (y : ℤ), odd y) ∧ even x) := sorry")
        assert command.goal == AndP(
            Exists("y", "ℤ", PredApp("odd", VarT("y"))), PredApp("even", X)
        )

    def test_bare_connectives_in_a_quantifier_body_use_lean_precedence(self):
        # ∧ binds tighter than ∨, ∨ than →, → than ↔; ∧ ∨ → group to the right
        odd, even, pos, neg = (PredApp(p, VarT("y")) for p in ("odd", "even", "pos", "neg"))
        command = read_command(
            "example : ∀ (y : ℤ), odd y ∧ even y ∨ pos y → neg y ↔ odd y → even y → pos y "
            ":= sorry"
        )
        assert command.goal == Forall(
            "y",
            "ℤ",
            IffP(Imp(OrP(AndP(odd, even), pos), neg), Imp(odd, Imp(even, pos))),
        )
        with pytest.raises(LeanReadError):  # ↔ does not associate
            read_command("example : ∀ (y : ℤ), odd y ↔ even y ↔ pos y := sorry")

    @pytest.mark.parametrize(
        "goal, read",
        [
            ("x + 1 < 3", Rel("<", ArithT("+", X, LitT(1)), LitT(3))),
            ("(x + 1) * 2 < 3", Rel("<", ArithT("*", ArithT("+", X, LitT(1)), LitT(2)), LitT(3))),
            ("x > 0 ∧ x < 3", AndP(Rel(">", X, LitT(0)), Rel("<", X, LitT(3)))),
            ("¬ x = 0", NotP(Rel("=", X, LitT(0)))),
            ("¬ odd x ∧ even x", AndP(NotP(PredApp("odd", X)), PredApp("even", X))),
            # infix:50 neither associates nor chains
            ("x < y < z", "< does not associate"),
            ("-x < 3", "prefix '-' on a non-literal is outside forlean's fragment"),
            ("∀ (2 : ℤ), 2 < x", "bad binder name '2'"),
        ],
    )
    def test_reads_lean_notation(self, goal, read):
        text = f"example (x : ℤ) : {goal} := sorry"
        if isinstance(read, str):
            with pytest.raises(LeanReadError) as raised:
                read_command(text)
            assert str(raised.value) == read
        else:
            assert read_command(text).goal == read

    def test_reads_commands_printed_with_only_the_parentheses_lean_needs(self, corpus_cases):
        generator = QuantifiedOperandGenerator(seed=4242)
        sources = [
            *(case.input for case in corpus_cases),
            *Path(__file__).parent.joinpath("data", "translate.input").read_text("utf-8").splitlines(),
            *generate_sentences(300),
            *(generator.text() for _ in range(200)),
        ]
        commands = {
            command
            for source in sources
            for trace in run_pipeline(source)
            if trace.printed
            for command in trace.commands
        }
        assert len(commands) > 300
        for command in commands:
            assert read_command(print_command_minimal(command)) == command

    @pytest.mark.parametrize(
        "text, unreadable",
        [
            ("example : x @ y := sorry", "' @ '"),
            ("example : odd x := sorry  §§ ", "'  §§ '"),
            ("@ example : odd x := sorry", "'@ '"),
            ("example : odd x\t@# 1 := sorry", "'\\t@# '"),
        ],
    )
    def test_unreadable_input_names_the_first_unreadable_text(self, text, unreadable):
        with pytest.raises(LeanReadError) as raised:
            read_command(text)
        assert str(raised.value) == f"unreadable input at {unreadable}"

    def test_integer_literal_too_long(self):
        # more digits than Python converts to an int (4,300 by default)
        with pytest.raises(LeanReadError) as raised:
            read_command(f"example : {'9' * 5000} > 3 := sorry")
        assert str(raised.value) == "integer literal too long"

    def test_rejects_garbage(self):
        with pytest.raises(LeanReadError):
            read_command("example : := sorry")
        with pytest.raises(LeanReadError):
            read_command("theorem foo : 1 < 2 := sorry")
        with pytest.raises(LeanReadError):
            read_command("example : 1 < 2 := sorry trailing")
