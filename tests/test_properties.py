"""Generator-based suites: grammatical sentences through parse/simplify,
token-level round trips, and brute-force truth-value checks for the
quantifier semantics."""

import random

from conftest import parse_source, reserved
from forlean.lean import AndP, ArithT, Exists, Forall, IffP, Imp, LitT, NotP, OrP, PredApp, Rel, VarT
from forlean.lexicon import preprocess, tokenize
from forlean.parsing import parse_text
from forlean.simplify import simplify
from forlean.translate import translate_text
from normal_form import is_normal_form

# --- grammatical sentence generator -------------------------------------------

LETTERS = "abckmnrxyz"
NOUNS = ["integer", "integers", "real number", "real numbers", "rational number"]
ADJ0 = ["positive", "odd", "even", "nonnegative", "negative"]
ADJ1 = [
    "less than",
    "less than or equal to",
    "greater than",
    "greater than or equal to",
    "equal to",
    "not equal to",
]
QUANTIFIERS = ["every", "some", "no"]


class SentenceGenerator:
    """Random texts built rule-by-rule from the surface grammar, so every
    output is grammatical by construction."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def text(self) -> str:
        parts = ["ex."]
        for _ in range(self.rng.randint(0, 2)):
            parts.append(f"assume {self.statement(2)}.")
        parts.append(f"then {self.statement(2)}.")
        return " ".join(parts)

    def statement(self, depth: int, allow_ifthen: bool = True) -> str:
        # "if ... then" binds loosest, so it can only start a statement (or a
        # prefix-form body); operands of the binary connectives exclude it
        if depth <= 0:
            return self.clause(0)
        roll = self.rng.random()
        if allow_ifthen and roll < 0.08:
            return f"if {self.statement(depth - 1)} then {self.statement(depth - 1)}"
        if roll < 0.40:
            return self.clause(depth)
        if roll < 0.50:
            return f"{self.operand(depth)} and {self.operand(depth)}"
        if roll < 0.56:
            return f"{self.operand(depth)}, {self.operand(depth)}"
        if roll < 0.66:
            return f"{self.operand(depth)} or {self.operand(depth)}"
        if roll < 0.74:
            return f"{self.operand(depth)} iff {self.operand(depth)}"
        if roll < 0.82:
            return f"it's not that {self.statement(depth - 1)}"
        if roll < 0.92:
            quantifier = self.rng.choice(QUANTIFIERS)
            return f"for {quantifier} {self.notion(depth - 1)}, {self.statement(depth - 1)}"
        verb = self.rng.choice(["there exists an", "there exists a", "there exist", "there exists no", "there exist no"])
        return f"{verb} {self.notion(depth - 1)}"

    def operand(self, depth: int) -> str:
        return self.statement(depth - 1, allow_ifthen=False)

    def clause(self, depth: int) -> str:
        subject = self.term(depth, allow_quantified=True)
        copula = self.rng.choice(["is", "is", "is", "are"])
        return f"{subject} {copula} {self.predicate(depth)}"

    def predicate(self, depth: int) -> str:
        neg = "not " if self.rng.random() < 0.2 else ""
        roll = self.rng.random()
        if roll < 0.35:
            return f"{neg}{self.rng.choice(ADJ0)}"
        if roll < 0.70:
            return f"{neg}{self.rng.choice(ADJ1)} {self.term(depth, allow_quantified=True)}"
        if roll < 0.90:
            article = self.rng.choice(["a ", "an ", ""])
            return f"{neg}{article}{self.notion(depth)}"
        return f"{neg}{self.term(depth, allow_quantified=False)}"

    def notion(self, depth: int) -> str:
        parts = []
        if self.rng.random() < 0.4:
            parts.append(self.rng.choice(ADJ0))
        parts.append(self.rng.choice(NOUNS))
        if self.rng.random() < 0.4:
            parts.append(self.rng.choice(LETTERS))
        if depth > 0:
            roll = self.rng.random()
            if roll < 0.25:
                neg = "not " if self.rng.random() < 0.2 else ""
                parts.append(f"{neg}{self.rng.choice(ADJ1)} {self.term(depth - 1, False)}")
            elif roll < 0.35:
                parts.append(f"that is {self.rng.choice(ADJ0)}")
            elif roll < 0.55:
                parts.append(f"such that {self.statement(depth - 1)}")
        return " ".join(parts)

    def term(self, depth: int, allow_quantified: bool) -> str:
        if allow_quantified and depth > 0 and self.rng.random() < 0.15:
            return f"{self.rng.choice(QUANTIFIERS)} {self.notion(depth - 1)}"
        if depth > 0 and self.rng.random() < 0.45:
            roll = self.rng.random()
            if roll < 0.25:
                return f"({self.term(depth - 1, False)})"
            op = self.rng.choice("+-*/^")
            return f"{self.term(depth - 1, False)} {op} {self.term(depth - 1, False)}"
        if self.rng.random() < 0.5:
            return self.rng.choice(LETTERS)
        return str(self.rng.randint(-9, 9))


class QuantifiedOperandGenerator(SentenceGenerator):
    """Generator texts in which arithmetic operands may be quantified terms."""

    def term(self, depth: int, allow_quantified: bool) -> str:
        if depth > 0 and self.rng.random() < 0.3:
            quantified = f"{self.rng.choice(QUANTIFIERS)} {self.notion(0)}"
            other = super().term(depth - 1, False)
            op = self.rng.choice("+-*/^")
            if self.rng.random() < 0.5:
                return f"{other} {op} {quantified}"
            return f"{quantified} {op} {other}"
        return super().term(depth, allow_quantified)


def generate_sentences(count: int, seed: int = 20240317) -> list[str]:
    generator = SentenceGenerator(seed)
    return [generator.text() for _ in range(count)]


def check_generated_sentences(count: int = 250) -> int:
    """Parse, simplify and re-simplify generated sentences; returns how many
    trees were checked."""
    checked = 0
    for source in generate_sentences(count):
        trees = parse_source(source).expect_trees()
        for tree in trees:
            normal = simplify(tree, reserved(source))
            assert is_normal_form(normal), source
            assert simplify(normal, reserved(source)) == normal, source
            checked += 1
    return checked


def test_generated_sentences_parse_and_normalize():
    assert check_generated_sentences(250) >= 250


def test_generated_sentences_tokenize_roundtrip():
    for source in generate_sentences(100, seed=7):
        tokens = tokenize(preprocess(source))
        assert tokenize(" ".join(t.text for t in tokens)) == tokens


def test_random_token_streams_roundtrip():
    rng = random.Random(99)
    vocabulary = ["ex", "assume", "integer", "odd", "it's", *LETTERS]
    for _ in range(200):
        pieces = []
        for _ in range(rng.randint(1, 12)):
            roll = rng.random()
            if roll < 0.4:
                pieces.append(rng.choice(vocabulary))
            elif roll < 0.6:
                pieces.append(str(rng.randint(-20, 20)))
            elif roll < 0.85:
                pieces.append(rng.choice("+-*/^(),"))
            else:
                pieces.append(".")
        text = " ".join(pieces)
        tokens = tokenize(text)
        assert tokenize(" ".join(t.text for t in tokens)) == tokens
        result = parse_text(tokens)
        if not result.ok:
            # a failed parse names what it expected, at bytes of this stream
            ((span, message),) = result.diagnostics
            assert message.startswith("expected ") and not message.startswith("expected ;")
            assert 0 <= span[0] <= span[1] <= len(text.encode())


# --- brute-force model checking ----------------------------------------------------

DOMAIN = range(-4, 5)

PRED_SEMANTICS = {
    "pos": lambda v: v > 0,
    "odd": lambda v: v % 2 != 0,
    "even": lambda v: v % 2 == 0,
    "nneg": lambda v: v >= 0,
    "neg": lambda v: v < 0,
}

REL_SEMANTICS = {
    "<": lambda a, b: a < b,
    "≤": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "≥": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
    "≠": lambda a, b: a != b,
}


def eval_term(t, env):
    match t:
        case VarT(name):
            return env[name]
        case LitT(value):
            return value
        case ArithT(op, left, right):
            a, b = eval_term(left, env), eval_term(right, env)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "^":
                assert b >= 0, "test formulas use literal nonnegative exponents"
                return a**b
            raise AssertionError(f"operator {op} not used in the checked formulas")
    raise AssertionError(f"unexpected term {t!r}")


def eval_prop(p, env) -> bool:
    match p:
        case Rel(op, left, right):
            return REL_SEMANTICS[op](eval_term(left, env), eval_term(right, env))
        case PredApp(pred, arg):
            return PRED_SEMANTICS[pred](eval_term(arg, env))
        case NotP(body):
            return not eval_prop(body, env)
        case AndP(left, right):
            return eval_prop(left, env) and eval_prop(right, env)
        case OrP(left, right):
            return eval_prop(left, env) or eval_prop(right, env)
        case Imp(left, right):
            return (not eval_prop(left, env)) or eval_prop(right, env)
        case IffP(left, right):
            return eval_prop(left, env) == eval_prop(right, env)
        case Forall(name, _, body):
            return all(eval_prop(body, {**env, name: v}) for v in DOMAIN)
        case Exists(name, _, body):
            return any(eval_prop(body, {**env, name: v}) for v in DOMAIN)
    raise AssertionError(f"unexpected proposition {p!r}")


# each entry: conclusion text, free variables, hand-written truth conditions
QUANTIFIER_CASES = [
    (
        "for every integer b, a * b + a * c is even",
        "ac",
        lambda env: all((env["a"] * b + env["a"] * env["c"]) % 2 == 0 for b in DOMAIN),
    ),
    (
        "x is greater than every integer less than 32",
        "x",
        lambda env: all(env["x"] > v for v in DOMAIN if v < 32),
    ),
    (
        "no nonnegative integer a such that a is positive is not greater than x",
        "x",
        lambda env: not any(a >= 0 and a > 0 and not (a > env["x"]) for a in DOMAIN),
    ),
    (
        "no even integer greater than x is less than every negative integer",
        "x",
        lambda env: not any(
            u % 2 == 0 and u > env["x"] and all(u < w for w in DOMAIN if w < 0)
            for u in DOMAIN
        ),
    ),
    (
        "for some integer y such that y is even, y is greater than x",
        "x",
        lambda env: any(y % 2 == 0 and y > env["x"] for y in DOMAIN),
    ),
    (
        "for some integer k, k is greater than x",
        "x",
        lambda env: any(k > env["x"] for k in DOMAIN),
    ),
    (
        "there exists an integer y such that y is greater than x",
        "x",
        lambda env: any(y > env["x"] for y in DOMAIN),
    ),
    (
        "there exists no integer y such that y is less than x",
        "x",
        lambda env: not any(y < env["x"] for y in DOMAIN),
    ),
    (
        "for no integer k, k is less than x",
        "x",
        lambda env: not any(k < env["x"] for k in DOMAIN),
    ),
    (
        "for every integer k such that k is positive, k ^ 2 is greater than 0",
        "",
        lambda env: all(not (k > 0) or k**2 > 0 for k in DOMAIN),
    ),
]


def goal_formula(conclusion: str):
    source = f"Ex. Then {conclusion}."
    (tree,) = parse_source(source).expect_trees()
    command = translate_text(simplify(tree, reserved(source)))
    assert command.binders == ()
    return command.goal


def environments(free: str):
    if not free:
        yield {}
        return
    first, rest = free[0], free[1:]
    for value in DOMAIN:
        for env in environments(rest):
            yield {first: value, **env}


def check_quantifier_semantics() -> int:
    checked = 0
    for conclusion, free, reference in QUANTIFIER_CASES:
        goal = goal_formula(conclusion)
        for env in environments(free):
            assert eval_prop(goal, env) == reference(env), (conclusion, env)
            checked += 1
    return checked


def test_quantifier_semantics_against_brute_force():
    assert len(QUANTIFIER_CASES) == 10
    assert check_quantifier_semantics() > 0
