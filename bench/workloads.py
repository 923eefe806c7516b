"""Seeded workloads for the forlean benchmark, and the references their
outputs are checked against.

No reference comes from forlean.  `corpus` uses the hand-written
expectations of ``src/forlean/data/corpus.txt``.  The generated workloads
build each text from a small tree of their own and print the Lean reference
from the same tree with the README's bracketing scheme: every compound
arithmetic term and every binary or negated proposition is parenthesized,
atoms and predicate applications never are.  Outputs and references are
compared by `canonical`, which does not use forlean's Lean reader, so a
defect shared by forlean's printer and reader cannot hide in the check.

The generators keep to the grammar the README documents:

- arithmetic binds ``^`` before ``* /`` before ``-`` before ``+``, each level
  left-associative;
- statements bind "and" before "," before "or" before "iff", each
  right-associative, and "if ... then" loosest;
- "not equal to" is both the lexical unit (``≠``) and polarity "not" plus
  "equal to" (``¬ =``), so a text with k of them has 2**k parses.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("corpus", "ambiguous", "long")

LETTERS = "abckmnrxyz"
NOUNS = {"integer": "ℤ", "real number": "ℝ", "rational number": "ℚ"}
ADJECTIVES = {"positive": "pos", "odd": "odd", "even": "even", "nonnegative": "nneg", "negative": "neg"}
# "not equal to" is left out: it is the one source of ambiguity, which `long`
# must not have
RELATIONS = {
    "less than": "<",
    "less than or equal to": "≤",
    "greater than": ">",
    "greater than or equal to": "≥",
    "equal to": "=",
}
PREC = {"+": 0, "-": 1, "*": 2, "/": 2, "^": 3}
# statement connectives, loosest first, with their Lean image
LEVELS = (("iff", "↔"), ("or", "∨"), (",", "∧"), ("and", "∧"))
CONNECTIVE = dict(LEVELS)


@dataclass(frozen=True)
class Case:
    id: str
    text: str
    # the expected outputs as printed, and as compared (see `canonical`)
    expected: tuple[str, ...]
    canonical: frozenset[str]
    # whether the text is in the file the `forlean corpus` run checks
    in_cli: bool = True


def make_case(case_id: str, text: str, expected, in_cli: bool = True) -> Case:
    expected = tuple(expected)
    return Case(case_id, text, expected, frozenset(canonical(e) for e in expected), in_cli)


# --- the reference check ---------------------------------------------------------

_RENAMED = re.compile(r"\b([hx])([0-9]+)\b")


def canonical(printed: str) -> str:
    """Renumber hypothesis labels ``h<n>`` and generated variables ``x<n>``
    in order of first appearance, then collapse whitespace."""
    names: dict[str, str] = {}
    counts = {"h": 0, "x": 0}

    def rename(match: re.Match) -> str:
        old = match.group(0)
        if old not in names:
            counts[match.group(1)] += 1
            names[old] = f"{match.group(1)}{counts[match.group(1)]}"
        return names[old]

    return " ".join(_RENAMED.sub(rename, printed).split())


# --- corpus ------------------------------------------------------------------------


def load_corpus(path: Path) -> list[Case]:
    """Read the ``== id`` / ``-- input`` / ``-- expect`` blocks of a corpus file."""
    blocks: list[tuple[str, list[str], list[list[str]]]] = []
    section: list[str] | None = None
    for raw in path.read_text("utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("== "):
            blocks.append((line[3:].strip(), [], []))
            section = None
        elif line == "-- input":
            section = blocks[-1][1]
        elif line == "-- expect":
            blocks[-1][2].append([])
            section = blocks[-1][2][-1]
        elif section is None:
            raise ValueError(f"{path}: content outside a section: {line!r}")
        else:
            section.append(line)
    return [
        make_case(case_id, " ".join(lines), (" ".join(e) for e in expects))
        for case_id, lines, expects in blocks
    ]


# --- trees of the generated texts ------------------------------------------------------
#
# A term is a variable letter (str), an integer literal (int), ("op", op, l, r),
# or ("paren", t) for parentheses the English text writes but the grammar
# does not need.  A proposition is ("pred", adjective, t, negated),
# ("rel", relation words, l, r, negated), (connective symbol, p, q), or
# ("ne", l, r) for the ambiguous "l is not equal to r".


def english_term(t) -> str:
    if isinstance(t, (str, int)):
        return str(t)
    if t[0] == "paren":
        return f"({english_term(t[1])})"
    _, op, left, right = t
    ls, rs = english_term(left), english_term(right)
    if _prec(left) < PREC[op]:
        ls = f"({ls})"
    if _prec(right) <= PREC[op]:
        rs = f"({rs})"
    return f"{ls} {op} {rs}"


def _prec(t) -> int:
    return PREC[t[1]] if isinstance(t, tuple) and t[0] == "op" else len(PREC)


def lean_term(t) -> str:
    if isinstance(t, (str, int)):
        return str(t)
    if t[0] == "paren":
        return lean_term(t[1])
    _, op, left, right = t
    return f"({lean_term(left)} {op} {lean_term(right)})"


def english_clause(p) -> str:
    match p:
        case ("pred", adjective, t, negated):
            return f"{english_term(t)} is {'not ' * negated}{adjective}"
        case ("rel", words, left, right, negated):
            return f"{english_term(left)} is {'not ' * negated}{words} {english_term(right)}"
        case ("ne", left, right):
            return f"{english_term(left)} is not equal to {english_term(right)}"
    raise ValueError(f"not a clause: {p!r}")


def lean_prop(p, ne_as_negation=()) -> str:
    """Print a proposition; ``ne_as_negation`` holds the ids of the "ne"
    clauses to read as ``¬ =`` instead of ``≠``."""
    match p:
        case ("pred", adjective, t, negated):
            return _negate(f"{ADJECTIVES[adjective]} {lean_term(t)}", negated)
        case ("rel", words, left, right, negated):
            return _negate(f"{lean_term(left)} {RELATIONS[words]} {lean_term(right)}", negated)
        case ("ne", left, right):
            if id(p) in ne_as_negation:
                return f"(¬ {lean_term(left)} = {lean_term(right)})"
            return f"{lean_term(left)} ≠ {lean_term(right)}"
        case (symbol, left, right):
            return f"({lean_prop(left, ne_as_negation)} {symbol} {lean_prop(right, ne_as_negation)})"
    raise ValueError(f"not a proposition: {p!r}")


def _negate(prop: str, negated: bool) -> str:
    return f"(¬ {prop})" if negated else prop


def chain(clauses: list, connectives: list[str]):
    """The tree of ``c0 j0 c1 j1 ... cn``: split at the first connective of
    the loosest level present, since every level is right-associative."""
    for words, _ in LEVELS:
        if words in connectives:
            i = connectives.index(words)
            left = chain(clauses[: i + 1], connectives[:i])
            right = chain(clauses[i + 1 :], connectives[i + 1 :])
            return (CONNECTIVE[words], left, right)
    return clauses[0]


def english_chain(clauses: list, connectives: list[str]) -> str:
    out = english_clause(clauses[0])
    for joiner, clause in zip(connectives, clauses[1:]):
        out += ", " if joiner == "," else f" {joiner} "
        out += english_clause(clause)
    return out


def conjuncts(p) -> list:
    """Top-level conjuncts: what the simplifier splits an assumption into."""
    if isinstance(p, tuple) and p[0] == "∧":
        return conjuncts(p[1]) + conjuncts(p[2])
    return [p]


def article(phrase: str) -> str:
    return "an" if phrase[0] in "aeiou" else "a"


def command(binders: list, goal: str) -> str:
    """``binders`` holds "(v : T)" strings for typings and ("h", prop) pairs
    for hypotheses, which are labelled h1, h2, ... in order."""
    labels = itertools.count(1)
    parts = [b if isinstance(b, str) else f"(h{next(labels)} : {b[1]})" for b in binders]
    return " ".join(["example", *parts, ":", goal, ":=", "sorry"])


class _Generator:
    """Random leaves on fixed shapes: the operators, atoms, adjectives and
    relations are drawn, the number of clauses and operators is not, so
    that texts of one shape cost about the same and a seed changes the
    workload's cost little."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def atom(self, names: str):
        if self.rng.random() < 0.5:
            return self.rng.choice(names)
        if self.rng.random() < 0.1:
            return -self.rng.randint(1, 9)
        return self.rng.randint(0, 12)

    def term(self, names: str, operators: int):
        """A term with exactly ``operators`` binary operators."""
        if operators == 0:
            return self.atom(names)
        left = self.rng.randrange(operators)
        t = ("op", self.rng.choice("+-*/^"), self.term(names, left), self.term(names, operators - 1 - left))
        return ("paren", t) if self.rng.random() < 0.1 else t

    def nested(self, names: str, depth: int):
        """A term with ``depth`` levels of parentheses, each around one operator."""
        t = self.atom(names)
        for _ in range(depth):
            op = self.rng.choice("+-*/")
            pair = (t, self.atom(names)) if self.rng.random() < 0.5 else (self.atom(names), t)
            t = ("paren", ("op", op, *pair))
        return t

    def clause(self, names: str, subject=None):
        negated = self.rng.random() < 0.2
        if subject is None:
            subject = self.term(names, 2)
        if self.rng.random() < 0.35:
            return ("pred", self.rng.choice(list(ADJECTIVES)), subject, negated)
        words = self.rng.choice(list(RELATIONS))
        # "is not equal to" would be the ambiguous phrase
        negated = negated and words != "equal to"
        return ("rel", words, subject, self.term(names, 1), negated)

    def connectives(self, count: int, weights) -> list[str]:
        return self.rng.choices([w for w, _ in LEVELS], weights=weights, k=count)


# --- ambiguous ---------------------------------------------------------------------------

AMBIGUITY = range(1, 6)  # "not equal to" phrases per text
AMBIGUOUS_PER_K = 6


def ambiguous_cases(seed: int) -> list[Case]:
    """Texts with k "not equal to" phrases between one-operator operands,
    joined by "and", ",", "or" and "iff"; the same number of texts for each
    k, in a seeded order.  The first text of each k goes to the CLI file."""
    rng = random.Random(seed)
    gen = _Generator(rng)
    cases = []
    for k in AMBIGUITY:
        for i in range(AMBIGUOUS_PER_K):
            names = "".join(rng.sample(LETTERS, 2))
            clauses = [("ne", gen.term(names, 1), gen.term(names, 1)) for _ in range(k)]
            connectives = gen.connectives(k - 1, weights=(1, 1, 1, 1))
            sentences = ["Ex."] + [f"Assume {v} is an integer." for v in names]
            sentences.append(f"Then {english_chain(clauses, connectives)}.")
            goal = chain(clauses, connectives)
            binders = [f"({v} : ℤ)" for v in names]
            expected = []
            for negations in itertools.product((False, True), repeat=k):
                as_negation = {id(c) for c, neg in zip(clauses, negations) if neg}
                expected.append(command(binders, lean_prop(goal, as_negation)))
            text = " ".join(sentences)
            cases.append(make_case(f"ambiguous-k{k}-{i}", text, expected, in_cli=i == 0))
    rng.shuffle(cases)
    return cases


# --- long ----------------------------------------------------------------------------------

LONG_SIZES = range(1, 6)
LONG_PER_SIZE = 4
NESTING_PER_SIZE = 6  # the deep term of a size-s text is nested 6*s deep


def long_cases(seed: int) -> list[Case]:
    """Single-parse texts of about 100 to 500 tokens, the same number for
    each size, in a seeded order.  The first text of each size goes to the
    CLI file."""
    rng = random.Random(seed)
    cases = [
        _long_case(_Generator(rng), f"long-s{size}-{i}", size, in_cli=i == 0)
        for size in LONG_SIZES
        for i in range(LONG_PER_SIZE)
    ]
    rng.shuffle(cases)
    return cases


def _long_case(gen: _Generator, case_id: str, size: int, in_cli: bool) -> Case:
    """Four typed variables with attributes, 3*(size-1)//2 assumptions of
    three clauses each, and an "if ... then" conclusion of four clauses, one of
    them about a term nested 6*size parentheses deep."""
    names = "".join(gen.rng.sample(LETTERS, 4))
    sentences = ["Ex."]
    binders: list = []
    for pair in (names[:2], names[2:]):
        phrases = []
        for v in pair:
            # a bound may only use the variables declared so far, itself included
            phrase, typed = _typing(gen, v, names[: names.index(v) + 1])
            phrases.append(phrase)
            binders.extend(typed)
        sentences.append(f"Assume {' and '.join(phrases)}.")
    for _ in range(3 * (size - 1) // 2):
        clauses = [gen.clause(names) for _ in range(3)]
        connectives = gen.connectives(2, weights=(1, 2, 2, 8))
        sentences.append(f"Assume {english_chain(clauses, connectives)}.")
        binders.extend(("h", lean_prop(p)) for p in conjuncts(chain(clauses, connectives)))
    antecedent = gen.clause(names)
    clauses = [gen.clause(names) for _ in range(3)]
    clauses.append(gen.clause(names, subject=gen.nested(names, NESTING_PER_SIZE * size)))
    connectives = gen.connectives(3, weights=(1, 2, 2, 8))
    sentences.append(
        f"Then if {english_clause(antecedent)} then {english_chain(clauses, connectives)}."
    )
    goal = ("→", antecedent, chain(clauses, connectives))
    expected = [command(binders, lean_prop(goal))]
    return make_case(case_id, " ".join(sentences), expected, in_cli)


def _typing(gen: _Generator, v: str, names: str) -> tuple[str, list]:
    """"v is a [adjective] noun [relation term]" and its binders."""
    rng = gen.rng
    noun = rng.choice(list(NOUNS))
    binders: list = [f"({v} : {NOUNS[noun]})"]
    phrase = noun
    if rng.random() < 0.5:
        adjective = rng.choice(list(ADJECTIVES))
        phrase = f"{adjective} {noun}"
        binders.append(("h", f"{ADJECTIVES[adjective]} {v}"))
    if rng.random() < 0.5:
        words = rng.choice(list(RELATIONS))
        bound = gen.term(names, 1)
        phrase += f" {words} {english_term(bound)}"
        binders.append(("h", f"{v} {RELATIONS[words]} {lean_term(bound)}"))
    return f"{v} is {article(phrase)} {phrase}", binders


def cases_for(workload: str, seed: int, corpus_path: Path) -> list[Case]:
    if workload == "corpus":
        cases = load_corpus(corpus_path)
        random.Random(seed).shuffle(cases)
        return cases
    if workload == "ambiguous":
        return ambiguous_cases(seed)
    if workload == "long":
        return long_cases(seed)
    raise ValueError(f"unknown workload {workload!r}")
