import random
import re
import string

import pytest

from forlean.lexicon import (
    SYMBOLS,
    Category,
    Lexicon,
    LexiconError,
    TokenError,
    default_lexicon,
    preprocess,
    tokenize,
)


class TestPreprocess:
    def test_lowercases(self):
        assert preprocess("Ex. Assume x is a real number.") == "ex. assume x is a real number."

    def test_empty(self):
        assert preprocess("") == ""

    def test_lowercases_a_character_only_to_one_of_its_kind(self):
        # "Σ" and "Ä" lower to one non-ASCII character; the Kelvin sign would
        # lower to an ASCII "k" and "İ" to two characters, so both stay
        assert preprocess("X \u03a3 \u00c4 \u212a \u0130") == "x \u03c3 \u00e4 \u212a \u0130"

    def test_collapses_whitespace(self):
        assert preprocess("x   ^  2") == "x ^ 2"
        assert preprocess("  a \t b \n c ") == "a b c"

    @pytest.mark.parametrize(
        "text",
        ["", "Ex. Assume x is a real number.", "x   ^  2", "A\n\nB\tC", "ALL CAPS  TEXT"],
    )
    def test_idempotent(self, text):
        once = preprocess(text)
        assert preprocess(once) == once


def texts_values(text):
    return [(t.text, t.value) for t in tokenize(text)]


class TestTokenize:
    def test_negative_literal_glued(self):
        assert texts_values("-5 * n - 3") == [("-5", -5), ("*", None), ("n", None), ("-", None), ("3", 3)]

    def test_symbols_split_from_words(self):
        assert texts_values("(n + 1) ^ 2") == [
            ("(", None),
            ("n", None),
            ("+", None),
            ("1", 1),
            (")", None),
            ("^", None),
            ("2", 2),
        ]

    def test_sentence(self):
        assert texts_values("4 is not less than 3 .") == [
            ("4", 4),
            ("is", None),
            ("not", None),
            ("less", None),
            ("than", None),
            ("3", 3),
            (".", None),
        ]

    def test_period_glued_to_word(self):
        assert texts_values("ex.") == [("ex", None), (".", None)]

    def test_apostrophe_inside_word(self):
        assert texts_values("it's") == [("it's", None)]

    def test_int_value_roundtrips_with_text(self):
        for text in ("0", "41", "-7", "-5 * n - 3"):
            literals = [tok for tok in tokenize(text) if tok.value is not None]
            assert [str(t.value) for t in literals] == [t.text for t in literals] == re.findall("-?[0-9]+", text)

    def test_unknown_character(self):
        with pytest.raises(TokenError) as exc:
            tokenize("x % 2")
        assert str(exc.value) == "unknown character '%' at byte offset 2"
        assert exc.value.span == (2, 3)

    def test_spans_are_byte_offsets(self):
        tokens = tokenize("x + 12")
        assert [t.span for t in tokens] == [(0, 1), (2, 3), (4, 6)]

    def test_tokens_are_immutable(self):
        (token,) = tokenize("x")
        with pytest.raises(AttributeError):
            token.text = "y"
        with pytest.raises(AttributeError):
            token.note = "new attribute"

    def test_spans_of_non_ascii_tokens(self):
        # slicing the input's UTF-8 bytes by a token's span gives its text
        rng = random.Random(1)
        letters = ["é", "ß", "ǅ", "ı", "ﬁ", "ab", "xyz"]
        alphabet = [*letters, "0", "19", "'", ".", *SYMBOLS, " ", "\t", "\u3000"]
        non_ascii = 0
        for _ in range(2000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            data = text.encode("utf-8")
            try:
                tokens = tokenize(text)
            except TokenError as err:  # an apostrophe that starts a token
                assert data[err.span[0] : err.span[1]].decode("utf-8") == "'"
                assert str(err) == f"unknown character \"'\" at byte offset {err.span[0]}"
                continue
            for token in tokens:
                assert data[token.span[0] : token.span[1]].decode("utf-8") == token.text, text
                non_ascii += not token.text.isascii()
        assert non_ascii > 1000

    def test_ascii_and_non_ascii_spans_agree(self):
        # ASCII text takes its spans from the match, any other text through a
        # table of UTF-8 offsets: both must give the same tokens and spans,
        # and the same error at the same span.  A two-byte "é " before the
        # text moves each span by three bytes
        rng = random.Random(18)
        alphabet = [*string.ascii_letters, *string.digits, "'", ".", *SYMBOLS, " ", "\t", "\n", "%"]

        def shifted(token):
            return (*token[:2], (token.span[0] - 3, token.span[1] - 3))

        raised = 0
        for _ in range(2000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            try:
                expected = [tuple(token) for token in tokenize(text)]
            except TokenError as err:
                raised += 1
                with pytest.raises(TokenError) as suffixed:
                    tokenize(text + " é")
                assert type(suffixed.value) is type(err), text
                assert (str(suffixed.value), suffixed.value.span) == (str(err), err.span), text
                with pytest.raises(type(err)) as prefixed:
                    tokenize("é " + text)
                assert prefixed.value.span == (err.span[0] + 3, err.span[1] + 3), text
                continue
            assert [tuple(token) for token in tokenize(text + " é")[:-1]] == expected, text
            assert [shifted(token) for token in tokenize("é " + text)[1:]] == expected, text
        assert 0 < raised < 2000

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_literal_too_long(self, sign):
        # more digits than Python converts to an int (4,300 by default)
        literal = sign + "9" * 5000
        with pytest.raises(TokenError) as raised:
            tokenize(f"x + {literal} .")
        assert raised.value.span == (4, 4 + len(literal))
        assert str(raised.value) == "integer literal too long at byte offset 4"

    @pytest.mark.parametrize(
        "text",
        [
            "ex. assume x is a real number.",
            "-5 * n - 3",
            "(n + 1) ^ 2 - 1 is even iff n is odd .",
            "it's not that x is odd",
        ],
    )
    def test_roundtrip_through_detokenize(self, text):
        # texts and values come back; spans move with the spacing
        tokens = tokenize(text)
        assert texts_values(" ".join(t.text for t in tokens)) == [t[:2] for t in tokens]

    def test_text_fixes_kind(self):
        # a token's text says what the token is, so matching may compare texts:
        # each is exactly one of a period, an integer literal whose value is
        # its int, one SYMBOLS character or a word, and only a literal has a value
        rng = random.Random(0)
        alphabet = "abxyz019'." + SYMBOLS + " \téß²"
        seen = set()
        for _ in range(2000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            try:
                tokens = tokenize(text)
            except TokenError as err:
                assert str(err).startswith("unknown character "), text
                continue
            for token in tokens:
                literal = re.fullmatch("-?[0-9]+", token.text) is not None
                kinds = (
                    token.text == ".",
                    literal,
                    len(token.text) == 1 and token.text in SYMBOLS,
                    token.text[0].isalpha() and token.text.replace("'", "").isalpha(),
                )
                assert sum(kinds) == 1, (text, token)
                assert token.value == (int(token.text) if literal else None), (text, token)
                seen.add(kinds.index(True))
        assert seen == {0, 1, 2, 3}


# independent re-listing of every lexical item, used as the matching oracle
LEXICON_FORMS = {
    "rawNoun0": {
        "REAL_NUMBER": ["real number", "real numbers"],
        "INTEGER": ["integer", "integers"],
        "RATIONAL_NUMBER": ["rational number", "rational numbers"],
    },
    "rawAdjective0": {
        "POSITIVE": ["positive"],
        "ODD": ["odd"],
        "EVEN": ["even"],
        "NONNEGATIVE": ["nonnegative"],
        "NEGATIVE": ["negative"],
    },
    "rawAdjective1": {
        "LESS_THAN": ["less than"],
        "LESS_TE": ["less than or equal to"],
        "GREATER_THAN": ["greater than"],
        "GREATER_TE": ["greater than or equal to"],
        "EQUAL_TO": ["equal to"],
        "NOT_EQUAL_TO": ["not equal to"],
    },
    "rawNoun2": {"SUM": ["+"], "MINUS": ["-"], "PROD": ["*"], "DIV": ["/"], "EXP": ["^"]},
    "variable": {letter: [letter] for letter in "abckmnrxyz"},
}


def oracle_matches(text: str) -> list[tuple[str, int]]:
    """Brute-force prefix matching against the re-listed forms."""
    words = text.split()
    out = []
    for category in LEXICON_FORMS.values():
        for key, forms in category.items():
            for form in forms:
                parts = form.split()
                if words[: len(parts)] == parts:
                    out.append((key, len(parts)))
    return sorted(out, key=lambda pair: -pair[1])


class TestLexicon:
    def test_every_item_present(self):
        lex = default_lexicon()
        for category_name, items in LEXICON_FORMS.items():
            category = Category(category_name)
            entries = {e.key: e for e in lex.entries(category)}
            assert set(entries) == set(items)
            for key, forms in items.items():
                assert set(" ".join(f) for f in entries[key].surface) == set(forms)

    def test_no_duplicate_surface_within_category(self):
        with pytest.raises(LexiconError):
            Lexicon.parse("rawAdjective0\tODD\todd\nrawAdjective0\tODD2\todd\n")

    def test_no_duplicate_key_within_category(self):
        # both entries would get the later Lean image
        with pytest.raises(LexiconError, match="^line 2: duplicate key 'INTEGER' in category rawNoun0$"):
            Lexicon.parse("rawNoun0\tINTEGER\tinteger\tℤ\nrawNoun0\tINTEGER\tnatural number\tℕ\n")
        # one key in two categories is two entries
        lexicon = Lexicon.parse("rawNoun0\tODD\todd number\tℤ\nrawAdjective0\tODD\todd\todd\n")
        assert len(lexicon.entries()) == 2

    @pytest.mark.parametrize("surface", ["Real", "real  number|Real number", "ODD"])
    def test_surface_form_is_as_input_normalisation_leaves_it(self, surface):
        # the input is lowercased before matching, so this form never matches
        with pytest.raises(LexiconError, match="^line 1: surface form .* changes under normalisation$"):
            Lexicon.parse(f"rawNoun0\tREAL\t{surface}\tℝ\n")

    @pytest.mark.parametrize("surface", ["mod", "**", ".", "'"])
    def test_operator_surface_is_one_symbol_character(self, surface):
        # a word, a longer form, the period or the apostrophe would split the
        # tokens around it differently
        with pytest.raises(LexiconError):
            Lexicon.parse(f"rawNoun2\tOP\t{surface}\t{surface}\t0\n")

    def test_surface_forms_tokenize_cleanly(self):
        # word entries tokenize to words only; arithmetic entries are single symbols
        for entry in default_lexicon().entries():
            for form in entry.surface:
                tokens = tokenize(" ".join(form))
                if entry.category is Category.RAW_NOUN2:
                    assert len(tokens) == 1 and tokens[0].text in SYMBOLS
                else:
                    assert tokens
                    assert all(t.text[0].isalpha() for t in tokens)

    def test_match_ambiguous_prefix(self):
        tokens = tokenize("greater than or equal to 0")
        got = [(entry.key, length) for entry, length in default_lexicon().match(tokens, 0)]
        assert got == oracle_matches("greater than or equal to 0")
        assert got == [("GREATER_TE", 5), ("GREATER_THAN", 2)]

    def test_match_lexical_not_equal_to(self):
        tokens = tokenize("not equal to 0")
        got = [(entry.key, length) for entry, length in default_lexicon().match(tokens, 0)]
        assert got == [("NOT_EQUAL_TO", 3)]
        assert got == oracle_matches("not equal to 0")

    def test_match_out_of_lexicon(self):
        assert default_lexicon().match(tokenize("banana"), 0) == []

    def test_match_at_interior_position(self):
        tokens = tokenize("x is less than 0")
        got = [(entry.key, length) for entry, length in default_lexicon().match(tokens, 2)]
        assert got == [("LESS_THAN", 2)]

    def test_match_all_positions_against_oracle(self):
        text = "some real numbers are less than or equal to every positive integer"
        tokens = tokenize(text)
        words = text.split()
        for position in range(len(tokens)):
            got = [(e.key, n) for e, n in default_lexicon().match(tokens, position)]
            assert sorted(got) == sorted(oracle_matches(" ".join(words[position:])))


def reference_match(lexicon, tokens, position):
    """Brute-force scan of every entry and form, deduplicated and sorted the
    way ``Lexicon.match`` documents."""

    def element_matches(element, token):
        # a form's element is a word or a symbol, never an integer literal
        return token.value is None and token.text == element

    out = []
    for entry in lexicon.entries():
        for form in entry.surface:
            window = tokens[position : position + len(form)]
            if len(window) == len(form) and all(map(element_matches, form, window)):
                if (entry, len(form)) not in out:
                    out.append((entry, len(form)))
    return sorted(out, key=lambda pair: (-pair[1], pair[0].category.value, pair[0].key))


class TestMatchIndex:
    def assert_matches_reference(self, lexicon, tokens):
        for position in range(len(tokens) + 1):
            assert lexicon.match(tokens, position) == reference_match(lexicon, tokens, position)

    def test_every_corpus_position(self, corpus_cases):
        for case in corpus_cases:
            self.assert_matches_reference(default_lexicon(), tokenize(preprocess(case.input)))

    def test_hand_built_lexicon(self):
        lexicon = Lexicon.parse(
            "rawAdjective1\tGREATER_THAN\tgreater than\n"
            "rawAdjective1\tGREATER_TE\tgreater than or equal to\n"
            "rawNoun2\tSUM\t+\n"
            "rawNoun0\tPAIR\t( pair )|pair|pairs\n"
            "variable\tONE\t1\n"
        )
        tokens = tokenize("greater than or equal to ( pair ) + pairs 1 greater than ( pair")
        self.assert_matches_reference(lexicon, tokens)
        got = [(entry.key, length) for entry, length in lexicon.match(tokens, 0)]
        assert got == [("GREATER_TE", 5), ("GREATER_THAN", 2)]
        assert [(e.key, n) for e, n in lexicon.match(tokens, 5)] == [("PAIR", 3)]
        assert [(e.key, n) for e, n in lexicon.match(tokens, 8)] == [("SUM", 1)]
        # the word form "1" never matches the integer literal 1
        assert lexicon.match(tokens, 10) == []
        assert lexicon.match(tokens, len(tokens)) == []
