"""forlean: translate controlled mathematical English into Lean 4 theorem
statements (``example ... := sorry``).

The pipeline has four stages: parse the controlled language, simplify the
tree to a normal form (fresh names, ex-situ quantifiers, flattened
attributes, split assumptions), translate to a Lean expression tree, and
print it.
"""

from .corpus import (
    CorpusCase,
    CorpusFormatError,
    CorpusReport,
    corpus_check,
    default_corpus_path,
    load_corpus,
)
from .lean import (
    DuplicateBinderName,
    LeanCommand,
    alpha_equivalent,
    normalize_names,
    print_command,
    print_prop,
    print_term,
)
from .lean_reader import LeanReadError, read_command
from .lexicon import (
    Lexicon,
    Token,
    TokenError,
    TokenKind,
    UnknownCharacter,
    default_lexicon,
    detokenize,
    preprocess,
    tokenize,
)
from .forthel import ForthelText, linearize_forthel, to_debug_tree
from .parsing import ParseFailure, ParseResult, parse_statement, parse_term, parse_text
from .pipeline import PipelineTrace, run_pipeline
from .simplify import (
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
from .translate import (
    UntranslatableNode,
    translate_predicate,
    translate_statement,
    translate_term,
    translate_text,
)

__version__ = "0.1.0"
