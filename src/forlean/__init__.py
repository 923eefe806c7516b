"""forlean: translate controlled mathematical English into Lean 4 theorem
statements (``example ... := sorry``).

The pipeline has four stages: parse the controlled language, simplify the
tree to a normal form (fresh names, ex-situ quantifiers, flattened
attributes, split assumptions), translate to a Lean expression tree, and
print it.
"""

from .lean import LeanCommand, alpha_equivalent, normalize_names, print_command
from .lexicon import preprocess, tokenize
from .parsing import parse_text
from .pipeline import PipelineTrace, run_pipeline
from .simplify import reserved_ids, simplify
from .translate import translate_text

__all__ = [
    "LeanCommand",
    "PipelineTrace",
    "alpha_equivalent",
    "normalize_names",
    "parse_text",
    "preprocess",
    "print_command",
    "reserved_ids",
    "run_pipeline",
    "simplify",
    "tokenize",
    "translate_text",
]

__version__ = "0.1.0"
