"""xcheck: a lightweight multi-language static bug finder.

The pipeline is ``tokenize`` (profile-driven lexer) → ``parse_statements``
(control-flow-only grammar with wildcard expressions) → ``run_checkers``
(four independent passes) → diagnostics rendering.
"""

from .checkers import CHECKERS, run_checkers
from .diagnostics import Diagnostic, dedupe_and_sort, render_json, render_text
from .lexer import Position, Token, TokenKind, TokenStream, tokenize
from .microgrammar import parse_expression, parse_statements
from .profiles import LanguageProfile, profile_for

__version__ = "0.1.0"

__all__ = [
    "CHECKERS",
    "Diagnostic",
    "LanguageProfile",
    "Position",
    "Token",
    "TokenKind",
    "TokenStream",
    "__version__",
    "dedupe_and_sort",
    "parse_expression",
    "parse_statements",
    "profile_for",
    "render_json",
    "render_text",
    "run_checkers",
    "tokenize",
]
