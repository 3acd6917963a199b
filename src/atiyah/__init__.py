"""Exact K-ring calculator for degree-zero vector bundles on an elliptic curve.

Tensor arithmetic of Atiyah bundles, an independent Laurent-character oracle,
and the classification of S(E), R(E), and the minimal trivializing group
scheme, with the dimension correspondence dim R(E) = dim G checkable on any
grid of inputs.
"""

from .bundles import (
    BundleSum,
    ContextMismatchError,
    IndecomposableBundle,
    KRingElement,
    TorsionContext,
    dual,
    sym_power_f2,
    tensor_indec,
)
from .characters import (
    BivariateCharacter,
    NotACharacterError,
    OracleCheck,
    PowerTooLargeError,
    character,
    decompose_character,
    oracle_check,
)
from .classify import (
    ClassificationReport,
    GroupScheme,
    IndexFamily,
    IntegerPolynomial,
    P1SSet,
    PresentationKind,
    RingPresentation,
    SSetDescription,
    classify,
    correspondence_grid,
    express_in_generator,
    krull_dimension,
    p1_classify,
    p1_s_set_enumerate,
    s_set_enumerate,
    s_set_reachable,
    s_set_symbolic,
)
from .expressions import (
    ExpressionError,
    evaluate_expression,
    parse_expression,
)

__version__ = "0.1.0"

__all__ = [
    "BivariateCharacter",
    "BundleSum",
    "ClassificationReport",
    "ContextMismatchError",
    "ExpressionError",
    "GroupScheme",
    "IndecomposableBundle",
    "IndexFamily",
    "IntegerPolynomial",
    "KRingElement",
    "NotACharacterError",
    "OracleCheck",
    "PowerTooLargeError",
    "P1SSet",
    "PresentationKind",
    "RingPresentation",
    "SSetDescription",
    "TorsionContext",
    "character",
    "classify",
    "correspondence_grid",
    "decompose_character",
    "dual",
    "evaluate_expression",
    "express_in_generator",
    "krull_dimension",
    "oracle_check",
    "p1_classify",
    "p1_s_set_enumerate",
    "parse_expression",
    "s_set_enumerate",
    "s_set_reachable",
    "s_set_symbolic",
    "sym_power_f2",
    "tensor_indec",
]
