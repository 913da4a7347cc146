"""Exhaustive-search toolkit for binary relations on small finite sets."""

from .relation import NMAX, Relation, element_names
from .properties import (
    DUAL,
    KIND_REQUIREMENTS,
    MINED_PROPERTIES,
    VECTOR_BITS,
    PropertyId,
    RelationKind,
    classify_kinds,
    holds,
    parse_property,
    property_vector,
)
from .enumeration import (
    RowSignature,
    canonicalize,
    is_normal_form,
    normal_form_count,
    row_signature,
)
from .census import (
    VectorCensus,
    load_census,
    save_census,
    vector_census,
)
from .mining import (
    Implicant,
    Law,
    MineResult,
    format_law,
    law_line,
    laws_from_csv,
    laws_to_csv,
    mine,
    parse_law_text,
)
from .redundancy import entails, flag_csv, star_redundant
from .search import (
    LiteralConjunction,
    export_dot,
    find_witness,
    min_universe,
)

__all__ = [
    "NMAX", "Relation", "element_names",
    "DUAL", "KIND_REQUIREMENTS", "MINED_PROPERTIES", "VECTOR_BITS",
    "PropertyId", "RelationKind", "classify_kinds", "holds",
    "parse_property", "property_vector",
    "RowSignature", "canonicalize", "is_normal_form", "normal_form_count",
    "row_signature",
    "VectorCensus", "load_census", "save_census", "vector_census",
    "Implicant", "Law", "MineResult",
    "format_law", "law_line", "laws_from_csv", "laws_to_csv", "mine",
    "parse_law_text",
    "entails", "flag_csv", "star_redundant",
    "LiteralConjunction", "export_dot", "find_witness", "min_universe",
]

__version__ = "0.1.0"
