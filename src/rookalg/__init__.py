"""Exact double-coset algebras of symmetric groups and their polynomial interpolation.

Two independent constructions of the same finite-dimensional algebra:

- oracle: brute-force convolution in the group algebra of S_{alpha+n},
  restricted to functions constant on double cosets of the tail subgroup;
- algebra: normal-form rewriting from generators and relations, with
  coefficients polynomial in a formal parameter nu.

The verify module proves them equal at integer nu = n by exact
cross-checking, with no tolerances anywhere.
"""
from .algebra import (
    Monomial,
    Normalizer,
    OElement,
    basis_enumerate,
    default_normalizer,
    element_from_word,
    format_element,
    format_monomial,
    monomial_sort_key,
    multiply,
    word_to_state,
)
from .capacity import ORACLE_DEGREE_LIMIT, rook_limit, table_limit
from .combinatorics import (
    PartialInjection,
    Permutation,
    YoungDiagram,
    all_permutations,
    corner_map,
    embed_pair,
    fixed_space_dimensions,
    idempotent,
    irrep_dim,
    partitions,
    rook_count,
    rook_enumerate,
    rook_sort_key,
)
from .errors import CapacityError, ConsistencyError, ContextError, EmptyCosetError
from .nupoly import NuPoly
from .oracle import (
    BiinvariantElement,
    Context,
    GroupAlgebraElement,
    canonical_completion,
    coset_enumerate,
    coset_size,
    dc_multiply,
    gen_hole,
    gen_perm,
    k_average,
    project_biinvariant,
    subgroup_elements,
)
from .rational import format_rational, parse_rational
from .tables import (
    StructureTable,
    check_associativity,
    det_polynomial,
    evaluate_matrix,
    gram_matrix,
    positive_definite,
    rank,
    scaled_limit_table,
    structure_table,
    trace_form,
)
from . import tables as _tables
from .verify import (
    VerificationReport,
    crosscheck_multi,
    crosscheck_structure,
    dimension_suite,
    gram_suite,
    limit_suite,
    monomial_images,
    relation_suite,
    semisimplicity_probe,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every module-level cache: the built structure tables, the
    default normalizer's memo and intern tables, and the oracle's three
    lookups.  No result changes; the next call that needs an entry computes
    it again."""
    _tables._TABLE_CACHE.clear()
    default_normalizer().clear()
    for cached in (subgroup_elements, canonical_completion, coset_enumerate):
        cached.cache_clear()


__all__ = [
    "BiinvariantElement",
    "CapacityError",
    "ConsistencyError",
    "Context",
    "ContextError",
    "EmptyCosetError",
    "GroupAlgebraElement",
    "Monomial",
    "Normalizer",
    "NuPoly",
    "OElement",
    "ORACLE_DEGREE_LIMIT",
    "PartialInjection",
    "Permutation",
    "StructureTable",
    "VerificationReport",
    "YoungDiagram",
    "all_permutations",
    "basis_enumerate",
    "canonical_completion",
    "check_associativity",
    "clear_caches",
    "corner_map",
    "coset_enumerate",
    "coset_size",
    "crosscheck_multi",
    "crosscheck_structure",
    "dc_multiply",
    "det_polynomial",
    "dimension_suite",
    "element_from_word",
    "embed_pair",
    "evaluate_matrix",
    "fixed_space_dimensions",
    "format_element",
    "format_monomial",
    "format_rational",
    "gen_hole",
    "gen_perm",
    "gram_matrix",
    "gram_suite",
    "idempotent",
    "irrep_dim",
    "k_average",
    "limit_suite",
    "monomial_images",
    "monomial_sort_key",
    "multiply",
    "parse_rational",
    "partitions",
    "positive_definite",
    "project_biinvariant",
    "rank",
    "relation_suite",
    "rook_count",
    "rook_enumerate",
    "rook_limit",
    "rook_sort_key",
    "scaled_limit_table",
    "semisimplicity_probe",
    "structure_table",
    "subgroup_elements",
    "table_limit",
    "trace_form",
    "word_to_state",
]
