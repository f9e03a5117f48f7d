"""Exact combinatorics of type-A seaweed algebras via meanders.

Compute the index, eigenvalue spectrum, extended spectrum, and principal
element of a seaweed from its meander graph, compare closed-form family
spectra against the engine, and sweep parameter spaces hunting for
conjecture counterexamples. Everything is exact integer or rational
arithmetic.
"""

from ._engine import kernel_implementation
from .analysis import (
    EngineInvariantError,
    SpectrumReport,
    is_log_concave,
    is_symmetric_about_half,
    is_unbroken_centered_half,
    is_unimodal,
    spectrum_report,
    verify_block_lemmas,
    verify_reverse_lemma,
    verify_skew_symmetry,
    verify_swap_lemma,
)
from .core import (
    Composition,
    IntegerMultiset,
    ParseError,
    SeaweedSpec,
    compositions_of,
    parse_composition,
    parse_seaweed,
)
from .families import (
    FamilyId,
    default_extension_base,
    extend_with_2s,
    extend_with_4s,
    extension_variant_spec,
    family_extended_spectrum,
    family_spec,
    family_spectrum,
)
from .meander import (
    index_gcd_maximal_parabolic,
    index_gcd_three_part,
    index_gl,
    index_sl,
    is_frobenius,
)
from .render import render_svg
from .spectrum import (
    OrientedMeander,
    SpectrumUndefinedError,
    extended_spectrum,
    extended_spectrum_matrix,
    frobenius_form_support,
    matrix_text,
    orient,
    principal_element,
    spectrum,
    spectrum_matrix,
    vertex_potentials,
)
from .sweep import (
    SweepJob,
    enumerate_frobenius,
    run_stability_sweep,
    run_sweep,
    run_unimodality_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Composition",
    "EngineInvariantError",
    "FamilyId",
    "IntegerMultiset",
    "OrientedMeander",
    "ParseError",
    "SeaweedSpec",
    "SpectrumReport",
    "SpectrumUndefinedError",
    "SweepJob",
    "compositions_of",
    "default_extension_base",
    "enumerate_frobenius",
    "extend_with_2s",
    "extend_with_4s",
    "extended_spectrum",
    "extended_spectrum_matrix",
    "extension_variant_spec",
    "family_extended_spectrum",
    "family_spec",
    "family_spectrum",
    "frobenius_form_support",
    "index_gcd_maximal_parabolic",
    "index_gcd_three_part",
    "index_gl",
    "index_sl",
    "is_frobenius",
    "is_log_concave",
    "is_symmetric_about_half",
    "is_unbroken_centered_half",
    "is_unimodal",
    "kernel_implementation",
    "matrix_text",
    "orient",
    "parse_composition",
    "parse_seaweed",
    "principal_element",
    "render_svg",
    "run_stability_sweep",
    "run_sweep",
    "run_unimodality_sweep",
    "spectrum",
    "spectrum_matrix",
    "spectrum_report",
    "vertex_potentials",
    "verify_block_lemmas",
    "verify_reverse_lemma",
    "verify_skew_symmetry",
    "verify_swap_lemma",
]
