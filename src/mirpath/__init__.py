"""mirpath: exact multi-index combinatorics for rough differential equations.

The package splits into an exact layer and a numeric layer.  The exact layer
(:mod:`mirpath.algebra`, :mod:`mirpath.grammar`, :mod:`mirpath.translation`)
works over ℚ and implements the graded algebra of multi-index forests, its
Grossman–Larson product, and the translation calculus on driver characters.
The numeric layer (:mod:`mirpath.group`, :mod:`mirpath.lifts`,
:mod:`mirpath.fields`, :mod:`mirpath.solver`) stores rough-path lifts as
floating-point group elements over the exact basis and integrates scalar
controlled equations with a truncated log-flow step.  ``mirpath.cli`` exposes
the whole surface as a command-line tool.

``import mirpath`` loads no submodule: each re-exported name is imported
from its module on first access (PEP 562), so a command-line run pays only
for the layers it uses.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# module -> the names re-exported from it; ``__all__`` is derived from this
_EXPORTS = {
    "algebra": (
        "EMPTY_FOREST", "Forest", "FormalSum", "Grading", "MultiIndex", "degree",
        "derivation_d", "deshuffle", "enumerate_populated", "forest_basis",
        "gamma_degree", "gl_product", "graft_simultaneous", "is_populated",
        "mi_product", "pairing", "prelie_graft", "symmetry_factor",
    ),
    "grammar": (
        "ParseError", "format_forest", "format_formal_sum", "format_multi_index",
        "parse_forest", "parse_formal_sum", "parse_multi_index",
    ),
    "group": (
        "GroupElement", "LieElement", "OffGridTimeError", "RoughPathGrid",
        "char_eval", "chen_compose", "exp_element", "identity_character",
        "log_element", "random_character",
    ),
    "lifts": (
        "brownian_pair_statistics", "grid_from_json", "grid_to_json",
        "lift_brownian", "lift_piecewise_linear", "read_path_csv", "write_path_csv",
    ),
    "fields": (
        "DerivativeOrderError", "SmoothTest", "VectorField", "translated_field",
        "upsilon", "upsilon_sum", "upsilon_vf", "vector_field_from_json",
        "vector_field_to_json",
    ),
    "translation": (
        "Character", "TruncationShortfallError", "character_from_json",
        "character_to_json", "coproduct_minus", "identity_characters",
        "insert_prelie", "insert_simultaneous", "ito_strat_character", "m_ell",
        "translate", "translate_roughpath", "translation_order",
    ),
    "solver": (
        "DavieReport", "DivergedError", "FlowSolution", "SolveConfig",
        "davie_expansion", "davie_residual_report", "dyadic_pairs",
        "expansion_basis", "logode_step", "reference_ode_solve", "solve_flow",
    ),
    "verify": ("SuiteResult", "available_suites", "run_all_suites"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
