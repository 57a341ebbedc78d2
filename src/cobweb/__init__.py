"""Cobweb layers, F-nomial coefficients, block tilings, and block graphs.

The public names are loaded on first use (PEP 562): `_EXPORTS` maps each
submodule to the names it provides, and a name's submodule is imported
the first time the name is read, so `import cobweb` loads none of them.
"""

import importlib

_EXPORTS = {
    "errors": (
        "CapExceeded",
        "CobwebError",
        "FamilySpecError",
        "LambdaRuleError",
        "NonIntegralCoefficient",
        "SearchBudgetExceeded",
        "TableRangeError",
        "TilingFormatError",
    ),
    "fsequence": (
        "CustomTable",
        "CustomTLambda",
        "Fp",
        "FSequence",
        "Gaussian",
        "LambdaPair",
        "ModifiedGaussian",
        "Natural",
        "Powers",
        "TLambdaAB",
        "composition",
        "is_cobweb_admissible",
        "lambda_composition",
        "lambda_composition_reversed",
        "lambda_split",
        "parse_family_spec",
        "term",
        "term_via_ones",
    ),
    "coefficients": (
        "check_fnomial_recurrence",
        "check_identities",
        "check_multi_recurrence",
        "f_factorial",
        "falling_f_factorial",
        "fnomial",
        "multi_fnomial",
    ),
    "geometry": (
        "Block",
        "Layer",
        "MultiShape",
        "PlainShape",
        "block_family",
        "blocks_disjoint",
        "build_layer",
        "iter_max_paths",
        "make_block",
    ),
    "tiling": (
        "ChoiceStrategy",
        "Exhaustive",
        "LowestLabels",
        "Seeded",
        "Tiling",
        "construct_multi_tiling",
        "construct_tiling",
        "construction_census",
        "count_construction_tilings",
        "enumerate_all_tilings",
        "enumerate_construction_tilings",
        "tiling_from_json",
        "verify_tiling",
    ),
    "blockgraph": (
        "BlockGraph",
        "block_count_formula",
        "build_block_graph",
        "clique_to_tiling",
        "count_maximal_cliques",
        "count_size_d_cliques",
        "enumerate_size_d_cliques",
        "find_clique",
        "tiling_to_clique",
        "to_dot",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
