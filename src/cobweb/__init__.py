"""Cobweb layers, F-nomial coefficients, block tilings, and block graphs."""

from .errors import (
    CapExceeded,
    CobwebError,
    FamilySpecError,
    LambdaRuleError,
    NonIntegralCoefficient,
    SearchBudgetExceeded,
    TableRangeError,
    TilingFormatError,
)
from .fsequence import (
    CustomTable,
    CustomTLambda,
    Fp,
    FSequence,
    Gaussian,
    LambdaPair,
    ModifiedGaussian,
    Natural,
    Powers,
    TLambdaAB,
    composition,
    is_cobweb_admissible,
    lambda_composition,
    lambda_composition_reversed,
    lambda_split,
    parse_family_spec,
    term,
    term_via_ones,
)
from .coefficients import (
    check_fnomial_recurrence,
    check_identities,
    check_multi_recurrence,
    f_factorial,
    falling_f_factorial,
    fnomial,
    multi_fnomial,
)
from .geometry import (
    Block,
    Layer,
    MultiShape,
    PlainShape,
    block_family,
    blocks_disjoint,
    build_layer,
    iter_max_paths,
    make_block,
    point_to_path,
)
from .tiling import (
    ChoiceStrategy,
    Exhaustive,
    LowestLabels,
    Seeded,
    Tiling,
    construct_multi_tiling,
    construct_tiling,
    construction_census,
    count_construction_tilings,
    enumerate_all_tilings,
    enumerate_construction_tilings,
    tiling_from_json,
    verify_tiling,
)
from .blockgraph import (
    BlockGraph,
    block_count_formula,
    build_block_graph,
    clique_to_tiling,
    count_size_d_cliques,
    enumerate_maximal_cliques,
    enumerate_size_d_cliques,
    find_clique,
    tiling_to_clique,
    to_dot,
)

__version__ = "0.1.0"
