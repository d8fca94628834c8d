"""Exact-arithmetic magnitude and iterated magnitude homology.

Builds nerves of finite enriched structures (categories, generalized
metric spaces, normed groups, Cat-groups, preordered groups, strict
n-categories presented through suspensions), extracts chain complexes
over Z, and computes integral homology via Smith normal form. Closed-form
predictions live in maghom.oracles and everything is cross-checked
against them in the test suite and the CLI verify command.
"""

from .complexes import (
    BasedChainComplex,
    BasedDoubleComplex,
    GradedChainComplex,
    HomologyTable,
    graded_homology_table,
    graded_tensor,
    homology_table,
    make_chain_complex,
    tensor_complex,
    total_complex,
    unit_complex,
    validate_complex,
    validate_double_complex,
)
from .enriched_data import (
    INF,
    CatGroup,
    Explicit2Cat,
    FinCategory,
    GenMetricSpace,
    NCatSet,
    NCatSuspension,
    NormedGroup,
    PreorderedGroup,
    StrictNCat,
    as_category,
    cat_group_from_preordered,
    category_from_group,
    category_from_preorder,
    codiscrete_cat_group,
    complete_graph,
    component_group,
    connected_components,
    count_cells,
    cycle_digraph,
    cycle_graph,
    discrete_cat_group,
    discrete_category,
    discrete_space,
    indecomposables,
    linear_order_category,
    make_category,
    make_metric_space,
    make_normed_group,
    metric_from_digraph,
    metric_of_normed_group,
    one_point_space,
    parallel_arrows_category,
    positive_cone,
    preordered_group_from_cone,
    product_category,
    sphere_ncat,
    suspension,
    tensor_metric,
    terminal_category,
    two_cat_from_category,
    two_cat_of_cat_group,
    two_group_from_normal_subgroup,
    validate_cat_group,
    validate_category,
    validate_metric,
    validate_ncat,
    validate_normed_group,
    validate_preordered_group,
    word_norm_group,
)
from .errors import (
    InvalidComplexError,
    MaghomError,
    SchemaError,
    TruncationError,
    ValidationError,
)
from .exact_linalg import (
    FgAbelianGroup,
    IntMatrix,
    column_rank,
    homology_between,
    smith_normal_form,
    tensor_fg,
    tor_fg,
)
from .groups import (
    FinGroup,
    all_groups_up_to_order_8,
    cyclic_group,
    dihedral_group,
    direct_product_group,
    klein_four_group,
    quaternion_group,
    symmetric_group,
)
from .iterated import (
    KunnethReport,
    diag_nerve_normed_group,
    double_nerve_2cat,
    double_nerve_normed_group,
    iterated_complex,
    iterated_homology,
    kunneth_check,
    mb_n,
    normed_group_homology,
    reachable_normed_gradings,
)
from .magnitude_core import (
    adjacency,
    category_homology,
    magnitude_complex_metric,
    metric_homology,
    metric_nerve,
    nerve_category,
    point_orbits,
    reachable_gradings,
)
from .oracles import (
    abelianization,
    oracle_catgroup,
    oracle_group_homology,
    oracle_kunneth,
    oracle_mh01_catgroup,
    oracle_mh1_metric,
    oracle_mh2_normed,
    oracle_suspension,
)
from .simplicial import (
    BasedBisimplicialObject,
    BasedSimplicialObject,
    diagonal,
    double_chains,
    external_product,
    normalized_chains,
    row_normalize,
    unnormalized_chains,
    validate_bisimplicial,
    validate_simplicial,
)

__version__ = "0.1.0"
