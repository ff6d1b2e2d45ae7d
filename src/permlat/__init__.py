"""Exact subgroup-lattice permutability degrees for finite groups.

The library computes, in exact rational arithmetic: the subgroup
commutativity degree sd (fraction of permuting subgroup pairs), its
restriction spd to subnormal-by-maximal pairs, the element commutativity
degree d, the distinguished sublattices these live on, polynomial lower
bounds for the degrees, and Moebius numbers of subgroup lattices.
"""

from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    GroupSpecError,
    OrderCapError,
    PrimeSignature,
    cyclic_group,
    abelian_group,
    alternating_group,
    dihedral_group,
    direct_product,
    fitting_subgroup,
    from_permutations,
    group_from_json_dict,
    load_group_file,
    make_named,
    prime_signature,
    quaternion_group,
    quotient_group,
    subgroup_group,
    symmetric_group,
)
from .lattice import (
    DEFAULT_LATTICE_CAP,
    LatticeCapError,
    MoebiusTable,
    SubgroupLattice,
    SublatticeSelection,
    all_subgroups,
    enumerate_subgroups,
    is_modular_lattice,
    is_quasihamiltonian,
    maximal_subgroups,
    moebius_table,
    normal_subgroups,
    perp,
    selection_meet_join_closed,
    subgroup_masks_bruteforce,
    subnormal_subgroups,
    sylow_subgroups,
)
from .degrees import (
    DegreeReport,
    build_degree_report,
    check_extremal_spd,
    check_multiplicativity,
    check_restricted_degree_inequality,
    element_commutativity_degree,
    generalized_degree,
    permutes,
    permuting_pair_count,
    sd,
    spd,
)
from .bounds import (
    BoundCheckResult,
    BoundInstance,
    Rank2AbelianShape,
    abelian_prime_index_sd_check,
    bound_results,
    cauchy_bound_checks,
    check_factor_conditions,
    complement_candidates,
    decomposition_bound_check,
    detect_rank2_shape,
    fitting_centralizer_check,
    iter_bound_results,
    maximal_count_elementary,
    mu_matching_bound_check,
    sd_bound_poly,
    sd_rank2_bound_check,
    spd_bound_poly,
    spd_bound_poly_gap,
    spd_rank2_bound_check,
    subgroup_count_rank2,
)
from .moebius import conjectured_mu_symmetric, predicted_mu_symmetric
from .catalog import CATALOG_SPECS, catalog_groups
from .verify import run_verification

__version__ = "0.1.0"
