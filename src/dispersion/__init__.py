"""Exact engine and verification harness for two-sided dispersion.

Occupants of a line of rooms disperse pairwise: two occupants of
adjacent rooms jump to the nearest empty rooms on their respective
sides.  The package provides the exact move dynamics, exhaustive
reachability, the run-length ("suite") bijection, exact final-state
probabilities with their tree and permutation combinatorics, seeded
sampling, and a verification suite tying all of it together.
"""
from .errors import (
    BudgetExceededError,
    DispersionError,
    DomainError,
    InvalidMoveError,
    InvariantViolationError,
    MalformedStateError,
    TheoremViolationError,
)
from .states import (
    FinalShadowId,
    LabeledState,
    Move,
    RoomState,
    Shadow,
    apply_move,
    apply_move_labeled,
    available_moves,
    centered_sumtroid,
    classify_final_shadow,
    clusteron,
    entropy,
    final_shadow_family,
    flat_clusteron,
    gaps,
    has_crowded_isolated_room,
    is_final,
    parse_state,
    shadow,
    state_from_positions,
    sumtroid,
)
from .suites import (
    SuiteMove,
    SuiteState,
    apply_suite_move,
    from_suites,
    parse_suite_state,
    suite_move_for,
    suite_moves,
    to_suites,
    verify_move_correspondence,
)
from .reachability import (
    DEFAULT_NODE_BUDGET,
    FinalPlacement,
    ReachGraph,
    crowded_states,
    displacements,
    earliest_gap_decrease,
    explore,
    export_dot,
    final_shadow_set,
    final_states,
    flat_final_placements,
    gap_delta_class,
    is_spacious,
    locked_in_map,
    max_displacement,
    merge_shadows_check,
    placement_of,
    run_policy,
    verify_locked_in_equivalence,
)
from .probability import (
    ScaledRow,
    SumtroidDistribution,
    final_distribution,
    lx_to_sumtroid,
    monte_carlo,
    monte_carlo_counts,
    row_from_json,
    row_half_width,
    row_to_csv,
    row_to_json,
    scaled_row,
    shadow_of_sumtroid,
    shadow_probabilities,
    sumtroid_to_lx,
    window_bounds,
    window_recurrence_step,
    zero_pattern_check,
    zero_residue,
)
from .trees import (
    RecursiveTree,
    RTable,
    TreeStats,
    ab_identities_check,
    enumerate_trees,
    eulerian_check,
    eulerian_triangle,
    r_table_bruteforce,
    r_table_recursive,
    t_values,
    total_trees,
    tree_stats,
)
from .perms import (
    PermStats,
    perm_count_checks,
    perm_stats,
    perm_to_tree,
    perms_of,
    sign_involution,
    tree_to_perm,
)
from .verify import (
    CheckResult,
    VerifyReport,
    compositions,
    golden_flat4_finals,
    golden_scaled_rows,
    run_suites,
)

__version__ = "0.1.0"
