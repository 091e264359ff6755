"""
shapewilf: permutation patterns, partially ordered patterns, Ferrers-board
fillings, and exhaustive (shape-)Wilf-equivalence checking.
"""

from .perms import (
    Perm,
    PatternSet,
    all_perms,
    apply_ops,
    avoids_all,
    complement,
    contains,
    direct_sum,
    format_pattern_set,
    format_perm,
    inverse,
    make_perm,
    occurrences,
    parse_pattern_set,
    parse_perm,
    pattern_occurrences,
    reverse,
    set_apply_ops,
    set_direct_sum,
)
from .pops import (
    Pop,
    below_all_pop,
    fan_pop,
    format_pop,
    parse_pop,
    pop,
    pop_occurrences,
    pop_to_pattern_set,
)
from .boards import (
    Board,
    Filling,
    OutOfBoardError,
    board_from_row_lengths,
    count_fillings,
    enumerate_boards,
    filling_avoids_all,
    filling_contains,
    fillings,
    format_board,
    format_filling,
    make_board,
    make_filling,
    parse_board,
    parse_filling,
    square_board,
    transpose_filling,
    transversal_count_formula,
)
from .bijections import (
    BijectionError,
    BijectionOracle,
    VerificationReport,
    direct_sum_transfer,
    fan_bijection,
    fan_bottom_last_oracle,
    fan_oracle,
    fan_to_bottom_last,
    transfer_oracle,
    verify_bijection,
    wedge_valley_bijection,
    wedge_valley_oracle,
)
from .equivalence import (
    EquivalenceReport,
    avoider_counts,
    count_avoiders,
    count_avoiders_naive,
    evaluate_oracle_expression,
    evaluate_set_expression,
    find_shape_wilf_divergence,
    shape_wilf_table,
    symmetry_identity_check,
    symmetry_orbit,
    trivial_symmetry_class,
    wilf_table,
)

__version__ = "0.1.0"
