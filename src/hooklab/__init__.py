"""hooklab: fixed points in first-column hook lengths of integer partitions.

Exact q-series constructors, an independent enumeration oracle, and the
invertible combinatorial maps connecting the two, with a CLI front end.
"""

from .partitions import (
    InvariantError,
    Partition,
    generate_partitions,
)
from .series import (
    Series,
    TruncationError,
    gf_all_h_fixed,
    gf_first_column_k_hooks,
    gf_fixed_hooks_double_sum,
    gf_fixed_hooks_simplified,
    gf_h_fixed_hook_k,
    gf_h_fixed_part_k,
    gf_hook_k_all_h,
    gf_M_k,
    gf_ones_shifted,
    inv_finite_pochhammer,
    inv_pochhammer_tail,
    partition_numbers,
    pentagonal_series,
    q_binomial,
    truncated_pentagonal,
)
from .bijections import (
    b_bijection,
    b_inverse,
    f_bijection,
    f_inverse,
    mex_map,
    mex_map_inverse,
)
from .oracle import (
    CountTable,
    count_first_column_k_hooks,
    count_fixed_hooks,
    count_generalized_mex,
    count_h_fixed_by_hook,
    count_h_fixed_by_part,
    count_mex_class,
    count_mex_class_multi,
    count_ones_exact,
    count_ones_shifted,
    count_parts_eq_mult,
)
from .verify import verify_theorem

__version__ = "0.1.0"

__all__ = [
    "CountTable",
    "InvariantError",
    "Partition",
    "Series",
    "TruncationError",
    "b_bijection",
    "b_inverse",
    "count_first_column_k_hooks",
    "count_fixed_hooks",
    "count_generalized_mex",
    "count_h_fixed_by_hook",
    "count_h_fixed_by_part",
    "count_mex_class",
    "count_mex_class_multi",
    "count_ones_exact",
    "count_ones_shifted",
    "count_parts_eq_mult",
    "f_bijection",
    "f_inverse",
    "generate_partitions",
    "gf_M_k",
    "gf_all_h_fixed",
    "gf_first_column_k_hooks",
    "gf_fixed_hooks_double_sum",
    "gf_fixed_hooks_simplified",
    "gf_h_fixed_hook_k",
    "gf_h_fixed_part_k",
    "gf_hook_k_all_h",
    "gf_ones_shifted",
    "inv_finite_pochhammer",
    "inv_pochhammer_tail",
    "mex_map",
    "mex_map_inverse",
    "partition_numbers",
    "pentagonal_series",
    "q_binomial",
    "truncated_pentagonal",
    "verify_theorem",
]
