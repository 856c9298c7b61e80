"""repro.analysis — performance, timing and area models + measurement helpers.

Carries the quantitative side of the paper's argument: the ≈50 MHz Cyclone
clock model, real-unit link models spanning the prototyping-serial to
processor-integrated spectrum, first-order LE area estimates, logic-level
critical-path estimates, and the cycle-measurement harness the benchmarks
are built on.
"""

from .area import (
    CYCLONE_EP1C3_LES,
    CYCLONE_EP1C12_LES,
    CYCLONE_EP1C20_LES,
    AreaEstimate,
    area_arith_unit,
    area_case_study_system,
    area_cell,
    area_framework,
    area_logic_unit,
    area_register_file,
    area_tree,
    area_xisort_unit,
)
from .counters import (
    CounterReport,
    collect_counters,
    counters_for,
    engine_counters_for,
    kernel_counters_for,
    link_counters_for,
    state_counters_for,
)
from .inventory import ComponentStats, inventory, inventory_table, stats_for
from .clock import (
    DEFAULT_CLOCKS,
    INTEGRATED_LINK,
    PCIE_CLASS_LINK,
    REAL_LINKS,
    SERIAL_PROTOTYPE_LINK,
    ClockModel,
    LinkModel,
)
from .perf import (
    IssueRateResult,
    XiStepCosts,
    measure_end_to_end_sort,
    measure_issue_rate,
    measure_xisort_step_costs,
    roundtrip_cycles,
)
from .report import format_table, print_table
from .timing import (
    LEVEL_DELAY_NS,
    REG_OVERHEAD_NS,
    ClockEstimate,
    PathReport,
    ack_forwarding_path,
    arith_unit_path,
    estimate_clock,
    rtm_paths,
    xisort_paths,
)

__all__ = [
    "CYCLONE_EP1C3_LES",
    "CYCLONE_EP1C12_LES",
    "CYCLONE_EP1C20_LES",
    "AreaEstimate",
    "area_arith_unit",
    "area_case_study_system",
    "area_cell",
    "area_framework",
    "area_logic_unit",
    "area_register_file",
    "area_tree",
    "area_xisort_unit",
    "CounterReport",
    "ComponentStats",
    "inventory",
    "inventory_table",
    "stats_for",
    "collect_counters",
    "counters_for",
    "engine_counters_for",
    "kernel_counters_for",
    "link_counters_for",
    "state_counters_for",
    "DEFAULT_CLOCKS",
    "INTEGRATED_LINK",
    "PCIE_CLASS_LINK",
    "REAL_LINKS",
    "SERIAL_PROTOTYPE_LINK",
    "ClockModel",
    "LinkModel",
    "IssueRateResult",
    "XiStepCosts",
    "measure_end_to_end_sort",
    "measure_issue_rate",
    "measure_xisort_step_costs",
    "roundtrip_cycles",
    "format_table",
    "print_table",
    "LEVEL_DELAY_NS",
    "REG_OVERHEAD_NS",
    "ClockEstimate",
    "PathReport",
    "ack_forwarding_path",
    "arith_unit_path",
    "estimate_clock",
    "rtm_paths",
    "xisort_paths",
]
