"""Gate-level substrate: cell fault dictionaries, netlist elaboration,
the exact parallel-pattern fault-injection simulator, and the shard —
the one unit of exact graded work every dispatcher moves."""

from .cells import CellFault, CellVariant, VARIANT_KINDS, cell_variant, variant_for_bit
from .netlist import Dff, Gate, GateNetlist, GateRef, elaborate
from .gatesim import (
    NetlistFault,
    bits_to_raw,
    netlist_fault_detected,
    pack_input_bits,
    simulate_netlist,
)
from .compiled import CompiledNetlist, compile_netlist, compiled_program
from .faults import (
    EnumeratedFault,
    enumerate_cell_faults,
    gate_level_fault_simulation,
    schedule_fault_batches,
)
from .fault_parallel import (
    DEFAULT_CHUNK,
    DEFAULT_ENGINE,
    DEFAULT_WORDS,
    ENGINES,
    fault_parallel_reference,
    gate_level_missed,
    gate_level_missed_reference,
    resolve_engine,
)
from .shards import (
    MergedGrade,
    Shard,
    coverage_checkpoints,
    gate_grading_inputs,
    grade_shard,
    merge_shard_results,
    plan_shards,
    single_node_grade,
)
from .signature import combine_partials, shard_signature_partial
from .eventsim import (
    EventCone,
    FusedProgram,
    fuse_program,
    fused_program,
    recipe_truth_table,
)
from .verilog import generate_testbench, netlist_to_verilog, save_verilog

__all__ = [
    "CellFault",
    "CellVariant",
    "VARIANT_KINDS",
    "cell_variant",
    "variant_for_bit",
    "GateNetlist",
    "Gate",
    "Dff",
    "GateRef",
    "elaborate",
    "NetlistFault",
    "simulate_netlist",
    "netlist_fault_detected",
    "pack_input_bits",
    "bits_to_raw",
    "CompiledNetlist",
    "compile_netlist",
    "compiled_program",
    "DEFAULT_CHUNK",
    "DEFAULT_ENGINE",
    "DEFAULT_WORDS",
    "ENGINES",
    "EventCone",
    "FusedProgram",
    "fuse_program",
    "fused_program",
    "recipe_truth_table",
    "resolve_engine",
    "EnumeratedFault",
    "enumerate_cell_faults",
    "gate_level_fault_simulation",
    "schedule_fault_batches",
    "fault_parallel_reference",
    "gate_level_missed",
    "gate_level_missed_reference",
    "MergedGrade",
    "Shard",
    "combine_partials",
    "coverage_checkpoints",
    "gate_grading_inputs",
    "grade_shard",
    "merge_shard_results",
    "plan_shards",
    "shard_signature_partial",
    "single_node_grade",
    "netlist_to_verilog",
    "generate_testbench",
    "save_verilog",
]
