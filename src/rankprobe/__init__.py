"""Desk-scale laboratory for the redundancy/query-time trade-off of
succinct rank structures: an instrumented cell-probe simulator, counter
structures with a tunable redundancy ladder, an answer-entropy lab, an
encode/decode accounting engine, and a probe-elimination driver."""

from .bits import BitArray, BitString
from .errors import CorruptEncoding, CorruptFootprint, LabError, RefusalError, SimulationFault
from .model import CellMemory, Footprint, ProbeTrace, PublishedBits
from .structures import (
    StructureLayout,
    StructureStats,
    build_footprint,
    build_naive,
    build_recursive,
    build_two_level,
    max_stage,
    rank,
    replay_from_footprint,
    structure_stats,
)
from .entropy import (
    EntropyReport,
    LabConfig,
    MonteCarloReport,
    analytic_deficit,
    binom_entropy,
    binom_entropy_estimate,
    block_deficit,
    block_deficit_argmin,
    brute_force_deficit,
    montecarlo_deficit,
)
from .encoding import (
    EncodingRecord,
    SizeAccounting,
    choose_offset,
    decode,
    encode,
    size_accounting,
)
from .elimination import (
    EliminationRow,
    EliminationTrajectory,
    run_elimination,
)

__version__ = "0.1.0"
