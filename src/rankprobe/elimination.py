"""Probe-elimination driver.

The experiment: publish a structure's redundancy, then repeatedly pick a
fresh block partition whose block count is gamma times the published-bit
total, publish every cell the partition's reference queries probe, and
watch the average charged probe count fall.  Publishing is probe-cost
discounting: a published cell reads free, so each round's published
cells shrink later traces.

Published bits grow by the exact law |new cells| * (word_bits +
address_bits) per round; the bootstrap itself costs exactly the
structure's redundancy.  The trajectory stops when queries are nearly
free (average below 0.01 probes), when the published total passes the
saturation fraction of n, when the block count would exceed n, or at the
round cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import LabConfig
from .model import QueryBlocks
from .structures import STATS_SAMPLE, ProbePlan, StructureLayout, sample_queries

MAX_ROUNDS = 16  # the round cap


@dataclass
class EliminationRow:
    round: int
    published_bits: int      # P_i at round start
    block_count: int         # k_i = ceil(gamma * P_i)
    overlap_prob: float      # P(uniform query's probes hit published cells)
    avg_probes_before: float
    avg_probes_after: float
    published_cells: int     # new cells published this round


@dataclass
class EliminationTrajectory:
    structure: str
    n: int
    gamma: float
    seed: int
    status: str = "running"
    rows: list = field(default_factory=list)


def _mean(values: np.ndarray) -> float:
    return int(values.sum()) / values.size


def eliminate_round(layout: StructureLayout, round_no: int, config: LabConfig, plan: ProbePlan, cap_blocks: bool = False):
    """One publish round, measured on the sampled queries of `plan`.
    Returns (row, saturated_blocks) where the row is None when k_i > n
    and capping is off (the saturation signal)."""
    n = layout.n
    p_before = layout.published.length
    k = math.ceil(config.gamma * max(p_before, 1))
    if k > n:
        if not cap_blocks:
            return None, True
        k = n
    published = layout.published_mask()
    before = _mean(plan.charged(published))
    ov = _mean(plan.touches(published))
    reference = ProbePlan(layout.params, QueryBlocks(n, k).offset_queries(0))
    new_cells = np.flatnonzero(reference.cells(published))
    layout.published.publish_cells(layout.memory, new_cells.tolist())
    published[new_cells] = True
    after = _mean(plan.charged(published))
    row = EliminationRow(
        round=round_no,
        published_bits=p_before,
        block_count=k,
        overlap_prob=ov,
        avg_probes_before=before,
        avg_probes_after=after,
        published_cells=len(new_cells),
    )
    return row, False


def run_elimination(layout: StructureLayout, config: LabConfig | None = None) -> EliminationTrajectory:
    """Drive rounds until queries are nearly free or the process saturates."""
    n = layout.n
    if n < 1:
        raise ValueError("probe elimination needs n >= 1")
    if config is None:
        config = LabConfig()
    traj = EliminationTrajectory(
        structure=layout.kind,
        n=n,
        gamma=config.gamma,
        seed=config.rng_seed,
    )
    plan = ProbePlan(layout.params, sample_queries(n, STATS_SAMPLE, config.rng_seed))
    if not layout.published.bootstrapped:
        layout.publish_redundancy()
        if layout.published.length == 0:
            layout.published.publish_raw(1)  # floor: start from one bit
    for i in range(MAX_ROUNDS):
        row, overflow = eliminate_round(layout, i, config, plan)
        if overflow:
            if config.final_full_round:
                row, _ = eliminate_round(layout, i, config, plan, cap_blocks=True)
                traj.rows.append(row)
                traj.status = "drained" if row.avg_probes_after < 0.01 else "block_overflow"
            else:
                traj.status = "block_overflow"
            return traj
        traj.rows.append(row)
        if row.avg_probes_after < 0.01:
            traj.status = "drained"
            return traj
        if layout.published.length >= config.saturation_fraction * n:
            traj.status = "saturated"
            return traj
    traj.status = "max_rounds"
    return traj
