"""Probe-elimination driver.

The experiment: publish a structure's redundancy, then repeatedly pick a
fresh block partition whose block count is gamma times the published-bit
total, publish every cell the partition's reference queries probe, and
watch the average charged probe count fall.  Publishing is probe-cost
discounting: a published cell reads free, so each round's published
cells shrink later traces.  A round's cells come from one plan over the
reference set's cover (:func:`~rankprobe.structures.stride_cover`, the
last query of each scan block), which reads every cell the whole set
reads; the set's k queries are never built.

Published bits grow by the exact law |new cells| * (word_bits +
address_bits) per round; the bootstrap itself costs exactly the
structure's redundancy.  A round whose block count k exceeds n ends the
run as "block_overflow" with no row, unless the config asks for a final
full round: then the round runs with k capped at n.  A round at k = n
publishes every cell any query reads, so its average after is 0.0.
After each row the stop rules are checked in this order:

1. "drained": queries are nearly free (average below 0.01 probes);
2. "saturated": the published total reaches the saturation fraction of n.

A run that meets none of them within the round cap ends as "max_rounds".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import LabConfig
from .structures import STATS_SAMPLE, ProbePlan, StructureLayout, sample_queries, stride_cover

MAX_ROUNDS = 16  # the round cap


@dataclass
class EliminationRow:
    round: int
    published_bits: int      # P_i at round start
    block_count: int         # k_i = min(ceil(gamma * P_i), n)
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
    status: str
    rows: list


def _mean(values: np.ndarray) -> float:
    return int(values.sum()) / values.size


def run_elimination(layout: StructureLayout, config: LabConfig | None = None) -> EliminationTrajectory:
    """Drive rounds, measured on the sampled queries, until a stop rule
    of the module docstring ends the run."""
    n = layout.n
    if n < 1:
        raise ValueError("probe elimination needs n >= 1")
    if config is None:
        config = LabConfig()
    plan = ProbePlan(layout.params, sample_queries(n, STATS_SAMPLE, config.rng_seed))
    if not layout.published.bootstrapped:
        layout.publish_redundancy()
        if layout.published.length == 0:
            layout.published.publish_raw(1)  # floor: start from one bit
    published = layout.published_mask()
    # one charged count per published state: a round's before is the last
    # round's after, and a query overlaps the published cells exactly when
    # it reads more cells than it is charged for
    reads = plan.charged(np.zeros_like(published))
    charged = plan.charged(published)
    rows = []
    status = "max_rounds"
    for i in range(MAX_ROUNDS):
        p = layout.published.length
        k = math.ceil(config.gamma * max(p, 1))
        if k > n and not config.final_full_round:
            status = "block_overflow"
            break
        k = min(k, n)
        # the cells of the offset-0 queries of k blocks, from their cover
        new_cells = np.flatnonzero(ProbePlan(layout.params, stride_cover(layout.params, k)).cells(published))
        layout.published.publish_cells(layout.memory, new_cells)
        published[new_cells] = True
        after = plan.charged(published)
        rows.append(EliminationRow(
            round=i,
            published_bits=p,
            block_count=k,
            overlap_prob=_mean(reads > charged),
            avg_probes_before=_mean(charged),
            avg_probes_after=_mean(after),
            published_cells=len(new_cells),
        ))
        charged = after
        if rows[-1].avg_probes_after < 0.01:
            status = "drained"
        elif layout.published.length >= config.saturation_fraction * n:
            status = "saturated"
        else:
            continue
        break
    return EliminationTrajectory(
        structure=layout.kind,
        n=n,
        gamma=config.gamma,
        seed=config.rng_seed,
        status=status,
        rows=rows,
    )
