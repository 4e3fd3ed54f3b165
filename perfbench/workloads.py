"""The benchmark's workloads: fixed lists of helpercache CLI calls.

One *pass* of a workload runs its calls one after another, all with the same
`--seed`, the way one experimenter runs one sweep after another.  The sweep
grids are spelled out, so a later change of a CLI default does not change
what is measured; the flags not given keep their defaults.

Sizes keep a pass to a few seconds, so that a run of 25 s holds several
passes.  `macro-uncoded` runs 60 replications per point (the lazy greedy,
whose cost does not depend on them, is then about half of a pass).
`macro-coded` solves 6-bucket LPs: how many pivots the simplex needs varies
with the seed-drawn layout, and many small LPs per run average that out
better than a few 12-bucket ones.

The CLI seed of each pass comes from a pool of `POOL_SIZE` seeds whose
outputs, produced by the program as of the commit that added this
benchmark, are stored under `reference/`.  The
macro-cell results depend on the seed-drawn planning layout by far more than
their standard errors, so a row can only be checked against a reference for
the same CLI seed.  The benchmark's `--seed` picks the order in which a run
visits the pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

POOL_SIZE = 24


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]  # CLI arguments, without --seed and --out
    rows: int  # data rows the CSV must hold
    reps_per_row: int  # Monte Carlo replications behind each row; 0 if analytic


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple[Call, ...]
    # Coded means depend on which optimal LP vertex the solver returns, so
    # only their range is checked; the LP optimum is checked instead.
    vertex_dependent: bool = False
    n_users: int = 24

    @property
    def replications(self) -> int:
        return sum(call.rows * call.reps_per_row for call in self.calls)

    @property
    def rows(self) -> int:
        return sum(call.rows for call in self.calls)


_HELPER_COUNTS = "0,2,4,8,10,16,24,32"
_CAPACITIES = "0,250,500,1000,2000,4000"
_R_VALUES = "1,1/2,1/4,1/5,1/10,1/20,1/25,1/50"
_GAMMA1_VALUES = "0,0.25,0.5,0.75,1,1.25,1.5,2"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="macro-uncoded",
            why="whole-file path: lazy-greedy heap and snapshot loop over helper "
            "counts and cache sizes, no LP",
            calls=(
                Call(
                    ("sweep-helpers", "--policy", "greedy", "--counts", _HELPER_COUNTS,
                     "--reps", "60"),
                    rows=8,
                    reps_per_row=60,
                ),
                Call(
                    ("sweep-capacity", "--policy", "most-popular", "--capacities",
                     _CAPACITIES, "--helpers", "32", "--reps", "60"),
                    rows=6,
                    reps_per_row=60,
                ),
            ),
        ),
        Workload(
            name="macro-coded",
            why="fractional path: the dense simplex on three growing placement LPs "
            "dominates",
            calls=(
                Call(
                    ("sweep-helpers", "--policy", "coded", "--counts", "8,16,32",
                     "--coded-groups", "6", "--reps", "40"),
                    rows=3,
                    reps_per_row=40,
                ),
            ),
            vertex_dependent=True,
        ),
        Workload(
            name="d2d-clusters",
            why="D2D cluster model only: Monte Carlo chunks for both caching rules "
            "plus the analytic binomial sum, no macro code",
            calls=(
                Call(
                    ("sweep-r", "--mode", "mc", "--r-values", _R_VALUES, "--reps", "1000"),
                    rows=8,
                    reps_per_row=1000,
                ),
                Call(
                    ("sweep-gamma1", "--M", "4", "--gamma1-values", _GAMMA1_VALUES,
                     "--r-values", "1/5,1/10", "--reps", "250"),
                    rows=16,
                    reps_per_row=250,
                ),
                Call(("scaling-check", "--n-values", "250,500,1000,2000,4000,8000"),
                     rows=6, reps_per_row=0),
            ),
        ),
    )
}


def pass_seeds(workload_seed: int, count: int = POOL_SIZE) -> list[int]:
    """The CLI seeds of a run's passes: the pool in an order drawn from
    `workload_seed`, repeated if a run needs more passes than the pool holds."""
    order = random.Random(workload_seed).sample(range(POOL_SIZE), POOL_SIZE)
    return [order[j % POOL_SIZE] for j in range(count)]
