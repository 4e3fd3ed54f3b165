"""The `d2d-clusters` benchmark's two Monte Carlo sweeps at CLI seed 0, byte
for byte.

The expected CSVs are the stored benchmark reference
(`perfbench/reference/d2d-clusters.json`), read and never written here.  Any
change to the `d2d-mc` stream, the chunking, the random-cache rejection rounds
or the cluster scoring shows up as a changed byte.

The reference's third call, `scaling-check`, is left out: its rows are
analytic, and computing the binomial probabilities in log space instead of
with `scipy.stats` moved them on purpose, by up to about 4e-12 relative, so
its stored CSV no longer matches byte for byte (the benchmark checks those
values to 1e-9).
"""

import json
from pathlib import Path

from helpercache import cli

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference" / "d2d-clusters.json"

CALLS = [
    ["sweep-r", "--mode", "mc", "--r-values", "1,1/2,1/4,1/5,1/10,1/20,1/25,1/50",
     "--reps", "1000"],
    ["sweep-gamma1", "--M", "4", "--gamma1-values", "0,0.25,0.5,0.75,1,1.25,1.5,2",
     "--r-values", "1/5,1/10", "--reps", "250"],
]


def test_d2d_sweeps_match_the_stored_reference(tmp_path):
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert reference["calls"][: len(CALLS)] == CALLS
    for k, argv in enumerate(CALLS):
        out = tmp_path / f"call{k}.csv"
        assert cli.main([*argv, "--seed", "0", "--out", str(out)]) == 0
        expected = reference["seeds"]["0"]["csv"][k].encode("utf-8")
        assert out.read_bytes() == expected
