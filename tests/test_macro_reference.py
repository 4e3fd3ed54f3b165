"""The `macro-uncoded` benchmark's two sweeps at CLI seed 0, byte for byte.

The expected CSVs are the stored benchmark reference
(`perfbench/reference/macro-uncoded.json`), read and never written here.  Any
change to the macro streams, the greedy or most-popular placement, or the
snapshot scoring shows up as a changed byte.
"""

import json
from pathlib import Path

from helpercache import cli

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference" / "macro-uncoded.json"

CALLS = [
    ["sweep-helpers", "--policy", "greedy", "--counts", "0,2,4,8,10,16,24,32",
     "--reps", "60"],
    ["sweep-capacity", "--policy", "most-popular", "--capacities",
     "0,250,500,1000,2000,4000", "--helpers", "32", "--reps", "60"],
]


def test_macro_uncoded_sweeps_match_the_stored_reference(tmp_path):
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert reference["calls"] == CALLS
    for k, argv in enumerate(CALLS):
        out = tmp_path / f"call{k}.csv"
        assert cli.main([*argv, "--seed", "0", "--out", str(out)]) == 0
        expected = reference["seeds"]["0"]["csv"][k].encode("utf-8")
        assert out.read_bytes() == expected
