"""The `d2d-clusters` benchmark's three calls at CLI seed 0, byte for byte.

The expected CSVs of the two Monte Carlo sweeps are the stored benchmark
reference (`perfbench/reference/d2d-clusters.json`), read and never written
here.  Any change to the `d2d-mc` stream, the chunking, the request sampler,
the random-cache rejection rounds or the cluster scoring shows up as a
changed byte.

The third call, `scaling-check`, is analytic, so its CSV does not depend on
the seed.  Its stored reference is older: computing the binomial
probabilities in log space instead of with `scipy.stats` moved its rows on
purpose, by up to about 4e-12 relative (the benchmark checks those values to
1e-9).  The CSV pinned below is the one the per-occupancy sum of the
analytic model wrote in log space; the blocked products keep every byte.

A small `scaling-check --mode mc` is pinned too, and checked against the
analytic mode: same side per n, mean within 4 standard errors.
"""

import csv
import io
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
SCALING_CALL = ["scaling-check", "--n-values", "250,500,1000,2000,4000,8000"]
SCALING_CSV = """\
n,m,r,K,mean_active,ratio,stderr,mode
250,276,0.1,100,53.39436644551995,0.2135774657820798,0.0,analytic
500,311,0.07142857142857142,196,106.6069672681395,0.213213934536279,0.0,analytic
1000,345,0.05,400,212.82750307866735,0.21282750307866735,0.0,analytic
2000,380,0.03571428571428571,784,425.33672861304655,0.21266836430652328,0.0,analytic
4000,415,0.02564102564102564,1521,849.871531761209,0.21246788294030225,0.0,analytic
8000,449,0.017857142857142856,3136,1698.568757596753,0.21232109469959412,0.0,analytic
"""


def test_d2d_sweeps_match_the_stored_reference(tmp_path):
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert reference["calls"][: len(CALLS)] == CALLS
    for k, argv in enumerate(CALLS):
        out = tmp_path / f"call{k}.csv"
        assert cli.main([*argv, "--seed", "0", "--out", str(out)]) == 0
        expected = reference["seeds"]["0"]["csv"][k].encode("utf-8")
        assert out.read_bytes() == expected


def test_scaling_check_matches_the_pinned_csv(tmp_path):
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert reference["calls"][len(CALLS)] == SCALING_CALL
    out = tmp_path / "scaling.csv"
    assert cli.main([*SCALING_CALL, "--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == SCALING_CSV.encode("utf-8")


SCALING_MC_CSV = """\
n,m,r,K,mean_active,ratio,stderr,mode
60,205,0.2,25,12.83,0.21383333333333335,0.08914941978285135,mc
120,239,0.14285714285714285,49,25.44,0.21200000000000002,0.12476946159363642,mc
"""


def test_scaling_check_mc_picks_the_analytic_side(tmp_path):
    rows = {}
    for mode in ("mc", "analytic"):
        out = tmp_path / f"{mode}.csv"
        argv = ["scaling-check", "--mode", mode, "--n-values", "60,120", "--reps", "400"]
        assert cli.main([*argv, "--seed", "0", "--out", str(out)]) == 0
        rows[mode] = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
    assert (tmp_path / "mc.csv").read_bytes() == SCALING_MC_CSV.encode("utf-8")
    assert len(rows["mc"]) == len(rows["analytic"]) == 2
    for mc, exact in zip(rows["mc"], rows["analytic"]):
        assert (mc["n"], mc["r"], mc["K"]) == (exact["n"], exact["r"], exact["K"])
        z = (float(mc["mean_active"]) - float(exact["mean_active"])) / float(mc["stderr"])
        assert abs(z) < 4.0
