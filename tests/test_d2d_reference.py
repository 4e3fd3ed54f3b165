"""The `d2d-clusters` benchmark's three calls at CLI seed 0.

The two Monte Carlo sweeps are pinned byte for byte below.  Any change to
the `d2d-mc` stream layout (positions, then requests, per block of
replications; random caches on a child stream), the block size, the request
sampler, the random-cache rejection rounds or the cluster scoring shows up
as a changed byte.  The stored benchmark reference
(`perfbench/reference/d2d-clusters.json`, read and never written here) was
written with an older stream layout, so its Monte Carlo rows are matched by
the benchmark's own rule instead (`perfbench/check.py`): means within
`Z_SCORE` combined standard errors, standard errors within a factor
`SE_FACTOR`.

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
import importlib.util
import io
import json
from pathlib import Path

from helpercache import cli

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference" / "d2d-clusters.json"
_spec = importlib.util.spec_from_file_location("bench_check", ROOT / "perfbench" / "check.py")
bench_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_check)

CALLS = [
    ["sweep-r", "--mode", "mc", "--r-values", "1,1/2,1/4,1/5,1/10,1/20,1/25,1/50",
     "--reps", "1000"],
    ["sweep-gamma1", "--M", "4", "--gamma1-values", "0,0.25,0.5,0.75,1,1.25,1.5,2",
     "--r-values", "1/5,1/10", "--reps", "250"],
]
CALL_CSVS = [
    """\
r,gamma,gamma1,mean_active,stderr,K,mode
1.0,0.6,,1.0,0.0,1,mc
0.5,0.6,,4.0,0.0,4,mc
0.25,0.6,,15.955,0.006558812241406062,16,mc
0.2,0.6,,23.69,0.03565348750362539,25,mc
0.1,0.6,,28.032,0.12682689407637898,100,mc
0.05,0.6,,11.261,0.09883646921884477,400,mc
0.04,0.6,,7.609,0.0848251985810485,625,mc
0.02,0.6,,2.161,0.04681100586689278,2500,mc
""",
    """\
r,gamma,gamma1,mean_active,stderr,K,mode
0.2,0.6,0.0,18.676,0.13297679237083795,25,mc
0.2,0.6,0.25,20.948,0.10890650350655877,25,mc
0.2,0.6,0.5,23.096,0.07992928601615436,25,mc
0.2,0.6,0.75,23.944,0.056854072344632224,25,mc
0.2,0.6,1.0,24.196,0.056879496379923546,25,mc
0.2,0.6,1.25,24.268,0.04893139201471783,25,mc
0.2,0.6,1.5,24.008,0.06437640317026544,25,mc
0.2,0.6,2.0,23.584,0.07612460721273491,25,mc
0.1,0.6,0.0,9.2,0.16747594684337314,100,mc
0.1,0.6,0.25,12.548,0.20593304171667726,100,mc
0.1,0.6,0.5,18.712,0.21416744565670215,100,mc
0.1,0.6,0.75,27.68,0.2633854353418214,100,mc
0.1,0.6,1.0,34.368,0.2570185560472443,100,mc
0.1,0.6,1.25,37.604,0.2847050471196843,100,mc
0.1,0.6,1.5,38.308,0.272819106845985,100,mc
0.1,0.6,2.0,37.636,0.2802716983564313,100,mc
""",
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


def test_d2d_sweeps_match_the_pinned_csvs(tmp_path):
    for k, argv in enumerate(CALLS):
        out = tmp_path / f"call{k}.csv"
        assert cli.main([*argv, "--seed", "0", "--out", str(out)]) == 0
        assert out.read_bytes() == CALL_CSVS[k].encode("utf-8")


def test_d2d_sweeps_match_the_stored_reference():
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert reference["calls"][: len(CALLS)] == CALLS
    for k, text in enumerate(CALL_CSVS):
        header, rows = bench_check.parse_csv(text)
        ref_header, ref_rows = bench_check.parse_csv(reference["seeds"]["0"]["csv"][k])
        assert header == ref_header
        assert len(rows) == len(ref_rows)
        for row, ref in zip(rows, ref_rows):
            assert bench_check.row_problems(header, row, ref) == [], row


def test_scaling_check_matches_the_pinned_csv(tmp_path):
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert reference["calls"][len(CALLS)] == SCALING_CALL
    out = tmp_path / "scaling.csv"
    assert cli.main([*SCALING_CALL, "--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == SCALING_CSV.encode("utf-8")


SCALING_MC_CSV = """\
n,m,r,K,mean_active,ratio,stderr,mode
60,205,0.2,25,12.7425,0.212375,0.0887280453977222,mc
120,239,0.14285714285714285,49,25.7375,0.21447916666666667,0.12266458689121722,mc
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
