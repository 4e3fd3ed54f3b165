"""The bytes every command writes, pinned by sha256.

One small call of each subcommand at seed 0 writes its primary file and, for
all but `fit` and `place`, its plot file; their digests must not move.  The
coded policy is left out: its rows depend on which optimal LP vertex the
solver returns, not only on the model.
"""

import hashlib

import pytest

from helpercache.cli import main

# Helpers whose coverage overlaps, so that the greedy differs from
# most-popular.
PLACE = ("--n", "40", "--m", "8", "--helper-radius", "250")
CELL = ("--n", "24", "--m", "30", "--gamma", "0.8", "--helper-radius", "250", "--reps", "5")
MACRO = (*CELL, "--capacity", "3")
D2D = ("--n", "20", "--m", "5")

# (argv, sha256 of the primary file, sha256 of the plot file or None)
PINS = [
    (("place", "--helpers", "6", "--capacity", "3", *PLACE),
     "2b5ea27db4bdd4d6e9f39ca8099b1412a74421cc60933f3d4ce9a58592a060a5",
     None),
    (("place", "--policy", "most-popular", "--helpers", "6", "--capacity", "3", *PLACE),
     "2c7447cb5531fb372927c67de6de974491bbb4dd30bbc8ce4d05f62f3778620d",
     None),
    (("place", "--policy", "brute-force", "--helpers", "5", "--capacity", "1", *PLACE),
     "0952224c622b4def35344625708b2035390ac480aa25262ccdad2fae39c6f872",
     None),
    (("simulate-macro", "--helpers", "8", *MACRO),
     "a3fbde98254a6492311c5baca865935692a88b8036542ad7c1cebcce324ced81",
     "829dda795aee59565eb85cab5ef284c5b21f2823652fc74b62a22ec7fccb1985"),
    (("sweep-helpers", "--counts", "0,4,8", *MACRO),
     "8c8bc69b5a9e5972cf3fce3fa7422c290e66b62a819d6ab21daee25557f090d8",
     "66f44d620edb9742980ae9abd8651f8567b02e57fac06596410868fea7cef58e"),
    (("sweep-capacity", "--capacities", "0,3,6", "--helpers", "8", *CELL),
     "bd6185f69c5d56b112b7d022044e51f6f71a18c8a2b11937a3a862134c196fbd",
     "2bc1809d6bf126909dfdf07411123fe2387df6c690470bc0efb574c333c5142a"),
    (("simulate-d2d", "--r", "1/2", *D2D, "--mode", "analytic"),
     "23c1dac6133df0919fc44179156c1699d9fbeed66213a4ce07d37a0a3c47c760",
     "edaf629672a090b27aa7f23522d325e6345c5d9c7fa81f4ba62bff61b53802df"),
    (("simulate-d2d", "--r", "1/3", *D2D, "--mode", "mc", "--reps", "50"),
     "6961118f6e4ca02920ed4b8d8b09d136116d58df0ee9d961a46715e7d193538b",
     "5345c16d3b60d44768baae27e95385043f204ff9ef8e74a2e25758ff16553288"),
    (("sweep-r", "--r-values", "1,1/2,0.3", *D2D, "--reps", "50"),
     "b378a28fdb416651633171a29643feac6f78b88e5bfcd17fa2e64a33f443ec62",
     "3e496724c0f148ff75afb7332a3eb63a1fe3be4afea1b8042b0132f316c40040"),
    (("sweep-gamma1", "--gamma1-values", "0,1", "--r-values", "1/2", *D2D, "--M", "2",
      "--reps", "20"),
     "0f5bccba848789e875cfa6bb92466b8b676d7a711881f8580f47936f304e4492",
     "bcbf46f059b1ab919e1ec4ba00c13efdd5929997d45c8197c0e8354adf7b1d1e"),
    (("scaling-check", "--n-values", "50,100"),
     "830bd0de51ad2aa347035ed1163a7d447af8ea9262a3fd6f2ac1bfa0e04a7387",
     "cc6b11e416c3b96f0742efcd05e9ff7e4031ef549dd6fb93dbe516b630b05a04"),
    (("scaling-check", "--n-values", "50,100", "--mode", "mc", "--reps", "50"),
     "f4104e6dd54ae9e1f4f18c9f2eca134085921c44d7a6b04bdc1977df89cc81db",
     "7c59efb3785697a1e6cb771c518bee599f9c6a96c73b771e103e782b07eeeeb6"),
    (("fit", "--samples", "500", "--m", "20"),
     "df28e9fdee065e2ac546405de043e03b36a7d280698158f13b68ce2fbda7272d",
     None),
]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "argv, primary, plot", PINS, ids=[f"{argv[0]}-{k}" for k, (argv, _, _) in enumerate(PINS)]
)
def test_output_bytes_are_pinned(capsys, tmp_path, argv, primary, plot):
    out = tmp_path / "res.csv"
    assert main([*argv, "--seed", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    plot_path = tmp_path / "res.plot.csv"
    assert (sha256(out), sha256(plot_path) if plot_path.exists() else None) == (
        primary, plot
    )
