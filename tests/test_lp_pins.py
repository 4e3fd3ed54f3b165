"""The bucket LPs of two CLI calls, pinned byte for byte.

The coded placement a solver returns may depend on which optimal vertex it
picks, but the LP it is handed does not.  So these hashes pin what the coded
path builds, whatever HiGHS version is installed: `c`, the CSC arrays of `A`
and `b` of every LP a call assembles, each as the sha256 of its raw bytes.
"""

import hashlib

import pytest

from helpercache import cli, placement_coded


def _lp_hashes(monkeypatch, tmp_path, argv) -> list[dict]:
    built = []
    original = placement_coded.build_lp

    def spy(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(placement_coded, "build_lp", spy)
    assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    return [
        {
            "c": hashlib.sha256(lp.c.tobytes()).hexdigest(),
            "A.start": hashlib.sha256(lp.A.start.tobytes()).hexdigest(),
            "A.index": hashlib.sha256(lp.A.index.tobytes()).hexdigest(),
            "A.value": hashlib.sha256(lp.A.value.tobytes()).hexdigest(),
            "b": hashlib.sha256(lp.b.tobytes()).hexdigest(),
        }
        for lp in built
    ]


PINNED = {
    "place": (
        ("place", "--policy", "coded", "--seed", "0"),
        {
            "c": "24ccd05c4c9faa77a9cac0e4d92643cd318bb9d6df70ba3a90ecab89855b9d02",
            "A.start": "3c205d3b3e449dc550987f1748ca85a9f00c80cb822afab647a0a7cd8ebfbb15",
            "A.index": "7288222735d5f91616de462cbe7c2cad2872de6ed3681076aafbc8ba6677b883",
            "A.value": "076699c208cd1b3c987d90455430b5aeee36942a19916b50d9265e22d4b7b75e",
            "b": "c70dddda275ad612c9ca7d8538e197032b33ca3a7698987540a3ef145182c880",
        },
    ),
    "macro-coded": (
        ("simulate-macro", "--policy", "coded", "--helpers", "32",
         "--coded-groups", "6", "--reps", "1", "--seed", "0"),
        {
            "c": "38fdbac4fee1c171bc30bd03540918817b35d897eff10e34562dec2e45d30fc3",
            "A.start": "26d76bde3cca567db39c50508648e4c8473ab8d376ef07d4892ea790b83cd8b1",
            "A.index": "dfc7a9ebe85a82287d10477cc4f07e7aaadc99907a15d1f2a5039e415bb3be0f",
            "A.value": "6748c7afb19fa63fefd752e06a696002cb759099997491d4da8ea4b614a5a599",
            "b": "f4bdc0610b17d310504e942d1dd5df356c4bfa22f82d686490984a750dfa5560",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bucket_lp_bytes_are_pinned(monkeypatch, tmp_path, name):
    argv, want = PINNED[name]
    assert _lp_hashes(monkeypatch, tmp_path, list(argv)) == [want]
