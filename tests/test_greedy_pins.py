"""The greedy's trajectory at every sweep point of every benchmark pool seed,
pinned.

`test_greedy_classes.py` compares the greedy with its heap oracles at a few
seeds; these hashes pin it at all 24 seeds of the benchmark pool
(`POOL_SIZE` in `perfbench/workloads.py`), for each `SWEEP_POINTS` entry
(helper count, capacity).  Each entry is the first 16 hex digits of the
sha256 of the trajectory's helpers, ranks and gain bits, concatenated as
little-endian int64.
"""

import hashlib

import numpy as np
import pytest
from test_greedy_classes import SWEEP_POINTS

from helpercache.macro_sim import MacroConfig, experiment_popularity, plan_deployment
from helpercache.placement_uncoded import HelperSpecs, _greedy

PINNED = {
    0: (
        "e3b0c44298fc1c14", "bcf8197f7c063712", "e7d3d15a8ed225d7", "8a3cc69b64553a7f",
        "6ead0a33484d13fd", "4ce6f35be3de7dfe", "fdeac774013de054", "98582baf325d3bf6",
        "e3b0c44298fc1c14", "1af0f835a6c374dd", "8df19dedae5b311e", "f2500c9e6064de4e",
        "98582baf325d3bf6", "bca6ffcfe4300dcf",
    ),
    1: (
        "e3b0c44298fc1c14", "bf9bd03b1984d1d1", "3f8ad816f62b0931", "aff1d883c1ed1f44",
        "1dd2831f78587e6f", "2ae721fff4c13efa", "def68e8ccebbabe3", "8c820ff4be01c0c3",
        "e3b0c44298fc1c14", "d5a901036ca7cdc3", "91cc49be9883f4c0", "f50034ef086a6fe5",
        "8c820ff4be01c0c3", "2f514fdec234f72c",
    ),
    2: (
        "e3b0c44298fc1c14", "95413704f773ef57", "9c68709805dc2127", "454578a3656b7f12",
        "f0103949635dd70f", "2af13cc562727ccf", "2fef55367d217a6c", "14da0ec1cafaecfd",
        "e3b0c44298fc1c14", "06e16cacd5e0be10", "09850ff86d703cc8", "4f3966e89d09bd80",
        "14da0ec1cafaecfd", "54c55421463a8f0e",
    ),
    3: (
        "e3b0c44298fc1c14", "e84d0bdbd63414a7", "019e9246993cb4e5", "7a3fc6e1d8f59c46",
        "b348b756356f3fd8", "2268ffb3c69dd5e6", "cd34daf1a0e28ef3", "a6949c33e56a9ce2",
        "e3b0c44298fc1c14", "efdfea1f36ee5f32", "cc47086902d52f2a", "415eaca18ab8cf00",
        "a6949c33e56a9ce2", "646338ec372e142c",
    ),
    4: (
        "e3b0c44298fc1c14", "36bf44b1ff3ae8b8", "e8592f5805617011", "118c90176411ab5c",
        "59e48b2bfbc72467", "687b14b07e7cb9a2", "8b7b323a6ca819e1", "5db2924304e498c8",
        "e3b0c44298fc1c14", "482b3b04aeb32643", "6d318852b1f9c10b", "930c2013e2f401cf",
        "5db2924304e498c8", "2eefc7c1fa91811c",
    ),
    5: (
        "e3b0c44298fc1c14", "4ecfd58b31058587", "e0dc5433ecc6222e", "787634446e3c89f5",
        "4fbdd178248080be", "be80aecacf350721", "cde5b9302829adc3", "b2a95245c0e9ba73",
        "e3b0c44298fc1c14", "2d5a0244595622ce", "35954ec2aea03860", "ef5a2f74fef5e683",
        "b2a95245c0e9ba73", "fbfc63f05b41cc32",
    ),
    6: (
        "e3b0c44298fc1c14", "21407773c4f37342", "9603a2973a36bc0b", "173ce1d56366e7fd",
        "40a03c8deaf7ff4c", "8e3ca7a15a7198c3", "75b691447e9fd9d7", "c45372a410b9fbbe",
        "e3b0c44298fc1c14", "2a64ecc2069b883f", "ecff498a55c11320", "295fdaa418f817ff",
        "c45372a410b9fbbe", "ddc6c669a5fca5cd",
    ),
    7: (
        "e3b0c44298fc1c14", "58898443fd79ceba", "943b5ebb692788f2", "4a86bbf4c2963f03",
        "58fdaef382b9e0c9", "c8917f30b4e2cf0a", "ea9ccc26aba7086c", "0db06e1344e5c679",
        "e3b0c44298fc1c14", "f5eaa4eae1a4e180", "66171262f8782a3e", "2fd0104c4534a537",
        "0db06e1344e5c679", "6e3e00a99e2ad569",
    ),
    8: (
        "e3b0c44298fc1c14", "2246641d0f280f90", "62af593722f9ccfb", "45342d93c8c310f0",
        "f0ab30a10df4190b", "47326c2a1c112adb", "2c1154f409dde664", "e273202fd716ea6b",
        "e3b0c44298fc1c14", "37896f2192be90b8", "c17c8a1cb5464896", "6e4b31f8bce7d9be",
        "e273202fd716ea6b", "3f95dcb6ab0720e3",
    ),
    9: (
        "e3b0c44298fc1c14", "8ad677d69286859c", "0bef9b8c413b8ab6", "88a7163d6e37c714",
        "581609449d848b4b", "d16b2ab34b2e5d5e", "ee0db9a9e175b194", "49bc686b68e55869",
        "e3b0c44298fc1c14", "c54a1637374831f4", "a8b8711bbaaf84de", "eecfbf53b770a8c1",
        "49bc686b68e55869", "992223dab4dfb8ad",
    ),
    10: (
        "e3b0c44298fc1c14", "43a4284876d0f2a7", "35191ae9e60d4fcf", "3660a1742dd482a2",
        "ef8131ae1835b193", "44e7ddd27b704fe0", "bd1b5ea3a2a17074", "b7e4d47eb6708ad5",
        "e3b0c44298fc1c14", "c6250418825724a0", "06f23d7ef9fea94c", "271c2cf8f983b711",
        "b7e4d47eb6708ad5", "79750fc656afd69e",
    ),
    11: (
        "e3b0c44298fc1c14", "3cb80e9db5bcced0", "f919d6ebf0ba8239", "736d9c404965c495",
        "410b9effc40d53c0", "5867e3e453d9de2f", "fe9e8cec17fb610b", "1e448b03293887d2",
        "e3b0c44298fc1c14", "17a1bcb0a7d26169", "84ff7c07182de8d8", "bd63b25a5be05c0d",
        "1e448b03293887d2", "07564dfc1760578f",
    ),
    12: (
        "e3b0c44298fc1c14", "a58bab9feee532c4", "29463b40a643c6d5", "2617f5e60d0c6029",
        "4c9c340facb4b141", "62eb7ba1e8bcdd99", "d52b16126555d168", "bb4d83970f686729",
        "e3b0c44298fc1c14", "e979cff54685029f", "028575d4953bb27b", "9db57744b68276b4",
        "bb4d83970f686729", "6a86e3a401b9bd12",
    ),
    13: (
        "e3b0c44298fc1c14", "1a1aefbc50083e5d", "f6fefdb5b00c29fb", "12108f7d5dc8ea2e",
        "7befd97726e2ec47", "438e6b7c0326d5c4", "01f47c796a359864", "076009887ee1bb20",
        "e3b0c44298fc1c14", "f15f4454ebf751f6", "8ca82f1e3e751406", "d3800b63f6a27e98",
        "076009887ee1bb20", "afa0288e4ab87bd6",
    ),
    14: (
        "e3b0c44298fc1c14", "376203152c291812", "5aac09a590fe1e83", "7ed0a909696db53e",
        "c962b5e70ac87a49", "bfe00f31ccddc824", "5413aa3ec8a122f5", "a0706dc53fa2d205",
        "e3b0c44298fc1c14", "b6a1aae02833fe0b", "bc2d65af1db35a99", "900b2ea6c211ffdf",
        "a0706dc53fa2d205", "fe2ff52e458003c4",
    ),
    15: (
        "e3b0c44298fc1c14", "646e37781c351979", "d541cbd1a95ace2b", "a5dc0bd1abe6c47d",
        "2e672f5f1d2d320b", "ead50819314f2864", "8bc0a475753ecb5b", "8369d31fede29f75",
        "e3b0c44298fc1c14", "f424f3cb96eb77fb", "6b4b4da63bcda36b", "6eaacceb39fb2258",
        "8369d31fede29f75", "74a94269f1e846b4",
    ),
    16: (
        "e3b0c44298fc1c14", "617196d3b4240cfc", "2afadfbaab543c3b", "04b4cb15ab8201c4",
        "9a649acbf8370f83", "21d6904e520a7b72", "4e3ad51c736d1edf", "cf44e282a8488ae8",
        "e3b0c44298fc1c14", "ea8573d765a871e0", "cf66a383db5f70cd", "401c7bf4a9fa6b67",
        "cf44e282a8488ae8", "25dc0cec679d3300",
    ),
    17: (
        "e3b0c44298fc1c14", "f5470f9b31cafa9a", "f64c39ce9b6ae030", "36960ed633060719",
        "0ccbb712a95d854b", "b94a7f49008dc13d", "2cb165d00275d235", "391c706a4d421350",
        "e3b0c44298fc1c14", "67a8cb4a97ac418a", "8977a4b89be35b6a", "d9db664cd00ce1b8",
        "391c706a4d421350", "41c89433214fd499",
    ),
    18: (
        "e3b0c44298fc1c14", "ed589a511d6a63bb", "d90fc494f747b71b", "9f168032dbf4e830",
        "197f69de42db566a", "aad1a7d12007e779", "3f86f7979f545b51", "93ab52e529a1ed39",
        "e3b0c44298fc1c14", "22d4e253f4f01d95", "c7ff772664ba0115", "86af44bee5b40a26",
        "93ab52e529a1ed39", "cb16f3ba57b89224",
    ),
    19: (
        "e3b0c44298fc1c14", "25cae475a28a079c", "8102cba007072fd7", "d5831ff5ef6e280f",
        "c92a85cfbf45b53d", "6ec2485ffcf74ee5", "ff82b1c45fb51f99", "aafc6bc992bebfe8",
        "e3b0c44298fc1c14", "140a42ae7e937409", "c7431cb35a333ddc", "6bfaec70e3a0e938",
        "aafc6bc992bebfe8", "4bf6876bfd11c703",
    ),
    20: (
        "e3b0c44298fc1c14", "915d1a60cd6f74c7", "f4ad31a11f7593f6", "6dd5bbce46bf8ea1",
        "973d366c8598bcbb", "250302093eaebc27", "ae4a3f4e26f520d8", "b4c92f5d50cb7d30",
        "e3b0c44298fc1c14", "0557dc1f00c9bfdf", "f74e4cdfeca0bbb9", "5fa80be3e782ec99",
        "b4c92f5d50cb7d30", "9f47b0613f74ecea",
    ),
    21: (
        "e3b0c44298fc1c14", "48307f9d58b4271e", "bc88ee368e99c86c", "3ee32807bb823878",
        "62fd034c25f3972b", "4e9ffb6c62e110c0", "4326743357c74731", "3acd29b85bed0668",
        "e3b0c44298fc1c14", "1df52a8ffe3bd204", "d9e19cedfc1923cd", "632e17b943b63f8a",
        "3acd29b85bed0668", "9d39282959580d89",
    ),
    22: (
        "e3b0c44298fc1c14", "84a1df217d3566cd", "eafaef1d51c184be", "6379ab71c4c83f8f",
        "0de4a06b93e740b7", "c077f37ca26355d1", "b6e7e4dec8c50d14", "b6e7e4dec8c50d14",
        "e3b0c44298fc1c14", "332168fff4c428d5", "895b27a1ec767be4", "d99b29c49c3fcc63",
        "b6e7e4dec8c50d14", "01d593c82b7176cd",
    ),
    23: (
        "e3b0c44298fc1c14", "ba3837bcc4c82800", "45991c45ba77fa5d", "7f7cd890b64c06f1",
        "beca681369857368", "5ed51475a785aa99", "cb4f1b6918a09d09", "339fa25f93d89d8f",
        "e3b0c44298fc1c14", "275a5de10def248d", "0a1bba9574c41a8d", "e96a87744831ac9c",
        "339fa25f93d89d8f", "9abdfb51d521a554",
    ),
}


def trajectory_hash(helpers, ranks, gains) -> str:
    steps = np.concatenate((helpers, ranks, gains.view(np.int64))).astype("<i8")
    return hashlib.sha256(steps.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_greedy_trajectories_are_pinned_at_every_pool_seed(seed):
    config = MacroConfig()
    pop = experiment_popularity(config, seed)
    got = []
    for count, capacity in SWEEP_POINTS:
        _, graph = plan_deployment(count, config, seed)
        specs = HelperSpecs.uniform(count, capacity)
        got.append(trajectory_hash(*_greedy(graph, pop, specs, config.file_bits)))
    assert tuple(got) == PINNED[seed]
