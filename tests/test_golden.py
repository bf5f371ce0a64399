"""Pinned output digests for the pairwise constructions and the generators.

Each digest is the SHA-256 of a canonical JSON encoding of an output, so a
refactor that claims byte-identical outputs under fixed seeds is checked
against the bytes of an earlier version, not only against itself.  The
instances are chosen so that every randomized repair runs at least once;
``test_golden_cases_reach_every_repair`` asserts that they do.  A change that
alters outputs on purpose updates the digests and says so.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from wspanner import pairwise
from wspanner.core import PathTable, WeightedGraph, terminal_pairs, write_graph_text
from wspanner.generate import (
    GeneratorSpec,
    Model,
    TerminalScheme,
    TerminalSelection,
    _topology,
    generate,
    generate_terminals,
)
from wspanner.pairwise import PairwiseAlgo, PairwiseParams, pairwise_spanner_run
from wspanner.seeding import ROLE_TOPOLOGY, stream


def _caterpillar(k: int) -> WeightedGraph:
    """A spine 0..k-1 of weight-2..4 edges, each spine vertex with two
    weight-1 leaves, so a 2-light init misses every spine edge."""
    edges = [(i, i + 1, 2 + i % 3) for i in range(k - 1)]
    for i in range(k):
        edges += [(i, k + 2 * i, 1), (i, k + 2 * i + 1, 1)]
    return WeightedGraph(3 * k, tuple(edges))


def _ge22():
    g = generate(GeneratorSpec(Model.GE, 22, 0))
    sets = generate_terminals(22, TerminalSelection(TerminalScheme.LINEAR, 2, 0))
    return g, terminal_pairs(sets[0])


def _spine():
    # The spine ends pair first, so at d=2 the sweep meets a 9-edge miss.
    return _caterpillar(10), terminal_pairs([0, 9, *range(10, 30)])


INSTANCES = {"ge22": _ge22, "spine": _spine}
CASES = [(inst, algo, d, retries) for inst in INSTANCES for algo in PairwiseAlgo
         for d in (None, 1, 2) for retries in (0, 10)]


def _case_id(case) -> str:
    inst, algo, d, retries = case
    return f"{inst}-{algo.value}-d{d}-r{retries}"


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _run(case):
    inst, algo, d, retries = case
    g, pairs = INSTANCES[inst]()
    params = PairwiseParams(algo, d_override=d, max_retries=retries, seed=7)
    return pairwise_spanner_run(g, pairs, params)


PAIRWISE_DIGESTS = {
    "ge22-p2w-dNone-r0": "28e6c293a36e35749ab3d8b469291086c25cad9846e6e3449557d8429026558d",
    "ge22-p2w-dNone-r10": "deb133e1938cc2fe19708f6dca89c9cc4623dc812d7eb590e82d62809cf450ea",
    "ge22-p2w-d1-r0": "4fc5f6cef7052cbc0a5292d167d26a82bea62255140a351c194dc510ac84f1ec",
    "ge22-p2w-d1-r10": "d39f156b1b43d04c16401ac527aa04d2bcc31ff2cbd9e49596650a2d4943b234",
    "ge22-p2w-d2-r0": "490b0a21126e221fd9fb0208d08098f246415aa152bab052ca0aa466fab7c081",
    "ge22-p2w-d2-r10": "fb1793134bfdc07d36172af784958d1071fad64b101ccf3652b6e5274e977841",
    "ge22-p4w-dNone-r0": "d9650806d2c7d42ffc865ae974aebf21f6c86f5323ac9d25aab44f622b19a849",
    "ge22-p4w-dNone-r10": "65d7e30f09340f01f91b67913166d191eae462a71a3487b6c03709c975136887",
    "ge22-p4w-d1-r0": "61ecdfcb8c30a3a5133c70fd51cd1954ac19dd9f167114f3d42b5646bc3756df",
    "ge22-p4w-d1-r10": "d44b0171b5595130829c005de68726dc556bb9d8d050ca103ddc0ad1e140cd37",
    "ge22-p4w-d2-r0": "d2fb1258d43ddf986c5304331fb0859dc132d0513cfadd3bf41c5f75dcd7d5cb",
    "ge22-p4w-d2-r10": "c0226db75cf620b5f95a81cac7cc51b29703520d9c80dea27d22d66cc9c92274",
    "ge22-p8w-dNone-r0": "38cacff042433bc6fbc014601485d8e36a203d8a0c875b4cdec77fa76cfd3a3c",
    "ge22-p8w-dNone-r10": "606452e14a561ed6a12c7479bf1a7d4616b79d439319abd47d99f402968b3bdb",
    "ge22-p8w-d1-r0": "c06486b2ff331116f5fe6593692978c9ce983089d9ea5ae0335f9c8a3e914b77",
    "ge22-p8w-d1-r10": "dd424493ca44257e61dad2d8a5b449392ea99eeb0541ab763325b87500d385b4",
    "ge22-p8w-d2-r0": "f1ac8a1c0462ccdba24b93af6f25efbc5cf0b053061f2017d02beb9cfa1d4d2a",
    "ge22-p8w-d2-r10": "4349111177bc91e40440b923b34fd1335569d8492991ce78470ca572fbdde185",
    "spine-p2w-dNone-r0": "688ce2d911eea23a00f1daf5f4d415360a4d05d694e70658e94bf596081e7d18",
    "spine-p2w-dNone-r10": "6da5e57ed7b164a0ac51bb2f61808ea1f93b5c18b4599f42f89d747fc2d3d661",
    "spine-p2w-d1-r0": "783181daf4ee091dde3fcab2acdad02e1c54b1a158348471c74b1f4926b0972c",
    "spine-p2w-d1-r10": "22c3b985ae2319fb1d876d83336d457f880a8a05d6a5b8d97d9c1ccb6ed4984a",
    "spine-p2w-d2-r0": "b0ea92752f139394c7c7e36418929ce2cb0fccefd35ba407735c26be85cf0e02",
    "spine-p2w-d2-r10": "fead447bd0a4e911c3423278a327e2925bba0c429bbec6384010e9d03cc753f7",
    "spine-p4w-dNone-r0": "9075fa24577ec16fb05d45924b5986238669b6bba4d847ee0e53f9fc58a5a97d",
    "spine-p4w-dNone-r10": "84dc63856f07ef5c9c148cf900f0a4a271ac39cc65cd9d493a93070a48fb2d6a",
    "spine-p4w-d1-r0": "8cffcf0f76641834d4a5edf0f4dae7a3aa01b7e48c143a55cb8056653433f582",
    "spine-p4w-d1-r10": "84c84936c2d1064607144b28bc9ad41806b9c5b403753f8a9273684b4288c872",
    "spine-p4w-d2-r0": "e80c2588f7df5257d3c8ea06a395c8ada5faec2714aa5c6bfff4adbe7289b29f",
    "spine-p4w-d2-r10": "6dfdca1068c41cae594c9f24b2c39e1c54c6ed30a48f34115a4283b37022b858",
    "spine-p8w-dNone-r0": "a16effe73a9bf53ad70000532aebd1bb9de0e4a4615b3600c71028c02ae854de",
    "spine-p8w-dNone-r10": "5a7a5e307b278d08243437acd987091c6cf7ba16d372af270d0f55180015a143",
    "spine-p8w-d1-r0": "33b99e3a8962cece5680c36bb069163bbcd623259fae309ca76d826d55f66e5a",
    "spine-p8w-d1-r10": "c77e16961ff66d363fbeb8cac21120eeca5cff9fb43f84a6daeb1d2a091c774f",
    "spine-p8w-d2-r0": "3651522af973dfeacbd5abfb0e041774e974c13ec464dfe2918c34449c463d4b",
    "spine-p8w-d2-r10": "48564706d4bd34869647251fc54c2451c8f94ac412e6cd6ec24649163410f58b",
}

GENERATE_DIGESTS = {
    "er-30-1": "dd9b1579e40c5701faf74045659be19cb2ce4c883b7b928e60386f13b29d0008",
    "ws-30-1": "6fc04f35f825f5b0d1bdc6091f35e283d61f33f90eb47fd80846e2126b245c39",
    "ba-30-1": "fa667b16cf92bb03a3d5d45d627a2ffc0557b7e663e83c130578d88825a5746c",
    "ge-22-0": "45c130c6a554fb1137c83ff2e374a16f8a30f8b0699dcc21b689fc817a6b9d8f",
    "ge-22-1": "8fd0380c2a3f912df65014fc2c45791c38a1c8e599fbe62dab7309f6486284da",
    "ge-22-2": "f0ad9506a8e67372f3957824bef14ce2e785a56347a81d35c659b811c38b5af7",
    "ge-22-3": "4b80a8812dea1cb2fb5b1d272bd814b4bc78c384cc14163e5d0464d60bf4f671",
    "ge-22-4": "685d91ffd41ba1a792558ac59a6a13cf841e0e2d150d2ae1e0401229b7bc142f",
}

GENERATE_CASES = [("er", 30, 1), ("ws", 30, 1), ("ba", 30, 1),
                  *(("ge", 22, seed) for seed in range(5))]


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_pairwise_output_digest(case):
    edges, report = _run(case)
    assert _digest([sorted(edges), asdict(report)]) == PAIRWISE_DIGESTS[_case_id(case)]


@pytest.mark.parametrize("model,n,seed", GENERATE_CASES)
def test_generate_digest(model, n, seed):
    g = generate(GeneratorSpec(Model(model), n, seed))
    digest = hashlib.sha256(write_graph_text(g).encode()).hexdigest()
    assert digest == GENERATE_DIGESTS[f"{model}-{n}-{seed}"]


def test_ge_golden_seeds_redraw_a_disconnected_topology():
    for seed in range(5):
        spec = GeneratorSpec(Model.GE, 22, seed)
        first = _topology(spec, stream(seed, ROLE_TOPOLOGY, 0))
        assert not WeightedGraph(22, tuple((u, v, 1) for u, v in first)).is_connected()


def test_golden_cases_reach_every_repair(monkeypatch):
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pairwise, "limited_missing_path",
                        counted("lmp", pairwise.limited_missing_path))
    monkeypatch.setattr(pairwise, "subsetwise_2w", counted("subsetwise", pairwise.subsetwise_2w))
    monkeypatch.setattr(PathTable, "tree_parent", counted("tree", PathTable.tree_parent))
    hits = {"p2w_tree_roots": 0, "p4w_tree_rows": 0, "p4w_lmp": 0, "p8w_subsetwise": 0}
    for case in CASES:
        calls.update(lmp=0, subsetwise=0, tree=0)
        _, report = _run(case)
        algo = case[1]
        if algo is PairwiseAlgo.P2W:
            hits["p2w_tree_roots"] += sum(report.sample_counts)
        elif algo is PairwiseAlgo.P4W:
            hits["p4w_tree_rows"] += calls["tree"]
            hits["p4w_lmp"] += calls["lmp"]
        else:
            hits["p8w_subsetwise"] += calls["subsetwise"]
    assert all(hits.values()), hits
