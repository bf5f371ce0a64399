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

from helpers import caterpillar_edges


def _ge22():
    g = generate(GeneratorSpec(Model.GE, 22, 0))
    sets = generate_terminals(22, TerminalSelection(TerminalScheme.LINEAR, 2, 0))
    return g, terminal_pairs(sets[0])


def _spine():
    # The spine ends pair first, so at d=2 the sweep meets a 9-edge miss.
    return WeightedGraph(30, caterpillar_edges(10)), terminal_pairs([0, 9, *range(10, 30)])


INSTANCES = {"ge22": _ge22, "spine": _spine}
CASES = [(inst, algo, d) for inst in INSTANCES for algo in PairwiseAlgo for d in (None, 1, 2)]


def _case_id(case) -> str:
    # "-r10" names the retry budget of 10 the cases were first pinned under;
    # the ids keep it so that they stay comparable with earlier runs.
    inst, algo, d = case
    return f"{inst}-{algo.value}-d{d}-r10"


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _run(case):
    inst, algo, d = case
    g, pairs = INSTANCES[inst]()
    params = PairwiseParams(algo, d_override=d, seed=7)
    return pairwise_spanner_run(g, pairs, params)


PAIRWISE_DIGESTS = {
    "ge22-p2w-dNone-r10": "8b1d9f9c1b62f41693c637026cbb6cb1fd1ebbd0f758cb78d5a072ab3649c8e1",
    "ge22-p2w-d1-r10": "1eb42281b7f677594bf7bfe36b32c424efc547f475cbf70cae62da2ea578a5bb",
    "ge22-p2w-d2-r10": "a78f30ed57bf6c468310aedf3482015abf7f583e4197e77bfa4581d8a8d3a570",
    "ge22-p4w-dNone-r10": "959843b3f5b78b41cb0789e064fa9bef6b0ad7e47afe9be44a646c1901672f40",
    "ge22-p4w-d1-r10": "ad8c0a8e604f72a5b89a1067c412d48f2ce4b297b2884f5b0e89a51fecb8c0d0",
    "ge22-p4w-d2-r10": "9484323b5d6deb946cf7a3a6399c6154f3e73f2a7a0d3fcc72292d597ba29796",
    "ge22-p8w-dNone-r10": "2b439952e11510247ab7c8ba32389a8d382ee28383ed7c5dd6362df57c16e8c7",
    "ge22-p8w-d1-r10": "cf1ead8f5daa04ab2676d76ad732cc7367fa9afe60058b2a901e322f763008cc",
    "ge22-p8w-d2-r10": "892f5333e9679c04ef88df97b34e488cdb50e1eaf27931d31f33a0ccde4e60f3",
    "spine-p2w-dNone-r10": "7bebe2e8c6fa73af555791759a97596f2518521cdff678d748ac1815c3980c3e",
    "spine-p2w-d1-r10": "f9d9d2b39432fa6eac8a8b1d8ccd10cc70ad561b6e16ec368b0f24a8f0f51fd1",
    "spine-p2w-d2-r10": "9a1fca3bb636d0fa63ea86255c99d2dae5e2e3558fe31e1018ba774383bc3f93",
    "spine-p4w-dNone-r10": "91b1c7c8d249c6df617da6a6e2822fadf9ddef19ff4d658f0da49fe40758a71d",
    "spine-p4w-d1-r10": "c152ee5147885ffcc066fc41949d703035d00e9536575daa49b9bcaa6be6dafd",
    "spine-p4w-d2-r10": "87916b34a4365b03017773d69f12d33db96b9e507d2e68782cfc6a62203cf161",
    "spine-p8w-dNone-r10": "0dcebb583002e8b14af3aa83e692d3ef4820c267c77ebbee5bccf84cc4f43d2a",
    "spine-p8w-d1-r10": "efff7f12de49114a0586dabe50249856a050e02b2665f834c80b8304bb6a1d02",
    "spine-p8w-d2-r10": "d4fee339d7ac34a6b5069a088fc397388e7eff29a7c943124acfd2a6f3e91e4a",
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
