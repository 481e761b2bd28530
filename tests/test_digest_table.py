"""Whole-run digests of every benchmark cell and of one run of each
simulation acceptance criterion.

Each entry pins ``test_trace_blocks.full_digest`` of one
``run(..., record_outcomes=True)``: the seven trace columns, every scored
outcome's pairs and transfer bytes, the ``info`` columns and the replay
count. A change that is meant to move no bit of a run must leave every
digest here as it is; a change that moves one on purpose re-records it and
says which.

The benchmark cells are read from ``perfbench/workloads.py`` and run at their
own horizon and interval constant on seeds 0 and 1; the acceptance cells
run one seed at the criterion's full horizon; the NTU edge cells reach the
corners of the stacked NTU judgement: iid arrivals on 6x6 (many arrival
shapes per block, empty sides, shapes of a single round), a quarter-integer
truth (tied subsidy totals) and one-row and one-column markets.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from test_trace_blocks import full_digest

from smbandits import environment as env
from smbandits.confidence import ConfidenceConfig
from smbandits.market import UtilityMatrix

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def benchmark_runs():
    """``workload/cell/seed``: a function of no argument returning the run's
    instance, policy spec and horizon."""
    return {
        f"{workload.name}/{cell.name}/{seed}": lambda cell=cell, seed=seed: (
            cell.instance(seed),
            cell.spec(),
            cell.horizon,
        )
        for workload in load_workloads().values()
        for cell in workload.cells
        for seed in (0, 1)
    }


# The gap-0.4 market of criterion 7.
GAP_TRUTH = UtilityMatrix(np.array([[0.5, 0.4], [0.2, 0.35]]), np.array([[0.3, 0.3], [0.1, 0.25]]))


def unstructured_3x3(seed):
    return env.gen_instance("unstructured", 3, 3, seed=seed)


def acceptance_runs():
    """``cN/policy/seed``: one seed of each simulation criterion at its full
    horizon, as :func:`benchmark_runs` gives them."""
    prime = env.PolicySpec("match_ucb_prime", ConfidenceConfig(ucb_scale=1.0))
    revenue = env.PolicySpec("revenue_frictions", ConfidenceConfig(ucb_scale=1.0), epsilon=0.3)
    runs = {
        "c4/match_ucb/3": lambda: (unstructured_3x3(3), env.PolicySpec("match_ucb"), 2000),
        "c5/match_ucb/5": lambda: (unstructured_3x3(5), env.PolicySpec("match_ucb"), 8000),
        "c7/match_ucb_prime/2": lambda: (
            env.MarketInstance(GAP_TRUTH, env.UnstructuredClass(), env.ArrivalSpec(), env.NoiseSpec(), 2),
            prime,
            20000,
        ),
        "c8/revenue_frictions/4": lambda: (unstructured_3x3(4), revenue, 5000),
        "c9/match_ntu_ucb/6": lambda: (unstructured_3x3(6), env.PolicySpec("match_ntu_ucb"), 8000),
    }
    for klass, policy in (("typed", "match_typed_ucb"), ("linear", "match_lin_ucb"), ("unstructured", "match_ucb")):
        runs[f"c6/{policy}/1"] = lambda klass=klass, policy=policy: (
            env.gen_instance(klass, 12, 12, seed=1, num_types=3, dim=3),
            env.PolicySpec(policy),
            4000,
        )
    return runs


# The library versions the digests below were recorded with. A digest that does not match names them and the
# running versions: a moved bit under other versions may be theirs, not the change's.
RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

DIGESTS = {
    "c4/match_ucb/3": "873d7e6d4260297e08689183048c818bbe84af8aa343bfde08d169bf097f53b8",
    "c5/match_ucb/5": "ddb13b558be9f0a13e9fabcdfc9d57aa00623e575789b4ddc6ce401296ee2917",
    "c6/match_lin_ucb/1": "8a57636d75c074d8f91026b8635abe447b0c254ec613a9dea8e1cbac24a90097",
    "c6/match_typed_ucb/1": "6b3bbffcee2dab8f959ca72b5d11e2b0a0e86a8f4c9f51e9abd5e41d59378959",
    "c6/match_ucb/1": "b279879b3cc25054a1efb9a4a37398dafadc9da4af2ea89fb23e9fc872b5008a",
    "c7/match_ucb_prime/2": "a83f9cdeba072bee1be1f73df8ad5c8c2677c34e24123dd4988dd10e4a45d1d7",
    "c8/revenue_frictions/4": "b35c5abb7fda3cd5ced43c5bf3a1d6589ebaa47e2ab029186cd38cb0578c6afa",
    "c9/match_ntu_ucb/6": "1c52d248005b49b575786f904a0980c91b79332e5d2246431aec1316babf27a8",
    "imbalanced_hard/hard_k4/0": "daab31ed623409f04344bf03d89e8aaa4b9cc5d363bb7109d8436fa0e043aeda",
    "imbalanced_hard/hard_k4/1": "daab31ed623409f04344bf03d89e8aaa4b9cc5d363bb7109d8436fa0e043aeda",
    "imbalanced_hard/hard_k8/0": "797b80f01e91b701be46f1124f58171b8d1ea8dbf6e82d8308455e41237fdc02",
    "imbalanced_hard/hard_k8/1": "797b80f01e91b701be46f1124f58171b8d1ea8dbf6e82d8308455e41237fdc02",
    "ntu/1x4/0": "ce90e4545dfcc647fa19e51b2b58776283a527fe1d542117a108bc2ec93fb789",
    "ntu/1x4/1": "40cdcdadd5665ec493afd5f065e4a8d030facf4da076354413ab26fc7b48324f",
    "ntu/4x1/0": "0bcb8be0b64286183c47a924a062ae309542b01c08e04f845a04166d70d0b89f",
    "ntu/4x1/1": "157b57ba3adb4b23482b14f97b26cbc4216763398b6fc01c4c86b82197438d78",
    "ntu/iid_6x6/0": "61d43390cac9e830a1488c7a44e3469674c5501cabff6f49370b343bd1ad9310",
    "ntu/iid_6x6/1": "9044ed24df42efd2a5e13edf2eef1a071ff6cb726f45b14836275d3cbcbdca7c",
    "ntu/quarter_3x3/0": "2fd03d72c3061c766424d4abceabb2b7aebd1f9fa06724f9a6052101a77c0050",
    "ntu/quarter_3x3/1": "557a8c7b8fafdf75903e52f1e2158be4707d303444f24f245cd661ee07679271",
    "score_batch/ucb_3x3/0": "c1faa78a710df405fbb4f4d8b74dabe5155ce2ad1e125c5e40afff065c1b8a11",
    "score_batch/ucb_3x3/1": "0aa40a1678f73f4084a03648353709ce0fad0ccd8cc63204629708beef415908",
    "small_square/ntu_3x3/0": "e7e102a5554a9795ff9660ad0e4e9bb0442e46ac757fe5d58283de232dae3463",
    "small_square/ntu_3x3/1": "a5d6f3166341ef7178326f8d886cfdf85da1e83221077005300044a0ac148dd5",
    "small_square/ucb_3x3/0": "74ba8ad8b59ff721baf9755956d288e8bdd83124ace0eab92ce3c2ae22269963",
    "small_square/ucb_3x3/1": "9ab2a0ab57361c598fea6a2fb319003ea29482b6f410e2315228e58888e10b10",
    "small_square/ucb_prime_3x3/0": "4b4aeca55e38392ed47bcbab0967320a679ae918a061854af8a8228996ee015f",
    "small_square/ucb_prime_3x3/1": "f55906ef0c2b3357ff213eba398e43c54dfe78ae42b41591a9abcc7de68414bd",
    "structured_12/lin_12/0": "3edb2459538bcb1e4243b3c39a20923fc0765c9347d845461de60b1577e7d378",
    "structured_12/lin_12/1": "f0fd25e61648e69cd2112ddcd80dc631d9363c4aa6148a35219911d351d4bf39",
    "structured_12/typed_12/0": "1750611d6a8344f293677100a2658aa66c5f079ca089d21c942b603e8ecf85e5",
    "structured_12/typed_12/1": "2b33061cf3de64eb8506b704cc241d107a043a88da7d303ef58d6c1853382655",
    "structured_12/ucb_12/0": "00788601f227dd94e2e7214ef85f8b586e77a7d17b7d78e4c3a182fc092b2dac",
    "structured_12/ucb_12/1": "fb2127577720b102db2c67e536e36418c3ba5d77233492360bb9f69b975880cd",
    "structured_12/ucb_iid_12/0": "cb77e29159261298efad14b7319bc230f204718e7725e25e2698ff692ce42086",
    "structured_12/ucb_iid_12/1": "d635336c96fc67e7d12d484d16d16ce03901573ea17e3bd9b3103d0b6cce6231",
}


# Quarters give tied subsidy totals; the negative entries give positive floors.
QUARTER_TRUTH = UtilityMatrix(
    np.array([[0.5, -0.25, 0.75], [0.25, 0.5, -0.5], [-0.75, 0.25, 0.5]]),
    np.array([[0.25, -0.5, 0.5], [0.75, 0.25, -0.25], [-0.25, 0.5, 0.25]]),
)


def ntu_edge_runs():
    """``ntu/cell/seed``: ``match_ntu_ucb`` on the edge cells, as
    :func:`benchmark_runs` gives them. At interval constant 1 nearly every
    round of the small cells is judged; at 8 their sets stay clipped and one
    matching is replayed."""
    ntu, narrow = env.PolicySpec("match_ntu_ucb"), env.PolicySpec("match_ntu_ucb", ConfidenceConfig(ucb_scale=1.0))
    iid = env.ArrivalSpec(kind="iid_subset", probability=0.5)
    runs = {}
    for seed in (0, 1):
        runs[f"ntu/iid_6x6/{seed}"] = lambda seed=seed: (
            env.gen_instance("unstructured", 6, 6, seed, arrival=iid),
            ntu,
            400,
        )
        runs[f"ntu/quarter_3x3/{seed}"] = lambda seed=seed: (
            env.MarketInstance(QUARTER_TRUTH, env.UnstructuredClass(), env.ArrivalSpec(), env.NoiseSpec(), seed),
            narrow,
            400,
        )
        for n_c, n_p in ((1, 4), (4, 1)):
            runs[f"ntu/{n_c}x{n_p}/{seed}"] = lambda n_c=n_c, n_p=n_p, seed=seed: (
                env.gen_instance("unstructured", n_c, n_p, seed, arrival=iid),
                narrow,
                300,
            )
    return runs


def all_runs():
    return {**benchmark_runs(), **acceptance_runs(), **ntu_edge_runs()}


def test_table_lists_every_run():
    assert sorted(DIGESTS) == sorted(all_runs())


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_run_digest(name):
    instance, spec, horizon = all_runs()[name]()
    running = {"numpy": np.__version__, "scipy": scipy.__version__}
    assert full_digest(env.run(instance, spec, horizon, record_outcomes=True)) == DIGESTS[name], (
        f"recorded with {RECORDED_WITH}, running {running}"
    )
