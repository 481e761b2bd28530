"""The benchmark tracer patches every lookup site it names and restores it.

``perfbench/tracer.py`` finds each traced function as an attribute of the
module or class its caller looks it up in; a renamed or deleted site makes
``Tracer().installed()`` raise on entry.
"""

import importlib.util
from pathlib import Path

from smbandits import cli, confidence, environment, instability, market, policies

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

OWNERS = (cli, confidence.ConfidenceSets, environment, instability, market, policies, policies.Policy)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot() -> list[dict]:
    return [dict(vars(owner)) for owner in OWNERS]


def test_installs_every_site_and_restores_it():
    tracer_module = load_tracer()
    before = snapshot()
    with tracer_module.Tracer().installed() as tracer:
        during = snapshot()
        instance = environment.gen_instance("unstructured", 2, 2, seed=0)
        environment.run(instance, environment.PolicySpec("match_ucb"), 3)
    assert snapshot() == before
    patched = {
        (owner, name)
        for owner, was, now in zip(OWNERS, before, during)
        for name in was
        if now[name] is not was[name]
    }
    for site in (
        (environment, "is_stable_tu"),
        (environment, "subset_instability_value"),
        (market, "linear_sum_assignment"),
        (policies, "assignment_with_duals"),
        (policies.Policy, "step"),
    ):
        assert site in patched
    summary = tracer_module.SpanSummary(tracer)
    assert summary.calls("environment.run") == 1
    assert summary.calls("policies.step") == 3
