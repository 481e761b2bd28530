"""The benchmark's own correctness check, run here: every cell of ``perfbench/workloads.py`` lands on its
``REFERENCE_REGRET`` at ``REFERENCE_SEED`` within ``REFERENCE_RTOL``, as ``perfbench/run.py`` requires before it
prints ``correct: true``. The file is read, not edited; a numerical change that would fail the benchmark's check
fails here first."""

import pytest
from test_round_reuse import load_workloads

from smbandits import environment as env

WORKLOADS = load_workloads()
CELLS = {
    f"{workload.name}/{cell.name}": cell
    for workload in WORKLOADS.WORKLOADS.values()
    for cell in workload.cells
    if cell.name in WORKLOADS.REFERENCE_REGRET[workload.name]
}


def test_every_reference_has_a_cell():
    references = {f"{w}/{c}" for w, cells in WORKLOADS.REFERENCE_REGRET.items() for c in cells}
    assert references == set(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_reference_seed_lands_on_its_reference_regret(name):
    cell = CELLS[name]
    reference = WORKLOADS.REFERENCE_REGRET[name.split("/")[0]][cell.name]
    trace = env.run(cell.instance(WORKLOADS.REFERENCE_SEED), cell.spec(), cell.horizon)
    final = float(trace.cum_regret[-1])
    assert abs(final - reference) <= WORKLOADS.REFERENCE_RTOL * max(1.0, abs(reference)), (final, reference)
