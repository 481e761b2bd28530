"""Every set of one market shape gathers its buffer positions from one read-only table of that shape."""

import numpy as np
import pytest

from smbandits import environment as env
from smbandits.confidence import UnstructuredConfidence, _pair_positions
from smbandits.market import Matching

SHAPES = [(1, 1), (1, 7), (7, 1), (3, 3), (4, 360), (8, 800)]


@pytest.mark.parametrize("shape", SHAPES, ids="{0[0]}x{0[1]}".format)
def test_the_table_holds_both_positions_of_every_pair_and_refuses_writes(shape):
    n_c, n_p = shape
    table = _pair_positions(n_c, n_p)
    i, j = np.ogrid[:n_c, :n_p]
    assert table.shape == (n_c, n_p, 2) and table.dtype == np.intp
    np.testing.assert_array_equal(table[..., 0], np.broadcast_to(i * n_p + j, (n_c, n_p)))
    np.testing.assert_array_equal(table[..., 1], np.broadcast_to(n_c * n_p + j * n_c + i, (n_c, n_p)))
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1
    assert _pair_positions(n_c, n_p) is table


@pytest.mark.parametrize("shape", SHAPES, ids="{0[0]}x{0[1]}".format)
def test_sets_gather_both_positions_of_each_matched_pair(shape):
    n_c, n_p = shape
    k = min(n_c, n_p)
    matching = Matching._from_arrays(np.arange(k), np.arange(n_p - 1, n_p - 1 - k, -1))
    pos = UnstructuredConfidence(n_c, n_p)._positions(matching)
    ci, pj = matching.index_arrays
    np.testing.assert_array_equal(pos[0::2], ci * n_p + pj)
    np.testing.assert_array_equal(pos[1::2], n_c * n_p + pj * n_c + ci)


def test_replicas_of_one_shape_leave_the_table_as_it_was():
    cells = [
        (lambda seed: env.gen_instance("unstructured", 3, 3, seed), env.PolicySpec("match_ucb"), 300),
        (lambda seed: env.gen_instance("unstructured", 3, 3, seed), env.PolicySpec("match_ntu_ucb"), 100),
        (lambda seed: env.gen_hard_instance(4, 1000, seed), env.PolicySpec("match_ucb"), 30),
    ]
    tables = [_pair_positions(3, 3), _pair_positions(4, 360)]
    before = [table.tobytes() for table in tables]
    for make, spec, horizon in cells:
        for seed in range(3):
            env.run(make(seed), spec, horizon)
    assert _pair_positions(3, 3) is tables[0] and _pair_positions(4, 360) is tables[1]
    assert [table.tobytes() for table in tables] == before
