"""Config fuzzer: mutants of valid configs either fail at parse time with a
``ConfigError`` that names a ``config.`` key path, or run.

The mutants start from a few valid configs that between them use every
section of the schema. ``test_every_single_edit`` replaces every value of
their trees, in turn, by each of a fixed list of edge values of every JSON
type (extreme floats, NaN and infinities included) and removes every key and
list entry. The Hypothesis test applies one to three random edits anywhere
in the tree: a value replaced, a key or entry removed, or an unknown key
added. Integers stay small, so an accepted mutant never builds a large
market. A mutant that parses must run a 3-round ``sweep`` of up to two seeds
without any exception.
"""

import copy
import dataclasses
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smbandits.config import parse_config
from smbandits.environment import sweep
from smbandits.errors import ConfigError

VALID_CONFIGS = (
    {
        "schema_version": 1,
        "name": "prime_fixed",
        "class": "unstructured",
        "customers": 2,
        "providers": 3,
        "horizon": 40,
        "seeds": [0, 1],
        "policy": {"kind": "match_ucb_prime", "ucb_scale": 1.0},
        "arrival": {"kind": "fixed", "schedule": [[[0, 1], [0, 2]], [[1], [0, 1, 2]]]},
        "noise": {"kind": "gaussian", "sigma": 0.5},
        "truth": {
            "customer_values": [[0.5, -0.2, 0.1], [0.3, 0.9, -0.4]],
            "provider_values": [[0.1, 0.2], [0.7, -0.3], [0.0, 0.6]],
        },
    },
    {
        "schema_version": 1,
        "class": "typed",
        "customers": 3,
        "providers": 3,
        "num_types": 2,
        "horizon": 30,
        "seeds": [2],
        "policy": {"kind": "match_typed_ucb", "ucb_scale": 4.0},
        "arrival": {"kind": "iid_subset", "p": 0.5},
    },
    {
        "schema_version": 1,
        "class": "linear",
        "customers": 3,
        "providers": 2,
        "dim": 2,
        "horizon": 30,
        "seeds": [0],
        "policy": {"kind": "match_lin_ucb", "lin_beta_d_coeff": 2.0, "lin_beta_log_coeff": 1.0, "lin_ridge": 0.5},
    },
    {
        "schema_version": 1,
        "class": "unstructured",
        "customers": 3,
        "providers": 2,
        "horizon": 30,
        "seeds": [3, 4],
        "policy": {"kind": "revenue_frictions", "epsilon": 0.2},
        "noise": {"kind": "bernoulli"},
        "truth": {
            "customer_values": [[0.5, 0.2], [0.3, 0.9], [1.0, 0.0]],
            "provider_values": [[0.1, 0.2, 0.4], [0.7, 0.3, 0.6]],
        },
    },
    {
        "schema_version": 1,
        "class": "unstructured",
        "customers": 3,
        "providers": 3,
        "horizon": 30,
        "seeds": [5],
        "policy": {"kind": "etc", "etc_pulls_per_pair": 1},
    },
    {
        "schema_version": 1,
        "class": "unstructured",
        "customers": 3,
        "providers": 2,
        "horizon": 30,
        "seeds": [6],
        "policy": {"kind": "match_ntu_ucb"},
        "noise": {"sigma": 2.0},
    },
)

_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-308, 0.5, 1.0, 2.0, -1.0, 1e308, -1e308, math.inf, -math.inf, math.nan]),
    st.floats(-10.0, 10.0),
)
_WORDS = st.sampled_from(
    ["", "x", "all", "fixed", "iid_subset", "gaussian", "bernoulli", "unstructured", "typed", "linear",
     "match_ucb", "match_ucb_prime", "match_ntu_ucb", "etc", "revenue_frictions"]
)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 6), _FLOATS, _WORDS)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.lists(st.lists(st.integers(-1, 4), max_size=3), max_size=3),
    st.dictionaries(_WORDS, _SCALARS, max_size=2),
)


def slots(node):
    """Every (container, key) of the tree below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from slots(child)


@st.composite
def mutants(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(VALID_CONFIGS)))
    for _ in range(draw(st.integers(1, 3))):
        places = [(cfg, None)] + list(slots(cfg))
        container, key = draw(st.sampled_from(places))
        op = draw(st.sampled_from(["replace", "remove", "add"]))
        if key is None or op == "add":
            target = container[key] if key is not None else container
            if isinstance(target, dict):
                target[draw(st.sampled_from(["extra", "sigma", "p", "kind", "truth", "noise"]))] = draw(_VALUES)
            elif isinstance(target, list):
                target.append(draw(_VALUES))
        elif op == "remove":
            del container[key]
        else:
            container[key] = draw(_VALUES)
    return cfg


REMOVE = object()
EDGE_VALUES = (
    None, True, False, 0, -1, 7, 0.0, -0.0, 0.5, -1.5, 1e-308, 1e300, 1e308, -1e308, math.inf, -math.inf, math.nan,
    "", "x", [], {}, [0], [[0, 1]],
)


def assert_parse_error_or_runs(cfg):
    try:
        cell = parse_config(cfg)
    except ConfigError as exc:
        assert re.match(r"config[.:\[]", str(exc)), str(exc)
        return
    sweep([dataclasses.replace(cell, horizon=3, seeds=cell.seeds[:2])])


# An accepted config must also run without overflow: a sum that reaches inf
# warns, and pyproject.toml turns every RuntimeWarning into an error.
def test_every_single_edit():
    edits = 0
    for base in VALID_CONFIGS:
        for n, _ in enumerate(slots(base)):
            for value in (*EDGE_VALUES, REMOVE):
                cfg = copy.deepcopy(base)
                container, key = list(slots(cfg))[n]
                if value is REMOVE:
                    del container[key]
                else:
                    container[key] = copy.deepcopy(value)
                try:
                    assert_parse_error_or_runs(cfg)
                except Exception as exc:
                    raise AssertionError(f"{cfg}: {exc!r}") from exc
                edits += 1
    assert edits > 3000


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(mutants())
def test_random_edits(cfg):
    assert_parse_error_or_runs(cfg)


def test_fee_beyond_the_epsilon_bound_rejected():
    # The single edit that first failed with overflow as an error: epsilon
    # 1e308 parsed, and every round's revenue summed to inf.
    cfg = copy.deepcopy(VALID_CONFIGS[3])
    cfg["policy"]["epsilon"] = 1e308
    with pytest.raises(ConfigError, match=r"^config\.policy\.epsilon"):
        parse_config(cfg)


def test_gaussian_noise_beyond_the_sigma_bound_rejected():
    # The single edit that first failed: sigma 1e308 parsed, and the first
    # draw with |z| > 1.8 made a non-finite reward at round 1.
    cfg = copy.deepcopy(VALID_CONFIGS[0])
    cfg["noise"]["sigma"] = 1e308
    with pytest.raises(ConfigError, match=r"^config\.noise\.sigma"):
        parse_config(cfg)


# A JSON integer of 401 digits: json reads it exactly, and float() of it overflows.
WIDE_INTEGER = 10**400


@pytest.mark.parametrize(
    "base, leaf",
    [
        (0, ("policy", "ucb_scale")),
        (2, ("policy", "lin_beta_d_coeff")),
        (2, ("policy", "lin_beta_log_coeff")),
        (2, ("policy", "lin_ridge")),
        (3, ("policy", "epsilon")),
        (1, ("arrival", "p")),
        (0, ("noise", "sigma")),
        (0, ("truth", "customer_values", 1, 0)),
    ],
    ids=["ucb_scale", "lin_beta_d_coeff", "lin_beta_log_coeff", "lin_ridge", "epsilon", "p", "sigma", "truth"],
)
def test_integer_beyond_float_range_rejected(base, leaf):
    # Each leaf once went through float() and crashed the run with OverflowError.
    cfg = copy.deepcopy(VALID_CONFIGS[base])
    node = cfg
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = WIDE_INTEGER
    path = re.escape(".".join(key for key in leaf if isinstance(key, str)))
    with pytest.raises(ConfigError, match=rf"^config\.{path}: "):
        parse_config(cfg)

