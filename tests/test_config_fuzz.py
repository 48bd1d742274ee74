"""Fuzzing the config path: any JSON object plus any --set list either parses
or raises ConfigError, the CLI's exit code 2, and nothing else."""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from latticeccr import ConfigError, parse_config
from latticeccr.cli import _apply_override
from latticeccr.experiments import _SCHEMAS, EXPERIMENTS


def _leaves(schema, prefix=""):
    """(dotted path, kind) of every leaf of a schema."""
    for key, entry in schema.items():
        if isinstance(entry, dict):
            yield from _leaves(entry, f"{prefix}{key}.")
        else:
            yield prefix + key, entry[1]


LEAVES = {name: dict(_leaves(schema)) for name, schema in _SCHEMAS.items()}
LEAF_PATHS = {path for leaves in LEAVES.values() for path in leaves}
PATHS = sorted(LEAF_PATHS | {path.split(".")[0] for path in LEAF_PATHS})  # leaves and their objects
NAMES = sorted({part for path in PATHS for part in path.split(".")})
# the edges of the float range, where spacings, forces, potentials and grids over- or underflow
EXTREMES = [5e-324, 1e-320, 1e-300, 1e-200, 1e-150, 1e-12, 1e12, 1e150, 1e200, 1e305, 1.7e308]


def _mostly(common, rare):
    """common nine times in ten, rare otherwise."""
    return st.integers(0, 9).flatmap(lambda i: rare if i == 0 else common)


def _typed(kind):
    """Values of the kind a schema leaf asks for, its range edges included."""
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    if kind.startswith("["):
        return st.lists(_typed(kind[1 : kind.index("]")]), max_size=3)
    if kind.startswith("str"):
        return st.text(max_size=6)
    if kind.startswith("int"):
        return st.integers(-3, 300) | st.sampled_from([10**6, 10**12, 10**400])
    edges = st.sampled_from(EXTREMES)
    return st.floats(-1e3, 1e3) | edges | edges.map(lambda x: -x)


# anything JSON can hold, for the keys given a value of the wrong kind
anything = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(NAMES), inner, max_size=2),
    max_leaves=6,
)


def _nest(pairs):
    raw = {}
    for path, value in pairs:
        *parents, leaf = path.split(".")
        node = raw
        for key in parents:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                break
        else:
            node[leaf] = value
    return raw


def _config(experiment):
    """(experiment, JSON object, --set list), mostly the experiment's own keys
    with values of their kind, so that most examples reach the range checks."""
    leaves = LEAVES[experiment]
    own = st.sampled_from(sorted(leaves)).flatmap(
        lambda path: st.tuples(st.just(path), _mostly(_typed(leaves[path]), anything))
    )
    stray = st.tuples(st.sampled_from(PATHS) | st.text(max_size=6), anything)
    pairs = _mostly(own, stray)
    assignment = pairs.map(lambda pair: f"{pair[0]}={json.dumps(pair[1])}")
    return st.tuples(
        st.just(experiment),
        st.lists(pairs, max_size=3).map(_nest),
        st.lists(_mostly(assignment, st.text(max_size=8)), max_size=4),
    )


@settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.sampled_from(EXPERIMENTS).flatmap(_config))
@example(("fig4", {}, ["lattice.a=1e-200", "F=1e-200"]))
@example(("fig4", {}, ["lattice.a=1e-150", "F=1e-200"]))
@example(("dynamics", {}, ["potential.kind=linear", "potential.F=1e-320"]))
@example(("dynamics", {}, ["time.dt=1e-300"]))
@example(("fig5", {}, ["time.dt=5e-324"]))
@example(("sweep", {}, ["c=1e-300", "grid.x_max=1e300"]))
@example(("spectrum", {}, ["potential.c=1e305"]))
@example(("spectrum", {}, ["lattice.M=" + "9" * 5000]))
def test_any_config_parses_or_raises_config_error(config):
    experiment, raw, overrides = config
    # the CLI's path: the subcommand sets the experiment unless the object does
    raw.setdefault("experiment", experiment)
    try:
        for assignment in overrides:
            _apply_override(raw, assignment)
        parse_config(json.dumps(raw))
    except ConfigError:
        pass


def test_integer_literal_past_the_digit_limit_is_a_config_error():
    with pytest.raises(ConfigError, match="digit"):
        parse_config('{"experiment": "spectrum", "lattice": {"M": ' + "9" * 5000 + "}}")
