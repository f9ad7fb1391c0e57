"""The bundled presets."""

import copy

import pytest

from cfedge.presets import COMPUTE_MIX, COMPUTE_SINGLE, PRESETS, get_preset


def _mutate(node):
    # change every dict and list under node in place
    if isinstance(node, dict):
        for value in list(node.values()):
            _mutate(value)
        node["mutated"] = True
    elif isinstance(node, list):
        for value in list(node):
            _mutate(value)
        node.append("mutated")


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_are_independent_copies(name):
    # changing any part of one copy changes no other copy, no later copy
    # and none of the module's shared tables
    before = {n: copy.deepcopy(get_preset(n)) for n in PRESETS}
    mix, single = copy.deepcopy(COMPUTE_MIX), copy.deepcopy(COMPUTE_SINGLE)
    _mutate(get_preset(name))
    assert {n: get_preset(n) for n in PRESETS} == before
    assert COMPUTE_MIX == mix
    assert COMPUTE_SINGLE == single


def test_unknown_preset_names_the_known_ones():
    with pytest.raises(KeyError, match="unknown preset 'nope'; known "
                                       "presets: energy-sweep, "):
        get_preset("nope")
