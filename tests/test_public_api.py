import dataclasses
import importlib

import numpy as np
import pytest

import linkmirage
from linkmirage import (Graph, PerturbParams, TemporalGraphSequence, UtilityReport,
                        evolving_sequence, linkmirage_step, planted_partition_graph)
from linkmirage.clustering import CommunityDiff


def test_every_exported_name_resolves_once():
    assert len(linkmirage.__all__) == len(set(linkmirage.__all__))
    for name in linkmirage.__all__:
        assert getattr(linkmirage, name) is not None, name


@pytest.mark.parametrize("module, name", [
    ("linkmirage.privacy", "common_neighbors"),
    ("linkmirage.cli", "_community_tv"),
])
def test_removed_functions_are_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)
    assert name not in linkmirage.__all__


def test_graph_has_no_tuple_edge_set():
    assert not hasattr(Graph, "edge_set")


def test_utility_report_holds_only_what_is_set():
    assert [f.name for f in dataclasses.fields(UtilityReport)] == \
        ["l", "per_timestamp", "aggregate"]


def test_community_diff_holds_only_what_is_read():
    assert [f.name for f in dataclasses.fields(CommunityDiff)] == ["unchanged", "changed"]


def test_sequence_holds_only_its_snapshots():
    assert [f.name for f in dataclasses.fields(TemporalGraphSequence)] == ["snapshots"]


def test_evolving_sequence_keeps_no_block_map():
    assert "block_of" not in evolving_sequence.__code__.co_varnames


def test_graph_has_no_neighbor_positions():
    assert not hasattr(Graph, "neighbor_positions")


def test_linkmirage_step_returns_graph_and_record():
    g, _ = planted_partition_graph([6, 6], 0.7, 0.1, np.random.default_rng(2))
    out = linkmirage_step(g, None, PerturbParams(k=1, seed=4))
    assert len(out) == 2
    g_prime, record = out
    assert isinstance(g_prime, Graph)
    assert record.timestamp == 0
