"""Shared fixtures: the three example networks and their named graphs."""

from __future__ import annotations

from pathlib import Path

import pytest

from crnbalance import (
    enumerate_admissible_partitions,
    graph_from_partition,
    parse_network,
    partition_from_json,
)

DATA = Path(__file__).parent / "data"


def load_network(name: str):
    return parse_network((DATA / name).read_text())


def load_graph(net, name: str):
    part = partition_from_json(net, (DATA / name).read_text())
    return graph_from_partition(net, part)


@pytest.fixture(scope="session")
def running():
    return load_network("running.crn")


@pytest.fixture(scope="session")
def table1(running):
    return {i: load_graph(running, f"p{i}.json") for i in range(1, 8)}


@pytest.fixture(scope="session")
def running_wr_graphs(running):
    """The 9 weakly reversible graphs of the running example, in enumeration order."""
    every = (graph_from_partition(running, p) for p in enumerate_admissible_partitions(running))
    graphs = tuple(g for g in every if g.is_weakly_reversible)
    assert len(graphs) == 9
    return graphs


@pytest.fixture(scope="session")
def fig2():
    return load_network("fig2.crn")


@pytest.fixture(scope="session")
def fig2_graphs(fig2):
    return {
        1: load_graph(fig2, "fig2_g1.json"),
        2: load_graph(fig2, "fig2_g2.json"),
    }


@pytest.fixture(scope="session")
def ab():
    return load_network("ab.crn")
