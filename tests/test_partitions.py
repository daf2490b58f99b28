"""Split indices, admissible partitions and their lattice."""

from __future__ import annotations

import random

import pytest

import helpers
import oracles
from crnbalance import (
    AdmissiblePartition,
    PartitionError,
    TooManyPartitionsError,
    bell_number,
    count_admissible_partitions,
    enumerate_admissible_partitions,
    lattice_join,
    lattice_meet,
    parse_network,
    partition_from_json,
    partition_to_json,
    refines,
)


def test_split_labels_running(running):
    assert running.split_labels == (0, 1, 1, 2, 2, 3, 3, 0, 0, 2, 0, 2)


def test_split_indices_plain_and_reversing(running):
    # r1..r5 in file order; r6 reverses r5, so its two indices swap roles
    assert running.split_sources == (1, 3, 5, 7, 9, 12)
    assert running.split_targets == (2, 4, 6, 8, 10, 11)


def test_split_indices_fig2(fig2):
    assert fig2.split_labels == (0, 1, 0, 1, 2, 0, 2, 0, 1, 2, 1, 2, 1, 3, 3, 2)
    assert fig2.split_sources == (1, 4, 5, 8, 9, 12, 13, 15)
    assert fig2.split_targets == (2, 3, 6, 7, 10, 11, 14, 16)


def test_admissibility_validation(running):
    with pytest.raises(PartitionError, match="mixes"):
        AdmissiblePartition(running, ((1, 2), (3, 4, 5, 6, 7, 8, 9, 10, 11, 12)))
    with pytest.raises(PartitionError, match="out of range"):
        AdmissiblePartition(running, ((0, 1), (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),))
    with pytest.raises(PartitionError, match="twice"):
        AdmissiblePartition(running, ((1, 8), (8, 9, 11), (2, 3), (4, 5, 10, 12), (6, 7)))
    with pytest.raises(PartitionError, match="not covered"):
        AdmissiblePartition(running, ((1, 8, 9, 11), (2, 3), (4, 5, 10, 12)))
    with pytest.raises(PartitionError, match="empty"):
        AdmissiblePartition(running, ((), (1, 8, 9, 11), (2, 3), (4, 5, 10, 12), (6, 7)))


def test_blocks_normalized_and_canonical(running):
    part = AdmissiblePartition(running, ((9, 8, 1, 11), (3, 2), (12, 10, 5, 4), (7, 6)))
    assert part.blocks == ((1, 8, 9, 11), (2, 3), (4, 5, 10, 12), (6, 7))
    shuffled = AdmissiblePartition(running, ((6, 7), (2, 3), (1, 8, 9, 11), (4, 5, 10, 12)))
    assert shuffled.canonical().blocks == part.blocks
    assert shuffled.same_partition(part)
    assert part.size == 4
    assert part.block_of[9] == 1 and part.block_of[6] == 4


def test_refinement_on_table1(table1):
    parts = {i: table1[i].partition for i in table1}
    # the split partition refines everything, everything refines the
    # complex partition, and refinement is reflexive
    for i in parts:
        assert refines(parts[7], parts[i])
        assert refines(parts[i], parts[1])
        assert refines(parts[i], parts[i])
    assert refines(parts[5], parts[2]) and refines(parts[5], parts[4])
    assert not refines(parts[2], parts[4])
    assert not refines(parts[4], parts[2])
    assert not refines(parts[2], parts[3])


def test_meet_and_join_table1(table1):
    parts = {i: table1[i].partition for i in table1}
    assert lattice_meet(parts[2], parts[4]).same_partition(parts[5])
    assert lattice_join(parts[2], parts[4]).same_partition(parts[1])
    assert lattice_meet(parts[3], parts[3]).same_partition(parts[3])
    assert lattice_join(parts[3], parts[3]).same_partition(parts[3])


def test_meet_join_bounds_on_random_partitions():
    rng = random.Random(31)
    for _ in range(25):
        net = helpers.random_network(rng)
        p1 = helpers.random_partition(rng, net)
        p2 = helpers.random_partition(rng, net)
        meet = lattice_meet(p1, p2)
        join = lattice_join(p1, p2)
        assert refines(meet, p1) and refines(meet, p2)
        assert refines(p1, join) and refines(p2, join)
        assert lattice_meet(p1, p1).same_partition(p1)
        assert lattice_join(p1, p1).same_partition(p1)
        assert lattice_meet(p2, p1).same_partition(meet)
        assert lattice_join(p2, p1).same_partition(join)


def test_join_is_the_least_upper_bound_and_meet_the_greatest_lower_bound(running):
    # every partition refined by both p1 and p2 is refined by their join,
    # and every partition refining both refines their meet
    parts = list(enumerate_admissible_partitions(running))
    rng = random.Random(32)
    finer_joins = coarser_meets = 0
    for _ in range(20):
        p1, p2 = rng.sample(parts, 2)
        join, meet = lattice_join(p1, p2), lattice_meet(p1, p2)
        finer_joins += join.size > len(running.complexes)
        coarser_meets += meet.size < 2 * running.p
        for q in parts:
            if refines(p1, q) and refines(p2, q):
                assert refines(join, q), (p1.blocks, p2.blocks, q.blocks)
            if refines(q, p1) and refines(q, p2):
                assert refines(q, meet), (p1.blocks, p2.blocks, q.blocks)
    # the bounds are not just the coarsest and finest partitions
    assert finer_joins >= 10 and coarser_meets >= 10


def test_bell_numbers():
    assert [bell_number(k) for k in range(7)] == [1, 1, 2, 5, 15, 52, 203]
    assert bell_number(10) == oracles.sympy_bell(10)


def test_count_running_and_fig2(running, fig2):
    assert count_admissible_partitions(running) == 900
    assert count_admissible_partitions(fig2) == 81120


def test_count_matches_class_product(running):
    labels = running.split_labels
    product = 1
    for lab in set(labels):
        product *= oracles.sympy_bell(labels.count(lab))
    assert count_admissible_partitions(running) == product


def test_enumerate_small_networks_exactly():
    net = parse_network("r1: A -> B @ 1\n")
    parts = list(enumerate_admissible_partitions(net))
    assert len(parts) == 1
    assert parts[0].blocks == ((1,), (2,))

    net2 = parse_network("r1: A <=> B @ 1, 1\n")
    parts2 = list(enumerate_admissible_partitions(net2))
    assert len(parts2) == 4 == count_admissible_partitions(net2)
    seen = {p.blocks for p in parts2}
    assert ((1, 3), (2, 4)) in seen
    assert ((1,), (2,), (3,), (4,)) in seen


def test_enumerate_running_matches_brute_force(running):
    parts = list(enumerate_admissible_partitions(running))
    assert len(parts) == 900
    assert len({p.blocks for p in parts}) == 900
    assert parts == list(enumerate_admissible_partitions(running))

    # cross-check against independent set-partition recursion per class
    labels = running.split_labels
    class_counts = [
        len(oracles.brute_set_partitions([i for i, l in enumerate(labels, 1) if l == lab]))
        for lab in sorted(set(labels))
    ]
    product = 1
    for c in class_counts:
        product *= c
    assert product == 900


def test_enumerated_partitions_pass_validation(running, ab):
    for net in (running, ab):
        parts = list(enumerate_admissible_partitions(net))
        validated = [AdmissiblePartition(net, p.blocks) for p in parts]
        assert parts == validated
        assert all(p.canonical() == p for p in parts)


def test_enumeration_cap(running):
    with pytest.raises(TooManyPartitionsError, match="900"):
        list(enumerate_admissible_partitions(running, max_count=100))


def test_enumeration_refuses_at_the_call_before_any_iteration(running):
    # a streamed report must be refused before its first byte is written
    with pytest.raises(TooManyPartitionsError, match="900"):
        enumerate_admissible_partitions(running, max_count=899)
    with pytest.raises(ValueError, match="positive"):
        enumerate_admissible_partitions(running, max_count=0)
    assert sum(1 for _ in enumerate_admissible_partitions(running, max_count=900)) == 900


def test_partition_json_round_trip(running, table1):
    for i in table1:
        part = table1[i].partition
        again = partition_from_json(running, partition_to_json(part))
        assert again.same_partition(part)


def test_partition_json_errors(running):
    with pytest.raises(PartitionError, match="JSON"):
        partition_from_json(running, "[[1, 2")
    with pytest.raises(PartitionError, match="array of arrays"):
        partition_from_json(running, "[1, 2]")
    with pytest.raises(PartitionError, match="integer"):
        partition_from_json(running, "[[true, false]]")
