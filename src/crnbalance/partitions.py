"""Admissible partitions of the split-node indices.

Each reaction r_j owns the two split indices 2j-1 and 2j (1-based). For a
reaction that is the reverse of an earlier one, 2j-1 carries its target
and 2j its source, so that the shared complexes of a reversible pair sit
at aligned indices; all other reactions put the source at 2j-1. A
partition of {1..2p} is admissible when every block is label-pure, and
each admissible partition names one reaction graph (blocks = nodes, in
block order).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .network import ReactionNetwork

DEFAULT_MAX_PARTITIONS = 100000


class PartitionError(ValueError):
    """Raised for partitions that are not admissible for the network."""


class TooManyPartitionsError(PartitionError):
    """Raised when enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class AdmissiblePartition:
    """An ordered, label-pure partition of {1..2p}; block order = node order."""

    network: ReactionNetwork
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        total = 2 * self.network.p
        object.__setattr__(self, "blocks", tuple(tuple(sorted(b)) for b in self.blocks))
        seen: set[int] = set()
        labels = self.network.split_labels
        for block in self.blocks:
            if not block:
                raise PartitionError("empty block")
            for idx in block:
                if not 1 <= idx <= total:
                    raise PartitionError(f"split index {idx} out of range 1..{total}")
                if idx in seen:
                    raise PartitionError(f"split index {idx} appears twice")
                seen.add(idx)
            block_labels = {labels[idx - 1] for idx in block}
            if len(block_labels) > 1:
                names = sorted(
                    self.network.complexes[c].format(self.network.species) for c in block_labels
                )
                raise PartitionError(f"block {block} mixes complexes {names}")
        if len(seen) != total:
            missing = sorted(set(range(1, total + 1)) - seen)
            raise PartitionError(f"split indices not covered: {missing}")

    @classmethod
    def _unchecked(
        cls, network: ReactionNetwork, blocks: tuple[tuple[int, ...], ...]
    ) -> "AdmissiblePartition":
        """Skip validation, for blocks that are sorted, label-pure and complete."""
        part = object.__new__(cls)
        object.__setattr__(part, "network", network)
        object.__setattr__(part, "blocks", blocks)
        return part

    @property
    def size(self) -> int:
        return len(self.blocks)

    @cached_property
    def block_of(self) -> dict[int, int]:
        """Split index -> 1-based block (node) number."""
        return {idx: k + 1 for k, block in enumerate(self.blocks) for idx in block}

    def canonical(self) -> "AdmissiblePartition":
        """Same partition with blocks ordered by their smallest index."""
        return AdmissiblePartition(self.network, tuple(sorted(self.blocks, key=min)))

    def same_partition(self, other: "AdmissiblePartition") -> bool:
        """Equality up to block order (graph equivalence)."""
        return set(self.blocks) == set(other.blocks) and self.network == other.network


def _require_same_network(p1: AdmissiblePartition, p2: AdmissiblePartition) -> None:
    if p1.network != p2.network:
        raise ValueError("partitions belong to different networks")


def refines(p1: AdmissiblePartition, p2: AdmissiblePartition) -> bool:
    """True iff every block of p1 is contained in a block of p2."""
    _require_same_network(p1, p2)
    lookup = p2.block_of
    return all(len({lookup[i] for i in block}) == 1 for block in p1.blocks)


def lattice_meet(p1: AdmissiblePartition, p2: AdmissiblePartition) -> AdmissiblePartition:
    """Common refinement (blockwise intersections), canonically ordered."""
    _require_same_network(p1, p2)
    blocks = []
    for b1 in p1.blocks:
        members = set(b1)
        for b2 in p2.blocks:
            inter = members & set(b2)
            if inter:
                blocks.append(tuple(sorted(inter)))
    return AdmissiblePartition(p1.network, tuple(sorted(blocks, key=min)))


def lattice_join(p1: AdmissiblePartition, p2: AdmissiblePartition) -> AdmissiblePartition:
    """Finest partition refined by both, canonically ordered.

    Each block of either partition is merged with every block it touches.
    """
    _require_same_network(p1, p2)
    merged: list[set[int]] = []
    for block in p1.blocks + p2.blocks:
        touched = [b for b in merged if not b.isdisjoint(block)]
        merged = [b for b in merged if b.isdisjoint(block)] + [set(block).union(*touched)]
    blocks = tuple(sorted((tuple(sorted(b)) for b in merged), key=min))
    return AdmissiblePartition(p1.network, blocks)


def _set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    """All set partitions, in the order produced by inserting the last item."""
    if not items:
        yield []
        return
    if len(items) == 1:
        yield [[items[0]]]
        return
    last = items[-1]
    for smaller in _set_partitions(items[:-1]):
        for k in range(len(smaller)):
            yield smaller[:k] + [smaller[k] + [last]] + smaller[k + 1:]
        yield smaller + [[last]]


def bell_number(n: int) -> int:
    """Number of set partitions of an n-element set (Bell triangle)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for val in row:
            nxt.append(nxt[-1] + val)
        row = nxt
    return row[0]


def count_admissible_partitions(net: ReactionNetwork) -> int:
    count = 1
    for members in net.split_classes:
        count *= bell_number(len(members))
    return count


def enumerate_admissible_partitions(
    net: ReactionNetwork, max_count: int | None = None
) -> Iterator[AdmissiblePartition]:
    """Yield every admissible partition, canonically ordered.

    The stream is the product of set-partition enumerations of the label
    classes (classes in complex order), so it is deterministic. The call
    itself raises TooManyPartitionsError when the total would exceed
    max_count (default: DEFAULT_MAX_PARTITIONS, 100000), so a caller that
    streams its report refuses before writing anything.
    """
    if max_count is None:
        max_count = DEFAULT_MAX_PARTITIONS
    if max_count <= 0:
        raise ValueError(f"max_count must be positive, got {max_count}")
    total = count_admissible_partitions(net)
    if total > max_count:
        raise TooManyPartitionsError(
            f"{total} admissible partitions exceed the cap {max_count}"
        )
    return _admissible_partitions(net)


def _admissible_partitions(net: ReactionNetwork) -> Iterator[AdmissiblePartition]:
    # each class's set partitions once; product() keeps the first class outermost
    per_class = [
        [tuple(tuple(b) for b in parts) for parts in _set_partitions(members)]
        for members in net.split_classes
    ]
    for choice in itertools.product(*per_class):
        blocks = tuple(sorted(itertools.chain.from_iterable(choice)))
        yield AdmissiblePartition._unchecked(net, blocks)


def partition_from_json(net: ReactionNetwork, data) -> AdmissiblePartition:
    """Build a partition from the JSON form [[1,8,9,11],[2,3],...]."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise PartitionError(f"invalid partition JSON: {exc}") from None
    if not isinstance(data, list) or not all(isinstance(b, list) for b in data):
        raise PartitionError("partition JSON must be an array of arrays")
    for block in data:
        for idx in block:
            if not isinstance(idx, int) or isinstance(idx, bool):
                raise PartitionError(f"partition entries must be integers, got {idx!r}")
    return AdmissiblePartition(net, tuple(tuple(b) for b in data))


def partition_to_json(part: AdmissiblePartition) -> list[list[int]]:
    return [list(block) for block in part.blocks]
