"""Loading inputs through the program, and one set-up in a fresh interpreter.

``load(mods, spec)`` passes a round's inputs through crnbalance before the
timed loop: it parses networks and builds graphs and reaction splits. A
spec is plain JSON data:

- ``networks``: ``.crn`` texts to parse;
- ``graphs``: ``[network index, blocks]`` pairs, blocks as split-index lists;
- ``splits``: ``[network index, 1-based reaction subset]`` pairs.

Run as a script, this file is one set-up of ``setup_s``:

    python3 perfbench/loader.py SRC SPEC.json

It imports crnbalance from SRC before anything else, so that every import
crnbalance pays for counts, then loads SPEC.json through it and prints the
seconds from its first statement to the end of the import.
"""

from __future__ import annotations

import sys
from time import perf_counter

MODULES = (
    "network", "partitions", "graphs", "ratmat", "kpoly", "balance",
    "lifting", "subnetworks", "dynamics", "reporting", "cli",
)


def graph(mods, pnet, blocks):
    part = mods.partitions.partition_from_json(pnet, [list(b) for b in blocks])
    return mods.graphs.graph_from_partition(pnet, part)


def load(mods, spec: dict):
    """Parsed networks, graphs and splits of a spec, in its order."""
    pnets = [mods.network.parse_network(text) for text in spec.get("networks", ())]
    graphs = [graph(mods, pnets[k], blocks) for k, blocks in spec.get("graphs", ())]
    splits = [mods.subnetworks.SubnetworkSplit(pnets[k], (tuple(subset),))
              for k, subset in spec.get("splits", ())]
    return pnets, graphs, splits


def main() -> None:
    start = perf_counter()
    src, spec_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import importlib
    import types

    mods = types.SimpleNamespace(
        **{name: importlib.import_module(f"crnbalance.{name}") for name in MODULES}
    )
    imported = perf_counter()
    import json

    with open(spec_path, encoding="utf-8") as handle:
        load(mods, json.load(handle))
    print(imported - start)


if __name__ == "__main__":
    main()
