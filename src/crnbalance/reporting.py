"""Report shaping shared by the command line front end.

Converts the exact in-memory objects (Fractions, polynomials, enums)
into JSON-serializable structures with stable key order, so identical
inputs always produce byte-identical output.
"""

from __future__ import annotations

import json
from enum import Enum
from fractions import Fraction

from .graphs import ReactionGraph
from .network import format_rate


class GraphRows:
    """The ``graphs`` list of an enumeration report, read once.

    ``rows`` is an iterator of (partition blocks, nodes, components,
    deficiency, weakly reversible) tuples. ``json_value`` turns the rows
    into a list; ``emit`` streams them as JSON or text.
    """

    def __init__(self, rows):
        self._rows = rows

    def __iter__(self):
        return self._rows

    def dicts(self):
        """The rows as report entries, one at a time."""
        for blocks, nodes, components, deficiency, wr in self:
            yield {
                "partition": [list(block) for block in blocks],
                "nodes": nodes,
                "components": components,
                "deficiency": deficiency,
                "weakly_reversible": wr,
            }


def json_value(value):
    """Recursively rewrite exact values into JSON-friendly ones."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, GraphRows):
        return list(value.dicts())
    if isinstance(value, Fraction):
        return format_rate(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, complex):
        return {"real": value.real, "imag": value.imag}
    if isinstance(value, dict):
        return {str(k): json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_value(v) for v in value]
    return value


def graph_summary(g: ReactionGraph) -> dict:
    net = g.network
    return {
        "partition": [list(block) for block in g.partition.blocks],
        "nodes": g.m,
        "components": g.n_components,
        "deficiency": g.deficiency,
        "weakly_reversible": g.is_weakly_reversible,
        "labels": [net.complexes[c].format(net.species) for c in g.labels],
        "edges": [list(e) for e in g.edges],
    }


def _text_lines(value, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(value, dict):
        lines = []
        for k, v in value.items():
            if isinstance(v, dict) or _is_deep_list(v):
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar_text(v)}")
        return lines
    if isinstance(value, list):
        lines = []
        for item in value:
            if isinstance(item, dict) or _is_deep_list(item):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(item)}")
        return lines
    return [f"{pad}{_scalar_text(value)}"]


def _is_deep_list(value) -> bool:
    return isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value)


def _scalar_text(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_scalar_text(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    return str(value)


def _json_default(value):
    if isinstance(value, (Fraction, Enum, complex)):
        return json_value(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# One GraphRows row as json.dumps(..., indent=2) lays it out one level
# below the report's top level; the partition's blocks fill the %s.
_ROW = (
    "    {\n"
    '      "partition": [\n%s\n      ],\n'
    '      "nodes": %d,\n'
    '      "components": %d,\n'
    '      "deficiency": %d,\n'
    '      "weakly_reversible": %s\n'
    "    }"
)


def _write_graph_rows(rows: GraphRows, stream) -> None:
    block_text: dict[tuple[int, ...], str] = {}
    sep = "[\n"
    for blocks, nodes, components, deficiency, wr in rows:
        texts = []
        for block in blocks:
            text = block_text.get(block)
            if text is None:
                items = ",\n          ".join(map(str, block))
                text = block_text[block] = f"        [\n          {items}\n        ]"
            texts.append(text)
        row = (",\n".join(texts), nodes, components, deficiency, "true" if wr else "false")
        stream.write(sep + _ROW % row)
        sep = ",\n"
    stream.write("[]" if sep == "[\n" else "\n  ]")


def emit(data: dict, fmt: str, stream) -> None:
    """Write one report; json is the stable machine contract.

    The json form encodes the report key by key; for reports with string
    keys it equals ``json.dumps(json_value(data), indent=2)`` without
    copying the report first. The text form renders each top-level value
    through ``_text_lines``. In both, a top-level GraphRows value is
    written row by row as it is produced, so the report is never held
    whole. The csv form writes a ``columns`` header and then one line per
    ``rows`` entry.
    """
    if fmt == "csv":
        stream.write(",".join(data["columns"]) + "\n")
        stream.writelines(",".join(map(repr, row)) + "\n" for row in data["rows"])
    elif fmt != "json":
        for key, value in data.items():
            if not isinstance(value, GraphRows):
                stream.write("\n".join(_text_lines({key: json_value(value)}, 0)) + "\n")
                continue
            stream.write(f"{key}:\n")
            for row in value.dicts():
                stream.write("\n".join(["  -", *_text_lines(row, 2)]) + "\n")
    else:
        sep = "{"
        for key, value in data.items():
            stream.write(f"{sep}\n  {json.dumps(key)}: ")
            if isinstance(value, GraphRows):
                _write_graph_rows(value, stream)
            else:
                text = json.dumps(value, indent=2, default=_json_default)
                stream.write(text.replace("\n", "\n  "))
            sep = ","
        stream.write("{}\n" if sep == "{" else "\n}\n")
