"""Report shaping shared by the command line front end.

Converts the exact in-memory objects (Fractions, polynomials, enums)
into JSON-serializable structures with stable key order, so identical
inputs always produce byte-identical output.
"""

from __future__ import annotations

import json
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .graphs import ReactionGraph
from .network import format_rate


def json_value(value):
    """Recursively rewrite exact values into JSON-friendly ones."""
    if isinstance(value, bool) or value is None:
        return value
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


def monomial_str(names: Sequence[str], exps: Sequence[int]) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


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


def emit(data: dict, fmt: str, stream) -> None:
    """Write one report; json is the stable machine contract.

    The json form encodes the report directly; for reports with string
    keys it equals ``json.dumps(json_value(data), indent=2)`` without
    copying the report first.
    """
    if fmt == "json":
        stream.write(json.dumps(data, indent=2, default=_json_default) + "\n")
    else:
        stream.write("\n".join(_text_lines(json_value(data), 0)) + "\n")
