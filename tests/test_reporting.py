"""The json form of ``emit``: byte-identical to encoding the json_value copy."""

from __future__ import annotations

import io
import json
from enum import Enum
from fractions import Fraction

import pytest

from crnbalance import cli
from crnbalance.reporting import emit, json_value

DATA = "tests/data"
RUNNING = f"{DATA}/running.crn"
AB = f"{DATA}/ab.crn"
FIG2 = f"{DATA}/fig2.crn"
P1, P2, P4 = f"{DATA}/p1.json", f"{DATA}/p2.json", f"{DATA}/p4.json"
KPRIME = "1,1,1,1,2,2"

COMMANDS = [
    ("parse", RUNNING),
    ("parse", FIG2),
    ("analyze", RUNNING),
    ("analyze", AB),
    ("graphs", "enumerate", AB),
    ("graphs", "enumerate", RUNNING),
    ("graph", "info", RUNNING, "--partition", P4),
    ("graph", "info", FIG2, "--partition", f"{DATA}/fig2_g1.json"),
    ("balance", "conditions", RUNNING, "--partition", P4, "--expand"),
    ("balance", "check", RUNNING, "--partition", P4, "--kappa", KPRIME),
    ("balance", "check", RUNNING, "--partition", P2, "--kappa", KPRIME),
    ("steady-state", RUNNING, "--partition", P4, "--kappa", KPRIME, "--class", "2,0"),
    ("steady-state", RUNNING, "--partition", P2, "--kappa", KPRIME),
    ("simulate", AB, "--kappa", "2,1", "--x0", "3,0", "--t-end", "2.0", "--adaptive"),
    ("decompose", RUNNING, "--partition", P1, "--subsets", "1,2,6"),
    ("decompose", RUNNING, "--partition", P1, "--subsets", "1,2,6",
     "--kappa", KPRIME, "--state", "1,1"),
    ("lift", RUNNING, "--partition", P4),
    ("lift", RUNNING, "--partition", P4, "--kappa", KPRIME, "--state", "1,3"),
    ("incremental", RUNNING, "--partition", P4, "--join", "1,5", "--kappa", KPRIME),
]


def copied_json(data) -> str:
    return json.dumps(json_value(data), indent=2) + "\n"


def emitted_json(data) -> str:
    stream = io.StringIO()
    emit(data, "json", stream)
    return stream.getvalue()


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[:3]))
def test_emit_json_matches_the_copied_report(argv, monkeypatch):
    # a report's graph rows are read once, so each side gets its own run
    reports = []
    monkeypatch.setattr(cli, "emit", lambda data, fmt, stream: reports.append(data))
    for _ in range(2):
        assert cli.main(list(argv), io.StringIO()) in (0, 1)
    assert len(reports) == 2
    assert emitted_json(reports[0]) == copied_json(reports[1])


class Color(Enum):
    RED = "red"
    BLUE = 2


def test_emit_json_matches_the_copied_report_on_every_value_kind():
    data = {
        "fraction": Fraction(-7, 3),
        "whole": Fraction(4),
        "enum": Color.RED,
        "enums": (Color.BLUE, Color.RED),
        "complex": complex(-0.5, 1.25),
        "tuple": (1, (Fraction(1, 2), 3.5), [None, True, False]),
        "nested": {"a": {"b": [Fraction(2, 5), {"c": complex(1, 0)}]}, "empty": {}},
        "empty_list": [],
        "text": "x é \"q\"",
        "float": 1e-300,
    }
    text = emitted_json(data)
    assert text == copied_json(data)
    assert json.loads(text)["nested"]["a"]["b"] == ["2/5", {"c": {"real": 1.0, "imag": 0.0}}]
    assert emitted_json({}) == copied_json({}) == "{}\n"


def test_emit_json_rejects_unknown_values_like_json():
    with pytest.raises(TypeError, match="not JSON serializable"):
        emitted_json({"bad": object()})
