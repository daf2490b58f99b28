"""Command line front end (installed as ``crn``).

Reports go to standard output, JSON by default. Exit codes: 0 success,
1 negative analysis verdict (not balanced, infeasible, blocked
decomposition), 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import IO, Sequence

from .balance import (
    NotWeaklyReversibleError,
    balance_conditions,
    cayley_matrix,
    check_kappa_balanced,
    incremental_condition,
    integer_kernel_basis,
    solve_positive_steady_state,
    steady_state_binomials,
)
from .dynamics import (
    ConvergenceError,
    SimulationError,
    birch_point,
    conservation_laws,
    simulate,
    stability_report,
)
from .graphs import (
    canonical_complex_graph,
    canonical_split_graph,
    detailed_graph,
    equivalent,
    graph_from_partition,
)
from .lifting import LiftError, lift_network, verify_lift
from .network import (
    ParseError,
    ReactionNetwork,
    format_network,
    format_rate,
    numeric_kappa,
    parse_network,
)
from .partitions import (
    PartitionError,
    count_admissible_partitions,
    enumerate_admissible_partitions,
    partition_from_json,
    partition_to_json,
)
from .reporting import GraphRows, emit, graph_summary, monomial_str
from .subnetworks import (
    SplitError,
    SubnetworkSplit,
    decomposition_check,
    induced_graphs,
)


class CliError(Exception):
    """Bad command line input (exit code 2)."""


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from exc


def _load_network(path: str) -> ReactionNetwork:
    return parse_network(_read_file(path))


def _load_graph(net: ReactionNetwork, args):
    partition_path = getattr(args, "partition", None)
    if partition_path is None:
        return canonical_complex_graph(net)
    partition = partition_from_json(net, _read_file(partition_path))
    return graph_from_partition(net, partition)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"not a rational number: {text!r}") from exc


def _parse_vector(text: str, what: str) -> list[Fraction]:
    values = [_fraction(part) for part in text.split(",")]
    if not values:
        raise CliError(f"empty {what}")
    return values


def _parse_kappa(net: ReactionNetwork, text: str) -> list:
    """Rate constants from a comma list or a JSON map of rate symbols."""
    text = text.strip()
    if not text.startswith("{"):
        values = _parse_vector(text, "kappa")
        if len(values) != net.p:
            raise CliError(f"kappa has {len(values)} entries for {net.p} reactions")
        return values
    try:
        mapping = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed kappa map: {exc}") from exc
    if not isinstance(mapping, dict):
        raise CliError("kappa map must be a JSON object")
    symbols = {r.rate for r in net.reactions if isinstance(r.rate, str)}
    unknown = sorted(set(mapping) - symbols)
    if unknown:
        raise CliError(f"unknown rate symbols: {', '.join(unknown)}")
    values = []
    for r in net.reactions:
        if isinstance(r.rate, str):
            if r.rate not in mapping:
                raise CliError(f"no value for rate symbol {r.rate}")
            values.append(_fraction(str(mapping[r.rate])))
        else:
            values.append(r.rate)
    return values


def _factor_string(factors: Sequence[tuple[int, int]]) -> str:
    if not factors:
        return "1"
    return "*".join(f"K{i}" if e == 1 else f"K{i}^{e}" for i, e in factors)


def _network_facts(net: ReactionNetwork) -> dict:
    return {"species": list(net.species), "n": net.n, "m": net.m, "p": net.p}


def cmd_parse(args, out: IO[str]) -> int:
    net = _load_network(args.file)
    report = _network_facts(net)
    report["complexes"] = [cx.format(net.species) for cx in net.complexes]
    report["reactions"] = [
        {
            "index": k + 1,
            "source": net.complexes[r.source].format(net.species),
            "target": net.complexes[r.target].format(net.species),
            "rate": r.rate if isinstance(r.rate, str) else format_rate(r.rate),
        }
        for k, r in enumerate(net.reactions)
    ]
    report["stoichiometric_matrix"] = [list(row) for row in net.stoichiometric_matrix]
    emit(report, args.format, out)
    return 0


def cmd_analyze(args, out: IO[str]) -> int:
    net = _load_network(args.file)
    report = _network_facts(net)
    report["rank"] = net.rank
    report["conservation_laws"] = [list(w) for w in conservation_laws(net)]
    report["graphs"] = {
        "complex": graph_summary(canonical_complex_graph(net)),
        "detailed": graph_summary(detailed_graph(net)),
        "split": graph_summary(canonical_split_graph(net)),
    }
    emit(report, args.format, out)
    return 0


def cmd_graphs_enumerate(args, out: IO[str]) -> int:
    net = _load_network(args.file)

    def row(partition):
        g = graph_from_partition(net, partition)
        return partition.blocks, g.m, g.n_components, g.deficiency, g.is_weakly_reversible

    # emit streams the rows, so each graph is dropped once its row is written
    graphs = GraphRows(lambda: map(row, enumerate_admissible_partitions(net, args.max)))
    report = {"admissible_count": count_admissible_partitions(net), "graphs": graphs}
    emit(report, args.format, out)
    return 0


def cmd_graph_info(args, out: IO[str]) -> int:
    net = _load_network(args.file)
    g = _load_graph(net, args)
    report = {"network": _network_facts(net) | {"rank": net.rank}}
    report.update(graph_summary(g))
    report["strongly_connected_components"] = [list(c) for c in g.strong_components]
    report["cayley_matrix"] = [list(row) for row in cayley_matrix(g)]
    basis = integer_kernel_basis(g)
    report["kernel_dimension"] = len(basis)
    report["kernel_basis"] = [list(u) for u in basis]
    emit(report, args.format, out)
    return 0


def cmd_balance_conditions(args, out: IO[str]) -> int:
    net = _load_network(args.file)
    g = _load_graph(net, args)
    conditions = balance_conditions(g, expand=args.expand)
    entries = []
    for rel in conditions.relations:
        entry = {
            "u": list(rel.u),
            "lhs": _factor_string(rel.lhs),
            "rhs": _factor_string(rel.rhs),
        }
        if args.expand:
            entry["lhs_expanded"] = rel.lhs_poly.format()
            entry["rhs_expanded"] = rel.rhs_poly.format()
        entries.append(entry)
    report = {
        "deficiency": g.deficiency,
        "weakly_reversible": True,
        "kernel_basis": [list(u) for u in conditions.kernel_basis],
        "conditions": entries,
    }
    emit(report, args.format, out)
    return 0


def cmd_balance_check(args, out: IO[str]) -> int:
    net = _load_network(args.file)
    g = _load_graph(net, args)
    kappa = _parse_kappa(net, args.kappa)
    check = check_kappa_balanced(g, kappa)
    report = {
        "kappa": [format_rate(k) for k in check.kappa],
        "balanced": check.balanced,
        "relations": [
            {
                "u": list(v.relation.u),
                "lhs": format_rate(v.lhs),
                "rhs": format_rate(v.rhs),
                "holds": v.holds,
            }
            for v in check.values
        ],
    }
    emit(report, args.format, out)
    return 0 if check.balanced else 1


def cmd_steady_state(args, out: IO[str]) -> int:
    net = _load_network(args.file)
    g = _load_graph(net, args)
    kappa = _parse_kappa(net, args.kappa)
    result = solve_positive_steady_state(g, kappa)
    report = {
        "kappa": [format_rate(Fraction(k)) for k in kappa],
        "feasible": result.feasible,
        "log_residual": result.residual,
    }
    binomials = steady_state_binomials(g, kappa)
    report["binomials"] = [
        {
            "edge": list(b.edge),
            "equation": "{}*{} = {}*{}".format(
                format_rate(b.lhs_coeff),
                monomial_str(net.species, b.lhs_exps),
                format_rate(b.rhs_coeff),
                monomial_str(net.species, b.rhs_exps),
            ),
        }
        for b in binomials
    ]
    if result.feasible:
        report["x"] = list(result.x)
        if args.class_anchor is not None:
            anchor = [float(v) for v in _parse_vector(args.class_anchor, "class anchor")]
            point = birch_point(net, g, kappa, anchor)
            stability = stability_report(net, kappa, point)
            report["class_anchor"] = anchor
            report["birch_point"] = list(point)
            report["stability"] = {
                "eigenvalues": list(stability.eigenvalues),
                "verdict": stability.verdict,
            }
    emit(report, args.format, out)
    return 0 if result.feasible else 1


def cmd_simulate(args, out: IO[str]) -> int:
    net = _load_network(args.file)
    kappa = _parse_kappa(net, args.kappa)
    x0 = [float(v) for v in _parse_vector(args.x0, "x0")]
    trace = simulate(
        net,
        x0,
        kappa,
        t_end=args.t_end,
        dt=args.dt,
        adaptive=args.adaptive,
        tol=args.tol,
    )
    if args.format == "csv":
        out.write("t," + ",".join(net.species) + "\n")
        for t, state in zip(trace.times, trace.states):
            out.write(f"{t!r}," + ",".join(repr(v) for v in state) + "\n")
        return 0
    report = {
        "t_end": args.t_end,
        "steps": trace.steps,
        "steady": trace.steady,
        "residual": trace.residual,
        "final": list(trace.final),
        "times": list(trace.times),
        "states": [list(s) for s in trace.states],
    }
    emit(report, args.format, out)
    return 0


def cmd_decompose(args, out: IO[str]) -> int:
    net = _load_network(args.file)
    g = _load_graph(net, args)
    subsets = []
    for group in args.subsets.split(";"):
        group = group.strip()
        if group:
            subsets.append(tuple(int(part) for part in group.split(",")))
    split = SubnetworkSplit(net, tuple(subsets))
    induced = induced_graphs(g, split)
    report = {
        "subsets": [list(s) for s in split.subsets],
        "complement": list(split.complement),
        "parts": [
            {
                "reactions": list(part.reactions),
                "species": list(part.subnetwork.network.species),
                "weakly_reversible": part.graph.is_weakly_reversible,
                "deficiency": part.graph.deficiency,
                "partition": partition_to_json(part.graph.partition),
            }
            for part in induced.parts
        ],
        "union_graph": graph_summary(induced.union_graph),
        "union_equals_original": equivalent(induced.union_graph, g),
        "non_reversible_parts": list(induced.non_reversible_parts),
        "jointly_balanceable": induced.jointly_balanceable,
    }
    if args.kappa is not None and args.state is not None:
        kappa = _parse_kappa(net, args.kappa)
        x = _parse_vector(args.state, "state")
        check = decomposition_check(net, g, split, kappa, x)
        report["check"] = {
            "whole_and_subsets": check.whole_and_subsets,
            "union_graph": check.union_graph,
            "all_parts": check.all_parts,
            "agree": check.agree,
        }
        emit(report, args.format, out)
        return 0 if check.balanced else 1
    emit(report, args.format, out)
    return 0 if induced.jointly_balanceable else 1


def cmd_lift(args, out: IO[str]) -> int:
    net = _load_network(args.file)
    g = _load_graph(net, args)
    lift = lift_network(net, g)
    lifted_complex_graph = canonical_complex_graph(lift.network)
    report = {
        "copies": lift.copies,
        "epsilon": lift.epsilon,
        "species": list(lift.network.species),
        "reactions": lift.network.p,
        "exchange_reactions": lift.n_exchange,
        "graph_deficiency": g.deficiency,
        "lifted_deficiency": lifted_complex_graph.deficiency,
        "stoichiometric_dimension": lift.network.rank,
        "network": format_network(lift.network),
    }
    if args.kappa is not None and args.state is not None:
        kappa = _parse_kappa(net, args.kappa)
        x = _parse_vector(args.state, "state")
        check = verify_lift(net, g, kappa, x)
        report["verification"] = {
            "base_balanced": check.base_balanced,
            "lift_balanced": check.lift_balanced,
            "rows_match": check.rows_match,
            "holds": check.holds,
        }
        emit(report, args.format, out)
        return 0 if check.holds else 1
    emit(report, args.format, out)
    return 0


def cmd_incremental(args, out: IO[str]) -> int:
    net = _load_network(args.file)
    g = _load_graph(net, args)
    parts = args.join.split(",")
    if len(parts) != 2:
        raise CliError(f"--join wants two node indices, got {args.join!r}")
    try:
        i1, i2 = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise CliError(f"--join wants integers, got {args.join!r}") from exc
    condition = incremental_condition(g, i1, i2)
    report = {
        "nodes": [i1, i2],
        "kind": condition.kind,
        "extra_condition": condition.extra_condition,
        "condition": None
        if condition.lhs is None
        else {"lhs": condition.lhs.format(), "rhs": condition.rhs.format()},
    }
    exit_code = 0
    if args.kappa is not None:
        kappa = numeric_kappa(net, _parse_kappa(net, args.kappa))
        holds = condition.holds(kappa)
        report["kappa"] = [format_rate(Fraction(k)) for k in kappa]
        report["holds"] = holds
        exit_code = 0 if holds else 1
    emit(report, args.format, out)
    return exit_code


def _add_format(parser: argparse.ArgumentParser, extra: tuple[str, ...] = ()) -> None:
    parser.add_argument(
        "--format",
        choices=("json", "text") + extra,
        default="json",
        help="output format (default json)",
    )


def _add_partition(parser: argparse.ArgumentParser, required: bool = False) -> None:
    parser.add_argument(
        "--partition",
        required=required,
        help="JSON file with the admissible partition (array of index arrays)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crn",
        description="Reaction graph analysis of mass-action networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a .crn file and echo its structure")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(handler=cmd_parse)

    p = sub.add_parser("analyze", help="rank, canonical graphs, conservation laws")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(handler=cmd_analyze)

    graphs = sub.add_parser("graphs", help="operations on the set of reaction graphs")
    graphs_sub = graphs.add_subparsers(dest="graphs_command", required=True)
    p = graphs_sub.add_parser("enumerate", help="list all admissible partitions")
    p.add_argument("file")
    p.add_argument("--max", type=int, default=None, help="enumeration cap")
    _add_format(p)
    p.set_defaults(handler=cmd_graphs_enumerate)

    graph = sub.add_parser("graph", help="operations on one reaction graph")
    graph_sub = graph.add_subparsers(dest="graph_command", required=True)
    p = graph_sub.add_parser("info", help="structure, Cayley matrix, kernel")
    p.add_argument("file")
    _add_partition(p, required=True)
    _add_format(p)
    p.set_defaults(handler=cmd_graph_info)

    balance = sub.add_parser("balance", help="node balance analysis")
    balance_sub = balance.add_subparsers(dest="balance_command", required=True)
    p = balance_sub.add_parser("conditions", help="rate-constant conditions for balance")
    p.add_argument("file")
    _add_partition(p)
    p.add_argument("--expand", action="store_true", help="expand tree constants")
    _add_format(p)
    p.set_defaults(handler=cmd_balance_conditions)
    p = balance_sub.add_parser("check", help="test rate constants for balance")
    p.add_argument("file")
    _add_partition(p)
    p.add_argument("--kappa", required=True, help="comma list or JSON map")
    _add_format(p)
    p.set_defaults(handler=cmd_balance_check)

    p = sub.add_parser("steady-state", help="positive steady states of a balanced graph")
    p.add_argument("file")
    _add_partition(p)
    p.add_argument("--kappa", required=True)
    p.add_argument("--class", dest="class_anchor", default=None, metavar="X0",
                   help="comma list; also return the class steady state")
    _add_format(p)
    p.set_defaults(handler=cmd_steady_state)

    p = sub.add_parser("simulate", help="integrate the mass-action ODE")
    p.add_argument("file")
    p.add_argument("--kappa", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--dt", type=float, default=None, help="fixed step override")
    p.add_argument("--adaptive", action="store_true", help="embedded 4(5) pair")
    p.add_argument("--tol", type=float, default=1e-8, help="adaptive relative tolerance")
    _add_format(p, extra=("csv",))
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("decompose", help="split reactions into subnetworks")
    p.add_argument("file")
    _add_partition(p)
    p.add_argument("--subsets", required=True,
                   help="reaction index groups, e.g. '1,2,6' or '1,2;3,4'")
    p.add_argument("--kappa", default=None)
    p.add_argument("--state", default=None, help="state to run the balance checks at")
    _add_format(p)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("lift", help="replicated network with matching complex balance")
    p.add_argument("file")
    _add_partition(p)
    p.add_argument("--kappa", default=None)
    p.add_argument("--state", default=None, help="verify the correspondence at a state")
    _add_format(p)
    p.set_defaults(handler=cmd_lift)

    p = sub.add_parser("incremental", help="extra condition from joining two nodes")
    p.add_argument("file")
    _add_partition(p, required=True)
    p.add_argument("--join", required=True, metavar="I1,I2")
    p.add_argument("--kappa", default=None)
    _add_format(p)
    p.set_defaults(handler=cmd_incremental)

    return parser


def main(argv: Sequence[str] | None = None, stream: IO[str] | None = None) -> int:
    out = stream if stream is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args, out)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        ParseError,
        PartitionError,
        SplitError,
        LiftError,
        NotWeaklyReversibleError,
        SimulationError,
        ConvergenceError,
        json.JSONDecodeError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
