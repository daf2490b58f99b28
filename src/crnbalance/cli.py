"""Command line front end (installed as ``crn``).

Reports go to standard output, JSON by default. Exit codes: 0 success,
1 negative analysis verdict (not balanced, infeasible, blocked
decomposition), 2 bad input or any other error, never read as a verdict.

Each ``cmd_*`` handler takes the parsed network and the arguments and
returns its report with its exit code; ``main`` alone reads the file,
writes the report through ``emit`` and turns errors into exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import IO, Sequence

from .balance import (
    balance_conditions,
    cayley_matrix,
    check_kappa_balanced,
    incremental_condition,
    integer_kernel_basis,
    steady_state_binomials,
)
from .dynamics import (
    birch_point,
    conservation_laws,
    simulate,
    solve_positive_steady_state,
    stability_report,
)
from .graphs import (
    canonical_complex_graph,
    canonical_split_graph,
    detailed_graph,
    equivalent,
    graph_from_partition,
)
from .kpoly import product_text
from .lifting import lift_network, verify_lift
from .network import (
    ReactionNetwork,
    format_network,
    format_rate,
    parse_network,
)
from .partitions import (
    count_admissible_partitions,
    enumerate_admissible_partitions,
    partition_from_json,
    partition_to_json,
)
from .reporting import GraphRows, emit, graph_summary
from .subnetworks import SubnetworkSplit, decomposition_check, induced_graphs


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror}") from exc


def _load_graph(net: ReactionNetwork, args):
    if args.partition is None:
        return canonical_complex_graph(net)
    partition = partition_from_json(net, _read_file(args.partition))
    return graph_from_partition(net, partition)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def _parse_vector(text: str) -> list[Fraction]:
    return [_fraction(part) for part in text.split(",")]


def _parse_kappa(net: ReactionNetwork, text: str) -> list:
    """Rate constants from a comma list or a JSON map of rate symbols."""
    text = text.strip()
    if not text.startswith("{"):
        values = _parse_vector(text)
        if len(values) != net.p:
            raise ValueError(f"kappa has {len(values)} entries for {net.p} reactions")
        return values
    try:
        mapping = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed kappa map: {exc}") from exc
    if not isinstance(mapping, dict):
        raise ValueError("kappa map must be a JSON object")
    symbols = {r.rate for r in net.reactions if isinstance(r.rate, str)}
    unknown = sorted(set(mapping) - symbols)
    if unknown:
        raise ValueError(f"unknown rate symbols: {', '.join(unknown)}")
    values = []
    for r in net.reactions:
        if isinstance(r.rate, str):
            if r.rate not in mapping:
                raise ValueError(f"no value for rate symbol {r.rate}")
            values.append(_fraction(str(mapping[r.rate])))
        else:
            values.append(r.rate)
    return values


def _kappa_and_state(net: ReactionNetwork, args):
    """The parsed --kappa and --state, or None when neither is given."""
    if (args.kappa is None) != (args.state is None):
        raise ValueError("--kappa and --state go together")
    if args.kappa is None:
        return None
    return _parse_kappa(net, args.kappa), _parse_vector(args.state)


def _network_facts(net: ReactionNetwork) -> dict:
    return {"species": list(net.species), "n": net.n, "m": net.m, "p": net.p}


def cmd_parse(net: ReactionNetwork, args) -> tuple[dict, int]:
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
    return report, 0


def cmd_analyze(net: ReactionNetwork, args) -> tuple[dict, int]:
    report = _network_facts(net)
    report["rank"] = net.rank
    report["conservation_laws"] = [list(w) for w in conservation_laws(net)]
    report["graphs"] = {
        "complex": graph_summary(canonical_complex_graph(net)),
        "detailed": graph_summary(detailed_graph(net)),
        "split": graph_summary(canonical_split_graph(net)),
    }
    return report, 0


def cmd_graphs_enumerate(net: ReactionNetwork, args) -> tuple[dict, int]:
    def row(partition):
        g = graph_from_partition(net, partition)
        return partition.blocks, g.m, g.n_components, g.deficiency, g.is_weakly_reversible

    # emit streams the rows, so each graph is dropped once its row is written
    graphs = GraphRows(map(row, enumerate_admissible_partitions(net, args.max)))
    return {"admissible_count": count_admissible_partitions(net), "graphs": graphs}, 0


def cmd_graph_info(net: ReactionNetwork, args) -> tuple[dict, int]:
    g = _load_graph(net, args)
    report = {"network": _network_facts(net) | {"rank": net.rank}}
    report.update(graph_summary(g))
    report["strongly_connected_components"] = [list(c) for c in g.strong_components]
    report["cayley_matrix"] = [list(row) for row in cayley_matrix(g)]
    basis = integer_kernel_basis(g)
    report["kernel_dimension"] = len(basis)
    report["kernel_basis"] = [list(u) for u in basis]
    return report, 0


def cmd_balance_conditions(net: ReactionNetwork, args) -> tuple[dict, int]:
    g = _load_graph(net, args)
    conditions = balance_conditions(g, expand=args.expand)
    entries = []
    for rel in conditions.relations:
        entry = {
            "u": list(rel.u),
            "lhs": product_text((f"K{i}", e) for i, e in rel.lhs),
            "rhs": product_text((f"K{i}", e) for i, e in rel.rhs),
        }
        if args.expand:
            entry["lhs_expanded"] = rel.lhs_poly.format()
            entry["rhs_expanded"] = rel.rhs_poly.format()
        entries.append(entry)
    return {
        "deficiency": g.deficiency,
        "weakly_reversible": True,
        "kernel_basis": [list(u) for u in conditions.kernel_basis],
        "conditions": entries,
    }, 0


def cmd_balance_check(net: ReactionNetwork, args) -> tuple[dict, int]:
    g = _load_graph(net, args)
    kappa = _parse_kappa(net, args.kappa)
    check = check_kappa_balanced(g, kappa)
    report = {
        "kappa": [format_rate(Fraction(k)) for k in kappa],
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
    return report, 0 if check.balanced else 1


def cmd_steady_state(net: ReactionNetwork, args) -> tuple[dict, int]:
    g = _load_graph(net, args)
    kappa = _parse_kappa(net, args.kappa)
    check = check_kappa_balanced(g, kappa)
    feasible = check.balanced  # exact; the float solve gives x
    result = solve_positive_steady_state(check)
    if feasible and not result.feasible:
        raise ValueError(f"float solve left log-residual {result.residual:.3g} on a balanced kappa")
    report = {
        "kappa": [format_rate(Fraction(k)) for k in kappa],
        "feasible": feasible,
        "log_residual": result.residual,
        "binomials": [
            {
                "edge": list(b.edge),
                "equation": "{}*{} = {}*{}".format(
                    format_rate(b.lhs_coeff),
                    product_text(zip(net.species, b.lhs_exps)),
                    format_rate(b.rhs_coeff),
                    product_text(zip(net.species, b.rhs_exps)),
                ),
            }
            for b in steady_state_binomials(check)
        ],
    }
    if feasible:
        report["x"] = list(result.x)
        if args.class_anchor is not None:
            anchor = _parse_vector(args.class_anchor)
            point = birch_point(net, g, kappa, anchor)
            stability = stability_report(net, kappa, point)
            report["class_anchor"] = [float(v) for v in anchor]
            report["birch_point"] = list(point)
            report["stability"] = {
                "eigenvalues": list(stability.eigenvalues),
                "verdict": stability.verdict,
            }
    return report, 0 if feasible else 1


def cmd_simulate(net: ReactionNetwork, args) -> tuple[dict, int]:
    kappa = _parse_kappa(net, args.kappa)
    trace = simulate(
        net,
        _parse_vector(args.x0),
        kappa,
        t_end=args.t_end,
        dt=args.dt,
        adaptive=args.adaptive,
        tol=args.tol,
    )
    if args.format == "csv":
        rows = [(t, *state) for t, state in zip(trace.times, trace.states)]
        return {"columns": ["t", *net.species], "rows": rows}, 0
    return {
        "t_end": args.t_end,
        "steps": trace.steps,
        "steady": trace.steady,
        "residual": trace.residual,
        "final": list(trace.final),
        "times": list(trace.times),
        "states": [list(s) for s in trace.states],
    }, 0


def cmd_decompose(net: ReactionNetwork, args) -> tuple[dict, int]:
    g = _load_graph(net, args)
    try:
        subsets = [tuple(map(int, s.split(","))) for s in args.subsets.split(";") if s.strip()]
    except ValueError as exc:
        raise ValueError(f"--subsets wants integers, got {args.subsets!r}") from exc
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
    pair = _kappa_and_state(net, args)
    if pair is None:
        return report, 0 if induced.jointly_balanceable else 1
    check = decomposition_check(net, g, split, *pair)
    report["check"] = {
        "whole_and_subsets": check.whole_and_subsets,
        "union_graph": check.union_graph,
        "all_parts": check.all_parts,
        "agree": check.agree,
    }
    return report, 0 if check.balanced else 1


def cmd_lift(net: ReactionNetwork, args) -> tuple[dict, int]:
    g = _load_graph(net, args)
    lift = lift_network(net, g)
    report = {
        "copies": lift.copies,
        "epsilon": lift.epsilon,
        "species": list(lift.network.species),
        "reactions": lift.network.p,
        "exchange_reactions": lift.n_exchange,
        "graph_deficiency": g.deficiency,
        "lifted_deficiency": canonical_complex_graph(lift.network).deficiency,
        "stoichiometric_dimension": lift.network.rank,
        "network": format_network(lift.network),
    }
    pair = _kappa_and_state(net, args)
    if pair is None:
        return report, 0
    check = verify_lift(net, g, *pair)
    report["verification"] = {
        "base_balanced": check.base_balanced,
        "lift_balanced": check.lift_balanced,
        "rows_match": check.rows_match,
        "holds": check.holds,
    }
    return report, 0 if check.holds else 1


def cmd_incremental(net: ReactionNetwork, args) -> tuple[dict, int]:
    g = _load_graph(net, args)
    parts = args.join.split(",")
    if len(parts) != 2:
        raise ValueError(f"--join wants two node indices, got {args.join!r}")
    try:
        i1, i2 = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"--join wants integers, got {args.join!r}") from exc
    condition = incremental_condition(g, i1, i2)
    report = {
        "nodes": [i1, i2],
        "kind": condition.kind,
        "extra_condition": condition.extra_condition,
        "condition": None
        if condition.lhs is None
        else {"lhs": condition.lhs.format(), "rhs": condition.rhs.format()},
    }
    if args.kappa is None:
        return report, 0
    kappa = _parse_kappa(net, args.kappa)
    holds = condition.holds(kappa)
    report["kappa"] = [format_rate(Fraction(k)) for k in kappa]
    report["holds"] = holds
    return report, 0 if holds else 1


def _command(sub, name: str, help: str, handler, options: dict | None = None, *,
             partition: bool | None = None, formats: tuple[str, ...] = ("json", "text")):
    """A subcommand taking FILE, --partition (required if True, absent if None),
    ``options`` (flag -> add_argument keywords) and --format, in that order."""
    p = sub.add_parser(name, help=help)
    p.add_argument("file")
    if partition is not None:
        p.add_argument(
            "--partition",
            required=partition,
            help="JSON file with the admissible partition (array of index arrays)",
        )
    for flag, kwargs in (options or {}).items():
        p.add_argument(flag, **kwargs)
    p.add_argument("--format", choices=formats, default="json", help="output format (default json)")
    p.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crn",
        description="Reaction graph analysis of mass-action networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "parse", "parse a .crn file and echo its structure", cmd_parse)
    _command(sub, "analyze", "rank, canonical graphs, conservation laws", cmd_analyze)

    graphs = sub.add_parser("graphs", help="operations on the set of reaction graphs")
    graphs_sub = graphs.add_subparsers(dest="graphs_command", required=True)
    _command(graphs_sub, "enumerate", "list all admissible partitions", cmd_graphs_enumerate,
             {"--max": dict(type=int, help="enumeration cap")})

    graph = sub.add_parser("graph", help="operations on one reaction graph")
    graph_sub = graph.add_subparsers(dest="graph_command", required=True)
    _command(graph_sub, "info", "structure, Cayley matrix, kernel", cmd_graph_info,
             partition=True)

    balance = sub.add_parser("balance", help="node balance analysis")
    balance_sub = balance.add_subparsers(dest="balance_command", required=True)
    _command(balance_sub, "conditions", "rate-constant conditions for balance",
             cmd_balance_conditions,
             {"--expand": dict(action="store_true", help="expand tree constants")},
             partition=False)
    _command(balance_sub, "check", "test rate constants for balance", cmd_balance_check,
             {"--kappa": dict(required=True, help="comma list or JSON map")}, partition=False)

    _command(sub, "steady-state", "positive steady states of a balanced graph",
             cmd_steady_state,
             {"--kappa": dict(required=True),
              "--class": dict(dest="class_anchor", metavar="X0",
                              help="comma list; also return the class steady state")},
             partition=False)
    _command(sub, "simulate", "integrate the mass-action ODE", cmd_simulate,
             {"--kappa": dict(required=True),
              "--x0": dict(required=True),
              "--t-end": dict(type=float, required=True),
              "--dt": dict(type=float, help="fixed step override"),
              "--adaptive": dict(action="store_true", help="embedded 4(5) pair"),
              "--tol": dict(type=float, default=1e-8, help="adaptive relative tolerance")},
             formats=("json", "text", "csv"))
    _command(sub, "decompose", "split reactions into subnetworks", cmd_decompose,
             {"--subsets": dict(required=True,
                                help="reaction index groups, e.g. '1,2,6' or '1,2;3,4'"),
              "--kappa": {},
              "--state": dict(help="state to run the balance checks at")},
             partition=False)
    _command(sub, "lift", "replicated network with matching complex balance", cmd_lift,
             {"--kappa": {},
              "--state": dict(help="verify the correspondence at a state")},
             partition=False)
    _command(sub, "incremental", "extra condition from joining two nodes", cmd_incremental,
             {"--join": dict(required=True, metavar="I1,I2"), "--kappa": {}},
             partition=True)
    return parser


def main(argv: Sequence[str] | None = None, stream: IO[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    # bad input raises a ValueError (ParseError, PartitionError, ...); any other
    # exception, an OverflowError say, exits 2 too, since 1 is a verdict
    try:
        report, code = args.handler(parse_network(_read_file(args.file)), args)
        emit(report, args.format, stream if stream is not None else sys.stdout)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
