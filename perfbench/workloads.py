"""The four workloads: inputs, one operation, and the checks on its outputs.

Each workload turns a round of seeded inputs into operations (``prepare``
makes the benchmark's inputs, ``spec`` says what of them passes through
the program before the timed loop, ``load`` passes it through), runs one
operation at a time (``run``, the only timed part), keeps a compact record
of each output (``keep``) and checks all records against the references
after the timed loop (``check``). Only operations that ``may_fail``
allows may raise; any other failure makes the run incorrect.

The program is always reached through module attributes looked up at call
time (``mods.balance.check_kappa_balanced``), so that a traced run can
wrap them.
"""

from __future__ import annotations

import io
import json
import math
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

import inputs as I
import loader as L
import refs as R
from tracing import median, metric, per_op

MS, US = 1e3, 1e6


@dataclass
class Record:
    op: object
    out: object
    seconds: float
    items: int = 1
    failed: bool = False
    note: str = ""


@dataclass
class CheckResult:
    """Disagreements with the references; the first 20 are kept verbatim."""

    problems: list[str] = field(default_factory=list)
    more: int = 0

    def expect(self, ok: bool, what: str) -> None:
        if ok:
            return
        if len(self.problems) < 20:
            self.problems.append(what)
        else:
            self.more += 1


class Workload:
    def may_fail(self, record: Record) -> bool:
        """Whether a failed operation is one of the named fault cases."""
        return False


def _failed(op, exc: Exception, seconds: float) -> Record:
    return Record(op, exc, seconds, items=0, failed=True, note=f"{type(exc).__name__}: {exc}")


# ------------------------------------------------------------------ lattice


class Lattice(Workload):
    """``crn graphs enumerate FILE`` in-process; one item is one graph."""

    name = "lattice"
    tail_q = 0.75
    min_rounds = 5
    trace_rounds = 1

    def __init__(self, workdir: str):
        self.workdir = workdir

    def prepare(self, seed: int, rnd: int):
        ops = []
        for k, net in enumerate(I.lattice_round(seed, rnd)):
            path = os.path.join(self.workdir, f"lattice_{rnd}_{k}.crn")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(net.text())
            ops.append((net, path))
        return ops

    def spec(self, prepared) -> dict:
        return {"networks": [net.text() for net, _ in prepared]}

    def load(self, mods, prepared):
        L.load(mods, self.spec(prepared))
        return prepared

    def run(self, mods, op):
        stream = io.StringIO()
        code = mods.cli.main(["graphs", "enumerate", op[1]], stream)
        return code, stream.getvalue()

    def keep(self, op, out, seconds):
        os.remove(op[1])
        if isinstance(out, Exception):
            return _failed(op[0], out, seconds)
        code, text = out
        graphs = text.count('"partition":')
        packed = (code, len(text.encode()), zlib.compress(text.encode(), 1))
        return Record(op[0], packed, seconds, items=graphs)

    def check(self, records):
        res = CheckResult()
        ranks: dict = {}
        for rec in records:
            if rec.failed:
                continue
            net = rec.op
            code, size, packed = rec.out
            res.expect(code == 0, f"lattice: exit code {code}")
            if code != 0:
                continue
            data = json.loads(zlib.decompress(packed))
            if net not in ranks:
                ranks[net] = R.sympy_rank(net.stoichiometry())
            _check_lattice(net, ranks[net], data, res)
        return res

    def layer_metrics(self, records, traces, tracer):
        graphs = per_op(traces, "calls", "graphs.build")
        return {
            "network.parse_ms_per_op": metric(median(per_op(traces, "incl", "network.parse")) * MS, "ms"),
            "partitions.us_per_partition": metric(median(
                t["incl"]["partitions.enumerate"] / t["calls"]["partitions.enumerate.items"]
                for t in traces) * US, "us"),
            "graphs.build_us_per_graph": metric(median(
                t["incl"]["graphs.build"] / n for t, n in zip(traces, graphs)) * US, "us"),
            "graphs.classify_us_per_graph": metric(median(
                t["incl"]["graphs.classify"] / n for t, n in zip(traces, graphs)) * US, "us"),
            "graphs.wr_per_graph": metric(
                sum(per_op(traces, "calls", "graphs.weakly_reversible")) / sum(graphs), "ratio"),
            "reporting.emit_ms_per_op": metric(median(per_op(traces, "incl", "reporting.emit")) * MS, "ms"),
            "cli.self_ms_per_op": metric(median(per_op(traces, "self", "cli.main")) * MS, "ms"),
            "cli.output_bytes_per_op": metric(sum(r.out[1] for r in records) / len(records), "bytes"),
        }


def _check_lattice(net: I.Net, rank: int, data: dict, res: CheckResult) -> None:
    labels = net.split_labels()
    sizes: dict = {}
    for lab in labels:
        sizes[lab] = sizes.get(lab, 0) + 1
    expected = math.prod(R.bell(s) for s in sizes.values())
    res.expect(data["admissible_count"] == expected,
               f"lattice: admissible_count {data['admissible_count']} != {expected}")
    res.expect(len(data["graphs"]) == expected,
               f"lattice: {len(data['graphs'])} graphs listed, {expected} expected")
    label_of = [None] + labels
    ends = [(net.source_index(j), net.target_index(j)) for j in range(net.p)]
    size = 2 * net.p + 1
    seen = set()
    for entry in data["graphs"]:
        blocks = entry["partition"]
        node = [-1] * size
        pure = True
        for k, b in enumerate(blocks):
            label = label_of[b[0]] if b and 0 < b[0] < size else ()
            for i in b:
                if not 0 < i < size or node[i] != -1 or label_of[i] != label:
                    pure = False
                node[i if 0 < i < size else 0] = k
        res.expect(pure and -1 not in node[1:],
                   f"lattice: partition {blocks} is not label-pure or does not cover 1..{size - 1}")
        # blocks renumbered by first index: equal keys mean equal partitions
        first: dict[int, int] = {}
        key = tuple(first.setdefault(k, len(first)) for k in node[1:])
        res.expect(key not in seen, f"lattice: partition {blocks} listed twice")
        seen.add(key)
        m = len(blocks)
        components, wr = I.components_and_reversibility(m, [(node[s], node[t]) for s, t in ends])
        l = len(components)
        res.expect(
            (entry["nodes"], entry["components"], entry["weakly_reversible"], entry["deficiency"])
            == (m, l, wr, m - l - rank),
            f"lattice: wrong structure for {blocks}: {entry}",
        )


# -------------------------------------------------------------- check_batch


class CheckBatch(Workload):
    """``check_kappa_balanced(g, kappa)`` on the weakly reversible graphs of
    the running example and fig2; one item is one verdict."""

    name = "check_batch"
    tail_q = 0.98
    min_rounds = 5
    trace_rounds = 6

    def __init__(self):
        self.nets = (I.RUNNING, I.FIG2)
        self.graphs = [g for net in self.nets for g in I.weakly_reversible_graphs(net)]
        self.cycles = [[I.cycle_through(g, j) for j in range(g.net.p)] for g in self.graphs]
        self._loaded = (None, None)

    def prepare(self, seed: int, rnd: int):
        return I.check_round(self.graphs, self.cycles, seed, rnd)

    def spec(self, prepared) -> dict:
        return {
            "networks": [net.text() for net in self.nets],
            "graphs": [[self.nets.index(g.net), g.blocks] for g in self.graphs],
        }

    def load(self, mods, prepared):
        if self._loaded[0] is not mods:
            self._loaded = (mods, L.load(mods, self.spec(prepared))[1])
        pgraphs = self._loaded[1]
        return [(case, pgraphs[case.graph], list(case.kappa)) for case in prepared]

    def run(self, mods, op):
        return mods.balance.check_kappa_balanced(op[1], op[2]).balanced

    def keep(self, op, out, seconds):
        if isinstance(out, Exception):
            return _failed(op[0], out, seconds)
        return Record(op[0], out, seconds)

    def check(self, records):
        res = CheckResult()
        ranks = {net: R.sympy_rank(net.stoichiometry()) for net in self.nets}
        by_graph: dict[int, list[Record]] = {}
        for rec in records:
            if not rec.failed:
                by_graph.setdefault(rec.op.graph, []).append(rec)
        for gi, recs in by_graph.items():
            g = self.graphs[gi]
            ref = R.GraphRef(g, ranks[g.net])
            verdicts = ref.balanced_many([rec.op.kappa for rec in recs])
            for rec, verdict in zip(recs, verdicts):
                case = rec.op
                if case.witness is not None:
                    res.expect(R.witness_balances(g, ref.edges, case.kappa, case.witness),
                               f"check_batch: witness fails on graph {g.blocks}")
                res.expect(rec.out == verdict,
                           f"check_batch: verdict {rec.out} != reference {verdict} "
                           f"on graph {g.blocks}, kappa {case.kappa}")
        return res

    def layer_metrics(self, records, traces, tracer):
        checks = len(traces)
        return {
            "balance.conditions_us_per_check": metric(
                median(per_op(traces, "incl", "balance.conditions")) * US, "us"),
            "balance.tree_eval_us_per_check": metric(
                median(per_op(traces, "incl", "balance.tree_eval")) * US, "us"),
            "ratmat.nullspace_calls_per_check": metric(
                sum(per_op(traces, "calls", "ratmat.nullspace")) / checks, "count"),
            "ratmat.det_calls_per_check": metric(
                sum(per_op(traces, "calls", "ratmat.det")) / checks, "count"),
            "ratmat.det_us_per_call": metric(median(tracer.per_call["ratmat.det"]) * US, "us"),
        }


# ------------------------------------------------------------- fresh_graphs


class FreshGraphs(Workload):
    """The full exact analysis of seeded random weakly reversible graphs that
    are never reused; one item is one graph."""

    name = "fresh_graphs"
    tail_q = 0.9
    min_rounds = 13
    trace_rounds = 2

    def prepare(self, seed: int, rnd: int):
        return I.fresh_round(seed, rnd)

    def spec(self, prepared) -> dict:
        return {
            "networks": [case.graph.net.text() for case in prepared],
            "graphs": [[k, case.graph.blocks] for k, case in enumerate(prepared)],
            "splits": [[k, case.split] for k, case in enumerate(prepared)],
        }

    def load(self, mods, prepared):
        ops = []
        loaded = zip(prepared, *L.load(mods, self.spec(prepared)))
        for case, pnet, pg, split in loaded:
            labels = case.graph.labels()
            pairs = [
                (a + 1, b + 1)
                for a in range(len(labels)) for b in range(a + 1, len(labels))
                if labels[a] == labels[b]
            ]
            ops.append((case, pnet, pg, split, pairs))
        return ops

    def run(self, mods, op):
        case, pnet, g, split, pairs = op
        balance, lifting = mods.balance, mods.lifting
        conditions = balance.balance_conditions(g, expand=True)
        kb, x_star = list(case.kappa_balanced), list(case.witness)
        check_b = balance.check_kappa_balanced(g, kb)
        check_r = balance.check_kappa_balanced(g, list(case.kappa_random))
        incremental = [balance.incremental_condition(g, a, b) for a, b in pairs]
        lift = lifting.lift_network(pnet, g)
        lifted_deficiency = mods.graphs.canonical_complex_graph(lift.network).deficiency
        verification = lifting.verify_lift(pnet, g, kb, x_star)
        decomposition = mods.subnetworks.decomposition_check(pnet, g, split, kb, x_star)
        return {
            "deficiency": g.deficiency,
            "relations": [(r.lhs_poly.terms, r.rhs_poly.terms) for r in conditions.relations],
            "balanced": check_b.balanced,
            "random_balanced": check_r.balanced,
            "incremental": [
                (pair, c.kind.value, None if c.lhs is None else (c.lhs.terms, c.rhs.terms))
                for pair, c in zip(pairs, incremental)
            ],
            "lifted_deficiency": lifted_deficiency,
            "lifted_rank": lift.network.rank,
            "lift_holds": verification.holds,
            "decomposition_agree": decomposition.agree,
        }

    def keep(self, op, out, seconds):
        if isinstance(out, Exception):
            return _failed(op[0], out, seconds)
        return Record(op[0], out, seconds)

    def check(self, records):
        res = CheckResult()
        for rec in records:
            if rec.failed:
                continue
            case, out = rec.op, rec.out
            g = case.graph
            rank = R.sympy_rank(g.net.stoichiometry())
            ref = R.GraphRef(g, rank)
            kb = case.kappa_balanced
            where = f"fresh_graphs: graph {g.blocks} of {g.net.text()!r}"
            res.expect(out["deficiency"] == ref.deficiency,
                       f"{where}: deficiency {out['deficiency']} != m - l - rank = {ref.deficiency}")
            res.expect(len(out["relations"]) == ref.deficiency,
                       f"{where}: {len(out['relations'])} relations for deficiency {ref.deficiency}")
            for lhs, rhs in out["relations"]:
                res.expect(R.eval_kpoly(lhs, kb) == R.eval_kpoly(rhs, kb),
                           f"{where}: expanded relation sides differ at the balanced kappa")
            res.expect(R.witness_balances(g, ref.edges, kb, case.witness),
                       f"{where}: witness fails")
            res.expect(out["balanced"] is True, f"{where}: balanced kappa reported unbalanced")
            (verdict,) = ref.balanced_many([case.kappa_random])
            res.expect(out["random_balanced"] == verdict,
                       f"{where}: random-kappa verdict {out['random_balanced']} != {verdict}")
            tree_k = ref.tree_constants(kb) if out["incremental"] else None
            for (a, b), kind, polys in out["incremental"]:
                same = ref.component_of[a - 1] == ref.component_of[b - 1]
                res.expect(kind == ("SameComponent" if same else "DifferentComponents"),
                           f"{where}: join {a},{b} kind {kind}")
                if same and polys is not None:
                    holds = R.eval_kpoly(polys[0], kb) == R.eval_kpoly(polys[1], kb)
                    res.expect(holds == (tree_k[a - 1] == tree_k[b - 1]),
                               f"{where}: join {a},{b} condition disagrees with K_a = K_b")
            res.expect(out["lifted_deficiency"] == ref.deficiency,
                       f"{where}: lifted deficiency {out['lifted_deficiency']} != {ref.deficiency}")
            expected_rank = rank + g.net.n * (g.m - 1)
            res.expect(out["lifted_rank"] == expected_rank,
                       f"{where}: lifted rank {out['lifted_rank']} != s + n(m-1) = {expected_rank}")
            res.expect(out["lift_holds"] is True, f"{where}: verify_lift does not hold")
            res.expect(out["decomposition_agree"] is True, f"{where}: decomposition views disagree")
        return res

    def layer_metrics(self, records, traces, tracer):
        graphs = len(traces)

        def ms(name):
            return metric(median(per_op(traces, "incl", name)) * MS, "ms")

        lookups = tracer.cache_hits + tracer.cache_misses
        return {
            "balance.check_us_per_check": metric(median(tracer.per_call["balance.check"]) * US, "us"),
            "balance.conditions_expand_ms_per_graph": ms("balance.conditions_expand"),
            "balance.tree_symbolic_ms_per_graph": ms("balance.tree_symbolic"),
            "balance.tree_cache_hit_ratio": metric(tracer.cache_hits / max(1, lookups), "ratio"),
            "kpoly.mul_calls_per_graph": metric(sum(per_op(traces, "calls", "kpoly.mul")) / graphs, "count"),
            "kpoly.mul_us_per_call": metric(median(tracer.per_call["kpoly.mul"]) * US, "us"),
            "ratmat.rank_ms_per_graph": ms("ratmat.rank"),
            "lifting.lift_ms_per_graph": ms("lifting.lift"),
            "lifting.verify_ms_per_graph": ms("lifting.verify"),
            "subnetworks.decompose_ms_per_graph": ms("subnetworks.decompose"),
        }


# ----------------------------------------------------------------- dynamics

SIM_TOL = 1e-6        # final states vs LSODA, relative to max(1, |x_ref|)
STEADY_TOL = 1e-8     # N v(x*) relative to max(1, |v(x*)|)
CLASS_TOL = 1e-8      # W (x* - x0) relative to max(1, |x0|)


class Dynamics(Workload):
    """Birch point, stability and two simulations of one balanced system;
    one item is one system."""

    name = "dynamics"
    tail_q = 0.9
    min_rounds = 3
    trace_rounds = 1

    def __init__(self):
        self.wr = {name: I.weakly_reversible_graphs(net) for name, net in I.DYNAMICS_NETS.items()}
        self._loaded = (None, None, None)

    def prepare(self, seed: int, rnd: int):
        out = []
        for case in I.dynamics_round(self.wr, seed, rnd):
            scale = R.FloatSystem(case.graph.net, case.kappa).diag_scale(np.array(case.x0))
            out.append((case, case.steps * 1e-3 / scale))
        return out

    def spec(self, prepared) -> dict:
        nets = list(I.DYNAMICS_NETS.values())
        keys = dict.fromkeys((case.graph.net, case.graph.blocks) for case, _ in prepared)
        return {
            "networks": [net.text() for net in nets],
            "graphs": [[nets.index(net), blocks] for net, blocks in keys],
        }

    def load(self, mods, prepared):
        """Graphs are built once per run and reused across rounds."""
        if self._loaded[0] is not mods:
            spec = self.spec(prepared)
            pnets, pgraphs, _ = L.load(mods, spec)
            nets = list(I.DYNAMICS_NETS.values())
            self._loaded = (mods, {
                (nets[k], tuple(blocks)): g for (k, blocks), g in zip(spec["graphs"], pgraphs)
            }, dict(zip(nets, pnets)))
        _, graphs, pnets = self._loaded
        ops = []
        for case, t_end in prepared:
            key = (case.graph.net, case.graph.blocks)
            if key not in graphs:
                graphs[key] = L.graph(mods, pnets[case.graph.net], case.graph.blocks)
            ops.append((case, t_end, pnets[case.graph.net], graphs[key]))
        return ops

    def run(self, mods, op):
        case, t_end, pnet, g = op
        dynamics = mods.dynamics
        kappa, x0 = list(case.kappa), list(case.x0)
        x_star = dynamics.birch_point(pnet, g, kappa, x0)
        verdict = dynamics.stability_report(pnet, kappa, x_star).verdict.value
        adaptive = dynamics.simulate(pnet, x0, kappa, t_end=t_end, adaptive=True)
        fixed = dynamics.simulate(pnet, x0, kappa, t_end=t_end)
        return {
            "x_star": x_star,
            "verdict": verdict,
            "adaptive": (adaptive.final, adaptive.steps),
            "fixed": (fixed.final, fixed.steps),
        }

    def keep(self, op, out, seconds):
        case = op[0]
        raised = type(out).__name__ if isinstance(out, Exception) else None
        failed = raised is not None if case.expect_balanced else raised != "NotBalancedError"
        note = f"{case.fault or 'seeded system'}: {raised or 'returned a point'}"
        return Record((case, op[1]), out, seconds, items=0 if failed else 1,
                      failed=failed, note=note if failed else "")

    def may_fail(self, record: Record) -> bool:
        return record.op[0].fault is not None

    def check(self, records):
        res = CheckResult()
        laws = {net: R.left_kernel(net.stoichiometry()) for net in I.DYNAMICS_NETS.values()}
        for rec in records:
            if rec.failed or isinstance(rec.out, Exception):
                continue
            case, t_end = rec.op
            net, out = case.graph.net, rec.out
            where = f"dynamics: {case.name} graph {case.graph.blocks} kappa {case.kappa}"
            system = R.FloatSystem(net, case.kappa)
            x_star = np.array(out["x_star"])
            v = system.rates(x_star)
            res.expect(float(np.max(np.abs(system.nmat @ v))) <= STEADY_TOL * max(1.0, float(np.max(v))),
                       f"{where}: N v(x*) is not 0")
            x0 = np.array(case.x0)
            drift = laws[net] @ (x_star - x0)
            res.expect(drift.size == 0 or float(np.max(np.abs(drift))) <= CLASS_TOL * max(1.0, float(np.max(x0))),
                       f"{where}: x* leaves the class of x0")
            res.expect(out["verdict"] == "Stable", f"{where}: stability {out['verdict']}")
            reference = R.lsoda_final(net, case.kappa, case.x0, t_end)
            bound = SIM_TOL * max(1.0, float(np.max(np.abs(reference))))
            for kind in ("adaptive", "fixed"):
                final = np.array(out[kind][0])
                res.expect(float(np.max(np.abs(final - reference))) <= bound,
                           f"{where}: {kind} final state {final} vs LSODA {reference}")
        return res

    def layer_metrics(self, records, traces, tracer):
        ok = [(r, t) for r, t in zip(records, traces) if not r.failed]
        oks = [t for _, t in ok]
        out = {}
        for kind in ("fixed", "adaptive"):
            steps = [r.out[kind][1] for r, _ in ok]
            out[f"dynamics.{kind}_steps_per_op"] = metric(sum(steps) / len(ok), "count")
            out[f"dynamics.{kind}_us_per_step"] = metric(median(
                t["incl"][f"dynamics.{kind}"] / n for t, n in zip(oks, steps)) * US, "us")
        out["dynamics.birch_ms_per_op"] = metric(
            median(per_op(oks, "incl", "dynamics.birch")) * MS, "ms")
        out["balance.solve_steady_state_ms_per_op"] = metric(
            median(per_op(oks, "incl", "balance.solve_steady_state")) * MS, "ms")
        out["dynamics.stability_ms_per_op"] = metric(
            median(per_op(oks, "incl", "dynamics.stability")) * MS, "ms")
        return out


def make(workdir: str) -> dict:
    return {
        w.name: w
        for w in (Lattice(workdir), CheckBatch(), FreshGraphs(), Dynamics())
    }
