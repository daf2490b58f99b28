"""crnbalance benchmark: four closed-loop workloads, one process, one thread.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload check_batch --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones of the chosen workload; with
``--trace 1`` every workload runs a fixed number of rounds untraced and
then traced, and the metrics are the per-layer ones plus the tracing
overhead. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the machine the figures come from has two cores, and the
# benchmark is one client. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from time import perf_counter  # noqa: E402

import loader as L  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUPS = 11


def import_program(src: str):
    """crnbalance from the checkout's src directory, module by module."""
    package = importlib.import_module("crnbalance")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(src, "crnbalance"):
        raise SystemExit(f"crnbalance imported from {package.__file__}, not from {src}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"crnbalance.{name}") for name in L.MODULES}
    )


class SetUps:
    """SETUPS timed set-ups, spread over the run.

    One set-up is a fresh interpreter (perfbench/loader.py) that imports
    crnbalance and loads round 0's inputs through it, timed from its start
    to its exit; the inputs are generated and written beforehand. The
    set-ups run one at a time between rounds, never during an operation:
    the first before the timed loop, the others as the timed work passes
    each further share of --seconds. Spread so, their median rides out the
    slow and fast phases of a shared machine as the timed loop does.
    """

    def __init__(self, workload, round0, src: str, workdir: str):
        spec_path = os.path.join(workdir, "setup_spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(workload.spec(round0), handle)
        self.cmd = [sys.executable, L.__file__, src, spec_path]
        self.totals: list[float] = []
        self.imports: list[float] = []

    def take(self) -> None:
        start = perf_counter()
        proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120)
        self.totals.append(perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"set-up exited {proc.returncode}:\n{proc.stderr}")
        self.imports.append(float(proc.stdout))

    def due(self, share: float) -> None:
        """Take the set-ups due once `share` of the timed work is done."""
        while len(self.totals) < SETUPS and len(self.totals) <= share * (SETUPS - 1):
            self.take()

    def medians(self) -> tuple[float, float]:
        self.due(1.0)
        return statistics.median(self.totals), statistics.median(self.imports)


def run_loop(workload, mods, seed: int, *, seconds=None, rounds=None, start=0,
             ops=None, tracer=None, setups=None):
    """Whole rounds until `seconds` of timed work (and the workload's minimum
    number of rounds), or exactly `rounds` rounds. Between rounds, takes
    the set-ups that are due."""
    records, traces = [], []
    work = 0.0
    rnd = start
    while True:
        if ops is None:
            ops = workload.load(mods, workload.prepare(seed, rnd))
        for op in ops:
            if tracer is not None:
                tracer.begin_op()
            t0 = perf_counter()
            try:
                out = workload.run(mods, op)
            except Exception as exc:  # a failed operation, judged by workload.keep
                out = exc
            elapsed = perf_counter() - t0
            work += elapsed
            records.append(workload.keep(op, out, elapsed))
            if tracer is not None:
                traces.append(tracer.end_op())
        ops = None
        rnd += 1
        if setups is not None:
            setups.due(work / seconds if seconds else 1.0)
        done = rnd - start
        if rounds is not None:
            if done >= rounds:
                break
        elif work >= seconds and done >= workload.min_rounds:
            break
    return records, traces


def items_per_s(records) -> float:
    return sum(r.items for r in records) / sum(r.seconds for r in records)


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(workload, records, setup_s: float, peak_mb: float) -> dict:
    times = sorted(r.seconds for r in records if not r.failed)
    return {
        "items_per_s": {"value": items_per_s(records), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": nearest_rank(times, workload.tail_q) * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def report_checks(workload, records, result) -> bool:
    """Print the failures and disagreements; false if there is a
    disagreement or a failure that is not a named fault case."""
    failed = [r for r in records if r.failed]
    print(f"{workload.name}: {len(records)} operations, {len(failed)} failed, "
          f"tail = p{workload.tail_q * 100:g} of {len(records) - len(failed)}", file=sys.stderr)
    notes: dict[str, int] = {}
    for r in failed:
        notes[r.note] = notes.get(r.note, 0) + 1
    for note, count in sorted(notes.items()):
        print(f"  failed x{count}: {note}", file=sys.stderr)
    for r in failed:
        result.expect(workload.may_fail(r), f"{workload.name}: unexpected failure: {r.note}")
    for problem in result.problems:
        print(f"  WRONG: {problem}", file=sys.stderr)
    if result.more:
        print(f"  WRONG: {result.more} more", file=sys.stderr)
    return not result.problems


# ------------------------------------------------------------ traced run

def traced_run(all_workloads, mods, seed: int, import_s: float):
    """Every workload: trace_rounds pairs of one untraced and one traced round.

    Alternating rounds puts both halves in the same phases of a shared
    machine, so their items_per_s give the tracing overhead.
    """
    metrics = {"setup.import_s": {"value": import_s, "unit": "s"}}
    attempted = failed = 0
    correct = True
    tracer = Tracer()
    for workload in all_workloads.values():
        tracer.reset()
        plain, traced, traces = [], [], []
        for pair in range(workload.trace_rounds):
            records, _ = run_loop(workload, mods, seed, rounds=1, start=2 * pair)
            plain += records
            tracer.install(mods)
            try:
                records, op_traces = run_loop(workload, mods, seed, rounds=1,
                                              start=2 * pair + 1, tracer=tracer)
            finally:
                tracer.uninstall()
            traced += records
            traces += op_traces
        metrics.update(workload.layer_metrics(traced, traces, tracer))
        overhead = items_per_s(plain) / items_per_s(traced) - 1.0
        metrics[f"trace.{workload.name}_overhead_pct"] = {"value": overhead * 100, "unit": "%"}
        records = plain + traced
        correct &= report_checks(workload, records, workload.check(records))
        attempted += len(records)
        failed += sum(r.failed for r in records)
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lattice", "check_batch", "fresh_graphs", "dynamics"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "crnbalance", "__init__.py")):
        print(f"error: no crnbalance source under {src}; run from the checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    workdir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        all_workloads = W.make(workdir)
        workload = all_workloads[args.workload]
        round0 = workload.prepare(args.seed, 0)
        setups = SetUps(workload, round0, src, workdir)
        setups.due(0.0)
        mods = import_program(src)
        ops = workload.load(mods, round0)
        if args.trace:
            import_s = setups.medians()[1]
            correct, attempted, failed, metrics = traced_run(all_workloads, mods, args.seed, import_s)
        else:
            records, _ = run_loop(workload, mods, args.seed, seconds=args.seconds, ops=ops,
                                  setups=setups)
            setup_s = setups.medians()[0]
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            correct = report_checks(workload, records, workload.check(records))
            attempted, failed = len(records), sum(r.failed for r in records)
            metrics = end_to_end(workload, records, setup_s, peak_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
