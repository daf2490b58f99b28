"""Spans around the program's public functions, installed from outside.

A traced run replaces module attributes (``crnbalance.cli.emit``,
``crnbalance.ratmat.det``, ...) with wrappers that time each call and
count it; ``uninstall`` puts the originals back. Untraced runs install
nothing. Per operation the tracer keeps, per span name, the inclusive
time (nested spans of the same name count once), the self time (minus
the time of spans called from it) and the call count.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

# Spans whose per-call durations are kept, for per-call medians.
PER_CALL = {"ratmat.det", "kpoly.mul", "balance.check"}


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_op(traces, kind: str, name: str) -> list:
    """One value per operation: kind is "incl", "self" or "calls"."""
    return [t[kind].get(name, 0) for t in traces]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []
        self.installed: list[tuple[object, str, object]] = []
        self.reset()
        self.begin_op()

    def reset(self) -> None:
        """Forget per-call durations and tree-constant cache counts."""
        self.per_call: dict[str, list[float]] = defaultdict(list)
        self.cache_hits = self.cache_misses = 0

    def begin_op(self) -> None:
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    def end_op(self) -> dict:
        return {"incl": dict(self.incl), "self": dict(self.self_time), "calls": dict(self.calls)}

    def call(self, name: str, fn, args, kwargs):
        stack = self.stack
        outer = stack[-1] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            if outer is not None:
                outer[1] += elapsed
            self.calls[name] += 1
            self.self_time[name] += elapsed - frame[1]
            if outer is None or outer[0] != name:
                self.incl[name] += elapsed
            if name in PER_CALL:
                self.per_call[name].append(elapsed)

    # -- installing

    def _replace(self, owner, attr: str, new) -> None:
        self.installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, name) -> None:
        """name is a span name, or a function of (args, kwargs) giving one."""
        original = getattr(owner, attr)
        pick = name if callable(name) else (lambda _a, _k: name)

        def wrapper(*args, **kwargs):
            return self.call(pick(args, kwargs), original, args, kwargs)

        self._replace(owner, attr, wrapper)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Time each step of a generator; count the items it yields."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            it = original(*args, **kwargs)
            while True:
                try:
                    item = tracer.call(name, next, (it,), {})
                except StopIteration:
                    return
                tracer.calls[name + ".items"] += 1
                yield item

        self._replace(owner, attr, wrapper)

    def wrap_cached_property(self, cls, attr: str, name: str, count_true: str | None = None) -> None:
        prop = cls.__dict__[attr]
        original = prop.func

        def func(instance):
            value = self.call(name, original, (instance,), {})
            if count_true is not None and value:
                self.calls[count_true] += 1
            return value

        self._replace(prop, "func", func)

    def install(self, mods) -> None:
        cli, graphs, balance, ratmat = mods.cli, mods.graphs, mods.balance, mods.ratmat
        self._lru = balance.tree_constants_symbolic
        self._cache_before = self._lru.cache_info()
        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "parse_network", "network.parse")
        self.wrap_generator(cli, "enumerate_admissible_partitions", "partitions.enumerate")
        self.wrap(cli, "graph_from_partition", "graphs.build")
        for attr in ("components", "strong_components", "deficiency"):
            self.wrap_cached_property(graphs.ReactionGraph, attr, "graphs.classify")
        self.wrap_cached_property(graphs.ReactionGraph, "is_weakly_reversible",
                                  "graphs.classify", count_true="graphs.weakly_reversible")
        self.wrap(cli, "emit", "reporting.emit")

        expand = lambda a, k: (  # noqa: E731
            "balance.conditions_expand" if k.get("expand", a[1] if len(a) > 1 else False)
            else "balance.conditions"
        )
        self.wrap(balance, "balance_conditions", expand)
        self.wrap(balance, "tree_constants_eval", "balance.tree_eval")
        self.wrap(balance, "tree_constants_symbolic", "balance.tree_symbolic")
        self.wrap(balance, "check_kappa_balanced", "balance.check")
        self.wrap(ratmat, "nullspace", "ratmat.nullspace")
        self.wrap(ratmat, "det", "ratmat.det")
        self.wrap(ratmat, "rank", "ratmat.rank")
        self.wrap(mods.kpoly.KPoly, "__mul__", "kpoly.mul")
        self.wrap(mods.lifting, "lift_network", "lifting.lift")
        self.wrap(mods.lifting, "verify_lift", "lifting.verify")
        self.wrap(mods.subnetworks, "decomposition_check", "subnetworks.decompose")

        dynamics = mods.dynamics
        self.wrap(dynamics, "birch_point", "dynamics.birch")
        self.wrap(dynamics, "solve_positive_steady_state", "balance.solve_steady_state")
        self.wrap(dynamics, "stability_report", "dynamics.stability")
        self.wrap(dynamics, "simulate",
                  lambda a, k: "dynamics.adaptive" if k.get("adaptive") else "dynamics.fixed")

    def uninstall(self) -> None:
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)
        after = self._lru.cache_info()
        self.cache_hits += after.hits - self._cache_before.hits
        self.cache_misses += after.misses - self._cache_before.misses
