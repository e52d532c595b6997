"""Spans and the per-layer measurements of a traced run.

The spans are recorded here, around calls into each couplex layer; the
program itself is not instrumented.  A layer's own cost is the time of its
entry point minus the time of the layer below on the same inputs:
``monotone.rate_fill_ms`` (cold minus warm verdict), and the ``_self``
metrics of ``coupling`` and ``exact``.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction as F

import couplex
from couplex import coupling, exact, models, monotone, simulate

import checks
from workloads import (
    REGIME_T_END, SIM_MODEL, SINGLE_RUNS, SOLVE_SECTORS,
    _config, _monotone_traffic2, _ordered_above, _sim_spec,
)


class Tracer:
    """Spans kept in memory: name, start, end, parent and attributes."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: str, **header):
        with open(path, "w") as fh:
            json.dump(dict(header, spans=self.spans), fh)


def seconds(rec) -> float:
    return rec["end"] - rec["start"]


def pattern_pairs(spec) -> int:
    """Ordered pattern pairs one verdict (extra = 0) enumerates: every site
    of the arrival and departure windows takes (0,0), (0,1) or (1,1),
    except the pinned centre."""
    w = {d: spec.dep_radius + abs(d) for d in spec.jump_offsets}
    lo = min(min(-d - w[d] for d in w), 0)
    hi = max(max(-d + w[d] for d in w), 0)
    return 3 ** (hi - lo) + 3 ** (2 * max(w.values()))


def measure(seed: int, tracer: Tracer) -> dict:
    """Every per-layer metric, as name -> (value, unit)."""
    rng = random.Random("layers:%d" % seed)
    out = {}

    with tracer.span("layers.models"):
        for arithmetic, spec, size in (
            ("float", couplex.traffic2(*SIM_MODEL), 64),
            ("exact", couplex.traffic2(*_monotone_traffic2(rng)), 6),
        ):
            configs = [_config(rng, size, size // 2) for _ in range(1280 // size)]
            calls = [(eta, x, (x + d) % size) for eta in configs
                     for x in range(size) for d in spec.jump_offsets]
            for eta, x, y in calls:  # warm the rate tables
                models.rate(spec, eta, x, y)
            reps = 20
            with tracer.span("models.rate", arithmetic=arithmetic,
                             calls=reps * len(calls)) as rec:
                for _ in range(reps):
                    for eta, x, y in calls:
                        models.rate(spec, eta, x, y)
            out["models.rate_ns." + arithmetic] = (
                seconds(rec) / (reps * len(calls)) * 1e9, "ns")

    with tracer.span("layers.monotone"):
        grid = [F(k, 2) for k in range(5)]
        cold, warm, fill = [], [], []
        for _ in range(16):
            spec = couplex.gg_symmetrized(*(rng.choice(grid) for _ in range(4)))
            with tracer.span("monotone.is_monotone", cache="cold") as c:
                monotone.is_monotone(spec)
            with tracer.span("monotone.is_monotone", cache="warm") as w:
                monotone.is_monotone(spec)
            cold.append(seconds(c))
            warm.append(seconds(w))
            fill.append(seconds(c) - seconds(w))
        out["monotone.verdict_ms.cold"] = (statistics.median(cold) * 1e3, "ms")
        out["monotone.verdict_ms.warm"] = (statistics.median(warm) * 1e3, "ms")
        out["monotone.rate_fill_ms"] = (statistics.median(fill) * 1e3, "ms")
        out["monotone.patterns"] = (pattern_pairs(spec), "count")

    size = 5
    pairs = [(a, b) for a in _all_configs(size) for b in _all_configs(size)]
    params = _monotone_traffic2(rng)
    # the entry points whose differences give the _self metrics run in
    # turn, three times over, so a slow stretch of the host hits all alike
    per_pair = {}
    with tracer.span("layers.coupling", pairs=len(pairs)):
        for _ in range(3):
            for kind in couplex.KINDS:
                spec = couplex.traffic2(*params)
                with tracer.span("coupling.coupling_table", kind=kind) as rec:
                    for xi, zeta in pairs:
                        coupling.coupling_table(spec, xi, zeta, kind)
                per_pair.setdefault("coupling.table_us." + kind, []).append(seconds(rec))
            spec = couplex.traffic2(*params)
            with tracer.span("coupling.coupled_transitions", kind="attractive") as rec:
                for xi, zeta in pairs:
                    coupling.coupled_transitions(spec, xi, zeta, "attractive")
            per_pair.setdefault("coupling.transitions_us", []).append(seconds(rec))
            with tracer.span("exact.coupled_generator", kind="attractive") as rec:
                exact.coupled_generator(couplex.traffic2(*params), size, "attractive")
            per_pair.setdefault("exact.generator_us_per_pair", []).append(seconds(rec))
    for name, times in per_pair.items():
        out[name] = (statistics.median(times) / len(pairs) * 1e6, "us")
    out["coupling.transitions_self_us"] = (
        out["coupling.transitions_us"][0] - out["coupling.table_us.attractive"][0], "us")
    out["exact.generator_self_us_per_pair"] = (
        out["exact.generator_us_per_pair"][0] - out["coupling.transitions_us"][0], "us")

    with tracer.span("layers.exact", pairs=len(pairs)):
        for name, call, count in (
            ("order", lambda s: exact.audit_order_preservation(s, size, "increasing"),
             checks.ordered_pair_count(size)),
            ("discrepancy", lambda s: exact.audit_discrepancy_monotone(s, size, "attractive"),
             len(pairs)),
            ("marginal", lambda s: exact.marginal_errors(s, size, "strict"), len(pairs)),
        ):
            spec = couplex.traffic2(*params)
            with tracer.span("exact.audit", audit=name, pairs=count) as rec:
                call(spec)
            out["exact.audit_us_per_pair." + name] = (seconds(rec) / count * 1e6, "us")
        with tracer.span("exact.discrepancy_extinction", kind="strict") as rec:
            exact.discrepancy_extinction(couplex.traffic2(*params), size, "strict")
        out["exact.extinction_s"] = (seconds(rec), "s")
        out["exact.pairs"] = (len(pairs), "count")

        build = 0.0
        states = 0
        for L, n in SOLVE_SECTORS:
            spec = couplex.traffic2(*params)
            with tracer.span("exact.single_generator", size=L, count=n) as rec:
                gen = exact.single_generator(spec, L, n)
            build += seconds(rec)
            with tracer.span("exact.stationary_distributions", states=gen.dimension) as rec:
                exact.stationary_distributions(gen)
            out["exact.solve_s.%d" % math.comb(L, n)] = (seconds(rec), "s")
            states += gen.dimension
        out["exact.single_generator_ms"] = (build / len(SOLVE_SECTORS) * 1e3, "ms")
        out["exact.states"] = (states, "count")

    with tracer.span("layers.simulate"):
        for L, t_end in SINGLE_RUNS:
            start = _config(rng, L, L // 2)
            with tracer.span("simulate.simulate_single", size=L) as rec:
                traj = simulate.simulate_single(_sim_spec(), start, t_end, seed=seed)
            rec["attrs"]["events"] = traj.total_events
            out["simulate.us_per_event.single.L%d" % L] = (
                seconds(rec) / traj.total_events * 1e6, "us")
            out["simulate.events.single.L%d" % L] = (traj.total_events, "count")
        eta = _config(rng, 128, 64)
        lower = _config(rng, 32, 12)
        regimes = (
            ("lockstep", eta, eta, "attractive"),
            ("ordered", lower, _ordered_above(rng, lower, 6), "increasing"),
            ("composed", _config(rng, 64, 32), _config(rng, 64, 32), "attractive"),
        )
        for regime, first, second, kind in regimes:
            with tracer.span("simulate.simulate_coupled", regime=regime, kind=kind) as rec:
                traj = simulate.simulate_coupled(
                    _sim_spec(), first, second, kind, REGIME_T_END[regime], seed=seed)
            rec["attrs"]["events"] = traj.total_events
            rec["attrs"]["final_ordered"] = traj.final.ordered
            out["simulate.us_per_event." + regime] = (
                seconds(rec) / traj.total_events * 1e6, "us")
            out["simulate.events." + regime] = (traj.total_events, "count")
    return out


def _all_configs(size: int):
    return [tuple((m >> k) & 1 for k in range(size)) for m in range(1 << size)]
