"""Event-driven (Gillespie) simulation of single and coupled chains.

Waiting times and event choices come from a counter-based RNG
(``numpy.random.Philox``) keyed by ``(seed, replica)``, so every replica is
an independent, exactly reproducible stream: rerunning with the same key
gives a bit-identical event sequence.

The single-chain engine caches each site's active jumps and refreshes only
the neighbourhood of the sites touched by an event.  The coupled engine is
two single-chain engines, one per copy, plus the coupled map of the pair;
each copy's marginal jumps come from its own engine's cache, and each copy's
jump refreshes only that engine.  It keeps two regimes: identical copies move
in lockstep, on the events of the first copy; every other pair composes
coupling factors through the join configuration, as
:func:`couplex.coupling.coupling_table` does, memoising the composition per
local occupancy pattern, which keeps long runs on large rings affordable.
Ordered pairs need no path of their own: their join is the upper copy, and
the composition gives back the ordered table.  Under ``increasing`` an
unordered pair has no coupled moves, so each copy moves alone.

One Gillespie loop runs both engines.  Sampling records the state at fixed
grid times (the state just before each grid time, i.e. the left limit); a
horizon or a sampling step that is not positive raises ValueError.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Optional

import numpy as np

from .lattice import CoupledState, is_active, is_ordered, signed_offset
from .models import RateSpec, active_jumps, rate
from .coupling import _join_contributions, residual_rates


@dataclass
class Trajectory:
    """Sampled states of one run plus bookkeeping for reproducibility."""

    times: list
    snapshots: list
    seed: tuple
    total_events: int
    absorbed: bool
    final: object
    #: coupled runs only: discrepancy count after every event
    discrepancy_curve: Optional[list] = None


def _rng(seed: int, replica: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, replica]))


def random_configuration(size: int, count: int, rng: np.random.Generator):
    """Uniform configuration with exactly `count` particles."""
    if not 0 <= count <= size:
        raise ValueError("count must lie in [0, %d]" % size)
    sites = rng.choice(size, size=count, replace=False)
    eta = [0] * size
    for s in sites:
        eta[int(s)] = 1
    return tuple(eta)


def discrepancy_pair(size: int, count: int, rng: np.random.Generator) -> CoupledState:
    """A pair with `count` particles each, agreeing everywhere except one
    particle placed at different sites — two opposite discrepancies."""
    if count < 1 or count > size - 1:
        raise ValueError("count must lie in [1, %d]" % (size - 1))
    sites = rng.choice(size, size=count + 1, replace=False)
    background = [0] * size
    for s in sites[: count - 1]:
        background[int(s)] = 1
    xi = list(background)
    zeta = list(background)
    xi[int(sites[count - 1])] = 1
    zeta[int(sites[count])] = 1
    return CoupledState(tuple(xi), tuple(zeta))


# ---------------------------------------------------------------------------
# Single chain


class _SingleEngine:
    """Mutable configuration with cached active-jump events ``(rate, x, d)``
    per site; a jump refreshes only the sites within reach of its two ends."""

    def __init__(self, spec: RateSpec, eta):
        self.spec = spec
        self.eta = list(eta)
        self.size = len(eta)
        self.reach = spec.dep_radius + spec.max_offset
        self.jumps = [self._site_jumps(x) for x in range(self.size)]

    def _site_jumps(self, x: int):
        return [(float(r), x, d) for x, d, r in active_jumps(self.spec, self.eta, (x,))]

    def apply(self, x: int, d: int):
        y = (x + d) % self.size
        eta = self.eta
        eta[x], eta[y] = eta[y], eta[x]
        for s in (x, y):
            for k in range(-self.reach, self.reach + 1):
                z = (s + k) % self.size
                self.jumps[z] = self._site_jumps(z)

    def events(self):
        return list(chain.from_iterable(self.jumps))

    def state(self):
        return tuple(self.eta)


def _advance(events, rng: np.random.Generator):
    """One Gillespie step: (waiting time, chosen event) or None if stuck."""
    if not events:
        return None
    cum = list(accumulate(r for r, *_ in events))
    total = cum[-1]
    if total <= 0.0:
        return None
    dt = rng.exponential(1.0 / total)
    pick = bisect.bisect_right(cum, rng.random() * total)
    return dt, events[min(pick, len(events) - 1)]


def _sample_grid(t_end: float, sample_dt: Optional[float]):
    if not t_end > 0:
        raise ValueError("t_end must be positive, got %r" % (t_end,))
    if sample_dt is None:
        return [t_end]
    if not sample_dt > 0:
        raise ValueError("sample_dt must be positive, got %r" % (sample_dt,))
    n = int(np.floor(t_end / sample_dt + 1e-9))
    return [k * sample_dt for k in range(1, n + 1)]


def _run(engine, rng: np.random.Generator, t_end: float, sample_dt: Optional[float], after_event):
    """Run an engine's Gillespie chain up to t_end.

    An engine lists its events as ``(rate, *move)`` and performs one with
    ``apply(*move)``; ``after_event(n)`` runs after the n-th event.  Returns
    ``(times, snapshots, events, absorbed)``.  An engine that refuses the
    state it reached raises ValueError naming the time.
    """
    grid = _sample_grid(t_end, sample_dt)
    times, snapshots = [], []
    t = 0.0
    events = 0
    absorbed = False
    next_idx = 0
    while True:
        try:
            step = _advance(engine.events(), rng)
        except ValueError as err:
            raise ValueError("%s at time %r" % (err, t)) from err
        t_next = t + step[0] if step else float("inf")
        while next_idx < len(grid) and grid[next_idx] <= min(t_next, t_end):
            times.append(grid[next_idx])
            snapshots.append(engine.state())
            next_idx += 1
        if step is None:
            absorbed = True
            break
        if t_next > t_end:
            break
        t = t_next
        engine.apply(*step[1][1:])
        events += 1
        after_event(events)
    return times, snapshots, events, absorbed


def simulate_single(
    spec: RateSpec,
    init,
    t_end: float,
    sample_dt: Optional[float] = None,
    seed: int = 0,
    replica: int = 0,
) -> Trajectory:
    """Simulate one copy up to t_end, sampling every sample_dt (at t_end
    only when sample_dt is None).  A horizon or step that is not positive
    raises ValueError."""
    engine = _SingleEngine(spec, init)
    times, snapshots, events, absorbed = _run(
        engine, _rng(seed, replica), t_end, sample_dt, lambda n: None
    )
    return Trajectory(times, snapshots, (seed, replica), events, absorbed, engine.state())


# ---------------------------------------------------------------------------
# Coupled chain


class _MiddleCache:
    """Composed coupling contributions per local pair pattern.

    For a join-active jump of displacement d, every coupling factor reads
    only sites within dep_radius + 3*max_offset of the departure site, so the
    composition through that jump is a pure function of the local pair
    pattern.  Entries are stored with site offsets relative to the departure.
    """

    def __init__(self, spec: RateSpec, flavor: str):
        self.spec = spec
        self.flavor = flavor
        self.reach = spec.dep_radius + 3 * spec.max_offset
        self.cache = {}

    def contributions(self, key):
        hit = self.cache.get(key)
        if hit is None:
            hit = self.cache[key] = self._compose(key)
        return hit

    def _compose(self, key):
        d0, pattern = key
        c = self.reach
        vxi = tuple(p >> 1 for p in pattern)
        vzeta = tuple(p & 1 for p in pattern)
        vmid = tuple(a | b for a, b in zip(vxi, vzeta))
        x, y = c, c + d0
        norm = rate(self.spec, vmid, x, y)
        if norm <= 0:
            return ()
        return tuple(
            (x1 - c, y1 - c, x2 - c, y2 - c, float(g))
            for (x1, y1, x2, y2), g in _join_contributions(
                self.spec, vxi, vzeta, vmid, x, y, norm, self.flavor
            )
        )


_FLAVOR = {"increasing": "overlap", "attractive": "overlap", "strict": "proportional"}


class _CoupledEngine:
    """The coupled chain as two single-chain engines, one per copy, plus the
    coupled map of the pair.

    Each event is ``(rate, first_jump | None, second_jump | None)`` with a
    jump written ``(x, d)``; each copy's jump goes to its own engine.
    """

    def __init__(self, spec: RateSpec, pair: CoupledState, kind: str):
        if kind not in _FLAVOR:
            raise ValueError("unknown coupling kind %r" % (kind,))
        self.spec = spec
        self.kind = kind
        self.first = _SingleEngine(spec, pair.first)
        self.second = _SingleEngine(spec, pair.second)
        self.size = len(pair.first)
        self.cache = _MiddleCache(spec, _FLAVOR[kind])

    def state(self) -> CoupledState:
        return CoupledState(self.first.state(), self.second.state())

    def discrepancies(self) -> int:
        return sum(a != b for a, b in zip(self.first.eta, self.second.eta))

    def events(self):
        if self.first.eta == self.second.eta:
            return [(r, (x, d), (x, d)) for r, x, d in self.first.events()]
        return self._composed_events()

    def _coupled_map(self):
        """Composed coupled rates of the current pair, keyed (x1, y1, x2, y2)."""
        spec, size = self.spec, self.size
        xi, zeta = self.first.eta, self.second.eta
        if self.kind == "increasing" and not is_ordered(xi, zeta):
            return {}  # the increasing coupling leaves an unordered pair uncoupled
        reach = self.cache.reach
        coupled = {}
        for x in range(size):
            if not (xi[x] or zeta[x]):
                continue
            window = tuple(
                (xi[(x + k) % size] << 1) | zeta[(x + k) % size]
                for k in range(-reach, reach + 1)
            )
            for d in spec.jump_offsets:
                yk = reach + d
                if window[yk] != 0:
                    continue  # join-occupied target
                for dx1, dy1, dx2, dy2, g in self.cache.contributions((d, window)):
                    key = (
                        (x + dx1) % size,
                        (x + dy1) % size,
                        (x + dx2) % size,
                        (x + dy2) % size,
                    )
                    coupled[key] = coupled.get(key, 0.0) + g
        return coupled

    def _composed_events(self):
        size = self.size
        xi, zeta = self.first.eta, self.second.eta
        coupled = self._coupled_map()
        out = [
            (g, (x1, signed_offset(x1, y1, size)), (x2, signed_offset(x2, y2, size)))
            for (x1, y1, x2, y2), g in coupled.items()
            if g > 0 and is_active(xi, x1, y1) and is_active(zeta, x2, y2)
        ]
        marginals = [
            [(x, (x + d) % size, r) for r, x, d in engine.events()]
            for engine in (self.first, self.second)
        ]
        first, second = residual_rates(self.spec, xi, zeta, coupled, marginals, exact=False)
        out += [(r, (x, signed_offset(x, y, size)), None) for x, y, r in first if r > 0]
        out += [(r, None, (x, signed_offset(x, y, size))) for x, y, r in second if r > 0]
        return out

    def apply(self, first, second):
        if first is not None:
            self.first.apply(*first)
        if second is not None:
            self.second.apply(*second)


def simulate_coupled(
    spec: RateSpec,
    first,
    second,
    kind: str,
    t_end: float,
    sample_dt: Optional[float] = None,
    seed: int = 0,
    replica: int = 0,
) -> Trajectory:
    """Simulate the coupled pair chain up to t_end, sampling as
    :func:`simulate_single` does.

    Every event is checked on the fly: under the attractive and strict
    couplings the discrepancy count must never grow, and under the
    increasing coupling an ordered start must stay ordered; a breach raises
    AssertionError.  A pair the coupling cannot serve raises ValueError
    naming the pair and the time at which the run reached it.
    """
    engine = _CoupledEngine(spec, CoupledState(tuple(first), tuple(second)), kind)
    started_ordered = is_ordered(engine.first.eta, engine.second.eta)
    curve = [engine.discrepancies()]

    def after_event(events):
        before, now = curve[-1], engine.discrepancies()
        curve.append(now)
        if kind in ("attractive", "strict") and now > before:
            raise AssertionError(
                "discrepancy count grew from %d to %d at event %d" % (before, now, events)
            )
        if kind == "increasing" and started_ordered:
            if not is_ordered(engine.first.eta, engine.second.eta):
                raise AssertionError("order broken at event %d" % events)

    times, snapshots, events, absorbed = _run(
        engine, _rng(seed, replica), t_end, sample_dt, after_event
    )
    return Trajectory(
        times,
        snapshots,
        (seed, replica),
        events,
        absorbed,
        engine.state(),
        discrepancy_curve=curve,
    )


OBSERVABLES = ("density_profile", "discrepancy_curve", "order_time")


def observable_report(traj: Trajectory, which: str):
    """Tabulate one observable of a trajectory as CSV-ready rows.

    The first row is the header.  density_profile averages each site's
    occupation over the recorded samples (first copy for a coupled run);
    discrepancy_curve lists the per-event discrepancy counts of a coupled
    run; order_time is the first sample time at which the two copies were
    comparable, or inf if they never were.
    """
    if which not in OBSERVABLES:
        raise ValueError("unknown observable %r; expected one of %s" % (which, ", ".join(OBSERVABLES)))
    if which == "discrepancy_curve":
        if traj.discrepancy_curve is None:
            raise ValueError("discrepancy_curve was not recorded on this trajectory")
        rows = [("event", "discrepancies")]
        rows.extend((k, n) for k, n in enumerate(traj.discrepancy_curve))
        return rows
    if not traj.snapshots:
        raise ValueError("trajectory has no recorded samples")
    coupled = isinstance(traj.snapshots[0], CoupledState)
    if which == "order_time":
        if not coupled:
            raise ValueError("order_time needs a coupled trajectory")
        when = float("inf")
        for t, snap in zip(traj.times, traj.snapshots):
            if snap.ordered:
                when = t
                break
        return [("order_time",), (when,)]
    profiles = [s.first for s in traj.snapshots] if coupled else traj.snapshots
    size = len(profiles[0])
    rows = [("site", "density")]
    for x in range(size):
        rows.append((x, sum(p[x] for p in profiles) / len(profiles)))
    return rows
