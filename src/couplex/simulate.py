"""Event-driven (Gillespie) simulation of single and coupled chains.

Waiting times and event choices come from a counter-based RNG
(``numpy.random.Philox``) keyed by ``(seed, replica)``, so every replica is
an independent, exactly reproducible stream: rerunning with the same key
gives a bit-identical event sequence.

The single-chain engine caches each site's active jumps and the float total
of their rates.  Both depend only on the occupancy of the
``dep_radius + max_offset`` sites on either side of the site, so they are
read from a memo on the spec keyed by that pattern (``spec._site_events``,
shared by all runs of the spec and by the exact single chain), and filled
on a miss by :func:`couplex.models._fill_site_events`.  A jump x -> x+d
refreshes each site within ``dep_radius + max_offset`` of x or x+d once,
taking its list and total from the memo, so the totals never drift.  A
draw bisects the running sums of the site totals to pick a site, then walks
that site's short list; so the work per event grows with the reach of a
jump, not with the ring (only the running sums, one C-level pass, are over
the whole ring).

The coupled engine is two single-chain engines, one per copy, plus the
coupled map of the pair; each copy's marginal jumps come from its own
engine's cache, and each copy's jump refreshes only that engine.  It keeps
two regimes: once the copies are identical they stay so for good, and share
one engine that moves both in lockstep; every other pair composes coupling
factors through the join configuration as
:func:`couplex.coupling.coupling_table` does, in floats.  The composed
entries through the join jumps out of each site
(:func:`couplex.coupling._site_entries`, memoised on the spec per offset and
the pair pattern of the sites they read, so all runs of one spec share it)
are cached per site.  The entries of site z read the sites ``spec._span``
around z, so an event refreshes a site z only when a site it moved lies in
that span: 6 sites per moved site for traffic2.  The coupled map is then
added up from the per-site lists in site order, as the ring walk adds it,
and the discrepancy count and the "ordered" flag are updated from the moved
sites alone.  Ordered pairs need no path of their own: their join is the
upper copy.  Under ``increasing`` an unordered pair has no coupled moves,
so each copy moves alone.

One Gillespie loop runs both engines.  Sampling records the state at fixed
grid times (the state just before each grid time, i.e. the left limit); a
horizon or a sampling step that is not positive and finite, or a step that
leaves no grid time up to the horizon, raises ValueError.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .lattice import CoupledState, discrepancy_count, signed_offset
from .models import RateSpec, _check_ring, _fill_site_events
from .coupling import _flavor, _site_entries, _sum_entries, _uncoupled, residual_rates


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
    """Mutable configuration with cached active-jump events ``(rate, d)``
    per site and the float total of each site's rates; a jump refreshes
    each site within reach of its two ends once.

    The events and total of an occupied site depend only on the occupancy
    of the ``reach`` sites on either side of it, so they come from a memo
    on the spec (``spec._site_events``) keyed by that pattern, filled by
    :func:`couplex.models._fill_site_events` on a miss.
    """

    def __init__(self, spec: RateSpec, eta):
        self.size = len(eta)
        _check_ring(spec, self.size)  # the memo reads patterns, never the ring
        self.spec = spec
        self.eta = list(eta)
        self.reach = spec.dep_radius + spec.max_offset
        self.jumps = [()] * self.size
        self.totals = [0.0] * self.size
        self._refresh(0, self.size)

    def _refresh(self, first: int, count: int):
        """Refresh the ``count`` sites of the arc that starts at site ``first``."""
        size, reach, eta = self.size, self.reach, self.eta
        lo, hi = first - reach, first + count + reach
        # the arc with reach sites on either side: the patterns of its sites
        arc = eta[lo:hi] if 0 <= lo and hi <= size else [eta[z % size] for z in range(lo, hi)]
        memo = self.spec._site_events
        jumps, totals = self.jumps, self.totals
        width = 2 * reach + 1
        for k in range(count):
            x = (first + k) % size
            if not arc[k + reach]:
                jumps[x] = ()
                totals[x] = 0.0
                continue
            key = tuple(arc[k : k + width])
            jumps[x], totals[x] = memo.get(key) or _fill_site_events(self.spec, key)

    def apply(self, x: int, d: int):
        size = self.size
        y = (x + d) % size
        eta = self.eta
        eta[x], eta[y] = eta[y], eta[x]
        # the sites within reach of x or of y form one arc of the ring
        self._refresh(min(x, x + d) - self.reach, min(abs(d) + 2 * self.reach + 1, size))

    def events(self):
        """Every active jump ``(rate, x, d)``, in site then offset order."""
        return [(r, x, d) for x, events in enumerate(self.jumps) for r, d in events]

    def draw(self, rng: np.random.Generator):
        step = _advance(self.totals, self.jumps, rng)
        if step is None:
            return None
        dt, x, (r, d) = step
        return dt, (r, x, d)

    def state(self):
        return tuple(self.eta)


def _advance(totals, groups, rng: np.random.Generator):
    """One Gillespie step: (waiting time, group index, chosen event), or
    None if stuck.

    ``groups[i]`` lists events ``(rate, ...)`` whose rates add up to
    ``totals[i]``.  The waiting time is drawn first; then one uniform picks
    a group by bisection over the running totals and an event by a walk
    along that group.
    """
    cum = list(accumulate(totals))
    if not cum or cum[-1] <= 0.0:
        return None
    total = cum[-1]
    dt = rng.exponential(1.0 / total)
    u = rng.random() * total
    i = min(bisect.bisect_right(cum, u), len(cum) - 1)
    while not groups[i]:  # u rounded up to the total: take the last event
        i -= 1
    acc = cum[i - 1] if i else 0.0
    events = groups[i]
    for event in events:
        acc += event[0]
        if u < acc:
            return dt, i, event
    return dt, i, events[-1]


def _sample_grid(t_end: float, sample_dt: Optional[float]):
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite, got %r" % (t_end,))
    if sample_dt is None:
        return [t_end]
    if not 0 < sample_dt < math.inf:
        raise ValueError("sample_dt must be positive and finite, got %r" % (sample_dt,))
    n = int(np.floor(t_end / sample_dt + 1e-9))
    if n < 1:
        raise ValueError("sample_dt %r leaves no sample time up to t_end %r" % (sample_dt, t_end))
    return [k * sample_dt for k in range(1, n + 1)]


def _run(engine, rng: np.random.Generator, t_end: float, sample_dt: Optional[float], after_event):
    """Run an engine's Gillespie chain up to t_end.

    An engine draws its next event ``(rate, *move)`` with ``draw(rng)`` (see
    :func:`_advance`) and performs it with ``apply(*move)``;
    ``after_event(n)`` runs after the n-th event.  Returns
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
            step = engine.draw(rng)
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
    and finite, or a step longer than the horizon, raises ValueError."""
    engine = _SingleEngine(spec, init)
    times, snapshots, events, absorbed = _run(
        engine, _rng(seed, replica), t_end, sample_dt, lambda n: None
    )
    return Trajectory(times, snapshots, (seed, replica), events, absorbed, engine.state())


# ---------------------------------------------------------------------------
# Coupled chain


class _CoupledEngine:
    """The coupled chain as two single-chain engines, one per copy, plus the
    coupled map of the pair.

    Each event is ``(rate, first_jump | None, second_jump | None)`` with a
    jump written ``(x, d)``; each copy's jump goes to its own engine.  Once
    the copies are identical, ``second`` is ``first``: one engine serves both.
    Before that, the composed entries through each site are kept per site
    and refreshed near the sites an event moves, and so are the counts of
    sites where the first copy lies above or below the second.
    """

    def __init__(self, spec: RateSpec, pair: CoupledState, kind: str):
        self.flavor = _flavor(kind)
        self.spec = spec
        self.kind = kind
        self.first = _SingleEngine(spec, pair.first)
        self.second = self.first if pair.first == pair.second else _SingleEngine(spec, pair.second)
        self.size = len(pair.first)
        #: a move at site s changes the entries through the sites s + k
        lo, hi = spec._span
        self._near = range(-hi, -lo + 1)
        #: per-site composed entries in floats, built when first needed
        self._sites = None
        discrepancies = discrepancy_count(pair.first, pair.second)  # refuses unequal sizes
        #: sites occupied in the first copy only, and in the second copy only
        self._above = sum(a > b for a, b in zip(pair.first, pair.second))
        self._below = discrepancies - self._above

    def state(self) -> CoupledState:
        return CoupledState(self.first.state(), self.second.state())

    def discrepancies(self) -> int:
        return self._above + self._below

    @property
    def ordered(self) -> bool:
        return not (self._above and self._below)

    def draw(self, rng: np.random.Generator):
        if self.first is self.second:
            step = self.first.draw(rng)
            if step is None:
                return None
            dt, (r, x, d) = step
            return dt, (r, (x, d), (x, d))
        events = self.events()  # rebuilt per event: each is a group of its own
        step = _advance([e[0] for e in events], [(e,) for e in events], rng)
        return None if step is None else (step[0], step[2])

    def events(self):
        if self.first is self.second:
            return [(r, (x, d), (x, d)) for r, x, d in self.first.events()]
        size = self.size
        xi, zeta = self.first.eta, self.second.eta
        if _uncoupled(self.kind, self.ordered):
            coupled = {}
        else:
            if self._sites is None:
                self._sites = [
                    _site_entries(self.spec, xi, zeta, x, self.flavor, floats=True)
                    for x in range(size)
                ]
            coupled = _sum_entries(self._sites)
        out = [
            (g, (x1, signed_offset(x1, y1, size)), (x2, signed_offset(x2, y2, size)))
            for (x1, y1, x2, y2), g in coupled.items()
            if g > 0
        ]
        marginals = [
            [(x, (x + d) % size, r) for x, events in enumerate(engine.jumps) for r, d in events]
            for engine in (self.first, self.second)
        ]
        first, second = residual_rates(xi, zeta, coupled, marginals)
        out += [(r, (x, signed_offset(x, y, size)), None) for x, y, r in first if r > 0]
        out += [(r, None, (x, signed_offset(x, y, size))) for x, y, r in second if r > 0]
        return out

    def _tally(self, sites, sign: int):
        xi, zeta = self.first.eta, self.second.eta
        for s in sites:
            if xi[s] > zeta[s]:
                self._above += sign
            elif xi[s] < zeta[s]:
                self._below += sign

    def apply(self, first, second):
        if self.first is self.second:
            self.first.apply(*first)  # a lockstep event moves the shared engine once
            return
        size = self.size
        moved = set()
        for jump in (first, second):
            if jump is not None:
                moved.update((jump[0], (jump[0] + jump[1]) % size))
        self._tally(moved, -1)
        if first is not None:
            self.first.apply(*first)
        if second is not None:
            self.second.apply(*second)
        self._tally(moved, 1)
        if not self.discrepancies():
            self.second = self.first
            self._sites = None
        elif self._sites is not None:
            xi, zeta = self.first.eta, self.second.eta
            for z in {(s + k) % size for s in moved for k in self._near}:
                self._sites[z] = _site_entries(self.spec, xi, zeta, z, self.flavor, floats=True)


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
    started_ordered = engine.ordered
    curve = [engine.discrepancies()]

    def after_event(events):
        before, now = curve[-1], engine.discrepancies()
        curve.append(now)
        if kind in ("attractive", "strict") and now > before:
            raise AssertionError(
                "discrepancy count grew from %d to %d at event %d" % (before, now, events)
            )
        if kind == "increasing" and started_ordered and not engine.ordered:
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
