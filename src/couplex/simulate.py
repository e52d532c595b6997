"""Event-driven (Gillespie) simulation of single and coupled chains.

Waiting times and event choices come from a counter-based RNG
(``numpy.random.Philox``) keyed by ``(seed, replica)``, so every replica is
an independent, exactly reproducible stream: rerunning with the same key
gives a bit-identical event sequence.

The single-chain engine caches each site's active jumps and the float total
of their rates.  Both depend only on the occupancy of the site's departure
window, the ``spec._reach`` sites on either side of it
(:class:`couplex.models.RateSpec`), so they are read from a memo on the
spec keyed by that pattern (``spec._site_events``, shared by all runs of
the spec and by the exact single chain), and filled on a miss by
:func:`couplex.models._fill_site_events`.  A jump x -> x+d refreshes each
site within ``spec._reach`` of x or x+d once, taking its list and total
from the memo, so the totals never drift.  A draw bisects the running sums of the site totals to pick a site, then walks
that site's short list.  On a ring of more than ``_FLAT`` sites the running
sums have two levels: an engine keeps the sum of each block of ``_BLOCK``
consecutive totals, adding up again only the blocks a jump touched, and a
draw bisects the running block sums, then the running totals of one block.
So the work per event grows with the reach of a jump, not with the ring.

The coupled engine is two single-chain engines, one per copy, plus the
coupled map of the pair; each copy's marginal jumps come from its own
engine's cache, and each copy's jump refreshes only that engine.  It keeps
two regimes: once the copies are identical they stay so for good, and share
one engine that moves both in lockstep; every other pair composes coupling
factors through the join configuration as
:func:`couplex.coupling.coupling_table` does, in floats.  Its events are
kept in 3L groups with their float totals, in the order of the flat walk of
:func:`couplex.coupling.coupling_table` and
:func:`couplex.coupling.residual_rates`: group z holds the coupled moves of
the keys that the composed entries through site z name first, group L + x
the first copy's lone moves out of x and group 2L + x the second copy's.
The composed entries through the join jumps out of each site
(:func:`couplex.coupling._site_entries`, memoised on the spec per offset and
the pair pattern of the sites they read, so all runs of one spec share it)
are cached per site.  The entries of site z read the sites ``spec._span``
around z, so an event computes them again only when a site it moved lies in
that span: 6 sites per moved site for traffic2.  Each key that a changed
site names, before or after, refills the coupled group of the site that
names it first and the lone groups of its departures.  Keys are added up in
site order and each jump's coupled mass in coupled-map order, as the flat
walk adds them, so every rate equals the flat walk's bit for bit; a key
named through two join sites (as for ``gg_symmetrized``) belongs to the
first.  A residual below ``-_RESIDUAL_TOL`` flags its group, and the next
draw raises the refusal of :func:`couplex.coupling.residual_rates`.  The
discrepancy count and the "ordered" flag are updated from the moved sites
alone.  Ordered pairs need no path of their own: their join is the upper
copy.  Under ``increasing`` an unordered pair has no coupled moves, so each
copy moves alone; when a pair changes between the two, the groups are
built again.

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

from .lattice import CoupledState, _check_occupancy, discrepancy_count, signed_offset
from .models import RateSpec, _check_ring, _fill_site_events
from .coupling import _RESIDUAL_TOL, _flavor, _site_entries, _sum_entries, _uncoupled, residual_rates


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
    :func:`couplex.models._fill_site_events` on a miss.  On a ring of more
    than ``_FLAT`` sites, ``blocks`` holds the sum of the totals of each
    block of ``_BLOCK`` sites (see :func:`_advance`).
    """

    def __init__(self, spec: RateSpec, eta):
        self.size = len(eta)
        _check_ring(spec, self.size)  # the memo reads patterns, never the ring
        _check_occupancy(eta)
        self.spec = spec
        self.eta = list(eta)
        self.reach = spec._reach
        self.jumps = [()] * self.size
        self.totals = [0.0] * self.size
        self.blocks = None
        self._refresh(0, self.size)
        self.blocks = _block_sums(self.totals, self.size)

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
        if self.blocks is not None:
            first %= size
            stop = first + count
            _resum(self.blocks, totals, range(first // _BLOCK, (min(stop, size) - 1) // _BLOCK + 1))
            if stop > size:  # the arc wraps past the seam
                _resum(self.blocks, totals, range((stop - size - 1) // _BLOCK + 1))

    def apply(self, x: int, d: int):
        """Move the particle at x by d; returns the refreshed arc
        ``(first, count)``."""
        size = self.size
        y = (x + d) % size
        eta = self.eta
        eta[x], eta[y] = eta[y], eta[x]
        # the sites within reach of x or of y form one arc of the ring
        first, count = min(x, x + d) - self.reach, min(abs(d) + 2 * self.reach + 1, size)
        self._refresh(first, count)
        return first, count

    def events(self):
        """Every active jump ``(rate, x, d)``, in site then offset order."""
        return [(r, x, d) for x, events in enumerate(self.jumps) for r, d in events]

    def draw(self, rng: np.random.Generator):
        step = _advance(self.totals, self.jumps, rng, self.blocks)
        if step is None:
            return None
        dt, x, (r, d) = step
        return dt, (r, x, d)

    def state(self):
        return tuple(self.eta)


#: groups per block of the second level of running sums in :func:`_advance`
_BLOCK = 32
#: engines keep block sums only on rings of more than this many sites: on
#: smaller rings one pass over all the totals costs less than keeping the
#: sums of the blocks an event touches up to date
_FLAT = 128


def _block_sums(totals, size: int):
    """The sum of each block of ``_BLOCK`` consecutive totals of a ring of
    ``size`` sites, or None if it has at most ``_FLAT`` sites."""
    if size <= _FLAT:
        return None
    return [sum(totals[i : i + _BLOCK]) for i in range(0, len(totals), _BLOCK)]


def _resum(blocks, totals, which):
    """Sum again the blocks numbered in ``which``."""
    for b in which:
        blocks[b] = sum(totals[b * _BLOCK : (b + 1) * _BLOCK])


def _advance(totals, groups, rng: np.random.Generator, blocks=None):
    """One Gillespie step: (waiting time, group index, chosen event), or
    None if stuck.

    ``groups[i]`` lists events ``(rate, ...)`` whose rates add up to
    ``totals[i]``.  The waiting time is drawn first; then one uniform picks
    a group by bisection over the running totals and an event by a walk
    along that group.  Given ``blocks``, the sum of each block of
    ``_BLOCK`` consecutive totals (:func:`_block_sums`), the uniform picks
    a block by bisection over the running block sums first, and the
    running totals are those of that block alone, from the sum of the
    blocks before it.
    """
    if blocks is None:
        cum = list(accumulate(totals))
        if not cum or cum[-1] <= 0.0:
            return None
        total = cum[-1]
        dt = rng.exponential(1.0 / total)
        u = rng.random() * total
        lo, base = 0, 0.0
    else:
        top = list(accumulate(blocks, initial=0.0))
        total = top[-1]
        if total <= 0.0:
            return None
        dt = rng.exponential(1.0 / total)
        u = rng.random() * total
        b = min(bisect.bisect_right(top, u), len(top) - 1) - 1
        while not blocks[b]:  # u rounded up to the total: take the last block
            b -= 1
        lo, base = b * _BLOCK, top[b]
        cum = list(accumulate(totals[lo : lo + _BLOCK], initial=base))
        del cum[0]
    i = min(bisect.bisect_right(cum, u), len(cum) - 1)
    while not groups[lo + i]:  # u rounded up to the end: take the last event
        i -= 1
    acc = cum[i - 1] if i else base
    events = groups[lo + i]
    for event in events:
        acc += event[0]
        if u < acc:
            return dt, lo + i, event
    return dt, lo + i, events[-1]


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
    Before that, the events are kept in 3L groups, each with its float
    total: group z holds the coupled moves of the keys that the composed
    entries through site z name first, group L + x the first copy's lone
    moves out of x and group 2L + x the second copy's.  In index order they
    are the flat event list (:meth:`events`).  An event refreshes only the
    groups it reaches, and so the counts of sites where the first copy lies
    above or below the second.
    """

    def __init__(self, spec: RateSpec, pair: CoupledState, kind: str):
        self.flavor = _flavor(kind)
        self.spec = spec
        self.kind = kind
        self.first = _SingleEngine(spec, pair.first)
        _check_occupancy(pair.second)  # also when it equals the first: 0.0 == 0
        self.second = self.first if pair.first == pair.second else _SingleEngine(spec, pair.second)
        self.size = len(pair.first)
        discrepancies = discrepancy_count(pair.first, pair.second)  # refuses unequal sizes
        #: sites occupied in the first copy only, and in the second copy only
        self._above = sum(a > b for a, b in zip(pair.first, pair.second))
        self._below = discrepancies - self._above
        if self.first is not self.second:
            self._rebuild()

    def state(self) -> CoupledState:
        return CoupledState(self.first.state(), self.second.state())

    def discrepancies(self) -> int:
        return self._above + self._below

    @property
    def ordered(self) -> bool:
        return not (self._above and self._below)

    def _rebuild(self):
        """Build the per-site state of an unidentical pair from empty, as
        every site moved: at the start, and when the kind starts or stops
        coupling the pair."""
        size = self.size
        #: whether the kind couples moves of the pair at all
        self._couples = not _uncoupled(self.kind, self.ordered)
        #: per site s: the sites z whose composed entries read s
        lo, hi = self.spec._span
        self._near = [tuple((s + k) % size for k in range(-hi, -lo + 1)) for s in range(size)]
        #: per site: its composed entries ``(key, g)`` in floats, and their
        #: rates added per key in entry order
        self._entries = [[] for _ in range(size)]
        self._maps = [{} for _ in range(size)]
        #: the sites whose entries name a key, in index order: the first one
        #: places the key in the coupled map
        self._sources = {}
        #: per copy and site x: the keys that name each jump x -> y, by y
        self._naming = ([{} for _ in range(size)], [{} for _ in range(size)])
        self._groups = [()] * (3 * size)
        self._totals = [0.0] * (3 * size)
        #: per copy: the jumps of each site that its lone group was filled from
        self._seen = ([()] * size, [()] * size)
        #: lone groups holding a residual below the tolerance
        self._bad = set()
        if self._couples:
            self._refresh_entries(range(size), (set(), set()))
        self._set_lone(0, range(size))
        self._set_lone(1, range(size))
        self._blocks = _block_sums(self._totals, size)

    def _name(self, key):
        """Enter a new key of the coupled map under the two jumps it names."""
        self._naming[0][key[0]].setdefault(key[1], []).append(key)
        self._naming[1][key[2]].setdefault(key[3], []).append(key)

    def _unname(self, key):
        """Take a key that leaves the coupled map out of its two jumps."""
        for named, y in ((self._naming[0][key[0]], key[1]), (self._naming[1][key[2]], key[3])):
            if len(named[y]) == 1:
                del named[y]
            else:
                named[y].remove(key)

    def _value(self, key):
        """The coupled rate of a key: its entries' rates added in site
        order, as :func:`couplex.coupling._sum_entries` adds them."""
        held = self._sources[key]
        value = self._maps[held[0]][key]
        for s in held[1:]:
            for other, g in self._entries[s]:
                if other == key:
                    value += g
        return value

    def _mass(self, keys):
        """The coupled mass of a jump named by ``keys``: their rates added in
        coupled-map order, as :func:`couplex.coupling.residual_rates` adds
        them."""
        if len(keys) == 1:
            return self._value(keys[0])
        # the coupled map lists a key where its first source lists it
        maps, sources = self._maps, self._sources
        keys = sorted(keys, key=lambda k: (sources[k][0], list(maps[sources[k][0]]).index(k)))
        mass = self._value(keys[0])
        for key in keys[1:]:
            mass += self._value(key)
        return mass

    def _set_coupled(self, sites):
        """Fill the coupled group of each site z of ``sites``: the coupled
        moves of the keys first named at z."""
        size, maps, sources = self.size, self._maps, self._sources
        for z in sites:
            events = []
            total = 0.0
            for key in maps[z]:
                if sources[key][0] != z:
                    continue
                g = self._value(key)
                if g > 0:
                    x1, y1, x2, y2 = key
                    events.append((g, (x1, signed_offset(x1, y1, size)), (x2, signed_offset(x2, y2, size))))
                    total += g
            self._groups[z] = events
            self._totals[z] = total

    def _set_lone(self, c: int, sites):
        """Fill the lone group (c + 1) L + x of each site x of ``sites``:
        copy c's jumps out of x less their coupled mass, kept and flagged as
        residual_rates keeps and refuses residuals."""
        size, groups, totals, bad = self.size, self._groups, self._totals, self._bad
        naming, seen = self._naming[c], self._seen[c]
        jumps = (self.second if c else self.first).jumps
        for x in sites:
            i = (c + 1) * size + x
            named = naming[x]
            events = []
            total = 0.0
            refused = False
            for r, d in jumps[x]:
                if named:
                    keys = named.get((x + d) % size)
                    if keys:
                        r = r - self._mass(keys)
                        refused = refused or r < -_RESIDUAL_TOL
                if r > _RESIDUAL_TOL:
                    events.append((r, None, (x, d)) if c else (r, (x, d), None))
                    total += r
            groups[i] = events
            totals[i] = total
            seen[x] = jumps[x]
            if refused:
                bad.add(i)
            else:
                bad.discard(i)

    def _refuse(self):
        """Raise the ValueError of :func:`couplex.coupling.residual_rates`
        on the flat walk of a pair with a flagged group: it names the first
        failing jump."""
        size = self.size
        marginals = [
            [(x, (x + d) % size, r) for x, events in enumerate(engine.jumps) for r, d in events]
            for engine in (self.first, self.second)
        ]
        residual_rates(self.first.eta, self.second.eta, _sum_entries(self._entries), marginals)

    def draw(self, rng: np.random.Generator):
        if self.first is self.second:
            step = self.first.draw(rng)
            if step is None:
                return None
            dt, (r, x, d) = step
            return dt, (r, (x, d), (x, d))
        if self._bad:
            self._refuse()
        step = _advance(self._totals, self._groups, rng, self._blocks)
        return None if step is None else (step[0], step[2])

    def events(self):
        if self.first is self.second:
            return [(r, (x, d), (x, d)) for r, x, d in self.first.events()]
        if self._bad:
            self._refuse()
        return [event for group in self._groups for event in group]

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
        #: per copy, the sites whose lone group to refill
        lone = (set(), set())
        for sites, seen, engine, jump in zip(lone, self._seen, (self.first, self.second), (first, second)):
            if jump is not None:
                start, count = engine.apply(*jump)
                jumps = engine.jumps
                for k in range(count):
                    x = (start + k) % size
                    # the memo hands out one tuple per pattern: a site whose
                    # jumps stay the same keeps the very tuple
                    if jumps[x] is not seen[x]:
                        sites.add(x)
        self._tally(moved, 1)
        if not self.discrepancies():
            self.second = self.first
            return
        if self._couples == _uncoupled(self.kind, self.ordered):
            self._rebuild()  # the kind couples the pair now, or no longer
            return
        groups = self._refresh_entries(moved, lone) if self._couples else ()
        for c, sites in enumerate(lone):
            self._set_lone(c, sites)
        if self._blocks is not None:
            dirty = {z // _BLOCK for z in groups}
            for c, sites in enumerate(lone):
                dirty.update(((c + 1) * size + x) // _BLOCK for x in sites)
            _resum(self._blocks, self._totals, dirty)

    def _refresh_entries(self, moved, lone) -> set:
        """Refresh the composed entries of each site whose span holds a moved
        site, skipping those that stay the same; refill the coupled groups
        of the keys a changed site names, before or after, and add their
        departures to ``lone``.  Returns the coupled groups refilled."""
        xi, zeta = self.first.eta, self.second.eta
        spec, flavor, all_entries = self.spec, self.flavor, self._entries
        maps, sources = self._maps, self._sources
        groups = set()
        for z in set().union(*(self._near[s] for s in moved)):
            entries = _site_entries(spec, xi, zeta, z, flavor, floats=True)
            if entries == all_entries[z]:
                continue
            all_entries[z] = entries
            old = maps[z]
            new = maps[z] = _sum_entries((entries,))
            for key in old.keys() | new.keys():
                held = sources.get(key)
                if held:
                    groups.add(held[0])  # the key's group before the change
                if key not in new:
                    held.remove(z)
                    if not held:
                        del sources[key]
                        self._unname(key)
                elif key not in old:
                    if held:
                        bisect.insort(held, z)
                    else:
                        held = sources[key] = [z]
                        self._name(key)
                if held:
                    groups.add(held[0])  # and after it
                lone[0].add(key[0])
                lone[1].add(key[2])
        self._set_coupled(groups)
        return groups


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
