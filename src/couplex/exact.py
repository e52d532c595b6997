"""Exact finite-state verification on small rings.

Everything here enumerates states explicitly: single-copy chains over all
configurations of a ring (or one particle-number sector), and coupled chains
over configuration pairs.  Generators are kept sparse, positive rates only,
in the form their builder gives: a single chain as entry arrays, a coupled
chain as one dict per row; dense numpy blocks are materialized only for the
stationary solve.  A single chain is built in one numpy pass: each state is an
integer code, its jump targets are found among the sorted codes, and its rates
are the floats of the simulator's per-site pattern memo, read once per
distinct pattern; the coupled layer's rows keep exact rates exact.  The stationary
law of a closed class solves the replaced-row system: Q^T with its last
equation replaced by the normalisation sum(pi) = 1, by one LU factorisation.
A single chain's rates do not change when the ring turns one site, so the law
of a class that some turn maps onto itself is constant on the rotation orbits
it holds, and the system is solved on those orbits, one unknown each.

The coupled layer builds each pair's coupling table directly.  Its entry
points enumerate at most ``4**COUPLED_SIZE_CAP`` pairs in one order, that of
:func:`pair_states`, and all but :func:`coupled_generator` read them on
rotation orbits; discrepancy extinction is an exact reachability verdict on
the orbit chain, with no linear solve (see :func:`discrepancy_extinction`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add
from typing import Optional

import numpy as np

from .lattice import CoupledState, is_ordered
from .models import RateSpec, _check_ring, _fill_site_events, active_jumps
from .coupling import _moves, _target, coupled_transitions, coupling_table

#: largest single-chain state space enumerated: it admits every sector of an
#: 18-site ring (at most C(18, 9) = 48620 states) and the whole ring up to 15
#: sites; a closed class is solved with one unknown per rotation orbit, at
#: most 2704 of them in the sectors of an 18-site ring
SINGLE_STATE_CAP = 48620
#: largest ring of the coupled layer: 4**8 = 65536 pairs
COUPLED_SIZE_CAP = 8
#: most rows of a dense generator block: 4096**2 float64 take 128 MiB
DENSE_ROW_CAP = 4096
#: a solved weight below -_NEGATIVE_TOL times the largest weight is an error,
#: not rounding, and raises instead of being clipped
_NEGATIVE_TOL = 1e-9


class GeneratorMatrix:
    """Sparse generator of a finite-state continuous-time chain, kept in the
    form its builder gives and the other forms derived on first read.

    ``rows[i]`` maps target state index -> off-diagonal rate, positive only
    (the class searches rely on it); the diagonal is minus the row sum.
    ``entries`` holds the same rates as arrays (see there).  ``states`` are
    hashable state labels, in the order of the indices.  ``turn``,
    when given, is an index array: ``turn[i]`` is the index of ``states[i]``
    turned one site, and the rates must not change under it.  A builder
    gives ``rows`` or sets ``entries``; neither may change after a read.
    """

    def __init__(self, states: list, rows: Optional[list] = None, *, turn: Optional[np.ndarray] = None):
        self.states = states
        if rows is not None:
            self.rows = rows
        self.turn = turn

    @property
    def dimension(self) -> int:
        return len(self.states)

    @cached_property
    def entries(self):
        """The off-diagonal rates as float arrays ``(rows, cols, vals)`` in
        row order, each row's entries in its own order, and the exit rate of
        each state as a float: the running sum of ``rows[i]``'s rates in row
        order, or, where the builder sets the entries
        (:func:`single_generator`), its rates added in row order, which is
        the same float sum.  A running sum is exact for exact rates; the
        builtin ``sum`` of floats is compensated from Python 3.12 on, so it
        is not a running sum there.
        """
        if "rows" not in vars(self):  # each form derives from the other
            raise ValueError("a generator needs rows or entries, and was given neither")
        rows = np.array([i for i, row in enumerate(self.rows) for _ in row], dtype=np.intp)
        cols = np.array([j for row in self.rows for j in row], dtype=np.intp)
        vals = np.array([r for row in self.rows for r in row.values()], dtype=float)
        exits = np.array([reduce(add, row.values(), 0) for row in self.rows], dtype=float)
        return rows, cols, vals, exits

    @cached_property
    def rows(self) -> list:
        _, cols, vals, _ = self.entries
        return [dict(zip(c, v)) for c, v in zip(self._per_row(cols), self._per_row(vals))]

    def _per_row(self, values: np.ndarray) -> list:
        """``values``, one per entry, as one list per row."""
        items = iter(values.tolist())
        lengths = np.bincount(self.entries[0], minlength=self.dimension)
        return [list(itertools.islice(items, k)) for k in lengths.tolist()]

    def to_dense(self, members=None, columns=None) -> np.ndarray:
        """Dense generator, or its block with rows the state indices
        ``members`` in that order; each diagonal entry adds minus the row's
        full exit rate.

        Column k is ``members[k]``, or, given ``columns`` (an index array
        over all states, -1 for none, that maps ``members[k]`` to k), the sum
        of the columns of the states it maps to k.  More than
        ``DENSE_ROW_CAP`` rows raise ``ValueError`` before allocating.
        """
        members = np.asarray(range(self.dimension) if members is None else members, dtype=np.intp)
        n = len(members)
        if n > DENSE_ROW_CAP:
            raise ValueError(
                "a dense block of %d rows (%d bytes) exceeds the cap of %d rows"
                % (n, n * n * 8, DENSE_ROW_CAP)
            )
        rows, cols, vals, exits = self.entries
        pos = np.full(self.dimension, -1, dtype=np.intp)
        pos[members] = np.arange(n)
        if columns is None:
            columns = pos
        keep = (pos[rows] >= 0) & (columns[cols] >= 0)
        q = np.zeros((n, n))
        np.add.at(q, (pos[rows[keep]], columns[cols[keep]]), vals[keep])
        q[np.diag_indices(n)] -= exits[members]
        return q


@dataclass
class StationaryDistribution:
    states: list
    weights: np.ndarray
    residual: float


def _check_count(size: int, count: Optional[int]) -> None:
    """Refuse a particle-number sector that the ring cannot hold."""
    if count is not None and not 0 <= count <= size:
        raise ValueError("count must lie in [0, %d]" % size)


def ring_configs(size: int, count: Optional[int] = None):
    """All configurations of the ring, or one particle-number sector."""
    if count is None:
        for bits in itertools.product((0, 1), repeat=size):
            yield bits
    else:
        _check_count(size, count)
        for occupied in itertools.combinations(range(size), count):
            bits = [0] * size
            for x in occupied:
                bits[x] = 1
            yield tuple(bits)


def _sector_bits(size: int, count: Optional[int]) -> np.ndarray:
    """The configurations of :func:`ring_configs`, in its order, as the rows
    of an int64 bit array: for the whole ring, row i is i in binary with
    site 0 highest; for a sector, each row's occupied sites are one
    combination, set in one indexed store."""
    if count is None:
        return (np.arange(2**size, dtype=np.int64)[:, None] >> np.arange(size - 1, -1, -1)) & 1
    n = math.comb(size, count)
    sites = itertools.chain.from_iterable(itertools.combinations(range(size), count))
    occupied = np.fromiter(sites, dtype=np.intp, count=n * count).reshape(n, count)
    bits = np.zeros((n, size), dtype=np.int64)
    bits[np.arange(n)[:, None], occupied] = 1
    return bits


def _single_entries(spec: RateSpec, bits: np.ndarray, size: int) -> tuple:
    """The off-diagonal entries of the single chain on the states ``bits``
    (:func:`_sector_bits`), one per (state, occupied site, event) in state,
    site and offset order, and the turn: ``(rows, cols, vals, turn)``, with
    ``vals`` the memo's float rates.

    A state is an integer code, bit x for site x, and every target, like
    every turned state, is found among the sorted codes.  The events of a
    site are those of its pattern in the per-site memo, read once per
    distinct pattern.
    """
    # a turned code needs size + 1 bits, so the codes of a ring of more
    # than 62 sites (a sector of at most a few particles) stay Python ints
    power = np.array([1 << x for x in range(size)], dtype=np.int64 if size <= 62 else object)
    codes = bits @ power
    state, site = np.nonzero(bits)
    # bit j of the pattern of site x is site x - w + j: the w sites on
    # either side of x, wrapping as the ring does
    w = spec._reach
    patterns = np.zeros(len(site), dtype=np.int64)
    for j in range(2 * w + 1):
        patterns |= bits[state, (site + j - w) % size] << j
    unique, pattern = np.unique(patterns, return_inverse=True)
    memo = spec._site_events
    keys = (tuple((p >> j) & 1 for j in range(2 * w + 1)) for p in unique.tolist())
    events = [(memo.get(key) or _fill_site_events(spec, key))[0] for key in keys]
    rates = np.array([r for site_events in events for r, _ in site_events], dtype=float)
    offsets = np.array([d for site_events in events for _, d in site_events], dtype=np.intp)
    counts = np.array([len(site_events) for site_events in events], dtype=np.intp)
    # event indexes the events of all distinct patterns, one after another
    per_site = counts[pattern]
    event = np.repeat(np.cumsum(counts)[pattern] - np.cumsum(per_site), per_site)
    event += np.arange(len(event))
    rows = np.repeat(state, per_site)
    x = np.repeat(site, per_site)
    targets = codes[rows] ^ power[x] ^ power[(x + offsets[event]) % size]
    turned = ((codes << 1) & ((1 << size) - 1)) | (codes >> (size - 1))
    by_code = np.argsort(codes)
    found = by_code[np.searchsorted(codes[by_code], np.concatenate([turned, targets]))]
    return rows, found[len(codes):], rates[event], found[: len(codes)]


def single_generator(spec: RateSpec, size: int, count: Optional[int] = None) -> GeneratorMatrix:
    """Generator of the single chain; distinct jumps reach distinct targets.

    Its ``entries`` are read in one numpy pass over every (state, occupied
    site, event) (:func:`_single_entries`), from the per-site pattern memo
    that the simulator fills (:func:`couplex.models._fill_site_events` fills
    it on a miss), each row's events in site and offset order; ``rows`` are
    derived only when read.
    """
    _check_ring(spec, size)  # the memo reads patterns, never the ring
    _check_count(size, count)
    n = 2**size if count is None else math.comb(size, count)
    if n > SINGLE_STATE_CAP:
        raise ValueError(
            "exact single-chain enumeration of %d states exceeds the cap of %d states"
            % (n, SINGLE_STATE_CAP)
        )
    bits = _sector_bits(size, count)
    rows, cols, vals, turn = _single_entries(spec, bits, size)
    gen = GeneratorMatrix(list(map(tuple, bits.tolist())), turn=turn)
    # bincount adds each row's rates one at a time, in row order, as
    # entries does for rows; it gives int64 when there are none
    gen.entries = rows, cols, vals, np.bincount(rows, weights=vals, minlength=n).astype(float)
    return gen


def pair_states(size: int):
    """Every pair of configurations of the ring, in product order of
    :func:`ring_configs`: the second copy runs fastest."""
    return itertools.product(ring_configs(size), repeat=2)


def ordered_pairs(size: int):
    """Every comparable configuration pair of the ring, both orders: one
    pair per site word over (0,0), (0,1), (1,1), then its swap unless the
    copies agree."""
    for codes in itertools.product(range(3), repeat=size):
        xi = tuple(1 if c == 1 else 0 for c in codes)
        zeta = tuple(0 if c == 0 else 1 for c in codes)
        yield xi, zeta
        if xi != zeta:
            yield zeta, xi


def _check_coupled_size(spec: RateSpec, size: int) -> None:
    """Refuse a ring too small for ``spec`` or with more pairs than the
    coupled layer's cap."""
    _check_ring(spec, size)
    if size > COUPLED_SIZE_CAP:
        raise ValueError(
            "exact coupled enumeration of %d pairs (L=%d) exceeds the cap of %d pairs (L=%d)"
            % (4**size, size, 4**COUPLED_SIZE_CAP, COUPLED_SIZE_CAP)
        )


def _orbits(states: list) -> list:
    """The rotation orbits of ``states``, pairs closed under rotation, as
    ascending lists of indices into ``states``, in the order of their first
    pairs."""
    index = {s: i for i, s in enumerate(states)}
    seen = [False] * len(states)
    orbits = []
    for i, (xi, zeta) in enumerate(states):
        if not seen[i]:
            orbit = sorted({index[(xi[k:] + xi[:k], zeta[k:] + zeta[:k])] for k in range(len(xi))})
            for j in orbit:
                seen[j] = True
            orbits.append(orbit)
    return orbits


def _row(spec: RateSpec, kind: str, xi: tuple, zeta: tuple, column: dict) -> dict:
    """The row of the pair (xi, zeta): its move rates added by ``column[target]``."""
    row = {}
    for _, j1, j2, r in _moves(coupling_table(spec, xi, zeta, kind)):
        j = column[_target(xi, zeta, j1, j2)]
        row[j] = row[j] + r if j in row else r
    return row


def coupled_generator(spec: RateSpec, size: int, kind: str) -> GeneratorMatrix:
    """Generator of the coupled pair chain under the given coupling kind, on
    every pair of the ring (:func:`pair_states`)."""
    _check_coupled_size(spec, size)
    states = list(pair_states(size))
    index = {s: i for i, s in enumerate(states)}
    return GeneratorMatrix(states, [_row(spec, kind, xi, zeta, index) for xi, zeta in states])


# ---------------------------------------------------------------------------
# Communicating classes and stationary distributions


def _least_reachable(n: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """For each of ``n`` states, the least state it reaches along the edges
    ``tails[k] -> heads[k]``, itself included.

    Each pass lowers a state's label to the least label of its targets, then
    jumps pointers: the least state that a reached state reaches is reached
    too, so ``least[least]`` is.  At a fixed point no edge lowers a label and
    every label is reached, so each is the least reached state.
    """
    least = np.arange(n)
    while True:
        step = least.copy()
        np.minimum.at(step, tails, least[heads])
        step = step[step]
        if np.array_equal(step, least):
            return least
        least = step


def closed_classes(gen: GeneratorMatrix) -> list:
    """Communicating classes without outgoing rates (the recurrent ones), as
    ascending lists of indices, in the order of their least states.

    Let ``root`` be the least state that each state reaches.  A closed class
    is the class of its least state rho, and every state that rho reaches
    inside the group ``root == rho`` reaches rho back, so the class is the
    group's states that rho reaches, found as those whose least reaching
    state, along the group's edges reversed, is rho.  An edge out of the
    class leaves the group, and rho heads a closed class when its class has
    no such edge.
    """
    rows, cols = gen.entries[:2]
    n = gen.dimension
    root = _least_reachable(n, rows, cols)
    inside = root[rows] == root[cols]
    member = _least_reachable(n, cols[inside], rows[inside]) == root
    leaks = np.zeros(n, dtype=bool)
    leaks[root[rows[member[rows] & ~inside]]] = True
    closed = np.flatnonzero(member & ~leaks[root])
    closed = closed[np.argsort(root[closed], kind="stable")]
    if not len(closed):
        return []
    return [c.tolist() for c in np.split(closed, np.flatnonzero(np.diff(root[closed])) + 1)]


def _solve_on_class(gen: GeneratorMatrix, members: list) -> np.ndarray:
    """Stationary law on one closed class, in the order of ``members``
    (ascending state indices).

    A closed class is irreducible, so Q^T restricted to it has rank n - 1.
    Replacing its last equation by the normalisation sum(pi) = 1 gives a
    nonsingular system, solved by one LU factorisation (Stewart,
    *Introduction to the Numerical Solution of Markov Chains*, 1994, ch. 2).

    The system is solved on orbits.  With ``gen.turn``, let h be the smallest
    power of the turn that maps the class's first member into the class:
    turn**h maps the class onto itself and keeps the rates, so the law is
    constant on the orbits of turn**h in the class, and the lumped chain of
    those orbits is a Markov chain (Kemeny & Snell, *Finite Markov Chains*,
    1960, ch. VI).  Its row k is the first member of orbit k, its column k
    sums the rates into orbit k, and each state gets its orbit's weight
    divided by the orbit's size.  Without a turn every orbit is one state.
    Rounding-sized negative weights are clipped to 0; a singular system, a
    weight below -_NEGATIVE_TOL times the largest, or a sum that is not
    positive raises ``ValueError``.
    """
    members = np.asarray(members, dtype=np.intp)
    n = len(members)
    first = members  # the smallest index on each member's orbit
    if gen.turn is not None:
        inside = np.zeros(gen.dimension, dtype=bool)
        inside[members] = True
        step = gen.turn
        while not inside[step[members[0]]]:
            step = gen.turn[step]
        turned = step[members]
        while not np.array_equal(turned, members):
            first = np.minimum(first, turned)
            turned = step[turned]
    leads, orbit, sizes = np.unique(first, return_inverse=True, return_counts=True)
    columns = np.full(gen.dimension, -1, dtype=np.intp)
    columns[members] = orbit
    a = gen.to_dense(leads, columns).T
    a[-1] = 1.0
    b = np.zeros(len(leads))
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "stationary solve on a closed class of %d states: %s" % (n, exc)
        ) from exc
    total = pi.sum()
    if not total > 0:
        raise ValueError(
            "stationary solve on a closed class of %d states gave weights "
            "summing to %r" % (n, float(total))
        )
    if pi.min() < -_NEGATIVE_TOL * pi.max():
        raise ValueError(
            "stationary solve on a closed class of %d states gave weight %r "
            "against a largest weight of %r" % (n, float(pi.min()), float(pi.max()))
        )
    pi = np.clip(pi, 0.0, None)
    weights = pi[orbit] / sizes[orbit]
    return weights / weights.sum()


def stationary_distributions(gen: GeneratorMatrix) -> list:
    """One stationary distribution per closed communicating class; the chain
    is reducible exactly when the list holds more than one."""
    out = []
    for members in closed_classes(gen):
        weights = np.zeros(gen.dimension)
        weights[members] = _solve_on_class(gen, members)
        out.append(StationaryDistribution(gen.states, weights, _balance_residual(gen, weights)))
    return out


def _balance_residual(gen: GeneratorMatrix, weights: np.ndarray) -> float:
    """max |weights @ Q|, from the sparse rows."""
    rows, cols, vals, exits = gen.entries
    flow = np.bincount(cols, weights=weights[rows] * vals, minlength=gen.dimension)
    return float(np.max(np.abs(flow - weights * exits)))


def stationary_distribution(gen: GeneratorMatrix) -> StationaryDistribution:
    """The unique stationary distribution; raises when the chain has several
    closed classes."""
    dists = stationary_distributions(gen)
    if len(dists) != 1:
        raise ValueError("chain is reducible (%d closed classes)" % len(dists))
    return dists[0]


# ---------------------------------------------------------------------------
# Structural checks


#: largest gap between a state's float inflow and outflow under the uniform
#: law that counts as balance
BALANCE_TOL = 1e-12


@dataclass
class BalanceReport:
    ok: bool
    max_imbalance: float
    worst_state: Optional[tuple] = None
    sector: Optional[int] = None


def check_sector_uniform_stationary(spec: RateSpec, size: int) -> list:
    """Whether the uniform measure on each particle-number sector is
    stationary, one report per sector in particle-number order: per state,
    total inflow must equal total outflow within ``BALANCE_TOL``.  The
    worst state is the first with the largest gap, None when none has one."""
    reports = []
    for n in range(size + 1):
        gen = single_generator(spec, size, n)
        _, cols, vals, exits = gen.entries
        inflow = np.bincount(cols, weights=vals, minlength=gen.dimension)
        gaps = np.abs(inflow - exits)
        i = int(np.argmax(gaps))
        worst = float(gaps[i])
        worst_state = gen.states[i] if worst > 0 else None
        reports.append(BalanceReport(worst <= BALANCE_TOL, worst, worst_state, n))
    return reports


def _violations(spec: RateSpec, states: list, kind: str, broken) -> list:
    """The audits ``a`` of :func:`couplex.coupling.coupled_transitions` with
    ``broken(a)`` out of the pairs in ``states``, in pair order and then
    move order.

    The rates are translation invariant, so whether a move breaks the order
    or adds discrepancies does not change when the pair is turned along the
    ring (Kemeny & Snell, *Finite Markov Chains*, 1960, ch. VI): an orbit
    whose first pair has no such move has none (with float rates, up to a
    residual that a turn's rounding moves across the cut-off below which
    residuals count as 0).  The other pairs of an orbit are read only when
    its first pair has such a move.
    """
    found = [()] * len(states)
    for orbit in _orbits(states):
        for i in orbit:
            found[i] = [a for a in coupled_transitions(spec, *states[i], kind) if broken(a)]
            if not found[orbit[0]]:
                break  # a clean first pair has a clean orbit
    return [v for pair in found for v in pair]


def audit_order_preservation(spec: RateSpec, size: int, kind: str = "increasing"):
    """Scan every ordered pair, in :func:`pair_states` order, for
    positive-rate moves that break the order."""
    _check_coupled_size(spec, size)
    return _violations(spec, sorted(ordered_pairs(size)), kind, lambda a: not a.order_preserving)


def audit_discrepancy_monotone(spec: RateSpec, size: int, kind: str = "attractive"):
    """Scan every pair for positive-rate moves that increase discrepancies."""
    _check_coupled_size(spec, size)
    return _violations(spec, list(pair_states(size)), kind, lambda a: a.discrepancy_delta > 0)


def marginal_errors(spec: RateSpec, size: int, kind: str):
    """Largest gap between each marginal of the coupled chain and the single
    chain, over all pairs and jumps, read on orbit leads: a turn of the ring
    turns both alike, so the gaps do not change (up to the float rounding
    that :func:`_violations` states).  Exact zero for exact specs."""
    _check_coupled_size(spec, size)
    worst = 0
    wants = {}  # the single chain's rates, per configuration
    states = list(pair_states(size))
    for orbit in _orbits(states):
        xi, zeta = states[orbit[0]]
        first = {}
        second = {}
        for _, j1, j2, r in _moves(coupling_table(spec, xi, zeta, kind)):
            for jump, got in ((j1, first), (j2, second)):
                if jump is not None:
                    got[jump] = got[jump] + r if jump in got else r
        for eta, got in ((xi, first), (zeta, second)):
            if eta not in wants:
                wants[eta] = {(x, (x + d) % size): r for x, d, r in active_jumps(spec, eta)}
            want = wants[eta]
            for key in set(want) | set(got):
                w, g = want.get(key, 0), got.get(key, 0)
                if w != g:  # a zero gap never raises the maximum
                    worst = max(worst, abs(w - g))
    return worst


# ---------------------------------------------------------------------------
# Discrepancy extinction


@dataclass
class ExtinctionReport:
    """``min_probability`` is 0.0 if some unordered pair never reaches a
    comparable pair, else 1.0: exact, for exact and float rates alike.
    ``worst_pair`` is the first such pair in :func:`pair_states` order,
    else the first unordered pair, and None only when no pair is
    unordered."""

    min_probability: float
    worst_pair: Optional[CoupledState]
    pairs_checked: int


def _reaching(rows, targets) -> set:
    """The states that reach a state of ``targets`` along the rows' rates,
    all positive, by one backward search; ``targets`` are included."""
    into = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j in row:
            into[j].append(i)
    seen = set(targets)
    stack = list(seen)
    while stack:
        for i in into[stack.pop()]:
            if i not in seen:
                seen.add(i)
                stack.append(i)
    return seen


def discrepancy_extinction(spec: RateSpec, size: int, kind: str = "strict") -> ExtinctionReport:
    """Whether the coupled chain started from every unordered pair reaches a
    comparable pair (all discrepancies of one sign gone) with probability 1.

    Particle numbers are conserved, so the chain splits into finite closed
    sectors, and each pair is unordered or comparable.  The hitting
    probability of the comparable pairs is therefore 1 from every unordered
    pair if each one reaches a comparable pair along a path of positive
    rates, and 0 from one that does not (Norris, *Markov Chains*, 1997,
    Thm 1.3.2).  One backward search over the whole chain decides every
    sector at once; there is no linear solve.  A rate that is 0 in some
    patterns and positive in others is no obstacle: the search decides what
    the rates allow.  A coupling that cannot serve a pair raises its own
    ``ValueError``, which names the pair.

    Both the chain and "comparable" are unchanged by a turn of the ring, so
    the rotation orbits form a Markov chain (Kemeny & Snell, 1960, ch. VI):
    each orbit gets its first pair's row, comparable or not, with rates
    added by target orbit.
    """
    _check_coupled_size(spec, size)
    states = list(pair_states(size))
    orbits = _orbits(states)
    leads = [states[orbit[0]] for orbit in orbits]
    orbit_of = {states[i]: k for k, orbit in enumerate(orbits) for i in orbit}
    rows = [_row(spec, kind, *s, orbit_of) for s in leads]
    ordered = [is_ordered(*s) for s in leads]
    reaching = _reaching(rows, [k for k, o in enumerate(ordered) if o])
    members = [k for k, o in enumerate(ordered) if not o]
    stuck = [k for k in members if k not in reaching]
    worst = CoupledState(*leads[(stuck or members)[0]]) if members else None
    checked = sum(len(orbits[k]) for k in members)
    return ExtinctionReport(0.0 if stuck else 1.0, worst, checked)
