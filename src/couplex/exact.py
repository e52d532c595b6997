"""Exact finite-state verification on small rings.

Everything here enumerates states explicitly: single-copy chains over all
configurations of a ring (or one particle-number sector), and coupled chains
over configuration pairs.  Generators are kept sparse (dict of rows); dense
numpy arrays are materialized only for the stationary solve.  The stationary
law of a closed class solves the replaced-row system: Q^T with its last
equation replaced by the normalisation sum(pi) = 1, by one LU factorisation.
A single chain's rates do not change when the ring turns one site, so the law
of a class that some turn maps onto itself is constant on the rotation orbits
it holds, and the system is solved on those orbits, one unknown each.

The coupled layer builds each pair's coupling table directly and enumerates
at most ``4**COUPLED_SIZE_CAP`` pairs; discrepancy extinction is an exact
reachability verdict on its rotation orbits, one row per orbit, with no
linear solve (see :func:`discrepancy_extinction`).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .lattice import CoupledState, apply_jump, is_ordered
from .models import RateSpec, active_jumps
from .coupling import _moves, coupled_transitions, coupling_table

#: largest single-chain state space enumerated: it admits every sector of a
#: 14-site ring (at most C(14, 7) = 3432 states); a closed class is solved with
#: one unknown per rotation orbit, at most 246 of them at the cap
SINGLE_STATE_CAP = 3432
#: largest ring of the coupled layer: 4**6 = 4096 pairs
COUPLED_SIZE_CAP = 6
#: a solved weight below -_NEGATIVE_TOL times the largest weight is an error,
#: not rounding, and raises instead of being clipped
_NEGATIVE_TOL = 1e-9


@dataclass
class GeneratorMatrix:
    """Sparse generator of a finite-state continuous-time chain.

    ``rows[i]`` maps target state index -> off-diagonal rate; the diagonal is
    minus the row sum.  ``states`` are hashable state labels and
    ``state_index`` the inverse lookup.  ``turn``, when given, is an index
    array: ``turn[i]`` is the index of ``states[i]`` turned one site, and the
    rates must not change under it.
    """

    states: list
    rows: list
    state_index: dict = field(default_factory=dict)
    turn: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        if not self.state_index:
            self.state_index = {s: i for i, s in enumerate(self.states)}

    @property
    def dimension(self) -> int:
        return len(self.states)

    @cached_property
    def entries(self):
        """The off-diagonal rates as arrays ``(rows, cols, vals)`` in row
        order, and the exit rates ``float(sum(row.values()))`` per state.

        Built once, on first use, and shared by every class of a reducible
        chain; ``rows`` must not change after that.
        """
        rows = np.array([i for i, row in enumerate(self.rows) for _ in row], dtype=np.intp)
        cols = np.array([j for row in self.rows for j in row], dtype=np.intp)
        vals = np.array([float(r) for row in self.rows for r in row.values()])
        exits = np.array([float(sum(row.values())) for row in self.rows])
        return rows, cols, vals, exits

    def to_dense(self, members=None, columns=None) -> np.ndarray:
        """Dense generator, or its block with rows the state indices
        ``members`` in that order; each diagonal entry adds minus the row's
        full exit rate.

        Column k is ``members[k]``, or, given ``columns`` (an index array
        over all states, -1 for none, that maps ``members[k]`` to k), the sum
        of the columns of the states it maps to k.
        """
        rows, cols, vals, exits = self.entries
        if members is None:
            members = range(self.dimension)
        members = np.asarray(members, dtype=np.intp)
        n = len(members)
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


def single_generator(spec: RateSpec, size: int, count: Optional[int] = None) -> GeneratorMatrix:
    _check_count(size, count)
    n = 2**size if count is None else math.comb(size, count)
    if n > SINGLE_STATE_CAP:
        raise ValueError(
            "exact single-chain enumeration of %d states exceeds the cap of %d states"
            % (n, SINGLE_STATE_CAP)
        )
    states = list(ring_configs(size, count))
    index = {s: i for i, s in enumerate(states)}
    rows = []
    for eta in states:
        row = {}
        for x, d, r in active_jumps(spec, eta):
            j = index[apply_jump(eta, x, (x + d) % size)]
            row[j] = row[j] + r if j in row else r
        rows.append(row)
    turn = np.array([index[eta[-1:] + eta[:-1]] for eta in states], dtype=np.intp)
    return GeneratorMatrix(states, rows, index, turn)


def pair_states(size: int, counts: Optional[tuple] = None):
    if counts is None:
        firsts = seconds = list(ring_configs(size))
    else:
        firsts = list(ring_configs(size, counts[0]))
        seconds = list(ring_configs(size, counts[1]))
    for xi in firsts:
        for zeta in seconds:
            yield (xi, zeta)


def _check_coupled_size(size: int) -> None:
    """Refuse a ring with more pairs than the coupled layer's cap."""
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
        j = column[(apply_jump(xi, *j1) if j1 else xi, apply_jump(zeta, *j2) if j2 else zeta)]
        row[j] = row[j] + r if j in row else r
    return row


def coupled_generator(spec: RateSpec, size: int, kind: str) -> GeneratorMatrix:
    """Generator of the coupled pair chain under the given coupling kind, on
    every pair of the ring (:func:`pair_states`)."""
    _check_coupled_size(size)
    states = list(pair_states(size))
    index = {s: i for i, s in enumerate(states)}
    rows = [_row(spec, kind, xi, zeta, index) for xi, zeta in states]
    return GeneratorMatrix(states, rows, index)


# ---------------------------------------------------------------------------
# Communicating classes and stationary distributions


def strongly_connected_components(rows) -> list:
    """Tarjan's algorithm, iterative; returns components as lists of indices."""
    n = len(rows)
    order = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack = []
    components = []
    counter = itertools.count(1)
    for root in range(n):
        if visited[root]:
            continue
        work = [(root, iter(rows[root]))]
        visited[root] = True
        order[root] = low[root] = next(counter)
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if rows[v][w] <= 0:
                    continue
                if not visited[w]:
                    visited[w] = True
                    order[w] = low[w] = next(counter)
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(rows[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], order[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == order[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)
    return components


def closed_classes(gen: GeneratorMatrix) -> list:
    """Communicating classes without outgoing rates (the recurrent ones)."""
    comps = strongly_connected_components(gen.rows)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for i in comp:
            comp_of[i] = ci
    closed = []
    for ci, comp in enumerate(comps):
        if all(
            comp_of[j] == ci
            for i in comp
            for j, r in gen.rows[i].items()
            if r > 0
        ):
            closed.append(sorted(comp))
    return closed


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
    """One stationary distribution per closed communicating class."""
    classes = closed_classes(gen)
    if len(classes) > 1:
        warnings.warn(
            "chain is reducible: %d closed classes; returning one stationary "
            "distribution per class" % len(classes)
        )
    out = []
    for members in classes:
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


@dataclass
class BalanceReport:
    ok: bool
    max_imbalance: float
    worst_state: Optional[tuple] = None
    sector: Optional[int] = None


def check_sector_uniform_stationary(
    spec: RateSpec, size: int, count: Optional[int] = None, tol: float = 1e-12
):
    """Whether the uniform measure on each particle-number sector is
    stationary: per state, total inflow must equal total outflow.  The
    worst state is the first with the largest gap, None when none has one."""
    if not 0 <= tol < math.inf:
        raise ValueError("tol must be finite and >= 0, got %r" % (tol,))
    counts = range(size + 1) if count is None else [count]
    reports = []
    for n in counts:
        gen = single_generator(spec, size, n)
        rows, cols, vals, _ = gen.entries
        # outflow adds the float rates as inflow does, not the exact exit
        # rate, so that both sums round alike
        inflow = np.bincount(cols, weights=vals, minlength=gen.dimension)
        outflow = np.bincount(rows, weights=vals, minlength=gen.dimension)
        gaps = np.abs(inflow - outflow)
        i = int(np.argmax(gaps))
        worst = float(gaps[i])
        worst_state = gen.states[i] if worst > 0 else None
        reports.append(BalanceReport(worst <= tol, worst, worst_state, n))
    return reports if count is None else reports[0]


@dataclass
class AuditViolation:
    pair: CoupledState
    move: str
    first_jump: Optional[tuple]
    second_jump: Optional[tuple]
    rate: object
    target: CoupledState


def _violations(spec: RateSpec, states: list, kind: str, broken) -> list:
    """Every positive-rate move ``a`` with ``broken(a)`` out of the pairs in
    ``states``, in pair order and then move order.

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
            found[i] = [
                AuditViolation(
                    CoupledState(*states[i]), a.move, a.first_jump, a.second_jump, a.rate, a.target
                )
                for a in coupled_transitions(spec, *states[i], kind)[1]
                if broken(a)
            ]
            if not found[orbit[0]]:
                break  # a clean first pair has a clean orbit
    return [v for pair in found for v in pair]


def audit_order_preservation(spec: RateSpec, size: int, kind: str = "increasing"):
    """Scan every ordered pair for positive-rate moves that break the order."""
    _check_coupled_size(size)
    ordered = [s for s in pair_states(size) if is_ordered(*s)]
    return _violations(spec, ordered, kind, lambda a: not a.order_preserving)


def audit_discrepancy_monotone(spec: RateSpec, size: int, kind: str = "attractive"):
    """Scan every pair for positive-rate moves that increase discrepancies."""
    _check_coupled_size(size)
    return _violations(spec, list(pair_states(size)), kind, lambda a: a.discrepancy_delta > 0)


def marginal_errors(spec: RateSpec, size: int, kind: str):
    """Largest gap between each marginal of the coupled chain and the single
    chain, over all pairs and jumps, taken in pair order.  Exact zero for
    exact specs."""
    _check_coupled_size(size)
    worst = 0
    wants = {}  # the single chain's rates, per configuration
    for xi, zeta in pair_states(size):
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
    ``worst_pair`` is the first such pair in sector order, else the first
    unordered pair checked, and None only when no pair is checked."""

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

    Works sector by sector (particle numbers are conserved).  A sector is
    finite and closed, and each of its pairs is unordered or comparable, so
    the hitting probability of the comparable pairs is 1 from every unordered
    pair if each one reaches a comparable pair along a path of positive
    rates, and 0 from one that does not (Norris, *Markov Chains*, 1997,
    Thm 1.3.2).  One backward search per sector decides which case holds;
    there is no linear solve.  A rate that is 0 in some patterns and
    positive in others is no obstacle: the search decides what the rates
    allow.  A coupling that cannot serve a pair raises its own
    ``ValueError``, which names the pair.

    Both the chain and "comparable" are unchanged by a turn of the ring, so
    the rotation orbits form a Markov chain (Kemeny & Snell, 1960, ch. VI):
    each orbit of a sector with an unordered pair gets its first pair's row,
    comparable or not, with rates added by target orbit.
    """
    _check_coupled_size(size)
    worst, sure, checked = None, True, 0
    for n1 in range(size + 1):
        for n2 in range(size + 1):
            states = list(pair_states(size, (n1, n2)))
            orbits = _orbits(states)
            leads = [states[orbit[0]] for orbit in orbits]
            members = [k for k, s in enumerate(leads) if not is_ordered(*s)]
            if not members:
                continue
            orbit_of = {states[i]: k for k, orbit in enumerate(orbits) for i in orbit}
            rows = [_row(spec, kind, *s, orbit_of) for s in leads]
            reaching = _reaching(rows, [k for k, s in enumerate(leads) if is_ordered(*s)])
            checked += sum(len(orbits[k]) for k in members)
            stuck = [k for k in members if k not in reaching]
            if worst is None or (sure and stuck):
                worst = CoupledState(*leads[(stuck or members)[0]])
            sure = sure and not stuck
    return ExtinctionReport(1.0 if sure else 0.0, worst, checked)
