"""Exact finite-state verification on small rings.

Everything here enumerates states explicitly: single-copy chains over all
configurations of a ring (or one particle-number sector), and coupled chains
over configuration pairs.  Generators are kept sparse (dict of rows); dense
numpy arrays are materialized only for linear solves.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .lattice import CoupledState, apply_jump, is_ordered
from .models import RateSpec, active_jumps, _all_patterns
from .coupling import coupled_transitions

#: largest single-chain state space enumerated: it admits every sector of a
#: 14-site ring (at most C(14, 7) = 3432 states, a 94 MB dense matrix)
SINGLE_STATE_CAP = 3432
COUPLED_SIZE_CAP = 6
#: largest Poisson mean of one uniformization step, far from exp underflow
_POISSON_STEP = 64.0
#: uniformization rate over the largest exit rate, so P keeps a positive
#: diagonal
_UNIFORM_MARGIN = 1.05


@dataclass
class GeneratorMatrix:
    """Sparse generator of a finite-state continuous-time chain.

    ``rows[i]`` maps target state index -> off-diagonal rate; the diagonal is
    minus the row sum.  ``states`` are hashable state labels and
    ``state_index`` the inverse lookup.
    """

    states: list
    rows: list
    state_index: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.state_index:
            self.state_index = {s: i for i, s in enumerate(self.states)}

    @property
    def dimension(self) -> int:
        return len(self.states)

    def total_rate(self, i: int):
        return sum(self.rows[i].values())

    def to_dense(self, members=None) -> np.ndarray:
        """Dense generator, or its block on the state indices ``members`` in
        that order; the diagonal is always minus the full exit rate."""
        pos = {i: k for k, i in enumerate(range(self.dimension) if members is None else members)}
        q = np.zeros((len(pos), len(pos)))
        for i, k in pos.items():
            row = self.rows[i]
            for j, r in row.items():
                if j in pos:
                    q[k, pos[j]] = float(r)
            q[k, k] = -float(sum(row.values()))
        return q


@dataclass
class StationaryDistribution:
    states: list
    weights: np.ndarray
    residual: float
    sector: Optional[object] = None


def ring_configs(size: int, count: Optional[int] = None):
    """All configurations of the ring, or one particle-number sector."""
    if count is None:
        for bits in itertools.product((0, 1), repeat=size):
            yield bits
    else:
        for occupied in itertools.combinations(range(size), count):
            bits = [0] * size
            for x in occupied:
                bits[x] = 1
            yield tuple(bits)


def single_generator(spec: RateSpec, size: int, count: Optional[int] = None) -> GeneratorMatrix:
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
            row[j] = row.get(j, 0) + r
        rows.append(row)
    return GeneratorMatrix(states, rows, index)


def pair_states(size: int, counts: Optional[tuple] = None):
    if counts is None:
        firsts = seconds = list(ring_configs(size))
    else:
        firsts = list(ring_configs(size, counts[0]))
        seconds = list(ring_configs(size, counts[1]))
    for xi in firsts:
        for zeta in seconds:
            yield (xi, zeta)


def coupled_generator(
    spec: RateSpec,
    size: int,
    kind: str,
    counts: Optional[tuple] = None,
    states: Optional[list] = None,
) -> GeneratorMatrix:
    """Generator of the coupled pair chain under the given coupling kind."""
    if size > COUPLED_SIZE_CAP:
        raise ValueError("exact coupled enumeration capped at L=%d" % COUPLED_SIZE_CAP)
    if states is None:
        states = list(pair_states(size, counts))
    index = {s: i for i, s in enumerate(states)}
    rows = []
    for xi, zeta in states:
        _, audits = coupled_transitions(spec, xi, zeta, kind)
        row = {}
        for a in audits:
            j = index[(a.target.first, a.target.second)]
            row[j] = row.get(j, 0) + a.rate
        rows.append(row)
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
    n = len(members)
    # q lives until the solve returns: freed before lstsq, its block leaves
    # a hole in the malloc heap that later solves may or may not reuse, and
    # the peak memory of repeated solves then varies by ~25 MB from run to run
    q = gen.to_dense(members)
    a = np.vstack([q.T, np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    return pi


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
        local = _solve_on_class(gen, members)
        weights = np.zeros(gen.dimension)
        for k, i in enumerate(members):
            weights[i] = local[k]
        out.append(StationaryDistribution(gen.states, weights, _balance_residual(gen, weights)))
    return out


def _balance_residual(gen: GeneratorMatrix, weights: np.ndarray) -> float:
    """max |weights @ Q|, from the sparse rows."""
    flow = np.zeros(gen.dimension)
    for i, row in enumerate(gen.rows):
        w = weights[i]
        if w:
            for j, r in row.items():
                flow[j] += w * float(r)
            flow[i] -= w * float(sum(row.values()))
    return float(np.max(np.abs(flow)))


def stationary_distribution(gen: GeneratorMatrix) -> StationaryDistribution:
    """The unique stationary distribution; raises when the chain has several
    closed classes."""
    dists = stationary_distributions(gen)
    if len(dists) != 1:
        raise ValueError("chain is reducible (%d closed classes)" % len(dists))
    return dists[0]


def uniformized_kernel(gen: GeneratorMatrix):
    """Discrete kernel P = I + Q/lam with lam = _UNIFORM_MARGIN times the
    largest exit rate."""
    lam = max((float(gen.total_rate(i)) for i in range(gen.dimension)), default=1.0)
    lam = lam * _UNIFORM_MARGIN if lam > 0 else 1.0
    q = gen.to_dense()
    p = np.eye(gen.dimension) + q / lam
    return p, lam


def transient_distribution(gen: GeneratorMatrix, start: np.ndarray, t: float) -> np.ndarray:
    """start @ exp(tQ) through uniformization with adaptive Poisson truncation.

    The horizon is cut into steps whose Poisson mean is at most
    ``_POISSON_STEP``, so exp(-mean) never underflows.  Each step sums terms
    until their Poisson mass reaches 1 - 1e-14, and raises if it does not.
    """
    p, lam = uniformized_kernel(gen)
    steps = max(1, math.ceil(lam * t / _POISSON_STEP))
    mean = lam * t / steps
    # 20 standard deviations past the mean: only rounding can keep the
    # summed Poisson mass short of the target there
    limit = int(mean + 20 * math.sqrt(mean)) + 30
    out = start.astype(float)
    for _ in range(steps):
        term = out
        weight = np.exp(-mean)
        out = weight * term
        accumulated = weight
        k = 0
        while accumulated < 1.0 - 1e-14:
            if k == limit:
                raise ValueError(
                    "Poisson mass %r short of 1 after %d terms of mean %r"
                    % (accumulated, k, mean)
                )
            k += 1
            term = term @ p
            weight = weight * mean / k
            out = out + weight * term
            accumulated += weight
    return out


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
    stationary: per state, total inflow must equal total outflow."""
    counts = range(size + 1) if count is None else [count]
    reports = []
    for n in counts:
        gen = single_generator(spec, size, n)
        inflow = [0.0] * gen.dimension
        outflow = [0.0] * gen.dimension
        for i, row in enumerate(gen.rows):
            for j, r in row.items():
                inflow[j] += float(r)
                outflow[i] += float(r)
        worst = 0.0
        worst_state = None
        for i in range(gen.dimension):
            gap = abs(inflow[i] - outflow[i])
            if gap > worst:
                worst = gap
                worst_state = gen.states[i]
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


def audit_order_preservation(spec: RateSpec, size: int, kind: str = "increasing"):
    """Scan every ordered pair for positive-rate moves that break the order."""
    violations = []
    for xi, zeta in pair_states(size):
        if not is_ordered(xi, zeta):
            continue
        _, audits = coupled_transitions(spec, xi, zeta, kind)
        for a in audits:
            if not a.order_preserving:
                violations.append(
                    AuditViolation(
                        CoupledState(xi, zeta), a.move, a.first_jump, a.second_jump, a.rate, a.target
                    )
                )
    return violations


def audit_discrepancy_monotone(spec: RateSpec, size: int, kind: str = "attractive"):
    """Scan every pair for positive-rate moves that increase discrepancies."""
    violations = []
    for xi, zeta in pair_states(size):
        _, audits = coupled_transitions(spec, xi, zeta, kind)
        for a in audits:
            if a.discrepancy_delta > 0:
                violations.append(
                    AuditViolation(
                        CoupledState(xi, zeta), a.move, a.first_jump, a.second_jump, a.rate, a.target
                    )
                )
    return violations


def marginal_errors(spec: RateSpec, size: int, kind: str):
    """Largest gap between each marginal of the coupled chain and the single
    chain, over all pairs and jumps.  Exact zero for exact specs."""
    worst = 0
    for xi, zeta in pair_states(size):
        _, audits = coupled_transitions(spec, xi, zeta, kind)
        first = {}
        second = {}
        for a in audits:
            if a.first_jump is not None:
                first[a.first_jump] = first.get(a.first_jump, 0) + a.rate
            if a.second_jump is not None:
                second[a.second_jump] = second.get(a.second_jump, 0) + a.rate
        for eta, got in ((xi, first), (zeta, second)):
            want = {(x, (x + d) % size): r for x, d, r in active_jumps(spec, eta)}
            for key in set(want) | set(got):
                gap = abs(want.get(key, 0) - got.get(key, 0))
                worst = max(worst, gap)
    return worst


# ---------------------------------------------------------------------------
# Blocking configurations and discrepancy extinction


@dataclass
class BlockingReport:
    blocked: bool
    channels: dict  # offset -> "open" | "closed" | "mixed"


def blocking_scan(spec: RateSpec) -> BlockingReport:
    """Classify each jump channel: open (positive rate under every pattern
    allowing the jump), closed (always zero), or mixed (configuration
    dependent — a blocking channel)."""
    channels = {}
    for d in spec.jump_offsets:
        w = spec.window_halfwidth(d)
        seen_zero = seen_positive = False
        for bits in _all_patterns(2 * w + 1):
            if bits[w] != 1 or bits[w + d] != 0:
                continue  # jump not allowed by exclusion anyway
            if spec.evaluate(bits, d) > 0:
                seen_positive = True
            else:
                seen_zero = True
            if seen_zero and seen_positive:
                break
        if seen_zero and seen_positive:
            channels[d] = "mixed"
        elif seen_positive:
            channels[d] = "open"
        else:
            channels[d] = "closed"
    return BlockingReport(any(v == "mixed" for v in channels.values()), channels)


@dataclass
class ExtinctionReport:
    min_probability: float
    worst_pair: Optional[CoupledState]
    pairs_checked: int


def discrepancy_extinction(spec: RateSpec, size: int, kind: str = "strict") -> ExtinctionReport:
    """Exact probability that the coupled chain started from each unordered
    pair ever reaches a comparable pair (all discrepancies of one sign gone).

    Works sector by sector (particle numbers are conserved).  Refuses specs
    with blocking channels, where comparability need not be reachable.
    """
    blocking = blocking_scan(spec)
    if blocking.blocked:
        mixed = sorted(d for d, v in blocking.channels.items() if v == "mixed")
        raise ValueError(
            "extinction analysis requires configuration-independent open "
            "channels; offsets %s are blocking" % mixed
        )
    min_prob = 1.0
    worst = None
    checked = 0
    for n1 in range(size + 1):
        for n2 in range(size + 1):
            states = list(pair_states(size, (n1, n2)))
            unordered = [s for s in states if not is_ordered(s[0], s[1])]
            if not unordered:
                continue
            gen = coupled_generator(spec, size, kind, states=states)
            members = [gen.state_index[s] for s in unordered]
            inside = set(members)
            n = len(members)
            a = gen.to_dense(members)
            b = np.zeros(n)
            for k, i in enumerate(members):
                for j, r in gen.rows[i].items():
                    if j not in inside:
                        b[k] -= float(r)  # flow into comparable pairs
            # zero-outflow unordered states can never be absorbed
            live = [k for k in range(n) if a[k, k] != 0.0]
            h = np.zeros(n)
            if live:
                sub = np.ix_(live, live)
                h_live = np.linalg.solve(a[sub], b[live])
                for pos, k in enumerate(live):
                    h[k] = h_live[pos]
            for k, s in enumerate(unordered):
                checked += 1
                if h[k] < min_prob:
                    min_prob = float(h[k])
                    worst = CoupledState(*s)
    return ExtinctionReport(min_prob, worst, checked)
