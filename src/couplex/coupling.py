"""Coupling constructions for pairs of exclusion processes on a ring.

Three couplings of two copies of the same finite-range dynamics are built
here, each as a sparse table of coupled jump rates plus residual rates for
moves performed by one copy alone.  All three come from one construction:
for each active jump of the join configuration (the sitewise maximum of the
two copies), a coupling of (xi, join) is composed with one of (join, zeta),
splitting in proportion to the join's rate.  The factors of an ordered pair
lower <= upper are read off the discrepancy sets that :func:`_sets` lists,
with their rates, around each departure/arrival site, and off the partial
sums of those rates; the kinds differ only in the factor flavor
(``FLAVOR``) and in which pairs they couple:

* ``attractive`` — overlap factors, for every pair; under it the number of
  discrepancies never increases.
* ``increasing`` — the same composition on an ordered pair, where the join is
  the upper copy and the composition moves both copies together as much as
  possible.  It preserves the sitewise order whenever the rate rule passes
  the order conditions of :mod:`couplex.monotone`.  An unordered pair is left
  uncoupled: each copy moves alone.
* ``strict`` — proportional factors, which spread each copy's surplus rate
  over the partner's discrepancy sites in proportion to their rates.

The factors through a join jump x -> x + d read only x's departure window
and x + d's arrival window, the same windows that the two order conditions
scan (:class:`couplex.models.RateSpec` states them): the sites
``spec._spans[d]`` around x, 6 and 5 sites for traffic2's offsets 1 and 2.
So the entries through the jumps out of one site (``_site_entries``) are
memoised per flavor, offset and the pair pattern of that offset's span in
the spec's ``_compositions``, which lives as long as the spec.  The tables
here walk them over the ring (:func:`coupling_table`); the coupled
simulator of :mod:`couplex.simulate` keeps them per site, in floats, and
refreshes only the sites whose spans hold a site a jump moved.

Tables hold only the moves a pair can make: :func:`_compose` keeps a
composed entry only when both of its jumps are active (departure occupied,
target empty, in its copy), and a residual is stored for each copy's active
jumps (:func:`couplex.models.active_jumps`) whose rate the coupled entries
do not use up.  So every entry of a table is a move with positive rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .lattice import (
    CoupledState,
    _check_occupancy,
    apply_jump,
    format_configuration,
    is_active,
    is_ordered,
    join,
    leq,
)
from .models import RateSpec, _check_ring, active_jumps, rate

#: the factor flavor each coupling kind composes through the join
FLAVOR = {"increasing": "overlap", "attractive": "overlap", "strict": "proportional"}
KINDS = tuple(FLAVOR)

#: in float arithmetic, residuals within this distance of 0 count as 0 and
#: residuals further below 0 raise
_RESIDUAL_TOL = 1e-9


@dataclass
class CouplingTable:
    """The moves of one pair, each with its positive rate: both copies
    jump, or one copy alone."""

    coupled: dict = field(default_factory=dict)  # (x1,y1,x2,y2) -> rate > 0, both jumps active
    residual_first: dict = field(default_factory=dict)  # active (x,y) -> lone rate > 0
    residual_second: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TransitionAudit:
    """One positive-rate move of the coupled chain out of ``pair``, with
    its order/discrepancy effect relative to that pair."""

    pair: CoupledState
    move: str  # "coupled" | "first" | "second"
    first_jump: Optional[tuple]
    second_jump: Optional[tuple]
    rate: object
    target: CoupledState
    order_preserving: bool
    discrepancy_delta: int


@dataclass
class CrossCheckReport:
    equal: bool
    mismatches: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.equal


def _jumps(spec: RateSpec, size: int):
    return [
        (x, (x + d) % size, d) for x in range(size) for d in spec.jump_offsets
    ]


def _sets(spec: RateSpec, lower, upper, site: int, departure: bool):
    """The discrepancy sets around ``site`` for an ordered pair lower <= upper,
    each a list of ``(site, term)`` in signed-offset order, term > 0.

    Departure (``site`` doubly occupied): ``main`` holds the discrepancy
    targets (empty in lower, occupied in upper) with lower's rate; ``bar``
    the doubly empty targets where upper's rate exceeds lower's, with the
    excess.  Arrival (``site`` doubly empty): ``main`` holds the doubly
    occupied sources where lower's rate exceeds upper's, with the excess;
    ``bar`` the discrepancy sources with upper's rate.  The caller ensures
    the order and the occupancy of ``site``.
    """
    size = len(lower)
    main = []
    bar = []
    if departure:
        for d in spec.jump_offsets:
            y = (site + d) % size
            if lower[y]:
                continue
            if upper[y]:
                low = rate(spec, lower, site, y)
                if low > 0:
                    main.append((y, low))
            else:
                high, low = rate(spec, upper, site, y), rate(spec, lower, site, y)
                if high > low:
                    bar.append((y, high - low))
    else:
        # sources sit at site - d; ascend by their signed offset -d
        for d in reversed(spec.jump_offsets):
            x = (site - d) % size
            if not upper[x]:
                continue
            if lower[x]:
                low, high = rate(spec, lower, x, site), rate(spec, upper, x, site)
                if low > high:
                    main.append((x, low - high))
            else:
                high = rate(spec, upper, x, site)
                if high > 0:
                    bar.append((x, high))
    return main, bar


def _left_factors(spec: RateSpec, lower, upper, x: int, y: int, flavor: str):
    """All pairs (jump, g) with g = G_{lower,upper}(jump; (x,y)) > 0, for an
    ordered pair lower <= upper and a jump (x,y) with upper(x)=1, upper(y)=0.

    By the transpose symmetry of the ordered tables this also yields the
    rates G_{upper,lower}((x,y); jump).
    """
    out = []
    low, high = rate(spec, lower, x, y), rate(spec, upper, x, y)
    g = min(low, high)
    if g > 0:
        out.append(((x, y), g))
    departure = lower[x] == 1
    if departure:
        # (x,y) can only be the doubly-empty slot of x's departure sets
        if lower[y] == 1 or high <= low:
            return out
        site, slot = x, y
    else:
        # (x,y) can only be the discrepancy slot of y's arrival sets
        if high <= 0:
            return out
        site, slot = y, x
    main, bar = _sets(spec, lower, upper, site, departure)
    if not main:
        return out
    n = [b for b, _ in bar].index(slot) + 1
    s = list(accumulate((term for _, term in main), initial=0))
    t = list(accumulate((term for _, term in bar), initial=0))
    norm = (s if departure else t)[-1] or 1
    for m, (a, _) in enumerate(main, 1):
        if flavor == "overlap":
            # overlap of s's m-th and t's n-th increments, laid end to end from 0
            g = min(s[m], t[n]) - min(s[m - 1], t[n]) - min(s[m], t[n - 1]) + min(s[m - 1], t[n - 1])
        else:
            g = _ratio((s[m] - s[m - 1]) * (t[n] - t[n - 1]), norm)
        if g > 0:
            out.append(((site, a) if departure else (a, site), g))
    return out


def _join_contributions(spec: RateSpec, xi, zeta, mid, x: int, y: int, norm, flavor: str):
    """Composed coupled entries through the join jump (x, y) of rate norm > 0.

    Each entry is ``((x1, y1, x2, y2), g)`` with
    g = G_{xi,mid}((x1,y1); (x,y)) * G_{mid,zeta}((x,y); (x2,y2)) / norm.
    """
    left = _left_factors(spec, xi, mid, x, y, flavor)
    if not left:
        return []
    right = _left_factors(spec, zeta, mid, x, y, flavor)
    return [(j1 + j2, _ratio(g1 * g2, norm)) for j1, g1 in left for j2, g2 in right]


def _ratio(a, b):
    """a / b, exact unless a float enters."""
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    return Fraction(a) / b


def _compose(spec: RateSpec, flavor: str, centre: int, d: int, window):
    """Entries ``(dx1, dy1, dx2, dy2, g)`` through the join jump of offset d
    out of site ``centre`` of ``window``, a pair pattern ``(xi << 1) | zeta``
    that holds at least the sites of ``spec._spans[d]`` around it; sites are
    relative to the departure.  Only entries whose two jumps are active are
    kept: the others are not moves of the pair.  Returns them twice, with g
    raw and as float(g)."""
    xi = tuple(p >> 1 for p in window)
    zeta = tuple(p & 1 for p in window)
    mid = join(xi, zeta)
    x, y = centre, centre + d
    norm = rate(spec, mid, x, y)
    if norm <= 0:
        return (), ()
    raw = tuple(
        (x1 - centre, y1 - centre, x2 - centre, y2 - centre, g)
        for (x1, y1, x2, y2), g in _join_contributions(spec, xi, zeta, mid, x, y, norm, flavor)
        if is_active(xi, x1, y1) and is_active(zeta, x2, y2)
    )
    return raw, tuple(entry[:4] + (float(entry[4]),) for entry in raw)


def _site_entries(spec: RateSpec, xi, zeta, x: int, flavor: str, floats: bool = False) -> list:
    """Composed entries ``((x1, y1, x2, y2), g)`` through the join jumps out
    of site x, in offset order; empty unless x is occupied in the join.

    The entries of offset d come from ``spec._compositions[flavor]``, keyed
    by d and the pair pattern of the sites ``spec._spans[d]`` around x, the
    only sites they read, and are mapped back to ring sites; g is raw, or
    its float with ``floats``.  So the entries of x change only when a site
    of ``spec._span`` around x changes.
    """
    if not (xi[x] or zeta[x]):
        return []
    size = len(xi)
    memo = spec._compositions.setdefault(flavor, {})
    lo, hi = spec._span
    column = 1 if floats else 0
    window = tuple(
        (xi[(x + k) % size] << 1) | zeta[(x + k) % size] for k in range(lo, hi + 1)
    )
    out = []
    for d, (a, b) in spec._spans.items():
        if window[d - lo]:
            continue  # join-occupied target
        key = (d, window[a - lo : b - lo + 1])
        entries = memo.get(key)
        if entries is None:
            entries = memo[key] = _compose(spec, flavor, -a, d, key[1])
        for dx1, dy1, dx2, dy2, g in entries[column]:
            out.append(
                (((x + dx1) % size, (x + dy1) % size, (x + dx2) % size, (x + dy2) % size), g)
            )
    return out


def _sum_entries(per_site) -> dict:
    """The coupled map of per-site entry lists, added up in site order."""
    coupled = {}
    for entries in per_site:
        for key, g in entries:
            # g itself, not 0 + g: the same value and type, without an add
            coupled[key] = coupled[key] + g if key in coupled else g
    return coupled


def _transposed(coupled: dict) -> dict:
    return {(x2, y2, x1, y1): g for (x1, y1, x2, y2), g in coupled.items()}


def residual_rates(xi, zeta, coupled: dict, marginals) -> tuple:
    """Residual (one-copy) rates of both copies of the pair: each active
    jump's marginal rate minus the coupled rates it takes part in.

    ``marginals`` holds one list ``(x, y, r)`` per copy of that copy's
    active jumps, r the marginal rate of x -> y; the result holds one list
    ``(x, y, residual)`` per copy, in the same order.  Every jump of a
    coupled entry is active, so it is listed.  An exact (int or Fraction)
    residual raises when negative; a float residual below
    ``-_RESIDUAL_TOL`` raises and one within ``_RESIDUAL_TOL`` of 0 counts
    as 0.  The error names the jump, the copy and the pair.
    """
    phi1 = {}
    phi2 = {}
    for (x1, y1, x2, y2), g in coupled.items():
        k = (x1, y1)
        phi1[k] = phi1[k] + g if k in phi1 else g
        k = (x2, y2)
        phi2[k] = phi2[k] + g if k in phi2 else g
    out = []
    for copy, jumps, mass in zip(("first", "second"), marginals, (phi1, phi2)):
        rows = []
        for x, y, r in jumps:
            if (x, y) in mass:
                r = r - mass[x, y]
                if r < (-_RESIDUAL_TOL if isinstance(r, float) else 0):
                    raise ValueError(
                        "coupled rates exceed the marginal rate at jump (%d, %d) of the %s copy "
                        "(residual %s) in the pair %s / %s"
                        % (x, y, copy, r, format_configuration(xi), format_configuration(zeta))
                    )
            # the type test first: comparing a Fraction with a float is slow
            rows.append((x, y, r if not isinstance(r, float) or r > _RESIDUAL_TOL else 0))
        out.append(rows)
    return tuple(out)


def _uncoupled(kind: str, ordered: bool) -> bool:
    """True if the kind couples no move of a pair that is ``ordered`` or
    not: the increasing coupling leaves an unordered pair uncoupled."""
    return kind == "increasing" and not ordered


def _flavor(kind: str) -> str:
    """The factor flavor of a coupling kind; ValueError for an unknown kind."""
    if kind not in FLAVOR:
        raise ValueError("kind must be one of %s, got %r" % (", ".join(KINDS), kind))
    return FLAVOR[kind]


def coupling_table(spec: RateSpec, xi, zeta, kind: str) -> CouplingTable:
    """Build the coupling table of the requested kind.

    Every kind composes coupling factors through the join: ``attractive``
    with overlap factors, for every pair; ``increasing`` likewise on an
    ordered pair, where the join is the upper copy, and with an empty coupled
    map on an unordered pair; ``strict`` with proportional factors.

    The coupled map adds the per-site composed entries
    (:func:`_site_entries`) in site order; on a ring of at least
    ``min_ring_size`` sites a pattern's entries land on distinct ring sites,
    so the memo serves small rings too.
    """
    flavor = _flavor(kind)
    size = len(xi)
    _check_ring(spec, size)
    _check_occupancy(xi)
    _check_occupancy(zeta)
    coupled = {}
    if not _uncoupled(kind, is_ordered(xi, zeta)):
        coupled = _sum_entries(_site_entries(spec, xi, zeta, x, flavor) for x in range(size))
    marginals = [[(x, (x + d) % size, r) for x, d, r in active_jumps(spec, eta)] for eta in (xi, zeta)]
    lone = residual_rates(xi, zeta, coupled, marginals)
    return CouplingTable(coupled, *({(x, y): r for x, y, r in rows if r > 0} for rows in lone))


def _moves(table: CouplingTable):
    """Yield the table's moves ``(move, first_jump, second_jump, rate)``:
    coupled, then the first copy's, then the second's."""
    for (x1, y1, x2, y2), g in table.coupled.items():
        yield "coupled", (x1, y1), (x2, y2), g
    for jump, r in table.residual_first.items():
        yield "first", jump, None, r
    for jump, r in table.residual_second.items():
        yield "second", None, jump, r


def _target(xi: tuple, zeta: tuple, j1, j2) -> tuple:
    """The pair (xi, zeta) after a move whose jumps are j1 and j2, None for
    a copy that stays."""
    return apply_jump(xi, *j1) if j1 else xi, apply_jump(zeta, *j2) if j2 else zeta


def coupled_transitions(spec: RateSpec, xi, zeta, kind: str) -> list:
    """The audits of all positive-rate moves of the coupled chain out of
    (xi, zeta), in the order of the coupling table's moves; the table holds
    only moves of the pair, so the audit rates are the coupled generator
    rates."""
    xi, zeta = tuple(xi), tuple(zeta)
    pair = CoupledState(xi, zeta)
    start_ordered = is_ordered(xi, zeta)
    audits = []
    for move, j1, j2, r in _moves(coupling_table(spec, xi, zeta, kind)):
        new_xi, new_zeta = _target(xi, zeta, j1, j2)
        target = CoupledState(new_xi, new_zeta)
        # the pair changes only at the jump sites
        sites = {*(j1 or ()), *(j2 or ())}
        audits.append(
            TransitionAudit(
                pair,
                move,
                j1,
                j2,
                r,
                target,
                (not start_ordered) or target.ordered,
                sum((new_xi[s] != new_zeta[s]) - (xi[s] != zeta[s]) for s in sites),
            )
        )
    return audits


# ---------------------------------------------------------------------------
# Oracle: an independent prefix-sum construction of the increasing table


def _prefix_coupled(spec: RateSpec, xi, zeta) -> dict:
    """The increasing coupled map recomputed through running prefix minima
    over all candidate sites (set membership never consulted)."""
    size = len(xi)
    coupled = {}
    for x, y, _ in _jumps(spec, size):
        g = min(rate(spec, xi, x, y), rate(spec, zeta, x, y))
        if g > 0:
            coupled[(x, y, x, y)] = g
    offsets = sorted(spec.jump_offsets)
    for x in range(size):
        if not (xi[x] == 1 and zeta[x] == 1):
            continue
        # prefix sums over targets, in signed-offset order
        prev_a = prev_b = 0
        cum = []  # (target, a_before, a_after, b_before, b_after)
        for d in offsets:
            y = (x + d) % size
            a_inc = (1 - xi[y]) * zeta[y] * rate(spec, xi, x, y)
            b_inc = (1 - zeta[y]) * max(
                rate(spec, zeta, x, y) - rate(spec, xi, x, y), 0
            )
            cum.append((y, prev_a, prev_a + a_inc, prev_b, prev_b + b_inc))
            prev_a += a_inc
            prev_b += b_inc
        for y1, a0, a1, _, _ in cum:
            for y2, _, _, b0, b1 in cum:
                if y1 == y2:
                    continue
                g = min(a1, b1) - max(a0, b0)
                if g > 0:
                    key = (x, y1, x, y2)
                    coupled[key] = coupled.get(key, 0) + g
    for y in range(size):
        if not (xi[y] == 0 and zeta[y] == 0):
            continue
        prev_a = prev_b = 0
        cum = []
        for d in sorted(offsets, reverse=True):  # sources ascend by offset -d
            x = (y - d) % size
            a_inc = xi[x] * max(rate(spec, xi, x, y) - rate(spec, zeta, x, y), 0)
            b_inc = zeta[x] * (1 - xi[x]) * rate(spec, zeta, x, y)
            cum.append((x, prev_a, prev_a + a_inc, prev_b, prev_b + b_inc))
            prev_a += a_inc
            prev_b += b_inc
        for x1, a0, a1, _, _ in cum:
            for x2, _, _, b0, b1 in cum:
                if x1 == x2:
                    continue
                g = min(a1, b1) - max(a0, b0)
                if g > 0:
                    key = (x1, y, x2, y)
                    coupled[key] = coupled.get(key, 0) + g
    return coupled


def oneD_cross_check(spec: RateSpec, xi, zeta) -> CrossCheckReport:
    """Rebuild the increasing coupling through prefix sums and compare it
    with :func:`coupling_table` on every entry whose two jumps are active:
    the oracle keeps every rate-field value, the table only the moves."""
    if leq(xi, zeta):
        prefix = _prefix_coupled(spec, xi, zeta)
    elif leq(zeta, xi):
        prefix = _transposed(_prefix_coupled(spec, zeta, xi))
    else:
        raise ValueError("oneD_cross_check requires an ordered pair")
    prefix = {k: g for k, g in prefix.items() if is_active(xi, *k[:2]) and is_active(zeta, *k[2:])}
    table = coupling_table(spec, xi, zeta, "increasing")
    mismatches = []
    for key in sorted(set(prefix) | set(table.coupled)):
        a = table.coupled.get(key, 0)
        b = prefix.get(key, 0)
        gap = abs(a - b)
        if gap > (1e-12 if isinstance(gap, float) else 0):
            mismatches.append((key, a, b))
    return CrossCheckReport(not mismatches, mismatches)
