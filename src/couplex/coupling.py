"""Coupling constructions for pairs of exclusion processes on a ring.

Three couplings of two copies of the same finite-range dynamics are built
here, each as a sparse table of coupled jump rates plus residual rates for
moves performed by one copy alone:

* ``increasing`` — for ordered pairs, a coupling that moves both copies
  together as much as possible; built from an overlap function of partial
  rate sums over the discrepancy sets of each departure/arrival site.  It
  preserves the sitewise order whenever the rate rule passes the order
  conditions of :mod:`couplex.monotone`.  Unordered pairs move independently.
* ``attractive`` — defined for arbitrary pairs by composing a coupling of
  (xi, join) with one of (join, zeta) through the join configuration;
  under it the number of discrepancies never increases.  It composes the
  overlap factors of the increasing coupling; on an ordered pair the join is
  the upper copy and the composition gives back the increasing table.
* ``strict`` — the same composition with proportional factors, which spread
  each copy's surplus rate over the partner's discrepancy sites in
  proportion to their rates.

Tables store *raw* coupled rates: occupancy indicator prefactors (departure
occupied, target empty, in each copy) are applied when transitions are
enumerated, not when the table is built.  Residuals are stored for every
jump of the ring, including zero values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .lattice import CoupledState, apply_jump, format_configuration, is_active, join, leq
from .models import RateSpec, active_jumps, rate

KINDS = ("increasing", "attractive", "strict")

#: in float arithmetic, residuals within this distance of 0 count as 0 and
#: residuals further below 0 raise
_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class DiscrepancySets:
    """Ordered discrepancy-site lists around one site, for a pair xi <= zeta.

    For ``role="departure"`` (site doubly occupied): ``main`` holds the
    targets that carry a discrepancy (empty in xi, occupied in zeta) and are
    reachable in xi; ``bar`` holds the doubly empty targets where zeta's rate
    exceeds xi's.  For ``role="arrival"`` (site doubly empty): ``main`` holds
    the doubly occupied sources whose xi-rate exceeds zeta's; ``bar`` holds
    the discrepancy sources that can feed the site in zeta.  Both lists are
    sorted by signed offset from the site.
    """

    site: int
    role: str
    main: tuple
    bar: tuple


@dataclass(frozen=True)
class PartialSumSeries:
    """Nondecreasing partial sums starting at 0, with clamped indexing."""

    partials: tuple

    @classmethod
    def from_terms(cls, terms) -> "PartialSumSeries":
        acc = 0
        out = [acc]
        for t in terms:
            acc = acc + t
            out.append(acc)
        return cls(tuple(out))

    def at(self, n: int):
        """n-th partial sum; indices beyond the end return the limit."""
        if n < 0:
            raise IndexError("partial-sum index must be >= 0")
        return self.partials[min(n, len(self.partials) - 1)]

    def increment(self, n: int):
        return self.partials[n] - self.partials[n - 1]

    @property
    def limit(self):
        return self.partials[-1]


@dataclass
class CouplingTable:
    kind: str
    size: int
    coupled: dict = field(default_factory=dict)  # (x1,y1,x2,y2) -> rate > 0
    residual_first: dict = field(default_factory=dict)  # (x,y) -> rate
    residual_second: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TransitionAudit:
    """One positive-rate move of the coupled chain, with order/discrepancy
    effect relative to the starting pair."""

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


def build_sets(spec: RateSpec, xi, zeta, site: int, role: str) -> DiscrepancySets:
    """Discrepancy sets around `site` for an ordered pair xi <= zeta.

    Occupancy prerequisites that fail (departure site not doubly occupied,
    arrival site not doubly empty) yield empty sets.
    """
    if role not in ("departure", "arrival"):
        raise ValueError("role must be 'departure' or 'arrival', got %r" % role)
    if not leq(xi, zeta):
        raise ValueError("build_sets requires xi <= zeta")
    size = len(xi)
    main = []
    bar = []
    if role == "departure":
        if xi[site] == 1 and zeta[site] == 1:
            for d in sorted(spec.jump_offsets):
                y = (site + d) % size
                if xi[y] == 0 and zeta[y] == 1 and rate(spec, xi, site, y) > 0:
                    main.append(y)
                elif (
                    xi[y] == 0
                    and zeta[y] == 0
                    and rate(spec, zeta, site, y) > rate(spec, xi, site, y)
                ):
                    bar.append(y)
    else:
        if xi[site] == 0 and zeta[site] == 0:
            # sources sit at site - d; ascend by their signed offset -d
            for d in sorted(spec.jump_offsets, reverse=True):
                x = (site - d) % size
                if (
                    xi[x] == 1
                    and zeta[x] == 1
                    and rate(spec, xi, x, site) > rate(spec, zeta, x, site)
                ):
                    main.append(x)
                elif xi[x] == 0 and zeta[x] == 1 and rate(spec, zeta, x, site) > 0:
                    bar.append(x)
    return DiscrepancySets(site, role, tuple(main), tuple(bar))


def partial_sums(spec: RateSpec, xi, zeta, sets: DiscrepancySets):
    """The pair of partial-sum series attached to the discrepancy sets.

    Departure role: (xi-rates over `main`, rate excesses over `bar`).
    Arrival role: (rate excesses over `main`, zeta-rates over `bar`).
    """
    s = sets.site
    if sets.role == "departure":
        main = PartialSumSeries.from_terms(rate(spec, xi, s, y) for y in sets.main)
        bar = PartialSumSeries.from_terms(
            rate(spec, zeta, s, y) - rate(spec, xi, s, y) for y in sets.bar
        )
    else:
        main = PartialSumSeries.from_terms(
            rate(spec, xi, x, s) - rate(spec, zeta, x, s) for x in sets.main
        )
        bar = PartialSumSeries.from_terms(rate(spec, zeta, x, s) for x in sets.bar)
    return main, bar


def h_term(m: int, n: int, s: PartialSumSeries, t: PartialSumSeries):
    """Overlap of the m-th increment of `s` with the n-th increment of `t`,
    as intervals laid end to end from 0.  Always nonnegative."""
    if m < 1 or n < 1:
        raise ValueError("h_term indices start at 1")
    return (
        min(s.at(m), t.at(n))
        - min(s.at(m - 1), t.at(n))
        - min(s.at(m), t.at(n - 1))
        + min(s.at(m - 1), t.at(n - 1))
    )


def _pair_key(role: str, site: int, a: int, b: int):
    if role == "departure":
        return (site, a, site, b)
    return (a, site, b, site)


def _ordered_coupled(spec: RateSpec, xi, zeta) -> dict:
    """Raw coupled map of the increasing coupling for an ordered pair
    xi <= zeta.  Only the positive entries are stored."""
    size = len(xi)
    coupled = {}
    for x, y, _ in _jumps(spec, size):
        g = min(rate(spec, xi, x, y), rate(spec, zeta, x, y))
        if g > 0:
            coupled[(x, y, x, y)] = g
    for site in range(size):
        for role in ("departure", "arrival"):
            sets = build_sets(spec, xi, zeta, site, role)
            if not sets.main or not sets.bar:
                continue
            main, bar = partial_sums(spec, xi, zeta, sets)
            for m, a in enumerate(sets.main, 1):
                for n, b in enumerate(sets.bar, 1):
                    g = h_term(m, n, main, bar)
                    if g > 0:
                        coupled[_pair_key(role, site, a, b)] = g
    return coupled


def _left_factors(spec: RateSpec, lower, upper, x: int, y: int, flavor: str):
    """All pairs (jump, g) with g = G_{lower,upper}(jump; (x,y)) > 0, for an
    ordered pair lower <= upper and a jump (x,y) with upper(x)=1, upper(y)=0.

    By the transpose symmetry of the ordered tables this also yields the
    rates G_{upper,lower}((x,y); jump).
    """
    out = []
    g = min(rate(spec, lower, x, y), rate(spec, upper, x, y))
    if g > 0:
        out.append(((x, y), g))
    if lower[x] == 1:
        # (x,y) can only be the doubly-empty slot of x's departure sets
        if lower[y] == 0 and rate(spec, upper, x, y) > rate(spec, lower, x, y):
            sets = build_sets(spec, lower, upper, x, "departure")
            if sets.main:
                n = sets.bar.index(y) + 1
                main, bar = partial_sums(spec, lower, upper, sets)
                if flavor == "overlap":
                    for m, a in enumerate(sets.main, 1):
                        h = h_term(m, n, main, bar)
                        if h > 0:
                            out.append(((x, a), h))
                else:
                    norm = main.limit if main.limit > 0 else 1
                    db = bar.increment(n)
                    for m, a in enumerate(sets.main, 1):
                        g = main.increment(m) * db
                        g = Fraction(g) / norm if spec.exact else g / norm
                        if g > 0:
                            out.append(((x, a), g))
    else:
        # (x,y) can only be the discrepancy slot of y's arrival sets
        if rate(spec, upper, x, y) > 0:
            sets = build_sets(spec, lower, upper, y, "arrival")
            if sets.main:
                n = sets.bar.index(x) + 1
                main, bar = partial_sums(spec, lower, upper, sets)
                if flavor == "overlap":
                    for m, a in enumerate(sets.main, 1):
                        h = h_term(m, n, main, bar)
                        if h > 0:
                            out.append(((a, y), h))
                else:
                    norm = bar.limit if bar.limit > 0 else 1
                    db = bar.increment(n)
                    for m, a in enumerate(sets.main, 1):
                        g = main.increment(m) * db
                        g = Fraction(g) / norm if spec.exact else g / norm
                        if g > 0:
                            out.append(((a, y), g))
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
    exact = spec.exact
    return [
        (j1 + j2, Fraction(g1 * g2) / norm if exact else g1 * g2 / norm)
        for j1, g1 in left
        for j2, g2 in right
    ]


def _composed_coupled(spec: RateSpec, xi, zeta, flavor: str) -> dict:
    """Raw coupled map of the discrepancy-reducing coupling, for any pair.

    Couples (xi, join) and (join, zeta) through each active jump of the join
    configuration, splitting proportionally to the join's rate.
    """
    size = len(xi)
    mid = join(xi, zeta)
    coupled = {}
    # factors through a zero-rate join jump vanish; active_jumps skips those
    for x, d, norm in active_jumps(spec, mid):
        for key, g in _join_contributions(spec, xi, zeta, mid, x, (x + d) % size, norm, flavor):
            coupled[key] = coupled.get(key, 0) + g
    return coupled


def _transposed(coupled: dict) -> dict:
    return {(x2, y2, x1, y1): g for (x1, y1, x2, y2), g in coupled.items()}


def coupled_mass(coupled: dict, xi, zeta):
    """Coupled rate mass per jump of each copy: ``(phi1, phi2)`` map a jump
    (x, y) of xi (of zeta) to the summed coupled rates it takes part in,
    counting only entries whose partner move is active."""
    phi1 = {}
    phi2 = {}
    for (x1, y1, x2, y2), g in coupled.items():
        if is_active(zeta, x2, y2):
            k = (x1, y1)
            phi1[k] = phi1.get(k, 0) + g
        if is_active(xi, x1, y1):
            k = (x2, y2)
            phi2[k] = phi2.get(k, 0) + g
    return phi1, phi2


def residual_rates(spec: RateSpec, xi, zeta, coupled: dict, marginals, exact: bool) -> tuple:
    """Residual (one-copy) rates of both copies of the pair: each jump's
    marginal rate minus its coupled mass.

    ``marginals`` holds one list ``(x, y, r)`` per copy, r the marginal rate
    of x -> y in that copy; the result holds one list ``(x, y, residual)``
    per copy, in the same order.  Jumps that carry mass but are not listed
    are checked at their rate as well.  In exact arithmetic any negative
    residual raises; in float arithmetic a residual below ``-_RESIDUAL_TOL``
    raises and one within ``_RESIDUAL_TOL`` of 0 counts as 0.  The error
    names the jump, the copy and the pair.
    """
    out = []
    for copy, eta, jumps, mass in zip(
        ("first", "second"), (xi, zeta), marginals, coupled_mass(coupled, xi, zeta)
    ):
        listed = [(x, y, r - mass.get((x, y), 0)) for x, y, r in jumps]
        seen = {(x, y) for x, y, _ in listed}
        unlisted = [
            (x, y, rate(spec, eta, x, y) - m) for (x, y), m in mass.items() if (x, y) not in seen
        ]
        for x, y, r in listed + unlisted:
            if r < (0 if exact else -_RESIDUAL_TOL):
                raise ValueError(
                    "coupled rates exceed the marginal rate at jump (%d, %d) of the %s copy "
                    "(residual %s) in the pair %s / %s"
                    % (x, y, copy, r, format_configuration(xi), format_configuration(zeta))
                )
        out.append([(x, y, r if exact or r > _RESIDUAL_TOL else 0) for x, y, r in listed])
    return tuple(out)


def _finish(spec: RateSpec, xi, zeta, kind: str, coupled: dict) -> CouplingTable:
    """Attach residual (uncoupled) rates for every jump of the ring."""
    table = CouplingTable(kind, len(xi), coupled)
    ring = _jumps(spec, len(xi))
    marginals = [[(x, y, rate(spec, eta, x, y)) for x, y, _ in ring] for eta in (xi, zeta)]
    first, second = residual_rates(spec, xi, zeta, coupled, marginals, spec.exact)
    table.residual_first = {(x, y): r for x, y, r in first}
    table.residual_second = {(x, y): r for x, y, r in second}
    return table


def increasing_rates(spec: RateSpec, xi, zeta) -> CouplingTable:
    """Order-preserving coupling table.  For unordered pairs the coupled map
    is empty and each copy moves independently."""
    if leq(xi, zeta):
        coupled = _ordered_coupled(spec, xi, zeta)
    elif leq(zeta, xi):
        coupled = _transposed(_ordered_coupled(spec, zeta, xi))
    else:
        coupled = {}
    return _finish(spec, xi, zeta, "increasing", coupled)


def attractive_rates(spec: RateSpec, xi, zeta, flavor: str = "overlap") -> CouplingTable:
    """Discrepancy-non-increasing coupling table, defined for every pair."""
    kind = "attractive" if flavor == "overlap" else "strict"
    return _finish(spec, xi, zeta, kind, _composed_coupled(spec, xi, zeta, flavor))


def coupling_table(spec: RateSpec, xi, zeta, kind: str) -> CouplingTable:
    """Build the coupling table of the requested kind.

    ``increasing`` couples only ordered pairs; ``attractive`` composes
    increasing tables through the join and works for every pair; ``strict``
    composes proportional tables through the join.
    """
    if kind == "increasing":
        return increasing_rates(spec, xi, zeta)
    if kind == "attractive":
        return attractive_rates(spec, xi, zeta, "overlap")
    if kind == "strict":
        return attractive_rates(spec, xi, zeta, "proportional")
    raise ValueError("kind must be one of %s, got %r" % (", ".join(KINDS), kind))


def coupled_transitions(spec: RateSpec, xi, zeta, kind: str, table: CouplingTable | None = None):
    """All positive-rate moves of the coupled chain out of (xi, zeta).

    Returns (table, audits); occupancy prefactors are applied here, so the
    audit rates are the true coupled generator rates.
    """
    if table is None:
        table = coupling_table(spec, xi, zeta, kind)
    start = CoupledState(tuple(xi), tuple(zeta))
    start_ordered = start.ordered
    start_disc = start.discrepancies
    audits = []

    def push(move, j1, j2, r, new_xi, new_zeta):
        target = CoupledState(new_xi, new_zeta)
        audits.append(
            TransitionAudit(
                move,
                j1,
                j2,
                r,
                target,
                (not start_ordered) or target.ordered,
                target.discrepancies - start_disc,
            )
        )

    for (x1, y1, x2, y2), g in table.coupled.items():
        if g > 0 and is_active(xi, x1, y1) and is_active(zeta, x2, y2):
            push(
                "coupled",
                (x1, y1),
                (x2, y2),
                g,
                apply_jump(xi, x1, y1),
                apply_jump(zeta, x2, y2),
            )
    for (x, y), r in table.residual_first.items():
        if r > 0 and is_active(xi, x, y):
            push("first", (x, y), None, r, apply_jump(xi, x, y), tuple(zeta))
    for (x, y), r in table.residual_second.items():
        if r > 0 and is_active(zeta, x, y):
            push("second", None, (x, y), r, tuple(xi), apply_jump(zeta, x, y))
    return table, audits


# ---------------------------------------------------------------------------
# Independent prefix-sum construction of the increasing table


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
    """Rebuild the increasing coupling through prefix sums and compare entry
    by entry with the set/series construction."""
    if leq(xi, zeta):
        prefix = _prefix_coupled(spec, xi, zeta)
    elif leq(zeta, xi):
        prefix = _transposed(_prefix_coupled(spec, zeta, xi))
    else:
        raise ValueError("oneD_cross_check requires an ordered pair")
    table = increasing_rates(spec, xi, zeta)
    tol = 0 if spec.exact else 1e-12
    mismatches = []
    for key in sorted(set(prefix) | set(table.coupled)):
        a = table.coupled.get(key, 0)
        b = prefix.get(key, 0)
        if abs(a - b) > tol:
            mismatches.append((key, a, b))
    return CrossCheckReport(not mismatches, mismatches)
