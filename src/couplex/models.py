"""Finite-range jump-rate specifications and the built-in model family.

A :class:`RateSpec` describes a translation-invariant exclusion dynamics: a
finite set of jump displacements together with a local rule that maps the
occupancy pattern around the departure site to a nonnegative jump rate.  The
rule for a jump of displacement ``d`` may read sites within distance
``dep_radius + |d|`` of the departure site, so both endpoints of the jump are
always inside the window.

Rates are evaluated lazily on occupancy windows and cached per displacement,
which keeps exhaustive enumeration (2^window patterns) and large-ring
simulation fast.  Every rate is read through :func:`_lookup`.  Exactness
follows the rates a rule returns: readers compute exactly on ``int`` and
:class:`fractions.Fraction` rates (the built-in models return those for
``int`` or ``Fraction`` parameters) and in float arithmetic, with a
tolerance, once a float enters.
"""

from __future__ import annotations

import inspect
import math
import numbers
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .lattice import Config, signed_offset

Number = object  # int | float | Fraction


def _check_nonnegative(name: str, value) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError("parameter %s must be finite, got %r" % (name, value))
    if value < 0:
        raise ValueError("parameter %s must be nonnegative, got %r" % (name, value))


def _offset(d) -> int:
    """A jump displacement as an int; ValueError unless it is an integer."""
    if not isinstance(d, numbers.Integral):
        raise ValueError("jump displacement must be an integer, got %r" % (d,))
    return int(d)


def _radius(r) -> int:
    """A dependence radius as an int; ValueError unless it is a
    nonnegative integer (a bool is not)."""
    if not isinstance(r, numbers.Integral) or isinstance(r, bool) or r < 0:
        raise ValueError("dep_radius must be an integer >= 0, got %r" % (r,))
    return int(r)


def _jump_law(model: str, name: str, law: Mapping) -> dict:
    """The jump law ``law`` of a model with int displacements; ValueError for
    a displacement that is 0 or not an integer, or a weight that is negative
    or not finite."""
    out = {}
    for d, v in law.items():
        d = _offset(d)
        if d == 0:
            raise ValueError("%s: displacement 0 is not allowed" % model)
        _check_nonnegative("%s[%d]" % (name, d), v)
        out[d] = v
    return out


class RateSpec:
    """A translation-invariant, finite-range jump-rate rule.

    Parameters
    ----------
    name : str
        Identifier used in reports and serialized configs.
    jump_offsets : sequence of int
        Allowed displacements d (nonzero); a particle at x may jump to x+d.
    dep_radius : int
        The rate of a jump of displacement d may depend on occupancies within
        distance ``dep_radius + |d|`` of the departure site.
    evaluate : callable(window, d) -> rate
        ``window`` is the occupancy tuple of the sites
        ``x - w .. x + w`` with ``w = dep_radius + |d|`` (departure site at
        index ``w``).  Must return a nonnegative number and may ignore the
        occupancy of the two endpoints or not; by convention the exclusion
        constraint (departure occupied, target empty) is applied outside.
    params : mapping
        The defining parameters, kept for reporting and serialization.

    Every window a check reads is stated here once.  The jumps out of a site
    read the sites within ``_reach`` of it (its departure window), and the
    jumps into an empty site read the sites ``_arrival`` around it (its
    arrival window); the two order conditions of :mod:`couplex.monotone` scan
    exactly these.  A join jump x -> x + d of a coupling reads x's departure
    window and x + d's arrival window, whose hull is ``_spans[d]``.
    """

    def __init__(
        self,
        name: str,
        jump_offsets: Sequence[int],
        dep_radius: int,
        evaluate: Callable,
        params: Mapping | None = None,
    ):
        offsets = tuple(sorted(set(_offset(d) for d in jump_offsets)))
        if not offsets or any(d == 0 for d in offsets):
            raise ValueError("jump offsets must be nonzero and nonempty: %r" % (jump_offsets,))
        self.name = name
        self.jump_offsets = offsets
        self.dep_radius = _radius(dep_radius)
        self._evaluate = evaluate
        self.params = dict(params or {})
        self.max_offset = max(abs(d) for d in offsets)
        #: window half-width per jump offset, read by every rate lookup
        self._halfwidths = {d: self.dep_radius + abs(d) for d in offsets}
        #: how far the jumps out of a site read on either side of it: the
        #: window of its event pattern and of the departure condition
        self._reach = self.dep_radius + self.max_offset
        #: the sites (lo, hi) around an empty site that the jumps into it
        #: read: the window of the arrival condition
        self._arrival = (
            min(-d - w for d, w in self._halfwidths.items()),
            max(-d + w for d, w in self._halfwidths.items()),
        )
        #: smallest ring on which distinct sites cover every rate window
        self.min_ring_size = 2 * self._reach + 1
        #: rate per offset and window tuple, filled by :meth:`evaluate`
        self._tables: dict = {}
        #: per offset d, the sites lo..hi around a site x that the jumps out
        #: of x and into x + d read: the hull of x's departure window and
        #: x + d's arrival window
        lo, hi = self._arrival
        self._spans = {d: (min(-self._reach, d + lo), max(self._reach, d + hi)) for d in offsets}
        #: the sites around x that every span covers: a span's ends grow
        #: with d, so the first offset's span starts it and the last's ends it
        self._span = (self._spans[offsets[0]][0], self._spans[offsets[-1]][1])
        #: composed coupling entries per flavor, filled by couplex.coupling
        self._compositions: dict = {}
        #: float events and total per site pattern, filled by _fill_site_events
        self._site_events: dict = {}

    def __repr__(self) -> str:
        inner = ", ".join("%s=%r" % kv for kv in self.params.items())
        return "%s(%s)" % (self.name, inner)

    def evaluate(self, window, d: int):
        """Rate of a jump with displacement d given the local window; raises
        ``ValueError`` on an offset the spec does not have, a window of the
        wrong size, or a negative or non-finite rate."""
        w = self._halfwidths.get(d)
        if w is None:
            raise ValueError(
                "offset %r is not a jump offset of %r (offsets %s)" % (d, self, self.jump_offsets)
            )
        if len(window) != 2 * w + 1:
            raise ValueError(
                "window for offset %d must have %d sites, got %d"
                % (d, 2 * w + 1, len(window))
            )
        table = self._tables.get(d)
        if table is None:
            table = self._tables[d] = {}
        window = tuple(window)
        try:
            return table[window]
        except KeyError:
            value = self._evaluate(window, d)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError("rate is not finite for offset %d, window %r" % (d, window))
            if value < 0:
                raise ValueError("negative rate %r for offset %d, window %r" % (value, d, window))
            table[window] = value
            return value


def rate(spec: RateSpec, eta: Config, x: int, y: int):
    """Jump rate from x to y in configuration eta on a ring.

    The displacement is taken as the representative of y - x in
    (-L/2, L/2]; it must be one of the spec's jump offsets, otherwise the
    rate is 0.  The ring must be large enough that the rate window does not
    wrap onto itself.
    """
    size = len(eta)
    d = signed_offset(x, y, size)
    if d not in spec.jump_offsets:
        return 0
    _check_ring(spec, size)
    return _window_rate(spec, eta, x, d)


def active_jumps(spec: RateSpec, eta: Config, sites=None) -> list:
    """Positive-rate jumps ``(x, d, r)`` out of eta, in site order, then in
    offset order.

    A jump is active when its departure site is occupied and its target
    empty; ``r`` is the raw rate, so exact parameters stay exact.  ``sites``
    restricts the departure sites (default: the whole ring, in order).
    """
    size = len(eta)
    _check_ring(spec, size)
    out = []
    for x in range(size) if sites is None else sites:
        if not eta[x]:
            continue
        for d in spec.jump_offsets:
            if eta[(x + d) % size]:
                continue
            r = _window_rate(spec, eta, x, d)
            if r > 0:
                out.append((x, d, r))
    return out


def _fill_site_events(spec: RateSpec, key: tuple) -> tuple:
    """Fill ``spec._site_events[key]`` for an occupied site with the pattern
    ``key`` around it: its active jumps ``(float(rate), d)`` in offset order
    and their float total.  Readers call this on a memo miss only."""
    events = tuple((float(r), d) for _, d, r in active_jumps(spec, key, (len(key) // 2,)))
    entry = spec._site_events[key] = (events, sum((r for r, _ in events), 0.0))
    return entry


def _check_ring(spec: RateSpec, size: int) -> None:
    if size < spec.min_ring_size:
        raise ValueError(
            "ring of %d sites is too small for %s (needs >= %d)"
            % (size, spec.name, spec.min_ring_size)
        )


def _lookup(spec: RateSpec, window: tuple, d: int):
    """Rate of offset d on a window tuple: a table read, with
    :meth:`RateSpec.evaluate` and its checks run only on a miss."""
    try:
        return spec._tables[d][window]
    except KeyError:
        return spec.evaluate(window, d)


def _window_rate(spec: RateSpec, eta: Config, x: int, d: int):
    size = len(eta)
    w = spec._halfwidths[d]
    lo, hi = x - w, x + w + 1
    if lo < 0:
        window = tuple(eta[lo:]) + tuple(eta[:hi])
    elif hi > size:
        window = tuple(eta[lo:]) + tuple(eta[: hi - size])
    else:
        window = tuple(eta[lo:hi])
    return _lookup(spec, window, d)


# ---------------------------------------------------------------------------
# Built-in models


def sep(p: Mapping[int, Number] | None = None) -> RateSpec:
    """Simple exclusion: constant rate p(d) for each displacement d.

    Default is the totally asymmetric nearest-neighbour walk p = {1: 1}.
    """
    if p is None:
        p = {1: 1}
    p = _jump_law("sep", "p", p)
    if not any(v > 0 for v in p.values()):
        raise ValueError("sep: at least one displacement needs a positive rate")
    offsets = tuple(d for d, v in p.items() if v > 0)

    def evaluate(window, d):
        return p[d]

    return RateSpec("sep", offsets, 0, evaluate, {"p": dict(p)})


def speed_change_decreasing(span: int = 2) -> RateSpec:
    """Uniform jumps over 0 < d <= span, slowed down by a local crowding term.

    The jump rate is c(eta, x) = 2*span - eta(x)*eta(x+1) for every target,
    so occupation of the adjacent pair lowers the speed: rates are
    nonincreasing in the occupancy of other sites.
    """
    if span < 1:
        raise ValueError("span must be >= 1")
    offsets = tuple(range(1, span + 1))

    def evaluate(window, d):
        w = abs(d)  # dep_radius = 0
        return 2 * span - window[w] * window[w + 1]

    return RateSpec("speed_change_decreasing", offsets, 0, evaluate, {"span": span})


def speed_change_increasing(
    q: Mapping[int, Number] | None = None, strength: Number = 1
) -> RateSpec:
    """Jumps sped up by vacancies: rate q(d) * strength / u where u is the
    q-weighted number of empty neighbours of the departure site.

    With u = sum_d' q(d') (1 - eta(x+d')) the total outgoing rate is exactly
    ``strength`` whenever some weighted neighbour is empty; if all weighted
    neighbours are occupied (u = 0) every rate is 0.  Rates are nondecreasing
    in the occupancy of other sites.
    """
    if q is None:
        q = {1: 1, -1: 1}
    q = _jump_law("speed_change_increasing", "q", q)
    support = tuple(d for d, v in q.items() if v > 0)
    if not support:
        raise ValueError("speed_change_increasing: q must have positive support")
    _check_nonnegative("strength", strength)
    if isinstance(strength, bool) or (isinstance(strength, int)):
        strength = Fraction(strength)
    radius = max(0, max(abs(d) for d in support) - min(abs(d) for d in support))

    def evaluate(window, d):
        w = radius + abs(d)
        u = 0
        for dp in support:
            u += q[dp] * (1 - window[w + dp])
        if u == 0:
            return 0
        return q[d] * strength / u

    return RateSpec(
        "speed_change_increasing",
        support,
        radius,
        evaluate,
        {"q": dict(q), "strength": strength},
    )


def traffic2(alpha: Number, beta: Number) -> RateSpec:
    """Two-range traffic model: hops of 1 at rate 1, hops of 2 at a rate set
    by the intermediate site, alpha when it is occupied and beta when empty.
    """
    _check_nonnegative("alpha", alpha)
    _check_nonnegative("beta", beta)

    def evaluate(window, d):
        if d == 1:
            return 1
        mid = window[3]  # site x+1 in the 5-site window around x
        return alpha * mid + beta * (1 - mid)

    return RateSpec("traffic2", (1, 2), 0, evaluate, {"alpha": alpha, "beta": beta})


def two_step() -> RateSpec:
    """Deterministic-speed traffic: hop 1 always, hop 2 only over an occupied
    intermediate site (traffic2 with alpha=1, beta=0)."""
    spec = traffic2(1, 0)
    spec.name = "two_step"
    spec.params = {}
    return spec


def two_star_step(p: Mapping[int, Number] | None = None) -> RateSpec:
    """Two-range walk built from a one-step law p: a direct step plus a
    composite step through any empty intermediate site,

        rate(x -> y) = p(y-x) + sum_z p(z-x) p(y-z) (1 - eta(z)).

    p must be a probability (weights summing to 1).  Default p = {1: 1}.
    """
    if p is None:
        p = {1: 1}
    p = _jump_law("two_star_step", "p", p)
    total = sum(p.values())
    if total != 1 and not (isinstance(total, float) and abs(total - 1) <= 1e-12):
        raise ValueError("two_star_step: p must sum to 1, got %r" % (total,))
    support = tuple(d for d, v in p.items() if v > 0)
    offsets = set(support)
    for d1 in support:
        for d2 in support:
            if d1 + d2 != 0:
                offsets.add(d1 + d2)
    radius = 0
    for d1 in support:
        for d2 in support:
            if d1 + d2 != 0:
                radius = max(radius, abs(d1) - abs(d1 + d2))

    def evaluate(window, d):
        w = radius + abs(d)
        value = p.get(d, 0)
        for d1 in support:
            d2 = d - d1
            if d2 in p and p[d2] > 0:
                # two-step path x -> x+d1 -> x+d, open when x+d1 is empty
                value = value + p[d1] * p[d2] * (1 - window[w + d1])
        return value

    return RateSpec("two_star_step", sorted(offsets), radius, evaluate, {"p": dict(p)})


def gg_symmetrized(alpha: Number, beta: Number, gamma: Number, delta: Number) -> RateSpec:
    """Nearest-neighbour model whose rate reads one site behind and one site
    beyond the jump, symmetrically for both directions.

    For a right jump x -> x+1 the rate is chosen by (eta(x-1), eta(x+2)):
    (1,0) -> alpha, (0,1) -> beta, (1,1) -> gamma, (0,0) -> delta.  For a
    left jump x -> x-1 the roles mirror: (eta(x+1), eta(x-2)) picks the same
    table.
    """
    for nm, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma), ("delta", delta)):
        _check_nonnegative(nm, v)

    def evaluate(window, d):
        # dep_radius = 1, |d| = 1 -> 5-site window x-2 .. x+2, x at index 2
        if d == 1:
            behind, ahead = window[1], window[4]
        else:
            behind, ahead = window[3], window[0]
        if behind:
            return gamma if ahead else alpha
        return beta if ahead else delta

    return RateSpec(
        "gg_symmetrized",
        (1, -1),
        1,
        evaluate,
        {"alpha": alpha, "beta": beta, "gamma": gamma, "delta": delta},
    )


def custom_table(
    offsets: Sequence[int],
    dep_radius: int,
    table: Mapping,
) -> RateSpec:
    """Arbitrary finite-range rule given as an explicit pattern table.

    ``table`` maps (d, pattern) to a rate, where ``pattern`` is the window
    occupancy written left to right as a '0'/'1' string of length
    2*(dep_radius+|d|)+1.  Patterns not listed get rate 0.
    """
    offsets = tuple(sorted(set(_offset(d) for d in offsets)))
    dep_radius = _radius(dep_radius)
    entries = {}
    for (d, pattern), value in table.items():
        d = _offset(d)
        if d not in offsets:
            raise ValueError("table entry for unknown offset %d" % d)
        want = 2 * (dep_radius + abs(d)) + 1
        if len(pattern) != want or any(c not in "01" for c in pattern):
            raise ValueError(
                "pattern %r for offset %d must be a 0/1 string of length %d"
                % (pattern, d, want)
            )
        _check_nonnegative("table[%d,%s]" % (d, pattern), value)
        entries[(d, tuple(1 if c == "1" else 0 for c in pattern))] = value

    def evaluate(window, d):
        return entries.get((d, tuple(window)), 0)

    return RateSpec(
        "custom_table",
        offsets,
        dep_radius,
        evaluate,
        {"offsets": offsets, "dep_radius": dep_radius, "table": dict(table)},
    )


_FACTORIES = {
    "sep": sep,
    "speed_change_decreasing": speed_change_decreasing,
    "speed_change_increasing": speed_change_increasing,
    "traffic2": traffic2,
    "two_step": two_step,
    "two_star_step": two_star_step,
    "gg_symmetrized": gg_symmetrized,
    "custom_table": custom_table,
}


def model_ids() -> tuple:
    return tuple(sorted(_FACTORIES))


def make_model(model_id: str, params: Mapping | None = None) -> RateSpec:
    """Instantiate a built-in model by id with keyword parameters."""
    try:
        factory = _FACTORIES[model_id]
    except KeyError:
        raise ValueError(
            "unknown model %r (known: %s)" % (model_id, ", ".join(model_ids()))
        ) from None
    try:
        return factory(**dict(params or {}))
    except TypeError as exc:
        raise ValueError("bad parameters for model %r: %s" % (model_id, exc)) from None


def model_parameter_names(model_id: str) -> tuple:
    """Parameter names of a built-in model's factory, in declaration order."""
    if model_id not in _FACTORIES:
        raise ValueError(
            "unknown model %r (known: %s)" % (model_id, ", ".join(model_ids()))
        )
    return tuple(inspect.signature(_FACTORIES[model_id]).parameters)


def model_signature(model_id: str) -> str:
    """Human-readable ``id(param, ...)`` line for a built-in model."""
    return "%s%s" % (model_id, inspect.signature(_FACTORIES[model_id]))
