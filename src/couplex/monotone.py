"""Order-preservation conditions for finite-range exclusion rates.

A translation-invariant rate rule keeps the sitewise partial order between
two copies of the dynamics exactly when two families of local inequalities
hold, one governing arrivals at a site that is empty in the upper
configuration, one governing departures from a site that is occupied in the
lower configuration.  Both quantify over ordered pairs of local occupancy
patterns; because the rates are finite range, the pairs on a bounded span
around the distinguished site are exhaustive.

The scan is blocked and array based.  Each ordered pair is a pair of packed
masks (lower, upper), bit k holding span site k, made in blocks of at most
``BLOCK_ROWS`` rows; memory is bounded by the block, not by the span.  The
rate of a jump is read from a per-offset array indexed by the packed window
bits, filled once per call from the spec's rate table for the windows a
condition reads (departure site occupied, target empty).  Exact rates are
summed as integers scaled by the common denominator, so every comparison
stays exact; float rates are summed in float64 in offset order, which gives
the same sums as adding the Python floats one offset at a time.  A reported
row takes its sides from those sums and from whether a Fraction (or float)
rate entered them, so they are ints, Fractions or floats as in Python.

Only the rates depend on the spec.  What a scan reads depends on the window
shape alone, that is on the jump offsets, the halfwidth of each one's rate
window (the dependence radius plus the jump length), the condition and the
span (``extra`` sites wider each side), and a :class:`_Plan` holds it: the
pair masks and, per offset, the table indices (gain, loss) and the
``room`` flags of every pair.  The windows a condition reads, as (index,
window tuple) per offset, depend on the offsets and halfwidths alone.  The
rate tables, their type flags, the tolerance and the sums are made per
call (:class:`_Rates`).  Plans of spans whose free sites fit one block
(n - 1 <= ``BLOCK_DIGITS``) are kept in a ``functools.lru_cache`` keyed by
the shape, and so are the window lists of rules whose departure window fits
one; each cache holds at most ``PLAN_CACHE_SIZE`` entries.  A wider span
streams its blocks and keeps nothing.  The windows of the violating rows
are made again from their masks, whether the span is kept or streamed.
Nothing is built at import.

Tolerance rule: the checks compare exactly (no tolerance) when every rate
read is an int or a Fraction, and with an absolute tolerance of
``FLOAT_TOL`` = 1e-12 once a float enters; no caller sets it.  Each
condition's witnesses are the rows of :func:`is_monotone` whose ``kind``
names it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .models import RateSpec, _lookup

FLOAT_TOL = 1e-12

#: free sites per block: a block holds at most 3**BLOCK_DIGITS pattern pairs
BLOCK_DIGITS = 8
BLOCK_ROWS = 3**BLOCK_DIGITS

#: lower and upper bit of a free site's digit, in the order (0,0), (0,1), (1,1)
_DIGIT_LOWER = np.array([0, 0, 1], dtype=np.int64)
_DIGIT_UPPER = np.array([0, 1, 1], dtype=np.int64)

#: exact sums stay in int64 while every scaled side is below this
_INT64_LIMIT = 1 << 62

#: shapes kept per cache.  A kept plan holds at most 3**8 rows of two int64
#: masks and, per offset, two intp indices and a flag: at most 0.95 MiB (8
#: offsets, 9-site departure span), and 12.9 MiB for the 16 largest shapes
PLAN_CACHE_SIZE = 16


class Violation(NamedTuple):
    """One ordered pattern pair breaking an order condition."""

    kind: str  # "arrival" or "departure"
    center: int  # index of the distinguished site within the window
    lo: int  # offset of the leftmost window site relative to that site
    lower: str  # lower-configuration window pattern
    upper: str  # upper-configuration window pattern
    lhs: object
    rhs: object

    @property
    def excess(self):
        return self.lhs - self.rhs


@dataclass
class Verdict:
    monotone: bool
    witnesses: list


@dataclass
class StrictnessReport:
    """Slack accounting for the order conditions of a monotone spec.

    An instance is *binding* when its right side is positive; equalities of
    the form 0 <= 0 carry no active rate and are ignored.  ``min_slack`` is
    the slack rhs - lhs of the least-slack binding instance, and ``strict``
    holds when it is above the tolerance.  With no binding instance,
    ``strict`` is False and ``min_slack`` is None.
    """

    strict: bool
    min_slack: object
    binding_count: int


def _sites(spec: RateSpec, kind: str, extra: int) -> range:
    """Window offsets whose occupancies can enter a condition at site 0: the
    spec's departure or arrival window, ``extra`` sites wider each side."""
    lo, hi = (-spec._reach, spec._reach) if kind == "departure" else spec._arrival
    return range(lo - extra, hi + extra + 1)


def _one_block(n: int) -> bool:
    """Whether the pattern pairs of an n-site span fit one block."""
    return n - 1 <= BLOCK_DIGITS


def _shape(spec: RateSpec) -> tuple:
    """The jump offsets and the halfwidth of each one's rate window: all of
    a spec that a plan or a window list reads."""
    return spec.jump_offsets, tuple(spec._halfwidths[d] for d in spec.jump_offsets)


def _frozen(array):
    array.flags.writeable = False
    return array


def _read_windows(offsets: tuple, halfwidths: tuple) -> tuple:
    """Per offset d in order, (d, indices, windows): the packed window bits
    and the window tuples, in index order, of the windows a condition reads
    (departure site occupied, target empty)."""
    out = []
    for d, w in zip(offsets, halfwidths):
        width = 2 * w + 1
        index = [i for i in range(1 << width) if (i >> w) & 1 and not (i >> (w + d)) & 1]
        windows = tuple(tuple((i >> j) & 1 for j in range(width)) for i in index)
        out.append((d, _frozen(np.array(index, dtype=np.intp)), windows))
    return tuple(out)


_kept_reads = functools.lru_cache(maxsize=PLAN_CACHE_SIZE)(_read_windows)


def _reads(spec: RateSpec) -> tuple:
    """The windows a condition reads of the spec, as :func:`_read_windows`;
    kept by shape when the departure window, which holds every rate window,
    fits one block."""
    build = _kept_reads if _one_block(2 * spec._reach + 1) else _read_windows
    return build(*_shape(spec))


@dataclass
class _Rates:
    """Rates per offset as arrays indexed by the packed window bits (bit j =
    window site j); windows a condition never reads hold 0.

    ``tables`` hold them in the units the scan sums in, and ``tol`` is the
    tolerance in those units: a row violates its condition when lhs > rhs +
    tol.  ``flagged`` marks the rates whose type a sum in Python passes on
    (Fractions among exact rates, floats otherwise); ``value(s, flag)`` is
    the side s in the scan's units as such a sum gives it, ``flag`` saying
    whether a flagged rate entered it; it makes one object per (s, flag).
    """

    tables: dict
    tol: object
    flagged: dict
    value: object


def _rate_arrays(spec: RateSpec) -> _Rates:
    """The rates of every window a condition reads, with the tolerance of
    the tolerance rule: 0 for exact rates, ``FLOAT_TOL`` once a float enters.
    The types, the common denominator and the int64 bound are taken over
    the windows read; every other entry is an int 0 and changes none of them."""
    reads = _reads(spec)
    raw = {d: [_lookup(spec, window, d) for window in windows] for d, _, windows in reads}
    flat = [v for row in raw.values() for v in row]
    exact = all(isinstance(v, (int, Fraction)) for v in flat)
    typed = Fraction if exact else float
    flags = {d: [isinstance(v, typed) for v in row] for d, row in raw.items()}
    tol = 0 if exact else FLOAT_TOL
    # a side sums at most one rate per offset
    terms = len(raw)
    if exact:
        scale = math.lcm(*{v.denominator for v in flat})
        raw = {d: [v.numerator * (scale // v.denominator) for v in row] for d, row in raw.items()}
        big = max(abs(v) for row in raw.values() for v in row) * terms >= _INT64_LIMIT
        dtype = object if big else np.int64
        value = functools.cache(lambda s, flag: Fraction(s, scale) if flag else s // scale)
    elif all(type(v) is float or (isinstance(v, int) and abs(v) * terms <= 2**53) for v in flat):
        dtype, value = np.float64, functools.cache(lambda s, flag: float(s) if flag else int(s))
    else:  # object tables hold the spec's own rates, so their sums are the sides
        dtype, value = object, lambda s, flag: s
    tables, flagged = {}, {}
    for d, index, _ in reads:
        size = 1 << (2 * spec._halfwidths[d] + 1)
        # object zeros are int 0, as the rates of unread windows are
        tables[d] = np.zeros(size, dtype=dtype)
        tables[d][index] = raw[d]
        flagged[d] = np.zeros(size, dtype=bool)
        flagged[d][index] = flags[d]
    return _Rates(tables, tol, flagged, value)


def _pair_blocks(n: int, center: int, center_value: int):
    """The ordered pattern pairs on a span of n sites, with site `center`
    pinned to center_value in both, as (lower, upper) int64 mask arrays.

    Rows follow ``itertools.product`` over the free sites in span order (the
    last site varies fastest), each site taking (0,0), (0,1), (1,1).  The
    last BLOCK_DIGITS free sites vary within a block; the others are fixed
    per block, so a block has at most BLOCK_ROWS rows.
    """
    free = [k for k in range(n) if k != center]
    split = max(len(free) - BLOCK_DIGITS, 0)
    lower = upper = np.zeros(1, dtype=np.int64)
    for k in free[split:]:
        lower = np.add.outer(lower, _DIGIT_LOWER << k).ravel()
        upper = np.add.outer(upper, _DIGIT_UPPER << k).ravel()
    pinned = center_value << center
    for digits in itertools.product(range(3), repeat=split):
        outer = list(zip(digits, free))
        yield (
            lower + (pinned + sum(int(v == 2) << k for v, k in outer)),
            upper + (pinned + sum(int(v >= 1) << k for v, k in outer)),
        )


class _Plan:
    """What one condition's scan reads on a window shape, whatever the rates.

    The shape is the jump offsets, the halfwidth of each one's rate window
    (see :func:`_shape`), the condition and the span ``sites``, of ``n``
    sites with the distinguished one at index ``center``.  ``block`` is the
    span's only block as (lower, upper, windows) when its free sites fit one
    block, and None when the span is streamed block by block; see
    :meth:`windows`.
    """

    def __init__(self, offsets: tuple, halfwidths: tuple, kind: str, sites: range):
        self.kind, self.sites, self.n, self.center = kind, sites, len(sites), -sites.start
        arrival = kind == "arrival"
        #: per offset (d, shift, mask, at): the window of the jump x -> x + d
        #: is mask bits from bit shift, and bit at decides where loss goes
        self._taps = []
        for d, w in zip(offsets, halfwidths):
            x = -d if arrival else 0
            at = (x if arrival else d) - sites.start
            self._taps.append((d, x - w - sites.start, (1 << (2 * w + 1)) - 1, at))
        self.block = None
        if _one_block(self.n):
            ((lower, upper),) = self._pairs()
            self.block = _frozen(lower), _frozen(upper), [
                (d, *map(_frozen, parts)) for d, *parts in self.windows(lower, upper)
            ]

    def _pairs(self):
        return _pair_blocks(self.n, self.center, 0 if self.kind == "arrival" else 1)

    def windows(self, lower, upper):
        """Per offset d in order, (d, gain, loss, room): the table indices
        the condition reads for pairs of mask arrays over the span, made one
        offset at a time.

        Arrival at site 0 (empty in both): a jump x -> 0 with x = -d occupied
        in upper adds g_lo - g_up to lhs when positive and x occupied in
        lower, and g_up to rhs when x is empty in lower.  Departure from site
        0 (occupied in both): a jump 0 -> d adds g_up - g_lo to lhs when
        positive and d empty in upper, and g_lo to rhs when d is occupied in
        upper and empty in lower.  So lhs gains gain - loss when positive and
        rhs gains loss where ``room`` holds.  The tables read 0 on windows
        whose departure site is empty or target occupied, which folds the
        remaining cases into the same two sums.
        """
        for d, shift, mask, at in self._taps:
            up, down = (upper >> shift) & mask, (lower >> shift) & mask
            if self.kind == "arrival":
                yield d, down, up, (lower >> at) & 1 == 0
            else:
                yield d, up, down, (upper >> at) & 1 == 1

    def blocks(self):
        """(lower, upper, windows) per block of the span, in row order; a
        streamed block makes its windows as they are read."""
        if self.block is not None:
            yield self.block
            return
        for lower, upper in self._pairs():
            yield lower, upper, self.windows(lower, upper)


_kept_plan = functools.lru_cache(maxsize=PLAN_CACHE_SIZE)(_Plan)


def _plan(spec: RateSpec, kind: str, extra: int) -> _Plan:
    """The plan of a condition on the spec's window shape, ``extra`` sites
    wider each side; kept by shape only when its span fits one block."""
    sites = _sites(spec, kind, extra)
    build = _kept_plan if _one_block(len(sites)) else _Plan
    return build(*_shape(spec), kind, sites)


def _scan(rates: _Rates, plan: _Plan):
    """Every ordered pair of a plan's span, block by block: yields (lower,
    upper, lhs, rhs) arrays, the sides in the scan's units.  Offsets are
    added in order, as a sum over the offsets would add them."""
    for lower, upper, windows in plan.blocks():
        lhs = rhs = 0
        for d, gain, loss, room in windows:
            table = rates.tables[d]
            gain, loss = table[gain], table[loss]
            lhs = lhs + np.where(gain > loss, gain - loss, 0)
            rhs = rhs + np.where(room, loss, 0)
        yield lower, upper, lhs, rhs


@functools.lru_cache(maxsize=1 << 12)
def _pattern(mask: int, n: int) -> str:
    """The 0/1 string of a mask over n sites, leftmost site first."""
    return format(mask, "0%db" % n)[::-1]


def _rows(rates: _Rates, n: int, lower, upper, windows, lhs, rhs) -> tuple:
    """Chosen pairs as columns (lower patterns, upper patterns, lhs, rhs),
    from their masks and sides in the scan's units (lists) and the windows
    they read (arrays).  A side is flagged when a term :func:`_scan` adds to
    it reads a flagged rate, so it gets the type a sum in Python of the
    spec's rates would have."""
    lhs_flag = rhs_flag = False
    for d, gain, loss, room in windows:
        table, flagged = rates.tables[d], rates.flagged[d]
        lhs_flag = lhs_flag | ((table[gain] > table[loss]) & (flagged[gain] | flagged[loss]))
        rhs_flag = rhs_flag | (room & flagged[loss])
    value = rates.value
    return (
        map(_pattern, lower, itertools.repeat(n)),
        map(_pattern, upper, itertools.repeat(n)),
        map(value, lhs, lhs_flag.tolist()),
        map(value, rhs, rhs_flag.tolist()),
    )


def _violations(rates: _Rates, plan: _Plan) -> list:
    """The violating pairs of a condition as (rhs - lhs in scan units,
    Violation)."""
    head = [itertools.repeat(v) for v in (plan.kind, plan.center, plan.sites.start)]
    out = []
    for lower, upper, lhs, rhs in _scan(rates, plan):
        bad = lhs > rhs + rates.tol
        if bad.any():
            # the windows of the chosen rows alone, as strictness_report
            # makes them
            chosen = plan.windows(lower[bad], upper[bad])
            lower, upper, lhs, rhs = (x[bad].tolist() for x in (lower, upper, lhs, rhs))
            rows = zip(*head, *_rows(rates, plan.n, lower, upper, chosen, lhs, rhs))
            # tuple.__new__ makes each Violation from its row without a
            # Python-level call
            made = map(tuple.__new__, itertools.repeat(Violation), rows)
            out.extend(zip(map(operator.sub, rhs, lhs), made))
    return out


def is_monotone(spec: RateSpec, extra: int = 0) -> Verdict:
    """Decide order preservation by an exhaustive scan of ordered local
    pattern pairs, ``extra`` sites wider on each side than the rates read."""
    if isinstance(extra, bool) or not isinstance(extra, int) or extra < 0:
        raise ValueError("extra must be an int >= 0, got %r" % (extra,))
    rates = _rate_arrays(spec)
    found = [
        v for kind in ("arrival", "departure") for v in _violations(rates, _plan(spec, kind, extra))
    ]
    # by decreasing excess, then kind and patterns: the excess in scan units
    # orders as lhs - rhs does, and a Violation compares by kind, then by
    # patterns, which no two rows of one kind share
    found.sort()
    witnesses = [v for _, v in found]
    return Verdict(not witnesses, witnesses)


def strictness_report(spec: RateSpec) -> StrictnessReport:
    """The binding instances of the order conditions and their least slack.
    Requires a monotone spec."""
    rates = _rate_arrays(spec)
    count = 0
    # the least binding row by (slack, kind, lower, upper): (slack, kind,
    # lower pattern, upper pattern, masks, sides), scan units
    best = None
    for kind in ("arrival", "departure"):
        plan = _plan(spec, kind, 0)
        n = plan.n
        for lower, upper, lhs, rhs in _scan(rates, plan):
            if np.any(lhs > rhs + rates.tol):
                raise ValueError(
                    "strictness_report requires a monotone spec; %s is not" % spec.name
                )
            binding = np.flatnonzero(rhs > 0)
            count += len(binding)
            if not len(binding):
                continue
            slack = (rhs - lhs)[binding]
            tied = binding[slack == slack.min()]
            rows = [
                (s, kind, _pattern(m, n), _pattern(u, n), m, u, a, b)
                for s, m, u, a, b in zip(*(x[tied].tolist() for x in (rhs - lhs, lower, upper, lhs, rhs)))
            ]
            if best is not None:
                rows.append(best)
            best = min(rows, key=lambda row: row[:4])
    if best is None:
        return StrictnessReport(False, None, count)
    slack, kind, _, _, m, u, a, b = best
    plan = _plan(spec, kind, 0)
    windows = plan.windows(np.array([m]), np.array([u]))
    _, _, (lhs,), (rhs,) = _rows(rates, plan.n, [m], [u], windows, [a], [b])
    return StrictnessReport(slack > rates.tol, rhs - lhs, count)
