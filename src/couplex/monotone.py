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
    the tolerance rule: 0 for exact rates, ``FLOAT_TOL`` once a float enters."""
    raw = {}
    for d in spec.jump_offsets:
        w = spec._halfwidths[d]
        width = 2 * w + 1
        row = [0] * (1 << width)
        for idx in range(1 << width):
            if (idx >> w) & 1 and not (idx >> (w + d)) & 1:
                row[idx] = _lookup(spec, tuple((idx >> j) & 1 for j in range(width)), d)
        raw[d] = row
    flat = [v for row in raw.values() for v in row]
    exact = all(isinstance(v, (int, Fraction)) for v in flat)
    typed = Fraction if exact else float
    flagged = {d: np.array([isinstance(v, typed) for v in row]) for d, row in raw.items()}
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
    return _Rates({d: np.array(row, dtype=dtype) for d, row in raw.items()}, tol, flagged, value)


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


def _windows(spec: RateSpec, kind: str, lo: int, lower, upper):
    """Per offset d in order, (d, gain, loss, room): the table indices a
    condition reads for pairs of mask arrays over a span starting at lo.

    Arrival at site 0 (empty in both): a jump x -> 0 with x = -d occupied in
    upper adds g_lo - g_up to lhs when positive and x occupied in lower, and
    g_up to rhs when x is empty in lower.  Departure from site 0 (occupied
    in both): a jump 0 -> d adds g_up - g_lo to lhs when positive and d empty
    in upper, and g_lo to rhs when d is occupied in upper and empty in lower.
    So lhs gains gain - loss when positive and rhs gains loss where ``room``
    holds.  The tables read 0 on windows whose departure site is empty or
    target occupied, which folds the remaining cases into the same two sums.
    """
    arrival = kind == "arrival"
    for d in spec.jump_offsets:
        w = spec._halfwidths[d]
        mask = (1 << (2 * w + 1)) - 1
        x = -d if arrival else 0
        shift = x - w - lo
        up, down = (upper >> shift) & mask, (lower >> shift) & mask
        if arrival:
            yield d, down, up, (lower >> (x - lo)) & 1 == 0
        else:
            yield d, up, down, (upper >> (d - lo)) & 1 == 1


def _scan(spec: RateSpec, rates: _Rates, kind: str, extra: int):
    """Every ordered pair of a condition's span, block by block: yields
    (lower, upper, lhs, rhs) arrays, the sides in the scan's units.  Offsets
    are added in order, as a sum over the offsets would add them."""
    sites = _sites(spec, kind, extra)
    for lower, upper in _pair_blocks(len(sites), -sites.start, 0 if kind == "arrival" else 1):
        lhs = rhs = 0
        for d, gain, loss, room in _windows(spec, kind, sites.start, lower, upper):
            table = rates.tables[d]
            gain, loss = table[gain], table[loss]
            lhs = lhs + np.where(gain > loss, gain - loss, 0)
            rhs = rhs + np.where(room, loss, 0)
        yield lower, upper, lhs, rhs


def _pattern(mask: int, n: int) -> str:
    """The 0/1 string of a mask over n sites, leftmost site first."""
    return format(mask, "0%db" % n)[::-1]


def _rows(spec: RateSpec, rates: _Rates, kind: str, sites: range, lower, upper, lhs, rhs) -> list:
    """Chosen pairs as (lower pattern, upper pattern, lhs, rhs), from their
    mask arrays and their sides in the scan's units (lists).  A side is
    flagged when a term :func:`_scan` adds to it reads a flagged rate, so it
    gets the type a sum in Python of the spec's rates would have."""
    lhs_flag = rhs_flag = False
    for d, gain, loss, room in _windows(spec, kind, sites.start, lower, upper):
        table, flagged = rates.tables[d], rates.flagged[d]
        lhs_flag = lhs_flag | ((table[gain] > table[loss]) & (flagged[gain] | flagged[loss]))
        rhs_flag = rhs_flag | (room & flagged[loss])
    name = functools.cache(lambda mask: _pattern(mask, len(sites)))
    value = rates.value
    return [
        (name(m), name(u), value(a, fa), value(b, fb))
        for m, u, a, b, fa, fb in zip(
            lower.tolist(), upper.tolist(), lhs, rhs, lhs_flag.tolist(), rhs_flag.tolist()
        )
    ]


def _violations(spec: RateSpec, rates: _Rates, kind: str, extra: int) -> list:
    """The violating pairs of a condition as (excess in scan units, Violation)."""
    sites = _sites(spec, kind, extra)
    out = []
    for lower, upper, lhs, rhs in _scan(spec, rates, kind, extra):
        bad = lhs > rhs + rates.tol
        if bad.any():
            sides = lhs[bad].tolist(), rhs[bad].tolist()
            rows = _rows(spec, rates, kind, sites, lower[bad], upper[bad], *sides)
            out.extend(
                (excess, Violation(kind, -sites.start, sites.start, *row))
                for excess, row in zip((lhs - rhs)[bad].tolist(), rows)
            )
    return out


def is_monotone(spec: RateSpec, extra: int = 0) -> Verdict:
    """Decide order preservation by an exhaustive scan of ordered local
    pattern pairs, ``extra`` sites wider on each side than the rates read."""
    if isinstance(extra, bool) or not isinstance(extra, int) or extra < 0:
        raise ValueError("extra must be an int >= 0, got %r" % (extra,))
    rates = _rate_arrays(spec)
    found = [v for kind in ("arrival", "departure") for v in _violations(spec, rates, kind, extra)]
    # by decreasing excess, then kind and patterns; the excess in scan units
    # orders as lhs - rhs does
    found.sort(key=lambda ev: (-ev[0], ev[1].kind, ev[1].lower, ev[1].upper))
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
        n = len(_sites(spec, kind, 0))
        for lower, upper, lhs, rhs in _scan(spec, rates, kind, 0):
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
    sites = _sites(spec, kind, 0)
    ((_, _, lhs, rhs),) = _rows(spec, rates, kind, sites, np.array([m]), np.array([u]), [a], [b])
    return StrictnessReport(slack > rates.tol, rhs - lhs, count)
