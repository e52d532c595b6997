"""Hand-derived reference tables and the acceptance battery.

The first half of this module writes down, in closed form, what the coupling
construction must produce for two benchmark models:

* the two-range traffic model (``traffic2``): the complete increasing-coupling
  table for ordered pairs, and the complete attractive coupled generator
  (coupled moves plus lone moves of either copy) for arbitrary pairs;
* the symmetrized read-ahead model (``gg_symmetrized``): the increasing-
  coupling table for ordered pairs and the composed attractive table for
  arbitrary pairs, both valid on the parameter region where the model is
  attractive with ``gamma <= delta``.

These formulas were derived by hand from the set/series construction and are
kept deliberately independent of the engine (they re-implement the local
rates and enumerate windows directly), so agreement is meaningful.  The
``corrected`` flag of :func:`gg_reference_attractive` switches between the
final formulas and an earlier draft of them that reads two far sites off by
one and omits the two same-direction entries obtained by exchanging the
roles of the copies; the battery checks that the engine agrees with the
corrected version everywhere and disagrees with the draft somewhere.

The second half is the acceptance battery: twelve numbered checks with
stable identifiers, each returning pass/fail plus a one-line summary.  The
test suite and the ``golden-suite`` CLI command both run it through
:func:`run_suite`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import product

import numpy as np

from .coupling import coupling_table, oneD_cross_check
from .exact import (
    BALANCE_TOL,
    audit_discrepancy_monotone,
    audit_order_preservation,
    check_sector_uniform_stationary,
    coupled_generator,
    discrepancy_extinction,
    marginal_errors,
    ordered_pairs,
    pair_states,
    single_generator,
    stationary_distribution,
)
from .lattice import apply_jump, is_active, is_ordered, leq
from .models import (
    custom_table,
    gg_symmetrized,
    sep,
    speed_change_decreasing,
    speed_change_increasing,
    traffic2,
    two_star_step,
    two_step,
)
from .monotone import is_monotone
from .simulate import discrepancy_pair, simulate_coupled, simulate_single

__all__ = [
    "CriterionResult",
    "CRITERIA",
    "MONOTONE_ZOO",
    "gg_expected_attractive",
    "gg_reference_attractive",
    "gg_reference_increasing",
    "ordered_pairs",
    "run_criterion",
    "run_suite",
    "sep_basic_rows",
    "suite_ids",
    "table_mismatches",
    "traffic2_attractive_transitions",
    "traffic2_reference_table",
]


def table_mismatches(expected: dict, got: dict, tol=0) -> list:
    """Entries differing by more than tol, as (key, expected, got) triples."""
    out = []
    for k in sorted(set(expected) | set(got), key=repr):
        a = expected.get(k, 0)
        b = got.get(k, 0)
        if abs(a - b) > tol:
            out.append((k, a, b))
    return out


# ---------------------------------------------------------------------------
# Two-range traffic model: closed forms


def _traffic2_rate(alpha, beta, eta, x: int, d: int):
    if d == 1:
        return 1
    mid = eta[(x + 1) % len(eta)]
    return alpha * mid + beta * (1 - mid)


def traffic2_reference_table(alpha, beta, xi, zeta) -> dict:
    """Increasing-coupling entries of the two-range traffic model, in closed
    form, restricted to jumps active in both copies.

    Valid for |alpha - beta| <= 1; beyond that the short-jump overlap caps
    the cross entries and the simple difference formulas stop applying.
    """
    size = len(xi)
    out = {}
    for x in range(size):
        for d in (1, 2):
            y = (x + d) % size
            if is_active(xi, x, y) and is_active(zeta, x, y):
                g = min(
                    _traffic2_rate(alpha, beta, xi, x, d),
                    _traffic2_rate(alpha, beta, zeta, x, d),
                )
                if g > 0:
                    out[(x, y, x, y)] = g
    if leq(xi, zeta):
        lo, hi, flip = xi, zeta, False
    elif leq(zeta, xi):
        lo, hi, flip = zeta, xi, True
    else:
        return out
    up = alpha - beta if alpha > beta else 0
    down = beta - alpha if beta > alpha else 0
    for x in range(size):
        x1, x2 = (x + 1) % size, (x + 2) % size
        if lo[x] and hi[x] and not lo[x1] and hi[x1] and not lo[x2] and not hi[x2]:
            # the lower copy sees an empty middle site, the upper an occupied
            # one: their long-jump rates differ by alpha - beta
            if up:
                k = (x, x2, x, x1) if flip else (x, x1, x, x2)
                out[k] = out.get(k, 0) + up
            if down:
                k = (x1, x2, x, x2) if flip else (x, x2, x1, x2)
                out[k] = out.get(k, 0) + down
    return out


def traffic2_attractive_transitions(alpha, beta, xi, zeta) -> dict:
    """Full attractive coupled generator of the two-range traffic model out
    of an arbitrary pair, in closed form.

    Keys are (first_jump, second_jump) with None for a copy that stays put;
    values are true generator rates (occupancy prefactors included).  Valid
    for |alpha - beta| <= 1.
    """
    size = len(xi)
    out = {}

    def add(j1, j2, r):
        if r > 0:
            out[(j1, j2)] = out.get((j1, j2), 0) + r

    up = alpha - beta if alpha > beta else 0
    down = beta - alpha if beta > alpha else 0
    for x in range(size):
        x1, x2 = (x + 1) % size, (x + 2) % size
        xm1 = (x - 1) % size
        join1 = 1 if xi[x1] or zeta[x1] else 0
        join2 = 1 if xi[x2] or zeta[x2] else 0
        # coupled short hop and coupled long hop
        add((x, x1), (x, x1), xi[x] * (1 - xi[x1]) * zeta[x] * (1 - zeta[x1]))
        overlap2 = (
            alpha * xi[x1] * zeta[x1]
            + beta * (1 - join1)
            + min(alpha, beta) * (xi[x1] * (1 - zeta[x1]) + zeta[x1] * (1 - xi[x1]))
        )
        add((x, x2), (x, x2), xi[x] * zeta[x] * (1 - join2) * overlap2)
        # coupled moves pairing different jumps
        add((x, x2), (x1, x2), xi[x] * (1 - xi[x1]) * zeta[x1] * (1 - join2) * down)
        add((x, x1), (xm1, x1), xi[x] * (1 - zeta[x]) * zeta[xm1] * (1 - join1) * down)
        add((x, x2), (x, x1), xi[x] * zeta[x] * xi[x1] * (1 - zeta[x1]) * (1 - join2) * up)
        add((x, x1), (x, x2), xi[x] * zeta[x] * (1 - xi[x1]) * zeta[x1] * (1 - join2) * up)
        # first copy moves alone: full rate minus the coupled mass above
        lone = xi[x] * (1 - xi[x1]) * (
            1
            - zeta[x] * (1 - zeta[x1])
            - (1 - zeta[x]) * zeta[xm1] * (1 - zeta[x1]) * down
            - zeta[x] * zeta[x1] * (1 - join2) * up
        )
        add((x, x1), None, lone)
        lone = xi[x] * (1 - xi[x2]) * (
            alpha * xi[x1]
            + beta * (1 - xi[x1])
            - zeta[x] * (1 - zeta[x2]) * overlap2
            - zeta[x] * xi[x1] * (1 - zeta[x1]) * (1 - zeta[x2]) * up
            - (1 - xi[x1]) * zeta[x1] * (1 - zeta[x2]) * down
        )
        add((x, x2), None, lone)
        # second copy moves alone (mirror bookkeeping)
        lone = zeta[x] * (1 - zeta[x1]) * (
            1
            - xi[x] * (1 - xi[x1])
            - xi[x] * xi[x1] * (1 - join2) * up
            - (1 - xi[x]) * xi[xm1] * (1 - xi[x1]) * down
        )
        add(None, (x, x1), lone)
        lone = zeta[x] * (1 - zeta[x2]) * (
            alpha * zeta[x1]
            + beta * (1 - zeta[x1])
            - xi[x] * (1 - xi[x2]) * overlap2
            - xi[x] * (1 - xi[x1]) * zeta[x1] * (1 - xi[x2]) * up
            - xi[x1] * (1 - zeta[x1]) * (1 - xi[x2]) * down
        )
        add(None, (x, x2), lone)
    return out


# ---------------------------------------------------------------------------
# Symmetrized read-ahead model: closed forms


def _gg_rate(params, eta, x: int, d: int):
    alpha, beta, gamma, delta = params
    size = len(eta)
    if d == 1:
        behind, ahead = eta[(x - 1) % size], eta[(x + 2) % size]
    else:
        behind, ahead = eta[(x + 1) % size], eta[(x - 2) % size]
    if behind:
        return gamma if ahead else alpha
    return beta if ahead else delta


def gg_expected_attractive(alpha, beta, gamma, delta) -> bool:
    """Closed-form attractiveness region of the read-ahead model.

    Symmetric in (gamma, delta): swapping them gives the particle-hole dual
    process, which is attractive iff the original is.
    """
    lo = gamma if gamma <= delta else delta
    hi = delta if gamma <= delta else gamma
    return beta <= lo and hi <= alpha and alpha <= beta + lo and hi <= 2 * beta


def _gg_increasing_cross(params, lo, hi) -> dict:
    """Off-diagonal increasing entries for an ordered pair lo <= hi; the
    first key slot is the lower copy's jump.  Assumes the attractiveness
    conditions with gamma <= delta, which keep every overlap cap slack."""
    alpha, beta, gamma, delta = params
    size = len(lo)
    out = {}

    def add(k, v):
        if v > 0:
            out[k] = out.get(k, 0) + v

    for x in range(size):
        xm2, xm1 = (x - 2) % size, (x - 1) % size
        xp1, xp2 = (x + 1) % size, (x + 2) % size
        if not (lo[x] and hi[x]):
            continue
        # same departure: lower copy hops onto the extra particle's site,
        # upper copy hops the other way into a jointly empty site
        if not lo[xp1] and hi[xp1] and not lo[xm1] and not hi[xm1]:
            if not hi[xm2]:
                add((x, xp1, x, xm1), alpha - delta)
            elif lo[xm2]:
                add((x, xp1, x, xm1), gamma - beta)
        if not lo[xm1] and hi[xm1] and not lo[xp1] and not hi[xp1]:
            if not hi[xp2]:
                add((x, xm1, x, xp1), alpha - delta)
            elif lo[xp2]:
                add((x, xm1, x, xp1), gamma - beta)
        # same arrival: both copies hop onto a jointly empty site, the upper
        # copy from the extra particle two sites away
        if not lo[xp1] and not hi[xp1] and not lo[xp2] and hi[xp2]:
            mark = (lo[xm1], hi[xm1])
            if mark == (0, 0):
                add((x, xp1, xp2, xp1), delta - beta)
            elif mark == (0, 1):
                add((x, xp1, xp2, xp1), delta - gamma)
            else:
                add((x, xp1, xp2, xp1), alpha - gamma)
        if not lo[xm1] and not hi[xm1] and not lo[xm2] and hi[xm2]:
            mark = (lo[xp1], hi[xp1])
            if mark == (0, 0):
                add((x, xm1, xm2, xm1), delta - beta)
            elif mark == (0, 1):
                add((x, xm1, xm2, xm1), delta - gamma)
            else:
                add((x, xm1, xm2, xm1), alpha - gamma)
    return out


def gg_reference_increasing(params, xi, zeta) -> dict:
    """Closed-form increasing table of the read-ahead model for an ordered
    pair, restricted to jumps active in both copies."""
    size = len(xi)
    out = {}
    for x in range(size):
        for d in (1, -1):
            y = (x + d) % size
            if is_active(xi, x, y) and is_active(zeta, x, y):
                g = min(_gg_rate(params, xi, x, d), _gg_rate(params, zeta, x, d))
                if g > 0:
                    out[(x, y, x, y)] = g
    if leq(xi, zeta):
        cross = _gg_increasing_cross(params, xi, zeta)
    elif leq(zeta, xi):
        cross = {
            (x2, y2, x1, y1): v
            for (x1, y1, x2, y2), v in _gg_increasing_cross(params, zeta, xi).items()
        }
    else:
        cross = {}
    for k, v in cross.items():
        out[k] = out.get(k, 0) + v
    return out


def gg_reference_attractive(params, xi, zeta, corrected: bool = True) -> dict:
    """Closed-form composed attractive table of the read-ahead model for an
    arbitrary pair, restricted to jumps active in both copies.

    Assumes the attractiveness conditions with 0 < gamma <= delta.  With
    ``corrected=False`` an earlier hand draft is reproduced instead: it reads
    two neighbour sites off by one, drops one occupancy restriction, and
    misses the two same-direction entries with the first copy ahead.
    """
    alpha, beta, gamma, delta = params
    if not gamma > 0:
        raise ValueError("the composed closed forms need gamma > 0")
    size = len(xi)
    join = [1 if xi[i] or zeta[i] else 0 for i in range(size)]
    corr = beta / gamma - 1
    out = {}

    def add(k, v):
        if v > 0:
            out[k] = out.get(k, 0) + v

    for x in range(size):
        xm3, xm2, xm1 = (x - 3) % size, (x - 2) % size, (x - 1) % size
        xp1, xp2, xp3 = (x + 1) % size, (x + 2) % size, (x + 3) % size
        # diagonal: both copies make the same jump
        for d, y in ((1, xp1), (-1, xm1)):
            if is_active(xi, x, y) and is_active(zeta, x, y):
                add(
                    (x, y, x, y),
                    min(_gg_rate(params, xi, x, d), _gg_rate(params, zeta, x, d)),
                )
        # same departure, opposite arrivals
        if xi[x] and not xi[xp1] and zeta[x] and not zeta[xm1]:
            t1 = (1 - zeta[xp1]) * xi[xm1] * (
                (1 - join[xp2]) * (alpha - delta) + zeta[xp2] * (gamma - beta)
            )
            far = xm2 if corrected else xm1
            t2 = (1 - xi[xm1]) * zeta[xp1] * (
                (1 - join[far]) * (alpha - delta) + xi[xm2] * (gamma - beta)
            )
            add((x, xp1, x, xm1), t1 + t2)
        if xi[x] and not xi[xm1] and zeta[x] and not zeta[xp1]:
            t1 = (1 - zeta[xm1]) * xi[xp1] * (
                (1 - join[xm2]) * (alpha - delta) + zeta[xm2] * (gamma - beta)
            )
            mark = xi[xp2] if corrected else join[xp2]
            t2 = (1 - xi[xp1]) * zeta[xm1] * (
                (1 - join[xp2]) * (alpha - delta) + mark * (gamma - beta)
            )
            add((x, xm1, x, xp1), t1 + t2)
        # same arrival, departures two apart (second copy leads)
        if xi[x] and not xi[xp1] and zeta[xp2] and not zeta[xp1]:
            b1 = (
                (1 - join[xp3]) * (delta - beta)
                + zeta[xp3] * (alpha - gamma)
                + (1 - zeta[xp3]) * xi[xp3] * (delta - gamma)
            )
            c1 = xi[xp2] * zeta[xm1] * (1 - xi[xm1]) * corr + 1
            b2 = (
                (1 - join[xm1]) * (delta - beta)
                + xi[xm1] * (alpha - gamma)
                + (1 - xi[xm1]) * zeta[xm1] * (delta - gamma)
            )
            c2 = xi[xp3] * zeta[x] * (1 - zeta[xp3]) * corr + 1
            add((x, xp1, xp2, xp1), (1 - zeta[x]) * b1 * c1 + (1 - xi[xp2]) * b2 * c2)
        if xi[x] and not xi[xm1] and zeta[xm2] and not zeta[xm1]:
            b1 = (
                (1 - join[xm3]) * (delta - beta)
                + zeta[xm3] * (alpha - gamma)
                + (1 - zeta[xm3]) * xi[xm3] * (delta - gamma)
            )
            c1 = xi[xm2] * zeta[xp1] * (1 - xi[xp1]) * corr + 1
            b2 = (
                (1 - join[xp1]) * (delta - beta)
                + xi[xp1] * (alpha - gamma)
                + (1 - xi[xp1]) * zeta[xp1] * (delta - gamma)
            )
            c2 = xi[xm3] * zeta[x] * (1 - zeta[xm3]) * corr + 1
            add((x, xm1, xm2, xm1), (1 - zeta[x]) * b1 * c1 + (1 - xi[xm2]) * b2 * c2)
        # same direction, departures two apart (renormalized channel)
        if xi[x] and not xi[xp1] and zeta[xp2] and not zeta[xp3]:
            v = (
                (1 - zeta[xp1]) * (1 - xi[xp2]) * xi[xp3] * zeta[x]
                * (gamma - beta) / gamma
                * (
                    (1 - join[xm1]) * (delta - beta)
                    + (1 - xi[xm1]) * zeta[xm1] * (delta - gamma)
                    + xi[xm1] * (alpha - gamma)
                )
            )
            add((x, xp1, xp2, xp3), v)
        if xi[x] and not xi[xm1] and zeta[xm2] and not zeta[xm3]:
            v = (
                (1 - zeta[xm1]) * (1 - xi[xm2]) * xi[xm3] * zeta[x]
                * (gamma - beta) / gamma
                * (
                    (1 - join[xp1]) * (delta - beta)
                    + (1 - xi[xp1]) * zeta[xp1] * (delta - gamma)
                    + xi[xp1] * (alpha - gamma)
                )
            )
            add((x, xm1, xm2, xm3), v)
        if not corrected:
            continue
        # role-swapped twins of the same-direction entries (first copy ahead).
        # The same-arrival and same-departure entries need no such twins:
        # exchanging the copies maps each onto the mirror of the other.
        if zeta[x] and not zeta[xp1] and xi[xp2] and not xi[xp3]:
            v = (
                (1 - xi[xp1]) * (1 - zeta[xp2]) * zeta[xp3] * xi[x]
                * (gamma - beta) / gamma
                * (
                    (1 - join[xm1]) * (delta - beta)
                    + (1 - zeta[xm1]) * xi[xm1] * (delta - gamma)
                    + zeta[xm1] * (alpha - gamma)
                )
            )
            add((xp2, xp3, x, xp1), v)
        if zeta[x] and not zeta[xm1] and xi[xm2] and not xi[xm3]:
            v = (
                (1 - xi[xm1]) * (1 - zeta[xm2]) * zeta[xm3] * xi[x]
                * (gamma - beta) / gamma
                * (
                    (1 - join[xp1]) * (delta - beta)
                    + (1 - zeta[xp1]) * xi[xp1] * (delta - gamma)
                    + zeta[xp1] * (alpha - gamma)
                )
            )
            add((xm2, xm3, x, xm1), v)
    return out


# ---------------------------------------------------------------------------
# Simple exclusion: hand-coded basic coupling


def sep_basic_rows(law: dict, size: int, states: list, index: dict) -> list:
    """Generator rows of the basic coupling for simple exclusion: both copies
    attempt the same clock's jump and each moves iff its own move is legal."""
    rows = []
    for xi, zeta in states:
        row = {}
        for x in range(size):
            for d, pr in law.items():
                if pr <= 0:
                    continue
                y = (x + d) % size
                m1 = is_active(xi, x, y)
                m2 = is_active(zeta, x, y)
                if not (m1 or m2):
                    continue
                target = (
                    apply_jump(xi, x, y) if m1 else xi,
                    apply_jump(zeta, x, y) if m2 else zeta,
                )
                j = index[target]
                row[j] = row.get(j, 0) + pr
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# The acceptance battery


@dataclass
class CriterionResult:
    ident: str
    passed: bool
    detail: str
    seconds: float


def _zoo():
    return (
        ("sep", sep()),
        ("sep symmetric", sep({1: F(1, 2), -1: F(1, 2)})),
        ("two_step", two_step()),
        ("two_star_step", two_star_step()),
        ("traffic2 1/2 1/2", traffic2(F(1, 2), F(1, 2))),
        ("traffic2 7/10 1/5", traffic2(F(7, 10), F(1, 5))),
        ("gg 2 1 1 2", gg_symmetrized(2, 1, 1, 2)),
        ("gg 3/2 3/4 1 5/4", gg_symmetrized(F(3, 2), F(3, 4), 1, F(5, 4))),
        ("speed_change_decreasing", speed_change_decreasing(2)),
        ("speed_change_increasing", speed_change_increasing()),
        ("custom_table constant", custom_table((1,), 0, {(1, format(k, "03b")): 1 for k in range(8)})),
    )


MONOTONE_ZOO = _zoo()


def _crit_traffic2_boundary():
    grid = [F(k, 4) for k in range(9)]
    bad = []
    for a in grid:
        for b in grid:
            want = abs(a - b) <= 1
            got = is_monotone(traffic2(a, b)).monotone
            if got != want:
                bad.append((str(a), str(b), got))
    detail = "81 exact grid points; verdict == (|alpha - beta| <= 1)"
    if bad:
        detail += "; mismatches at %s" % bad[:4]
    return not bad, detail


def _crit_gg_region():
    grid = [F(k, 2) for k in range(5)]
    bad = []
    for params in product(grid, repeat=4):
        want = gg_expected_attractive(*params)
        got = is_monotone(gg_symmetrized(*params)).monotone
        if got != want:
            bad.append(tuple(str(p) for p in params) + (got,))
    detail = "625 exact grid points; verdict == closed-form region"
    if bad:
        detail += "; mismatches at %s" % bad[:4]
    return not bad, detail


def _crit_sep_basic_coupling():
    size = 6
    issues = []
    states = list(pair_states(size))
    index = {s: i for i, s in enumerate(states)}
    for label, law in (("asymmetric", {1: F(1)}), ("symmetric", {1: F(1, 2), -1: F(1, 2)})):
        spec = sep(dict(law))
        jumps = [(x, (x + d) % size, pr) for x in range(size) for d, pr in law.items()]
        for xi, zeta in states:
            # attractive composition carries the diagonal of every jump that
            # both copies can make
            want = {
                (x, y, x, y): pr
                for x, y, pr in jumps
                if is_active(xi, x, y) and is_active(zeta, x, y)
            }
            if coupling_table(spec, xi, zeta, "attractive").coupled != want:
                issues.append((label, "attractive", xi, zeta))
            # increasing is the same composition on an ordered pair
            want = want if is_ordered(xi, zeta) else {}
            if coupling_table(spec, xi, zeta, "increasing").coupled != want:
                issues.append((label, "increasing", xi, zeta))
        hand = sep_basic_rows(law, size, states, index)
        engine = coupled_generator(spec, size, "attractive")
        for i, (a, b) in enumerate(zip(hand, engine.rows)):
            if a != b:
                issues.append((label, "generator", states[i]))
    detail = "both jump laws: diagonal tables on all %d pairs and exact generator match" % len(states)
    if issues:
        detail = "%d deviations, first %s" % (len(issues), issues[:2])
    return not issues, detail


def _crit_marginal_consistency():
    bad = []
    for label, spec in MONOTONE_ZOO:
        for kind in ("increasing", "attractive", "strict"):
            err = marginal_errors(spec, 5, kind)
            if err != 0:
                bad.append((label, kind, err))
    detail = (
        "%d models x 3 kinds x 1024 pairs: coupled + lone rates reproduce "
        "both marginals exactly (coupled mass never exceeds a marginal rate)"
        % len(MONOTONE_ZOO)
    )
    if bad:
        detail = "nonzero marginal gaps: %s" % bad[:4]
    return not bad, detail


def _crit_order_preservation():
    size = 7
    issues = []
    for label, spec in MONOTONE_ZOO:
        violations = audit_order_preservation(spec, size, "increasing")
        if violations:
            issues.append((label, len(violations)))
    negatives = []
    for label, spec in (
        ("traffic2 0 2", traffic2(0, 2)),
        ("gg 1 0 1 0", gg_symmetrized(1, 0, 1, 0)),
    ):
        negatives.append((label, len(audit_order_preservation(spec, size, "increasing"))))
    ok = not issues and all(n >= 1 for _, n in negatives)
    detail = (
        "monotone zoo: 0 order-breaking moves on all ordered pairs (L=%d); " % size
        + "; ".join("%s: %d order-breaking moves" % (l, n) for l, n in negatives)
    )
    if issues:
        detail = "order broken for %s; negatives %s" % (issues, negatives)
    return ok, detail


def _crit_discrepancy_monotone():
    issues = []
    for label, spec in MONOTONE_ZOO:
        violations = audit_discrepancy_monotone(spec, 5, "attractive")
        if violations:
            issues.append((label, len(violations)))
    detail = "%d models, all 1024 pairs (L=5): no coupled move increases the discrepancy count" % len(
        MONOTONE_ZOO
    )
    if issues:
        detail = "discrepancy increased for %s" % issues
    return not issues, detail


def _crit_cross_formulation():
    checked = 0
    for label, spec in (
        ("sep", sep()),
        ("traffic2 7/10 1/5", traffic2(F(7, 10), F(1, 5))),
        ("gg 2 1 1 2", gg_symmetrized(2, 1, 1, 2)),
    ):
        for xi, zeta in ordered_pairs(6):
            report = oneD_cross_check(spec, xi, zeta)
            checked += 1
            if not report.equal:
                return False, "%s: prefix-sum oracle and coupling_table differ at %s / %s" % (
                    label,
                    xi,
                    zeta,
                )
    return True, "3 models, %d ordered pairs: prefix-sum oracle == coupling_table, exact" % checked


def _crit_sector_uniform():
    worst = 0.0
    bad = []

    def scan(label, spec):
        nonlocal worst
        for rep in check_sector_uniform_stationary(spec, 8):
            worst = max(worst, rep.max_imbalance)
            if not rep.ok:
                bad.append((label, rep.sector, rep.max_imbalance))

    scan("two_star_step", two_star_step())
    grid = (0.0, 0.5, 1.0, 1.5, 2.0)
    for a in grid:
        for b in grid:
            scan("traffic2 %g %g" % (a, b), traffic2(a, b))
    detail = "uniform weights balance every sector (L=8): worst imbalance %.2e" % worst
    if bad:
        detail = "imbalance above %g: %s" % (BALANCE_TOL, bad[:4])
    return not bad, detail


def _crit_extinction():
    reports = []
    for label, spec in (
        ("traffic2 1/2 1/2", traffic2(F(1, 2), F(1, 2))),
        ("gg 2 1 1 2", gg_symmetrized(2, 1, 1, 2)),
    ):
        rep = discrepancy_extinction(spec, 7, "strict")
        reports.append((label, rep))
    ok = all(rep.min_probability == 1 for _, rep in reports)
    detail = "; ".join(
        "%s: %s unordered pair reaches a comparable pair (%d pairs)"
        % (label, "every" if rep.min_probability == 1 else "not every", rep.pairs_checked)
        for label, rep in reports
    )
    return ok, detail


def _crit_simulation_pathwise():
    spec = traffic2(0.7, 0.2)
    runs, size, horizon = 200, 32, 1000.0
    events = 0
    for rep in range(runs):
        rng = np.random.Generator(np.random.Philox(key=[5150, rep]))
        start = discrepancy_pair(size, 6, rng)
        traj = simulate_coupled(
            spec,
            start.first,
            start.second,
            "attractive",
            t_end=horizon,
            seed=5150,
            replica=rep,
        )
        curve = traj.discrepancy_curve
        for prev, nxt in zip(curve, curve[1:]):
            if nxt > prev:
                return False, "discrepancy count grew in replica %d" % rep
        events += traj.total_events
    # one long single run against the exact stationary law, grouped by
    # rotation class (the dynamics is translation invariant)
    gen = single_generator(traffic2(F(7, 10), F(1, 5)), 10, 5)
    pi = stationary_distribution(gen)
    class_weight = {}
    for state, w in zip(gen.states, pi.weights):
        cls = min(state[i:] + state[:i] for i in range(len(state)))
        class_weight[cls] = class_weight.get(cls, 0.0) + float(w)
    traj = simulate_single(spec, (1, 0) * 5, t_end=10_000.0, sample_dt=1.0, seed=424242)
    labels = [min(s[i:] + s[:i] for i in range(len(s))) for s in traj.snapshots[1:]]
    nbatch = 20
    per = len(labels) // nbatch
    max_z = 0.0
    for cls, weight in class_weight.items():
        means = []
        for b in range(nbatch):
            chunk = labels[b * per : (b + 1) * per]
            means.append(sum(1 for c in chunk if c == cls) / per)
        overall = sum(means) / nbatch
        sd = (sum((m - overall) ** 2 for m in means) / (nbatch - 1)) ** 0.5
        se = sd / nbatch**0.5
        gap = abs(overall - weight)
        if se == 0.0:
            if gap > 1e-12:
                return False, "rotation class %s never moved off frequency %g" % (cls, overall)
            continue
        max_z = max(max_z, gap / se)
    ok = max_z <= 3.0
    detail = (
        "200 coupled runs (L=32, t=1e3, %d events): discrepancy curves non-increasing; "
        "occupation frequencies over %d rotation classes within %.2f sigma of the exact law"
        % (events, len(class_weight), max_z)
    )
    return ok, detail


def _crit_speed_models():
    slower = is_monotone(speed_change_decreasing(2))
    faster = is_monotone(speed_change_increasing())
    ok = slower.monotone and faster.monotone
    detail = "crowding-slowed span-2 model and vacancy-normalized nearest-neighbour model both monotone"
    if not ok:
        detail = "verdicts: decreasing=%s increasing=%s" % (slower.monotone, faster.monotone)
    return ok, detail


def _crit_golden_tables():
    problems = []
    # two-range traffic model: exact match with the six closed forms
    t2_params = (
        (F(1), F(0)),
        (F(0), F(1)),
        (F(1, 2), F(1, 2)),
        (F(7, 10), F(1, 5)),
        (F(2), F(1)),
        (F(1), F(2)),
        (F(3, 2), F(3, 4)),
    )
    t2_pairs = 0
    for alpha, beta in t2_params:
        spec = traffic2(alpha, beta)
        for xi, zeta in ordered_pairs(7):
            t2_pairs += 1
            engine = coupling_table(spec, xi, zeta, "increasing").coupled
            reference = traffic2_reference_table(alpha, beta, xi, zeta)
            if engine != reference:
                problems.append(("traffic2", (str(alpha), str(beta)), xi, zeta))
    # read-ahead model, increasing table
    gg_pairs = 0
    for params in ((2.0, 1.0, 1.0, 2.0), (1.5, 0.75, 1.0, 1.25)):
        spec = gg_symmetrized(*params)
        for xi, zeta in ordered_pairs(8):
            gg_pairs += 1
            engine = coupling_table(spec, xi, zeta, "increasing").coupled
            reference = gg_reference_increasing(params, xi, zeta)
            if table_mismatches(reference, engine, 1e-9):
                problems.append(("gg increasing", params, xi, zeta))
    # read-ahead model, composed table: corrected draft must match, the
    # uncorrected draft must visibly diverge
    params = (1.5, 0.75, 1.0, 1.25)
    spec = gg_symmetrized(*params)
    window, size = 7, 10
    draft_divergences = 0
    composed_pairs = 0
    for bits in product(range(4), repeat=window):
        xi = tuple(b >> 1 for b in bits) + (0,) * (size - window)
        zeta = tuple(b & 1 for b in bits) + (0,) * (size - window)
        composed_pairs += 1
        engine = coupling_table(spec, xi, zeta, "attractive").coupled
        corrected = gg_reference_attractive(params, xi, zeta, corrected=True)
        if table_mismatches(corrected, engine, 1e-9):
            problems.append(("gg composed", params, xi, zeta))
        draft = gg_reference_attractive(params, xi, zeta, corrected=False)
        if table_mismatches(draft, engine, 1e-9):
            draft_divergences += 1
    ok = not problems and draft_divergences > 0
    detail = (
        "traffic2: engine == closed forms on %d ordered pairs (7 parameter sets, exact); "
        "read-ahead: increasing forms match on %d ordered pairs, composed forms match on "
        "%d window pairs; uncorrected draft diverges on %d pairs (documented corrections)"
        % (t2_pairs, gg_pairs, composed_pairs, draft_divergences)
    )
    if problems:
        detail = "%d table deviations, first: %s" % (len(problems), problems[:2])
    return ok, detail


CRITERIA = {
    "traffic2-boundary": _crit_traffic2_boundary,
    "gg-region": _crit_gg_region,
    "sep-basic-coupling": _crit_sep_basic_coupling,
    "marginal-consistency": _crit_marginal_consistency,
    "order-preservation": _crit_order_preservation,
    "discrepancy-monotone": _crit_discrepancy_monotone,
    "cross-formulation": _crit_cross_formulation,
    "sector-uniform": _crit_sector_uniform,
    "extinction": _crit_extinction,
    "simulation-pathwise": _crit_simulation_pathwise,
    "speed-models": _crit_speed_models,
    "golden-tables": _crit_golden_tables,
}


def suite_ids() -> tuple:
    return tuple(CRITERIA)


def run_criterion(ident: str) -> CriterionResult:
    try:
        fn = CRITERIA[ident]
    except KeyError:
        raise ValueError("unknown criterion %r (known: %s)" % (ident, ", ".join(CRITERIA)))
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crashing criterion counts as a failure
        passed, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
    return CriterionResult(ident, bool(passed), detail, time.perf_counter() - start)


def run_suite(idents=None) -> list:
    """Run the requested criteria (all by default), in registry order."""
    chosen = list(idents) if idents is not None else list(CRITERIA)
    for ident in chosen:
        if ident not in CRITERIA:
            raise ValueError("unknown criterion %r (known: %s)" % (ident, ", ".join(CRITERIA)))
    return [run_criterion(ident) for ident in chosen]
