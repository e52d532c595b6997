"""Independent checks of couplex outputs.

Every check takes a program output and returns ``None`` when it is right,
or a one-line description of what is wrong.  The closed forms and counts
are recoded here from the model definitions; nothing is imported from
``couplex.golden``, which belongs to the program under test.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

#: extinction probabilities below this fail (the exact solve is a float
#: linear solve, so 1 is reached up to rounding)
EXTINCTION_FLOOR = 1 - 1e-8

#: batch-means test of a long single run: number of batches and the
#: per-class bound on |mean - p| / standard error.  With 20 batch means the
#: statistic is Student t with 19 degrees of freedom, and
#: P(|T| > 10) = 5.3e-9 per class, so a correct sampler fails the test on
#: one of the 26 rotation classes of L = 10, n = 5 with probability < 2e-7.
UNIFORM_BATCHES = 20
UNIFORM_Z = 10.0


# ---------------------------------------------------------------------------
# Closed forms and counts


def traffic2_monotone(alpha, beta) -> bool:
    """traffic2 keeps the order iff |alpha - beta| <= 1."""
    return abs(alpha - beta) <= 1


def gg_monotone(alpha, beta, gamma, delta) -> bool:
    """Attractiveness region of gg_symmetrized."""
    lo, hi = min(gamma, delta), max(gamma, delta)
    return beta <= lo and hi <= alpha <= beta + lo and hi <= 2 * beta


def leq(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def comparable(a, b) -> bool:
    return leq(a, b) or leq(b, a)


def ordered_pair_count(size: int) -> int:
    """Pairs (xi, zeta) of a ring with xi <= zeta or zeta <= xi."""
    return 2 * 3**size - 2**size


def unordered_pair_count(size: int) -> int:
    return 4**size - ordered_pair_count(size)


def rotation_class(bits) -> tuple:
    bits = tuple(bits)
    return min(bits[i:] + bits[:i] for i in range(len(bits)))


def uniform_class_law(size: int, count: int) -> dict:
    """Probability of each rotation class under the uniform sector law."""
    law = {}
    total = math.comb(size, count)
    for occupied in itertools.combinations(range(size), count):
        bits = [0] * size
        for x in occupied:
            bits[x] = 1
        cls = rotation_class(bits)
        law[cls] = law.get(cls, 0) + 1
    return {cls: n / total for cls, n in law.items()}


# ---------------------------------------------------------------------------
# monotone


def verdict_matches(label: str, verdict, expected: bool):
    if verdict.monotone != expected:
        return "%s: verdict %s, expected %s" % (label, verdict.monotone, expected)
    if verdict.monotone and verdict.witnesses:
        return "%s: monotone verdict carries %d witnesses" % (label, len(verdict.witnesses))
    return witnesses_valid(label, verdict)


def witnesses_valid(label: str, verdict):
    """Each witness is an ordered pattern pair, pinned at its centre, whose
    left side exceeds its right side."""
    if not verdict.monotone and not verdict.witnesses:
        return "%s: negative verdict without witnesses" % label
    for w in verdict.witnesses:
        lower = tuple(int(c) for c in w.lower)
        upper = tuple(int(c) for c in w.upper)
        pinned = 0 if w.kind == "arrival" else 1
        if len(lower) != len(upper) or not leq(lower, upper):
            return "%s: witness %s/%s is not an ordered pair" % (label, w.lower, w.upper)
        if lower[w.center] != pinned or upper[w.center] != pinned:
            return "%s: %s witness %s/%s not pinned at its centre" % (
                label, w.kind, w.lower, w.upper)
        if not w.lhs > w.rhs:
            return "%s: witness %s/%s does not break the inequality" % (
                label, w.lower, w.upper)
    return None


def verdicts_agree(label: str, base, wider):
    """Widening the enumeration window cannot change the verdict."""
    if base.monotone != wider.monotone:
        return "%s: verdict %s at extra=0 but %s at extra>0" % (
            label, base.monotone, wider.monotone)
    return None


# ---------------------------------------------------------------------------
# exact


def no_violations(label: str, violations):
    if violations:
        return "%s: %d violations, first %r" % (label, len(violations), violations[0])
    return None


def order_broken(label: str, violations):
    """A non-monotone model: at least one move from an ordered pair to an
    unordered one, and every reported move is one."""
    if not violations:
        return "%s: no order-breaking move found" % label
    for v in violations:
        if not comparable(v.pair.first, v.pair.second):
            return "%s: reported start %r is not ordered" % (label, v.pair)
        if comparable(v.target.first, v.target.second):
            return "%s: reported target %r is still ordered" % (label, v.target)
    return None


def marginal_exact_zero(label: str, err):
    if not isinstance(err, (int, Fraction)) or isinstance(err, bool) or err != 0:
        return "%s: marginal error %r, expected exact 0" % (label, err)
    return None


def extinction_sure(label: str, report, size: int):
    if report.pairs_checked != unordered_pair_count(size):
        return "%s: %d pairs checked, expected %d" % (
            label, report.pairs_checked, unordered_pair_count(size))
    if not report.min_probability >= EXTINCTION_FLOOR:
        return "%s: extinction probability %r below %r" % (
            label, report.min_probability, EXTINCTION_FLOOR)
    return None


# ---------------------------------------------------------------------------
# simulate


def particles_conserved(label: str, traj, counts: tuple):
    """Every sample and the final state keep the starting particle numbers."""
    for state in list(traj.snapshots) + [traj.final]:
        copies = (state,) if len(counts) == 1 else (state.first, state.second)
        got = tuple(sum(c) for c in copies)
        if got != counts:
            return "%s: particle numbers %r, started with %r" % (label, got, counts)
    return None


def curve_nonincreasing(label: str, curve):
    for k in range(1, len(curve)):
        if curve[k] > curve[k - 1]:
            return "%s: discrepancies grew from %d to %d at event %d" % (
                label, curve[k - 1], curve[k], k)
    return None


def stays_ordered(label: str, traj):
    for state in list(traj.snapshots) + [traj.final]:
        if not comparable(state.first, state.second):
            return "%s: ordered start became unordered: %r" % (label, state)
    return None


def stays_identical(label: str, traj):
    for state in list(traj.snapshots) + [traj.final]:
        if state.first != state.second:
            return "%s: identical copies split: %r" % (label, state)
    return None


def uniform_by_rotation(label: str, snapshots, size: int, count: int):
    """Batch-means test of sampled states against the uniform sector law,
    one rotation class at a time."""
    law = uniform_class_law(size, count)
    per = len(snapshots) // UNIFORM_BATCHES
    if per < 1:
        return "%s: %d samples for %d batches" % (label, len(snapshots), UNIFORM_BATCHES)
    labels = [rotation_class(s) for s in snapshots[: per * UNIFORM_BATCHES]]
    unknown = set(labels) - set(law)
    if unknown:
        return "%s: sampled states outside the sector: %r" % (label, sorted(unknown)[0])
    n = len(labels)
    for cls, p in law.items():
        means = [
            sum(1 for c in labels[b * per : (b + 1) * per] if c == cls) / per
            for b in range(UNIFORM_BATCHES)
        ]
        mean = sum(means) / UNIFORM_BATCHES
        var = sum((m - mean) ** 2 for m in means) / (UNIFORM_BATCHES - 1)
        # the independent-sample error is a floor: positively correlated
        # samples can only widen it, and a class never seen has var == 0
        se = max(math.sqrt(var / UNIFORM_BATCHES), math.sqrt(p * (1 - p) / n))
        if abs(mean - p) > UNIFORM_Z * se:
            return "%s: class %s at frequency %.4f, law %.4f (%.1f standard errors)" % (
                label, "".join(map(str, cls)), mean, p, abs(mean - p) / se)
    return None


# ---------------------------------------------------------------------------
# solve


def _single_class(label: str, dists, states: int):
    if len(dists) != 1:
        return "%s: %d closed classes, expected 1" % (label, len(dists))
    if len(dists[0].weights) != states:
        return "%s: %d weights for %d states" % (label, len(dists[0].weights), states)
    return None


def uniform_weights(label: str, dists, size: int, count: int, rtol: float = 1e-8):
    """Every weight equals 1 / C(size, count)."""
    states = math.comb(size, count)
    problem = _single_class(label, dists, states)
    if problem:
        return problem
    worst = max(abs(float(w) * states - 1) for w in dists[0].weights)
    if not worst <= rtol:
        return "%s: weight off 1/C(%d,%d) by a factor %.3g" % (label, size, count, worst)
    return None


def stationary_residual(rows, weights) -> float:
    """max |pi Q| computed from the sparse generator rows."""
    flow = [0.0] * len(rows)
    for i, row in enumerate(rows):
        w = float(weights[i])
        out = 0.0
        for j, r in row.items():
            r = float(r)
            flow[j] += w * r
            out += r
        flow[i] -= w * out
    return max(abs(f) for f in flow)


def stationary(label: str, dists, gen, tol: float = 1e-10):
    """Weights are a probability vector and balance the generator."""
    problem = _single_class(label, dists, gen.dimension)
    if problem:
        return problem
    weights = dists[0].weights
    if min(float(w) for w in weights) < 0:
        return "%s: negative weight" % label
    total = sum(float(w) for w in weights)
    if abs(total - 1) > 1e-12:
        return "%s: weights sum to %r" % (label, total)
    scale = max((sum(float(r) for r in row.values()) for row in gen.rows), default=1.0)
    residual = stationary_residual(gen.rows, weights)
    if not residual <= tol * max(scale, 1.0):
        return "%s: max |pi Q| = %.3g" % (label, residual)
    return None
