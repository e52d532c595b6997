"""Each benchmark check accepts a right output and rejects a wrong one.

    python3 -m pytest perfbench/tests
"""

import itertools
import math
import os
import random
import sys
from fractions import Fraction as F
from types import SimpleNamespace as NS

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import Op  # noqa: E402


def _verdict(monotone, witnesses=()):
    return NS(monotone=monotone, witnesses=list(witnesses))


def _witness(kind="departure", center=1, lower="010", upper="111", lhs=2, rhs=1):
    return NS(kind=kind, center=center, lower=lower, upper=upper, lhs=lhs, rhs=rhs)


def _pair(first, second):
    return NS(first=tuple(first), second=tuple(second))


def _traj(snapshots, final, curve=None, events=1):
    return NS(snapshots=list(snapshots), final=final, discrepancy_curve=curve,
              total_events=events)


# --- monotone ---------------------------------------------------------------


def test_closed_forms():
    assert checks.traffic2_monotone(F(1, 2), F(3, 2))
    assert not checks.traffic2_monotone(0, 2)
    assert checks.gg_monotone(2, 1, 1, 2)
    assert not checks.gg_monotone(1, 0, 1, 0)


def test_verdict_against_closed_form():
    good = _verdict(False, [_witness()])
    assert checks.verdict_matches("t", good, False) is None
    assert checks.verdict_matches("t", _verdict(True), True) is None
    assert checks.verdict_matches("t", _verdict(True), False)
    assert checks.verdict_matches("t", good, True)
    assert checks.verdict_matches("t", _verdict(True, [_witness()]), True)


def test_witnesses_must_break_an_ordered_pinned_pair():
    assert checks.witnesses_valid("t", _verdict(False, [_witness()])) is None
    assert checks.witnesses_valid("t", _verdict(False))
    assert checks.witnesses_valid("t", _verdict(False, [_witness(lower="110", upper="011")]))
    assert checks.witnesses_valid("t", _verdict(False, [_witness(kind="arrival")]))
    assert checks.witnesses_valid("t", _verdict(False, [_witness(lhs=1, rhs=1)]))


def test_wider_window_keeps_the_verdict():
    assert checks.verdicts_agree("t", _verdict(True), _verdict(True)) is None
    assert checks.verdicts_agree("t", _verdict(True), _verdict(False))


# --- exact ------------------------------------------------------------------


def test_pair_counts_match_enumeration():
    for size in (2, 3, 4):
        configs = list(itertools.product((0, 1), repeat=size))
        ordered = sum(checks.comparable(a, b) for a in configs for b in configs)
        assert ordered == checks.ordered_pair_count(size)
        assert checks.unordered_pair_count(size) == len(configs) ** 2 - ordered


def test_audits():
    bad = NS(pair=_pair((0, 1), (1, 1)), target=_pair((1, 0), (0, 1)))
    assert checks.no_violations("t", []) is None
    assert checks.no_violations("t", [bad])
    assert checks.order_broken("t", [bad]) is None
    assert checks.order_broken("t", [])
    still = NS(pair=_pair((0, 1), (1, 1)), target=_pair((1, 0), (1, 1)))
    assert checks.order_broken("t", [still])


def test_marginal_error_is_exact_zero():
    assert checks.marginal_exact_zero("t", 0) is None
    assert checks.marginal_exact_zero("t", F(0)) is None
    assert checks.marginal_exact_zero("t", F(1, 10**30))
    assert checks.marginal_exact_zero("t", 0.0)
    assert checks.marginal_exact_zero("t", 1e-18)


def test_extinction():
    pairs = checks.unordered_pair_count(5)
    assert checks.extinction_sure("t", NS(min_probability=1 - 1e-12, pairs_checked=pairs), 5) is None
    assert checks.extinction_sure("t", NS(min_probability=0.99, pairs_checked=pairs), 5)
    assert checks.extinction_sure("t", NS(min_probability=1.0, pairs_checked=pairs - 1), 5)


# --- simulate ---------------------------------------------------------------


def test_particles_conserved():
    a, b = (1, 0, 1, 0), (0, 1, 1, 0)
    assert checks.particles_conserved("t", _traj([a, b], b), (2,)) is None
    assert checks.particles_conserved("t", _traj([a, (1, 1, 1, 0)], b), (2,))
    pair = _pair(a, b)
    assert checks.particles_conserved("t", _traj([pair], pair), (2, 2)) is None
    assert checks.particles_conserved("t", _traj([pair], _pair(a, (1, 1, 1, 0))), (2, 2))


def test_discrepancy_curve():
    assert checks.curve_nonincreasing("t", [4, 4, 2, 0]) is None
    assert checks.curve_nonincreasing("t", [4, 2, 4])


def test_order_and_lockstep():
    lo, hi = (1, 0, 0, 0), (1, 1, 0, 0)
    assert checks.stays_ordered("t", _traj([_pair(lo, hi)], _pair(lo, hi))) is None
    assert checks.stays_ordered("t", _traj([_pair(lo, hi)], _pair((0, 0, 1, 0), hi)))
    assert checks.stays_identical("t", _traj([_pair(lo, lo)], _pair(hi, hi))) is None
    assert checks.stays_identical("t", _traj([_pair(lo, lo)], _pair(lo, hi)))


def _sector(size, count):
    out = []
    for occupied in itertools.combinations(range(size), count):
        out.append(tuple(1 if x in occupied else 0 for x in range(size)))
    return out


def test_uniform_law_accepts_uniform_and_rejects_tilted_samples():
    rng = random.Random(7)
    states = _sector(10, 5)
    uniform = [rng.choice(states) for _ in range(6000)]
    assert checks.uniform_by_rotation("t", uniform, 10, 5) is None
    # clustering law: weight 3 per pair of adjacent particles
    weights = [3 ** sum(s[i] & s[(i + 1) % 10] for i in range(10)) for s in states]
    tilted = rng.choices(states, weights, k=6000)
    assert checks.uniform_by_rotation("t", tilted, 10, 5)
    assert checks.uniform_by_rotation("t", [states[0]] * 6000, 10, 5)
    assert checks.uniform_by_rotation("t", uniform[:-1] + [(1,) * 5 + (0,) * 5 + (1,)], 10, 5)


# --- solve ------------------------------------------------------------------


def _ring_walk(size):
    """Sparse rows of a biased walk on a ring: stationary law is uniform."""
    return [{(i + 1) % size: 2.0, (i - 1) % size: 1.0} for i in range(size)]


def test_uniform_weights():
    states = math.comb(6, 3)
    right = [NS(weights=[1 / states] * states)]
    assert checks.uniform_weights("t", right, 6, 3) is None
    off = [NS(weights=[1 / states + 1e-6] + [1 / states] * (states - 1))]
    assert checks.uniform_weights("t", off, 6, 3)
    assert checks.uniform_weights("t", right + right, 6, 3)


def test_stationary_balance():
    rows = _ring_walk(5)
    gen = NS(rows=rows, dimension=5)
    assert checks.stationary("t", [NS(weights=[0.2] * 5)], gen) is None
    assert checks.stationary("t", [NS(weights=[0.3, 0.1, 0.2, 0.2, 0.2])], gen)
    assert checks.stationary("t", [NS(weights=[0.25] * 5)], gen)
    assert checks.stationary("t", [NS(weights=[0.4, 0.4, 0.4, -0.2, 0.0])], gen)
    # a chain whose law is not uniform: the uniform vector must fail
    rows = [{1: 1.0}, {0: 2.0}]
    assert checks.stationary("t", [NS(weights=[0.5, 0.5])], NS(rows=rows, dimension=2))
    assert checks.stationary("t", [NS(weights=[2 / 3, 1 / 3])], NS(rows=rows, dimension=2)) is None


# --- the run loop -----------------------------------------------------------


def test_refusal_that_returns_counts_as_failed():
    ok = Op("x", "ok", lambda: 1, 3, lambda out: None)
    refuses = Op("x", "refuses", lambda: int("x"), 0, lambda out: None, raises=ValueError)
    returns = Op("x", "returns", lambda: 1, 0, lambda out: None, raises=ValueError)
    done = run.run_rounds([ok, refuses, returns], 0.0)
    assert (done["attempted"], done["failed"], done["items"]) == (3, 1, 3)
    assert not done["problems"]


def test_wrong_output_is_reported_and_exception_counted():
    wrong = Op("x", "wrong", lambda: 1, 1, lambda out: "wrong answer")
    broken = Op("x", "broken", lambda: 1 / 0, 1, lambda out: None)
    done = run.run_rounds([wrong, broken], 0.0)
    assert done["problems"] == ["wrong answer"]
    assert (done["attempted"], done["failed"], done["items"]) == (2, 1, 1)
