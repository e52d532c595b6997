"""The four benchmark workloads: inputs from a seed, and one round of calls.

``WORKLOADS[name](seed)`` makes a workload's inputs and returns its round:
a list of :class:`Op`.  Each op makes one timed call into the program's
public API and carries an independent check of the output.  A run repeats
the same round, so every run attempts the same operations in the same
proportions.

Rate-table caches live on the spec, so every op builds its spec inside
the timed call: each round pays the cold fills again, as a user does on
every run.  The composed-coupling cache of the simulator lives on one run
and is filled inside the call in the same way.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Optional

import couplex
from couplex import exact, monotone, simulate

import checks


@dataclass
class Op:
    """One timed call into the program."""

    span: str  # layer.function, the span name in a trace
    label: str  # which inputs, for messages
    call: Callable[[], object]
    items: int  # work items the call completes
    check: Callable[[object], Optional[str]]
    #: the exception the call must raise; a return counts as a failure
    raises: Optional[type] = None


def _config(rng: random.Random, size: int, count: int) -> tuple:
    occupied = set(rng.sample(range(size), count))
    return tuple(1 if x in occupied else 0 for x in range(size))


def _grid(rng: random.Random, values, count: int, arity: int) -> list:
    return [tuple(rng.choice(values) for _ in range(arity)) for _ in range(count)]


def _fmt(params) -> str:
    return " ".join(str(p) for p in params)


# ---------------------------------------------------------------------------
# decide: is_monotone on cold specs


def _verdict_op(label, make, expected, extra=0):
    return Op(
        "monotone.is_monotone",
        label,
        lambda: monotone.is_monotone(make(), extra=extra),
        1,
        lambda v: checks.verdict_matches(label, v, expected),
    )


def decide(seed: int) -> list:
    """Exact grids of traffic2 and gg_symmetrized, checked against their
    closed forms, plus wide-window rules where enumeration dominates."""
    rng = random.Random("decide:%d" % seed)
    ops = []
    t2_grid = _grid(rng, [F(k, 4) for k in range(13)], 64, 2)
    gg_grid = _grid(rng, [F(k, 2) for k in range(5)], 128, 4)
    for a, b in t2_grid:
        ops.append(_verdict_op(
            "traffic2 %s" % _fmt((a, b)),
            lambda a=a, b=b: couplex.traffic2(a, b),
            checks.traffic2_monotone(a, b)))
    for params in gg_grid:
        ops.append(_verdict_op(
            "gg_symmetrized %s" % _fmt(params),
            lambda params=params: couplex.gg_symmetrized(*params),
            checks.gg_monotone(*params)))
    # a wider window must give the same verdict as the closed form
    for a, b in t2_grid[:4]:
        ops.append(_verdict_op(
            "traffic2 %s extra=1" % _fmt((a, b)),
            lambda a=a, b=b: couplex.traffic2(a, b),
            checks.traffic2_monotone(a, b), extra=1))
    for params in gg_grid[:4]:
        ops.append(_verdict_op(
            "gg_symmetrized %s extra=1" % _fmt(params),
            lambda params=params: couplex.gg_symmetrized(*params),
            checks.gg_monotone(*params), extra=1))
    # two-site law of the two-step rule, at extra 0 and 1
    p = F(rng.randint(1, 9), 10)
    law = {1: p, -1: 1 - p}
    label = "two_star_step %r" % law
    ops.append(Op(
        "monotone.is_monotone",
        label + " extra=0,1",
        lambda: (monotone.is_monotone(couplex.two_star_step(law)),
                 monotone.is_monotone(couplex.two_star_step(law), extra=1)),
        2,
        lambda vs: checks.witnesses_valid(label, vs[0])
        or checks.witnesses_valid(label, vs[1])
        or checks.verdicts_agree(label, *vs)))
    # vacancy-normalized speed change over +-1, +-2: every occupied site has
    # total rate `strength` and rates rise with other sites' occupancy, so
    # both order conditions hold with equality at worst: always monotone
    q = {d: F(rng.randint(1, 6), 2) for d in (1, -1, 2, -2)}
    strength = F(rng.randint(1, 4), 2)
    ops.append(_verdict_op(
        "speed_change_increasing %r %s" % (q, strength),
        lambda: couplex.speed_change_increasing(q, strength),
        True))
    return ops


# ---------------------------------------------------------------------------
# verify: exhaustive audits of the coupled chain in exact arithmetic


def _monotone_traffic2(rng):
    while True:
        a, b = F(rng.randint(1, 20), 10), F(rng.randint(1, 20), 10)
        if checks.traffic2_monotone(a, b):
            return a, b


def _monotone_gg(rng):
    values = [F(k, 4) for k in range(1, 13)]
    while True:
        params = tuple(rng.choice(values) for _ in range(4))
        if checks.gg_monotone(*params):
            return params


def _audit_ops(label, make, size, audits):
    """Ops for the named audits of one model on every pair of a ring."""
    name = "%s L=%d" % (label, size)
    table = {
        "order": lambda: Op(
            "exact.audit_order_preservation", name,
            lambda: exact.audit_order_preservation(make(), size, "increasing"),
            checks.ordered_pair_count(size),
            lambda v: checks.no_violations(name + " order", v)),
        "discrepancy": lambda: Op(
            "exact.audit_discrepancy_monotone", name,
            lambda: exact.audit_discrepancy_monotone(make(), size, "attractive"),
            4**size,
            lambda v: checks.no_violations(name + " discrepancy", v)),
        "marginal": lambda: Op(
            "exact.marginal_errors", name,
            lambda: exact.marginal_errors(make(), size, "strict"),
            4**size,
            lambda e: checks.marginal_exact_zero(name + " marginal", e)),
        "extinction": lambda: Op(
            "exact.discrepancy_extinction", name,
            lambda: exact.discrepancy_extinction(make(), size, "strict"),
            checks.unordered_pair_count(size),
            lambda r: checks.extinction_sure(name + " extinction", r, size)),
    }
    return [table[a]() for a in audits]


def verify(seed: int) -> list:
    rng = random.Random("verify:%d" % seed)
    t2 = _monotone_traffic2(rng)
    gg = _monotone_gg(rng)
    sep_law = {1: F(rng.randint(1, 8), 4), -1: F(rng.randint(1, 8), 4)}
    p = F(rng.randint(1, 9), 10)
    step_law = {1: p, -1: 1 - p}
    ops = []
    ops += _audit_ops("traffic2 %s" % _fmt(t2), lambda: couplex.traffic2(*t2), 6,
                      ["discrepancy"])
    ops += _audit_ops("gg_symmetrized %s" % _fmt(gg), lambda: couplex.gg_symmetrized(*gg), 5,
                      ["order", "discrepancy", "marginal", "extinction"])
    ops += _audit_ops("sep %r" % sep_law, lambda: couplex.sep(sep_law), 5,
                      ["extinction"])
    ops += _audit_ops("two_star_step %r" % step_law, lambda: couplex.two_star_step(step_law), 5,
                      ["order", "marginal"])
    ops += _audit_ops("speed_change_decreasing 2", lambda: couplex.speed_change_decreasing(2), 5,
                      ["marginal"])
    # the non-monotone control: the increasing coupling must break the order
    name = "traffic2 0 2 L=5"
    ops.append(Op(
        "exact.audit_order_preservation", name,
        lambda: exact.audit_order_preservation(couplex.traffic2(0, 2), 5, "increasing"),
        checks.ordered_pair_count(5),
        lambda v: checks.order_broken(name, v)))
    return ops


# ---------------------------------------------------------------------------
# simulate: Gillespie runs in float arithmetic, one regime per op

SIM_MODEL = (0.7, 0.2)  # traffic2 rates; monotone, so every regime applies
#: (ring size, t_end) of the single-chain runs: 2500 to 3000 events each
SINGLE_RUNS = ((32, 250.0), (128, 60.0), (512, 14.0))
#: t_end per coupled regime; composed runs stop well before the pair orders
REGIME_T_END = {"lockstep": 40.0, "ordered": 35.0, "composed": 12.0}
#: an unordered pair on which coupling_table(traffic2(0, 2), ..., "strict")
#: raises: the coupled mass exceeds a marginal rate
STRICT_REFUSAL = ("000111010110", "101100101100")


def _sim_spec():
    return couplex.traffic2(*SIM_MODEL)


def _single_op(label, start, t_end, samples, seed, law_check=None):
    counts = (sum(start),)

    def check(traj):
        return (checks.particles_conserved(label, traj, counts)
                or (law_check(label, traj) if law_check else None))

    return Op(
        "simulate.simulate_single", label,
        lambda: simulate.simulate_single(
            _sim_spec(), start, t_end, sample_dt=t_end / samples, seed=seed),
        None, check)


def _coupled_op(label, first, second, kind, t_end, seed, regime_check):
    counts = (sum(first), sum(second))

    def check(traj):
        return (checks.particles_conserved(label, traj, counts)
                or regime_check(label, traj))

    return Op(
        "simulate.simulate_coupled", label,
        lambda: simulate.simulate_coupled(
            _sim_spec(), first, second, kind, t_end, sample_dt=t_end / 20, seed=seed),
        None, check)


def _ordered_above(rng, lower, extra):
    empty = [x for x, b in enumerate(lower) if not b]
    upper = list(lower)
    for x in rng.sample(empty, extra):
        upper[x] = 1
    return tuple(upper)


def simulate_ops(seed: int) -> list:
    rng = random.Random("simulate:%d" % seed)
    ops = []
    # long run at L = 10 against the uniform law of its sector
    start = _config(rng, 10, 5)
    ops.append(_single_op(
        "single L=10 uniform law", start, 3000.0, 6000, seed,
        lambda label, traj: checks.uniform_by_rotation(label, traj.snapshots, 10, 5)))
    for size, t_end in SINGLE_RUNS:
        ops.append(_single_op(
            "single L=%d" % size, _config(rng, size, size // 2), t_end, 20, seed))
    eta = _config(rng, 128, 64)
    ops.append(_coupled_op(
        "lockstep L=128", eta, eta, "attractive", REGIME_T_END["lockstep"], seed,
        lambda label, traj: checks.stays_identical(label, traj)
        or checks.curve_nonincreasing(label, traj.discrepancy_curve)))
    lower = _config(rng, 32, 12)
    upper = _ordered_above(rng, lower, 6)
    ops.append(_coupled_op(
        "ordered L=32", lower, upper, "increasing", REGIME_T_END["ordered"], seed,
        checks.stays_ordered))
    for k in range(2):
        first, second = _config(rng, 64, 32), _config(rng, 64, 32)
        ops.append(_coupled_op(
            "composed L=64 #%d" % k, first, second, "attractive", REGIME_T_END["composed"], seed,
            lambda label, traj: checks.curve_nonincreasing(label, traj.discrepancy_curve)))
    # the strict coupling cannot serve this pair; the run must refuse it
    first, second = (tuple(int(c) for c in s) for s in STRICT_REFUSAL)
    ops.append(Op(
        "simulate.simulate_coupled", "strict refusal traffic2 0 2",
        lambda: simulate.simulate_coupled(
            couplex.traffic2(0, 2), first, second, "strict", 5.0, seed=3),
        0, lambda _: None, raises=ValueError))
    return ops


# ---------------------------------------------------------------------------
# solve: stationary laws of particle-number sectors

SOLVE_SECTORS = ((12, 6), (13, 6), (14, 5))  # 924, 1716 and 2002 states


def _uniform(name, out, size, count):
    return checks.uniform_weights(name, out[1], size, count)


def _balanced(name, out, size, count):
    return checks.stationary(name, out[1], out[0])


def _solve_op(label, make, size, count, check):
    name = "%s L=%d n=%d" % (label, size, count)

    def call():
        gen = exact.single_generator(make(), size, count)
        return gen, exact.stationary_distributions(gen)

    return Op("exact.single_generator+stationary_distributions", name, call,
              math.comb(size, count), lambda out: check(name, out, size, count))


def solve(seed: int) -> list:
    rng = random.Random("solve:%d" % seed)
    a, b = F(rng.randint(0, 20), 10), F(rng.randint(0, 20), 10)
    p = F(rng.randint(1, 9), 10)
    step_law = {1: p, 2: 1 - p}
    gg = tuple(F(rng.randint(1, 12), 4) for _ in range(4))
    models = [
        ("traffic2 %s" % _fmt((a, b)), lambda: couplex.traffic2(a, b), _uniform),
        ("two_star_step %r" % step_law, lambda: couplex.two_star_step(step_law), _uniform),
        ("gg_symmetrized %s" % _fmt(gg), lambda: couplex.gg_symmetrized(*gg), _balanced),
    ]
    rng.shuffle(models)
    return [_solve_op(label, make, size, count, check)
            for (label, make, check), (size, count) in zip(models, SOLVE_SECTORS)]


WORKLOADS = {
    "decide": decide,
    "verify": verify,
    "simulate": simulate_ops,
    "solve": solve,
}


def items_of(op: Op, out) -> int:
    """Work items of a finished call; simulations count their events."""
    if op.items is None:
        return out.total_events
    return op.items
