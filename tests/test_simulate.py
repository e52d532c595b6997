import bisect
import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from couplex import (
    CoupledState,
    apply_jump,
    coupled_transitions,
    coupling_table,
    custom_table,
    discrepancy_count,
    discrepancy_pair,
    gg_symmetrized,
    is_ordered,
    observable_report,
    parse_configuration,
    random_configuration,
    sep,
    simulate_coupled,
    simulate_single,
    traffic2,
    two_star_step,
)
from couplex.coupling import FLAVOR, _site_entries, _sum_entries, _uncoupled, residual_rates
from couplex.golden import MONOTONE_ZOO
from couplex.lattice import signed_offset
from couplex.models import active_jumps
from couplex.simulate import _FLAT, _advance, _block_sums, _CoupledEngine, _SingleEngine


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


def test_random_configuration_counts():
    rng = _rng(1)
    for count in (0, 3, 6):
        eta = random_configuration(6, count, rng)
        assert len(eta) == 6 and sum(eta) == count
    with pytest.raises(ValueError):
        random_configuration(6, 7, rng)


def test_discrepancy_pair_structure():
    rng = _rng(2)
    for count in (1, 3, 5):
        pair = discrepancy_pair(6, count, rng)
        assert sum(pair.first) == sum(pair.second) == count
        assert pair.discrepancies == 2
        assert not pair.ordered
    with pytest.raises(ValueError):
        discrepancy_pair(6, 6, rng)


def test_single_run_is_deterministic():
    spec = traffic2(0.7, 0.2)
    a = simulate_single(spec, (1, 0, 1, 0, 1, 0), t_end=50.0, sample_dt=5.0, seed=11)
    b = simulate_single(spec, (1, 0, 1, 0, 1, 0), t_end=50.0, sample_dt=5.0, seed=11)
    assert a.times == b.times
    assert a.snapshots == b.snapshots
    assert a.total_events == b.total_events
    assert a.seed == (11, 0)


def test_replicas_decorrelate():
    spec = traffic2(0.7, 0.2)
    a = simulate_single(spec, (1, 0, 1, 0, 1, 0), t_end=50.0, sample_dt=5.0, seed=11, replica=0)
    b = simulate_single(spec, (1, 0, 1, 0, 1, 0), t_end=50.0, sample_dt=5.0, seed=11, replica=1)
    assert a.snapshots != b.snapshots or a.total_events != b.total_events


def test_particle_number_is_conserved():
    traj = simulate_single(sep(), (1, 1, 0, 0, 1, 0), t_end=20.0, sample_dt=1.0, seed=3)
    assert all(sum(snap) == 3 for snap in traj.snapshots)


def test_empty_ring_is_absorbed():
    traj = simulate_single(sep(), (0, 0, 0, 0, 0), t_end=5.0, sample_dt=1.0, seed=0)
    assert traj.absorbed
    assert traj.total_events == 0
    assert all(snap == (0, 0, 0, 0, 0) for snap in traj.snapshots)


def test_identical_starts_stay_in_lockstep():
    eta = (1, 0, 1, 0, 0, 1)
    traj = simulate_coupled(sep(), eta, eta, "attractive", t_end=20.0, sample_dt=2.0, seed=5)
    for snap in traj.snapshots:
        assert snap.first == snap.second
    assert traj.discrepancy_curve == [0] * len(traj.discrepancy_curve)


def test_coupled_run_is_deterministic():
    spec = traffic2(0.7, 0.2)
    xi = (1, 0, 1, 0, 0, 1, 0, 0)
    zeta = (0, 1, 1, 0, 0, 0, 1, 0)
    a = simulate_coupled(spec, xi, zeta, "attractive", t_end=30.0, sample_dt=3.0, seed=8)
    b = simulate_coupled(spec, xi, zeta, "attractive", t_end=30.0, sample_dt=3.0, seed=8)
    assert a.snapshots == b.snapshots
    assert a.discrepancy_curve == b.discrepancy_curve


def test_attractive_discrepancies_never_increase():
    spec = gg_symmetrized(F(3, 2), F(3, 4), 1, F(5, 4))
    rng = _rng(77)
    for trial in range(5):
        pair = discrepancy_pair(10, 4, rng)
        traj = simulate_coupled(
            spec, pair.first, pair.second, "attractive", t_end=100.0, sample_dt=25.0, seed=77, replica=trial
        )
        curve = traj.discrepancy_curve
        assert curve[0] == 2
        assert all(a >= b for a, b in zip(curve, curve[1:]))


def test_increasing_keeps_ordered_pairs_ordered():
    spec = traffic2(F(7, 10), F(1, 5))
    xi = (0, 0, 1, 0, 0, 1, 0, 0)
    zeta = (0, 1, 1, 0, 1, 1, 0, 0)
    traj = simulate_coupled(spec, xi, zeta, "increasing", t_end=50.0, sample_dt=5.0, seed=13)
    assert all(snap.ordered for snap in traj.snapshots)


def test_observable_reports():
    traj = simulate_single(sep(), (1, 0, 1, 0), t_end=2.0, sample_dt=0.5, seed=1)
    profile = observable_report(traj, "density_profile")
    assert profile[0] == ("site", "density")
    assert len(profile) == 5
    assert all(0.0 <= row[1] <= 1.0 for row in profile[1:])

    pair = simulate_coupled(sep(), (1, 0, 1, 0), (1, 1, 0, 0), "attractive", t_end=2.0, sample_dt=1.0, seed=1)
    curve = observable_report(pair, "discrepancy_curve")
    assert curve[0] == ("event", "discrepancies")
    assert curve[1] == (0, 2)
    order = observable_report(pair, "order_time")
    assert order[0] == ("order_time",)
    assert len(order) == 2

    with pytest.raises(ValueError, match="unknown observable"):
        observable_report(traj, "bogus")
    with pytest.raises(ValueError, match="not recorded"):
        observable_report(traj, "discrepancy_curve")


def test_order_time_is_inf_when_never_comparable():
    # a frozen non-comparable pair: empty dynamics cannot order it
    spec = gg_symmetrized(1, 0, 1, 0)
    xi = (1, 0, 0, 0, 0, 0)
    zeta = (0, 0, 0, 1, 0, 0)
    traj = simulate_coupled(spec, xi, zeta, "attractive", t_end=1.0, sample_dt=0.5, seed=2)
    order = observable_report(traj, "order_time")
    assert order[1][0] == float("inf")


def test_sampling_grid():
    traj = simulate_single(sep(), (1, 0, 0, 0), t_end=3.0, sample_dt=1.0, seed=4)
    assert traj.times == [1.0, 2.0, 3.0]
    lone = simulate_single(sep(), (1, 0, 0, 0), t_end=3.0, seed=4)
    assert lone.times == [3.0]
    # a horizon or a given step that is not positive and finite is refused,
    # not sampled at a negative time, silently dropped or run for ever; so is
    # a step that leaves no sample time
    eta = (1, 0, 1, 0, 1, 0, 1, 0)
    runs = (
        lambda t_end, dt: simulate_single(sep(), eta, t_end, sample_dt=dt),
        lambda t_end, dt: simulate_coupled(sep(), eta, eta[::-1], "attractive", t_end, sample_dt=dt),
    )
    inf = float("inf")
    bad = (
        (-5.0, -1.0, "t_end must be positive"),
        (0.0, None, "t_end must be positive"),
        (inf, None, "t_end must be positive and finite"),
        (inf, 1.0, "t_end must be positive and finite"),
        (2.0, -1.0, "sample_dt must be positive"),
        (2.0, 0.0, "sample_dt must be positive"),
        (5.0, inf, "sample_dt must be positive and finite"),
        (1.0, 5.0, "sample_dt 5.0 leaves no sample time up to t_end 1.0"),
    )
    for run in runs:
        for t_end, dt, message in bad:
            with pytest.raises(ValueError, match=message):
                run(t_end, dt)


def _engine_rates(engine):
    """The coupled engine's event rates, keyed like coupled_transitions rows."""
    size = engine.size
    out = {}
    for r, first, second in engine.events():
        key = tuple(None if j is None else (j[0], (j[0] + j[1]) % size) for j in (first, second))
        out[key] = out.get(key, 0.0) + r
    return out


def _exact_rates(spec, xi, zeta, kind):
    out = {}
    for a in coupled_transitions(spec, xi, zeta, kind):
        key = (a.first_jump, a.second_jump)
        out[key] = out.get(key, 0) + a.rate
    return out


def _random_pairs(rng, size, rounds=3):
    """Arbitrary, ordered and identical pairs."""
    out = []
    for _ in range(rounds):
        xi = tuple(rng.randint(0, 1) for _ in range(size))
        zeta = tuple(rng.randint(0, 1) for _ in range(size))
        lower = tuple(a & b for a, b in zip(xi, zeta))
        upper = tuple(a | b for a, b in zip(xi, zeta))
        out += [(xi, zeta), (upper, lower), (xi, xi)]
    return out


# the monotone zoo plus one non-monotone control whose strict coupling
# cannot serve every pair
DIFFERENTIAL_ZOO = MONOTONE_ZOO + (("traffic2 0 2", traffic2(0, 2)),)
DIFFERENTIAL_CASES = [
    pytest.param(spec, size, id="%s L=%d" % (label, size))
    for label, spec in DIFFERENTIAL_ZOO
    for size in sorted({spec.min_ring_size, 12, 13})
]


@pytest.mark.parametrize("spec,size", DIFFERENTIAL_CASES)
def test_coupled_engine_matches_exact_transitions(spec, size):
    # the simulator's event rates, in every regime, equal the exact coupled
    # generator rows; a pair the coupling cannot serve raises in both.  The
    # engine also fires some of its own events, so that the per-copy caches
    # it refreshes after a jump are checked at every pair it reaches.
    rng = random.Random("%r:%d" % (spec, size))
    for kind in ("increasing", "attractive", "strict"):
        for xi, zeta in _random_pairs(rng, size):
            engine = _CoupledEngine(spec, CoupledState(xi, zeta), kind)
            for fired in range(4):
                pair = engine.state()
                try:
                    want = _exact_rates(spec, pair.first, pair.second, kind)
                except ValueError:
                    with pytest.raises(ValueError, match="exceed the marginal rate"):
                        engine.events()
                    break
                got = _engine_rates(engine)
                assert set(got) == set(want), (kind, pair, fired)
                for key, r in want.items():
                    assert abs(got[key] - float(r)) <= 1e-12, (kind, pair, fired, key)
                events = engine.events()
                if fired == 3 or not events:
                    break
                engine.apply(*rng.choice(events)[1:])


def test_copies_share_one_engine_once_they_meet():
    # identical copies stay identical, so once they meet one engine moves
    # both; a lockstep event must then move the shared engine exactly once
    spec = sep()
    engine = _CoupledEngine(spec, CoupledState((1, 1, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0)), "attractive")
    assert engine.first is not engine.second and engine.discrepancies() == 2
    meet = (1.0, (1, 1), None)  # the first copy's lone jump 1 -> 2
    assert meet in engine.events()
    engine.apply(*meet[1:])
    assert engine.first is engine.second and engine.discrepancies() == 0
    eta = engine.first.state()
    assert _engine_rates(engine) == _exact_rates(spec, eta, eta, "attractive")
    _, first, second = engine.events()[0]
    assert first == second
    engine.apply(first, second)
    x, d = first
    moved = apply_jump(eta, x, (x + d) % len(eta))
    assert moved != eta
    assert engine.state() == CoupledState(moved, moved)
    assert _engine_rates(engine) == _exact_rates(spec, moved, moved, "attractive")


def test_strict_coupling_refuses_pair_it_cannot_serve():
    # both the table builder and the simulator name the pair; the simulator
    # also names the time at which the run reached it
    first = tuple(int(c) for c in "000111010110")
    second = tuple(int(c) for c in "101100101100")
    with pytest.raises(ValueError, match="exceed the marginal rate") as table_err:
        coupling_table(traffic2(0, 2), first, second, "strict")
    with pytest.raises(ValueError, match="exceed the marginal rate") as run_err:
        simulate_coupled(traffic2(0, 2), first, second, "strict", t_end=5.0, seed=3)
    for err in (table_err, run_err):
        assert "000111010110" in str(err.value) and "101100101100" in str(err.value)
    assert str(run_err.value).endswith("at time 0.0")


@pytest.mark.parametrize("label,spec", MONOTONE_ZOO, ids=[label for label, _ in MONOTONE_ZOO])
def test_site_memo_matches_active_jumps_along_runs(label, spec):
    # each site's memoised events and float total equal a fresh read of its
    # active jumps, in the same order, after every event of random runs; on
    # the smallest ring the pattern around a site wraps onto itself
    rng = random.Random(label)
    for size in sorted({spec.min_ring_size, spec.min_ring_size + 1, 17, 64}):
        for count in (1, size // 2, size - 1):
            eta = [0] * size
            for x in rng.sample(range(size), count):
                eta[x] = 1
            engine = _SingleEngine(spec, eta)
            gen = np.random.Generator(np.random.Philox(key=[size, count]))
            for fired in range(30):
                for x in range(size):
                    where = (size, count, fired, x)
                    events = tuple((float(r), d) for _, d, r in active_jumps(spec, engine.eta, (x,)))
                    assert engine.jumps[x] == events, where
                    assert engine.totals[x] == sum((r for r, _ in events), 0.0), where
                step = engine.draw(gen)
                if step is None:
                    break
                engine.apply(*step[1][1:])
    # at most one key per pattern of the 2 * (dep_radius + max_offset) + 1
    # sites around an occupied site
    assert len(spec._site_events) <= 2 ** (spec.min_ring_size - 1)
    with pytest.raises(ValueError, match="too small"):
        _SingleEngine(spec, (1,) + (0,) * (spec.min_ring_size - 2))


def test_configurations_hold_only_0_and_1():
    # a site holding 2 used to run: the single chain moved both particles
    # off site 0, and coupling_table returned a table
    message = r"^site %d holds %d; a configuration holds only 0 and 1$"
    with pytest.raises(ValueError, match=message % (0, 2)):
        simulate_single(sep(), (2, 0, 0, 0, 0, 1), 5.0, seed=1)
    for first, second, bad in [((2, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 1), (0, 2)),
                               ((1, 0, 0, 0, 0, 1), (1, 0, 0, 0, 3, 0), (4, 3)),
                               ((1, 0, 0, 0, 0, 1), (1, 0, -1, 0, 0, 1), (2, -1))]:
        for kind in ("attractive", "increasing", "strict"):
            with pytest.raises(ValueError, match=message % bad):
                coupling_table(sep(), first, second, kind)
            with pytest.raises(ValueError, match=message % bad):
                simulate_coupled(sep(), first, second, kind, 5.0, seed=1)


def test_floats_and_bools_are_not_occupancies():
    # 1.0 and True equal 1 and hash alike: coupling_table raised a TypeError
    # on 1.0, and simulate_single ran with True and returned it in its state
    with pytest.raises(ValueError, match=r"^site 0 holds 1\.0; a configuration holds only 0 and 1$"):
        coupling_table(sep(), (1.0, 0, 0, 0), (0, 0, 1, 0), "attractive")
    with pytest.raises(ValueError, match=r"^site 0 holds True; a configuration holds only 0 and 1$"):
        simulate_single(sep(), (True, 0, 0, 0, 0, 1), 2.0, seed=1)
    with pytest.raises(ValueError, match=r"^site 3 holds False; a configuration holds only 0 and 1$"):
        simulate_coupled(sep(), (1, 0, 0, 0, 0, 1), (1, 0, 0, False, 0, 1), "attractive", 2.0, seed=1)
    assert simulate_single(sep(), (1, 0, 0, 0, 0, 1), 2.0, seed=1).final == (0, 0, 0, 1, 0, 1)


def test_the_pathwise_checks_catch_a_broken_coupling():
    # traffic2(0, 2) is not monotone: the increasing coupling breaks the
    # order of an ordered start, and the attractive one adds discrepancies
    spec = traffic2(0, 2)
    lower, upper = parse_configuration("1100100000000000"), parse_configuration("1110101000000000")
    for seed, event in ((0, 156), (1, 56)):
        with pytest.raises(AssertionError, match="^order broken at event %d$" % event):
            simulate_coupled(spec, lower, upper, "increasing", 50.0, seed=seed)
    first, second = lower, parse_configuration("0110001000000000")
    for seed, grew in ((0, "from 4 to 6 at event 1"), (1, "from 2 to 4 at event 16")):
        with pytest.raises(AssertionError, match="^discrepancy count grew %s$" % grew):
            simulate_coupled(spec, first, second, "attractive", 50.0, seed=seed)


class _Uniforms:
    """Stands in for the generator: one fixed uniform for the waiting time,
    one for the choice of the event."""

    def __init__(self, wait, choice):
        self.wait, self.choice = wait, choice

    def exponential(self, scale):
        return -math.log1p(-self.wait) * scale

    def random(self):
        return self.choice


def _flat_draw(events, wait, choice):
    """The former draw over the flat event list: running sums of all rates,
    then a bisection.  Returns (waiting time, event, running sums)."""
    cum = list(itertools.accumulate(r for r, *_ in events))
    total = cum[-1]
    pick = bisect.bisect_right(cum, choice * total)
    return -math.log1p(-wait) / total, events[min(pick, len(events) - 1)], cum


@pytest.mark.parametrize(
    "spec,size,warm",
    [
        (traffic2(0.7, 0.2), 64, 0),
        (two_star_step({1: F(1, 3), 2: F(2, 3)}), 40, 200),
        (traffic2(0.7, 0.2), 200, 300),
    ],
    ids=["traffic2 0.7 0.2 L=64", "two_star_step L=40 after 200 events",
         "traffic2 0.7 0.2 L=200 in blocks after 300 events"],
)
def test_per_site_draw_matches_flat_draw(spec, size, warm):
    # the per-site draw (bisect over site totals, then a walk along the
    # site) picks the event the flat draw picks for the same two uniforms,
    # except where the uniform lies within rounding of a boundary; on a
    # ring of more than _FLAT sites it bisects the block sums first
    rng = random.Random(size)
    engine = _SingleEngine(spec, tuple(rng.randint(0, 1) for _ in range(size)))
    assert (engine.blocks is None) == (size <= _FLAT)
    gen = np.random.Generator(np.random.Philox(key=[size, warm]))
    for _ in range(warm):
        engine.apply(*engine.draw(gen)[1][1:])
        # the block sums follow every jump, across the seam as well
        assert engine.blocks == _block_sums(engine.totals, size)
    for x in range(size):
        fresh = sum(float(r) for _, _, r in active_jumps(spec, engine.eta, (x,)))
        assert abs(engine.totals[x] - fresh) <= 1e-12
    events = engine.events()
    assert len(events) > 10
    choices = [rng.random() for _ in range(3000)] + [0.0, 1.0 - 2.0**-53]
    ties = 0
    for choice in choices:
        wait = rng.random()
        dt, x, (r, d) = _advance(engine.totals, engine.jumps, _Uniforms(wait, choice), engine.blocks)
        event = (r, x, d)
        old_dt, old_event, cum = _flat_draw(events, wait, choice)
        assert abs(dt - old_dt) <= 1e-12 * old_dt
        target = choice * cum[-1]
        if min(abs(target - c) for c in cum) <= 1e-12 * cum[-1]:
            ties += 1
            continue
        assert event == old_event, choice
    assert ties <= 2


@pytest.mark.parametrize("size", [64, 160], ids=["L=64", "L=160 in blocks"])
def test_grouped_coupled_draw_matches_flat_draw(size):
    # the coupled draw over the per-site groups picks the event that a flat
    # bisection over the flattened groups picks for the same two uniforms,
    # except where the uniform lies within rounding of a boundary
    spec = traffic2(0.7, 0.2)
    rng = random.Random(size)
    pair = (tuple(rng.randint(0, 1) for _ in range(size)) for _ in range(2))
    engine = _CoupledEngine(spec, CoupledState(*pair), "attractive")
    gen = np.random.Generator(np.random.Philox(key=[size, 1]))
    for _ in range(100):
        engine.apply(*engine.draw(gen)[1][1:])
    assert engine.first is not engine.second
    events = engine.events()
    assert sum(first is not None and second is not None for _, first, second in events) > 5
    choices = [rng.random() for _ in range(3000)] + [0.0, 1.0 - 2.0**-53]
    ties = 0
    for choice in choices:
        wait = rng.random()
        dt, event = engine.draw(_Uniforms(wait, choice))
        old_dt, old_event, cum = _flat_draw(events, wait, choice)
        assert abs(dt - old_dt) <= 1e-12 * old_dt
        target = choice * cum[-1]
        if min(abs(target - c) for c in cum) <= 1e-12 * cum[-1]:
            ties += 1
            continue
        assert event == old_event, choice
    assert ties <= 2


#: a rule that reads the far end of its window: a jump slows down when the
#: site behind it is occupied, so the composed entries of a join jump
#: x -> x + d read site x + 3d, the far end of the offset's span
#: (``spec._spans``), and the composed cache refreshes the sites up to 3
#: away from a moved site on the side of d
BEHIND = custom_table(
    (1, -1),
    0,
    {
        (d, "".join(bits)): 2 - int(bits[0 if d == 1 else 2])
        for d in (1, -1)
        for bits in itertools.product("01", repeat=3)
    },
)


def _fresh_events(spec, xi, zeta, kind):
    """The coupled engine's events recomputed from scratch: one walk over
    the ring plus each copy's active jumps."""
    size = len(xi)
    if xi == zeta:
        return [(float(r), (x, d), (x, d)) for x, d, r in active_jumps(spec, xi)]
    coupled = (
        {}
        if _uncoupled(kind, is_ordered(xi, zeta))
        else _sum_entries(
            _site_entries(spec, xi, zeta, x, FLAVOR[kind], floats=True) for x in range(size)
        )
    )
    out = [
        (g, (x1, signed_offset(x1, y1, size)), (x2, signed_offset(x2, y2, size)))
        for (x1, y1, x2, y2), g in coupled.items()
        if g > 0 and xi[x1] and not xi[y1] and zeta[x2] and not zeta[y2]
    ]
    marginals = [
        [(x, (x + d) % size, float(r)) for x, d, r in active_jumps(spec, eta)] for eta in (xi, zeta)
    ]
    first, second = residual_rates(xi, zeta, coupled, marginals)
    out += [(r, (x, signed_offset(x, y, size)), None) for x, y, r in first if r > 0]
    out += [(r, None, (x, signed_offset(x, y, size))) for x, y, r in second if r > 0]
    return out


def _ahead_table():
    # random float rates on every window of offsets 1 and 2, so the rates
    # read every site of their windows and the composed entries out of x
    # read x - 3 .. x + 2: the refresh must reach 3 sites ahead of a move
    rng = random.Random(21)
    return custom_table(
        (1, 2),
        0,
        {
            (d, "".join(bits)): rng.uniform(0.5, 1.5)
            for d in (1, 2)
            for bits in itertools.product("01", repeat=2 * d + 1)
        },
    )


def test_composed_cache_follows_the_spans():
    # the per-site composed cache equals a fresh walk after every event on
    # a rule whose span reaches further behind a departure than ahead of it
    spec = _ahead_table()
    assert spec._span == (-3, 2)
    rng = random.Random(5)
    checked = 0
    for kind in ("attractive", "strict"):
        for _ in range(6):
            pair = (tuple(rng.randint(0, 1) for _ in range(20)) for _ in range(2))
            engine = _CoupledEngine(spec, CoupledState(*pair), kind)
            for fired in range(40):
                xi, zeta = engine.state()
                if xi == zeta:
                    break
                try:
                    want = _fresh_events(spec, xi, zeta, kind)
                except ValueError:
                    # the coupling cannot serve the pair: move one copy alone
                    copy = rng.randint(0, 1)
                    x, d, _ = rng.choice(active_jumps(spec, (xi, zeta)[copy]))
                    engine.apply(*(((x, d), None) if copy == 0 else (None, (x, d))))
                    continue
                assert engine.events() == want, (kind, fired, xi, zeta)
                checked += 1
                if not want:
                    break
                engine.apply(*rng.choice(want)[1:])
    assert checked >= 200


def _start_pairs(rng, size):
    """An unordered pair, an ordered pair and a pair one jump from meeting."""
    xi = tuple(rng.randint(0, 1) for _ in range(size))
    zeta = tuple(rng.randint(0, 1) for _ in range(size))
    lower = tuple(a & b for a, b in zip(xi, zeta))
    upper = tuple(a | b for a, b in zip(xi, zeta))
    base = [0, 0, 1, 0] * (size // 4)
    near, far = list(base), list(base)
    near[0], far[1] = 1, 1
    return [("unordered", xi, zeta), ("ordered", upper, lower), ("meets", tuple(near), tuple(far))]


@pytest.mark.parametrize(
    "spec", [traffic2(0.7, 0.2), gg_symmetrized(1.5, 0.75, 1.0, 1.25), BEHIND],
    ids=["traffic2 0.7 0.2", "gg 1.5 0.75 1 1.25", "behind"],
)
def test_cached_events_match_a_fresh_walk_along_a_run(spec):
    # the per-site composed cache, the per-site jump lists and the tallies
    # are refreshed near each move only; along ~40 events per pair they
    # must equal a fresh walk of the whole ring after every event
    rng = random.Random(repr(spec))
    for size in (16, 24):
        for kind in ("increasing", "attractive", "strict"):
            for label, xi, zeta in _start_pairs(rng, size):
                engine = _CoupledEngine(spec, CoupledState(xi, zeta), kind)
                met = False
                for fired in range(40):
                    where = (label, size, kind, fired)
                    xi, zeta = engine.state()
                    assert engine.discrepancies() == discrepancy_count(xi, zeta), where
                    assert engine.ordered == is_ordered(xi, zeta), where
                    assert (engine.first is engine.second) == (xi == zeta), where
                    met = met or xi == zeta
                    try:
                        want = _fresh_events(spec, xi, zeta, kind)
                    except ValueError as err:
                        with pytest.raises(ValueError, match="exceed the marginal rate") as got:
                            engine.events()
                        assert str(got.value) == str(err), where
                        # the coupling cannot serve the pair: move one copy alone
                        copy = rng.randint(0, 1)
                        x, d, _ = rng.choice(active_jumps(spec, (xi, zeta)[copy]))
                        engine.apply(*(((x, d), None) if copy == 0 else (None, (x, d))))
                        continue
                    assert engine.events() == want, where
                    if not want:
                        break
                    meeting = [
                        e for e in want
                        if label == "meets" and e[2] is None
                        and apply_jump(xi, e[1][0], (e[1][0] + e[1][1]) % size) == zeta
                    ]
                    engine.apply(*(meeting or [rng.choice(want)])[0][1:])
                if label == "meets":
                    assert met, (size, kind)


def test_cached_events_follow_a_regime_change():
    # an unordered pair that the increasing coupling leaves uncoupled
    # becomes ordered (its copies hold 6 and 7 particles), and the groups
    # are built again: after every event they equal a fresh walk
    spec = traffic2(0.7, 0.2)
    pair = CoupledState(*map(parse_configuration, ("0100100100100101", "0101100000101101")))
    engine = _CoupledEngine(spec, pair, "increasing")
    gen = np.random.Generator(np.random.Philox(key=[20, 0]))
    became_ordered = False
    for fired in range(100):
        xi, zeta = engine.state()
        assert engine.events() == _fresh_events(spec, xi, zeta, "increasing"), fired
        was_ordered = engine.ordered
        engine.apply(*engine.draw(gen)[1][1:])
        became_ordered = became_ordered or (engine.ordered and not was_ordered)
    assert became_ordered and engine.ordered


def test_cached_events_refuse_a_pair_reached_mid_run():
    # a strict traffic2 0 2 run reaches, after some events, a pair the
    # coupling cannot serve; the engine refuses it with the text that
    # coupling_table gives, naming the first failing jump: here the jump
    # 11 -> 0 across the seam of the ring.  The parameters are floats, so
    # that coupling_table reckons the residual in floats, as the engine does
    spec = traffic2(0.0, 2.0)
    pair = CoupledState(*map(parse_configuration, ("111000110101", "011000000010")))
    engine = _CoupledEngine(spec, pair, "strict")
    gen = np.random.Generator(np.random.Philox(key=[9, 0]))
    for fired in range(50):
        xi, zeta = engine.state()
        try:
            want = _fresh_events(spec, xi, zeta, "strict")
        except ValueError:
            break
        assert engine.events() == want, fired
        engine.apply(*engine.draw(gen)[1][1:])
    assert fired >= 5
    with pytest.raises(ValueError, match="exceed the marginal rate") as table_err:
        coupling_table(spec, xi, zeta, "strict")
    assert "jump (11, 0)" in str(table_err.value)
    for call in (engine.events, lambda: engine.draw(gen)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == str(table_err.value)
