import random
from fractions import Fraction as F

import numpy as np
import pytest

from couplex import (
    CoupledState,
    coupled_transitions,
    coupling_table,
    discrepancy_pair,
    gg_symmetrized,
    observable_report,
    random_configuration,
    sep,
    simulate_coupled,
    simulate_single,
    traffic2,
)
from couplex.golden import MONOTONE_ZOO
from couplex.simulate import _CoupledEngine


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
    # a horizon or a given step that is not positive is refused, not
    # sampled at a negative time or silently dropped
    eta = (1, 0, 1, 0, 1, 0, 1, 0)
    runs = (
        lambda t_end, dt: simulate_single(sep(), eta, t_end, sample_dt=dt),
        lambda t_end, dt: simulate_coupled(sep(), eta, eta[::-1], "attractive", t_end, sample_dt=dt),
    )
    bad = ((-5.0, -1.0, "t_end"), (0.0, None, "t_end"), (2.0, -1.0, "sample_dt"), (2.0, 0.0, "sample_dt"))
    for run in runs:
        for t_end, dt, what in bad:
            with pytest.raises(ValueError, match="%s must be positive" % what):
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
    for a in coupled_transitions(spec, xi, zeta, kind)[1]:
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
