import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from couplex import (
    audit_discrepancy_monotone,
    audit_order_preservation,
    blocking_scan,
    check_sector_uniform_stationary,
    coupled_generator,
    discrepancy_extinction,
    gg_symmetrized,
    pair_states,
    sep,
    single_generator,
    stationary_distribution,
    traffic2,
    transient_distribution,
    two_star_step,
    two_step,
)
from couplex.exact import stationary_distributions


def test_single_generator_shape_and_conservation():
    gen = single_generator(sep(), 5, 2)
    assert gen.dimension == 10
    for state, row in zip(gen.states, gen.rows):
        assert sum(state) == 2
        assert all(r > 0 for r in row.values())
        for target_index in row:
            assert sum(gen.states[target_index]) == 2
    dense = gen.to_dense()
    assert np.allclose(dense.sum(axis=1), 0.0)


def test_pair_states_enumeration():
    assert len(list(pair_states(3))) == 64
    sector = list(pair_states(3, (1, 1)))
    assert len(sector) == 9
    assert all(sum(a) == 1 and sum(b) == 1 for a, b in sector)


def test_coupled_generator_matches_pair_count():
    gen = coupled_generator(sep(), 4, "attractive")
    assert gen.dimension == 256
    dense = gen.to_dense()
    assert np.allclose(dense.sum(axis=1), 0.0)


def test_stationary_distribution_sep_sector_is_uniform():
    gen = single_generator(sep(), 5, 2)
    dist = stationary_distribution(gen)
    assert np.allclose(dist.weights, 0.1)
    assert dist.residual < 1e-10
    assert abs(dist.weights.sum() - 1.0) < 1e-12


def test_stationary_distribution_two_star_step_uniform():
    for report in check_sector_uniform_stationary(two_star_step(), 6):
        assert report.ok
        assert report.max_imbalance < 1e-12
    single = check_sector_uniform_stationary(two_star_step(), 6, count=3)
    assert single.ok and single.sector == 3


def test_traffic2_uniform_even_when_asymmetric():
    # the crowding-dependent distance-2 hop never breaks sector uniformity:
    # inflow and outflow cancel patternwise on the ring
    report = check_sector_uniform_stationary(traffic2(F(9, 10), F(1, 10)), 6, count=3)
    assert report.ok


def test_reducible_chain_handling():
    gen = single_generator(gg_symmetrized(1, 0, 1, 0), 5, 2)
    with pytest.warns(UserWarning, match="reducible"):
        parts = stationary_distributions(gen)
    assert len(parts) == 5
    for dist in parts:
        assert abs(dist.weights.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError, match="reducible"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stationary_distribution(gen)


def test_irreducible_chain_yields_one_distribution():
    gen = single_generator(sep(), 4, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parts = stationary_distributions(gen)
    assert len(parts) == 1


def test_transient_distribution_converges_to_stationary():
    # at L=8, t=300 the Poisson mean is far beyond exp's underflow at ~745
    for size, count, t in ((5, 2, 200.0), (8, 4, 300.0)):
        gen = single_generator(traffic2(F(7, 10), F(1, 5)), size, count)
        dist = stationary_distribution(gen)
        start = np.zeros(gen.dimension)
        start[0] = 1.0
        evolved = transient_distribution(gen, start, t)
        assert abs(evolved.sum() - 1.0) < 1e-10
        assert np.allclose(evolved, dist.weights, atol=1e-8)


def test_single_generator_caps_the_state_count():
    assert single_generator(sep(), 14, 7).dimension == 3432
    with pytest.raises(ValueError, match="16384 states exceeds the cap of 3432"):
        single_generator(sep(), 14)


def test_audit_order_preservation_oracles():
    assert audit_order_preservation(sep(), 5, "increasing") == []
    assert audit_order_preservation(traffic2(F(1, 2), F(1, 2)), 5, "increasing") == []
    bad = audit_order_preservation(traffic2(0, 2), 5, "increasing")
    assert len(bad) == 90
    worse = audit_order_preservation(gg_symmetrized(1, 0, 1, 0), 5, "increasing")
    assert len(worse) == 180
    for finding in bad:
        assert finding.rate > 0
        xi, zeta = finding.pair
        assert finding.move in ("coupled", "first", "second")
        assert xi != zeta


def test_audit_discrepancy_monotone_oracles():
    for spec in (sep(), traffic2(F(1, 2), F(1, 2)), gg_symmetrized(2, 1, 1, 2)):
        assert audit_discrepancy_monotone(spec, 5, "attractive") == []
        assert audit_discrepancy_monotone(spec, 5, "strict") == []


def test_blocking_scan():
    assert not blocking_scan(sep()).blocked
    assert not blocking_scan(traffic2(F(1, 2), F(1, 2))).blocked
    assert blocking_scan(traffic2(0, 2)).blocked
    report = blocking_scan(gg_symmetrized(1, 0, 1, 0))
    assert report.blocked
    assert any(status != "open" for _, status in report.channels.items()) or report.channels


def test_discrepancy_extinction_sep():
    report = discrepancy_extinction(sep(), 5, "strict")
    assert report.pairs_checked == 570
    assert report.min_probability >= 1 - 1e-9
    assert report.worst_pair is not None


def test_discrepancy_extinction_refuses_blocked_specs():
    with pytest.raises(ValueError, match="open channels"):
        discrepancy_extinction(gg_symmetrized(1, 0, 1, 0), 4, "strict")
