import functools
import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from couplex import (
    KINDS,
    audit_discrepancy_monotone,
    audit_order_preservation,
    check_sector_uniform_stationary,
    coupled_generator,
    discrepancy_extinction,
    coupled_transitions,
    gg_symmetrized,
    is_ordered,
    marginal_errors,
    pair_states,
    sep,
    single_generator,
    stationary_distribution,
    traffic2,
    two_star_step,
    two_step,
)
from couplex import coupling, exact
from couplex.exact import AuditViolation, GeneratorMatrix, closed_classes, stationary_distributions
from couplex.golden import MONOTONE_ZOO
from couplex.lattice import CoupledState
from couplex.models import active_jumps


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


@pytest.mark.parametrize("tol", [float("nan"), -1, -1e-12, float("inf")])
def test_sector_check_refuses_an_invalid_tol(tol):
    # NaN or a negative tol failed every sector, and inf passed every one
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        check_sector_uniform_stationary(two_star_step(), 6, tol=tol)
    assert check_sector_uniform_stationary(two_star_step(), 6, count=3, tol=0).sector == 3


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
    # the stationary law is the long-time limit of the time evolution, here
    # by the dense uniformization oracle; at L=8, t=300 its Poisson mean is
    # far beyond exp's underflow at ~745, so the horizon is cut into steps
    for size, count, t in ((5, 2, 200.0), (8, 4, 300.0)):
        gen = single_generator(traffic2(F(7, 10), F(1, 5)), size, count)
        dist = stationary_distribution(gen)
        start = np.zeros(gen.dimension)
        start[0] = 1.0
        evolved = _dense_transient(gen, start, t)
        assert abs(evolved.sum() - 1.0) < 1e-10
        assert np.allclose(evolved, dist.weights, atol=1e-8)


def _dense_block(gen, members):
    """Generator block on ``members`` with the full exit rate on the diagonal,
    built straight from the rows, entry by entry: off-diagonal rates, then
    minus the exact exit rate rounded once."""
    pos = {i: k for k, i in enumerate(members)}
    q = np.zeros((len(members), len(members)))
    for i, k in pos.items():
        for j, r in gen.rows[i].items():
            if j in pos:
                q[k, pos[j]] = float(r)
        q[k, k] = -float(sum(gen.rows[i].values()))
    return q


def _lstsq_stationary(gen, members):
    """Oracle: least squares on Q^T stacked over a row of ones."""
    n = len(members)
    a = np.vstack([_dense_block(gen, members).T, np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    weights = np.zeros(gen.dimension)
    weights[members] = pi / pi.sum()
    return weights


def _two_closed_classes():
    """0 <-> 1 leak into the absorbing state 2; 3 <-> 4 is closed."""
    rows = [{1: 1.0}, {0: 2.0, 2: 0.5}, {}, {4: 1.0}, {3: 3.0}]
    return GeneratorMatrix(list(range(5)), rows)


CHAINS = pytest.mark.parametrize(
    "gen, classes",
    [
        (single_generator(traffic2(F(7, 10), F(1, 5)), 10, 5), 1),
        (single_generator(two_star_step({1: F(1, 10), 2: F(9, 10)}), 10, 5), 1),
        (single_generator(gg_symmetrized(3, 2, 2, F(1, 2)), 10, 5), 1),
        (single_generator(gg_symmetrized(1, 0, 1, 0), 5, 2), 5),
        (_two_closed_classes(), 2),
    ],
    ids=["traffic2", "two_star_step", "gg", "gg-reducible", "absorbing-state"],
)


@CHAINS
def test_stationary_solve_matches_lstsq(gen, classes):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dists = stationary_distributions(gen)
    members = closed_classes(gen)
    assert len(dists) == len(members) == classes
    for dist, cls in zip(dists, members):
        assert np.max(np.abs(dist.weights - _lstsq_stationary(gen, cls))) <= 1e-12
        assert dist.residual <= 1e-12
    if classes == 2:
        assert [len(cls) for cls in members] == [1, 2]
        assert dists[0].weights[2] == 1.0


def _turned(eta, k):
    return eta[-k:] + eta[:-k]


def test_stationary_solve_fails_loudly(monkeypatch):
    # the solve runs on the sector's 10 rotation orbits; messages name the
    # class's 70 states
    gen = single_generator(sep(), 8, 4)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(ValueError, match="closed class of 70 states: Singular matrix"):
        stationary_distributions(gen)

    def one_negative(a, b):
        assert len(b) == 10
        weights = np.full(len(b), 0.1)
        weights[3] = -0.5
        return weights

    monkeypatch.setattr(np.linalg, "solve", one_negative)
    with pytest.raises(ValueError, match="70 states gave weight -0.5 against a largest weight of 0.1"):
        stationary_distributions(gen)

    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.zeros(len(b)))
    with pytest.raises(ValueError, match="70 states gave weights summing to 0.0"):
        stationary_distributions(gen)

    def rounding_negative(a, b):
        weights = np.full(len(b), 0.1)
        weights[3] = -1e-17
        return weights

    monkeypatch.setattr(np.linalg, "solve", rounding_negative)
    (dist,) = stationary_distributions(gen)
    # orbits come in the order of their first states; the fourth is led by state 3
    orbit = {gen.state_index[_turned(gen.states[3], k)] for k in range(8)}
    assert list(np.flatnonzero(dist.weights == 0.0)) == sorted(orbit)
    assert abs(dist.weights.sum() - 1.0) < 1e-15


@pytest.mark.parametrize(
    "spec, size, count, classes, powers",
    [
        # one class, kept by every turn; 101010101010 has an orbit of 2
        (two_star_step({1: F(4, 5), 2: F(1, 5)}), 12, 6, 1, {1}),
        # 9 closed classes, each kept by turn**3 or only by turn**6
        (gg_symmetrized(1, 0, 1, 0), 6, 2, 9, {3, 6}),
    ],
    ids=["two_star_step", "gg-reducible"],
)
def test_stationary_weights_are_equal_along_rotation_orbits(spec, size, count, classes, powers):
    gen = single_generator(spec, size, count)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dists = stationary_distributions(gen)
    members = closed_classes(gen)
    assert len(dists) == len(members) == classes
    kept_by = set()
    for dist, cls in zip(dists, members):
        inside = set(cls)
        turns = [
            k for k in range(1, size + 1)
            if gen.state_index[_turned(gen.states[cls[0]], k)] in inside
        ]
        kept_by.add(turns[0])
        for k in turns:
            for i in cls:
                assert dist.weights[gen.state_index[_turned(gen.states[i], k)]] == dist.weights[i]
        assert np.max(np.abs(dist.weights - _lstsq_stationary(gen, cls))) <= 1e-12
    assert kept_by == powers


@pytest.mark.parametrize(
    "rows, turn",
    [
        ([{1: 1.0}, {0: 3.0}, {3: 1.0}, {2: 3.0}, {0: 0.5, 2: 0.5}], [2, 3, 0, 1, 4]),
        ([{1: 2.0}, {0: 2.0}, {3: 2.0}, {2: 2.0}, {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5}], [2, 3, 1, 0, 4]),
    ],
    ids=["swap", "four-cycle"],
)
def test_a_turn_that_swaps_two_closed_classes(rows, turn):
    # the turn maps the closed class {0, 1} onto {2, 3} and back, so each is
    # solved under turn**2: the identity on states for "swap", one orbit of
    # two states per class for "four-cycle"; state 4 is transient
    gen = GeneratorMatrix(list(range(5)), rows, turn=np.array(turn))
    with pytest.warns(UserWarning, match="2 closed classes"):
        dists = stationary_distributions(gen)
    classes = closed_classes(gen)
    assert sorted(classes) == [[0, 1], [2, 3]]
    for dist, cls in zip(dists, classes):
        assert np.max(np.abs(dist.weights - _lstsq_stationary(gen, cls))) <= 1e-12
        assert dist.residual <= 1e-15


@pytest.mark.parametrize(
    "gen",
    [single_generator(traffic2(F(7, 10), F(1, 5)), 10, 5), single_generator(gg_symmetrized(1, 0, 1, 0), 6, 2)],
    ids=["traffic2", "gg-reducible"],
)
def test_without_a_turn_each_state_is_its_own_orbit(gen):
    # the whole-class replaced-row solve, bit for bit
    plain = GeneratorMatrix(gen.states, gen.rows, gen.state_index)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dists = stationary_distributions(plain)
    for dist, cls in zip(dists, closed_classes(gen)):
        a = _dense_block(gen, cls).T
        a[-1] = 1.0
        b = np.zeros(len(cls))
        b[-1] = 1.0
        pi = np.clip(np.linalg.solve(a, b), 0.0, None)
        want = np.zeros(gen.dimension)
        want[cls] = pi / pi.sum()
        assert np.array_equal(dist.weights, want)


def _dense_transient(gen, start, t):
    """Oracle: uniformization with the dense kernel P = I + Q/lam."""
    q = _dense_block(gen, range(gen.dimension))
    lam = 1.05 * max(-np.diag(q))
    p = np.eye(gen.dimension) + q / lam
    steps = max(1, math.ceil(lam * t / 64.0))
    mean = lam * t / steps
    out = start.astype(float)
    for _ in range(steps):
        term = out
        weight = np.exp(-mean)
        out = weight * term
        accumulated = weight
        k = 0
        while accumulated < 1.0 - 1e-14:
            k += 1
            term = term @ p
            weight = weight * mean / k
            out = out + weight * term
            accumulated += weight
    return out


def _loop_residual(gen, weights):
    flow = np.zeros(gen.dimension)
    for i, row in enumerate(gen.rows):
        for j, r in row.items():
            flow[j] += weights[i] * float(r)
        flow[i] -= weights[i] * float(sum(row.values()))
    return float(np.max(np.abs(flow)))


@CHAINS
def test_generator_arrays_match_the_rows(gen, classes):
    # the array-built dense blocks equal the entry-by-entry ones exactly; the
    # residual sums in another order, so it may move by rounding only
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dists = stationary_distributions(gen)
    blocks = closed_classes(gen) + [list(range(gen.dimension)), list(range(gen.dimension))[::-2]]
    for members in blocks:
        assert np.array_equal(gen.to_dense(members), _dense_block(gen, members))
    assert np.array_equal(gen.to_dense(), _dense_block(gen, range(gen.dimension)))
    for dist in dists:
        assert abs(dist.residual - _loop_residual(gen, dist.weights)) <= 1e-14


@pytest.mark.parametrize(
    "call",
    [
        lambda: audit_order_preservation(sep(), 7),
        lambda: audit_discrepancy_monotone(sep(), 7),
        lambda: marginal_errors(sep(), 7, "strict"),
        lambda: coupled_generator(sep(), 7, "strict"),
        lambda: discrepancy_extinction(sep(), 7),
    ],
    ids=["audit-order", "audit-discrepancy", "marginal", "generator", "extinction"],
)
def test_coupled_layer_caps_the_pair_count(call):
    with pytest.raises(ValueError, match=r"16384 pairs \(L=7\) exceeds the cap of 4096 pairs \(L=6\)"):
        call()


def test_single_generator_caps_the_state_count():
    assert single_generator(sep(), 14, 7).dimension == 3432
    with pytest.raises(ValueError, match="16384 states exceeds the cap of 3432"):
        single_generator(sep(), 14)


@pytest.mark.parametrize("count", [-1, 6])
def test_sector_counts_outside_the_ring_are_refused(count):
    # an empty sector would give a header-only table, a negative count the
    # error of math.comb; both name the range instead
    for call in (lambda: single_generator(sep(), 5, count), lambda: list(pair_states(5, (1, count)))):
        with pytest.raises(ValueError, match=r"^count must lie in \[0, 5\]$"):
            call()


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


def test_discrepancy_extinction_sep():
    report = discrepancy_extinction(sep(), 5, "strict")
    assert report.pairs_checked == 570
    assert report.min_probability == 1.0
    assert report.worst_pair is not None


def test_extinction_names_a_worst_pair_whenever_it_checks_one():
    # every unordered pair reaches a comparable pair, so the worst pair is
    # the first unordered pair checked, not None
    report = discrepancy_extinction(sep(), 3, "strict")
    assert report.pairs_checked == 18
    assert report.min_probability == 1.0
    assert report.worst_pair == ((1, 0, 0), (0, 1, 0))


@pytest.mark.parametrize("size, tables", [(5, 180), (6, 648)])
def test_extinction_builds_one_table_per_orbit(size, tables, monkeypatch):
    # one coupling table per rotation orbit of the sectors that hold an
    # unordered pair: 900 and 3844 tables pair by pair
    calls = []

    def counting(*args):
        calls.append(args)
        return coupling.coupling_table(*args)

    monkeypatch.setattr(exact, "coupling_table", counting)
    discrepancy_extinction(sep(), size, "strict")
    assert len(calls) == tables


def _sector_generator(full, states):
    """The rows of ``full`` at the pairs ``states``, a closed sector,
    renumbered in the order of ``states``."""
    pos = {full.state_index[s]: k for k, s in enumerate(states)}
    rows = [{pos[j]: r for j, r in full.rows[full.state_index[s]].items()} for s in states]
    return GeneratorMatrix(states, rows)


def _hitting_by_iteration(gen, unordered, steps=4000):
    """Oracle: the hitting probability of the comparable pairs as the limit
    of the jump chain's n-step hitting probabilities, from 0 up (Norris,
    *Markov Chains*, Thm 1.3.2)."""
    n = gen.dimension
    comparable = np.array([s not in unordered for s in gen.states])
    p = np.zeros((n, n))
    for i, row in enumerate(gen.rows):
        total = float(sum(row.values()))
        for j, r in row.items():
            p[i, j] = float(r) / total
    h = comparable.astype(float)
    for _ in range(steps):
        h = np.where(comparable, 1.0, p @ h)
    return h


@pytest.mark.parametrize("kind", KINDS)
def test_discrepancy_extinction_with_unreachable_pairs(kind):
    # jumps of 2 keep each particle on one parity class of the 6-site ring,
    # so some unordered pairs form a closed set that never orders
    spec = sep({2: F(1)})
    report = discrepancy_extinction(spec, 6, kind)
    assert report.min_probability == 0
    assert report.worst_pair == ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))
    assert report.pairs_checked == 2702
    # a particle on an even site and one on an odd site never meet
    states = list(pair_states(6, (1, 1)))
    unordered = {s for s in states if not is_ordered(*s)}
    h = _hitting_by_iteration(_sector_generator(coupled_generator(spec, 6, kind), states), unordered)
    assert h[states.index(report.worst_pair)] == 0
    assert sorted({round(float(v), 9) for v in h}) == [0.0, 1.0]


@pytest.mark.parametrize("kind", ["strict", "attractive"])
def test_discrepancy_extinction_of_a_blocked_monotone_spec(kind):
    # two_step's hop of 2 is open or shut by the skipped site, yet every
    # unordered pair still becomes comparable
    report = discrepancy_extinction(two_step(), 6, kind)
    assert report.pairs_checked == 2702
    # the verdict is exact, so the worst pair is the first unordered pair
    assert report.min_probability == 1.0
    assert report.worst_pair == ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))


def test_discrepancy_extinction_of_a_blocked_non_monotone_spec():
    spec = gg_symmetrized(1, 0, 1, 0)
    report = discrepancy_extinction(spec, 6, "strict")
    assert report.min_probability == 0
    assert report.worst_pair == ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))
    states = list(pair_states(6, (1, 1)))
    unordered = {s for s in states if not is_ordered(*s)}
    h = _hitting_by_iteration(
        _sector_generator(coupled_generator(spec, 6, "strict"), states), unordered
    )
    assert h[states.index(report.worst_pair)] == 0


def test_discrepancy_extinction_raises_where_the_coupling_fails():
    with pytest.raises(ValueError, match="in the pair 100000 / 010000"):
        discrepancy_extinction(traffic2(0, 2), 6, "strict")
    # the pair the coupling cannot serve is comparable: extinction builds
    # the row of the first pair of every orbit of a sector, comparable or
    # not, so it refuses
    with pytest.raises(ValueError, match="in the pair 10000 / 10110"):
        discrepancy_extinction(gg_symmetrized(0, 0, 1, 2), 5, "strict")


# ---------------------------------------------------------------------------
# Oracle: the direct per-pair loop, one coupled_transitions call per pair.
# The audits skip the other pairs of a clean rotation orbit; they,
# marginal_errors and coupled_generator must give exactly what this loop gives.


def _direct_moves(spec, states, kind):
    return [coupled_transitions(spec, xi, zeta, kind)[1] for xi, zeta in states]


def _direct_violations(states, moves, broken):
    return [
        AuditViolation(CoupledState(*pair), a.move, a.first_jump, a.second_jump, a.rate, a.target)
        for pair, audits in zip(states, moves)
        for a in audits
        if broken(a)
    ]


def _direct_rows(states, moves):
    index = {s: i for i, s in enumerate(states)}
    rows = []
    for audits in moves:
        row = {}
        for a in audits:
            j = index[(a.target.first, a.target.second)]
            row[j] = row.get(j, 0) + a.rate
        rows.append(row)
    return rows


def _direct_marginal_error(spec, states, moves):
    size = len(states[0][0])
    worst = 0
    for (xi, zeta), audits in zip(states, moves):
        first = {}
        second = {}
        for a in audits:
            if a.first_jump is not None:
                first[a.first_jump] = first.get(a.first_jump, 0) + a.rate
            if a.second_jump is not None:
                second[a.second_jump] = second.get(a.second_jump, 0) + a.rate
        for eta, got in ((xi, first), (zeta, second)):
            want = {(x, (x + d) % size): r for x, d, r in active_jumps(spec, eta)}
            for key in set(want) | set(got):
                worst = max(worst, abs(want.get(key, 0) - got.get(key, 0)))
    return worst


def _typed_items(rows):
    return [[(j, r, type(r)) for j, r in row.items()] for row in rows]


def _assert_reduced_matches_direct(spec, size, kind):
    """The reduced functions give what the loop gives, or raise its error."""
    states = list(pair_states(size))
    ordered = [s for s in states if is_ordered(*s)]
    moves = functools.cache(lambda: _direct_moves(spec, states, kind))
    cases = [
        (
            lambda: audit_order_preservation(spec, size, kind),
            lambda: _direct_violations(
                ordered, _direct_moves(spec, ordered, kind), lambda a: not a.order_preserving
            ),
        ),
        (
            lambda: audit_discrepancy_monotone(spec, size, kind),
            lambda: _direct_violations(states, moves(), lambda a: a.discrepancy_delta > 0),
        ),
        (
            lambda: marginal_errors(spec, size, kind),
            lambda: _direct_marginal_error(spec, states, moves()),
        ),
        (
            # rows as item lists: keys, insertion order, values and types
            lambda: _typed_items(coupled_generator(spec, size, kind).rows),
            lambda: _typed_items(_direct_rows(states, moves())),
        ),
    ]
    for reduced, direct in cases:
        try:
            want = direct()
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                reduced()
            assert str(got.value) == str(err)
            continue
        got = reduced()
        assert got == want and type(got) is type(want)


DIFFERENTIAL_MODELS = list(MONOTONE_ZOO) + [
    ("traffic2 0 2", traffic2(0, 2)),
    ("gg 1 0 1 0", gg_symmetrized(1, 0, 1, 0)),
    ("traffic2 0.7 0.2", traffic2(0.7, 0.2)),
    ("gg 1.5 0.75 1.0 1.25", gg_symmetrized(1.5, 0.75, 1.0, 1.25)),
]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "spec", [s for _, s in DIFFERENTIAL_MODELS], ids=[l for l, _ in DIFFERENTIAL_MODELS]
)
def test_rotation_reduction_matches_direct_loop(spec, kind):
    _assert_reduced_matches_direct(spec, 5, kind)


@pytest.mark.parametrize("kind", KINDS)
def test_rotation_reduction_matches_direct_loop_at_six_sites(kind):
    _assert_reduced_matches_direct(traffic2(F(7, 10), F(1, 5)), 6, kind)


# ---------------------------------------------------------------------------
# Oracle: extinction pair by pair, without rotation orbits.  Each sector's
# rows come from the per-pair loop above, in the sector's pair order, so a
# coupling that cannot serve a pair raises where a pair-by-pair build
# raises; the full generator would name another pair of the same orbit,
# since it enumerates the ring's pairs in another order.


def _extinction_by_pairs(spec, size, kind):
    """The hitting probability of the comparable pairs from every unordered
    pair: a backward search from the comparable pairs, 0 where it does not
    arrive, and one dense solve on the other unordered pairs of a sector."""
    probability = {}
    for n1 in range(size + 1):
        for n2 in range(size + 1):
            states = list(pair_states(size, (n1, n2)))
            target = [is_ordered(*s) for s in states]
            if all(target):
                continue
            rows = _direct_rows(states, _direct_moves(spec, states, kind))
            into = [[] for _ in states]
            for i, row in enumerate(rows):
                for j in row:
                    into[j].append(i)
            seen = {i for i, t in enumerate(target) if t}
            stack = list(seen)
            while stack:
                for i in into[stack.pop()]:
                    if i not in seen:
                        seen.add(i)
                        stack.append(i)
            live = [i for i in seen if not target[i]]
            column = {i: k for k, i in enumerate(live)}
            q = np.zeros((len(live), len(live)))
            b = np.zeros(len(live))
            for k, i in enumerate(live):
                for j, r in rows[i].items():
                    q[k, k] -= float(r)
                    if target[j]:
                        b[k] -= float(r)
                    elif j in column:
                        q[k, column[j]] += float(r)
            h = np.linalg.solve(q, b) if live else []
            for i, s in enumerate(states):
                if not target[i]:
                    probability[s] = float(h[column[i]]) if i in column else 0.0
    return probability


def _assert_extinction_matches_pairs(spec, size, kind):
    try:
        want = _extinction_by_pairs(spec, size, kind)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            discrepancy_extinction(spec, size, kind)
        assert str(got.value) == str(err)
        return
    report = discrepancy_extinction(spec, size, kind)
    lowest = min(want.values())
    # the smallest hitting probability is 0 or 1, and the report says which
    assert lowest == 0 or abs(lowest - 1) <= 1e-12
    assert report.min_probability in (0.0, 1.0)
    assert report.pairs_checked == len(want)
    assert abs(report.min_probability - min(1.0, lowest)) <= 1e-12
    assert abs(want[report.worst_pair] - lowest) <= 1e-12
    if lowest == 0:
        assert report.min_probability == 0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "spec", [s for _, s in DIFFERENTIAL_MODELS], ids=[l for l, _ in DIFFERENTIAL_MODELS]
)
def test_extinction_on_orbits_matches_pairs(spec, kind):
    _assert_extinction_matches_pairs(spec, 5, kind)


def test_extinction_on_orbits_matches_pairs_at_six_sites():
    _assert_extinction_matches_pairs(gg_symmetrized(1, 0, 1, 0), 6, "strict")


@pytest.mark.parametrize("kind", KINDS)
def test_marginal_errors_with_clipped_residuals(kind, monkeypatch):
    # a wide float cut-off clips small residuals to 0: the coupled chain
    # loses rate, so the gaps are far from 0 and their maximum is telling
    monkeypatch.setattr(coupling, "_RESIDUAL_TOL", 0.3)
    spec = traffic2(0.7, 0.2)
    states = list(pair_states(5))
    want = _direct_marginal_error(spec, states, _direct_moves(spec, states, kind))
    assert want > 0.1
    got = marginal_errors(spec, 5, kind)
    assert got == want and type(got) is type(want)
