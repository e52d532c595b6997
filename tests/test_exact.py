import builtins
import functools
import itertools
import math
import operator
import random
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
    speed_change_increasing,
    stationary_distribution,
    traffic2,
    two_star_step,
    two_step,
)
from couplex import coupling, exact, simulate
from couplex.exact import (
    GeneratorMatrix,
    closed_classes,
    ring_configs,
    stationary_distributions,
)
from couplex.golden import MONOTONE_ZOO
from couplex.lattice import apply_jump
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
    states = list(pair_states(3))
    assert len(states) == 64 == len(set(states))
    # product order: the second copy runs fastest, each copy in ring_configs order
    assert states[:3] == [((0, 0, 0), (0, 0, 0)), ((0, 0, 0), (0, 0, 1)), ((0, 0, 0), (0, 1, 0))]
    assert states[8] == ((0, 0, 1), (0, 0, 0))
    assert states[-1] == ((1, 1, 1), (1, 1, 1))


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
    reports = check_sector_uniform_stationary(two_star_step(), 6)
    assert [report.sector for report in reports] == list(range(7))
    for report in reports:
        assert report.ok
        assert report.max_imbalance < 1e-12


def test_traffic2_uniform_even_when_asymmetric():
    # the crowding-dependent distance-2 hop never breaks sector uniformity:
    # inflow and outflow cancel patternwise on the ring
    assert all(report.ok for report in check_sector_uniform_stationary(traffic2(F(9, 10), F(1, 10)), 6))


def test_reducible_chain_handling():
    # the list reports reducibility, with no warning besides it
    gen = single_generator(gg_symmetrized(1, 0, 1, 0), 5, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parts = stationary_distributions(gen)
    assert len(parts) == 5
    for dist in parts:
        assert abs(dist.weights.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError, match="reducible"):
        stationary_distribution(gen)


def test_irreducible_chain_yields_one_distribution():
    gen = single_generator(sep(), 4, 2)
    assert len(stationary_distributions(gen)) == 1


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


def _running_sum(rates):
    """The rates added one at a time, in order: the exit rule of
    ``GeneratorMatrix``, whatever rule the builtin ``sum`` follows."""
    return functools.reduce(operator.add, rates, 0)


def _dense_block(gen, members):
    """Generator block on ``members`` with the full exit rate on the diagonal,
    built straight from the rows, entry by entry: off-diagonal rates, then
    minus the row's running sum in row order (an exact sum rounded once
    where the rates are exact)."""
    pos = {i: k for k, i in enumerate(members)}
    q = np.zeros((len(members), len(members)))
    for i, k in pos.items():
        for j, r in gen.rows[i].items():
            if j in pos:
                q[k, pos[j]] = float(r)
        q[k, k] = -float(_running_sum(gen.rows[i].values()))
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
    dists = stationary_distributions(gen)
    members = closed_classes(gen)
    assert len(dists) == len(members) == classes
    for dist, cls in zip(dists, members):
        assert np.max(np.abs(dist.weights - _lstsq_stationary(gen, cls))) <= 1e-12
        assert dist.residual <= 1e-12
    if classes == 2:
        assert [len(cls) for cls in members] == [1, 2]
        assert dists[0].weights[2] == 1.0


def _index(gen):
    """The inverse of ``gen.states``: state -> index."""
    return {s: i for i, s in enumerate(gen.states)}


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
    index = _index(gen)
    orbit = {index[_turned(gen.states[3], k)] for k in range(8)}
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
    dists = stationary_distributions(gen)
    members = closed_classes(gen)
    assert len(dists) == len(members) == classes
    index = _index(gen)
    kept_by = set()
    for dist, cls in zip(dists, members):
        inside = set(cls)
        turns = [
            k for k in range(1, size + 1)
            if index[_turned(gen.states[cls[0]], k)] in inside
        ]
        kept_by.add(turns[0])
        for k in turns:
            for i in cls:
                assert dist.weights[index[_turned(gen.states[i], k)]] == dist.weights[i]
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
    plain = GeneratorMatrix(gen.states, gen.rows)
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
        flow[i] -= weights[i] * float(_running_sum(row.values()))
    return float(np.max(np.abs(flow)))


@CHAINS
def test_generator_arrays_match_the_rows(gen, classes):
    # the array-built dense blocks equal the entry-by-entry ones exactly; the
    # residual sums in another order, so it may move by rounding only
    dists = stationary_distributions(gen)
    blocks = closed_classes(gen) + [list(range(gen.dimension)), list(range(gen.dimension))[::-2]]
    for members in blocks:
        assert np.array_equal(gen.to_dense(members), _dense_block(gen, members))
    assert np.array_equal(gen.to_dense(), _dense_block(gen, range(gen.dimension)))
    for dist in dists:
        assert abs(dist.residual - _loop_residual(gen, dist.weights)) <= 1e-14


_BUILTIN_SUM = builtins.sum


def _compensated_sum(iterable, start=0):
    """The builtin ``sum`` as Python 3.12 gives it on floats: Neumaier's
    compensated sum, the compensation added once at the end; any other sum
    as the running builtin gives it."""
    items = list(iterable)
    if not items or not all(type(v) is float for v in items):
        return _BUILTIN_SUM(items, start)
    total, c = start + items[0], 0.0
    for v in items[1:]:
        t = total + v
        c += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


@pytest.mark.parametrize(
    "spec",
    [traffic2(0.7, 0.2), traffic2(F(7, 10), F(1, 5)), two_star_step({1: 0.3, -1: 0.7})],
    ids=["traffic2-float", "traffic2-exact", "two_star_step-float"],
)
def test_exit_rates_are_running_sums_under_a_compensated_sum(monkeypatch, spec):
    # a rows-built generator's exit rates are running sums in row order, as
    # single_generator's bincount adds them, under a compensated sum too
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert sum([0.1] * 10) == 1.0 != _running_sum([0.1] * 10)
    for size in (7, 9):
        for count in range(size + 1):
            gen = single_generator(spec, size, count)
            built = GeneratorMatrix(gen.states, [dict(row) for row in gen.rows])
            assert np.array_equal(built.entries[3], gen.entries[3]), (size, count)


@pytest.mark.parametrize(
    "call",
    [
        lambda: audit_order_preservation(sep(), 9),
        lambda: audit_discrepancy_monotone(sep(), 9),
        lambda: marginal_errors(sep(), 9, "strict"),
        lambda: coupled_generator(sep(), 9, "strict"),
        lambda: discrepancy_extinction(sep(), 9),
    ],
    ids=["audit-order", "audit-discrepancy", "marginal", "generator", "extinction"],
)
def test_coupled_layer_caps_the_pair_count(call):
    with pytest.raises(ValueError, match=r"262144 pairs \(L=9\) exceeds the cap of 65536 pairs \(L=8\)"):
        call()


def _coupled_entry_points(spec, size, kind):
    return {
        "audit-order": lambda: audit_order_preservation(spec, size, kind),
        "audit-discrepancy": lambda: audit_discrepancy_monotone(spec, size, kind),
        "marginal": lambda: marginal_errors(spec, size, kind),
        "generator": lambda: coupled_generator(spec, size, kind),
        "extinction": lambda: discrepancy_extinction(spec, size, kind),
    }


@pytest.mark.parametrize("size", [0, 1])
def test_coupled_layer_refuses_a_ring_too_small_for_the_spec(size):
    # before enumerating: an empty ring has no rotation orbits, and a ring of
    # only ordered pairs would report a plausible probability 1
    for call in _coupled_entry_points(sep(), size, "strict").values():
        with pytest.raises(ValueError, match=r"^ring of %d sites is too small for sep \(needs >= 3\)$" % size):
            call()


@pytest.mark.parametrize(
    "spec, pair, skip",
    [
        # an unordered pair, which the order audit never reads
        (traffic2(0, 2), "00001 / 00010", {"audit-order"}),
        # a comparable pair: extinction builds comparable rows too, so it refuses
        (gg_symmetrized(0, 0, 1, 2), "00001 / 01101", set()),
    ],
    ids=["traffic2 0 2", "gg 0 0 1 2"],
)
def test_every_entry_point_names_the_same_failing_pair(spec, pair, skip):
    for name, call in _coupled_entry_points(spec, 5, "strict").items():
        if name not in skip:
            with pytest.raises(ValueError, match="in the pair %s$" % pair):
                call()


def test_single_generator_caps_the_state_count():
    assert single_generator(sep(), 18, 9).dimension == 48620
    message = r"^exact single-chain enumeration of 65536 states exceeds the cap of 48620 states$"
    with pytest.raises(ValueError, match=message):
        single_generator(sep(), 16)


def test_a_single_solve_builds_no_row_dicts():
    # Tarjan's pass walks lists split from the entries; the rows are
    # derived only when read
    gen = single_generator(traffic2(F(7, 10), F(1, 5)), 10, 5)
    stationary_distributions(gen)
    assert "rows" not in vars(gen)
    assert gen.rows[7] == dict(zip(*(a[gen.entries[0] == 7].tolist() for a in gen.entries[1:3])))


def test_a_generator_given_neither_form_is_refused():
    # rows and entries each derive from the other: a read used to recurse
    gen = GeneratorMatrix([(0,), (1,)])
    for read in (gen.to_dense, lambda: gen.rows, lambda: gen.entries):
        with pytest.raises(ValueError, match="^a generator needs rows or entries, and was given neither$"):
            read()


def test_a_stale_state_index_argument_is_refused():
    with pytest.raises(TypeError):
        GeneratorMatrix([(0,), (1,)], [{}, {}], {(0,): 0, (1,): 1})


@pytest.mark.parametrize("count", [-1, 6])
def test_sector_counts_outside_the_ring_are_refused(count):
    # an empty sector would give a header-only table, a negative count the
    # error of math.comb; both name the range instead
    with pytest.raises(ValueError, match=r"^count must lie in \[0, 5\]$"):
        single_generator(sep(), 5, count)


def test_single_generator_refuses_a_ring_too_small_for_the_spec():
    # the rows are read from site patterns, so the ring is checked first;
    # the sector with no particles reads no pattern at all
    for count in (0, 1, 2):
        with pytest.raises(ValueError, match=r"^ring of 2 sites is too small for sep \(needs >= 3\)$"):
            single_generator(sep(), 2, count)


def test_dense_blocks_refuse_by_row_count():
    # the rows are empty, so nothing of size is built before the refusal
    gen = GeneratorMatrix(list(range(4097)), [{}] * 4097)
    message = r"^a dense block of 4097 rows \(134283272 bytes\) exceeds the cap of 4096 rows$"
    for call in (gen.to_dense, lambda: gen.to_dense(range(4097))):
        with pytest.raises(ValueError, match=message):
            call()
    assert gen.to_dense([0, 4096]).shape == (2, 2)


def test_single_chain_and_simulator_share_the_site_memo():
    spec = traffic2(F(7, 10), F(1, 5))
    gen = single_generator(spec, 7)  # every pattern of the 5 sites around an occupied site
    keys = set(spec._site_events)
    assert len(keys) == 2 ** (spec.min_ring_size - 1)
    # the rates are the memo's floats, value for value, in entry order
    w = spec.dep_radius + spec.max_offset
    assert gen.entries[2].tolist() == [
        r
        for eta in gen.states
        for x in range(7)
        if eta[x]
        for r, _ in spec._site_events[tuple(eta[(x + j - w) % 7] for j in range(2 * w + 1))][0]
    ]
    for eta in [(1, 0, 1, 1, 0, 0, 1, 0) * 4, (1, 1, 1, 0) * 8]:
        simulate._SingleEngine(spec, eta)
    assert simulate.simulate_single(spec, (1, 1, 0) * 11, t_end=20.0, seed=7).total_events > 0
    assert set(spec._site_events) == keys


# ---------------------------------------------------------------------------
# Oracle: the single chain on the rates as the rule returns them, one
# active_jumps walk over the whole ring per state.  single_generator's float
# rows must be these rates rounded once, and its weights must agree.


def _exact_row_generator(spec, size, count):
    states = list(ring_configs(size, count))
    index = {s: i for i, s in enumerate(states)}
    rows = [
        {index[apply_jump(eta, x, (x + d) % size)]: r for x, d, r in active_jumps(spec, eta)}
        for eta in states
    ]
    return GeneratorMatrix(states, rows)


SINGLE_DIFFERENTIAL_MODELS = (
    list(MONOTONE_ZOO)
    + [
        ("traffic2 %s %s" % (a, b), traffic2(a, b))
        for a in (0, F(1, 2), F(3, 2))
        for b in (0, F(7, 10), 2)
    ]
    + [("gg 1 0 1 0", gg_symmetrized(1, 0, 1, 0))]
)


@pytest.mark.parametrize(
    "spec", [s for _, s in SINGLE_DIFFERENTIAL_MODELS], ids=[l for l, _ in SINGLE_DIFFERENTIAL_MODELS]
)
def test_float_rows_match_the_exact_rows(spec):
    for size in (spec.min_ring_size, spec.min_ring_size + 4):
        for count in range(size + 1):
            gen = single_generator(spec, size, count)
            oracle = _exact_row_generator(spec, size, count)
            assert gen.states == oracle.states
            for got, want in zip(gen.rows, oracle.rows):
                assert list(got.items()) == [(j, float(r)) for j, r in want.items()]
                assert all(type(r) is float for r in got.values())
            index = _index(oracle)
            turn = [index[eta[-1:] + eta[:-1]] for eta in oracle.states]
            assert gen.turn.dtype == np.intp and gen.turn.tolist() == turn
            # the entries set at build time, against those that a generator
            # of the oracle's rates rounded once derives from its rows
            rounded = GeneratorMatrix(oracle.states, [{j: float(r) for j, r in row.items()} for row in oracle.rows])
            for got, want in zip(gen.entries, rounded.entries):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            dists = stationary_distributions(gen)
            wants = stationary_distributions(oracle)
            assert len(dists) == len(wants)
            for dist, want in zip(dists, wants):
                assert np.max(np.abs(dist.weights - want.weights)) <= 1e-12
                assert dist.residual <= 1e-12


@pytest.mark.parametrize("size, count", [(62, 1), (63, 1), (70, 1), (63, 2)])
def test_rings_beyond_int64_codes_match_the_exact_rows(size, count):
    # a sector of a few particles on a long ring stays under the state cap;
    # past 62 sites its turned codes would overflow an int64
    spec = traffic2(F(7, 10), F(1, 5))
    gen = single_generator(spec, size, count)
    oracle = _exact_row_generator(spec, size, count)
    assert gen.states == oracle.states
    assert [list(row.items()) for row in gen.rows] == [
        [(j, float(r)) for j, r in row.items()] for row in oracle.rows
    ]
    index = _index(oracle)
    assert gen.turn.tolist() == [index[eta[-1:] + eta[:-1]] for eta in oracle.states]


def _strongly_connected_components(rows) -> list:
    """Oracle: Tarjan's algorithm (Tarjan 1972), iterative; the components
    as lists of indices, in the order the search closes them."""
    n = len(rows)
    order = [0] * n  # 0 until visited
    low = [0] * n
    on_stack = [False] * n
    stack = []
    components = []
    counter = itertools.count(1)
    for root in range(n):
        if order[root]:
            continue
        work = [(root, iter(rows[root]))]
        order[root] = low[root] = next(counter)
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            for w in it:
                if not order[w]:
                    order[w] = low[w] = next(counter)
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(rows[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], order[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == order[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    components.append(comp)
    return components


def _closed_by_edges(gen):
    """Oracle: the components of Tarjan's pass with no edge out of them,
    one edge at a time, in the order of their least states."""
    comps = _strongly_connected_components(gen.rows)
    comp_of = {i: ci for ci, comp in enumerate(comps) for i in comp}
    return sorted(
        sorted(comp) for ci, comp in enumerate(comps)
        if all(comp_of[j] == ci for i in comp for j in gen.rows[i])
    )


@pytest.mark.parametrize(
    "gens",
    [
        lambda: [single_generator(gg_symmetrized(1, 0, 1, 0), size, count)
                 for size in (5, 6) for count in [None, *range(size + 1)]],
        lambda: [_two_closed_classes()],
    ],
    ids=["gg 1 0 1 0", "absorbing-state"],
)
def test_closed_classes_match_the_per_edge_oracle(gens):
    for gen in gens():
        assert closed_classes(gen) == _closed_by_edges(gen)


def _random_digraph(rng, n, p, absorbing=()):
    """A generator on ``n`` states with each edge present with probability
    ``p``, none out of the ``absorbing`` states."""
    return GeneratorMatrix(list(range(n)), [
        {} if i in absorbing else {j: 1.0 for j in range(n) if j != i and rng.random() < p}
        for i in range(n)
    ])


def test_closed_classes_match_the_oracle_on_random_digraphs():
    rng = random.Random(20231)
    for _ in range(2000):
        n = rng.randint(1, 40)
        absorbing = set(rng.sample(range(n), rng.randint(0, min(n, 3))))
        gen = _random_digraph(rng, n, rng.uniform(0.0, 0.3), absorbing)
        assert closed_classes(gen) == _closed_by_edges(gen)


@pytest.mark.parametrize("shape", ["cycle", "path"])
def test_closed_classes_on_a_long_chain_with_random_labels(shape):
    # the labels fall in a random order along the chain, so the least
    # reached label of each state moves a long way; a cycle is one closed
    # class, a path closes only at its absorbing end
    n = 50000
    labels = list(range(n))
    random.Random(shape).shuffle(labels)
    rows = [{} for _ in range(n)]
    for a, b in zip(labels, labels[1:] + labels[:1] if shape == "cycle" else labels[1:]):
        rows[a][b] = 1.0
    gen = GeneratorMatrix(labels, rows)
    want = [list(range(n))] if shape == "cycle" else [[labels[-1]]]
    assert closed_classes(gen) == _closed_by_edges(gen) == want


def test_sector_bits_match_ring_configs():
    for size in range(1, 16):
        bits = exact._sector_bits(size, None)
        assert bits.dtype == np.int64 and list(map(tuple, bits.tolist())) == list(ring_configs(size))
    for size in range(1, 19):
        for count in range(size + 1):
            bits = exact._sector_bits(size, count)
            assert bits.dtype == np.int64
            assert list(map(tuple, bits.tolist())) == list(ring_configs(size, count))
    # a ring wider than 62 sites, whose codes stay Python ints
    assert list(map(tuple, exact._sector_bits(100, 2).tolist())) == list(ring_configs(100, 2))


def test_a_sector_of_a_wide_ring_solves_as_one_class():
    gen = single_generator(sep(), 100, 2)
    assert gen.dimension == 4950 and gen.states == list(ring_configs(100, 2))
    (dist,) = stationary_distributions(gen)
    assert closed_classes(gen) == [list(range(4950))]
    assert np.max(np.abs(dist.weights - 1 / 4950)) <= 1e-12


ISING_LAWS = [
    # None where exactly gamma = delta = 0: the sector splits into classes
    ("gg %s %s %s %s" % (a, b, c, d), gg_symmetrized(a, b, c, d), b / a if c or d else None)
    for a in (F(1, 2), 2)
    for b in (F(1, 2), 2)
    for c in (0, 1)
    for d in (0, 1)
] + [("speed_change_increasing %s" % s, speed_change_increasing(strength=s), F(1, 2)) for s in (1, 2, F(1, 3))]


@pytest.mark.parametrize("spec, ratio", [(s, r) for _, s, r in ISING_LAWS], ids=[l for l, _, _ in ISING_LAWS])
@pytest.mark.parametrize("size, count", [(10, 5), (11, 4)])
def test_sector_laws_that_are_not_uniform(spec, ratio, size, count):
    # a nearest-neighbour Ising law: pi(eta) is proportional to ratio**B(eta),
    # B(eta) the number of sites x with eta_x = eta_{x+1} = 1; for
    # gg_symmetrized a jump that breaks a bond runs at alpha and its reverse
    # at beta, so ratio = beta / alpha balances each pair of them
    gen = single_generator(spec, size, count)
    dists = stationary_distributions(gen)
    if ratio is None:
        assert len(dists) > 1
        return
    (dist,) = dists
    bonds = np.array([sum(eta[x] * eta[x - 1] for x in range(size)) for eta in gen.states])
    want = float(ratio) ** bonds
    want /= want.sum()
    assert np.max(np.abs(dist.weights - want) / want) <= 1e-12


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
    assert report.worst_pair == ((0, 0, 1), (0, 1, 0))


@pytest.mark.parametrize("size, tables", [(5, 208), (6, 700)])
@pytest.mark.parametrize(
    "call",
    [lambda size: discrepancy_extinction(sep(), size, "strict"), lambda size: marginal_errors(sep(), size, "strict")],
    ids=["extinction", "marginal"],
)
def test_one_table_per_orbit(call, size, tables, monkeypatch):
    # one coupling table per rotation orbit of the ring's pairs: 1024 and
    # 4096 tables pair by pair
    calls = []

    def counting(*args):
        calls.append(args)
        return coupling.coupling_table(*args)

    monkeypatch.setattr(exact, "coupling_table", counting)
    call(size)
    assert len(calls) == tables


def _sector_generator(full, states):
    """The rows of ``full`` at the pairs ``states``, a closed sector,
    renumbered in the order of ``states``."""
    index = _index(full)
    pos = {index[s]: k for k, s in enumerate(states)}
    rows = [{pos[j]: r for j, r in full.rows[index[s]].items()} for s in states]
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
    assert report.worst_pair == ((0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 0))
    assert report.pairs_checked == 2702
    # a particle on an even site and one on an odd site never meet
    states = [s for s in pair_states(6) if sum(s[0]) == sum(s[1]) == 1]
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
    assert report.worst_pair == ((0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 0))


def test_discrepancy_extinction_of_a_blocked_non_monotone_spec():
    spec = gg_symmetrized(1, 0, 1, 0)
    report = discrepancy_extinction(spec, 6, "strict")
    assert report.min_probability == 0
    assert report.worst_pair == ((0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 0))
    states = [s for s in pair_states(6) if sum(s[0]) == sum(s[1]) == 1]
    unordered = {s for s in states if not is_ordered(*s)}
    h = _hitting_by_iteration(
        _sector_generator(coupled_generator(spec, 6, "strict"), states), unordered
    )
    assert h[states.index(report.worst_pair)] == 0


def test_discrepancy_extinction_raises_where_the_coupling_fails():
    with pytest.raises(ValueError, match="in the pair 000001 / 000010"):
        discrepancy_extinction(traffic2(0, 2), 6, "strict")
    # the pair the coupling cannot serve is comparable: extinction builds
    # the row of the first pair of every orbit, comparable or not, so it
    # refuses
    with pytest.raises(ValueError, match="in the pair 00001 / 01101"):
        discrepancy_extinction(gg_symmetrized(0, 0, 1, 2), 5, "strict")


# ---------------------------------------------------------------------------
# Oracle: the direct per-pair loop, one coupled_transitions call per pair.
# The audits skip the other pairs of a clean rotation orbit; they,
# marginal_errors and coupled_generator must give exactly what this loop gives.


def _direct_moves(spec, states, kind):
    return [coupled_transitions(spec, xi, zeta, kind) for xi, zeta in states]


def _direct_violations(moves, broken):
    return [a for audits in moves for a in audits if broken(a)]


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
                _direct_moves(spec, ordered, kind), lambda a: not a.order_preserving
            ),
        ),
        (
            lambda: audit_discrepancy_monotone(spec, size, kind),
            lambda: _direct_violations(moves(), lambda a: a.discrepancy_delta > 0),
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
# Oracle: extinction pair by pair, without rotation orbits.  The rows come
# from the per-pair loop above, built for every pair in pair_states order, so
# a coupling that cannot serve a pair raises where a pair-by-pair build
# raises; they are then split by sector.


def _extinction_by_pairs(spec, size, kind):
    """The hitting probability of the comparable pairs from every unordered
    pair: a backward search from the comparable pairs, 0 where it does not
    arrive, and one dense solve on the other unordered pairs of a sector."""
    every = list(pair_states(size))
    every_rows = _direct_rows(every, _direct_moves(spec, every, kind))
    sectors = {}
    for i, (xi, zeta) in enumerate(every):
        sectors.setdefault((sum(xi), sum(zeta)), []).append(i)
    probability = {}
    for members in sectors.values():
        states = [every[i] for i in members]
        target = [is_ordered(*s) for s in states]
        if all(target):
            continue
        pos = {i: k for k, i in enumerate(members)}
        rows = [{pos[j]: r for j, r in every_rows[i].items()} for i in members]
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
    # the worst pair is the first unordered pair in product order of them
    # with the smallest probability
    assert report.worst_pair == next(
        s for s in pair_states(size) if s in want and abs(want[s] - lowest) <= 1e-12
    )
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
