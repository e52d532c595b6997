import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from couplex import (
    RateSpec,
    coupled_transitions,
    coupling_table,
    custom_table,
    gg_symmetrized,
    is_ordered,
    is_monotone,
    leq,
    marginal_errors,
    oneD_cross_check,
    rate,
    sep,
    simulate_coupled,
    speed_change_decreasing,
    speed_change_increasing,
    traffic2,
    two_star_step,
    two_step,
)
from couplex import coupling
from couplex.coupling import FLAVOR, _sets
from couplex.exact import pair_states
from couplex.golden import MONOTONE_ZOO, ordered_pairs
from couplex.lattice import is_active, join
from couplex.models import active_jumps

MODELS = {
    "sep": sep(),
    "sep-sym": sep({1: F(1, 2), -1: F(1, 2)}),
    "traffic2": traffic2(F(7, 10), F(1, 5)),
    "gg": gg_symmetrized(2, 1, 1, 2),
    "two_star_step": two_star_step(),
}

KINDS = ("increasing", "attractive", "strict")


def pairs(size):
    for xi in itertools.product((0, 1), repeat=size):
        for zeta in itertools.product((0, 1), repeat=size):
            yield xi, zeta


def test_marginals_match_single_generator():
    # coupled marginals must reproduce the single chain exactly in every flavor
    for spec in list(MODELS.values()) + [two_step()]:
        for kind in KINDS:
            assert marginal_errors(spec, 5, kind) == 0, (spec.name, kind)


def test_non_monotone_marginals():
    # the overlap constructions stay marginal-consistent even off the
    # monotone region; the proportional one can overshoot a marginal there
    # and must refuse loudly rather than return a broken table
    assert marginal_errors(traffic2(0, 2), 5, "increasing") == 0
    assert marginal_errors(traffic2(0, 2), 5, "attractive") == 0
    with pytest.raises(ValueError, match="exceed the marginal"):
        marginal_errors(traffic2(0, 2), 5, "strict")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        coupling_table(sep(), (1, 0, 1, 0, 0), (1, 1, 0, 0, 0), "bogus")


def test_identical_copies_move_in_lockstep():
    for spec in MODELS.values():
        eta = (1, 0, 1, 0, 0)
        for kind in KINDS:
            audits = coupled_transitions(spec, eta, eta, kind)
            assert audits
            for move in audits:
                assert move.move == "coupled"
                assert move.first_jump == move.second_jump
                assert move.discrepancy_delta == 0


def test_increasing_on_unordered_pairs_is_empty():
    table = coupling_table(sep(), (1, 0, 0, 1, 0), (0, 1, 0, 1, 0), "increasing")
    assert table.coupled == {}
    # the residuals then carry the full marginal rates
    assert table.residual_first[(0, 1)] == 1


def test_increasing_transpose_symmetry():
    spec = MODELS["traffic2"]
    lo = (0, 1, 0, 0, 1, 0)
    hi = (0, 1, 1, 0, 1, 0)
    assert leq(lo, hi)
    a = coupling_table(spec, lo, hi, "increasing")
    b = coupling_table(spec, hi, lo, "increasing")
    assert b.coupled == {(x2, y2, x1, y1): g for (x1, y1, x2, y2), g in a.coupled.items()}
    assert b.residual_first == a.residual_second
    assert b.residual_second == a.residual_first


def test_table_invariants_exhaustive_small_ring():
    spec = MODELS["sep-sym"]
    for xi, zeta in pairs(5):
        for kind in KINDS:
            table = coupling_table(spec, xi, zeta, kind)
            assert all(g > 0 for g in table.coupled.values())
            assert all(g > 0 for g in table.residual_first.values())
            assert all(g > 0 for g in table.residual_second.values())


@given(st.integers(5, 6), st.data())
def test_marginal_identity_per_jump(size, data):
    spec = data.draw(st.sampled_from(list(MODELS.values())))
    kind = data.draw(st.sampled_from(KINDS))
    xi = tuple(data.draw(st.integers(0, 1)) for _ in range(size))
    zeta = tuple(data.draw(st.integers(0, 1)) for _ in range(size))
    audits = coupled_transitions(spec, xi, zeta, kind)
    first_rates = {}
    second_rates = {}
    for move in audits:
        if move.first_jump is not None:
            first_rates[move.first_jump] = first_rates.get(move.first_jump, 0) + move.rate
        if move.second_jump is not None:
            second_rates[move.second_jump] = second_rates.get(move.second_jump, 0) + move.rate
    for x in range(size):
        for d in spec.jump_offsets:
            y = (x + d) % size
            want_first = rate(spec, xi, x, y) if xi[x] == 1 and xi[y] == 0 else 0
            want_second = rate(spec, zeta, x, y) if zeta[x] == 1 and zeta[y] == 0 else 0
            assert first_rates.get((x, y), 0) == want_first
            assert second_rates.get((x, y), 0) == want_second


def test_ordered_pairs_attractive_equals_increasing():
    # on comparable pairs the composed coupling generates exactly the moves
    # of the plain ordered coupling
    for spec in (MODELS["traffic2"], MODELS["gg"], MODELS["sep"]):
        for xi, zeta in ordered_pairs(5):
            a = {}
            for move in coupled_transitions(spec, xi, zeta, "increasing"):
                key = (move.first_jump, move.second_jump)
                a[key] = a.get(key, 0) + move.rate
            b = {}
            for move in coupled_transitions(spec, xi, zeta, "attractive"):
                key = (move.first_jump, move.second_jump)
                b[key] = b.get(key, 0) + move.rate
            assert a == b, (spec.name, xi, zeta)


def test_attractive_never_creates_discrepancies_on_ordered_pairs():
    spec = MODELS["gg"]
    for xi, zeta in ordered_pairs(5):
        for move in coupled_transitions(spec, xi, zeta, "attractive"):
            assert move.order_preserving, (xi, zeta, move)


def test_cross_formulation_report():
    spec = MODELS["traffic2"]
    good = 0
    for xi, zeta in list(ordered_pairs(5))[:120]:
        report = oneD_cross_check(spec, xi, zeta)
        assert bool(report) and report.mismatches == []
        good += 1
    assert good == 120
    # float rates: the gaps are floats, compared with a rounding tolerance
    for xi, zeta in list(ordered_pairs(5))[:40]:
        assert oneD_cross_check(traffic2(0.7, 0.2), xi, zeta)


def test_cross_check_compares_every_open_entry(monkeypatch):
    # the check reads only entries whose two jumps are open; a change to one
    # of them must show, a change to an entry no move can use must not
    from couplex import coupling
    from couplex.lattice import is_active

    spec = MODELS["traffic2"]
    xi = (0, 1, 0, 0, 1, 0)
    zeta = (0, 1, 1, 0, 1, 0)
    assert leq(xi, zeta)
    honest = coupling._prefix_coupled(spec, xi, zeta)

    def open_in_both(key):
        return is_active(xi, key[0], key[1]) and is_active(zeta, key[2], key[3])

    for is_open in (True, False):
        key = next(k for k in sorted(honest) if open_in_both(k) == is_open)
        perturbed = dict(honest)
        perturbed[key] += F(1, 7)
        monkeypatch.setattr(coupling, "_prefix_coupled", lambda *_: perturbed)
        report = oneD_cross_check(spec, xi, zeta)
        if is_open:
            assert not report.equal
            assert [k for k, _, _ in report.mismatches] == [key]
        else:
            assert report.equal and report.mismatches == []


def test_sets_frozen_example():
    spec = MODELS["sep-sym"]
    xi = (0, 0, 1, 0, 0, 0)
    zeta = (0, 1, 1, 0, 1, 0)
    assert _sets(spec, xi, zeta, 2, True) == ([(1, F(1, 2))], [])
    assert _sets(spec, xi, zeta, 3, False) == ([], [(4, F(1, 2))])


def test_sets_membership_conditions():
    # a candidate site is listed, with the rate or excess its condition
    # names, exactly when it meets that condition; sets keep offset order
    spec = MODELS["gg"]
    xi = (0, 1, 1, 0, 0, 0, 1, 0)
    zeta = (0, 1, 1, 0, 1, 0, 1, 1)
    assert leq(xi, zeta)
    listed = {"main": 0, "bar": 0}
    for site in range(8):
        for departure, both in ((True, 1), (False, 0)):
            if not xi[site] == zeta[site] == both:
                continue
            want_main, want_bar = [], []
            if departure:
                for d in spec.jump_offsets:
                    y = (site + d) % 8
                    low, high = rate(spec, xi, site, y), rate(spec, zeta, site, y)
                    if xi[y] == 0 and zeta[y] == 1 and low > 0:
                        want_main.append((y, low))
                    if xi[y] == 0 and zeta[y] == 0 and high > low:
                        want_bar.append((y, high - low))
            else:
                for d in reversed(spec.jump_offsets):  # sources ascend by offset -d
                    x = (site - d) % 8
                    low, high = rate(spec, xi, x, site), rate(spec, zeta, x, site)
                    if xi[x] == 1 and zeta[x] == 1 and low > high:
                        want_main.append((x, low - high))
                    if xi[x] == 0 and zeta[x] == 1 and high > 0:
                        want_bar.append((x, high))
            main, bar = _sets(spec, xi, zeta, site, departure)
            assert (main, bar) == (want_main, want_bar), (site, departure)
            assert all(term > 0 for _, term in main + bar)
            listed["main"] += len(main)
            listed["bar"] += len(bar)
    assert min(listed.values()) > 0, listed


def test_sep_attractive_is_the_basic_coupling():
    # for range-1 laws the composed coupling degenerates to: both copies try
    # the same jump; each moves when its own exclusion constraint allows
    spec = MODELS["sep"]
    for xi, zeta in pairs(4):
        audits = coupled_transitions(spec, xi, zeta, "attractive")
        seen = {}
        for move in audits:
            key = (move.first_jump, move.second_jump)
            seen[key] = seen.get(key, 0) + move.rate
        want = {}
        for x in range(4):
            y = (x + 1) % 4
            first_ok = xi[x] == 1 and xi[y] == 0
            second_ok = zeta[x] == 1 and zeta[y] == 0
            if first_ok and second_ok:
                want[((x, y), (x, y))] = 1
            elif first_ok:
                want[((x, y), None)] = 1
            elif second_ok:
                want[(None, (x, y))] = 1
        assert seen == want, (xi, zeta)


# ---------------------------------------------------------------------------
# Oracle for the memoised composition: the unmemoised walk on ring sites


def _ring_composition(spec, xi, zeta, flavor, floats=False):
    """Coupled map of the flavor composed through every active join jump on
    the ring itself, without window patterns or the memo; only entries
    whose two jumps are active are moves of the pair."""
    size = len(xi)
    mid = join(xi, zeta)
    coupled = {}
    for x, d, norm in active_jumps(spec, mid):
        for key, g in coupling._join_contributions(
            spec, xi, zeta, mid, x, (x + d) % size, norm, flavor
        ):
            if is_active(xi, key[0], key[1]) and is_active(zeta, key[2], key[3]):
                coupled[key] = coupled.get(key, 0) + (float(g) if floats else g)
    return coupled


def _assert_same_map(got, want, context):
    # exact equality of keys, values, value types and order
    assert list(got) == list(want), context
    for key, g in want.items():
        assert type(got[key]) is type(g) and got[key] == g, (context, key)


def _check_walk(spec, xi, zeta):
    # raw values for the tables, floats summed one by one for the simulator
    for flavor in ("overlap", "proportional"):
        for floats in (False, True):
            got = coupling._sum_entries(
                coupling._site_entries(spec, xi, zeta, x, flavor, floats) for x in range(len(xi))
            )
            want = _ring_composition(spec, xi, zeta, flavor, floats)
            _assert_same_map(got, want, (flavor, floats, xi, zeta))


#: a rule that reads the far end of its windows in both directions: a jump
#: slows down when the site behind it is occupied.  Through the arrival site
#: x + d, the composed factors of the join jump x -> x + d then read site
#: x + 3d, the far end of the offset's span (``spec._spans``), which here is
#: dep_radius + 3 * max_offset away from the departure.
BEHIND = custom_table(
    (1, -1),
    0,
    {
        (d, "".join(bits)): 2 - int(bits[0 if d == 1 else 2])
        for d in (1, -1)
        for bits in itertools.product("01", repeat=3)
    },
)


@pytest.mark.parametrize(
    "spec",
    [traffic2(F(7, 10), F(1, 5)), gg_symmetrized(2, 1, 1, 2), traffic2(0.7, 0.2), BEHIND],
    ids=["traffic2 7/10 1/5", "gg 2 1 1 2", "traffic2 0.7 0.2", "behind"],
)
def test_memoised_walk_matches_ring_composition(spec):
    # every pair of the smallest ring, where the window patterns wrap
    # around the ring, and random pairs of two larger rings
    rng = random.Random(repr(spec))
    some_pairs = list(pairs(spec.min_ring_size)) + [
        tuple(tuple(rng.randint(0, 1) for _ in range(size)) for _ in range(2))
        for size in (12, 13)
        for _ in range(30)
    ]
    for xi, zeta in some_pairs:
        _check_walk(spec, xi, zeta)
        if spec is BEHIND:
            continue  # not every pair can be served; the walk is what is checked
        for kind in KINDS:
            want = {} if coupling._uncoupled(kind, is_ordered(xi, zeta)) else _ring_composition(
                spec, xi, zeta, FLAVOR[kind]
            )
            _assert_same_map(coupling_table(spec, xi, zeta, kind).coupled, want, (kind, xi, zeta))


def _wide_table():
    # random rates on every window of two unequal offsets and a wide radius:
    # each offset's span is narrower than the 2 * (r + 3m) + 1 sites around
    # the departure, and the two spans differ
    rng = random.Random(14)
    return custom_table(
        (1, -2),
        2,
        {
            (d, "".join(bits)): F(rng.randint(0, 3), 3)
            for d in (1, -2)
            for bits in itertools.product("01", repeat=2 * (2 + abs(d)) + 1)
        },
    )


#: a rule that raises on every window whose two ends are occupied
RAISES = RateSpec(
    "raises", (1, -1), 1, lambda window, d: -1 if window[0] == window[-1] == 1 else 1 + window[1]
)

SPAN_SPECS = MONOTONE_ZOO + (
    ("traffic2 0.7 0.2", traffic2(0.7, 0.2)),
    ("behind", BEHIND),  # the BEHIND rule of test_simulate.py too
    ("wide", _wide_table()),
    ("raises", RAISES),
)


def _composed(spec, flavor, centre, d, window):
    """``_compose``'s entries with their value types, or the error it raises."""
    try:
        raw, floats = coupling._compose(spec, flavor, centre, d, window)
    except ValueError as err:
        return "raises", str(err)
    return [(e, type(e[4])) for e in raw], [(e, type(e[4])) for e in floats]


@pytest.mark.parametrize("flavor", ["overlap", "proportional"])
@pytest.mark.parametrize("label,spec", SPAN_SPECS, ids=[label for label, _ in SPAN_SPECS])
def test_composition_reads_only_its_span(label, spec, flavor):
    # the memo keys the entries of offset d by the sites of spec._spans[d]
    # alone: on a random pair pattern of the 2 * (r + 3m) + 1 sites around
    # the departure, _compose gives the entries, value types and errors it
    # gives on that pattern with every site outside the span empty, and on
    # the span alone, as the memo calls it
    rng = random.Random("%s:%s" % (label, flavor))
    reach = spec.dep_radius + 3 * spec.max_offset
    outcomes = {"entries": 0, "raises": 0}
    for d, (lo, hi) in spec._spans.items():
        assert -reach <= lo < 0 < hi <= reach
        for _ in range(60):
            window = [rng.randrange(4) for _ in range(2 * reach + 1)]
            window[reach] = rng.randrange(1, 4)  # a join-occupied departure
            window[reach + d] = 0  # and a join-empty target
            want = _composed(spec, flavor, reach, d, tuple(window))
            padded = tuple(p if lo <= k - reach <= hi else 0 for k, p in enumerate(window))
            assert _composed(spec, flavor, reach, d, padded) == want, (d, window)
            key = tuple(window[reach + lo : reach + hi + 1])
            assert _composed(spec, flavor, -lo, d, key) == want, (d, window)
            if want[0] == "raises":
                outcomes["raises"] += 1
            elif want[0]:
                outcomes["entries"] += 1
    assert outcomes["entries"] > 0
    assert (outcomes["raises"] > 0) == (spec is RAISES)


def test_memo_keeps_flavors_apart():
    # a spec that built attractive tables first gives the strict tables of a
    # fresh spec: the overlap entries are never read for the proportional
    # flavor.  On this rule the two flavors differ on many pairs.
    rng = random.Random(8)
    some_pairs = [
        tuple(tuple(rng.randint(0, 1) for _ in range(8)) for _ in range(2)) for _ in range(60)
    ]
    used = speed_change_decreasing(3)
    attractive = [coupling_table(used, xi, zeta, "attractive").coupled for xi, zeta in some_pairs]
    fresh = speed_change_decreasing(3)
    differ = 0
    for (xi, zeta), overlap in zip(some_pairs, attractive):
        strict = coupling_table(used, xi, zeta, "strict").coupled
        _assert_same_map(strict, coupling_table(fresh, xi, zeta, "strict").coupled, (xi, zeta))
        differ += strict != overlap
    assert differ >= 5


def test_ring_below_the_window_is_refused():
    spec = sep({2: 1})
    message = r"ring of 3 sites is too small for sep \(needs >= 5\)"
    for kind in KINDS:
        with pytest.raises(ValueError, match=message):
            coupling_table(spec, (1, 0, 0), (0, 1, 0), kind)
    with pytest.raises(ValueError, match=message):
        simulate_coupled(spec, (1, 0, 0), (0, 1, 0), "attractive", 1.0)


def _typed_map(table):
    return {key: (type(g), g) for key, g in table.items()}


def test_bare_rule_with_float_rates_matches_its_factory_spec():
    # exactness follows the rates a rule returns, not the spec's params: a
    # bare RateSpec around a float rule gets the factory spec's verdicts
    # and tables
    for q in ({1: 0.1, -1: 0.2}, {1: 0.1, -1: 0.2, 2: 0.3, -2: 0.1}):
        factory = speed_change_increasing(q, 0.3)
        bare = RateSpec("bare", factory.jump_offsets, factory.dep_radius, factory.evaluate)
        assert is_monotone(factory).witnesses == is_monotone(bare).witnesses == []
    factory = speed_change_increasing({1: 0.1, -1: 0.2}, 0.3)
    bare = RateSpec("bare", factory.jump_offsets, factory.dep_radius, factory.evaluate)
    for kind in ("attractive", "strict"):
        for xi, zeta in pair_states(5):
            want = coupling_table(factory, xi, zeta, kind)
            got = coupling_table(bare, xi, zeta, kind)
            for part in ("coupled", "residual_first", "residual_second"):
                assert _typed_map(getattr(got, part)) == _typed_map(getattr(want, part))


@pytest.mark.parametrize(
    "spec",
    [spec for _, spec in MONOTONE_ZOO] + [traffic2(0.7, 0.2), gg_symmetrized(1.5, 0.75, 1, 1.25)],
    ids=[label for label, _ in MONOTONE_ZOO] + ["traffic2 0.7 0.2", "gg 1.5 0.75 1 1.25"],
)
def test_tables_hold_only_moves(spec):
    # every coupled entry pairs two active jumps, and every residual belongs
    # to an active jump of positive rate: on every pair of the ring
    for kind in KINDS:
        for xi, zeta in pair_states(5):
            table = coupling_table(spec, xi, zeta, kind)
            for x1, y1, x2, y2 in table.coupled:
                assert is_active(xi, x1, y1) and is_active(zeta, x2, y2), (kind, xi, zeta)
            for eta, residual in ((xi, table.residual_first), (zeta, table.residual_second)):
                for x, y in residual:
                    assert is_active(eta, x, y) and rate(spec, eta, x, y) > 0, (kind, xi, zeta)
