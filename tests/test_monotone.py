import dataclasses
import functools
import inspect
import itertools
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from couplex import (
    RateSpec,
    Violation,
    check_sector_uniform_stationary,
    custom_table,
    gg_symmetrized,
    is_monotone,
    sep,
    speed_change_decreasing,
    speed_change_increasing,
    strictness_report,
    traffic2,
    two_star_step,
    two_step,
)
from couplex import monotone
from couplex.golden import MONOTONE_ZOO


MONOTONE_INSTANCES = [
    sep(),
    sep({1: F(1, 2), -1: F(1, 2)}),
    two_step(),
    two_star_step(),
    traffic2(F(1, 2), F(1, 2)),
    traffic2(F(7, 10), F(1, 5)),
    traffic2(F(3, 2), F(3, 4)),
    gg_symmetrized(2, 1, 1, 2),
    gg_symmetrized(2, 1, 2, 1),
    gg_symmetrized(F(3, 2), F(3, 4), 1, F(5, 4)),
    speed_change_decreasing(2),
    speed_change_increasing(),
]

NON_MONOTONE_INSTANCES = [
    traffic2(0, 2),
    traffic2(2, 0),
    traffic2(F(1, 4), F(3, 2)),  # |alpha - beta| > 1
    gg_symmetrized(1, 0, 1, 0),
    gg_symmetrized(F(3, 2), F(1, 2), F(3, 2), 1),  # max(gamma, delta) > 2 beta
    gg_symmetrized(F(3, 2), F(1, 2), 1, F(3, 2)),  # the same point mirrored
    gg_symmetrized(1, F(1, 2), F(1, 4), F(1, 4)),  # min(gamma, delta) < beta
]


def test_monotone_instances():
    for spec in MONOTONE_INSTANCES:
        verdict = is_monotone(spec)
        assert verdict.monotone, (repr(spec), verdict.witnesses[:2])
        assert verdict.witnesses == []


def test_non_monotone_instances_carry_witnesses():
    for spec in NON_MONOTONE_INSTANCES:
        verdict = is_monotone(spec)
        assert not verdict.monotone, repr(spec)
        assert verdict.witnesses
        for w in verdict.witnesses:
            assert w.kind in ("arrival", "departure")
            assert w.lhs > w.rhs
            assert w.excess == w.lhs - w.rhs > 0


def _failing_conditions(spec):
    return {w.kind for w in is_monotone(spec).witnesses}


def test_traffic2_failure_direction():
    # alpha >> beta breaks the departure side, beta >> alpha the arrival side
    assert _failing_conditions(traffic2(2, 0)) == {"departure"}
    assert _failing_conditions(traffic2(0, 2)) == {"arrival"}


def test_verdict_stable_under_window_growth():
    for spec in MONOTONE_INSTANCES:
        assert is_monotone(spec, extra=2).monotone
    for spec in NON_MONOTONE_INSTANCES:
        assert not is_monotone(spec, extra=2).monotone


#: traffic2(alpha, beta) is monotone iff |alpha - beta| <= 1; the type of
#: the witnesses' excess, None for a monotone spec
TOLERANCE_CASES = [
    ("exact 1", traffic2(0, 1), None),
    ("exact 5/4", traffic2(0, F(5, 4)), F),
    ("float 1.25", traffic2(0.0, 1.25), float),
    # exact rates compare with no tolerance: an excess of 1e-15 counts
    ("exact 1+1e-15", traffic2(0, 1 + F(1, 10**15)), F),
    # float rates compare within FLOAT_TOL = 1e-12
    ("float 1+1e-15", traffic2(0.0, 1 + 1e-15), None),
    ("float 1+1e-9", traffic2(0.0, 1 + 1e-9), float),
]


@pytest.mark.parametrize(
    "spec, excess_type", [case[1:] for case in TOLERANCE_CASES], ids=[case[0] for case in TOLERANCE_CASES]
)
def test_tolerance_follows_the_rate_type(spec, excess_type):
    verdict = is_monotone(spec)
    assert verdict.monotone == (excess_type is None)
    assert all(type(w.excess) is excess_type for w in verdict.witnesses)
    # the strictness report reads the same tolerance
    if verdict.monotone:
        assert strictness_report(spec).binding_count > 0
    else:
        with pytest.raises(ValueError, match="monotone"):
            strictness_report(spec)


@pytest.mark.parametrize(
    "check, params",
    [
        (is_monotone, ["spec", "extra"]),
        (strictness_report, ["spec"]),
        (check_sector_uniform_stationary, ["spec", "size"]),
    ],
    ids=lambda value: getattr(value, "__name__", ""),
)
def test_checks_take_no_tolerance(check, params):
    # only is_monotone's extra is optional
    signature = inspect.signature(check)
    assert list(signature.parameters) == params
    optional = [p.name for p in signature.parameters.values() if p.default is not p.empty]
    assert optional == (["extra"] if check is is_monotone else [])


def test_results_carry_no_tolerance_fields():
    assert [f.name for f in dataclasses.fields(monotone.Verdict)] == ["monotone", "witnesses"]
    fields = dataclasses.fields(monotone.StrictnessReport)
    assert [f.name for f in fields] == ["strict", "min_slack", "binding_count"]


def test_witnesses_are_deterministic_and_sorted():
    first = is_monotone(traffic2(0, 2)).witnesses
    second = is_monotone(traffic2(0, 2)).witnesses
    assert first == second
    ranked = sorted(first, key=lambda w: w.excess, reverse=True)
    assert ranked[0].excess == max(w.excess for w in first)


def test_violation_is_an_immutable_value():
    w = Violation("arrival", 4, -4, "00100", "00110", F(5, 4), 1)
    assert (w.kind, w.center, w.lo, w.lower, w.upper, w.lhs, w.rhs) == tuple(w)
    assert w.excess == F(1, 4)
    twin = Violation("arrival", 4, -4, "00100", "00110", F(5, 4), 1)
    assert w == twin and hash(w) == hash(twin) and len({w, twin}) == 1
    with pytest.raises(AttributeError):
        w.lhs = 0


def test_strictness_oracles():
    assert strictness_report(sep()).strict
    assert strictness_report(sep()).min_slack == 1
    sym = strictness_report(sep({1: F(1, 2), -1: F(1, 2)}))
    assert sym.strict and sym.min_slack == F(1, 2)
    assert not strictness_report(two_step()).strict
    assert not strictness_report(two_star_step()).strict
    assert strictness_report(traffic2(F(7, 10), F(1, 5))).min_slack == F(1, 5)
    assert not strictness_report(gg_symmetrized(2, 1, 1, 2)).strict
    assert strictness_report(gg_symmetrized(F(3, 2), F(3, 4), 1, F(5, 4))).min_slack == F(1, 4)
    assert not strictness_report(speed_change_increasing()).strict


def test_strictness_requires_monotone():
    with pytest.raises(ValueError, match="monotone"):
        strictness_report(traffic2(0, 2))


@st.composite
def small_tables(draw):
    dep_radius = draw(st.integers(0, 1))
    offsets = draw(st.sampled_from([(1,), (-1, 1)]))
    width = 2 * (dep_radius + 1) + 1
    table = {}
    for d in offsets:
        for code in range(2**width):
            bits = format(code, "0%db" % width)
            table[(d, bits)] = F(draw(st.integers(0, 3)), draw(st.integers(1, 3)))
    return custom_table(offsets, dep_radius, table)


@given(small_tables(), st.integers(2, 5))
def test_monotonicity_invariant_under_rescaling(spec, factor):
    scaled = custom_table(
        spec.jump_offsets,
        spec.dep_radius,
        {key: factor * value for key, value in spec.params["table"].items()},
    )
    assert is_monotone(spec).monotone == is_monotone(scaled).monotone


# ---------------------------------------------------------------------------
# Differential test: the blocked array scan against a per-pair loop


def _halfwidth(spec, d):
    return spec.dep_radius + abs(d)


def _loop_sites(spec, kind, extra):
    if kind == "arrival":
        lo = min(-d - _halfwidth(spec, d) for d in spec.jump_offsets)
        hi = max(-d + _halfwidth(spec, d) for d in spec.jump_offsets)
        return range(min(lo, 0) - extra, max(hi, 0) + extra + 1)
    w = max(_halfwidth(spec, d) for d in spec.jump_offsets)
    return range(-w - extra, w + extra + 1)


def _span_rate(spec, bits, lo, x, d):
    """Rate of the jump x -> x+d, read by ``evaluate`` on its window's
    slice of a pattern over the sites lo, lo+1, ..."""
    w = _halfwidth(spec, d)
    return spec.evaluate(bits[x - w - lo : x + w + 1 - lo], d)


def _loop_tol(spec):
    """The tolerance the rates a condition reads call for: 0 when they are
    all ints or Fractions, FLOAT_TOL once a float enters."""
    for d in spec.jump_offsets:
        w = _halfwidth(spec, d)
        for bits in itertools.product((0, 1), repeat=2 * w + 1):
            if bits[w] and not bits[w + d] and isinstance(spec.evaluate(bits, d), float):
                return monotone.FLOAT_TOL
    return 0


def _loop_sums(spec, kind, lower, upper, lo):
    lhs = 0
    rhs = 0
    for d in spec.jump_offsets:
        if kind == "arrival":
            x, i = -d, -d - lo
            if upper[i] == 0:
                continue
            g_up = _span_rate(spec, upper, lo, x, d)
            if lower[i]:
                g_lo = _span_rate(spec, lower, lo, x, d)
                if g_lo > g_up:
                    lhs = lhs + (g_lo - g_up)
            else:
                rhs = rhs + g_up
        else:
            i = d - lo
            if upper[i] == 0:
                g_up = _span_rate(spec, upper, lo, 0, d)
                g_lo = _span_rate(spec, lower, lo, 0, d)
                if g_up > g_lo:
                    lhs = lhs + (g_up - g_lo)
            elif lower[i] == 0:
                rhs = rhs + _span_rate(spec, lower, lo, 0, d)
    return lhs, rhs


def _loop_scan(spec, kind, extra, tol):
    """Violations and binding rows of one condition, one pattern pair at a
    time, pairs in itertools.product order over (0,0), (0,1), (1,1)."""
    sites = _loop_sites(spec, kind, extra)
    lo = sites.start
    pinned = 0 if kind == "arrival" else 1
    choices = [((pinned, pinned),) if s == 0 else ((0, 0), (0, 1), (1, 1)) for s in sites]
    violations, binding = [], []
    for combo in itertools.product(*choices):
        lower = tuple(a for a, _ in combo)
        upper = tuple(b for _, b in combo)
        lhs, rhs = _loop_sums(spec, kind, lower, upper, lo)
        low, up = "".join(map(str, lower)), "".join(map(str, upper))
        if lhs > rhs + tol:
            violations.append(Violation(kind, -lo, lo, low, up, lhs, rhs))
        elif rhs > 0:
            binding.append((rhs - lhs, kind, lo, low, up, lhs, rhs))
    return violations, binding


@pytest.mark.parametrize("n, center", [(1, 0), (5, 2), (7, 6), (11, 4)])
def test_pair_blocks_follow_product_order(n, center):
    for pinned in (0, 1):
        choices = [((pinned, pinned),) if k == center else ((0, 0), (0, 1), (1, 1)) for k in range(n)]
        want = [
            (tuple(a for a, _ in combo), tuple(b for _, b in combo))
            for combo in itertools.product(*choices)
        ]
        got = []
        for lower, upper in monotone._pair_blocks(n, center, pinned):
            assert len(lower) <= monotone.BLOCK_ROWS
            got.extend(
                (tuple((m >> k) & 1 for k in range(n)), tuple((u >> k) & 1 for k in range(n)))
                for m, u in zip(lower.tolist(), upper.tolist())
            )
        assert got == want


def _loop_sorted(violations):
    return sorted(violations, key=lambda v: (-(v.lhs - v.rhs), v.kind, v.lower, v.upper))


def _typed(value):
    return (type(value), value)


def _assert_same_witnesses(got, want):
    assert got == want
    assert [(_typed(w.lhs), _typed(w.rhs)) for w in got] == [
        (_typed(w.lhs), _typed(w.rhs)) for w in want
    ]


def _assert_matches_loop(spec, extra=0):
    t = _loop_tol(spec)
    (arrival, _), (departure, _) = (_loop_scan(spec, kind, extra, t) for kind in ("arrival", "departure"))
    verdict = is_monotone(spec, extra)
    _assert_same_witnesses(verdict.witnesses, _loop_sorted(arrival + departure))
    assert verdict.monotone == (not arrival and not departure)
    # strictness reads the span of the rates themselves, as extra = 0 does
    (arrival, b1), (departure, b2) = (_loop_scan(spec, kind, 0, t) for kind in ("arrival", "departure"))
    if arrival or departure:
        with pytest.raises(ValueError, match="monotone"):
            strictness_report(spec)
        return
    report = strictness_report(spec)
    # the least-slack row by (slack, kind, lower, upper) gives min_slack its type
    binding = sorted(b1 + b2, key=lambda row: (row[0], row[1], row[3], row[4]))
    assert report.binding_count == len(binding)
    if binding:
        assert _typed(report.min_slack) == _typed(binding[0][0])
        assert report.strict == (binding[0][0] > t)
    else:
        assert report.min_slack is None and not report.strict


@pytest.mark.parametrize("extra", [0, 1, 2])
@pytest.mark.parametrize(
    "spec", MONOTONE_INSTANCES + NON_MONOTONE_INSTANCES, ids=repr
)
def test_scan_matches_pair_loop(spec, extra):
    _assert_matches_loop(spec, extra)


def test_scan_matches_pair_loop_on_float_traffic2():
    spec = traffic2(0.0, 1.25)
    assert monotone._rate_arrays(spec).tables[1].dtype == float
    _assert_matches_loop(spec)


def test_scan_matches_pair_loop_on_float_gg():
    _assert_matches_loop(gg_symmetrized(1.5, 0.5, 1.5, 1.0), extra=1)
    _assert_matches_loop(gg_symmetrized(1.5, 0.75, 1, 1.25))


def _mixed_rule():
    # Fraction rates for hops of 1, float rates for hops of 2
    def evaluate(window, d):
        if d == 1:
            return F(2, 3) + F(1, 3) * window[0]
        return 0.25 + 1.5 * window[3] * (1 - window[1])

    return RateSpec("mixed", (1, 2), 0, evaluate)


def test_scan_matches_pair_loop_on_mixed_rates():
    spec = _mixed_rule()
    assert monotone._rate_arrays(spec).tables[1].dtype == object
    assert not is_monotone(spec).monotone
    _assert_matches_loop(spec)


def test_scan_matches_pair_loop_on_huge_denominators():
    wide = traffic2(F(2**71 + 3, 2**70 - 3), F(5, 2**70 + 1))
    assert monotone._rate_arrays(wide).tables[2].dtype == object
    assert not is_monotone(wide).monotone
    _assert_matches_loop(wide)
    narrow = traffic2(F(2**69 + 7, 2**70 - 3), F(1, 2**70 + 1))
    assert is_monotone(narrow).monotone
    _assert_matches_loop(narrow)


@given(small_tables())
def test_scan_matches_pair_loop_on_tables(spec):
    _assert_matches_loop(spec)


def _guarded_rule(active_rate):
    # -1 on every window a condition never reads: departure site empty or
    # target occupied
    def evaluate(window, d):
        w = len(window) // 2
        if not window[w] or window[w + d]:
            return -1
        return active_rate(window, d)

    return RateSpec("guarded", (1, 2), 0, evaluate)


def test_only_active_windows_are_read():
    monotone_rule = _guarded_rule(lambda window, d: 1 if d == 1 else F(1, 2))
    assert is_monotone(monotone_rule).monotone
    assert strictness_report(monotone_rule).binding_count > 0
    broken = _guarded_rule(lambda window, d: 1 if d == 1 else 2 * window[3])
    verdict = is_monotone(broken)
    assert not verdict.monotone
    _assert_same_witnesses(
        verdict.witnesses,
        _loop_sorted(_loop_scan(broken, "arrival", 0, 0)[0] + _loop_scan(broken, "departure", 0, 0)[0]),
    )


def test_negative_active_rate_is_refused():
    spec = _guarded_rule(lambda window, d: 1 if d == 1 else window[3] - 1)
    with pytest.raises(ValueError, match="negative rate"):
        is_monotone(spec)


@pytest.mark.parametrize("extra", [-1, 0.5, 1.0, True, None])
def test_invalid_extra_is_refused(extra):
    # a negative extra once gave monotone=True with no witness to
    # traffic2(0, 2), which is not monotone
    with pytest.raises(ValueError, match="extra must be an int >= 0"):
        is_monotone(traffic2(0, 2), extra=extra)


def _whole_fraction_rule():
    # Fractions with denominator 1 beside plain ints: the common scale is 1
    def evaluate(window, d):
        if d == 1:
            return F(3) if window[0] else 1
        return 2 if window[1] else F(1)

    return RateSpec("whole fractions", (1, 2), 0, evaluate)


def test_fraction_sides_follow_the_rate_types_not_the_scale():
    spec = _whole_fraction_rule()
    witnesses = is_monotone(spec).witnesses
    sides = [v for w in witnesses for v in (w.lhs, w.rhs)]
    assert all(F(v).denominator == 1 for v in sides)
    assert {type(v) for v in sides} == {F, int}
    _assert_matches_loop(spec, extra=1)
    _assert_matches_loop(spec)
    _assert_matches_loop(sep({1: F(2), -1: 1}))


def _bool_float_rule():
    # bool and int rates on some windows, floats on others
    def evaluate(window, d):
        if d == 1:
            return True if window[0] else 2
        return 0.5 * window[3] if window[1] else 0

    return RateSpec("bool and float", (1, 2), 0, evaluate)


def test_float_rule_sides_summing_only_ints_stay_ints():
    spec = _bool_float_rule()
    assert monotone._rate_arrays(spec).tables[1].dtype == float
    witnesses = is_monotone(spec).witnesses
    assert {(type(w.lhs), type(w.rhs)) for w in witnesses} == {(int, int), (int, float), (float, int)}
    _assert_matches_loop(spec)
    _assert_matches_loop(spec, extra=1)


# ---------------------------------------------------------------------------
# The plan cache: keyed by window shape, bounded, never holding a streamed span


@pytest.fixture
def fresh_plans():
    """Empty plan and window caches before and after one test."""
    monotone._kept_plan.cache_clear()
    monotone._kept_reads.cache_clear()
    yield
    monotone._kept_plan.cache_clear()
    monotone._kept_reads.cache_clear()


def _pattern_table(offsets, dep_radius, rate):
    """custom_table whose rate of offset d on a window is rate(d, pattern)."""
    table = {}
    for d in offsets:
        width = 2 * (dep_radius + abs(d)) + 1
        for bits in itertools.product("01", repeat=width):
            table[(d, "".join(bits))] = rate(d, "".join(bits))
    return custom_table(offsets, dep_radius, table)


def _report_key(report):
    return report.strict, _typed(report.min_slack), report.binding_count


def test_plans_are_keyed_by_shape_only(fresh_plans):
    # specs sharing the offsets (-1, 1) and differing in rates, rate types or
    # dependence radius, each verdict run after the others filled the cache
    cold = {label: _report_key(strictness_report(spec)) for label, spec in MONOTONE_ZOO}
    monotone._kept_plan.cache_clear()
    specs = [
        gg_symmetrized(2, 1, 1, 2),
        _pattern_table((-1, 1), 1, lambda d, p: F(1 + p.count("1"), 3)),
        gg_symmetrized(1, 0, 1, 0),
        _pattern_table((-1, 1), 0, lambda d, p: F(2, 1 + int(p[0]) + int(p[2]))),
        gg_symmetrized(1.5, 0.5, 1.5, 1.0),
        _pattern_table((-1, 1), 1, lambda d, p: 0.5 + 0.25 * p.count("1")),
        gg_symmetrized(F(3, 2), F(3, 4), 1, F(5, 4)),
        _pattern_table((-1, 1), 0, lambda d, p: 0.75 if d == 1 else 1),
    ]
    for extra in (0, 1):
        for spec in specs:
            _assert_matches_loop(spec, extra)
    # one plan per radius (0, 1), condition and extra (0, 1): the 32 scans
    # of is_monotone, and those of strictness_report, build each once and
    # read it for every other spec
    info = monotone._kept_plan.cache_info()
    assert (info.misses, info.currsize) == (8, 8) and info.hits >= 32 - 8
    warm = {label: _report_key(strictness_report(spec)) for label, spec in MONOTONE_ZOO}
    assert warm == cold


def _gg_witnesses(extra):
    return is_monotone(gg_symmetrized(1, 0, 1, 0), extra).witnesses


def test_streamed_blocks_match_the_cached_plan(fresh_plans, monkeypatch):
    cached = _gg_witnesses(1)
    # the 9-site arrival span of gg_symmetrized at extra = 1 fits one block
    assert monotone._plan(gg_symmetrized(1, 0, 1, 0), "arrival", 1).block is not None
    assert len(cached) > 100
    monkeypatch.setattr(monotone, "BLOCK_DIGITS", 3)
    monotone._kept_plan.cache_clear()
    streamed = _gg_witnesses(1)
    for kind in ("arrival", "departure"):
        plan = monotone._plan(gg_symmetrized(1, 0, 1, 0), kind, 1)
        assert plan.block is None
        assert sum(1 for _ in plan.blocks()) == 3 ** (plan.n - 1 - 3)
    assert monotone._kept_plan.cache_info().currsize == 0
    _assert_same_witnesses(streamed, cached)
    _assert_matches_loop(gg_symmetrized(1, 0, 1, 0), extra=1)
    _assert_matches_loop(traffic2(0, 2))


def test_a_wide_span_streams_and_is_not_kept(fresh_plans):
    spec = speed_change_increasing({1: 1, -1: 1, 2: 1, -2: 1})
    rates = monotone._rate_arrays(spec)
    plan = monotone._plan(spec, "arrival", 1)
    # 13 sites: 3**12 pairs in 81 blocks; building them at once would take
    # some 45 MB of masks and indices
    assert plan.n == 13 and plan.block is None
    tracemalloc.start()
    try:
        assert monotone._violations(rates, plan) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert monotone._kept_plan.cache_info().currsize == 0
    assert is_monotone(spec, extra=1).monotone
    # only the 9-site departure span fits one block
    assert monotone._kept_plan.cache_info().currsize == 1
    assert monotone._plan(spec, "departure", 1).block is not None
    assert monotone._kept_plan.cache_info().hits == 1


def test_caches_stay_within_their_bound(monkeypatch):
    for cache in (monotone._kept_plan, monotone._kept_reads):
        assert cache.cache_info().maxsize == monotone.PLAN_CACHE_SIZE
    want = [(spec, extra, is_monotone(spec, extra)) for spec in NON_MONOTONE_INSTANCES for extra in (0, 1)]
    # caches of 3 shapes, so that the round drops some
    monkeypatch.setattr(monotone, "_kept_plan", functools.lru_cache(maxsize=3)(monotone._Plan))
    monkeypatch.setattr(monotone, "_kept_reads", functools.lru_cache(maxsize=3)(monotone._read_windows))
    for spec, extra, verdict in want + want[::-1]:
        got = is_monotone(spec, extra)
        _assert_same_witnesses(got.witnesses, verdict.witnesses)
        assert monotone._kept_plan.cache_info().currsize <= 3
        assert monotone._kept_reads.cache_info().currsize <= 3
    info = monotone._kept_plan.cache_info()
    assert info.misses > 3
    # the most recently used shapes are the ones kept
    spec, extra, _ = want[0]
    monotone._plan(spec, "departure", extra)
    assert monotone._kept_plan.cache_info().hits == info.hits + 1


def test_kept_plans_are_read_only(fresh_plans):
    plan = monotone._plan(traffic2(1, 1), "arrival", 0)
    lower, upper, windows = plan.block
    arrays = [lower, upper] + [x for _, *parts in windows for x in parts]
    assert all(not x.flags.writeable for x in arrays)


def test_import_builds_no_plan():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, %r); import couplex.monotone as m; "
        "print(*(f.cache_info().currsize for f in (m._kept_plan, m._kept_reads, m._pattern)))" % str(src)
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["0", "0", "0"]
