import itertools
import re
from fractions import Fraction as F

import pytest

from couplex import (
    RateSpec,
    custom_table,
    gg_symmetrized,
    make_model,
    model_ids,
    rate,
    sep,
    speed_change_decreasing,
    speed_change_increasing,
    traffic2,
    two_star_step,
    two_step,
)
from couplex.golden import MONOTONE_ZOO
from couplex.models import model_parameter_names, model_signature
from couplex.monotone import _sites


def _largest_rate(spec):
    """Oracle for a valid spec: read every window of every offset, whatever
    its occupancy (``evaluate`` raises on a negative or non-finite rate),
    and return the largest rate read."""
    return max(
        spec.evaluate(bits, d)
        for d in spec.jump_offsets
        for bits in itertools.product((0, 1), repeat=2 * (spec.dep_radius + abs(d)) + 1)
    )


def test_model_ids_cover_the_zoo():
    assert model_ids() == (
        "custom_table",
        "gg_symmetrized",
        "sep",
        "speed_change_decreasing",
        "speed_change_increasing",
        "traffic2",
        "two_star_step",
        "two_step",
    )


def test_make_model_errors():
    with pytest.raises(ValueError, match="unknown model"):
        make_model("nosuch")
    with pytest.raises(ValueError, match="bad parameters"):
        make_model("traffic2", {"alpha": 1})


def test_parameter_name_helpers():
    assert model_parameter_names("traffic2") == ("alpha", "beta")
    assert model_parameter_names("gg_symmetrized") == ("alpha", "beta", "gamma", "delta")
    assert model_signature("two_step").startswith("two_step(")
    with pytest.raises(ValueError):
        model_parameter_names("nosuch")


def test_negative_rates_rejected():
    with pytest.raises(ValueError):
        traffic2(-1, 1)
    with pytest.raises(ValueError):
        gg_symmetrized(1, 1, -2, 1)
    with pytest.raises(ValueError):
        sep({1: -F(1, 2)})


def test_sep_rates():
    spec = sep({1: F(1, 3), -1: F(2, 3)})
    eta = (1, 0, 0, 1, 0)
    assert rate(spec, eta, 0, 1) == F(1, 3)
    assert rate(spec, eta, 3, 2) == F(2, 3)
    assert rate(spec, eta, 0, 2) == 0  # range-1 law has no distance-2 channel


def test_traffic2_rates():
    # distance-1 hops run at unit rate; distance-2 hops read the skipped site:
    # alpha over an occupied site, beta over an empty one.
    spec = traffic2(F(7, 10), F(1, 5))
    eta = (1, 0, 0, 1, 0)
    assert rate(spec, eta, 0, 1) == 1
    assert rate(spec, eta, 0, 2) == F(1, 5)
    assert rate(spec, eta, 2, 4) == F(7, 10)
    assert rate(spec, eta, 0, 3) == 0  # no distance-3 channel


def test_gg_rates_read_both_outer_neighbours():
    # right jump from x looks at (eta(x-1), eta(x+2)); the left jump mirrors.
    spec = gg_symmetrized(F(3, 2), F(3, 4), 1, F(5, 4))
    eta = (1, 1, 0, 0, 1, 0)
    assert rate(spec, eta, 1, 2) == F(3, 2)  # behind occupied, ahead empty -> alpha
    assert rate(spec, eta, 2, 1) == F(3, 4)  # behind empty, ahead occupied -> beta
    assert rate(spec, eta, 2, 3) == 1  # both outer sites occupied -> gamma
    assert rate(spec, eta, 0, 1) == F(5, 4)  # both outer sites empty -> delta
    assert rate(spec, eta, 1, 0) == F(5, 4)


def test_two_step_is_zero_one_valued():
    spec = two_step()
    values = set()
    for eta in ((1, 1, 0, 0, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 1)):
        for x in range(5):
            for d in spec.jump_offsets:
                values.add(rate(spec, eta, x, (x + d) % 5))
    assert values <= {0, 1}


def test_speed_change_models_validate():
    for spec in (speed_change_decreasing(2), speed_change_increasing(), two_star_step()):
        assert _largest_rate(spec) > 0


def test_validate_spec_all_builtin_defaults():
    instances = [
        sep(),
        traffic2(F(1, 2), F(1, 2)),
        gg_symmetrized(2, 1, 1, 2),
        two_step(),
        two_star_step(),
        speed_change_decreasing(2),
        speed_change_increasing(),
    ]
    for spec in instances:
        assert _largest_rate(spec) > 0, spec.name


def test_exact_parameters_stay_exact():
    spec = traffic2(F(7, 10), F(1, 5))
    value = rate(spec, (1, 1, 1, 0, 0), 1, 3)
    assert isinstance(value, F) and value == F(7, 10)
    assert isinstance(rate(traffic2(0.7, 0.2), (1, 1, 1, 0, 0), 1, 3), float)


def test_evaluate_refuses_bad_windows_and_rates():
    with pytest.raises(ValueError, match="must have 3 sites"):
        sep().evaluate((0, 1), 1)
    rule = RateSpec("bad", (1,), 0, lambda window, d: -1 if window[0] else float("nan"))
    with pytest.raises(ValueError, match="negative rate"):
        rule.evaluate((1, 1, 0), 1)
    with pytest.raises(ValueError, match="not finite"):
        rule.evaluate((0, 1, 0), 1)
    # an offset the spec does not have is named with the spec
    with pytest.raises(ValueError, match=r"offset 3 is not a jump offset of traffic2\(alpha=1, beta=2\)"):
        traffic2(1, 2).evaluate((0, 0, 0, 1, 0, 0, 0), 3)


@pytest.mark.parametrize(
    "make",
    [
        lambda law: sep(law),
        lambda law: speed_change_increasing(law),
        lambda law: two_star_step(law),
    ],
    ids=["sep", "speed_change_increasing", "two_star_step"],
)
def test_jump_laws_are_checked_alike(make):
    # one check for every jump law: a whole displacement, not 0, and a
    # nonnegative weight; sep({1.5: 1}) once ran as sep({1: 1})
    name = make({1: 1}).name
    with pytest.raises(ValueError, match=r"jump displacement must be an integer, got 1\.5"):
        make({1.5: 1})
    with pytest.raises(ValueError, match="^%s: displacement 0 is not allowed$" % name):
        make({0: F(1, 2), 1: F(1, 2)})
    with pytest.raises(ValueError, match=r"must be nonnegative, got -1"):
        make({1: 2, -1: -1})


def test_offsets_must_be_integers():
    with pytest.raises(ValueError, match="jump displacement must be an integer, got 1.5"):
        RateSpec("half", (1.5,), 0, lambda window, d: 1)
    with pytest.raises(ValueError, match="jump displacement must be an integer, got '1'"):
        custom_table((1,), 0, {("1", "010"): 1})


def test_dep_radius_must_be_a_nonnegative_integer():
    # 1.5 used to be cut to 1: the table's one entry, of 6 sites, was never
    # read, every rate was 0 and the rule read as monotone
    for radius in (1.5, F(1), True, -1):
        message = "^%s$" % re.escape("dep_radius must be an integer >= 0, got %r" % (radius,))
        with pytest.raises(ValueError, match=message):
            custom_table((1,), radius, {(1, "011000"): 1})
        with pytest.raises(ValueError, match=message):
            RateSpec("r", (1,), radius, lambda window, d: 1)
    assert custom_table((1,), 1, {(1, "01100"): 1}).dep_radius == 1


def test_custom_table_lookup():
    table = {(1, format(k, "03b")): F(k, 4) for k in range(8)}
    spec = custom_table((1,), 0, table)
    # window of the jump 0 -> 1 in (1,0,0) is eta(-1..1) = 010
    assert rate(spec, (1, 0, 0), 0, 1) == F(0b010, 4)
    assert rate(spec, (1, 1, 0), 1, 2) == F(0b110, 4)
    assert rate(spec, (1, 0, 1), 0, 2) == 0  # offset not in the table
    assert _largest_rate(spec) == F(7, 4)
    with pytest.raises(ValueError, match="unknown offset"):
        custom_table((1,), 0, {(2, "01010"): 1})
    with pytest.raises(ValueError, match="length"):
        custom_table((1,), 0, {(1, "01"): 1})


def test_factories_refuse_what_is_not_a_model():
    with pytest.raises(ValueError, match=r"^parameter alpha must be finite, got inf$"):
        traffic2(float("inf"), 1)
    with pytest.raises(ValueError, match=r"^parameter delta must be finite, got nan$"):
        gg_symmetrized(1, 1, 1, float("nan"))
    with pytest.raises(ValueError, match=r"^jump offsets must be nonzero and nonempty: \(\)$"):
        RateSpec("none", (), 0, lambda window, d: 1)
    with pytest.raises(ValueError, match="^sep: at least one displacement needs a positive rate$"):
        sep({1: 0})
    with pytest.raises(ValueError, match="^span must be >= 1$"):
        speed_change_decreasing(0)
    with pytest.raises(ValueError, match="^speed_change_increasing: q must have positive support$"):
        speed_change_increasing({1: 0})
    with pytest.raises(ValueError, match=r"^two_star_step: p must sum to 1, got Fraction\(3, 4\)$"):
        two_star_step({1: F(1, 2), -1: F(1, 4)})


def _window_specs():
    specs = list(MONOTONE_ZOO) + [
        ("traffic2 0 2", traffic2(0, 2)),
        ("gg 1 0 1 0", gg_symmetrized(1, 0, 1, 0)),
        ("speed_change_decreasing 3", speed_change_decreasing(3)),
        ("two_star_step over 1, 2", two_star_step({1: F(1, 2), 2: F(1, 2)})),
        ("two_star_step over +-1, +-2", two_star_step({1: F(1, 4), -1: F(1, 4), 2: F(1, 4), -2: F(1, 4)})),
    ]
    for offsets in ((-3, 1, 2), (1,), (-1,), (-2, 5), (-4, -1)):
        for radius in range(3):
            specs.append(("custom %s r=%d" % (offsets, radius), custom_table(offsets, radius, {})))
    return specs


WINDOW_SPECS = _window_specs()


@pytest.mark.parametrize("label,spec", WINDOW_SPECS, ids=[label for label, _ in WINDOW_SPECS])
def test_windows_are_the_hulls_of_the_rate_windows(label, spec):
    # each window by brute force, from the sites that the rate of each jump
    # reads: dep_radius + |e| sites on either side of its departure site
    def read(x, e):
        w = spec.dep_radius + abs(e)
        return set(range(x - w, x + w + 1))

    def hull(sites):
        return min(sites), max(sites)

    out_of_0 = set().union(*(read(0, e) for e in spec.jump_offsets))
    into_0 = set().union(*(read(-e, e) for e in spec.jump_offsets))
    for d in spec.jump_offsets:
        into_d = set().union(*(read(d - e, e) for e in spec.jump_offsets))
        assert spec._spans[d] == hull(out_of_0 | into_d)
    assert spec._span == hull(set().union(*(range(lo, hi + 1) for lo, hi in spec._spans.values())))
    assert spec.min_ring_size == len(out_of_0)
    for extra in range(3):
        for kind, sites in (("departure", out_of_0), ("arrival", into_0)):
            lo, hi = hull(sites)
            assert _sites(spec, kind, extra) == range(lo - extra, hi + extra + 1)
