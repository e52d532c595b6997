import itertools
from fractions import Fraction as F

import numpy as np
import pytest

from couplex import coupled_generator, gg_symmetrized, is_monotone, traffic2
from couplex.coupling import coupling_table
from couplex.golden import (
    CRITERIA,
    MONOTONE_ZOO,
    gg_expected_attractive,
    gg_reference_attractive,
    gg_reference_increasing,
    ordered_pairs,
    run_criterion,
    run_suite,
    suite_ids,
    table_mismatches,
    traffic2_attractive_transitions,
    traffic2_reference_table,
)


def test_suite_registry():
    ids = suite_ids()
    assert ids == tuple(CRITERIA)
    assert len(ids) == 12
    assert "traffic2-boundary" in ids and "golden-tables" in ids


def _read_every_window(spec):
    """Oracle for a valid spec: read every window of every offset;
    ``evaluate`` raises on a negative or non-finite rate."""
    for d in spec.jump_offsets:
        for bits in itertools.product((0, 1), repeat=2 * (spec.dep_radius + abs(d)) + 1):
            spec.evaluate(bits, d)


def test_zoo_instances_are_valid_and_monotone():
    assert len(MONOTONE_ZOO) == 11
    for label, spec in MONOTONE_ZOO:
        _read_every_window(spec)
        assert is_monotone(spec).monotone, label


def test_ordered_pairs_enumeration():
    pairs = list(ordered_pairs(3))
    # 3^n comparable ordered pairs, counted in both orders, minus the
    # double-counted diagonal: 2 * 27 - 8
    assert len(pairs) == 46
    assert len(set(pairs)) == 46
    from couplex import is_ordered

    assert all(is_ordered(a, b) for a, b in pairs)


def test_table_mismatches_handles_heterogeneous_keys():
    got = {(0, 1, 0, 1): 1}
    want = {(0, 1, 0, 1): 2, ((0, 1), None): 3}
    diffs = table_mismatches(want, got)
    assert len(diffs) == 2


def test_traffic2_reference_matches_engine():
    spec = traffic2(F(7, 10), F(1, 5))
    for xi, zeta in ordered_pairs(6):
        table = coupling_table(spec, xi, zeta, "increasing")
        expected = traffic2_reference_table(F(7, 10), F(1, 5), xi, zeta)
        got = table.coupled
        assert table_mismatches(expected, got) == [], (xi, zeta)


def test_traffic2_reference_boundary_params():
    # |alpha - beta| = 1 sits exactly on the closed-form boundary
    for alpha, beta in ((1, 2), (2, 1), (1, 0)):
        spec = traffic2(alpha, beta)
        for xi, zeta in list(ordered_pairs(5))[:150]:
            table = coupling_table(spec, xi, zeta, "increasing")
            expected = traffic2_reference_table(alpha, beta, xi, zeta)
            got = table.coupled
            assert table_mismatches(expected, got) == []


def test_traffic2_attractive_generator_matches_engine():
    size = 5
    for alpha, beta in ((F(1, 2), F(1, 2)), (F(7, 10), F(1, 5)), (1, 2)):
        spec = traffic2(alpha, beta)
        gen = coupled_generator(spec, size, "attractive")
        index = {s: i for i, s in enumerate(gen.states)}
        for i, pair in enumerate(gen.states):
            xi, zeta = pair
            expected = traffic2_attractive_transitions(alpha, beta, xi, zeta)
            row = {}
            for j, rate_value in gen.rows[i].items():
                row[j] = rate_value
            # reconstruct expected row through the same state indexing
            want = {}
            from couplex.lattice import apply_jump

            for (j1, j2), g in expected.items():
                new_xi = apply_jump(xi, *j1) if j1 else xi
                new_zeta = apply_jump(zeta, *j2) if j2 else zeta
                key = index[(new_xi, new_zeta)]
                want[key] = want.get(key, 0) + g
            assert row == want, (xi, zeta)


def test_gg_increasing_reference_matches_engine():
    params = (2, 1, 1, 2)
    spec = gg_symmetrized(*params)
    for xi, zeta in ordered_pairs(6):
        table = coupling_table(spec, xi, zeta, "increasing")
        expected = gg_reference_increasing(params, xi, zeta)
        got = table.coupled
        assert table_mismatches(expected, got, tol=1e-12) == [], (xi, zeta)


def test_gg_attractive_reference_frozen_example():
    params = (F(3, 2), F(3, 4), 1, F(5, 4))
    spec = gg_symmetrized(*params)
    xi = (0, 0, 0, 0, 0, 1, 0, 0, 0, 0)
    zeta = (0, 0, 0, 1, 0, 1, 1, 0, 0, 0)
    table = coupling_table(spec, xi, zeta, "attractive")
    engine = table.coupled

    def active_only(entries):
        out = {}
        for key, value in entries.items():
            x1, y1, x2, y2 = key
            if xi[x1] == 1 and xi[y1] == 0 and zeta[x2] == 1 and zeta[y2] == 0:
                out[key] = value
        return out

    good = active_only(gg_reference_attractive(params, xi, zeta, corrected=True))
    assert table_mismatches(good, engine, tol=1e-12) == []
    draft = active_only(gg_reference_attractive(params, xi, zeta, corrected=False))
    diffs = table_mismatches(draft, engine, tol=1e-12)
    assert diffs, "draft transcription must diverge on this pair"
    assert any(key == (5, 6, 5, 4) for key, _, _ in diffs)


def test_gg_expected_attractive_region():
    # duality: swapping the two crowding parameters cannot change the verdict
    rng = np.random.default_rng(2024)
    for _ in range(40):
        a, b, c, d = (F(int(rng.integers(0, 9)), 4) for _ in range(4))
        assert gg_expected_attractive(a, b, c, d) == gg_expected_attractive(a, b, d, c)
    # frozen boundary points
    assert gg_expected_attractive(2, 1, 1, 2)
    assert gg_expected_attractive(2, 1, 2, 1)
    assert not gg_expected_attractive(F(3, 2), F(1, 2), F(3, 2), 1)
    assert not gg_expected_attractive(F(3, 2), F(1, 2), 1, F(3, 2))
    assert not gg_expected_attractive(1, 0, 1, 0)
    assert not gg_expected_attractive(3, 1, 1, 2)  # alpha > beta + min


def test_gg_expected_attractive_agrees_with_checker():
    rng = np.random.default_rng(777)
    for _ in range(25):
        params = tuple(F(int(rng.integers(0, 7)), 2) for _ in range(4))
        want = gg_expected_attractive(*params)
        got = is_monotone(gg_symmetrized(*params)).monotone
        assert want == got, params


def test_run_criterion_timing_and_detail():
    result = run_criterion("speed-models")
    assert result.ident == "speed-models"
    assert result.passed
    assert result.seconds >= 0
    assert result.detail


def test_run_criterion_unknown_id():
    with pytest.raises(ValueError, match="unknown criterion"):
        run_criterion("bogus")
    with pytest.raises(ValueError, match="unknown criterion"):
        run_suite(["bogus"])


def test_run_suite_subset_order():
    results = run_suite(["marginal-consistency", "speed-models"])
    assert [r.ident for r in results] == ["marginal-consistency", "speed-models"]
    assert all(r.passed for r in results)
