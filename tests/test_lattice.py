import pytest
from hypothesis import given
from hypothesis import strategies as st

from couplex import (
    CoupledState,
    apply_jump,
    discrepancy_count,
    format_configuration,
    is_ordered,
    join,
    leq,
    parse_configuration,
    ring_configs,
)
from couplex.lattice import is_active, signed_offset

bits = st.lists(st.integers(0, 1), min_size=1, max_size=10).map(tuple)
pairs = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple),
        st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple),
    )
)


@given(bits)
def test_parse_format_round_trip(eta):
    assert parse_configuration(format_configuration(eta)) == eta


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_configuration("10x0")
    with pytest.raises(ValueError):
        parse_configuration("")


def test_apply_jump_exchanges_and_wraps():
    eta = (1, 0, 0, 1)
    assert apply_jump(eta, 0, 1) == (0, 1, 0, 1)
    assert apply_jump(eta, 3, 0) == (1, 0, 0, 1)  # both ends swap 1<->1
    assert apply_jump((1, 0, 0, 0), 0, 3) == (0, 0, 0, 1)
    with pytest.raises(IndexError):
        apply_jump(eta, 0, 4)
    with pytest.raises(ValueError):
        apply_jump(eta, 2, 2)


@given(bits, st.data())
def test_apply_jump_is_involution(eta, data):
    x = data.draw(st.integers(0, len(eta) - 1))
    y = data.draw(st.integers(0, len(eta) - 1))
    if x == y:
        with pytest.raises(ValueError):
            apply_jump(eta, x, y)
    else:
        assert apply_jump(apply_jump(eta, x, y), x, y) == eta


def test_order_basics():
    assert leq((0, 1, 0), (0, 1, 1))
    assert not leq((1, 0, 0), (0, 1, 1))
    assert is_ordered((0, 1, 1), (0, 1, 0))  # either direction counts
    assert not is_ordered((1, 0), (0, 1))
    assert discrepancy_count((1, 0, 1), (0, 0, 1)) == 1


@given(pairs)
def test_join_is_least_upper_bound(pair):
    xi, zeta = pair
    top = join(xi, zeta)
    assert leq(xi, top) and leq(zeta, top)
    assert all(t == max(a, b) for t, a, b in zip(top, xi, zeta))


@given(pairs)
def test_discrepancy_count_symmetric(pair):
    xi, zeta = pair
    assert discrepancy_count(xi, zeta) == discrepancy_count(zeta, xi)
    assert discrepancy_count(xi, xi) == 0


def test_coupled_state_properties():
    pair = CoupledState((1, 0, 1), (1, 1, 1))
    assert pair.ordered and pair.discrepancies == 1
    assert not CoupledState((1, 0), (0, 1)).ordered


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        leq((1, 0), (1, 0, 0))


def test_signed_offset_minimal_displacement():
    assert signed_offset(0, 5, 6) == -1
    assert signed_offset(0, 3, 6) == 3  # tie resolved to the positive side
    assert signed_offset(4, 0, 5) == 1
    assert signed_offset(0, 4, 5) == -1


def test_ring_configs_enumeration():
    everything = list(ring_configs(3))
    assert len(everything) == 8 and len(set(everything)) == 8
    twos = list(ring_configs(4, 2))
    assert len(twos) == 6 and all(sum(c) == 2 for c in twos)


def test_is_active_needs_occupied_source_and_empty_target():
    eta = (1, 0, 1)
    assert is_active(eta, 0, 1)
    assert is_active(eta, 2, 1)
    assert not is_active(eta, 0, 2)
    assert not is_active(eta, 1, 0)
