"""Unit tests for product-formula schedule construction."""

import math

import pytest

from trotterlab.errors import ResourceCapError, UnsupportedOrderError, ValidationError
from trotterlab.suzuki import (
    MAX_EXPONENTIALS,
    Schedule,
    build_schedule,
    q_coefficient,
    upsilon,
)


def test_q2_value():
    assert q_coefficient(2) == pytest.approx(0.414490771794376, abs=1e-12)
    assert q_coefficient(2) == pytest.approx(1.0 / (4.0 - 4.0 ** (1.0 / 3.0)), rel=1e-15)


def test_upsilon_table():
    assert [upsilon(l) for l in (1, 2, 4, 6)] == [1, 2, 10, 50]


def test_upsilon_rejects_odd_orders():
    for bad in (3, 5, 7):
        with pytest.raises(UnsupportedOrderError):
            upsilon(bad)
    with pytest.raises(UnsupportedOrderError):
        build_schedule(2, 3, 0.1)


def test_first_order_sweep():
    s = build_schedule(3, 1, 0.5)
    assert s.steps == ((0, 0.5), (1, 0.5), (2, 0.5))
    assert s.upsilon == 1
    assert s.J == 3
    assert s.merged_count == 3


def test_second_order_two_terms_merged():
    s = build_schedule(2, 2, 1.0)
    # applied first: last term, half step; middle pair merged to a full step
    assert s.steps == ((1, 0.5), (0, 1.0), (1, 0.5))
    assert s.J == 4
    assert s.merged_count == 3


def test_second_order_unmerged():
    s = build_schedule(2, 2, 1.0, merge=False)
    assert s.steps == ((1, 0.5), (0, 0.5), (0, 0.5), (1, 0.5))


def test_gamma_one_collapses():
    s = build_schedule(1, 4, 1.0)
    assert s.merged_count == 1
    idx, coeff = s.steps[0]
    assert idx == 0
    assert coeff == pytest.approx(1.0, rel=1e-12)


def test_gamma_validation():
    with pytest.raises(ValidationError):
        build_schedule(0, 1, 0.1)


@pytest.mark.parametrize("order", [1, 2, 4, 6])
@pytest.mark.parametrize("gamma", [1, 2, 3, 5])
def test_per_term_sums_equal_tau(order, gamma):
    tau = 0.37
    s = build_schedule(gamma, order, tau)
    sums = s.per_term_sums()
    assert set(sums) == set(range(gamma))
    for total in sums.values():
        assert total == pytest.approx(tau, rel=1e-12)


@pytest.mark.parametrize("order", [2, 4, 6])
def test_palindromic(order):
    s = build_schedule(4, order, 0.2)
    steps = list(s.steps)
    rev = list(reversed(steps))
    assert all(
        a[0] == b[0] and a[1] == pytest.approx(b[1], rel=1e-12)
        for a, b in zip(steps, rev)
    )


@pytest.mark.parametrize("order,gamma", [(2, 3), (4, 3), (6, 2), (4, 5)])
def test_merged_step_count_formula(order, gamma):
    s = build_schedule(gamma, order, 0.1)
    ups = upsilon(order)
    assert s.J == ups * gamma
    expected = gamma if order == 1 else ups * gamma - (ups - 1)
    assert s.merged_count == expected


def test_fourth_order_block_structure():
    """The 5-block recursion: outer blocks carry q2*tau, middle (1-4 q2)*tau."""
    gamma = 2
    tau = 1.0
    q2 = q_coefficient(2)
    s = build_schedule(gamma, 4, tau, merge=False)
    assert len(s.steps) == 20  # 5 blocks x 2 Gamma
    # first S2 block at scaled time q2*tau
    assert s.steps[0] == (1, pytest.approx(q2 / 2))
    # middle block sees (1 - 4 q2) * tau
    middle = s.steps[8:12]
    assert [i for i, _ in middle] == [1, 0, 0, 1]
    for _, c in middle:
        assert c == pytest.approx((1 - 4 * q2) / 2, rel=1e-12)


def test_schedule_is_immutable_record():
    s = build_schedule(2, 1, 0.1)
    assert isinstance(s, Schedule)
    with pytest.raises(AttributeError):
        s.tau = 0.5 # type: ignore[misc]


def test_schedule_at_the_exponential_cap_is_built():
    sched = build_schedule(MAX_EXPONENTIALS // 10, 4, 0.1)
    assert sched.J == MAX_EXPONENTIALS // 10 * 10 <= MAX_EXPONENTIALS


@pytest.mark.parametrize(
    "gamma, order",
    [(MAX_EXPONENTIALS + 1, 1), (MAX_EXPONENTIALS // 2 + 1, 2), (3, 40), (3, 10**30), (10**30, 1)],
)
def test_schedule_above_the_exponential_cap_is_refused_before_building(gamma, order):
    with pytest.raises(ResourceCapError, match="exponentials"):
        build_schedule(gamma, order, 0.1)


def test_odd_order_is_unsupported_however_large():
    with pytest.raises(UnsupportedOrderError):
        build_schedule(3, 10**30 + 1, 0.1)
