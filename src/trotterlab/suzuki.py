"""First-order and recursive higher-order Suzuki product-formula schedules.

A schedule is an ordered list of (term index, coefficient) pairs describing

    S(tau) = ... exp(i a_2 H_{g(2)}) exp(i a_1 H_{g(1)}),

with steps[0] the first-applied (rightmost) exponential and every a_j carrying
its factor of tau.  The first-order sweep applies term 0 first; the
second-order segment sweeps terms in descending order with half steps and
then back up, so the last-ingested term is the outermost factor:

    S_2(tau) = e^{i(tau/2)H_G} ... e^{i(tau/2)H_1} e^{i(tau/2)H_1} ... e^{i(tau/2)H_G}.

Higher even orders follow the five-block recursion

    S_{2p}(tau) = S_{2p-2}(q_p tau)^2  S_{2p-2}((1-4q_p) tau)  S_{2p-2}(q_p tau)^2,
    q_p = 1 / (4 - 4^{1/(2p-1)}),

with stage count Upsilon = 2 * 5^{l/2-1} for even order l (and 1 for l = 1).
Adjacent exponentials of the same term are merged by default; merging changes
neither the unitary nor the nominal exponential count J = Upsilon * Gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResourceCapError, UnsupportedOrderError, ValidationError

Step = tuple[int, float]

# A step takes about 1 KiB on its way to the CLI's JSON text, so a schedule
# holds at most 2**19 nominal exponentials (about 0.5 GiB).
MAX_EXPONENTIALS = 1 << 19


def q_coefficient(p: int) -> float:
    """The Suzuki recursion coefficient q_p = 1/(4 - 4^{1/(2p-1)})."""
    if p < 2:
        raise ValueError("q_p is defined for recursion levels p >= 2")
    return 1.0 / (4.0 - 4.0 ** (1.0 / (2 * p - 1)))


def upsilon(order: int) -> int:
    """Stage count: 1 for order 1, 2 * 5^{order/2 - 1} for even orders."""
    if order == 1:
        return 1
    if order >= 2 and order % 2 == 0:
        return 2 * 5 ** (order // 2 - 1)
    raise UnsupportedOrderError(
        f"product-formula order must be 1 or even, got {order}"
    )


@dataclass(frozen=True)
class Schedule:
    """An ordered exponential sequence realizing one segment S_order(tau)."""

    order: int
    tau: float
    steps: tuple[Step, ...]
    upsilon: int
    gamma: int
    J: int  # nominal exponential count Upsilon * Gamma (before merging)

    @property
    def merged_count(self) -> int:
        """Exponential count actually emitted (after adjacent-term merging)."""
        return len(self.steps)

    def per_term_sums(self) -> dict[int, float]:
        sums: dict[int, float] = {}
        for idx, coeff in self.steps:
            sums[idx] = sums.get(idx, 0.0) + coeff
        return sums


def _segment(gamma: int, order: int, tau: float) -> list[Step]:
    if order == 1:
        return [(i, tau) for i in range(gamma)]
    if order == 2:
        down = [(i, tau / 2.0) for i in reversed(range(gamma))]
        up = [(i, tau / 2.0) for i in range(gamma)]
        return down + up
    p = order // 2
    q = q_coefficient(p)
    outer = _segment(gamma, order - 2, q * tau)
    middle = _segment(gamma, order - 2, (1.0 - 4.0 * q) * tau)
    return outer + outer + middle + outer + outer


def _merge_adjacent(steps: list[Step]) -> list[Step]:
    merged: list[Step] = []
    for idx, coeff in steps:
        if merged and merged[-1][0] == idx:
            merged[-1] = (idx, merged[-1][1] + coeff)
        else:
            merged.append((idx, coeff))
    return merged


def build_schedule(gamma: int, order: int, tau: float, merge: bool = True) -> Schedule:
    """Construct the order-`order` schedule over `gamma` terms for one segment.

    Raises UnsupportedOrderError for odd orders above 1, and ResourceCapError
    for more than ``MAX_EXPONENTIALS`` nominal exponentials.
    """
    if gamma < 1:
        raise ValidationError(f"need at least one term, got gamma={gamma}")
    # 5**levels > 2**levels, so an order this high is refused before its
    # stage count is computed
    huge = order % 2 == 0 and order // 2 - 1 > MAX_EXPONENTIALS.bit_length()
    ups = None if huge else upsilon(order)  # validates the order
    if huge or ups * gamma > MAX_EXPONENTIALS:
        raise ResourceCapError(
            f"an order-{order} schedule of {gamma} terms has more than "
            f"{MAX_EXPONENTIALS} exponentials"
        )
    steps = _segment(gamma, order, float(tau))
    if merge:
        steps = _merge_adjacent(steps)
    return Schedule(
        order=order,
        tau=float(tau),
        steps=tuple(steps),
        upsilon=ups,
        gamma=gamma,
        J=ups * gamma,
    )
