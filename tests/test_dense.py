"""Unit tests for the dense-matrix engine."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trotterlab import dense
from trotterlab.dense import (
    ParticleSector,
    WeightedNormSpec,
    apply_schedule,
    basis_indices,
    errors_for_states,
    evolve,
    haar_states,
    schatten_norm,
    sector_norm,
    subset_component,
    to_matrix,
    trotter_error_op,
    weighted_norm,
)
from trotterlab.errors import ResourceCapError, ValidationError
from trotterlab.models import KLocalGaussianModel, chain_heisenberg, power_law, zxyz
from trotterlab.pauli import PauliHamiltonian, PauliString, PauliSum, PauliTerm, jordan_wigner, FermionTerm, FermionHamiltonian
from trotterlab.suzuki import build_schedule

SITE_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_oracle(string: PauliString) -> np.ndarray:
    """i^phase times the Kronecker chain of the label, site 0 leftmost."""
    out = np.array([[1.0 + 0.0j]])
    for ch in string.label():
        out = np.kron(out, SITE_MATS[ch])
    return (1j**string.phase) * out


def is_unitary(a: np.ndarray, tol: float = 1e-10) -> bool:
    return bool(np.allclose(a @ a.conj().T, np.eye(a.shape[0]), atol=tol))


def test_to_matrix_examples():
    np.testing.assert_allclose(
        to_matrix(PauliString.from_label("Z")), np.diag([1, -1]), atol=0
    )
    np.testing.assert_allclose(
        to_matrix(PauliString.from_label("ZZ")), np.diag([1, -1, -1, 1]), atol=0
    )


def test_to_matrix_sum_linearity():
    rng = np.random.default_rng(0)
    labels = ["XY", "ZI", "YY", "IX"]
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    s = PauliSum(2, list(zip(labels, coeffs)))
    expected = sum(
        c * to_matrix(PauliString.from_label(l)) for l, c in zip(labels, coeffs)
    )
    np.testing.assert_allclose(to_matrix(s), expected, atol=1e-14)


def test_cap_blocks_oversized_requests():
    # to_matrix's estimate is 2.25 matrices: 2.25 GiB at n = 13, refused before
    # anything is allocated, and 576 MiB at n = 12, within the 1 GiB budget.
    big = PauliHamiltonian.from_labels(13, [("I" * 12 + "Z", 1.0)])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="dense work on 13 qubits needs more than"):
            to_matrix(big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # A diagonal string writes one entry per row of the zeroed 256 MiB result
    # (about 290 MiB resident at peak, for 0.2 s).
    ok = PauliHamiltonian.from_labels(12, [("I" * 11 + "Z", 1.0)])
    assert to_matrix(ok).shape == (4096, 4096)


def test_sector_norm_at_twelve_sites_is_refused_before_its_matrix():
    # Its own estimate, 4.5 matrices of 256 MiB, is past the budget; checked
    # only by to_matrix's 2.25, it went on to take about 1.05 GiB.
    h = PauliHamiltonian.from_labels(12, [("I" * 11 + "Z", 1.0)])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="dense work on 12 qubits needs more than"):
            sector_norm(h, 6, 4.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_evolve_diagonal_example():
    h = PauliHamiltonian.from_labels(1, [("Z", 1.0)])
    u = evolve(h, 0.7)
    np.testing.assert_allclose(u, np.diag([np.exp(0.7j), np.exp(-0.7j)]), atol=1e-12)


def test_evolve_t_zero_and_self_inverse():
    h = PauliHamiltonian.from_labels(2, [("XX", 0.3), ("ZI", -0.8)])
    np.testing.assert_allclose(evolve(h, 0.0), np.eye(4), atol=1e-12)
    u = evolve(h, 1.3)
    np.testing.assert_allclose(u @ evolve(h, -1.3), np.eye(4), atol=1e-10)
    assert is_unitary(u)


@pytest.mark.parametrize(
    "h",
    [np.eye(2), PauliSum(1, [(PauliString.from_label("X"), 1.0)]), PauliString.from_label("Z")],
    ids=["ndarray", "pauli-sum", "pauli-string"],
)
def test_evolve_takes_only_a_pauli_hamiltonian(h):
    with pytest.raises(TypeError, match="cannot evolve"):
        evolve(h, 1.0)


def test_apply_schedule_two_factor_example():
    h = PauliHamiltonian.from_labels(1, [("X", 1.0), ("Z", 1.0)])
    tau = 0.31
    u = apply_schedule(h, build_schedule(2, 1, tau))
    x = to_matrix(PauliString.from_label("X"))
    z = to_matrix(PauliString.from_label("Z"))
    expected = scipy.linalg.expm(1j * tau * z) @ scipy.linalg.expm(1j * tau * x)
    np.testing.assert_allclose(u, expected, atol=1e-12)


def test_apply_schedule_commuting_equals_evolve():
    h = PauliHamiltonian.from_labels(3, [("ZII", 0.4), ("IZI", -1.1), ("ZZI", 0.2)])
    for order in (1, 2, 4):
        u = apply_schedule(h, build_schedule(h.gamma, order, 0.9))
        np.testing.assert_allclose(u, evolve(h, 0.9), atol=1e-10)


def test_apply_schedule_single_term_equals_evolve():
    h = PauliHamiltonian.from_labels(2, [("XY", 0.77)])
    u = apply_schedule(h, build_schedule(1, 2, 0.5))
    np.testing.assert_allclose(u, evolve(h, 0.5), atol=1e-12)


def pauli_labels(n):
    return st.one_of(
        st.just("I" * n),
        st.just("Y" * n),
        st.text(alphabet="IXYYZ", min_size=n, max_size=n),
    )


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_pauli_engine_matches_kron_oracle(n, data):
    labels = data.draw(st.lists(pauli_labels(n), min_size=1, max_size=5))
    phases = data.draw(st.lists(st.integers(0, 3), min_size=len(labels), max_size=len(labels)))
    coeffs = data.draw(
        st.lists(st.floats(-2.0, 2.0), min_size=len(labels), max_size=len(labels))
    )
    strings = [PauliString.from_label(lab, ph) for lab, ph in zip(labels, phases)]
    for string, c in zip(strings, coeffs):
        oracle = kron_oracle(string)
        np.testing.assert_allclose(to_matrix(string), oracle, rtol=0, atol=1e-12)
        term = PauliTerm(string, complex(c, -c / 3))
        np.testing.assert_allclose(
            to_matrix(term), complex(c, -c / 3) * oracle, rtol=0, atol=1e-12
        )
    terms = [PauliTerm(s, c) for s, c in zip(strings, coeffs)]
    expected = sum((c * kron_oracle(s) for s, c in zip(strings, coeffs)), np.zeros((2**n, 2**n)))
    np.testing.assert_allclose(to_matrix(PauliSum(n, terms)), expected, rtol=0, atol=1e-12)

    h = PauliHamiltonian.from_labels(n, zip(labels, coeffs))
    if h.gamma == 0:
        return
    order = data.draw(st.sampled_from((1, 2, 4)))
    tau = data.draw(st.floats(-1.5, 1.5))
    schedule = build_schedule(h.gamma, order, tau)
    product = np.eye(2**n, dtype=complex)
    for idx, a in schedule.steps:
        angle = a * h.terms[idx].coeff.real
        step = math.cos(angle) * np.eye(2**n) + 1j * math.sin(angle) * kron_oracle(
            h.terms[idx].string
        )
        product = step @ product
    np.testing.assert_allclose(apply_schedule(h, schedule), product, rtol=0, atol=1e-12)


def test_apply_schedule_memory_stays_within_two_and_a_quarter_matrices():
    # A dense matrix per term (27 here, 16 MiB each) would exceed this; the
    # 12-site chain would then need about 8 GiB.  The half-size block stack
    # and the assembled matrix measure 24.7 MiB.
    h = chain_heisenberg(10)
    schedule = build_schedule(h.gamma, 2, 0.1)
    tracemalloc.start()
    try:
        apply_schedule(h, schedule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 16 * 2**20


def test_apply_schedule_index_validation():
    h = PauliHamiltonian.from_labels(1, [("X", 1.0)])
    sched = build_schedule(2, 1, 0.1)
    with pytest.raises(ValidationError):
        apply_schedule(h, sched)


def _scipy_schur_power(u, r):
    """The Schur power as it was written on scipy.linalg.schur, kept as the
    oracle."""
    t, q = scipy.linalg.schur(u, output="complex")
    powered = np.exp(1j * r * np.angle(np.diag(t)))
    scaled = q * powered
    return scaled @ np.conjugate(q, out=q).T


# 65, 100, 130 and 257 span several 64-column panels and end in a partial one.
@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 13, 16, 31, 32, 33, 47, 64, 65, 100, 130, 257])
@pytest.mark.parametrize("r", [4097, 11436, 10**6 + 1])
def test_schur_power_is_bit_identical_to_scipy_schur(dim, r):
    rng = np.random.default_rng(dim * 7919 + r)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    expected = _scipy_schur_power(q.copy(), r)
    got = dense._schur_power(np.asfortranarray(q), r)
    assert np.array_equal(got, expected)
    assert got.flags.c_contiguous


@pytest.mark.parametrize("dim", [128, 200])
def test_schur_power_in_eighth_width_panels_is_bit_identical_to_scipy_schur(dim, monkeypatch):
    # Large matrices take panels of dim/8 columns (128 at dim 1024).  With a
    # minimum panel of 8, dims 128 and 200 take panels of 16 and 24 columns.
    monkeypatch.setattr(dense, "_PANEL", 8)
    rng = np.random.default_rng(dim)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    expected = _scipy_schur_power(q.copy(), 11436)
    got = dense._schur_power(np.asfortranarray(q), 11436)
    assert np.array_equal(got, expected) and got.flags.c_contiguous


def test_schur_power_of_the_chain_segment_is_bit_identical_to_scipy_schur():
    h = chain_heisenberg(8)
    r = 11436
    segment = apply_schedule(h, build_schedule(h.gamma, 2, 1.0 / r))
    expected = _scipy_schur_power(segment.copy(), r)
    assert np.array_equal(dense._schur_power(np.asfortranarray(segment), r), expected)
    # The consuming path: the segment assembled in Fortran order, overwritten.
    fortran = dense._schedule_product(h, build_schedule(h.gamma, 2, 1.0 / r), "F")
    assert fortran.flags.f_contiguous and np.array_equal(fortran, segment)
    assert np.array_equal(dense._schur_power(fortran, r), expected)


def test_schur_power_rejects_non_finite_input():
    u = np.eye(4, dtype=complex)
    u[1, 2] = np.nan
    with pytest.raises(ValueError):
        dense._schur_power(np.asfortranarray(u), 5000)


def test_schur_power_of_an_empty_matrix():
    assert dense._schur_power(np.zeros((0, 0), dtype=complex, order="F"), 5000).shape == (0, 0)


def test_schur_power_large_r_stays_unitary():
    rng = np.random.default_rng(6)
    z = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    q, _ = np.linalg.qr(z)
    u = dense._schur_power(np.asfortranarray(q), 10**6)
    assert is_unitary(u, tol=1e-8)


@pytest.mark.parametrize(
    "h",
    [
        chain_heisenberg(10),
        KLocalGaussianModel(n=8, k=2, seed=3).sample(np.random.SeedSequence(1)),
        zxyz(3),
    ],
    ids=["chain-two-real-blocks", "syk-one-complex-block", "zxyz-64-blocks"],
)
def test_eigh_is_bit_identical_to_numpy(h):
    act = dense._actions(h)
    w, v = dense._eigh(act)
    w0, v0 = np.linalg.eigh(dense._blocks(act).swapaxes(1, 2))
    assert np.array_equal(w, w0) and np.array_equal(v, v0)
    assert v.flags.c_contiguous


@pytest.mark.parametrize("k", [1, 5, 64, 130])
def test_transpose_in_place(k):
    rng = np.random.default_rng(k)
    a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    expected = a.T.copy()
    dense._transpose_in_place(a)
    assert np.array_equal(a, expected)


_RESIDENT_PEAK = """
import numpy as np
from trotterlab.dense import evolve, trotter_error_op
from trotterlab.models import KLocalGaussianModel, chain_heisenberg

def status(key):
    with open("/proc/self/status") as lines:
        return next(int(line.split()[1]) for line in lines if line.startswith(key))

h = KLocalGaussianModel(n=10, k=2, seed=3).sample(np.random.SeedSequence(1))
trotter_error_op(chain_heisenberg(4), 1.0, 1, 2)  # loads LAPACK and BLAS
base = status("VmRSS:")
{call}
print(status("VmHWM:") - base)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmRSS")
@pytest.mark.parametrize(
    "call, estimate",
    [
        ("evolve(h, 1.0)", 3.5),
        ("trotter_error_op(h, 1.0, 1, 2)", 3.75),
        ("trotter_error_op(h, 1.0, 4097, 2)", 3.75),
    ],
    ids=["evolve", "trotter_error_op", "trotter_error_op-schur"],
)
def test_resident_peak_on_one_complex_block_is_within_the_estimate(call, estimate):
    # tracemalloc sees numpy's arrays only.  np.linalg.eigh copied the block
    # and took LAPACK's workspace outside them, three matrices on a 10-site
    # SYK draw: 5.2 and 6.2 matrices resident against 3.4 and 3.6 traced.
    # VmHWM, not ru_maxrss, which keeps the forked parent's peak past exec.
    root = os.path.dirname(os.path.dirname(os.path.abspath(dense.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", _RESIDENT_PEAK.format(call=call)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert int(proc.stdout) * 1024 <= estimate * 16 * 4**10


def test_trotter_error_commuting_is_zero():
    h = PauliHamiltonian.from_labels(2, [("ZI", 1.0), ("IZ", 0.5)])
    e = trotter_error_op(h, 2.0, 3, 1)
    np.testing.assert_allclose(e, 0, atol=1e-12)


def test_trotter_error_needs_a_segment():
    h = PauliHamiltonian.from_labels(1, [("X", 1.0)])
    with pytest.raises(ValidationError, match=r"need at least one segment \(r >= 1\)"):
        trotter_error_op(h, 1.0, 0, 1)


def test_trotter_error_leading_term_magnitude():
    h = PauliHamiltonian.from_labels(1, [("X", 1.0), ("Z", 1.0)])
    tau = 1e-3
    e = trotter_error_op(h, tau, 1, 1)
    # leading error operator is -i Y tau^2, spectral norm tau^2
    assert schatten_norm(e, math.inf) == pytest.approx(tau**2, rel=5e-3)


def test_trotter_error_decreases_with_r():
    h = PauliHamiltonian.from_labels(2, [("XI", 0.9), ("ZZ", -0.4), ("IY", 0.3)])
    norms = [
        schatten_norm(trotter_error_op(h, 0.4, r, 2), math.inf) for r in (1, 2, 4, 8)
    ]
    assert norms[0] > 0
    assert all(a > b for a, b in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# Coset blocks
# ---------------------------------------------------------------------------


@st.composite
def block_hamiltonians(draw, max_n=6):
    """Hamiltonians of the four block shapes: diagonal-only (dim blocks),
    chain-like nearest-neighbour XX or YY, maybe with ZZ and Z terms (two
    parity blocks), full-rank (an
    X or Y on every site: one block) and complex ones with odd-Y terms."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    kind = draw(st.sampled_from(["diagonal", "chain", "full-rank", "odd-y"]))
    coeff = st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3)
    labels = []
    if kind == "diagonal":
        labels = draw(st.lists(st.text(alphabet="IZ", min_size=n, max_size=n), min_size=1, max_size=6))
    elif kind == "chain":
        for s in range(n - 1):
            letters = draw(st.sampled_from("XY")) + draw(st.sampled_from(["", "Z", "YZ", "XZ"]))
            labels += ["I" * s + letter * 2 + "I" * (n - s - 2) for letter in letters]
        labels += draw(st.lists(st.text(alphabet="IZ", min_size=n, max_size=n), max_size=2))
    elif kind == "full-rank":
        labels = ["I" * s + draw(st.sampled_from("XY")) + "I" * (n - s - 1) for s in range(n)]
        labels += draw(st.lists(st.text(alphabet="IXYZ", min_size=n, max_size=n), max_size=4))
    else:
        labels = ["I" * s + "Y" + "I" * (n - s - 1) for s in draw(st.sets(st.integers(0, n - 1), min_size=1))]
        labels += draw(st.lists(st.text(alphabet="IXYZ", min_size=n, max_size=n), max_size=4))
    labels = draw(st.permutations(labels))
    h = PauliHamiltonian.from_labels(n, [(label, draw(coeff)) for label in labels])
    assume(h.gamma > 0)
    if kind == "chain":
        # A link's XX drawn twice with opposite coefficients merges away, and
        # the link with it: the Hamiltonian is then no longer a chain.
        assume({3 << s for s in range(n - 1)} <= {t.string.x_bits for t in h.terms})
    return kind, h


def _index_x(string: PauliString) -> int:
    """The basis-index mask flipped by a string (site s is index bit n-1-s)."""
    return sum(1 << (string.n - 1 - s) for s in range(string.n) if string.x_bits >> s & 1)


@given(block_hamiltonians())
@settings(max_examples=80, deadline=None)
def test_cosets_partition_the_basis_into_invariant_blocks(case):
    kind, h = case
    act = dense._actions(h)
    n, dim = h.n, 2**h.n
    blocks, k = act.index.shape
    assert sorted(act.index.ravel().tolist()) == list(range(dim))
    # The span of the x-masks, by closure; its size is 2**rank.
    span = {0}
    for term in h.terms:
        span |= {v ^ _index_x(term.string) for v in span}
    assert k == len(span) and blocks * k == dim
    assert {"diagonal": k == 1, "chain": blocks == 2, "full-rank": blocks == 1}.get(kind, True)
    for t, term in enumerate(h.terms):
        x = _index_x(term.string)
        for b in range(blocks):
            assert set((act.index[b] ^ x).tolist()) == set(act.index[b].tolist())
            np.testing.assert_array_equal(act.index[b] ^ x, act.index[b, np.arange(k) ^ act.shift[t]])


def _single_matrix_schedule(h, schedule):
    """apply_schedule as it ran on the full dim x dim matrix before the coset
    blocks, kept as the oracle: same (perm, vals), same step arithmetic."""
    n, dim = h.n, 2**h.n
    j = np.arange(dim)
    out = np.eye(dim, dtype=complex)
    moved = np.empty_like(out)
    for idx, coeff in schedule.steps:
        string = h.terms[idx].string
        z = sum(1 << (n - 1 - s) for s in range(n) if string.z_bits >> s & 1)
        phase = 1j ** ((string.x_bits & string.z_bits).bit_count() % 4)
        perm = j ^ _index_x(string)
        rowvals = np.where(np.bitwise_count(j & z) & 1, -phase, phase)[perm]
        angle = coeff * h.terms[idx].coeff.real
        np.take(out, perm, axis=0, out=moved)
        moved *= (1j * math.sin(angle) * rowvals)[:, None]
        out *= math.cos(angle)
        out += moved
    return out


@given(block_hamiltonians(), st.sampled_from((1, 2, 4)), st.floats(-1.5, 1.5))
@settings(max_examples=60, deadline=None)
def test_block_schedule_is_bit_identical_to_single_matrix_loop(case, order, tau):
    _, h = case
    schedule = build_schedule(h.gamma, order, tau)
    assert np.array_equal(apply_schedule(h, schedule), _single_matrix_schedule(h, schedule))


def _full_stack_schedule(h, schedule, layout):
    """_schedule_product as it ran on the whole (blocks, k, k) stack before
    the panels, kept as the oracle."""
    act = dense._actions(h)
    coeffs = act.coeff.real.tolist()
    index = act.index
    blocks, k = index.shape
    cols = np.arange(k)
    out = np.zeros((blocks, k, k), dtype=complex)
    out[:, cols, cols] = 1.0
    moved = np.empty_like(out)
    factors = {}
    for idx, coeff in schedule.steps:
        if idx not in factors:
            perm = cols ^ act.shift[idx]
            factors[idx] = (perm, dense._term_values(act, idx, index[:, perm], act.phase[idx]))
        perm, rowvals = factors[idx]
        angle = coeff * coeffs[idx]
        np.take(out, perm, axis=1, out=moved)
        moved *= (1j * math.sin(angle) * rowvals)[:, :, None]
        out *= math.cos(angle)
        out += moved
    return np.asarray(dense._assembled(index, out), order=layout)


def _bits(a):
    """The IEEE bit patterns of a complex array, so that -0.0 != 0.0."""
    return np.ascontiguousarray(a).view(np.int64)


def _syk(n, seed):
    return KLocalGaussianModel(n=n, k=2 if n < 8 else 3, seed=seed).sample(seed)


@pytest.mark.parametrize(
    "make, n",
    [
        (chain_heisenberg, 4),
        (chain_heisenberg, 8),
        (chain_heisenberg, 10),
        (lambda n: power_law(n, 1, 2.0), 9),  # diagonal: 512 blocks of 1 x 1
        (lambda n: power_law(n, 2, 3.0), 4),
        (lambda n: _syk(n, 7), 5),
        (lambda n: _syk(n, 11), 8),
    ],
    ids=["chain-4", "chain-8", "chain-10", "power-law-9", "power-law-2d-4", "syk-5", "syk-8"],
)
@pytest.mark.parametrize("layout", ["C", "F"])
def test_schedule_panels_are_bit_identical_to_the_full_stack(make, n, layout):
    h = make(n)
    schedule = build_schedule(h.gamma, 2, 1.0 / 11436)
    got = dense._schedule_product(h, schedule, layout)
    expected = _full_stack_schedule(h, schedule, layout)
    assert got.flags[f"{layout}_CONTIGUOUS"]
    assert np.array_equal(_bits(got), _bits(expected))


@pytest.mark.parametrize("width", [1, 2, 3, 5, 7, 16])
def test_schedule_panels_of_any_width_are_bit_identical_to_the_full_stack(width, monkeypatch):
    # Panel budgets of 1..16 columns over k = 16 (the 5-site chain) and k = 32
    # (a 5-site SYK draw): widths 3, 5 and 7 end in a partial panel.
    for h in (chain_heisenberg(5), _syk(5, 3)):
        monkeypatch.setattr(dense, "_SCHEDULE_PANEL_BYTES", 16 * 2**h.n * width)
        schedule = build_schedule(h.gamma, 2, 0.37)
        got = dense._schedule_product(h, schedule, "C")
        assert np.array_equal(_bits(got), _bits(_full_stack_schedule(h, schedule, "C")))


def test_schedule_panels_keep_the_sign_of_zero():
    # Two entries of this product are -0.0 (steps with a negative cosine
    # times exact zeros); the panels must reproduce them, not just compare
    # equal to them.
    h = PauliHamiltonian.from_labels(2, [("XY", 1.0), ("YX", 0.5)])
    schedule = build_schedule(h.gamma, 1, 4.0)
    expected = _full_stack_schedule(h, schedule, "C")
    parts = expected.view(float)
    assert (np.signbit(parts) & (parts == 0)).any()
    assert np.array_equal(_bits(apply_schedule(h, schedule)), _bits(expected))


@given(block_hamiltonians(max_n=5), st.sampled_from((1, 2)), st.integers(1, 5000))
@settings(max_examples=40, deadline=None)
def test_trotter_error_op_is_bit_identical_to_public_parts(case, order, r):
    _, h = case
    segment = apply_schedule(h, build_schedule(h.gamma, order, 0.7 / r))
    if r <= dense._BINARY_POWER_MAX:
        power = np.linalg.matrix_power(segment, r)
    else:
        power = dense._schur_power(np.asfortranarray(segment), r)
    expected = evolve(h, 0.7) - power
    assert np.array_equal(trotter_error_op(h, 0.7, r, order), expected)


def _extended_power(segment, r):
    """segment**r by binary powering in np.clongdouble: the double-precision
    segment's exact power, up to the extended format's roundoff."""
    base = segment.astype(np.clongdouble)
    power = np.eye(len(segment), dtype=np.clongdouble)
    while r:
        if r & 1:
            power = power @ base
        r >>= 1
        if r:
            base = base @ base
    return power


@pytest.mark.parametrize("r", [2, 107, 4096])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize(
    "h",
    [chain_heisenberg(6), KLocalGaussianModel(n=6, k=2, seed=0).sample(1)],
    ids=["chain", "syk"],
)
def test_binary_power_entries_are_within_2e_12_of_an_extended_precision_power(h, order, r):
    # The largest entry error measured on these cases was 5.1e-13.
    assert 1 < r <= dense._BINARY_POWER_MAX
    segment = apply_schedule(h, build_schedule(h.gamma, order, 1.0 / r))
    expected = evolve(h, 1.0) - _extended_power(segment, r)
    error = trotter_error_op(h, 1.0, r, order)
    assert np.abs(error - expected).max() <= 2e-12


def _batched_evolve(h, t):
    """evolve as it formed the whole block stack in one batched product,
    before it wrote the blocks one at a time; kept as the oracle."""
    act = dense._actions(h)
    w, v = np.linalg.eigh(dense._blocks(act).swapaxes(1, 2))
    if np.iscomplexobj(v):
        blocks = (v * np.exp(1j * t * w)[:, None, :]) @ np.conjugate(v).swapaxes(1, 2)
    else:
        vt = v.swapaxes(1, 2)
        blocks = np.empty(v.shape, dtype=complex)
        blocks.real = (v * np.cos(t * w)[:, None, :]) @ vt
        blocks.imag = (v * np.sin(t * w)[:, None, :]) @ vt
    return dense._assembled(act.index, blocks)


@given(block_hamiltonians(max_n=5), st.sampled_from((1, 5, 2**16)), st.floats(-3.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_exact_evolution_by_block_runs_is_bit_identical_to_one_batched_product(
    case, run_entries, t
):
    # run_entries 1 writes one block at a time, 5 groups blocks of size 1 or
    # 2, and 2**16 takes every block of these sizes in one run.
    _, h = case
    expected = _batched_evolve(h, t)
    segment = apply_schedule(h, build_schedule(h.gamma, 1, t / 3))
    with mock.patch.object(dense, "_RUN_ENTRIES", run_entries):
        assert np.array_equal(evolve(h, t), expected)
        error = trotter_error_op(h, t, 3, 1)
    assert np.array_equal(error, expected - np.linalg.matrix_power(segment, 3))


@pytest.mark.parametrize(
    "h",
    [
        chain_heisenberg(4),
        chain_heisenberg(5),
        PauliHamiltonian.from_labels(4, [("ZZII", 0.3), ("IZIZ", -0.7), ("IIIZ", 1.1)]),
        PauliHamiltonian.from_labels(3, [("XII", 0.9), ("IYI", -0.4), ("ZZX", 0.6), ("YXZ", 0.25)]),
        PauliHamiltonian.from_labels(5, [("XXIII", 1.0), ("IYYII", 0.8), ("IIXZX", -0.5), ("ZIIIZ", 0.3)]),
    ],
    ids=["chain-4", "chain-5", "diagonal-4", "odd-y-3", "mixed-5"],
)
def test_evolve_matches_extended_precision_oracle(h):
    mpmath = pytest.importorskip("mpmath")
    t = 1.3
    with mpmath.workdps(40):
        m = to_matrix(h)
        exponent = mpmath.matrix([[1j * t * complex(v) for v in row] for row in m])
        oracle = np.array(mpmath.expm(exponent).tolist(), dtype=complex)
    assert np.abs(evolve(h, t) - oracle).max() <= 1e-14


def test_trotter_error_op_memory_stays_within_two_and_a_quarter_matrices():
    # The Schur power overwrites the segment with T and then with Q's scaled
    # columns, and writes the power into Q's buffer panel by panel, so the
    # segment or T, and Q or the power, are the only full matrices
    # (34.5 MiB).  The exact evolution is added one coset block at a time,
    # so neither it nor its block stack is held next to the power.
    h = chain_heisenberg(10)
    tracemalloc.start()
    try:
        trotter_error_op(h, 1.0, 11436, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 16 * 2**20


def test_one_step_error_operator_holds_no_copy_of_the_segment():
    # At r = 1 the power is the segment itself (16 MiB), which then takes the
    # exact evolution block by block: 24.2 MiB measured.  A copy of the
    # segment, as a power at r = 2 holds, peaks at 32.0 MiB.
    h = chain_heisenberg(10)
    tracemalloc.start()
    try:
        trotter_error_op(h, 1.0, 1, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 25 * 2**20


def test_evolve_memory_stays_within_one_and_five_eighths_matrices():
    # The result (16 MiB), the real eigenvectors of the two 512 x 512 parity
    # blocks (4 MiB) and one block's products (4 MiB): 24.0 MiB.  Holding the
    # complex block stack, or allocating the result before the eigh, would
    # pass 28 MiB.
    h = chain_heisenberg(10)
    tracemalloc.start()
    try:
        evolve(h, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.625 * 16 * 2**20


def _whole_block_exact(act, w, v, t):
    """e^{i H t} of a complex H as ``_write_exact`` formed it with one whole
    block product per run, kept as the oracle of its column panels."""
    phases = np.exp(1j * t * w)
    scaled = v * phases[:, None, :]
    return dense._assembled(act.index, scaled @ np.conjugate(v).swapaxes(1, 2))


# Four coset blocks of 32: the x-masks of adjacent pairs on sites 0..5.
_COMPLEX_BLOCKS = PauliHamiltonian.from_labels(
    7,
    [
        ("XYIIIII", 0.7), ("IXXIIII", -0.3), ("IIYYIII", 0.45), ("IIIXYII", 0.2),
        ("IIIIYXI", -0.6), ("ZIIIIIZ", 0.35), ("IIIZIIZ", 0.15),
    ],
)


# The patched panel widths are multiples of 4, the column unroll of
# OpenBLAS's Haswell zgemm kernel; a width off that grid (5, say) changes
# the last bits, as it would for ``_schur_power``.
@pytest.mark.parametrize(
    "h, blocks, run_entries, panel",
    [
        (_syk(5, 3), 1, 2**16, 12),  # panels of 12, 12 and 8 over 32 columns
        (_syk(5, 3), 1, 2**16, 31),  # a lone last column joins the panel before it
        (_syk(8, 11), 1, 2**16, 64),  # four 64-column panels
        (_syk(8, 11), 1, 2**16, 20),  # 12 panels of 20 and a last one of 16
        (_COMPLEX_BLOCKS, 4, 3 * 32**2, 12),  # runs of 3 and 1 blocks; panels 12, 12, 8
        (_COMPLEX_BLOCKS, 4, 2**16, 8),  # one run of 4 blocks; four 8-column panels
    ],
    ids=["syk-5-by-12", "syk-5-by-31", "syk-8-by-64", "syk-8-by-20", "blocks-by-12", "blocks-by-8"],
)
@pytest.mark.parametrize("add", [False, True])
def test_complex_exact_panels_are_bit_identical_to_the_whole_block_product(
    h, blocks, run_entries, panel, add, monkeypatch
):
    monkeypatch.setattr(dense, "_RUN_ENTRIES", run_entries)
    monkeypatch.setattr(dense, "_PANEL", panel)
    act = dense._actions(h)
    assert act.index.shape[0] == blocks
    w, v = np.linalg.eigh(dense._blocks(act).swapaxes(1, 2))
    assert np.iscomplexobj(v)
    t = 1.3
    expected = _whole_block_exact(act, w, v.copy(), t)
    dim = act.index.size
    rng = np.random.default_rng(dim)
    start = np.zeros((dim, dim), complex)
    if add:
        start += rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    out = start.copy()
    dense._write_exact(out, act, w, v, t, add)
    assert np.array_equal(_bits(out), _bits(start + expected if add else expected))


def test_complex_evolve_memory_stays_within_three_and_a_half_matrices():
    # One block of 256 (a k-local SYK draw, n = 8): the result, the complex
    # eigenvectors, their scaled copy, and one 64-column panel of the
    # product with its scatter index (3.39 MiB).  The whole block product
    # took 4.14 MiB.
    h = KLocalGaussianModel(n=8, k=2, seed=3).sample(np.random.SeedSequence(1))
    assert dense._actions(h).index.shape[0] == 1
    tracemalloc.start()
    try:
        evolve(h, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 16 * 4**8


@pytest.mark.parametrize(
    "h",
    [
        chain_heisenberg(3),
        PauliHamiltonian.from_labels(3, [("XII", 9.0), ("IYI", -4.0), ("ZZX", 6.0), ("YXZ", 2.5)]),
    ],
    ids=["real", "odd-y"],
)
def test_exact_evolution_past_the_float_range_is_nan_without_warnings(h):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = evolve(h, 1e308)
    assert np.isnan(u).any()


@pytest.mark.parametrize(
    "h, t, r, order",
    [
        (chain_heisenberg(4), 1.0, 3, 1),
        (chain_heisenberg(5), 2.0, 2, 2),
        (PauliHamiltonian.from_labels(3, [("XII", 0.9), ("IYI", -0.4), ("ZZX", 0.6), ("YXZ", 0.25)]), 1.0, 1, 1),
        (PauliHamiltonian.from_labels(4, [("XXII", 1.0), ("IZZI", 0.7), ("IIYY", -0.5), ("ZIIX", 0.3)]), 1.5, 4, 2),
    ],
    ids=["chain-4", "chain-5", "odd-y-3", "mixed-4"],
)
def test_error_singular_values_match_eigenphases(h, t, r, order):
    """sigma(U - V) = |1 - e^{i theta}| = 2|sin(theta/2)| over the eigenphases
    theta of U^dagger V, an SVD-free path to the same norms."""
    u = evolve(h, t)
    v = np.linalg.matrix_power(apply_schedule(h, build_schedule(h.gamma, order, t / r)), r)
    theta = np.angle(np.linalg.eigvals(u.conj().T @ v))
    sv = np.sort(2.0 * np.abs(np.sin(theta / 2.0)))
    np.testing.assert_allclose(sv, np.sort(scipy.linalg.svdvals(u - v)), rtol=0, atol=1e-12)
    spectral, pnorms = dense._spectral_and_pnorms(trotter_error_op(h, t, r, order), (2.0, 4.0))
    assert spectral == pytest.approx(sv.max(), rel=1e-10)
    for p, value in pnorms.items():
        assert value == pytest.approx(float(np.mean(sv**p)) ** (1.0 / p), rel=1e-10)


def _svd_oracle(m):
    return np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)


_rng = np.random.default_rng(12)
_square = _rng.normal(size=(12, 12)) + 1j * _rng.normal(size=(12, 12))


@pytest.mark.parametrize(
    "m",
    [
        np.zeros((0, 0), dtype=complex),
        np.array([[3.0 - 4.0j]]),
        np.zeros((6, 6), dtype=complex),
        np.outer(_square[0], _square[1].conj()),  # rank 1
        _square,
        np.asfortranarray(_square),
        _square[::2, 1::2],  # neither C- nor Fortran-contiguous
        _square[:, :5],
        _square[:5, :],
        _square.real.copy(),
    ],
    ids=["empty", "1x1", "zero", "rank-1", "c-order", "f-order", "strided", "tall", "wide", "real"],
)
def test_singular_values_match_an_svd(m):
    before = np.array(m, copy=True)
    got = dense._singular_values(m)
    expected = _svd_oracle(m)
    assert got.shape == expected.shape
    assert np.all(got[:-1] >= got[1:])
    top = float(expected.max(initial=0.0))
    # each sigma to absolute O(sqrt(dim eps)) sigma_max; the largest to O(dim eps)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-7 * top)
    if top:
        assert got[0] == pytest.approx(top, rel=1e-13)
        assert np.sum(got**2) == pytest.approx(np.sum(expected**2), rel=1e-13)
    assert np.array_equal(m, before)


@pytest.mark.parametrize("dim", [1, 2, 5, 64, 255, 1024])
@pytest.mark.parametrize("order", ["C", "F"])
def test_gram_eigenvalues_are_bit_identical_to_scipy_eigh(dim, order):
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    gram = np.array(a.conj().T @ a, order=order)
    expected = scipy.linalg.eigh(gram.copy(order="K"), driver="evd", eigvals_only=True, overwrite_a=True)
    assert np.array_equal(dense._heevd(gram.copy(order="K").T[None], False)[0], expected)


def test_a_failed_eigenvalue_call_raises_linalg_error(monkeypatch):
    lapack = dense._flapack

    def failing_zheevd(*args, **kwargs):
        w, v, _ = lapack.zheevd(*args, **kwargs)
        return w, v, 2

    monkeypatch.setattr(
        dense, "_flapack", SimpleNamespace(zheevd_lwork=lapack.zheevd_lwork, zheevd=failing_zheevd)
    )
    with pytest.raises(np.linalg.LinAlgError, match="info=2"):
        dense._singular_values(np.eye(3))


@pytest.mark.parametrize(
    "h, name",
    [
        (chain_heisenberg(4), "dsyevd"),
        (KLocalGaussianModel(n=4, k=2, seed=3).sample(np.random.SeedSequence(1)), "zheevd"),
    ],
    ids=["real-blocks", "complex-block"],
)
def test_a_failed_eigenvector_call_raises_linalg_error(h, name, monkeypatch):
    lapack = dense._flapack

    def failing_driver(*args, **kwargs):
        w, v, _ = getattr(lapack, name)(*args, **kwargs)
        return w, v, 3

    lwork = f"{name}_lwork"
    stub = SimpleNamespace(**{lwork: getattr(lapack, lwork), name: failing_driver})
    monkeypatch.setattr(dense, "_flapack", stub)
    with pytest.raises(np.linalg.LinAlgError, match="info=3"):
        evolve(h, 1.0)


def test_schatten_norm_rejects_a_non_finite_matrix():
    m = np.eye(4, dtype=complex)
    m[2, 1] = np.inf
    with pytest.raises(ValidationError):
        schatten_norm(m, 2)


def test_schatten_norm_of_a_matrix_whose_gram_matrix_overflows():
    # E^dagger E has entries 4e310: the Gram matrix is formed of E / 2^516.
    assert schatten_norm(np.full((4, 4), 1e155), 2) == pytest.approx(4e155, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_schatten_norm_past_the_float_range_is_inf(p):
    # sigma_max = 4e308; pyproject.toml turns any overflow warning into a failure.
    assert schatten_norm(np.full((4, 4), 1e308), p, normalized=True) == math.inf


@pytest.mark.parametrize("scale", [1.0, 1e100, 1e154, 1e155, 1e200, 1e300])
@pytest.mark.parametrize("p", [2.0, 4.0, math.inf])
def test_schatten_norm_matches_an_svd_across_the_float_range(scale, p):
    sv = _svd_oracle(_square * scale)
    top = sv.max()
    expected = top if math.isinf(p) else top * float(np.sum((sv / top) ** p)) ** (1.0 / p)
    assert schatten_norm(_square * scale, p) == pytest.approx(expected, rel=1e-12)


def test_in_range_singular_values_take_one_unscaled_gram_matrix():
    a = np.asfortranarray(_square * 1e150)
    gram = dense._fblas.zherk(1.0, a, trans=0, lower=1)
    expected = np.sqrt(np.maximum(dense._heevd(gram.T[None], False)[0][::-1], 0.0))
    assert np.array_equal(dense._singular_values(a), expected)


def test_spectral_and_pnorms_memory_stays_within_its_input_and_one_tenth_more():
    # The Gram matrix and the eigenvalue workspace: one more matrix.  An SVD
    # of the 10-site error operator held a copy and its workspace (17.1 MiB).
    e = trotter_error_op(chain_heisenberg(10), 1.0, 11436, 2)
    tracemalloc.start()
    try:
        dense._spectral_and_pnorms(e, (1.0, 2.0, 4.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * e.nbytes


def test_schatten_norm_examples():
    assert schatten_norm(np.eye(8), 3.0, normalized=True) == pytest.approx(1.0)
    zz = PauliSum(2, [("ZI", 1.0), ("IZ", 1.0)])
    assert schatten_norm(to_matrix(zz), 2, normalized=True) == pytest.approx(math.sqrt(2))
    assert schatten_norm(to_matrix(zz), 4, normalized=True) == pytest.approx(8 ** 0.25)
    assert schatten_norm(to_matrix(zz), math.inf) == pytest.approx(2.0)
    assert schatten_norm(np.zeros((4, 4)), 2) == 0.0


def test_schatten_norm_rejects_small_p():
    with pytest.raises(ValueError):
        schatten_norm(np.eye(2), 0.5)


def test_normalized_norm_nondecreasing_in_p():
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        values = [schatten_norm(a, p, normalized=True) for p in (1, 2, 3, 4, 8, 16)]
        spectral = schatten_norm(a, math.inf)
        assert all(x <= y + 1e-10 for x, y in zip(values, values[1:]))
        assert values[-1] <= spectral + 1e-10


def test_unitary_invariance():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    qu, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    qv, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    for p in (1.5, 2, 4, math.inf):
        assert schatten_norm(qu @ a @ qv, p) == pytest.approx(
            schatten_norm(a, p), rel=1e-9
        )


def test_weighted_norm_maximally_mixed_reduces_to_normalized():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    for s in (0.0, 0.3, 1.0):
        spec = WeightedNormSpec(weights=(0.5, 0.5, 0.5), s=s, p=4)
        assert weighted_norm(a, spec) == pytest.approx(
            schatten_norm(a, 4, normalized=True), rel=1e-10
        )


def test_weighted_norm_identity_is_one():
    spec = WeightedNormSpec(weights=(0.2, 0.9), s=0.5, p=3)
    assert weighted_norm(np.eye(4), spec) == pytest.approx(1.0)


def test_weighted_norm_zero_weights_pseudo_power():
    spec = WeightedNormSpec(weights=(0.0, 1.0), s=0.5, p=2)
    rng = np.random.default_rng(8)
    a = rng.normal(size=(4, 4))
    val = weighted_norm(a, spec)
    assert np.isfinite(val)
    # rho is a rank-1 projector: only the (emp, occ) = index-2 diagonal entry
    # survives -> norm equals |a[2,2]|
    assert val == pytest.approx(abs(a[2, 2]))


def test_weighted_spec_validation():
    with pytest.raises(ValidationError):
        WeightedNormSpec(weights=(0.5,), s=1.5, p=2)
    with pytest.raises(ValidationError):
        WeightedNormSpec(weights=(1.5,), s=0.5, p=2)
    with pytest.raises(ValidationError):
        WeightedNormSpec(weights=(0.5,), s=0.5, p=1)


def test_sector_b_value():
    assert ParticleSector(4, 2).b == pytest.approx(0.375)
    assert ParticleSector(4, 2).rank == 6


@pytest.mark.parametrize("n", range(11))
def test_sector_mask_matches_the_loop_oracle(n):
    for m in range(n + 1):
        oracle = [n - int(i).bit_count() == m for i in range(2**n)]
        assert ParticleSector(n, m).mask().tolist() == oracle


def test_sector_of_identity_is_one():
    for m in (0, 1, 2, 3):
        res = sector_norm(np.eye(8), m, 4)
        assert res.value == pytest.approx(1.0)


def test_sector_projector_counts_occupied_sites():
    # the number operator sum_s a+_s a_s acts as m on the m-particle sector
    n = 4
    terms = [FermionTerm(((s, "+"), (s, "-")), 1.0) for s in range(n)]
    num_op = to_matrix(jordan_wigner(FermionHamiltonian(n, terms)))
    for m in range(n + 1):
        mask = ParticleSector(n, m).mask()
        np.testing.assert_allclose(
            np.diag(num_op)[mask], m * np.ones(int(mask.sum())), atol=1e-12
        )


def test_sector_norm_bounded_by_weighted_value():
    rng = np.random.default_rng(11)
    n, m, p = 4, 2, 4
    mask = ParticleSector(n, m).mask()
    # number-preserving operator: block supported on the sector only
    a = np.zeros((16, 16), dtype=complex)
    block = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a[np.ix_(mask, mask)] = block
    res = sector_norm(a, m, p)
    assert res.value <= res.weighted_bound + 1e-10
    # supported exactly on the sector: the conversion is tight
    assert res.value == pytest.approx(res.weighted_bound, rel=1e-9)


def test_subset_component_pauli_cases():
    z1 = to_matrix(PauliString.from_label("ZI"))
    np.testing.assert_allclose(subset_component(z1, {0}), z1, atol=1e-12)
    np.testing.assert_allclose(subset_component(z1, {1}), 0, atol=1e-12)
    np.testing.assert_allclose(subset_component(z1, {0, 1}), 0, atol=1e-12)
    np.testing.assert_allclose(subset_component(z1, set()), 0, atol=1e-12)
    zz = to_matrix(PauliString.from_label("ZZ"))
    np.testing.assert_allclose(subset_component(zz, {0, 1}), zz, atol=1e-12)
    np.testing.assert_allclose(subset_component(zz, {0}), 0, atol=1e-12)


def test_subset_component_completeness():
    rng = np.random.default_rng(12)
    n = 3
    f = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    total = np.zeros_like(f)
    for bits in range(2**n):
        subset = {s for s in range(n) if (bits >> s) & 1}
        total += subset_component(f, subset)
    np.testing.assert_allclose(total, f, atol=1e-10)


def test_subset_component_site_validation():
    with pytest.raises(ValidationError):
        subset_component(np.eye(4), {5})


def state_error(e: np.ndarray, psi: np.ndarray) -> float:
    """||E psi||, one state at a time: the oracle of the vectorized errors."""
    return float(np.linalg.norm(e @ psi))


def test_errors_of_the_zero_operator_are_zero():
    e = np.zeros((4, 4))
    assert errors_for_states(e, haar_states(2, 3, np.random.default_rng(12))).tolist() == [0.0] * 3


def test_errors_for_states_of_a_unitary_difference_lie_in_0_2():
    rng = np.random.default_rng(13)
    z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    q, _ = np.linalg.qr(z)
    e = q - np.eye(8)  # difference of two unitaries
    got = errors_for_states(e, haar_states(3, 10, rng))
    assert np.all((0.0 <= got) & (got <= 2.0 + 1e-12))


def test_basis_and_haar_ensembles_deterministic():
    i1 = basis_indices(4, 10, np.random.default_rng(42))
    i2 = basis_indices(4, 10, np.random.default_rng(42))
    np.testing.assert_array_equal(i1, i2)
    s1 = haar_states(3, 5, np.random.default_rng(42))
    s2 = haar_states(3, 5, np.random.default_rng(42))
    np.testing.assert_array_equal(s1, s2)


def test_errors_for_states_match_loop():
    rng = np.random.default_rng(16)
    e = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    states = haar_states(3, 6, rng)
    got = errors_for_states(e, states)
    for j in range(6):
        assert got[j] == pytest.approx(state_error(e, states[j]))
