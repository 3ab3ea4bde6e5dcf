"""Exact dense-matrix engine: evolution, schedules, and matrix norms.

Site 0 is the leftmost Kronecker factor, so for example the two-site operator
Z1 Z2 becomes diag(1, -1, -1, 1).  All norms are computed from singular
values; the normalized Schatten p-norm divides by ||I||_p = dim^{1/p}.

Occupation convention (shared with the Jordan-Wigner map in ``pauli``): a
site is *occupied* when it is in the Z = +1 basis vector, i.e. when its index
bit is 0.  The particle sector P_m is the span of computational basis states
with exactly m occupied sites, and the matching product background state
rho_zeta places probability zeta on the occupied state of each site.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

import numpy as np

from .errors import ValidationError, check_budget, check_finite
from .pauli import PauliHamiltonian, PauliString, PauliSum, PauliTerm, _ingest, _site_bits
from .suzuki import Schedule, build_schedule


def _linalg_wrapper(name: str):
    """scipy.linalg's compiled LAPACK or BLAS wrapper module, without the
    scipy.linalg package, whose import also loads scipy's array-API layer
    and with it ``numpy.testing``, ``numpy.f2py`` and more.  The module is
    registered under its own name, so a later ``import scipy.linalg``
    shares it, and one already loaded is reused."""
    full = f"scipy.linalg.{name}"
    if full not in sys.modules:
        # Finding scipy.linalg's directory imports only the top-level scipy.
        path = importlib.util.find_spec("scipy.linalg").submodule_search_locations
        spec = importlib.machinery.PathFinder.find_spec(full, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
    return sys.modules[full]


_flapack = _linalg_wrapper("_flapack")
_fblas = _linalg_wrapper("_fblas")

MatrixLike = Union[np.ndarray, PauliSum, PauliTerm, PauliString]


def _check_dense(n: int, matrices: float) -> None:
    """Refuse dense work on n qubits whose peak is ``matrices`` dim x dim
    complex matrices, 16 * 4**n bytes each, past the one memory budget.
    Each estimate bounds the traced peaks stated next to its call, measured
    with one OpenBLAS thread on the 8-site chain and an 8-site k = 2 SYK
    draw (one complex coset block); n = 10 reads the same or lower.  It
    also bounds the same calls' resident peaks (VmHWM) at n = 10 and 11,
    which read up to 0.4 matrices above the traced ones at n = 10: every
    LAPACK workspace is a numpy array (see ``_heevd``).  Above n = 64 the
    bytes are counted at n = 64, 2^132 and more, so 4**n is never formed."""
    nbytes = math.ceil(matrices * 16 * 4 ** min(n, 64))
    check_budget(nbytes, f"dense work on {n} qubits needs")


class _Actions(NamedTuple):
    """A Pauli table as actions on the coset blocks of its x-masks.

    Term t maps basis state |j> to phase[t] * (-1)**popcount(j & z[t]) times
    |j XOR x[t]>, where x and z are index masks (site s is index bit n-1-s)
    and phase[t] = i**popcount(x & z) (each Y adds a factor i).  j XOR x
    stays inside j's coset of the GF(2) span V of all the x-masks, so every
    term, and everything built from the terms, is block diagonal:
    ``index[b, a]`` is basis index rep_b XOR v_a, and term t maps local
    position a to ``a ^ shift[t]`` in every block.  One block of size dim is
    the general case (V is everything); a diagonal table has dim blocks.
    """

    index: np.ndarray
    shift: tuple[int, ...]
    z: tuple[int, ...]
    phase: tuple[complex, ...]
    coeff: np.ndarray


def _cosets(masks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, shift) for index masks of x-parts; see ``_Actions``.

    The span's basis is kept reduced, so that each pivot bit is set in its
    own vector only.  Then v_a, the XOR of the basis vectors picked by the
    bits of a (pivots ascending), has exactly a's bits on the pivots, a
    mask's coordinates are its pivot bits, and each coset holds one rep_b
    that is zero on every pivot bit.
    """
    basis: dict[int, int] = {}  # pivot bit -> vector
    for mask in set(masks.tolist()):
        for pivot, vec in basis.items():
            if mask >> pivot & 1:
                mask ^= vec
        if mask:
            pivot = mask.bit_length() - 1
            for p, vec in list(basis.items()):
                if vec >> pivot & 1:
                    basis[p] = vec ^ mask
            basis[pivot] = mask
    span = np.zeros(1, np.int64)
    shift = np.zeros_like(masks)
    for i, pivot in enumerate(sorted(basis)):
        span = np.concatenate([span, span ^ basis[pivot]])
        shift |= (masks >> pivot & 1) << i
    reps = np.arange(2**n)
    reps = reps[(reps & sum(1 << p for p in basis)) == 0]
    return reps[:, None] ^ span[None, :], shift


def _actions(obj: Union[PauliSum, PauliTerm, PauliString]) -> _Actions:
    """The coset actions of a Pauli string, term or sum, read off its bit
    planes."""
    if isinstance(obj, PauliString):
        obj = PauliTerm(obj, 1.0)
    rows = _ingest(obj.n, [obj]) if isinstance(obj, PauliTerm) else obj._rows
    n = obj.n
    bit_values = np.left_shift(1, np.arange(n - 1, -1, -1), dtype=np.int64)
    x, z = _site_bits(rows.x, n), _site_bits(rows.z, n)
    y_count = (x & z).sum(axis=1, dtype=np.int64) % 4
    index, shift = _cosets(x.astype(np.int64) @ bit_values, n)
    return _Actions(
        index,
        tuple(shift.tolist()),
        tuple((z.astype(np.int64) @ bit_values).tolist()),
        tuple(1j**k for k in y_count.tolist()),
        rows.c,
    )


def _term_values(act: _Actions, t: int, index: np.ndarray, weight: complex) -> np.ndarray:
    """weight * (-1)**popcount(j & z) for the basis indices j of ``index``."""
    return np.where(np.bitwise_count(index & act.z[t]) & 1, -weight, weight)


def _weights(act: _Actions) -> np.ndarray:
    """The terms' coefficients times their phases, real when every one is."""
    weights = act.coeff * np.array(act.phase, dtype=complex)
    return weights if weights.imag.any() else weights.real


def _blocks(act: _Actions) -> np.ndarray:
    """The (blocks, k, k) stack of the blocks' transposes, real when every
    term is: its C-ordered buffer holds each block in Fortran order, as
    ``_heevd`` takes it."""
    weights = _weights(act)
    index = act.index
    blocks, k = index.shape
    out = np.zeros((blocks, k, k), weights.dtype)
    cols = np.arange(k)
    # Row a of the transpose holds P's column a, its value at a ^ shift.
    for t, weight in enumerate(weights.tolist()):
        out[:, cols, cols ^ act.shift[t]] += _term_values(act, t, index, weight)
    return out


def _transpose_in_place(a: np.ndarray) -> None:
    """Transpose a square C-ordered matrix in its own buffer, a strip of
    ``_PANEL`` rows at a time, so one strip is held besides it."""
    k = len(a)
    for lo in range(0, k, _PANEL):
        hi = min(lo + _PANEL, k)
        a[lo:hi, lo:hi] = a[lo:hi, lo:hi].T.copy()
        strip = a[lo:hi, hi:].copy()
        a[lo:hi, hi:] = a[hi:, lo:hi].T
        a[hi:, lo:hi] = strip.T


def _heevd(stack: np.ndarray, vectors: bool) -> np.ndarray:
    """The eigenvalues, ascending, of each Hermitian block of a C-ordered
    (blocks, k, k) stack whose buffers hold the blocks in Fortran order, from
    the lower triangle; with ``vectors``, the blocks become the eigenvectors,
    as columns, in C order.

    ``zheevd``, or ``dsyevd`` for a real stack, runs in each block's buffer
    with the queried workspace, as ``np.linalg.eigh`` and ``scipy.linalg.eigh(
    driver="evd")`` call it (their bits at one BLAS thread), with no copy and
    no workspace out of tracemalloc's sight: three matrices fewer on a
    one-block H.  The eigenvectors are transposed back in place: read in LAPACK's
    layout, small blocks would take another OpenBLAS kernel and other bits.
    """
    blocks, k, _ = stack.shape
    compute_v = int(vectors)
    if np.iscomplexobj(stack):
        lwork, liwork, lrwork, _ = _flapack.zheevd_lwork(k, compute_v=compute_v, lower=1)
        driver = functools.partial(
            _flapack.zheevd, lwork=int(lwork.real), liwork=int(liwork), lrwork=int(lrwork)
        )
    else:
        lwork, liwork, _ = _flapack.dsyevd_lwork(k, compute_v=compute_v, lower=1)
        driver = functools.partial(_flapack.dsyevd, lwork=int(lwork), liwork=int(liwork))
    w = np.empty((blocks, k))
    for block, a in zip(w, stack):
        block[:], _, info = driver(a.T, compute_v=compute_v, lower=1, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"eigenvalues not found (?heevd info={info})")
        if vectors:
            _transpose_in_place(a)
    return w


def _eigh(act: _Actions) -> tuple[np.ndarray, np.ndarray]:
    """(w, v) of H's block stack, v's blocks in C order."""
    stack = _blocks(act)
    return _heevd(stack, True), stack


def _block_entries(index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (row, column) fancy index of a (blocks, k, k) stack in the full matrix."""
    return index[:, :, None], index[:, None, :]


def _assembled(index: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The dim x dim complex matrix of a block stack."""
    out = np.zeros((index.size, index.size), dtype=complex)
    out[_block_entries(index)] = blocks
    return out


def to_matrix(obj: MatrixLike) -> np.ndarray:
    """Dense matrix of a Pauli string/term/sum (or pass through an ndarray).

    Each string is one scatter of O(dim) entries into its coset blocks.
    """
    if isinstance(obj, np.ndarray):
        return np.asarray(obj, dtype=complex)
    if not isinstance(obj, (PauliString, PauliTerm, PauliSum)):
        raise TypeError(f"cannot build a matrix from {type(obj).__name__}")
    _check_dense(obj.n, 2.25)  # 1.51 on the chain, 2.13 on SYK
    act = _actions(obj)
    return _assembled(act.index, _blocks(act).swapaxes(1, 2))


def sites_of(matrix: np.ndarray) -> int:
    dim = matrix.shape[0]
    n = dim.bit_length() - 1
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or 2**n != dim:
        raise ValidationError(f"matrix shape {matrix.shape} is not 2^n x 2^n")
    return n


def _checked_matrix(a: MatrixLike, matrices: float) -> tuple[np.ndarray, int]:
    """(to_matrix(a), n), once the caller's estimate of its peak fits the
    budget; an ndarray a counts as one of its matrices."""
    if isinstance(a, np.ndarray):
        _check_dense(sites_of(a), matrices)
    elif isinstance(a, (PauliString, PauliTerm, PauliSum)):
        _check_dense(a.n, matrices)
    m = to_matrix(a)
    return m, sites_of(m)


# Columns of a product that ``_schur_power`` and ``_write_exact`` form at
# once, at least.  Each product packs all of its left factor again, so a
# large matrix takes panels of an eighth of its columns: at dim 4096, with
# one OpenBLAS thread on a 2-core Xeon, 64-column panels of the Schur power
# took 1.6x the time of the whole product, and 512-column ones 1.06x.
_PANEL = 64


def _panels(k: int) -> list[slice]:
    """Column panels of a k-column product: 64 columns, or k/8 when that is
    more.  Each is the same gemm, with the same operand layouts, as the
    whole product and starts on a multiple of 64, so with one BLAS thread it
    gives the whole product's bits; a width off the kernel's column unroll
    (4 in OpenBLAS's Haswell zgemm) would not.  A last single column joins
    the panel before it: alone it would be a matrix-vector product, which
    sums in another order."""
    width = _PANEL * max(1, k // (8 * _PANEL))
    edges = [*range(0, max(k - 1, 1), width), k]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


# Entries of e^{i H t} formed at once by ``_write_exact``: a single coset
# block, or a run of small blocks, so a diagonal H is not a loop over dim.
_RUN_ENTRIES = 2**16


def _write_exact(
    out: np.ndarray, act: _Actions, w: np.ndarray, v: np.ndarray, t: float, add: bool
) -> None:
    """Write (or, with ``add``, add) e^{i H t} into the coset blocks of out.

    (w, v) is ``_eigh`` of H's block stack; v is overwritten.  The
    blocks are formed one at a time, or a run of at most ``_RUN_ENTRIES``
    entries at a time, so no full stack of them is held.  A real symmetric
    H (no term with an odd number of Y) takes a real eigh, and
    e^{i H t} = V cos(t W) V^T + i V sin(t W) V^T in real products, written
    straight into the real and imaginary parts of out.  Otherwise
    e^{i H t} = (V e^{i t W}) V^dagger, V conjugated in place, is written
    in column panels (``_panels``), so out, V, its scaled copy and one
    panel are held.  A phase t W past the floating-point range gives NaN
    entries, left to the callers' finiteness checks.
    """
    blocks, k = act.index.shape
    step = max(1, _RUN_ENTRIES // (k * k))

    def put(target: np.ndarray, entries: tuple, values: np.ndarray) -> None:
        if add:
            target[entries] += values
        else:
            target[entries] = values

    for start in range(0, blocks, step):
        run = slice(start, start + step)
        w_run, v_run = w[run], v[run]
        entries = _block_entries(act.index[run])
        if np.iscomplexobj(v_run):
            with np.errstate(over="ignore", invalid="ignore"):
                phases = np.exp(1j * t * w_run)
            scaled = v_run * phases[:, None, :]
            np.conjugate(v_run, out=v_run)
            # Columns j of the product read rows j of conj(V) only.
            for cols in _panels(k):
                panel = (entries[0], entries[1][:, :, cols])
                put(out, panel, scaled @ v_run[:, cols].swapaxes(1, 2))
            del scaled
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            cos, sin = np.cos(t * w_run), np.sin(t * w_run)
        vt = v_run.swapaxes(1, 2)
        put(out.real, entries, (v_run * cos[:, None, :]) @ vt)
        put(out.imag, entries, (v_run * sin[:, None, :]) @ vt)


def evolve(h: PauliHamiltonian, t: float) -> np.ndarray:
    """e^{i H t} through a Hermitian eigendecomposition per coset block."""
    if not isinstance(h, PauliHamiltonian):
        raise TypeError(f"cannot evolve under {type(h).__name__}")
    _check_dense(h.n, 3.5)  # 1.76 on the chain, 3.39 on SYK (3.42 resident at n = 10)
    return _exact(_actions(h), t)


def _exact(act: _Actions, t: float) -> np.ndarray:
    """e^{i H t} of H's coset actions; ``_eigh``'s blocks go on return."""
    w, v = _eigh(act)
    out = np.zeros((act.index.size, act.index.size), dtype=complex)
    _write_exact(out, act, w, v, t, add=False)
    return out


def apply_schedule(h: PauliHamiltonian, schedule: Schedule) -> np.ndarray:
    """The ordered product of per-step exponentials; steps[0] applied first.

    Each step exponentiates one term exactly:
    e^{i a c P} = cos(a c) I + i sin(a c) P for a unit Pauli string P with real
    coefficient c and step coefficient a (which already carries tau).  The
    product is formed on the coset blocks, each entry by the same scalar
    operations as on the full matrix.
    """
    _check_dense(h.n, 2.25)  # 1.86 on the chain, 1.93 on SYK
    return _schedule_product(h, schedule, "C")


# Bytes of one panel of the schedule product: the segment columns that
# ``_apply_steps`` carries through every step before it starts on the next.
# A panel and its moved copy then stay in a core's cache.  With one thread on
# a 2-core Xeon (2 MiB L2 per core), the 10-site chain's product took
# 0.15-0.20 s in 16-column panels against 0.32-0.48 s on its whole 8 MiB
# block stack; a stack of at most this size is one panel.
_SCHEDULE_PANEL_BYTES = 2**18

# One schedule step as (perm, rowvals, angle); see ``_schedule_steps``.
_Step = tuple[np.ndarray, np.ndarray, float]


def _schedule_steps(act: _Actions, schedule: Schedule) -> list[_Step]:
    """(perm, rowvals, angle) of every step; the vectors are shared per term.

    Row a of P M is rowvals[a] * M[perm[a]], perm[a] = a ^ shift (XOR is
    its own inverse), in every block.
    """
    coeffs = act.coeff.real.tolist()
    cols = np.arange(act.index.shape[1])
    factors: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    steps = []
    for idx, coeff in schedule.steps:
        if not 0 <= idx < len(coeffs):
            raise ValidationError(
                f"schedule refers to term {idx} of a {len(coeffs)}-term Hamiltonian"
            )
        if idx not in factors:
            perm = cols ^ act.shift[idx]
            factors[idx] = (perm, _term_values(act, idx, act.index[:, perm], act.phase[idx]))
        angle = coeff * coeffs[idx]
        check_finite("the angle of a schedule step", angle)  # math.sin refuses it
        steps.append((*factors[idx], angle))
    return steps


def _apply_steps(panel: np.ndarray, steps: list[_Step]) -> None:
    """Apply e^{i angle P} of every step, in order, to a (blocks, k, w) panel
    of vectors in place: panel[b, :, j] is vector j's part in coset block b.

    Each entry takes the same numpy operations whatever w is, so a panel of
    columns gives the bits the whole stack gives.
    """
    moved = np.empty_like(panel)
    for perm, rowvals, angle in steps:
        np.take(panel, perm, axis=1, out=moved)
        moved *= (1j * math.sin(angle) * rowvals)[:, :, None]
        panel *= math.cos(angle)
        panel += moved


def _schedule_product(h: PauliHamiltonian, schedule: Schedule, layout: str) -> np.ndarray:
    """``apply_schedule`` assembled in C or Fortran layout.

    The columns of the block stack are independent, so they are formed a
    panel of ``_SCHEDULE_PANEL_BYTES`` at a time, each taken through every
    step and then written into the assembled matrix; the full stack is never
    held.
    """
    act = _actions(h)
    steps = _schedule_steps(act, schedule)
    index = act.index
    blocks, k = index.shape
    out = np.zeros((index.size, index.size), dtype=complex, order=layout)
    width = max(1, _SCHEDULE_PANEL_BYTES // (16 * index.size))
    for lo in range(0, k, width):
        cols = np.arange(lo, min(lo + width, k))
        panel = np.zeros((blocks, k, cols.size), dtype=complex)
        panel[:, cols, np.arange(cols.size)] = 1.0
        _apply_steps(panel, steps)
        out[index[:, :, None], index[:, None, cols]] = panel
    return out


# Above this power the Schur power diagonalizes; at or below it, binary powering.
_BINARY_POWER_MAX = 4096


def _no_sort(_eigenvalue: complex) -> None:
    """The eigenvalue-selection callback that zgees requires; no sort is asked."""


def _schur_power(u: np.ndarray, r: int) -> np.ndarray:
    """u^r = Q e^{i r angle(T_jj)} Q^dagger from the complex Schur form
    u = Q T Q^dagger, overwriting u, a Fortran-order complex matrix.

    The T_jj are put on the unit circle, so u^r stays unitary for very
    large r.  The Schur form is of the full matrix: a per-block one moves
    the norms pinned in ``perfbench/reference.json`` beyond their tolerance.

    Only the two dim x dim matrices that zgees needs are alive: T is formed
    in u's buffer and then overwritten by Q D, D the powered diagonal, and
    the power is formed in Q's buffer, transposed.  Columns j of the power
    are (Q D) conj(Q[j])^T, which read rows j of Q and no others, so rows j
    are conjugated in place and each panel of columns (``_panels``) is
    stored over them, with the bits of the whole product (Q D) conj(Q)^T.

    The lwork, the LAPACK call and every elementwise step are the ones that
    ``scipy.linalg.schur(u, output="complex")`` and the formula above take,
    so with one BLAS thread the result is bit-identical to theirs (with
    more, the panels may split rows across threads differently from the
    whole product).  It is C-contiguous, as the whole product is.
    """
    if not np.isfinite(u).all():
        raise ValueError("array must not contain infs or NaNs")
    if u.size == 0:  # LAPACK refuses the workspace query at n = 0
        return u
    gees = _flapack.zgees
    # scipy's workspace query, minus its copy of u: a LAPACK query writes to
    # no argument.  Its n x n Schur basis is dropped before the real call.
    lwork = gees(_no_sort, u, lwork=-1, overwrite_a=1)[-2][0].real.astype(np.int_)
    t, _, w, q, _, info = gees(_no_sort, u, lwork=lwork, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"Schur form not found (zgees info={info})")
    # w holds diag(T) (LAPACK sets w(i) = T(i, i)).
    np.multiply(q, np.exp(1j * r * np.angle(w)), out=t)
    for panel in _panels(len(q)):
        rows = q[panel]
        q[panel] = (t @ np.conjugate(rows, out=rows).T).T
    return q.T


def _trotter_power(h: PauliHamiltonian, t: float, r: int, order: int) -> np.ndarray:
    """S_order(t/r)^r.  Up to 4096 steps ``np.linalg.matrix_power`` powers
    the segment; it returns it as it is at r = 1, holds one more matrix at
    r = 2 and up to three more above.  Past 4096 the Schur power overwrites
    the segment, assembled in Fortran order: two matrices.
    ``trotter_error_op`` on the 10-site chain, order 2, peaks at 24.2, 32.0,
    48.0, 64.0, 48.0 and 34.5 MiB traced at r = 1, 2, 3, 107, 4096 and 4097
    (16 MiB per matrix)."""
    schedule = build_schedule(h.gamma, order, t / r)
    if r <= _BINARY_POWER_MAX:
        return np.linalg.matrix_power(_schedule_product(h, schedule, "C"), r)
    return _schur_power(_schedule_product(h, schedule, "F"), r)


def trotter_error_op(h: PauliHamiltonian, t: float, r: int, order: int) -> np.ndarray:
    """The exact error operator e^{iHt} - S_order(t/r)^r."""
    return _error_operator(h, t, r, order)[0]


def _error_operator(
    h: PauliHamiltonian, t: float, r: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """(E, a): E = e^{iHt} - S_order(t/r)^r and a = e^{iHt}|0...0>, in the
    order of the lower peak (E has the same bits either way).  Where the
    power holds three or more matrices, or H has several or real coset
    blocks, the power comes first: a copies its column, it is negated in
    place and e^{iHt} is added a coset block (or run of small blocks) at a
    time, next to the power only, and a adds E's column.  Otherwise (one
    complex block, whose ``_eigh`` alone holds three matrices) e^{iHt} comes
    first: a copies its column and the power is subtracted in its buffer.
    """
    if r < 1:
        raise ValidationError("need at least one segment (r >= 1)")
    heavy = 2 < r <= _BINARY_POWER_MAX  # three or four matrices (``_trotter_power``)
    # Chain: 1.90 at r = 1, 2.01 at 2, 4.01 at 107 and 2.39 at 4097.  SYK:
    # 4.04 where the power is heavy, else 3.40.  Resident at n = 10, SYK:
    # 4.44 at r = 107, 3.42 at 1, 3.44 at 2 and 3.51 at 4097.
    _check_dense(h.n, 4.5 if heavy else 3.75)
    act = _actions(h)
    power_first = heavy or len(act.index) > 1 or not np.iscomplexobj(_weights(act))
    out = _trotter_power(h, t, r, order) if power_first else _exact(act, t)
    column = out[:, 0].copy()
    if power_first:
        w, v = _eigh(act)
        np.negative(out, out=out)
        _write_exact(out, act, w, v, t, add=True)
        column += out[:, 0]
    else:
        out -= _trotter_power(h, t, r, order)
    return out, column


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


def _schatten_from_singular_values(
    sv: np.ndarray, p: float, normalized: bool = False
) -> float:
    """(sum_i sigma_i^p)^{1/p} from the singular values of a square matrix."""
    top = float(sv.max(initial=0.0))
    if top == 0.0:
        return 0.0
    if math.isinf(p) or math.isinf(top):
        return top
    val = top * float(np.sum((sv / top) ** p)) ** (1.0 / p)
    if normalized:
        val /= len(sv) ** (1.0 / p)
    return val


def _singular_values(m: np.ndarray) -> np.ndarray:
    """The singular values of a finite matrix, descending, as
    sqrt(max(lambda, 0)) over the eigenvalues lambda of its Gram matrix.

    ``zherk`` forms the Gram matrix on m's own buffer (a C-ordered m is its
    transpose in Fortran order, which has the same singular values) and
    ``_heevd`` takes its eigenvalues in place, so one matrix of m's size
    is alive besides m.  Squaring costs precision: the largest singular
    value and every Schatten p-norm with p >= 2 are accurate to relative
    O(dim eps), while each sigma is accurate only to absolute
    O(sqrt(dim eps)) sigma_max, which bounds the accuracy for 1 <= p < 2.
    A Gram matrix whose trace, which bounds every lambda, overflows (sigma_max
    past about 1.3e154) is formed again of m scaled by a power of two.
    """
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return np.zeros(0)
    a = m.T if m.flags.c_contiguous else np.asfortranarray(m)
    # a a^H or a^H a, whichever is smaller: min(rows, cols) values, as an SVD
    trans = 0 if a.shape[0] <= a.shape[1] else 2
    gram = _fblas.zherk(1.0, a, trans=trans, lower=1)
    exponent = 0
    if not math.isfinite(gram.diagonal().real.sum()):
        del gram
        exponent = math.frexp(float(np.abs(a).max()))[1]
        gram = _fblas.zherk(1.0, a * math.ldexp(1.0, -exponent), trans=trans, lower=1)
    lam = _heevd(gram.T[None], False)[0]
    with np.errstate(over="ignore"):  # a sigma past the range reads inf
        return np.ldexp(np.sqrt(np.maximum(lam[::-1], 0.0)), exponent)


def _spectral_and_pnorms(
    m: np.ndarray, p_values: Iterable[float]
) -> tuple[float, dict[float, float]]:
    """Spectral norm and normalized Schatten p-norms from one set of singular
    values of m (see ``_singular_values`` for their accuracy)."""
    if not np.isfinite(m).all():
        raise ValidationError(
            "the error operator is not finite: the evolution time leaves the "
            "floating-point range"
        )
    sv = _singular_values(m)
    pnorms = {p: _schatten_from_singular_values(sv, p, normalized=True) for p in p_values}
    return _schatten_from_singular_values(sv, math.inf), pnorms


def schatten_norm(a: MatrixLike, p: float, normalized: bool = False) -> float:
    """(sum_i sigma_i^p)^{1/p}; p = inf gives the largest singular value.

    ``normalized`` divides by ||I||_p = dim^{1/p} (no-op at p = inf).  The
    singular values come from the Gram matrix's eigenvalues: the result is
    accurate to relative O(dim eps) for p = inf and every p >= 2, and for
    1 <= p < 2 each sigma is accurate to absolute O(sqrt(dim eps)) sigma_max.
    A matrix with an infinite or NaN entry raises ``ValidationError``; a
    finite one whose norm leaves the floating-point range gives inf.
    """
    if p < 1:
        raise ValueError(f"Schatten norms require p >= 1, got {p}")
    m = to_matrix(a)
    if not np.isfinite(m).all():
        raise ValidationError("the Schatten norm of a matrix needs finite entries")
    return _schatten_from_singular_values(_singular_values(m), p, normalized)


@dataclass(frozen=True)
class WeightedNormSpec:
    """rho-weighted norm parameters: ||O||_{p,rho,s} = ||rho^{(1-s)/p} O rho^{s/p}||_p.

    ``weights[i]`` is the probability the product state rho places on the
    occupied (index bit 0) basis vector of site i.
    """

    weights: tuple[float, ...]
    s: float
    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.s <= 1.0:
            raise ValidationError(f"s must lie in [0, 1], got {self.s}")
        if self.p < 2:
            raise ValidationError(f"weighted norms are defined here for p >= 2, got {self.p}")
        for w in self.weights:
            if not 0.0 <= w <= 1.0:
                raise ValidationError(f"site weight {w} outside [0, 1]")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))


def _pseudo_power(diag: np.ndarray, exponent: float) -> np.ndarray:
    """Entrywise power with the 0^x := 0 convention (and d^0 = 1 exactly)."""
    if exponent == 0.0:
        return np.ones_like(diag)
    out = np.zeros_like(diag)
    positive = diag > 0
    out[positive] = diag[positive] ** exponent
    return out


def weighted_norm(a: MatrixLike, spec: WeightedNormSpec) -> float:
    """Schatten p-norm of rho^{(1-s)/p} A rho^{s/p} for the product diagonal
    rho, to which site i contributes (w_i, 1 - w_i)."""
    m, n = _checked_matrix(a, 3.5)  # 3.14 on the chain and on SYK (3.27 resident at n = 10)
    if len(spec.weights) != n:
        raise ValidationError(
            f"{len(spec.weights)} site weights for an n={n} operator"
        )
    diag = np.array([1.0])
    for w in spec.weights:
        diag = np.kron(diag, np.array([w, 1.0 - w]))
    left = _pseudo_power(diag, (1.0 - spec.s) / spec.p)
    right = _pseudo_power(diag, spec.s / spec.p)
    return schatten_norm((left[:, None] * m) * right[None, :], spec.p)


@dataclass(frozen=True)
class ParticleSector:
    """The m-particle subspace of n sites (occupied = index bit 0)."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if not 0 <= self.m <= self.n:
            raise ValidationError(f"particle count {self.m} outside 0..{self.n}")

    @property
    def rank(self) -> int:
        return math.comb(self.n, self.m)

    @property
    def b(self) -> float:
        """b(n, m) = (m/n)^m (1-m/n)^{n-m} C(n, m); conversion to rho_{m/n}."""
        zeta = self.m / self.n
        return zeta**self.m * (1.0 - zeta) ** (self.n - self.m) * self.rank

    def mask(self) -> np.ndarray:
        """Boolean diagonal of the projector P_m."""
        # occupied sites are the index bits that are 0
        return np.bitwise_count(np.arange(2**self.n)) == self.n - self.m


@dataclass(frozen=True)
class SectorNormResult:
    value: float
    weighted_bound: float
    b: float
    rank: int


def sector_norm(a: MatrixLike, m: int, p: float) -> SectorNormResult:
    """C(n,m)^{-1/p} ||A P_m||_p, plus the rho_{m/n}-weighted upper bound.

    On the sector, the normalized projector equals rho_{m/n} / b(n, m)
    exactly, so ||A Pbar^{1/p}||_p <= ||A rho_{m/n}^{1/p}||_p * b^{-1/p}; the
    second field reports that right-hand side.
    """
    mat, n = _checked_matrix(a, 4.5)  # 4.15 on the chain and on SYK (4.27 resident at n = 10)
    sector = ParticleSector(n, m)
    mask = sector.mask()
    projected = mat * mask[None, :]
    value = schatten_norm(projected, p) * sector.rank ** (-1.0 / p)
    zeta = m / n
    spec = WeightedNormSpec(weights=(zeta,) * n, s=1.0, p=p)
    weighted = weighted_norm(mat, spec)
    bound = weighted * sector.b ** (-1.0 / p)
    return SectorNormResult(value=value, weighted_bound=bound, b=sector.b, rank=sector.rank)


# ---------------------------------------------------------------------------
# Subset components
# ---------------------------------------------------------------------------


def _with_identity(rest: np.ndarray, site: int, n: int) -> np.ndarray:
    """The dim x dim matrix of I_site (x) an operator on the other n - 1
    sites, given as a dim/2 x dim/2 matrix."""
    rest = rest.reshape((2,) * (2 * n - 2))
    out = np.zeros((2,) * (2 * n), dtype=rest.dtype)
    idx: list = [slice(None)] * (2 * n)
    for b in (0, 1):
        idx[site] = idx[n + site] = b
        out[tuple(idx)] = rest
    return out.reshape(2**n, 2**n)


def _conditional_expectation(
    m: np.ndarray, site: int, n: int, weight: float = 0.5
) -> np.ndarray:
    """E_s[F] = I_s (x) Tr_s[(rho_s (x) I) F] of a dim x dim matrix, with
    rho_s placing ``weight`` on the occupied basis vector (0.5: the
    normalized partial trace)."""
    tensor = m.reshape((2,) * (2 * n))
    row, col = site, n + site
    traced = weight * np.take(np.take(tensor, 0, axis=col), 0, axis=row) + (
        1.0 - weight
    ) * np.take(np.take(tensor, 1, axis=col), 1, axis=row)
    return _with_identity(traced, site, n)


def subset_component(f: MatrixLike, subset: Iterable[int]) -> np.ndarray:
    """The component F_S = prod_{s in S}(id - E_s) prod_{s not in S} E_s [F].

    The components over all subsets sum back to F; a Pauli term contributes
    exactly to the subset equal to its support.
    """
    m, n = _checked_matrix(f, 4.0)  # 3.25 on the chain and on SYK (3.78 resident at n = 10)
    subset = frozenset(subset)
    if subset and (min(subset) < 0 or max(subset) >= n):
        raise ValidationError(f"subset {sorted(subset)} outside 0..{n - 1}")
    for s in range(n):
        cond = _conditional_expectation(m, s, n)
        m = (m - cond) if s in subset else cond
    return m


# ---------------------------------------------------------------------------
# States and per-state errors
# ---------------------------------------------------------------------------


def basis_indices(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform computational-basis 1-design: indices drawn with replacement."""
    return rng.integers(0, 2**n, size=size)


def haar_states(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure states as normalized complex Gaussian rows."""
    z = rng.normal(size=(size, 2**n)) + 1j * rng.normal(size=(size, 2**n))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def errors_for_states(e: np.ndarray, states: np.ndarray) -> np.ndarray:
    return np.linalg.norm(states @ e.T, axis=1)
