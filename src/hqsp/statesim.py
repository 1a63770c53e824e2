"""Statevector simulation of the circuit IR: dense, and on the support.

States are little-endian: qubit 0 is the least significant bit of the basis
index, so ``state[5]`` is the amplitude of |...101>.  Both simulators state
each gate family once, on the gate's own target and controls: X/CX/CCX,
PHASE/CPHASE, and the rotations, RY and RZ being UCRY and UCRZ with no
controls.

:func:`simulate` is the whole-circuit simulator.  Axis slicing on the
``[2]*w``-shaped view keeps every update vectorised; a multiplexer's
per-pattern rotation entries are laid onto the control axes and broadcast,
so a cascade level costs O(2**w) however many controls it has.  Here w is
the active width: one more than the highest qubit any gate so far, or the
initial state, has touched.  Every amplitude past ``2**w`` is an exact zero
that no gate has touched, so each gate acts on the first ``2**w`` only, bit
for bit as on the whole register.  H takes four passes, the products and
sums of its 2x2 matrix without their copies.  A run of consecutive SWAPs
only moves data, so it is composed into one axis permutation and costs one
transposed copy and one copy back.  A run of consecutive CPHASEs on one
target (the fan the inverse QFT emits after each H) is one multiply of the
target's |1> half by the product of their phase factors, which differs
from applying them one at a time by rounding only.  Register width is
capped at 24 qubits, which bounds the state at 256 MiB of complex128; a run
adds one workspace of twice that size.

:func:`simulate_support` runs a loader circuit (X, CX, RY, RZ, UCRY, UCRZ)
from |0...0> on its support only, an index array and an amplitude array,
so a d-sparse load costs O(d) per gate instead of O(2**n).  It takes the
circuit in maximal runs of gates on one target, as a lowered merge ladder
is one: each run pairs the support once, O(d log d), X and CX then toggle
which slot of each pair holds the |1>, and each rotation is a few array
operations over the pairs, bit for bit the products and sums of pairing
the support at every gate.  Amplitudes of magnitude at most
:data:`SUPPORT_DROP` are dropped after each rotation; the run reports its
peak support and the squared norm it dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .circuit import Circuit, _pattern_of

__all__ = [
    "CapacityError",
    "UnsupportedGateError",
    "SupportState",
    "simulate",
    "simulate_support",
    "unitary_of",
    "fidelity",
    "trace_distance",
    "MAX_QUBITS",
    "MAX_UNITARY_QUBITS",
    "SUPPORT_DROP",
]

MAX_QUBITS = 24
MAX_UNITARY_QUBITS = 8


# simulate_support drops amplitudes at or below this magnitude: the lowered
# Gray-code ladders of sqsp's merges leave ~1e-17 residues where exact
# arithmetic cancels, and kept they grow the support to every pattern a
# ladder touches
SUPPORT_DROP = 1e-15


class CapacityError(ValueError):
    """Register too wide for dense simulation."""


class UnsupportedGateError(ValueError):
    """Gate kind that the support simulator does not apply."""


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]])


_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _slots(n: int, target: int, controls) -> tuple[tuple, tuple]:
    """Index tuples of the target's 0 and 1 halves with every control set;
    the trailing Ellipsis keeps a fully indexed slot a 0-d view."""
    idx: list = [slice(None)] * n
    for c in controls:
        idx[n - 1 - c] = 1
    i0, i1 = list(idx), list(idx)
    i0[n - 1 - target], i1[n - 1 - target] = 0, 1
    return (*i0, ...), (*i1, ...)


def _pattern_grid(values: np.ndarray, n: int, target: int, controls) -> np.ndarray:
    """Per-pattern ``values`` (``controls[j]`` is bit j of the pattern) shaped
    to broadcast over one target half of the ``[2]*n`` view."""
    k = len(controls)
    # axis i of the pattern grid holds bit k-1-i; the half's axes run from
    # the highest qubit down
    order = sorted(range(k), key=lambda j: controls[j], reverse=True)
    grid = values.reshape([2] * k).transpose([k - 1 - j for j in order])
    shape = [1] * (n - 1)
    for c in controls:
        shape[n - 1 - c - (c < target)] = 2
    return grid.reshape(shape)


def _apply_1q(
    psi: np.ndarray, n: int, mat, target: int, controls, work: np.ndarray
) -> None:
    """In-place application of a controlled single-qubit matrix; the four
    rows of ``work`` hold its temporaries.  Entries ``mat[i][j]`` may be
    arrays broadcasting over the target's halves."""
    view = psi.reshape([2] * n)
    s0, s1 = _slots(n, target, controls)
    v0, v1 = view[s0], view[s1]
    a, b, ma, mb = (w[: v0.size].reshape(v0.shape) for w in work)
    np.copyto(a, v0)
    np.copyto(b, v1)
    # sum into the contiguous buffer and copy: ufuncs writing into the
    # strided halves directly run about 15% slower
    (m00, m01), (m10, m11) = mat
    np.add(np.multiply(m00, a, out=ma), np.multiply(m01, b, out=mb), out=ma)
    np.copyto(v0, ma)
    np.add(np.multiply(m10, a, out=ma), np.multiply(m11, b, out=mb), out=ma)
    np.copyto(v1, ma)


def _apply_h(psi: np.ndarray, n: int, target: int, work: np.ndarray) -> None:
    """H in four passes: the products and sums of the 2x2 path, bit for bit,
    without its copies of the halves."""
    view = psi.reshape([2] * n)
    s0, s1 = _slots(n, target, ())
    v0, v1 = view[s0], view[s1]
    ma, mb = (w[: v0.size].reshape(v0.shape) for w in work[2:])
    np.multiply(_H[0, 0], v0, out=ma)
    np.multiply(_H[0, 0], v1, out=mb)
    np.add(ma, mb, out=v0)
    np.subtract(ma, mb, out=v1)


def _apply_diag(psi: np.ndarray, n: int, phases: tuple, target: int, controls) -> None:
    """Diagonal gate: multiply the target's 0/1 slices under the controls;
    a phase of None leaves its slice alone."""
    view = psi.reshape([2] * n)
    for sel, phase in zip(_slots(n, target, controls), phases):
        if phase is not None:
            view[sel] *= phase


def _apply_fan(psi: np.ndarray, n: int, fan, work: np.ndarray) -> None:
    """A run of CPHASEs on one target as one multiply of the target's |1>
    half by the product of their phase factors, laid onto the control axes;
    a lone CPHASE multiplies the quarter under its control."""
    target = fan[0].targets[0]
    # half the memory traffic of the half-register multiply, and no
    # broadcast over a short inner axis when the control is above the target
    if len(fan) == 1:
        _apply_diag(psi, n, (None, np.exp(1j * fan[0].angle)), target, fan[0].controls)
        return
    phases: dict = {}
    for g in fan:
        c = g.controls[0]
        phases[c] = phases.get(c, 1.0) * np.exp(1j * g.angle)
    # the factor over the controls, highest qubit first as the view's axes
    # run, built by outer products in two rows of ``work``, so that a fan
    # allocates nothing
    factor = work[0, :1]
    factor[0] = 1.0
    shape = [1] * (n - 1)
    for j, c in enumerate(sorted(phases, reverse=True)):
        out = work[(j + 1) % 2, : 2 * factor.size].reshape(factor.size, 2)
        factor = np.multiply.outer(factor, (1.0, phases[c]), out=out).reshape(-1)
        shape[n - 1 - c - (c < target)] = 2
    _apply_diag(psi, n, (None, factor.reshape(shape)), target, ())


def _apply_gate(psi: np.ndarray, n: int, g, work: np.ndarray) -> None:
    kind, target, controls = g.kind, g.targets[0], g.controls
    if kind == "H":
        _apply_h(psi, n, target, work)
    elif kind == "RX":
        _apply_1q(psi, n, _rx(g.angle), target, (), work)
    elif kind in ("X", "CX", "CCX"):
        _apply_1q(psi, n, _X, target, controls, work)
    elif kind == "PHASE":
        _apply_diag(psi, n, (None, np.exp(1j * g.angle)), target, ())
    elif kind in ("RY", "UCRY"):
        half = np.atleast_1d(g.angle) / 2.0
        c, s = (_pattern_grid(f(half), n, target, controls) for f in (np.cos, np.sin))
        _apply_1q(psi, n, ((c, -s), (s, c)), target, (), work)
    elif kind in ("RZ", "UCRZ"):
        half = _pattern_grid(np.exp(0.5j * np.atleast_1d(g.angle)), n, target, controls)
        _apply_diag(psi, n, (np.conj(half), half), target, ())
    else:  # pragma: no cover - the IR validates kinds on construction
        raise ValueError(f"cannot simulate gate kind {kind!r}")


def _permute(psi: np.ndarray, n: int, swaps, work: np.ndarray) -> None:
    """Apply a run of SWAPs as one axis permutation: one transposed copy
    into ``work`` and one copy back, whatever the run's length."""
    axes = list(range(n))
    for g in swaps:
        a, b = g.qubits
        x, y = n - 1 - a, n - 1 - b
        axes[x], axes[y] = axes[y], axes[x]
    view = psi.reshape([2] * n)
    moved = work[:2].reshape(-1)[: 2**n].reshape([2] * n)
    np.copyto(moved, view.transpose(axes))
    np.copyto(view, moved)


def _run_key(g):
    """Gates that :func:`simulate` applies as one run share a key: SWAPs
    "SWAP", CPHASEs their target; every other gate None, one at a time."""
    if g.kind == "SWAP":
        return "SWAP"
    return g.targets[0] if g.kind == "CPHASE" else None


def simulate(circuit: Circuit, initial=None) -> np.ndarray:
    """Run the circuit on ``initial`` and return the state.

    ``initial`` is None for |0...0>, a dense vector (copied), or a sparse
    state (a :class:`hqsp.loaders.SparseState` or :class:`SupportState`)
    whose ``indices`` and ``amplitudes`` are scattered into a fresh register.
    Each run of consecutive SWAPs is one axis permutation of the register,
    each run of consecutive CPHASEs on one target one multiply; every other
    gate is applied on its own.  Each acts on the active width only.
    """
    n = circuit.n_qubits
    if n > MAX_QUBITS:
        raise CapacityError(
            f"{n} qubits exceeds the {MAX_QUBITS}-qubit dense-simulation cap"
        )
    if initial is None or hasattr(initial, "indices"):
        idx, amps = (0, 1.0) if initial is None else (initial.indices, initial.amplitudes)
        if np.any((idx < 0) | (idx >= 2**n)):
            raise ValueError(f"initial basis indices must lie in [0, {2**n})")
        psi = np.zeros(2**n, dtype=complex)
        psi[idx] = amps
        w = int(np.max(idx, initial=0)).bit_length()
    else:
        psi = np.asarray(initial, dtype=complex).copy()
        if psi.shape != (2**n,):
            raise ValueError(f"initial state must have length {2**n}")
        w = n
    # per-gate temporaries live here, so a gate allocates nothing and the
    # run's page faults do not depend on the allocator's history
    work = np.empty((4, 2 ** (n - 1)), dtype=complex)
    # the active width w: no gate has touched a qubit at or above it, so
    # every amplitude past psi[:2**w] is an exact zero that gates skip
    for key, run in groupby(circuit, key=_run_key):
        if key is None:
            for g in run:
                w = max(w, 1 + max(g.qubits))
                _apply_gate(psi[: 2**w], w, g, work)
            continue
        run = list(run)
        w = max(w, 1 + max(q for g in run for q in g.qubits))
        if key == "SWAP":
            _permute(psi[: 2**w], w, run, work)
        else:
            _apply_fan(psi[: 2**w], w, run, work)
    return psi


@dataclass(frozen=True, eq=False)
class SupportState:
    """A :func:`simulate_support` run: the kept basis indices, ascending, and
    their amplitudes, the largest support any gate left, the squared norm dropped."""

    indices: np.ndarray
    amplitudes: np.ndarray
    peak_support: int
    pruned_mass: float


def _angles(g, idx: np.ndarray) -> np.ndarray:
    """The angle an RY, RZ, UCRY or UCRZ applies at each basis index."""
    return np.atleast_1d(g.angle)[_pattern_of(idx, g.controls)]


_LOADER_KINDS = frozenset({"X", "CX", "RY", "RZ", "UCRY", "UCRZ"})
_ROTATIONS = frozenset({"RY", "RZ", "UCRY", "UCRZ"})


def simulate_support(circuit: Circuit) -> SupportState:
    """Run a loader circuit from |0...0> on its support only.

    Applies X, CX, RY, RZ, UCRY and UCRZ, the kinds the loaders emit; any
    other kind raises :class:`UnsupportedGateError`.  Amplitudes of
    magnitude at most :data:`SUPPORT_DROP` are dropped after each rotation.
    The kept amplitudes come out in ascending index order.  A maximal run
    of gates on one target with a rotation in it is one
    :func:`_paired_run`; one without only moves indices.
    """
    idx = np.zeros(1, dtype=np.int64)
    amp = np.ones(1, dtype=complex)
    peak, pruned = 1, 0.0
    for target, run in groupby(circuit, key=lambda g: g.targets[0]):
        run = list(run)
        for g in run:
            if g.kind not in _LOADER_KINDS:
                raise UnsupportedGateError(
                    f"support simulation does not apply gate kind {g.kind!r}"
                )
        if not any(g.kind in _ROTATIONS for g in run):
            for g in run:
                flip = 1 if g.kind == "X" else (idx >> g.controls[0]) & 1
                idx = idx ^ (flip << target)
            continue
        idx, amp, peak, pruned = _paired_run(run, target, idx, amp, peak, pruned)
    order = np.argsort(idx)
    return SupportState(idx[order], amp[order], peak, pruned)


def _paired_run(run, target, idx, amp, peak, pruned):
    """One run of gates on ``target`` over the support paired by the index
    with the target bit cleared, which no gate of the run changes; returns
    the (idx, amp, peak, pruned) after it.  Slot row r of pair j holds the
    amplitude at ``lows[j]`` with target bit ``r ^ flip``, ``flip`` being
    the parity of the pair's X and CX toggles so far; ``live`` marks the
    slots the support holds, and every other slot holds an exact 0, as the
    pair a rotation builds from the support alone would."""
    lows, col = np.unique(idx & ~(1 << target), return_inverse=True)
    row = (idx >> target) & 1
    slots = np.zeros((2, len(lows)), dtype=complex)
    live = np.zeros(slots.shape, dtype=bool)
    slots[row, col.ravel()] = amp
    live[row, col.ravel()] = True
    # flips[i]: each pair's flip after the run's first i toggles
    toggles = [
        (g.controls[0], 0) if g.kind == "CX" else (0, 1) for g in run if g.kind in ("X", "CX")
    ]
    shift, ones = np.array(toggles, dtype=np.int64).reshape(-1, 2).T[:, :, None]
    flips = np.zeros((len(toggles) + 1, len(lows)), dtype=np.int64)
    np.bitwise_xor.accumulate((lows >> shift) & 1 | ones, axis=0, out=flips[1:])
    unflipped = flips == 0
    i = 0
    for g in run:
        if g.kind in ("X", "CX"):
            i += 1
        elif g.kind in ("RZ", "UCRZ"):
            theta = _angles(g, lows)
            lo, hi = np.exp(-0.5j * theta), np.exp(0.5j * theta)
            # row 0 holds the |1> of a flipped pair
            np.multiply(slots, np.where(unflipped[i], (lo, hi), (hi, lo)), out=slots, where=live)
        else:
            # an RY's one angle, for every pair, as _angles would give it
            half = np.full(len(lows), 0.5 * g.angle) if g.kind == "RY" else 0.5 * _angles(g, lows)
            c, s = np.cos(half), np.sin(half)
            # an unflipped pair's rows become c*a0 - s*a1 and c*a1 + s*a0; a
            # flipped pair's rows are the other way round, which swaps the
            # signs: the products and sums of the unpaired form, as a
            # negation is exact
            sp = s * slots
            np.negative(sp, out=sp, where=unflipped[i])
            slots *= c
            slots[0] += sp[1]
            slots[1] -= sp[0]
            mag = np.abs(slots)
            live = mag > SUPPORT_DROP
            if not live.all():
                dropped = ~live
                pruned += float((mag[dropped] ** 2).sum())
                slots[dropped] = 0
            peak = max(peak, int(np.count_nonzero(live)))
    rows = np.array([[0], [1]]) ^ flips[i]
    return (lows | rows << target)[live], slots[live], peak, pruned


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Full unitary matrix of the circuit (capped at 8 qubits)."""
    n = circuit.n_qubits
    if n > MAX_UNITARY_QUBITS:
        raise CapacityError(
            f"{n} qubits exceeds the {MAX_UNITARY_QUBITS}-qubit unitary cap"
        )
    dim = 2**n
    u = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        basis = np.zeros(dim, dtype=complex)
        basis[j] = 1.0
        u[:, j] = simulate(circuit, basis)
    return u


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 with defensive normalisation of both inputs."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ValueError("fidelity of a zero vector is undefined")
    overlap = np.vdot(a, b) / (na * nb)
    return min(1.0, float(np.abs(overlap)) ** 2)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Pure-state trace distance sqrt(1 - F).

    Computed from the residual a - <b|a>b, whose squared norm equals 1 - F
    exactly for unit vectors; summing small residuals avoids the
    cancellation that flooring 1 - F at machine epsilon would cause, so
    near-identical states resolve far below sqrt(eps).
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ValueError("trace distance of a zero vector is undefined")
    a = a / na
    b = b / nb
    r = a - np.vdot(b, a) * b
    return math.sqrt(min(1.0, float(np.real(np.vdot(r, r)))))
