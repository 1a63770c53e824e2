"""State-preparation circuit synthesis.

Three loaders with very different cost regimes:

* :func:`eae_real` - exact amplitude encoding of a real vector through a
  cascade of uniformly controlled RY rotations; exactly ``2**n - 2`` CX.
* :func:`dense_complex_load` - the same RY cascade on magnitudes followed
  by a uniformly controlled RZ cascade resolving relative phases; exactly
  ``2 * (2**m - 2)`` CX, global phase uncorrected.
* :func:`sqsp` - sparse state preparation by basis-state merging.  Support
  states are disentangled pairwise (basis state 0 first, then descending
  Hamming weight, ties by index) until one basis state remains; the
  preparation circuit is the reversed adjoint, each merge emitted as its
  gates reversed with their angles negated.  Each merge aligns the pair
  to a single differing bit with CX conjugation, separates it from the
  remaining support with a greedy control cover C, and rotates through a
  Gray-code RY multiplexer costing ``2**|C|`` CX.  The pair and its kept
  bit are the cheapest over the candidates nearest in Hamming distance.
  Each (candidate x, kept bit b) gets a cost floor, the CX conjugation
  plus ``2**f`` for the f cover bits that some other state forces by
  differing from x or y in that bit alone; those are read off two
  neighbour bitmasks, of x and of y, computed once per merge for every
  state.  Only a choice whose floor can beat the best so far runs its
  cover search, which leaves the choice unchanged.
  The ladder cost does not depend on how many of its angle slots are used,
  so further distance-1 pairs whose cover patterns are free ride along in
  the same multiplexer at no CX cost.  One NumPy pass over the alive
  states holds the rider rule: it scores every bit the cover could grow by
  to recruit more of them, and its last run lists the riders.  Patterns
  are the IR's (:func:`hqsp.circuit._pattern_of`).
  When the support is dense inside its bounding subcube (where covers stop
  being small), the synthesizer switches to an amplitude cascade over the
  cube's free bits at ``2**k - 2`` CX (doubled for complex amplitudes)
  instead.

The cascades, sqsp's subcube one included, emit one native ``UCRY``/``UCRZ``
op per level (lowered and peephole-cancelled only when two of its lowered
CX would meet, which its angles show).  Merges emit the lowered ladder,
because the peephole pass run on their reversed adjoint cancels CX pairs
inside ladders.  Every CX count quoted here is of the lowered circuit
(:func:`hqsp.circuit.decompose`).

The SQSP CX count is bounded by ``c * n * d`` with c = 8 on the randomized
families exercised in the test suite (see the regression-slope test).  It
never exceeds the cascade over the support's bounding subcube: when the
merged circuit would cost more CX, :func:`sqsp` returns the cascade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, cancel_adjacent_inverses, decompose, gate
from .circuit import _decompose_gate, _pattern_of

__all__ = [
    "SparseState",
    "ComplexAmplitudeError",
    "sqsp",
    "eae_real",
    "dense_complex_load",
    "dense_load",
    "SQSP_COST_CONSTANT",
]

# documented linear-cost constant for the merging SQSP (per module docstring)
SQSP_COST_CONSTANT = 8

_REAL_EPS = 1e-12

# per-state CX estimate used only to pick between the merging strategy and a
# dense cascade over the support's bounding subcube; measured on the tested
# signal families, where merges average well under this
_MERGE_CX_PER_STATE = 8


class ComplexAmplitudeError(ValueError):
    """Real-only loader got complex amplitudes (use dense_complex_load)."""


@dataclass(frozen=True, eq=False)
class SparseState:
    """d nonzero amplitudes on an n-qubit register, unit norm: read-only copies
    of the int64 ``indices``, ascending, and their complex ``amplitudes``."""

    n: int
    indices: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        idx, amps = np.asarray(self.indices), np.asarray(self.amplitudes, dtype=complex)
        if idx.ndim != 1 or amps.shape != idx.shape:
            raise ValueError("need one amplitude per basis index")
        if not len(idx):
            raise ValueError("sparse state needs at least one entry")
        if idx.dtype.kind not in "iu":
            raise ValueError(f"basis indices must be integers, got dtype {idx.dtype}")
        # cast before sorting: a uint64 past 2**63 wraps negative, first in line
        idx = idx.astype(np.int64, copy=False)
        order = np.argsort(idx)
        idx, amps = idx[order], amps[order]
        if np.any(idx[1:] == idx[:-1]):
            raise ValueError("duplicate basis indices")
        if idx[0] < 0 or int(idx[-1]) >= 2**self.n:
            raise ValueError(f"indices out of range for n={self.n}")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        with np.errstate(over="ignore"):  # an overflow reads inf, rejected below
            norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > 2e-12:
            raise ValueError(f"amplitudes have squared norm {norm2}, expected 1")
        for name, arr in (("indices", idx), ("amplitudes", amps)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def d(self) -> int:
        return len(self.indices)

    @classmethod
    def from_compressed(cls, compressed) -> "SparseState":
        return cls(compressed.n, *compressed.support())

    def to_dense(self) -> np.ndarray:
        out = np.zeros(2**self.n, dtype=complex)
        out[self.indices] = self.amplitudes
        return out


# ---------------------------------------------------------------------------
# Dense cascades
# ---------------------------------------------------------------------------


def _norm_tree(magnitudes: np.ndarray) -> list[np.ndarray]:
    """Pairwise-norm pyramid, finest level first."""
    levels = [magnitudes]
    cur = magnitudes
    while len(cur) > 1:
        cur = np.sqrt(cur[0::2] ** 2 + cur[1::2] ** 2)
        levels.append(cur)
    return levels


def _ry_cascade(amplitudes: np.ndarray, n: int) -> list[Gate]:
    """One UCRY per level realizing a real amplitude vector.

    Level k targets qubit n-1-k with the higher qubits as controls; signs
    are folded into the finest level's angles.
    """
    tree = _norm_tree(np.abs(amplitudes.astype(float)))
    signed = amplitudes.astype(float)
    gates: list[Gate] = []
    for k in range(n):
        target = n - 1 - k
        children = signed if k == n - 1 else tree[n - 1 - k]
        theta = 2.0 * np.arctan2(children[1::2], children[0::2])
        gates.append(gate("UCRY", *range(target + 1, n), target, angle=theta))
    return gates


def eae_real(amplitudes) -> Circuit:
    """Exact amplitude encoding of a real unit vector; CX count 2**n - 2."""
    amps = np.asarray(getattr(amplitudes, "samples", amplitudes))
    if np.iscomplexobj(amps):
        if np.any(np.abs(amps.imag) > _REAL_EPS):
            raise ComplexAmplitudeError(
                "eae_real loads real vectors only; use dense_complex_load"
            )
        amps = amps.real
    n = int(math.log2(len(amps)))
    if 2**n != len(amps):
        raise ValueError("amplitude vector length must be a power of two")
    if abs(np.linalg.norm(amps) - 1.0) > 1e-9:
        raise ValueError("amplitude vector must have unit norm")
    circ = Circuit(n)
    circ.extend(_ry_cascade(amps, n))
    return circ


def _phase_deltas(phases: np.ndarray) -> list[np.ndarray]:
    """Per-level phase differences; means propagate to coarser levels."""
    deltas = []
    cur = phases
    while len(cur) > 1:
        deltas.append(cur[1::2] - cur[0::2])
        cur = (cur[0::2] + cur[1::2]) / 2.0
    return deltas  # deltas[j] pairs blocks of size 2**j; root mean is dropped


def dense_complex_load(coefficients) -> Circuit:
    """Load a complex unit vector on m qubits; CX count 2 * (2**m - 2).

    Magnitudes go through the RY cascade, relative phases through an RZ
    cascade (pairwise differences at each tree level).  The mean phase at
    the root is a global phase and stays uncorrected.  For real input the
    RZ angles all vanish; lowering elides those rotations but keeps the
    multiplexer CX ladders, so the count stays at the formula value.
    """
    coeffs = np.asarray(coefficients, dtype=complex)
    m = int(math.log2(len(coeffs)))
    if 2**m != len(coeffs):
        raise ValueError("coefficient length must be a power of two")
    if abs(np.linalg.norm(coeffs) - 1.0) > 1e-9:
        raise ValueError("coefficient vector must have unit norm")
    circ = Circuit(m)
    circ.extend(_ry_cascade(np.abs(coeffs), m))
    phases = np.where(np.abs(coeffs) > 0, np.angle(coeffs), 0.0)
    deltas = _phase_deltas(phases)
    for target in range(m - 1, -1, -1):
        circ.add("UCRZ", *range(target + 1, m), target, angle=deltas[target])
    return circ


# ---------------------------------------------------------------------------
# Sparse state preparation by basis-state merging
# ---------------------------------------------------------------------------


def _bits(x: int) -> list[int]:
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _popcounts(arr: np.ndarray) -> np.ndarray:
    """Per-element bit counts as int64 on every NumPy version."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(arr).astype(np.int64)
    return np.array([int(v).bit_count() for v in arr], dtype=np.int64)


def _greedy_cover(targets: np.ndarray, b: int, span: int) -> list[int]:
    """Smallest-effort control set separating one state from others.

    ``targets`` is an int64 array of each other state's difference from
    it; the returned bits (below ``span``, never ``b``) make its pattern
    unique against every one.  Greedy by maximum kills over the matrix of
    difference bits; ``argmax`` takes the first maximum, so ties go to the
    lower bit index.
    """
    differs = (targets[:, None] >> np.arange(span)) & 1
    differs[:, b] = 0
    cover: list[int] = []
    while len(differs):
        kills = differs.sum(axis=0)
        c = int(kills.argmax())
        if kills[c] == 0:
            raise RuntimeError("merge constraints are not separable")
        cover.append(c)
        differs = differs[differs[:, c] == 0]
    return sorted(cover)


def _is_real(amps) -> bool:
    """Whether every imaginary part of ``amps`` is below ``_REAL_EPS``."""
    return bool(np.all(np.abs(np.imag(amps)) < _REAL_EPS))


def dense_load(amplitudes) -> Circuit:
    """Dense exact load of a unit vector: :func:`eae_real` on its real part
    when :func:`_is_real`, else :func:`dense_complex_load`."""
    amps = np.asarray(amplitudes)
    return eae_real(amps.real) if _is_real(amps) else dense_complex_load(amps)


def _subcube_cascade(indices, amps, cube_bits: list[int]) -> list[Gate]:
    """Amplitude cascade over the support's bounding subcube.

    The support is re-coordinatized onto the cube's free bits (ascending),
    padded with zero amplitudes, and loaded by :func:`dense_load`; gate
    qubits are mapped back afterwards.
    """
    v = np.zeros(2 ** len(cube_bits), dtype=complex)
    v[_pattern_of(indices, cube_bits)] = amps
    return [
        Gate(g.kind, tuple(cube_bits[q] for q in g.qubits), g.angle)
        for g in dense_load(v)
    ]


def _subcube_circuit(n: int, base: int, indices, amps, cube_bits) -> Circuit:
    """The X gates setting ``base``, then the subcube cascade as native
    levels, or lowered and peephole-cancelled when that finds a CX pair."""
    circ = Circuit(n).extend(gate("X", b) for b in _bits(base))
    levels = _subcube_cascade(indices, amps, cube_bits)
    circ.extend(levels)
    if _lowered_pair_meets(levels):
        return cancel_adjacent_inverses(decompose(circ))
    return circ


def _lowered_pair_meets(levels: list[Gate]) -> bool:
    """Whether two CX of the lowered cascade meet, read off the angles.

    A one-control level lowers to R(phi0) CX R(phi1) CX, so its CX pair
    meets when phi1 is elided.  On a two-bit complex cube the RY levels'
    last CX also meets the one-control RZ level's first CX when the
    zero-control RZ level and that level's phi0 are both elided.  No other
    pair can meet: in a ladder of two or more controls consecutive CX have
    different controls, and every other level starts on a wire the level
    before it touched last with a different gate.
    """
    kept = [g.walk[1] for g in levels]
    if any(len(mask) == 2 and not mask[1] for mask in kept):
        return True
    kinds = [(g.kind, len(g.controls)) for g in levels]
    two_bit_complex = [("UCRY", 0), ("UCRY", 1), ("UCRZ", 0), ("UCRZ", 1)]
    return kinds == two_bit_complex and not kept[2][0] and not kept[3][0]


def _merge_angle(a0, a1, kept_value: int) -> float:
    """RY angle sending the (slot0, slot1) amplitude pair onto the kept slot."""
    if kept_value == 0:
        return -2.0 * math.atan2(a1, a0)
    return 2.0 * math.atan2(a0, a1)


def sqsp(state: SparseState) -> Circuit:
    """Sparse state preparation; simulate(result) equals the state up to a
    global phase.  CX cost is linear in d on the tested families (see the
    module docstring for the c * n * d bound) and never above the cascade
    over the support's bounding subcube, ``2**k - 2`` CX for k free bits,
    doubled for complex amplitudes.  Support states are processed basis
    state 0 first, then by descending Hamming weight, ties by index, on
    every NumPy version.  Each merge is planned by :func:`_plan_merge`,
    which prices its candidates from neighbour bitmasks and searches their
    covers cheapest floor first."""
    n, indices, amps = state.n, state.indices, state.amplitudes
    if state.d == 1:
        return Circuit(n).extend(gate("X", b) for b in _bits(int(indices[0])))

    span = int(indices.max()).bit_length()

    # dense supports: covers blow up when most neighbouring patterns are
    # occupied, so load the bounding subcube with a plain cascade instead
    base = int(np.bitwise_and.reduce(indices))
    cube_bits = _bits(int(np.bitwise_or.reduce(indices)) ^ base)
    dense_cx = (2 ** len(cube_bits) - 2) * (1 if _is_real(amps) else 2)
    subcube = (n, base, indices, amps, cube_bits)
    if dense_cx < _MERGE_CX_PER_STATE * state.d:
        return _subcube_circuit(*subcube)

    weights = _popcounts(indices)
    # the docstring's processing order, spelled out key by key so that it
    # cannot hang on the dtype _popcounts returns
    order = np.lexsort((indices, -weights, indices != 0))

    # the basis states not merged away yet, with their tracked amplitudes
    amp_of = {int(indices[i]): complex(amps[i]) for i in range(len(indices))}
    merge_steps: list[list[Gate]] = []

    for oi in order:
        y = int(indices[oi])
        if y not in amp_of or len(amp_of) == 1:
            continue
        alive_arr = np.array(sorted(amp_of), dtype=np.int64)
        step = _plan_merge(y, alive_arr, amp_of, span)
        merge_steps.append(_emit_merge(step, amp_of))

    # one basis state remains; its amplitude is a pure (ignored) global phase
    (final_idx,) = amp_of
    prep = [gate("X", b) for b in _bits(final_idx)]
    for step_gates in reversed(merge_steps):
        prep.extend(step_gates)
    # every gate acts below span <= n
    merged = cancel_adjacent_inverses(Circuit._of(n, prep))
    # the guarantee: merges hold only base gates, so this counts lowered CX
    if sum(g.kind == "CX" for g in merged) > dense_cx:
        return _subcube_circuit(*subcube)
    return merged


@dataclass
class _MergeStep:
    b: int
    spread: int
    cover: list[int]
    pairs: list[tuple[int, int]]  # (kept x, removed y)


def _plan_merge(y, alive_arr, amp_of, span) -> _MergeStep:
    """The cheapest merge of ``y`` into another alive state x, with its
    free riders.

    Candidates go by Hamming distance to y, then by index, and the first
    (x, kept bit b) of least cost wins.  Each is floored from the neighbour
    bitmasks of x and y (:func:`_merge_rows`), and only those whose floor
    can beat the best so far run their cover search
    (:func:`_cheapest_merge`)."""
    cost, x, b, cover = _cheapest_merge(y, alive_arr[alive_arr != y], span)
    step = _MergeStep(b=b, spread=x ^ y ^ (1 << b), cover=cover, pairs=[(x, y)])
    if not step.spread and cover and _is_real_pair(amp_of[x], amp_of[y]):
        _add_free_riders(step, alive_arr, amp_of, span)
    return step


def _neighbours(states: np.ndarray, pool: np.ndarray, span: int) -> np.ndarray:
    """Per state, the mask of the bits j below ``span`` for which
    ``state ^ 2**j`` is in ``pool`` (sorted ascending)."""
    bits = np.int64(1) << np.arange(span)
    flipped = states[:, None] ^ bits
    hit = pool.take(np.searchsorted(pool, flipped), mode="clip") == flipped
    return (hit * bits).sum(axis=1)


def _merge_rows(y: int, others: np.ndarray, span: int):
    """The candidate merges of ``y`` into an x of ``others`` (every other
    alive state, ascending), one row per (x, kept bit b), in position
    order: x by Hamming distance m to y, then by index, and b ascending
    over the bits where x and y differ.  Returns the rows' x, b, CX
    conjugation cost 2(m-1) and cost floor.

    After the conjugation a state z must be separated from whichever of x
    and y it shares bit b with, so its difference is ``(z ^ x) & ~b`` or
    ``(z ^ y) & ~b``, and a one-bit difference forces that bit into the
    cover.  Those are exactly the bits j other than b for which
    ``x ^ 2**j`` or ``y ^ 2**j`` is alive, so the floor adds
    ``2**max(1, f)`` for the f such bits of the neighbour masks
    ``N(x) | N(y)`` (nothing without other states).  Only y itself among
    ``others`` differs from it nowhere, which no cover separates.
    """
    dists = _popcounts(others ^ y)
    if not dists.all():
        raise RuntimeError("merge constraints are not separable")
    order = np.lexsort((others, dists))
    xs = others[order]
    pos, b = np.nonzero((xs[:, None] ^ y) >> np.arange(span) & 1)
    conj = 2 * (dists[order][pos] - 1)
    if len(others) == 1:
        return xs[pos], b, conj, conj
    nb = _neighbours(np.append(xs, y), others, span)
    forced = (nb[pos] | nb[-1]) & ~(np.int64(1) << b)
    return xs[pos], b, conj, conj + 2 ** np.maximum(1, _popcounts(forced))


def _cheapest_merge(y: int, others: np.ndarray, span: int, cap=math.inf):
    """The first (cost, x, b, cover) of least cost below ``cap`` over the
    rows of :func:`_merge_rows`; None when nothing costs less than ``cap``.

    Rows are searched in (floor, position) order, one floor at a time with
    their differences built together, until the next floor exceeds the
    best cost, or equals it at a later position.  Every row of least cost
    and earlier position has a floor at most that cost, so the first
    least-cost row is the one a search of every row would pick.
    """
    x, b, conj, floors = _merge_rows(y, others, span)
    ranked = np.argsort(floors, kind="stable")
    ranked_floors = floors[ranked]
    best, best_row = None, -1
    start = 0
    while start < len(ranked):
        floor = ranked_floors[start]
        if floor > cap or (floor == cap and ranked[start] > best_row):
            break
        end = np.searchsorted(ranked_floors, floor, side="right")
        batch, start = ranked[start:end], end
        xb, bb = x[batch][:, None], (np.int64(1) << b[batch])[:, None]
        diffs = np.where((others ^ xb) & bb, others ^ y, others ^ xb) & ~bb
        for r, row_diffs, own in zip(batch.tolist(), diffs, others == xb):
            if floor == cap and r > best_row:
                break
            cover = _greedy_cover(row_diffs[~own], int(b[r]), span)
            cost = int(conj[r]) + (2 ** len(cover) if cover else 0)
            if cost < cap or (cost == cap and r < best_row):
                best, cap, best_row = (cost, int(x[r]), int(b[r]), cover), cost, r
    return best


def _is_real_pair(a, c) -> bool:
    return abs(a.imag) < _REAL_EPS and abs(c.imag) < _REAL_EPS


# a rider merged now saves at least its rotation plus a small future cover;
# used when deciding whether recruiting more riders pays for a larger ladder
_RIDER_CX_ESTIMATE = 4


def _riders(cover, b, alive_arr, amp_of, seed) -> tuple[np.ndarray, np.ndarray]:
    """The pairs that may ride along under ``cover``, as ``(reps, rides)``.

    ``reps`` holds the low state z of each pair {z, z | b} of alive states
    with real amplitudes outside ``seed``; ``rides`` holds, per rep, the AND
    of its differences from the other alive states that share its pattern,
    with bit b cleared.  The pair rides under ``cover`` when no other state
    shares its pattern (``rides == ~b``), and under ``cover`` plus a bit c
    when every one that does differs from z in c (bit c of ``rides`` set).
    """
    b_bit = 1 << b
    reps = np.array([
        z for z in alive_arr.tolist()
        if not z & b_bit and z not in seed and z | b_bit in amp_of
        and _is_real_pair(amp_of[z], amp_of[z | b_bit])
    ], dtype=np.int64)
    shared = _pattern_of(alive_arr, cover) == _pattern_of(reps, cover)[:, None]
    shared &= (alive_arr | b_bit) != (reps | b_bit)[:, None]
    rides = np.bitwise_and.reduce(np.where(shared, alive_arr ^ reps[:, None], -1), axis=1)
    return reps, rides & ~b_bit


def _add_free_riders(step, alive_arr, amp_of, span) -> None:
    """Fold further distance-1 pairs into the pinned pair's multiplexer.

    The UCRY ladder costs 2**|C| CX no matter how many of its angle slots
    are nonzero, so pairs whose cover patterns are occupied by nobody else
    ride along for free.  When the support is locally dense the slots are
    all taken; growing the cover by one bit doubles the ladder but also
    doubles the slots, so growth is accepted while each extra bit recruits
    enough new riders to beat merging them individually later.  One
    :func:`_riders` pass per cover scores every trial bit, and the last
    pass lists the riders, each as (kept z, removed z | b).
    """
    seed = step.pairs[0]
    b_bit = 1 << step.b
    while True:
        reps, rides = _riders(step.cover, step.b, alive_arr, amp_of, seed)
        scores = ((rides[:, None] >> np.arange(span)) & 1).sum(axis=0)
        # adding a cover bit leaves the cover as it is: its score is today's
        gains = scores - scores[step.cover[0]]
        c = int(gains.argmax())
        if gains[c] <= 0 or 2 ** len(step.cover) >= _RIDER_CX_ESTIMATE * gains[c]:
            break
        step.cover = sorted(step.cover + [c])
    step.pairs.extend((z, z | b_bit) for z in reps[rides == ~b_bit].tolist())


def _emit_merge(step: _MergeStep, amp_of: dict) -> list[Gate]:
    """Disentangle one (possibly batched) merge, updating the tracked
    classical amplitudes, and return the gates that prepare it: the
    disentangling gates in reverse order with their angles negated."""
    b, spread, cover = step.b, step.spread, step.cover
    b_bit = 1 << b
    conjugation = [gate("CX", b, j) for j in _bits(spread)]
    phasing: list[Gate] = []

    x0, y0 = step.pairs[0]
    a_x, a_y = amp_of[x0], amp_of[y0]
    if not _is_real_pair(a_x, a_y):
        # equalize the pair's phases with one RZ on the kept bit; the phase
        # kick on every other amplitude is tracked classically
        slot0, slot1 = ((a_x, a_y) if not x0 & b_bit else (a_y, a_x))
        gamma = float(np.angle(slot0) - np.angle(slot1))
        phasing.append(gate("RZ", b, angle=-gamma))
        lo, hi = np.exp(-0.5j * gamma), np.exp(0.5j * gamma)
        for z in list(amp_of):
            amp_of[z] *= hi if z & b_bit else lo

    pattern_angles = np.zeros(2 ** len(cover))
    for x, y in step.pairs:
        a_x, a_y = amp_of[x], amp_of[y]
        v = (x >> b) & 1
        slot0, slot1 = ((a_x, a_y) if v == 0 else (a_y, a_x))
        phase = 1.0 + 0.0j
        if not _is_real_pair(slot0, slot1):
            phase = np.exp(0.5j * (np.angle(slot0) + np.angle(slot1)))
            slot0, slot1 = abs(slot0), abs(slot1)
        else:
            slot0, slot1 = slot0.real, slot1.real
        anchor = x ^ spread if (x & b_bit) else x
        pattern_angles[_pattern_of(anchor, cover)] = _merge_angle(slot0, slot1, v)
        amp_of[x] = phase * math.hypot(slot0, slot1)
        del amp_of[y]

    # the ladder of the negated angles is the ladder's inverse reversed: its
    # Walsh angles are the exact negations and it elides the same rotations
    rotation: list[Gate] = []
    if cover:
        rotation = _decompose_gate(gate("UCRY", *cover, b, angle=-pattern_angles))[::-1]
    elif abs(pattern_angles[0]) > 0:
        rotation = [gate("RY", b, angle=-float(pattern_angles[0]))]
    return [*conjugation, *rotation, *phasing, *reversed(conjugation)]
