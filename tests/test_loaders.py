"""State loaders: dense cascades and sparse merging synthesis.

Every loader is checked against the simulator: the prepared state must
match the requested amplitudes (up to global phase for the complex
loaders, which never correct it).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqsp.circuit import Circuit, _pattern_of, cancel_adjacent_inverses, decompose, gate, report
from hqsp.loaders import (
    SQSP_COST_CONSTANT,
    ComplexAmplitudeError,
    SparseState,
    dense_complex_load,
    eae_real,
    sqsp,
)
import hqsp.loaders as loaders
from hqsp.loaders import _add_free_riders, _bits, _cheapest_merge, _greedy_cover, _riders
from hqsp.loaders import _merge_rows
from hqsp.loaders import _subcube_cascade
from hqsp.pipeline import DEFAULT_PPG_RECORDING, _unit_samples, table1_configs
from hqsp.signals import gen_periodic, ingest_waveform_csv
from hqsp.statesim import fidelity, simulate
from hqsp.transforms import (
    ABSOLUTE,
    ThresholdPolicy,
    analyse,
    dft,
    packet_dhwt,
    read_amplitude_csv,
    threshold_normalize,
    write_amplitude_csv,
)

RNG = np.random.default_rng(123)


def _random_sparse(n: int, d: int, complex_amps: bool) -> SparseState:
    idx = RNG.choice(2**n, size=d, replace=False)
    if complex_amps:
        a = RNG.normal(size=d) + 1j * RNG.normal(size=d)
    else:
        a = RNG.normal(size=d).astype(complex)
    a = a / np.linalg.norm(a)
    return SparseState(n, idx, a)


# ---------------------------------------------------------------------------
# SparseState container
# ---------------------------------------------------------------------------


def test_sparse_state_validation():
    with pytest.raises(ValueError, match="qubit"):
        SparseState(0, [0], [1.0])
    with pytest.raises(ValueError, match="at least one entry"):
        SparseState(2, [], [])
    with pytest.raises(ValueError, match="duplicate"):
        SparseState(2, [1, 1], [0.8, 0.6])
    with pytest.raises(ValueError, match="out of range"):
        SparseState(2, [4], [1.0])
    with pytest.raises(ValueError, match="out of range"):
        SparseState(2, [-1], [1.0])
    with pytest.raises(ValueError, match="squared norm"):
        SparseState(2, [0], [0.5])  # norm 0.25
    with pytest.raises(ValueError, match="squared norm inf"):
        SparseState(2, [0, 1], [1e200, 1.0])  # once an OverflowError
    # a float or bool index once loaded basis state 1 without a word
    for indices in ([1.5], [1.0], [1 + 0j], [True]):
        with pytest.raises(ValueError, match="integers"):
            SparseState(2, indices, [1.0])
    for indices, amps in (([0, 1], [1.0]), ([0], [0.6, 0.8]), ([[0, 1]], [[0.6, 0.8]])):
        with pytest.raises(ValueError, match="one amplitude per basis index"):
            SparseState(2, indices, amps)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_sparse_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="finite"):
        SparseState(2, [0], [bad])
    with pytest.raises(ValueError, match="finite"):
        SparseState(2, [0, 3], [1.0, bad])


def test_sparse_state_sorts_and_densifies():
    indices, amps = np.array([5, 1]), np.array([0.6, 0.8])
    s = SparseState(3, indices, amps)
    assert s.indices.tolist() == [1, 5] and s.amplitudes.tolist() == [0.8, 0.6]
    assert s.indices.dtype == np.int64 and s.amplitudes.dtype == complex
    assert s.d == 2
    dense = s.to_dense()
    assert dense[1] == 0.8 and dense[5] == 0.6 and np.count_nonzero(dense) == 2
    # the state keeps its own copies: the caller's arrays stay as they were
    assert indices.tolist() == [5, 1] and amps.tolist() == [0.6, 0.8]


def test_sparse_state_from_compressed():
    X = threshold_normalize(dft(gen_periodic(256)), ThresholdPolicy(ABSOLUTE, 0.1))
    s = SparseState.from_compressed(X)
    assert s.n == 8
    assert s.indices.tolist() == [3, 20, 236, 253]
    indices, values = X.support()
    # bit for bit the support's arrays, as read-only copies
    assert s.indices.dtype == np.int64 and s.amplitudes.dtype == values.dtype
    assert s.indices.tobytes() == indices.astype(np.int64).tobytes()
    assert s.amplitudes.tobytes() == values.tobytes()
    for arr in (s.indices, s.amplitudes):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


# ---------------------------------------------------------------------------
# Dense loaders
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_eae_real_cx_count_is_structural(n):
    v = RNG.normal(size=2**n)
    v /= np.linalg.norm(v)
    assert report(eae_real(v)).cnot_count == 2**n - 2
    # zeros in the vector do not change the ladder count
    w = np.zeros(2**n)
    w[0] = 1.0
    assert report(eae_real(w)).cnot_count == 2**n - 2


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_eae_real_prepares_exactly(n):
    for _ in range(5):
        v = RNG.normal(size=2**n)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(simulate(eae_real(v)).real, v, atol=1e-12)


def test_eae_real_input_validation():
    with pytest.raises(ComplexAmplitudeError):
        eae_real(np.array([1j, 0, 0, 0]))
    with pytest.raises(ValueError):
        eae_real(np.ones(6) / math.sqrt(6))
    with pytest.raises(ValueError):
        eae_real(np.ones(4))  # norm 2


def test_eae_real_accepts_signal_objects():
    s = gen_periodic(256)
    assert report(eae_real(s)).cnot_count == 2**8 - 2


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_dense_complex_load_count_and_state(m):
    v = RNG.normal(size=2**m) + 1j * RNG.normal(size=2**m)
    v /= np.linalg.norm(v)
    circ = dense_complex_load(v)
    assert report(circ).cnot_count == 2 * (2**m - 2)
    assert fidelity(simulate(circ), v) >= 1 - 1e-12
    # real input: RZ angles vanish but the ladders stay
    r = np.abs(v) / np.linalg.norm(np.abs(v))
    assert report(dense_complex_load(r)).cnot_count == 2 * (2**m - 2)


def test_dense_complex_load_validation():
    with pytest.raises(ValueError):
        dense_complex_load(np.ones(3, dtype=complex) / math.sqrt(3))
    with pytest.raises(ValueError):
        dense_complex_load(np.ones(4, dtype=complex))


# ---------------------------------------------------------------------------
# Sparse synthesis
# ---------------------------------------------------------------------------


def test_sqsp_single_basis_state_uses_only_x():
    s = SparseState(4, [9], [1.0])
    circ = sqsp(s)
    assert all(g.kind == "X" for g in circ)
    np.testing.assert_allclose(simulate(circ), s.to_dense(), atol=1e-15)


@pytest.mark.parametrize("complex_amps", [False, True], ids=["real", "complex"])
def test_sqsp_prepares_random_states(complex_amps):
    for _ in range(40):
        n = int(RNG.integers(2, 11))
        d = int(RNG.integers(1, min(2**n, 40) + 1))
        s = _random_sparse(n, d, complex_amps)
        assert fidelity(simulate(sqsp(s)), s.to_dense()) >= 1 - 1e-9


def test_sqsp_cost_linear_on_random_family():
    # the documented c * n * d envelope; measured worst ratio is ~1.3
    for trial in range(60):
        n = int(RNG.integers(2, 11))
        d = int(RNG.integers(1, min(2**n, 40) + 1))
        s = _random_sparse(n, d, bool(trial % 2))
        cx = report(sqsp(s)).cnot_count
        assert cx <= SQSP_COST_CONSTANT * n * d


def test_sqsp_periodic_spectrum_is_cheap():
    X = threshold_normalize(dft(gen_periodic(256)), ThresholdPolicy(ABSOLUTE, 0.1))
    s = SparseState.from_compressed(X)
    circ = sqsp(s)
    assert report(circ).cnot_count <= 30
    assert fidelity(simulate(circ), s.to_dense()) >= 1 - 1e-12


def test_sqsp_dense_subcube_path():
    # full occupation of a 3-bit subcube at offset 8: plain cascade, 6 CX,
    # plus the X setting the offset bit
    amps = RNG.normal(size=8)
    amps /= np.linalg.norm(amps)
    s = SparseState(6, 8 + np.arange(8), amps)
    circ = sqsp(s)
    assert report(circ).cnot_count == 2**3 - 2
    touched = {q for g in circ for q in g.qubits}
    assert touched <= {0, 1, 2, 3}
    np.testing.assert_allclose(np.abs(simulate(circ)), np.abs(s.to_dense()), atol=1e-12)
    assert fidelity(simulate(circ), s.to_dense()) >= 1 - 1e-12


def _support_cube(s: SparseState):
    """(base, free bits, is_real) of the support's bounding subcube."""
    base = int(np.bitwise_and.reduce(s.indices))
    bits = _bits(int(np.bitwise_or.reduce(s.indices)) ^ base)
    return base, bits, bool(np.all(np.abs(s.amplitudes.imag) < 1e-12))


def _cascade_bound(s: SparseState) -> int:
    _, bits, is_real = _support_cube(s)
    return (2 ** len(bits) - 2) * (1 if is_real else 2)


def _subcube_trial_lowering(s: SparseState) -> Circuit:
    """The subcube path as it once chose its output: lower the whole
    cascade and keep the native levels unless the peephole pass then
    finds a pair.  The reference for reading that off the angles."""
    base, bits, _ = _support_cube(s)
    circ = Circuit(s.n).extend(gate("X", b) for b in _bits(base))
    circ.extend(_subcube_cascade(s.indices, s.amplitudes, bits))
    lowered = decompose(circ)
    kept = cancel_adjacent_inverses(lowered)
    return circ if len(kept) == len(lowered) else kept


def _on_cube(n, base, bits, coords):
    return [base | sum(((c >> j) & 1) << b for j, b in enumerate(bits)) for c in coords]


@st.composite
def _subcube_supports(draw):
    """Supports filling most of a k-bit subcube, with magnitudes and phases
    from small sets so that Gray-walk angles vanish exactly."""
    k = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=k, max_value=7))
    bits = sorted(draw(st.permutations(range(n)))[:k])
    base = draw(st.integers(0, 2**n - 1)) & ~sum(1 << b for b in bits)
    coords = sorted(draw(st.sets(st.integers(0, 2**k - 1), min_size=max(2, 2**k - 2))))
    size = len(coords)
    mags = draw(st.lists(st.sampled_from([1.0, 1.0, 2.0]), min_size=size, max_size=size))
    phases = draw(
        st.lists(st.sampled_from([0.0, 0.7, -0.7, np.pi]), min_size=size, max_size=size)
    )
    amps = np.array(mags) * np.exp(1j * np.array(phases))
    if draw(st.booleans()):  # real: keep only the signs
        amps = np.array(mags) * np.sign(np.cos(phases))
    amps = amps / np.linalg.norm(amps)
    return SparseState(n, _on_cube(n, base, bits, coords), amps)


@given(_subcube_supports())
@settings(max_examples=300, deadline=None)
def test_subcube_path_matches_trial_lowering(s):
    # a one-control level with its second walk angle elided, and on a
    # two-bit complex cube the RY-to-RZ seam, are the pairs read off angles
    assert sqsp(s) == _subcube_trial_lowering(s)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_uniform_subcube_matches_trial_lowering(k):
    # uniform supports on 4 to 32 states lose a CX pair when lowered
    s = SparseState(7, 32 + np.arange(2**k), np.full(2**k, 2 ** (-k / 2)))
    circ = sqsp(s)
    assert circ == _subcube_trial_lowering(s)
    assert fidelity(simulate(circ), s.to_dense()) >= 1 - 1e-12


def test_two_bit_complex_seam_cancels():
    # the RY levels' last CX meets the one-control RZ level's first CX
    mags = np.array([1.0, 2.0, 3.0, 4.0]) / math.sqrt(30.0)
    amps = mags * np.exp(1j * np.array([0.0, 0.7, 0.7, 0.0]))
    s = SparseState(3, np.arange(4), amps)
    circ = sqsp(s)
    assert circ == _subcube_trial_lowering(s)
    assert report(circ).cnot_count == 2 < _cascade_bound(s)
    assert fidelity(simulate(circ), s.to_dense()) >= 1 - 1e-12


def test_dense_recording_input_matches_trial_lowering():
    # recording01 at L = 12, tau = 0.006: d = 1029 on a dense subcube
    x = _unit_samples(ingest_waveform_csv(DEFAULT_PPG_RECORDING))
    compressed = threshold_normalize(packet_dhwt(x, 12), ThresholdPolicy(ABSOLUTE, 0.006))
    s = SparseState.from_compressed(compressed)
    assert s.d == 1029
    assert sqsp(s) == _subcube_trial_lowering(s)


@st.composite
def _adversarial_supports(draw):
    """Clustered, near-dense or scattered supports inside a k-bit subcube,
    or scattered ones just sparse enough for merging on 8-9 qubits, where
    merges cost most against the cascade; real or complex."""
    shape = draw(st.sampled_from(["clustered", "near-dense", "scattered", "boundary"]))
    complex_amps = draw(st.booleans())
    if shape == "boundary":
        n = k = draw(st.integers(min_value=8, max_value=9))
    else:
        n = draw(st.integers(min_value=4, max_value=9))
        k = draw(st.integers(min_value=2, max_value=min(n, 6)))
    bits = sorted(draw(st.permutations(range(n)))[:k])
    base = draw(st.integers(0, 2**n - 1)) & ~sum(1 << b for b in bits)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "boundary":  # the merge chooser takes d < cascade CX / 8
        most = ((2**k - 2) * (2 if complex_amps else 1) - 1) // 8
        coords = rng.choice(2**k, size=min(most, 63) - int(rng.integers(0, 8)), replace=False)
    elif shape == "clustered":  # a few small aligned blocks
        coords = set()
        for _ in range(draw(st.integers(1, 4))):
            j = int(rng.integers(1, k))
            start = int(rng.integers(0, 2 ** (k - j))) << j
            coords.update(range(start, start + 2**j))
    elif shape == "near-dense":
        coords = set(range(2**k)) - set(rng.choice(2**k, size=min(3, 2**k - 2)).tolist())
    else:
        coords = set(rng.choice(2**k, size=int(rng.integers(2, 2**k + 1)), replace=False).tolist())
    coords = sorted(coords)
    if len(coords) < 2:
        coords = [0, 2**k - 1]
    a = rng.normal(size=len(coords))
    if complex_amps:
        a = a + 1j * rng.normal(size=len(coords))
    a = a / np.linalg.norm(a)
    return SparseState(n, _on_cube(n, base, bits, coords), a)


@given(_adversarial_supports())
@settings(max_examples=60, deadline=None)
def test_sqsp_never_costs_more_than_the_cascade(s):
    circ = sqsp(s)
    assert report(circ).cnot_count <= _cascade_bound(s)
    assert fidelity(simulate(circ), s.to_dense()) >= 1 - 1e-9


@pytest.mark.parametrize("seed, merged", [(0, True), (2, False)])
def test_sqsp_falls_back_to_the_cascade(seed, merged):
    # 63 real amplitudes scattered over 9 qubits: merging costs 506 CX for
    # seed 0, under the 510 of the cascade, and 596 for seed 2
    rng = np.random.default_rng(seed)
    idx = rng.choice(2**9, size=63, replace=False)
    a = rng.normal(size=63)
    s = SparseState(9, idx, a / np.linalg.norm(a))
    circ = sqsp(s)
    assert report(circ).cnot_count <= _cascade_bound(s) == 510
    assert (circ != _subcube_trial_lowering(s)) == merged
    assert fidelity(simulate(circ), s.to_dense()) >= 1 - 1e-9


def test_sqsp_stays_on_register():
    s = _random_sparse(9, 12, True)
    assert all(max(g.qubits) < 9 for g in sqsp(s))


def _greedy_cover_loop(anchor, targets, b, span):
    """Per-bit greedy loop: the reference for the bit-matrix cover search."""
    rem = targets
    cover = []
    while len(rem):
        best_c, best_kill = -1, 0
        for c in range(span):
            if c == b or c in cover:
                continue
            bit = 1 << c
            kill = int(np.count_nonzero((rem & bit) != (anchor & bit)))
            if kill > best_kill:
                best_kill, best_c = kill, c
        if best_c < 0:
            raise RuntimeError("merge constraints are not separable")
        cover.append(best_c)
        bit = 1 << best_c
        rem = rem[(rem & bit) == (anchor & bit)]
    return sorted(cover)


def test_greedy_cover_matches_loop_reference():
    rng = np.random.default_rng(11)
    raised = 0
    for _ in range(400):
        span = int(rng.integers(1, 13))
        b = int(rng.integers(span))
        anchor = int(rng.integers(2**span))
        size = int(rng.integers(0, min(2**span, 40) + 1))
        targets = rng.choice(2**span, size=size, replace=False).astype(np.int64)
        try:
            expected = _greedy_cover_loop(anchor, targets, b, span)
        except RuntimeError:
            # a target equal to the anchor off bit b cannot be separated
            raised += 1
            with pytest.raises(RuntimeError, match="not separable"):
                _greedy_cover(targets ^ anchor, b, span)
            continue
        assert _greedy_cover(targets ^ anchor, b, span) == expected
    assert 0 < raised < 400
    assert _greedy_cover(np.array([], dtype=np.int64), 0, 4) == []
    with pytest.raises(RuntimeError, match="not separable"):
        _greedy_cover(np.array([0b0100, 0b0110], dtype=np.int64) ^ 0b0101, 0, 4)


def _merge_cost_unpruned(x, y, others, span):
    """Every kept bit's cover search: the reference for the pruned one."""
    D = x ^ y
    m = len(_bits(D))
    best = None
    for b in _bits(D):
        spread = D ^ (1 << b)
        anchor = x ^ spread if (x >> b) & 1 else x
        images = np.where(others & (1 << b), others ^ spread, others)
        cover = _greedy_cover(images ^ anchor, b, span)
        cost = 2 * (m - 1) + (2 ** len(cover) if cover else 0)
        if best is None or cost < best[0]:
            best = (cost, b, cover, spread)
    return best


def _rider_pairs(cover, b, alive_arr, amp_of, seed):
    """Distance-1 pairs that fit unused pattern slots of this cover, met in
    sqsp's processing order: the per-order reference for :func:`_riders`.

    Basis state 0 comes first in that order but never rides: sqsp merges
    it away in its first step, as part of the seed.
    """
    b_bit = 1 << b
    order = np.lexsort((alive_arr, -loaders._popcounts(alive_arr), alive_arr != 0))
    pats = _pattern_of(alive_arr, cover)
    uniq, counts = np.unique(pats, return_counts=True)
    count_of = dict(zip(uniq.tolist(), counts.tolist()))
    pat_of = dict(zip(alive_arr.tolist(), pats.tolist()))
    riders = []
    in_batch = set(seed)
    for z in alive_arr[order].tolist():
        if z in in_batch:
            continue
        w = z ^ b_bit
        if w not in pat_of or w in in_batch:
            continue
        if not loaders._is_real_pair(amp_of[z], amp_of[w]):
            continue
        # z and w share a pattern (b is never a cover bit); a count of two
        # means the slot is theirs alone and the rotation touches nobody else
        if count_of[pat_of[z]] != 2:
            continue
        riders.append((w, z))
        in_batch.update((w, z))
    return riders


def _add_free_riders_loop(step, alive_arr, amp_of, span):
    """Per-bit rider loop: the reference for the one-pass rider scoring."""
    seed = step.pairs[0]
    riders = _rider_pairs(step.cover, step.b, alive_arr, amp_of, seed)
    while True:
        best_gain, best_bit, best_riders = 0, None, None
        for c in range(span):
            if c == step.b or c in step.cover:
                continue
            trial = _rider_pairs(sorted(step.cover + [c]), step.b, alive_arr, amp_of, seed)
            if len(trial) - len(riders) > best_gain:
                best_gain = len(trial) - len(riders)
                best_bit, best_riders = c, trial
        if best_bit is None or 2 ** len(step.cover) >= loaders._RIDER_CX_ESTIMATE * best_gain:
            break
        step.cover = sorted(step.cover + [best_bit])
        riders = best_riders
    step.pairs.extend(riders)


def _plan_merge_unpruned(y, alive_arr, amp_of, span):
    """``_plan_merge`` pricing every candidate one at a time up to the
    distance cut, with the per-bit rider loop."""
    dists = loaders._popcounts(alive_arr ^ y)
    candidates = sorted((int(d), int(x)) for d, x in zip(dists, alive_arr) if x != y)
    best = None
    for m, x in candidates:
        if best is not None and 2 * (m - 1) >= best[0]:
            break
        others = alive_arr[(alive_arr != x) & (alive_arr != y)]
        cost, b, cover, spread = _merge_cost_unpruned(x, y, others, span)
        if best is None or cost < best[0]:
            best = (cost, m, x, b, cover, spread)
    cost, m, x, b, cover, spread = best
    step = loaders._MergeStep(b=b, spread=spread, cover=cover, pairs=[(x, y)])
    if m == 1 and cover and loaders._is_real_pair(amp_of[x], amp_of[y]):
        _add_free_riders_loop(step, alive_arr, amp_of, span)
    return step


def _sqsp_unpruned(s: SparseState) -> Circuit:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(loaders, "_plan_merge", _plan_merge_unpruned)
        return sqsp(s)


def _first_least_cost(y, others, span, cap=math.inf):
    """Every candidate's unpruned cover search, in the order of distance to
    y, then index: the first (cost, x, b, cover) of least cost below
    ``cap``, or None.  The reference for :func:`_cheapest_merge`."""
    best = None
    for x in sorted(others.tolist(), key=lambda x: (bin(x ^ y).count("1"), x)):
        cost, b, cover, _ = _merge_cost_unpruned(x, y, others[others != x], span)
        if cost < (best[0] if best else cap):
            best = (cost, x, b, cover)
    return best


def _random_merge(rng, min_span, max_span, max_size):
    """A state y and the other alive states, ascending, on ``span`` bits."""
    span = int(rng.integers(min_span, max_span + 1))
    size = int(rng.integers(2, min(2**span, max_size) + 1))
    states = rng.choice(2**span, size=size, replace=False).astype(np.int64)
    return int(states[0]), np.sort(states[1:]), span


def test_merge_cost_matches_unpruned_reference():
    rng = np.random.default_rng(17)
    skipped = kept = 0
    for _ in range(300):
        y, others, span = _random_merge(rng, 2, 10, 40)
        expected = _first_least_cost(y, others, span)
        assert _cheapest_merge(y, others, span) == expected
        cap = int(rng.integers(1, 2 * expected[0] + 2))
        capped = _cheapest_merge(y, others, span, cap)
        if expected[0] >= cap:
            skipped += 1
            assert capped is None
        else:
            kept += 1
            assert capped == expected
    assert skipped > 0 and kept > 0


def test_merge_search_matches_one_candidate_at_a_time():
    # small, crowded supports: many rows tie at the least cost, and the
    # search must still return the first of them in position order
    rng = np.random.default_rng(23)
    ties = 0
    for _ in range(200):
        y, others, span = _random_merge(rng, 3, 6, 40)
        cap = math.inf if rng.random() < 0.5 else int(rng.integers(1, 4 * span))
        expected = _first_least_cost(y, others, span, cap)
        assert _cheapest_merge(y, others, span, cap) == expected
        if expected is not None:
            costs = [
                _merge_cost_unpruned(x, y, others[others != x], span)[0] for x in others.tolist()
            ]
            ties += costs.count(expected[0]) > 1
    assert ties > 50


def _matrix_floors(y, x, b, others, span):
    """Each row's floor from its (rows, others) difference matrix: the
    reference for the neighbour-mask floors of :func:`_merge_rows`."""
    x, b_bits = x[:, None], (np.int64(1) << b)[:, None]
    masks = np.where((others ^ x) & b_bits, others ^ y, others ^ x) & ~b_bits
    masks[others == x] = -1
    forced = np.bitwise_or.reduce(np.where(masks & (masks - 1), 0, masks), axis=1)
    cover = 2.0 ** np.maximum(1, loaders._popcounts(forced))
    cover_floor = np.where(masks.all(axis=1), cover, -np.inf)
    conj = 2 * (loaders._popcounts(x[:, 0] ^ y) - 1)
    return conj + (cover_floor if len(others) > 1 else 0)


def test_neighbour_floors_match_the_difference_matrix():
    rng = np.random.default_rng(31)
    forced = 0
    for _ in range(300):
        y, others, span = _random_merge(rng, 2, 11, 80)
        x, b, conj, floors = _merge_rows(y, others, span)
        np.testing.assert_array_equal(floors, _matrix_floors(y, x, b, others, span))
        np.testing.assert_array_equal(conj, 2 * (loaders._popcounts(x ^ y) - 1))
        # the rows are every (x, b) with b a bit where x and y differ, in order
        rows = [
            (int(v), j)
            for v in sorted(others.tolist(), key=lambda v: (bin(v ^ y).count("1"), v))
            for j in _bits(v ^ y)
        ]
        assert list(zip(x.tolist(), b.tolist())) == rows
        forced += int(np.sum(floors > conj + 2))
    assert forced > 100


def test_merge_cost_with_cap_still_raises_on_inseparable_state():
    # y = 0b0100 is among the others: it equals the anchor x = 0b0101 off
    # the kept bit 0, and no cap may skip the search that reports it
    others = np.array([0b0100, 0b0101, 0b0110], dtype=np.int64)
    for cap in (math.inf, 2, 0):
        with pytest.raises(RuntimeError, match="not separable"):
            _cheapest_merge(0b0100, others, 4, cap=cap)


def test_rider_scores_match_the_per_bit_rider_search():
    rng = np.random.default_rng(29)
    scored = listed = 0
    for _ in range(200):
        span = int(rng.integers(3, 10))
        size = int(rng.integers(4, min(2**span - 1, 60) + 1))
        # state 0 is merged away before any rider search, as in sqsp
        alive = np.sort(rng.choice(np.arange(1, 2**span), size=size, replace=False)).astype(np.int64)
        b = int(rng.integers(span))
        x = int(alive[int(rng.integers(size))])
        if x ^ (1 << b) not in alive:
            continue
        seed = (x, x ^ (1 << b))
        real = rng.random(size) < 0.8
        amp_of = {int(z): complex(1.0, 0.0 if r else 1.0) for z, r in zip(alive, real)}
        others = [c for c in range(span) if c != b]
        cover = sorted(rng.choice(others, size=int(rng.integers(1, len(others) + 1)), replace=False).tolist())
        _, rides = _riders(cover, b, alive, amp_of, seed)
        assert not np.any(rides & (1 << b))
        for c in others:
            trial = sorted(set(cover) | {c})
            scores = int(np.count_nonzero(rides & (1 << c)))
            assert scores == len(_rider_pairs(trial, b, alive, amp_of, seed))
        # the listed riders are the reference's under the final cover, each
        # oriented (kept, removed) as in the processing order
        step = loaders._MergeStep(b=b, spread=0, cover=cover, pairs=[seed])
        _add_free_riders(step, alive, amp_of, span)
        reference = _rider_pairs(step.cover, b, alive, amp_of, seed)
        assert set(step.pairs[1:]) == set(reference)
        assert len(step.pairs) == len(reference) + 1
        listed += len(reference)
        scored += 1
    assert scored > 50 and listed > 50


@given(_adversarial_supports())
@settings(max_examples=25, deadline=None)
def test_pruned_merge_search_matches_unpruned_on_adversarial_supports(s):
    assert sqsp(s) == _sqsp_unpruned(s)


def _table1_state(cfg) -> SparseState:
    x = _unit_samples(cfg.build_signal())
    return SparseState.from_compressed(
        threshold_normalize(analyse(x, cfg.descriptor), cfg.threshold)
    )


def test_pruned_merge_search_matches_unpruned_on_table1_inputs():
    # sinc, gaussian, and the mixture at every benchmark seed
    sinc, gaussian = table1_configs()[:2]
    cfgs = [sinc, gaussian] + [table1_configs(seed=k)[2] for k in range(16)]
    for cfg in cfgs:
        s = _table1_state(cfg)
        assert sqsp(s) == _sqsp_unpruned(s), cfg.signal_params


def test_sqsp_order_does_not_depend_on_bitwise_count(monkeypatch):
    # NumPy < 2 has no np.bitwise_count; its fallback must pin the same order
    s = _table1_state(table1_configs()[0])  # sinc
    native = sqsp(s)
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert sqsp(s) == native


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def test_sparse_csv_roundtrip(tmp_path):
    s = _random_sparse(6, 9, True)
    path = tmp_path / "state.csv"
    write_amplitude_csv(path, s.n, s.indices, s.amplitudes)
    back = SparseState(*read_amplitude_csv(path)[:3])
    assert back.n == s.n
    # repr round trip is exact
    np.testing.assert_array_equal(back.indices, s.indices)
    np.testing.assert_array_equal(back.amplitudes, s.amplitudes)


def test_sparse_csv_requires_n_header(tmp_path):
    path = tmp_path / "state.csv"
    path.write_text("index,real,imaginary\n0,1.0,0.0\n")
    with pytest.raises(ValueError, match="# n="):
        read_amplitude_csv(path)
