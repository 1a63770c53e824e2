"""Simulator kernels checked against independently built matrices.

The reference unitaries below are constructed basis state by basis state
from the textbook 2x2 blocks, with explicit little-endian bit twiddling,
sharing no code with the axis-slicing kernels under test.
"""

import cmath
import math
from itertools import groupby, repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqsp.circuit import _KINDS, Circuit, _pattern_of, gate
from hqsp.loaders import SparseState, sqsp
from hqsp.pipeline import table1_configs
from hqsp.qsynth import inverse_packet_qhwt, iqft
from hqsp.statesim import _H, _apply_1q, _apply_h
from hqsp.statesim import (
    MAX_QUBITS,
    SUPPORT_DROP,
    CapacityError,
    SupportState,
    UnsupportedGateError,
    fidelity,
    simulate,
    simulate_support,
    trace_distance,
    unitary_of,
)
from hqsp.transforms import analyse, read_amplitude_csv, threshold_normalize, write_amplitude_csv

RNG = np.random.default_rng(2024)


def _mat_h():
    return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _mat_x():
    return np.array([[0, 1], [1, 0]], dtype=complex)


def _mat_rx(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _mat_ry(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _mat_rz(t):
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


def _mat_phase(t):
    return np.diag([1.0, np.exp(1j * t)])


def reference_unitary(n: int, g) -> np.ndarray:
    """Build the gate's 2**n unitary by routing each basis state by hand."""
    if g.kind == "SWAP":
        a, b = g.qubits
        dim = 2**n
        u = np.zeros((dim, dim), dtype=complex)
        for j in range(dim):
            ba, bb = (j >> a) & 1, (j >> b) & 1
            k = j & ~(1 << a) & ~(1 << b) | (bb << a) | (ba << b)
            u[k, j] = 1.0
        return u
    blocks = {
        "H": lambda: _mat_h(),
        "X": lambda: _mat_x(),
        "RX": lambda: _mat_rx(g.angle),
        "RY": lambda: _mat_ry(g.angle),
        "RZ": lambda: _mat_rz(g.angle),
        "PHASE": lambda: _mat_phase(g.angle),
        "CX": lambda: _mat_x(),
        "CPHASE": lambda: _mat_phase(g.angle),
        "CCX": lambda: _mat_x(),
    }
    mat = blocks[g.kind]()
    target = g.targets[0]
    controls = g.controls
    dim = 2**n
    u = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        if any(not (j >> c) & 1 for c in controls):
            u[j, j] = 1.0
            continue
        t = (j >> target) & 1
        for t_out in (0, 1):
            k = (j & ~(1 << target)) | (t_out << target)
            u[k, j] += mat[t_out, t]
    return u


GATE_CASES = [
    gate("H", 1),
    gate("X", 2),
    gate("RX", 0, angle=0.7),
    gate("RY", 2, angle=-1.3),
    gate("RZ", 1, angle=2.1),
    gate("PHASE", 0, angle=0.9),
    gate("CX", 2, 0),
    gate("CPHASE", 0, 2, angle=-0.4),
    gate("SWAP", 0, 2),
    gate("CCX", 0, 2, 1),
]


@pytest.mark.parametrize("g", GATE_CASES, ids=lambda g: g.kind)
def test_gate_kernel_matches_reference_matrix(g):
    circuit = Circuit(3, [g])
    np.testing.assert_allclose(
        unitary_of(circuit), reference_unitary(3, g), atol=1e-12
    )


def test_simulate_starts_from_all_zeros():
    psi = simulate(Circuit(2))
    np.testing.assert_allclose(psi, [1, 0, 0, 0], atol=0)


def test_simulate_is_little_endian():
    # X on qubit 0 flips the least significant bit: |00> -> |01> = index 1
    psi = simulate(Circuit(2, [gate("X", 0)]))
    assert psi[1] == 1.0
    psi = simulate(Circuit(2, [gate("X", 1)]))
    assert psi[2] == 1.0


def test_simulate_accepts_initial_state():
    init = np.array([0, 1, 0, 0], dtype=complex)
    psi = simulate(Circuit(2, [gate("CX", 0, 1)]), initial=init)
    assert psi[3] == 1.0  # control on qubit 0 set, target qubit 1 flips


def test_simulate_rejects_wrong_initial_length():
    with pytest.raises(ValueError):
        simulate(Circuit(2), initial=np.ones(3, dtype=complex))


def test_simulate_scatters_a_sparse_initial_state():
    psi = simulate(Circuit(2, [gate("CX", 0, 1)]), initial=SparseState(2, [1], [1.0]))
    np.testing.assert_allclose(psi, [0, 0, 0, 1], atol=0)
    for bad in (4, -1):
        with pytest.raises(ValueError, match="basis indices"):
            simulate(Circuit(2), initial=SupportState(np.array([bad]), np.ones(1), 1, 0.0))


def test_simulate_norm_preserved_on_random_circuits():
    kinds = ["H", "X", "RX", "RY", "RZ", "PHASE", "CX", "CPHASE", "SWAP"]
    for _ in range(25):
        n = int(RNG.integers(1, 5))
        circuit = Circuit(n)
        for _ in range(12):
            kind = kinds[int(RNG.integers(0, len(kinds)))]
            takes_angle = kind in ("RX", "RY", "RZ", "PHASE", "CPHASE")
            arity = 2 if kind in ("CX", "CPHASE", "SWAP") else 1
            if arity > n:
                continue
            qubits = RNG.choice(n, size=arity, replace=False)
            circuit.add(
                kind,
                *map(int, qubits),
                angle=float(RNG.uniform(-3, 3)) if takes_angle else None,
            )
        psi = simulate(circuit)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def _assert_matches_swap_by_swap(circuit: Circuit) -> None:
    """simulate, bit for bit, against a reference that applies each SWAP as
    its own np.swapaxes and simulates each maximal run of other gates as a
    circuit of its own, so that a CPHASE fan is fused on both sides."""
    n = circuit.n_qubits
    initial = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    psi = initial
    for is_swap, run in groupby(circuit, key=lambda g: g.kind == "SWAP"):
        if not is_swap:
            psi = simulate(Circuit(n, list(run)), psi)
            continue
        for g in run:
            a, b = g.qubits
            psi = np.swapaxes(psi.reshape([2] * n), n - 1 - a, n - 1 - b).reshape(-1)
    assert np.array_equal(simulate(circuit, initial), psi)


def test_swap_runs_match_one_swap_at_a_time():
    # runs of 1-6 SWAPs between other gates, bit for bit
    for trial in range(30):
        n = int(RNG.integers(2, 7))
        circuit = Circuit(n)
        for _ in range(6):
            a, b = map(int, RNG.choice(n, size=2, replace=False))
            circuit.add("H", a).add("CX", a, b).add("RY", b, angle=float(RNG.uniform(-3, 3)))
            circuit.add("UCRZ", a, b, angle=RNG.uniform(-3, 3, 2).tolist())
            for _ in range(int(RNG.integers(1, 7))):
                circuit.add("SWAP", *map(int, RNG.choice(n, size=2, replace=False)))
        if trial % 2:  # even trials end on a SWAP run, odd ones on a gate
            circuit.add("CPHASE", 0, 1, angle=0.4)
        _assert_matches_swap_by_swap(circuit)


@pytest.mark.parametrize(
    "swaps",
    [
        [(0, 1), (0, 1)],  # a repeated pair: the identity
        [(0, 1), (1, 0), (2, 3)],
        [(0, 3), (1, 2), (0, 3), (1, 2), (0, 1), (2, 3)],
        [(3, 2), (2, 1), (1, 0)],
    ],
)
def test_swap_run_with_repeated_pairs_matches_one_swap_at_a_time(swaps):
    _assert_matches_swap_by_swap(Circuit(4, [gate("H", 1), *(gate("SWAP", a, b) for a, b in swaps)]))


@pytest.mark.parametrize("n", range(1, 7))
def test_decompression_swap_chains_match_one_swap_at_a_time(n):
    for L in range(1, n + 1):
        _assert_matches_swap_by_swap(inverse_packet_qhwt(n, L))


@pytest.mark.parametrize("n", range(2, 8))
def test_iqft_closing_swaps_match_one_swap_at_a_time(n):
    circuit = iqft(n)
    # its bit-reversal SWAPs close the circuit as one run
    kinds = [g.kind for g in circuit]
    assert kinds[-(n // 2):] == ["SWAP"] * (n // 2) and kinds.count("SWAP") == n // 2
    _assert_matches_swap_by_swap(circuit)


@st.composite
def _random_circuits(draw):
    """Circuits of all twelve IR kinds on random wires, multiplexers with 0-3
    controls; about half start from |0...0>, the rest from a sparse state
    whose largest index stays below 2**3 (so the active width starts small)
    or from a dense state."""
    n = draw(st.integers(1, 7))
    angle = st.floats(-4.0, 4.0, allow_nan=False)
    circuit = Circuit(n)
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(sorted(_KINDS)))
        row = _KINDS[kind]
        k = draw(st.integers(0, min(3, n - 1))) if row.controls is None else row.controls
        if k + row.targets > n:
            continue
        wires = draw(st.permutations(range(n)))[: k + row.targets]
        if row.controls is None:
            circuit.add(kind, *wires, angle=draw(st.lists(angle, min_size=2**k, max_size=2**k)))
        else:
            circuit.add(kind, *wires, angle=draw(angle) if row.takes_angle else None)
    start = draw(st.sampled_from(["zeros", "sparse", "dense"]))
    if start == "zeros":
        return circuit, None
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if start == "dense":
        return circuit, rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    top = 2 ** min(n, 3)
    idx = np.sort(rng.choice(top, size=int(rng.integers(1, top + 1)), replace=False))
    amps = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    return circuit, SparseState(n, idx, amps / np.linalg.norm(amps))


def _is_fan(a, b) -> bool:
    return a.kind == b.kind == "CPHASE" and a.targets == b.targets


@given(_random_circuits())
@settings(max_examples=300, deadline=None)
def test_simulate_matches_full_width_gate_at_a_time(case):
    # the reference applies each gate alone to the whole register (a dense
    # start is active on every qubit); without a fused CPHASE fan the two
    # agree bit for bit, up to the sign of a zero
    circuit, initial = case
    n = circuit.n_qubits
    psi = simulate(Circuit(n), initial)
    for g in circuit:
        psi = simulate(Circuit(n, [g]), psi)
    got = simulate(circuit, initial)
    if any(_is_fan(a, b) for a, b in zip(circuit.gates, circuit.gates[1:])):
        np.testing.assert_allclose(got, psi, rtol=0, atol=1e-13 * max(1.0, np.linalg.norm(psi)))
    else:
        assert np.array_equal(got + 0.0, psi + 0.0)


@pytest.mark.parametrize("n", range(1, 11))
def test_h_kernel_is_the_2x2_product_bit_for_bit(n):
    for target in range(n):
        psi = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
        want = psi.copy()
        work = np.empty((4, 2 ** (n - 1)), dtype=complex)
        _apply_h(psi, n, target, work)
        _apply_1q(want, n, _H, target, (), work)
        assert psi.tobytes() == want.tobytes()


def test_cphase_fan_matches_one_gate_at_a_time():
    # fans of 2-8 CPHASEs on one target, controls drawn with repeats
    for _ in range(60):
        n = int(RNG.integers(2, 9))
        target = int(RNG.integers(n))
        others = [q for q in range(n) if q != target]
        fan = [
            gate("CPHASE", int(RNG.choice(others)), target, angle=float(RNG.uniform(-4, 4)))
            for _ in range(int(RNG.integers(2, 9)))
        ]
        psi = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
        psi /= np.linalg.norm(psi)
        want = psi
        for g in fan:
            want = simulate(Circuit(n, [g]), want)
        np.testing.assert_allclose(simulate(Circuit(n, fan), psi), want, rtol=0, atol=1e-14)


def test_cphase_fan_with_every_control_repeated():
    fan = [gate("CPHASE", c, 2, angle=0.3 * (c + 1)) for c in (0, 1, 3, 0, 1, 3)]
    psi = RNG.normal(size=16) + 1j * RNG.normal(size=16)
    psi /= np.linalg.norm(psi)
    # CPHASE(c, t) twice is CPHASE(c, t) at the doubled angle
    doubled = [gate("CPHASE", c, 2, angle=0.6 * (c + 1)) for c in (0, 1, 3)]
    want = psi
    for g in doubled:
        want = simulate(Circuit(4, [g]), want)
    np.testing.assert_allclose(simulate(Circuit(4, fan), psi), want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", range(1, 13))
def test_iqft_is_the_inverse_dft(n):
    # its CPHASE ladders simulate as one fan per target
    v = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    v /= np.linalg.norm(v)
    want = np.fft.ifft(v) * math.sqrt(2**n)
    np.testing.assert_allclose(simulate(iqft(n), v), want, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# Support simulation of loader circuits
# ---------------------------------------------------------------------------

_LOADER_KINDS = ["X", "CX", "RY", "RZ", "UCRY", "UCRZ"]


def _random_loader_circuit(n: int, length: int) -> Circuit:
    """The six loader kinds on random wires; multiplexers get 0-3 controls
    in random (unsorted) order."""
    circuit = Circuit(n)
    while len(circuit) < length:
        kind = _LOADER_KINDS[int(RNG.integers(len(_LOADER_KINDS)))]
        k = int(RNG.integers(0, min(3, n - 1) + 1)) if kind.startswith("UC") else 0
        arity = 2 if kind == "CX" else k + 1
        if arity > n:
            continue
        qubits = [int(q) for q in RNG.choice(n, size=arity, replace=False)]
        if kind.startswith("UC"):
            angle = RNG.uniform(-3, 3, size=2**k)
        elif kind in ("RY", "RZ"):
            angle = float(RNG.uniform(-3, 3))
        else:
            angle = None
        circuit.add(kind, *qubits, angle=angle)
    return circuit


def _rotate_pairs(amps: dict, bit: int, lows, cos_sin) -> tuple[dict, float]:
    """RY on each pair (lo, lo | bit); returns the kept amplitudes and the
    squared norm of those dropped."""
    out: dict = {}
    dropped = 0.0
    for lo, (c, s) in zip(lows, cos_sin):
        hi = lo | bit
        a0, a1 = amps.get(lo, 0.0), amps.get(hi, 0.0)
        for i, a in ((lo, c * a0 - s * a1), (hi, s * a0 + c * a1)):
            if abs(a) > SUPPORT_DROP:
                out[i] = a
            else:
                dropped += abs(a) ** 2
    return out, dropped


def _simulate_support_reference(circuit: Circuit) -> tuple[dict, int, float]:
    """Support simulation as a dict walk, one amplitude at a time, with each
    rotation kind spelled out: (amplitudes, peak support, pruned mass)."""

    def angle_at(g, i):
        return g.angle[sum(((i >> c) & 1) << j for j, c in enumerate(g.controls))]

    amps: dict = {0: 1.0 + 0.0j}
    peak, pruned = 1, 0.0
    for g in circuit:
        bit = 1 << g.targets[0]
        if g.kind == "X":
            amps = {i ^ bit: a for i, a in amps.items()}
        elif g.kind == "CX":
            c = 1 << g.controls[0]
            amps = {(i ^ bit if i & c else i): a for i, a in amps.items()}
        elif g.kind == "RZ":
            lo, hi = cmath.exp(-0.5j * g.angle), cmath.exp(0.5j * g.angle)
            amps = {i: a * (hi if i & bit else lo) for i, a in amps.items()}
        elif g.kind == "UCRZ":
            amps = {
                i: a * cmath.exp((0.5j if i & bit else -0.5j) * angle_at(g, i))
                for i, a in amps.items()
            }
        else:
            assert g.kind in ("RY", "UCRY")
            lows = list({i & ~bit for i in amps})
            if g.kind == "RY":
                cos_sin = repeat((math.cos(0.5 * g.angle), math.sin(0.5 * g.angle)))
            else:
                half = [0.5 * angle_at(g, lo) for lo in lows]
                cos_sin = [(math.cos(h), math.sin(h)) for h in half]
            amps, dropped = _rotate_pairs(amps, bit, lows, cos_sin)
            pruned += dropped
            peak = max(peak, len(amps))
    return amps, peak, pruned


def _assert_support_matches_reference(circuit: Circuit):
    run = simulate_support(circuit)
    amps, peak, pruned = _simulate_support_reference(circuit)
    assert run.indices.dtype == np.int64 and run.indices.tolist() == sorted(amps)
    assert run.peak_support == peak
    for i, a in zip(run.indices.tolist(), run.amplitudes.tolist()):
        assert abs(a - amps[i]) <= 1e-15
    # after an RZ or UCRZ the two may round a complex product differently
    # (NumPy fuses a multiply-add where the CPU has one), and the residues a
    # rotation then drops are rounding noise of their own size; an amplitude
    # dropped in error would carry more than SUPPORT_DROP**2
    phased = any(g.kind in ("RZ", "UCRZ") for g in circuit)
    floor = SUPPORT_DROP**2 if phased else 0.0
    assert math.isclose(run.pruned_mass, pruned, rel_tol=1e-9, abs_tol=floor)
    return run


def _assert_support_matches_dense(circuit: Circuit) -> None:
    run = _assert_support_matches_reference(circuit)
    assert len(run.indices) == len(run.amplitudes) <= run.peak_support <= 2**circuit.n_qubits
    scattered = simulate(Circuit(circuit.n_qubits), run)
    np.testing.assert_allclose(scattered, simulate(circuit), rtol=0, atol=1e-12)


def test_support_simulation_matches_dense_on_random_loader_circuits():
    for _ in range(60):
        _assert_support_matches_dense(_random_loader_circuit(int(RNG.integers(1, 7)), 20))


def _sparse_state(n: int, indices, complex_amps: bool) -> SparseState:
    a = RNG.normal(size=len(indices))
    if complex_amps:
        a = a + 1j * RNG.normal(size=len(indices))
    a = a / np.linalg.norm(a)
    return SparseState(n, indices, a)


@pytest.mark.parametrize("complex_amps", [False, True], ids=["real", "complex"])
def test_support_simulation_matches_dense_on_sqsp_outputs(complex_amps):
    scattered = _sparse_state(9, RNG.choice(2**9, size=12, replace=False), complex_amps)
    merged = sqsp(scattered)
    assert {g.kind for g in merged} <= {"X", "CX", "RY", "RZ"}
    # every state of a 4-bit subcube at offset 0b1000000: the cascade
    cube = _sparse_state(7, 64 + np.arange(16), complex_amps)
    cascade = sqsp(cube)
    assert "UCRY" in {g.kind for g in cascade}
    for s, circuit in ((scattered, merged), (cube, cascade)):
        _assert_support_matches_dense(circuit)
        run = simulate_support(circuit)
        assert run.peak_support <= 2 * s.d
        assert fidelity(simulate(Circuit(s.n), run), s.to_dense()) >= 1 - 1e-12


@pytest.mark.parametrize("label", ["sinc", "gaussian"])
def test_support_simulation_matches_reference_on_table1_loaders(label):
    cfg = next(c for c in table1_configs() if c.label == label)
    x = cfg.build_signal().samples
    compressed = threshold_normalize(analyse(x, cfg.descriptor), cfg.threshold)
    _assert_support_matches_reference(sqsp(SparseState.from_compressed(compressed)))


def _simulate_support_per_gate(circuit: Circuit) -> SupportState:
    """Support simulation one gate at a time, re-pairing the support at
    every rotation: the reference for :func:`simulate_support`, which
    pairs it once per run of gates on one target and must match this bit
    for bit."""
    idx = np.zeros(1, dtype=np.int64)
    amp = np.ones(1, dtype=complex)
    peak, pruned = 1, 0.0
    for g in circuit:
        bit = 1 << g.targets[0]
        if g.kind == "X":
            idx = idx ^ bit
        elif g.kind == "CX":
            idx = np.where(idx & (1 << g.controls[0]), idx ^ bit, idx)
        elif g.kind in ("RZ", "UCRZ"):
            angles = np.atleast_1d(g.angle)[_pattern_of(idx, g.controls)]
            amp = amp * np.exp(np.where(idx & bit, 0.5j, -0.5j) * angles)
        else:
            lows, pair = np.unique(idx & ~bit, return_inverse=True)
            # row 0 holds each pair's amplitude at lo, row 1 at lo | bit
            slots = np.zeros((2, len(lows)), dtype=complex)
            slots[(idx >> g.targets[0]) & 1, pair.ravel()] = amp
            half = 0.5 * np.atleast_1d(g.angle)[_pattern_of(lows, g.controls)]
            c, s = np.cos(half), np.sin(half)
            idx = np.concatenate([lows, lows | bit])
            amp = np.concatenate([c * slots[0] - s * slots[1], s * slots[0] + c * slots[1]])
            keep = np.abs(amp) > SUPPORT_DROP
            pruned += float(np.sum(np.abs(amp[~keep]) ** 2))
            idx, amp = idx[keep], amp[keep]
            peak = max(peak, len(idx))
    order = np.argsort(idx)
    return SupportState(idx[order], amp[order], peak, pruned)


def _assert_support_is_per_gate(circuit: Circuit) -> SupportState:
    run, want = simulate_support(circuit), _simulate_support_per_gate(circuit)
    np.testing.assert_array_equal(run.indices, want.indices)
    np.testing.assert_array_equal(run.amplitudes, want.amplitudes)
    assert run.peak_support == want.peak_support
    # the same dropped squares, which a pairwise sum may group otherwise
    assert run.pruned_mass == pytest.approx(want.pruned_mass, rel=1e-13, abs=0)
    return run


def _run_loader_circuit(rng, n: int, runs: int) -> Circuit:
    """``runs`` runs of 1-12 gates on one random target each: X, CX from
    any other wire, RY, RZ, and UCRY and UCRZ with 0-3 controls in random
    order, and RY(pi) pairs, whose residues are dropped mid-run."""
    circuit = Circuit(n)
    for _ in range(runs):
        target = int(rng.integers(n))
        wires = [q for q in range(n) if q != target]
        for _ in range(int(rng.integers(1, 13))):
            kind = str(rng.choice(["X", "CX", "RY", "RZ", "UCRY", "UCRZ", "RY(pi)"]))
            if kind == "RY(pi)":
                circuit.extend([gate("RY", target, angle=math.pi)] * 2)
            elif kind == "X" or (kind == "CX" and not wires):
                circuit.add("X", target)
            elif kind == "CX":
                circuit.add("CX", int(rng.choice(wires)), target)
            elif kind in ("RY", "RZ"):
                circuit.add(kind, target, angle=float(rng.uniform(-3, 3)))
            else:
                k = int(rng.integers(0, min(3, len(wires)) + 1))
                controls = [int(q) for q in rng.choice(wires, size=k, replace=False)]
                circuit.add(kind, *controls, target, angle=rng.uniform(-3, 3, size=2**k))
    return circuit


def test_paired_runs_match_the_per_gate_support_simulation():
    rng = np.random.default_rng(41)
    dropped = toggled = 0
    for _ in range(200):
        circuit = _run_loader_circuit(rng, int(rng.integers(1, 8)), 10)
        run = _assert_support_is_per_gate(circuit)
        dropped += run.pruned_mass > 0
        # a run of rotations with CX from two or more controls among them
        for _, gates in groupby(circuit, key=lambda g: g.targets[0]):
            gates = list(gates)
            controls = {g.controls[0] for g in gates if g.kind == "CX"}
            toggled += len(controls) > 1 and any(g.kind != "CX" for g in gates)
    assert dropped > 100 and toggled > 100


@pytest.mark.parametrize("seed", range(16))
def test_paired_runs_match_the_per_gate_support_simulation_on_table1_loaders(seed):
    sinc, gaussian, mixture = table1_configs(seed=seed)[:3]
    for cfg in (sinc, gaussian, mixture) if seed == 0 else (mixture,):
        x = cfg.build_signal().samples
        compressed = threshold_normalize(analyse(x, cfg.descriptor), cfg.threshold)
        _assert_support_is_per_gate(sqsp(SparseState.from_compressed(compressed)))


@pytest.mark.parametrize("kind", ["RY", "RZ"])
def test_zero_control_multiplexer_is_the_plain_rotation(kind):
    # a superposed start, so the rotation acts on pairs and phases alike
    start = [gate("RY", q, angle=0.4 + q) for q in range(3)] + [gate("CX", 0, 2)]
    for target in range(3):
        rotation = Circuit(3, start + [gate(kind, target, angle=-1.1)])
        multiplexer = Circuit(3, start + [gate("UC" + kind, target, angle=[-1.1])])
        got, want = simulate_support(multiplexer), simulate_support(rotation)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.amplitudes, want.amplitudes)
        assert (got.peak_support, got.pruned_mass) == (want.peak_support, want.pruned_mass)
        np.testing.assert_array_equal(simulate(multiplexer), simulate(rotation))


def test_support_simulation_drops_residues_and_reports_them():
    # RY(pi) twice is -1 on |0>; each rotation leaves cos(pi/2) ~ 6e-17 in
    # the slot it empties, which is dropped
    run = simulate_support(Circuit(1, [gate("RY", 0, angle=math.pi)] * 2))
    assert run.indices.tolist() == [0]
    assert run.amplitudes[0] == pytest.approx(-1.0)
    assert run.peak_support == 1
    assert 0 < run.pruned_mass < 1e-30


@pytest.mark.parametrize(
    "g",
    [gate("H", 0), gate("SWAP", 0, 1), gate("CPHASE", 0, 1, angle=0.3), gate("CCX", 0, 1, 2)],
    ids=lambda g: g.kind,
)
def test_support_simulation_rejects_non_loader_kinds(g):
    with pytest.raises(UnsupportedGateError, match=g.kind):
        simulate_support(Circuit(3, [gate("X", 0), g]))


def test_capacity_cap_enforced():
    with pytest.raises(CapacityError):
        simulate(Circuit(MAX_QUBITS + 1))
    with pytest.raises(CapacityError):
        unitary_of(Circuit(9))


def test_fidelity_extremes():
    a = np.array([1, 0], dtype=complex)
    b = np.array([0, 1], dtype=complex)
    assert fidelity(a, a) == 1.0
    assert fidelity(a, b) == 0.0
    assert abs(fidelity(a, (a + b) / math.sqrt(2)) - 0.5) < 1e-12


def test_fidelity_normalizes_and_rejects_zero():
    a = np.array([3.0, 0.0])
    assert fidelity(a, a) == 1.0
    with pytest.raises(ValueError):
        fidelity(a, np.zeros(2))
    with pytest.raises(ValueError):
        trace_distance(np.zeros(2), a)


def test_trace_distance_matches_fidelity_for_far_states():
    for _ in range(20):
        a = RNG.standard_normal(32) + 1j * RNG.standard_normal(32)
        b = RNG.standard_normal(32) + 1j * RNG.standard_normal(32)
        td = trace_distance(a, b)
        assert abs(td - math.sqrt(1.0 - fidelity(a, b))) < 1e-9


def test_trace_distance_resolves_below_float_fidelity_floor():
    # sqrt(1 - F) computed through fidelity() floors near sqrt(eps); the
    # residual form must resolve identical-up-to-phase states to ~1e-15
    a = RNG.standard_normal(2**12) + 1j * RNG.standard_normal(2**12)
    a /= np.linalg.norm(a)
    assert trace_distance(a, a * np.exp(0.83j)) < 1e-12
    perturbed = a + 1e-11 * RNG.standard_normal(2**12)
    assert trace_distance(a, perturbed) < 1e-9


def test_trace_distance_symmetry_and_range():
    for _ in range(10):
        a = RNG.standard_normal(16) + 1j * RNG.standard_normal(16)
        b = RNG.standard_normal(16) + 1j * RNG.standard_normal(16)
        td = trace_distance(a, b)
        assert 0.0 <= td <= 1.0
        assert abs(td - trace_distance(b, a)) < 1e-12


def test_state_csv_roundtrip(tmp_path):
    state = RNG.standard_normal(8) + 1j * RNG.standard_normal(8)
    path = tmp_path / "state.csv"
    write_amplitude_csv(path, 3, np.arange(8), state)
    n, indices, loaded, _ = read_amplitude_csv(path)
    assert n == 3 and indices.tolist() == list(range(8))
    np.testing.assert_array_equal(loaded, state.astype(complex))  # repr round trip is exact


def test_state_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# n=1\nidx,re,im\n0,1.0,0.0\n")
    with pytest.raises(ValueError, match="expected header"):
        read_amplitude_csv(path)
