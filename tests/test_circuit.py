"""Circuit IR, multiplexers, decomposition, scheduling, serialization.

The uniformly controlled rotation oracle builds the expected block
unitary directly from the definition (rotate the target by the pattern's
angle when the controls hold that pattern) and compares against the
simulated Gray-walk gate sequence.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqsp.circuit import (
    GATE_KINDS,
    Circuit,
    Gate,
    cancel_adjacent_inverses,
    decompose,
    export,
    gate,
    inverse,
    parse_qasm,
    report,
    report_stages,
)
from hqsp.circuit import _ANGLE_EPS, _KINDS, _fwht
from hqsp.statesim import simulate, unitary_of

RNG = np.random.default_rng(7)


# ---------------------------------------------------------------------------
# IR validation
# ---------------------------------------------------------------------------


def test_gate_rejects_unknown_kind():
    with pytest.raises(ValueError):
        gate("CNOT", 0, 1)


def test_gate_checks_operand_count():
    with pytest.raises(ValueError):
        gate("CX", 0)
    with pytest.raises(ValueError):
        gate("H", 0, 1)
    with pytest.raises(ValueError):
        gate("CCX", 0, 1, 2, 3)


def test_gate_rejects_duplicates_and_negatives():
    with pytest.raises(ValueError):
        gate("CX", 1, 1)
    with pytest.raises(ValueError):
        gate("H", -1)


def test_gate_angle_rules():
    with pytest.raises(ValueError):
        gate("RY", 0)  # angle required
    with pytest.raises(ValueError):
        gate("X", 0, angle=1.0)  # angle forbidden
    assert gate("RY", 0, angle=np.float64(0.5)).angle == 0.5
    assert isinstance(gate("RY", 0, angle=np.float64(0.5)).angle, float)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            gate("RY", 0, angle=bad)
    # a scalar rotation takes one real number; anything else names the kind
    for bad in ([0.5], (0.5,), np.array([0.5]), 1j, "half", object()):
        with pytest.raises(ValueError, match="RZ angle must be a real number"):
            gate("RZ", 0, angle=bad)


def test_gate_control_target_split():
    g = gate("UCRY", 0, 2, 4, 1, angle=[0.0] * 8)
    assert g.controls == (0, 2, 4)
    assert g.targets == (1,)
    assert gate("CCX", 3, 0, 2).controls == (3, 0)
    assert gate("SWAP", 0, 1).controls == ()


def test_circuit_container_semantics():
    c = Circuit(2)
    c.add("H", 0).add("CX", 0, 1)
    d = Circuit(2, [gate("H", 0), gate("CX", 0, 1)])
    assert c == d
    assert len(c) == 2
    assert list(c) == d.gates
    combined = c + d
    assert len(combined) == 4
    assert combined.n_qubits == 2


def test_circuit_rejects_out_of_range_gate():
    c = Circuit(2)
    with pytest.raises(ValueError):
        c.add("H", 2)


# ---------------------------------------------------------------------------
# Uniformly controlled rotations
# ---------------------------------------------------------------------------


def _reference_ucr(axis: str, n, controls, target, pattern_angles):
    """Directly built multiplexer unitary: RY/RZ(angle[p]) on the target
    for each control pattern p, identity elsewhere on the register."""
    dim = 2**n
    u = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        p = 0
        for bit, c in enumerate(controls):
            p |= ((j >> c) & 1) << bit
        t = pattern_angles[p]
        if axis == "RY":
            mat = np.array(
                [
                    [math.cos(t / 2), -math.sin(t / 2)],
                    [math.sin(t / 2), math.cos(t / 2)],
                ],
                dtype=complex,
            )
        else:
            mat = np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
        tv = (j >> target) & 1
        for out_value in (0, 1):
            k = (j & ~(1 << target)) | (out_value << target)
            u[k, j] += mat[out_value, tv]
    return u


def _lowered(kind, controls, target, angles):
    g = gate(kind, *controls, target, angle=angles)
    return decompose(Circuit(max(g.qubits) + 1, [g])).gates


def ucry_gates(controls, target, angles):
    """The gates ``decompose`` lowers a native UCRY to."""
    return _lowered("UCRY", controls, target, angles)


def ucrz_gates(controls, target, angles):
    """The gates ``decompose`` lowers a native UCRZ to."""
    return _lowered("UCRZ", controls, target, angles)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("builder,axis", [(ucry_gates, "RY"), (ucrz_gates, "RZ")])
def test_multiplexer_matches_definition(k, builder, axis):
    controls = tuple(range(1, k + 1))
    target = 0
    angles = RNG.uniform(-math.pi, math.pi, size=2**k)
    circuit = Circuit(k + 1, builder(controls, target, angles))
    expected = _reference_ucr(axis, k + 1, controls, target, angles)
    np.testing.assert_allclose(unitary_of(circuit), expected, atol=1e-12)
    native = Circuit(k + 1, [gate("UC" + axis, *controls, target, angle=angles)])
    np.testing.assert_allclose(unitary_of(native), expected, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_multiplexer_cx_budget_is_structural(k):
    # zero angles elide rotations but never the CX ladder
    angles = np.zeros(2**k)
    angles[0] = 0.7
    gates = ucry_gates(tuple(range(1, k + 1)), 0, angles)
    assert sum(1 for g in gates if g.kind == "CX") == 2**k
    all_zero = ucry_gates(tuple(range(1, k + 1)), 0, np.zeros(2**k))
    assert sum(1 for g in all_zero if g.kind == "CX") == 2**k
    assert all(g.kind == "CX" for g in all_zero)
    # the all-zero ladder multiplies out to the identity
    ident = unitary_of(Circuit(k + 1, all_zero))
    np.testing.assert_allclose(ident, np.eye(2 ** (k + 1)), atol=1e-12)


def test_multiplexer_zero_controls():
    assert ucry_gates((), 0, [0.0]) == []
    (only,) = ucry_gates((), 0, [1.1])
    assert only.kind == "RY" and only.angle == 1.1


def test_multiplexer_rejects_wrong_angle_count():
    with pytest.raises(ValueError):
        ucry_gates((1, 2), 0, [0.1, 0.2])


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("builder", [ucry_gates, ucrz_gates])
def test_multiplexer_rejects_non_finite_angle(k, builder):
    # abs(nan) >= eps is false: the elision test alone would drop a NaN
    for bad in (math.nan, math.inf, -math.inf):
        angles = np.full(2**k, 0.3)
        angles[-1] = bad
        with pytest.raises(ValueError, match="finite"):
            builder(tuple(range(1, k + 1)), 0, angles)


def _fwht_loop(v):
    """Block-by-block butterfly loop: the reference for the vectorised stages."""
    out = np.array(v, dtype=float)
    h = 1
    while h < len(out):
        for i in range(0, len(out), 2 * h):
            a, b = out[i : i + h].copy(), out[i + h : i + 2 * h].copy()
            out[i : i + h], out[i + h : i + 2 * h] = a + b, a - b
        h *= 2
    return out


@pytest.mark.parametrize("k", [0, 1, 2, 5, 9])
def test_fwht_matches_loop_reference(k):
    v = RNG.uniform(-math.pi, math.pi, size=2**k)
    np.testing.assert_array_equal(_fwht(v), _fwht_loop(v))


def test_multiplexer_gate_rules():
    g = gate("UCRY", 1, 2, 0, angle=np.array([0.1, 0.2, 0.3, 0.4]))
    assert g.angle == (0.1, 0.2, 0.3, 0.4)
    assert all(type(a) is float for a in g.angle)
    assert g.controls == (1, 2) and g.targets == (0,)
    assert gate("UCRZ", 0, angle=[0.5]).controls == ()  # a level without controls
    for bad in (0.5, [0.1, 0.2], [0.1] * 8, "ab", [[0.1, 0.2], [0.3, 0.4]], [1j, 0, 0, 0]):
        with pytest.raises(ValueError, match="4 pattern angles"):
            gate("UCRY", 1, 2, 0, angle=bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            gate("UCRZ", 1, 0, angle=[0.0, bad])
    with pytest.raises(ValueError):
        gate("UCRY", angle=[0.1])  # no target
    with pytest.raises(ValueError):
        gate("UCRZ", 1, 0)  # pattern angles required
    with pytest.raises(ValueError):
        gate("UCRY", 0, 0, angle=[0.1, 0.2])


@st.composite
def multiplexers(draw):
    """A UCRY/UCRZ with 1-6 controls in any order on any target, finite
    angles with exact zeros among them, and a random complex state."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(k + 1, 7))
    wires = draw(st.permutations(range(n)))
    angle = st.one_of(st.just(0.0), st.floats(-4.0, 4.0, allow_nan=False))
    angles = draw(st.lists(angle, min_size=2**k, max_size=2**k))
    kind = draw(st.sampled_from(["UCRY", "UCRZ"]))
    g = gate(kind, *wires[: k + 1], angle=angles)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return n, g, psi / np.linalg.norm(psi)


@given(multiplexers())
@settings(max_examples=100, deadline=None)
def test_native_multiplexer_matches_its_lowering(case):
    n, g, psi = case
    native = Circuit(n, [g])
    lowered = decompose(native)
    np.testing.assert_allclose(simulate(native, psi), simulate(lowered, psi), rtol=0, atol=1e-12)
    assert report(native) == report(lowered)
    # the ladder: 2**k CX, each after the rotation (unless elided) of its walk step
    assert [x.kind for x in lowered].count("CX") == 2 ** len(g.controls)
    assert {x.kind for x in lowered} <= {"CX", g.kind[2:]}


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------


def _global_phase_equal(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    i, j = np.unravel_index(int(np.argmax(np.abs(a))), a.shape)
    if abs(a[i, j]) < tol:
        return bool(np.allclose(a, b, atol=tol))
    phase = b[i, j] / a[i, j]
    return bool(np.allclose(a * phase, b, atol=tol))


DECOMPOSED_CASES = [
    gate("SWAP", 0, 2),
    gate("CPHASE", 1, 0, angle=0.77),
    gate("CCX", 0, 1, 2),
    # one-hot multiplexers: RY/RZ on the target when every control is set
    gate("UCRY", 1, 0, angle=(0.0, 0.9)),
    gate("UCRY", 0, 1, 2, 3, angle=(0.0,) * 7 + (-1.4,)),
    gate("UCRZ", 3, 1, 4, angle=(0.0, 0.0, 0.0, 0.6)),
]


@pytest.mark.parametrize("g", DECOMPOSED_CASES, ids=lambda g: f"{g.kind}{len(g.qubits)}")
def test_decomposition_preserves_unitary_up_to_phase(g):
    n = max(g.qubits) + 1
    whole = unitary_of(Circuit(n, [g]))
    parts = unitary_of(decompose(Circuit(n, [g])))
    assert _global_phase_equal(whole, parts, 1e-12)


def test_decompose_targets_base_set_only():
    base = {"H", "X", "RX", "RY", "RZ", "PHASE", "CX"}
    circuit = Circuit(5, DECOMPOSED_CASES)
    assert all(g.kind in base for g in decompose(circuit))


def test_decomposition_cx_costs():
    def cx_count(g):
        return sum(1 for s in decompose(Circuit(max(g.qubits) + 1, [g])) if s.kind == "CX")

    assert cx_count(gate("SWAP", 0, 1)) == 3
    assert cx_count(gate("CPHASE", 0, 1, angle=0.3)) == 2
    assert cx_count(gate("CCX", 0, 1, 2)) == 6
    for k in range(0, 6):
        one_hot = (0.0,) * (2**k - 1) + (0.5,)
        ucry = gate("UCRY", *range(k), k, angle=one_hot)
        assert cx_count(ucry) == (2**k if k else 0)


# ---------------------------------------------------------------------------
# Scheduling and reports
# ---------------------------------------------------------------------------


def test_depth_parallel_vs_serial():
    assert report(Circuit(3, [gate("H", q) for q in range(3)])).depth == 1
    assert report(Circuit(3, [gate("CX", 0, 1), gate("CX", 1, 2)])).depth == 2
    assert report(Circuit(3, [gate("CX", 0, 1), gate("X", 2)])).depth == 1
    assert report(Circuit(2)).depth == 0


@st.composite
def prefixed_multiplexers(draw):
    """Random CX/H/X/SWAP/CPHASE/CCX prefixes (uneven frontiers) followed by
    1-4 native UCRY/UCRZ with 0-6 controls, each followed by 0-3 more of the
    prefix kinds; patterns are random, have exact zeros, or are all equal (so
    most Gray-walk angles vanish)."""
    n = draw(st.integers(1, 8))
    c = Circuit(n)
    angle = st.floats(-4.0, 4.0, allow_nan=False)

    def draw_gates(most):
        for _ in range(draw(st.integers(0, most))):
            kind = draw(st.sampled_from(["CX", "H", "X", "SWAP", "CPHASE", "CCX"]))
            arity = _KINDS[kind].controls + _KINDS[kind].targets
            if arity <= n:
                wires = draw(st.permutations(range(n)))[:arity]
                c.add(kind, *wires, angle=draw(angle) if kind == "CPHASE" else None)

    draw_gates(12)
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, min(6, n - 1)))
        wires = draw(st.permutations(range(n)))[: k + 1]
        pattern = draw(st.sampled_from(["random", "zeros", "equal"]))
        if pattern == "equal":
            angles = [draw(angle)] * 2**k
        else:
            slot = st.one_of(st.just(0.0), angle) if pattern == "zeros" else angle
            angles = draw(st.lists(slot, min_size=2**k, max_size=2**k))
        c.add(draw(st.sampled_from(["UCRY", "UCRZ"])), *wires, angle=angles)
        draw_gates(3)
    return c


@given(prefixed_multiplexers())
@settings(max_examples=200, deadline=None)
def test_ladder_schedule_matches_lowering(c):
    # report schedules native multiplexers, SWAP and CPHASE in closed form;
    # the decomposed circuit is scheduled gate by gate
    assert report(c) == report(decompose(c))


def test_report_counts_and_stages():
    # each stage is priced on its own, the whole circuit as one schedule
    stage_a = Circuit(2, [gate("H", 0), gate("CX", 0, 1)])
    stage_b = Circuit(2, [gate("SWAP", 0, 1)])
    rep = report(stage_a + stage_b)
    assert rep.cnot_count == 1 + 3
    assert rep.single_qubit_count == 1
    assert report(stage_a).cnot_count == 1
    assert report(stage_b).cnot_count == 3
    assert report(stage_b).depth == 3
    assert str(rep) == "cnot_count=4 single_qubit_count=1 depth=5"
    assert report_stages(stage_a, stage_b) == (report(stage_a), report(stage_b), rep)


@given(prefixed_multiplexers(), st.data())
@settings(max_examples=100, deadline=None)
def test_report_stages_continues_the_first_schedule(c, data):
    # the whole is the first stage's schedule carried on through the second
    cut = data.draw(st.integers(0, len(c)))
    first, second = Circuit(c.n_qubits, c.gates[:cut]), Circuit(c.n_qubits, c.gates[cut:])
    assert report_stages(first, second) == (report(first), report(second), report(c))


# ---------------------------------------------------------------------------
# Peephole cancellation
# ---------------------------------------------------------------------------


def test_cancel_self_inverse_pairs():
    c = Circuit(2, [gate("X", 0), gate("X", 0)])
    assert cancel_adjacent_inverses(c).gates == []


def test_cancel_skips_disjoint_wires():
    c = Circuit(2, [gate("X", 0), gate("H", 1), gate("X", 0)])
    assert cancel_adjacent_inverses(c).gates == [gate("H", 1)]


def test_cancel_blocked_by_overlap():
    gates = [gate("X", 0), gate("CX", 0, 1), gate("X", 0)]
    assert cancel_adjacent_inverses(Circuit(2, gates)).gates == gates


def test_cancel_opposite_rotations():
    c = Circuit(1, [gate("RY", 0, angle=0.4), gate("RY", 0, angle=-0.4)])
    assert cancel_adjacent_inverses(c).gates == []
    keep = Circuit(1, [gate("RY", 0, angle=0.4), gate("RY", 0, angle=0.4)])
    assert len(cancel_adjacent_inverses(keep)) == 2


def test_cancel_mcx_pairs():
    # CCX is the IR's one multi-controlled X
    c = Circuit(3, [gate("CCX", 0, 1, 2), gate("CCX", 0, 1, 2)])
    assert cancel_adjacent_inverses(c).gates == []
    other_target = [gate("CCX", 0, 1, 2), gate("CCX", 0, 2, 1)]
    assert cancel_adjacent_inverses(Circuit(3, other_target)).gates == other_target


# one gate of every kind in the IR
_ONE_OF_EACH_KIND = [
    gate("H", 0),
    gate("X", 1),
    gate("RX", 0, angle=0.3),
    gate("RY", 1, angle=-1.1),
    gate("RZ", 2, angle=2.2),
    gate("PHASE", 0, angle=0.7),
    gate("CX", 2, 0),
    gate("CPHASE", 0, 2, angle=-0.4),
    gate("SWAP", 1, 2),
    gate("CCX", 2, 0, 1),
    gate("UCRY", 2, 0, 1, angle=(0.4, -1.2, 0.0, 2.5)),
    gate("UCRZ", 1, 2, angle=(0.9, -0.3)),
]


@pytest.mark.parametrize("g", _ONE_OF_EACH_KIND, ids=lambda g: g.kind)
def test_inverse_undoes_each_kind(g):
    inv = inverse(g)
    assert (inv is g) == (g.angle is None)
    product = unitary_of(Circuit(3, [g, inv]))
    np.testing.assert_allclose(product, np.eye(8), atol=1e-12)
    assert cancel_adjacent_inverses(Circuit(3, [g, inv])).gates == []


def test_one_of_each_kind_covers_the_ir():
    assert {g.kind for g in _ONE_OF_EACH_KIND} == GATE_KINDS == _KINDS.keys()


@pytest.mark.parametrize("g", _ONE_OF_EACH_KIND, ids=lambda g: g.kind)
def test_each_kind_row_round_trips(g):
    # a kind with a QASM name is written and read back as it is; a
    # multiplexer is written as its ladder of its row's rotation and CX
    row, c = _KINDS[g.kind], Circuit(3, [g])
    lowered = decompose(c)
    if row.qasm:
        assert export(c).splitlines()[-1].startswith(row.qasm)
        assert parse_qasm(export(c)) == c
    else:
        assert {h.kind for h in lowered} == {row.rotation, "CX"}
        assert parse_qasm(export(c)) == lowered
    np.testing.assert_allclose(unitary_of(lowered), unitary_of(c), atol=1e-12)


def _fresh_multiplexers(k, seed=0):
    """k multiplexers with 0..k-1 controls, none of whose walks is read."""
    rng = np.random.default_rng(seed)
    return [
        gate(("UCRY", "UCRZ")[j % 2], *range(j + 1), angle=rng.uniform(-3, 3, 2**j))
        for j in range(k)
    ]


@pytest.mark.parametrize("k", [1, 4])
def test_each_multiplexer_walk_is_computed_once(monkeypatch, k):
    # report twice, export and lowering all read the walk cached on the gate
    calls = []

    def counted(v):
        calls.append(v)
        return _fwht(v)

    monkeypatch.setattr("hqsp.circuit._fwht", counted)
    c = Circuit(k + 1, [gate("H", 0), *_fresh_multiplexers(k), gate("X", k)])
    first = report(c)
    assert report(c) == first
    text = export(c)
    assert export(decompose(c)) == text
    assert len(calls) == k


def test_reading_the_walk_leaves_equality_and_hash():
    g, h = _fresh_multiplexers(3)[2], _fresh_multiplexers(3, seed=1)[2]
    twin = gate(g.kind, *g.qubits, angle=g.angle)
    before = hash(g)
    phi, kept = g.walk
    assert g == twin and hash(g) == before == hash(twin)
    assert g.walk is g.walk  # cached on the gate
    assert not phi.flags.writeable and not kept.flags.writeable
    assert g != h and {g, twin} == {twin}


def test_cancel_cascades():
    # inner pair removal exposes the outer pair
    c = Circuit(2, [gate("H", 0), gate("X", 0), gate("X", 0), gate("H", 0)])
    assert cancel_adjacent_inverses(c).gates == []


def _cancel_to_fixpoint(gates):
    """Repeated adjacent-inverse passes until one changes nothing: the
    reference for the single pass."""
    while True:
        out = []
        for g in gates:
            j = len(out) - 1
            while j >= 0 and not set(out[j].qubits) & set(g.qubits):
                j -= 1
            if j >= 0 and out[j] == inverse(g):  # exact: the angles negate exactly
                del out[j]
            else:
                out.append(g)
        if out == gates:
            return out
        gates = out


@st.composite
def peephole_gates(draw):
    """Gate lists on three wires from a small alphabet, so that inverse
    pairs, nested pairs and pairs split by a blocking gate are common."""
    angle = st.sampled_from([0.5, -0.5, 1.25, -1.25])
    one = st.builds(lambda k, q: gate(k, q), st.sampled_from(["H", "X"]), st.integers(0, 2))
    rot = st.builds(lambda q, a: gate("RY", q, angle=a), st.integers(0, 2), angle)
    two = st.builds(lambda qs: gate("CX", *qs), st.permutations(range(3)).map(lambda p: p[:2]))
    mux = st.builds(lambda a, b: gate("UCRY", 0, 1, angle=(a, b)), angle, angle)
    return draw(st.lists(st.one_of(one, rot, two, mux), max_size=24))


@given(peephole_gates())
@settings(max_examples=100, deadline=None)
def test_one_cancellation_pass_reaches_the_fixpoint(gates):
    assert cancel_adjacent_inverses(Circuit(3, gates)).gates == _cancel_to_fixpoint(gates)


# ---------------------------------------------------------------------------
# Export / parse round trips
# ---------------------------------------------------------------------------


def _sample_circuit() -> Circuit:
    c = Circuit(3)
    c.add("H", 0).add("RY", 1, angle=0.123456789).add("CX", 0, 2)
    c.add("CPHASE", 1, 2, angle=-2.5).add("SWAP", 0, 1).add("CCX", 0, 1, 2)
    c.add("PHASE", 2, angle=math.pi / 3)
    return c


def test_qasm_roundtrip_exact():
    c = _sample_circuit()
    text = export(c)
    assert text.startswith("OPENQASM 2.0;")
    assert parse_qasm(text) == c


def test_qasm_decomposes_nonstandard_gates():
    # a one-hot multiplexer: RY(0.8) on qubit 2 when qubits 0 and 1 are set
    c = Circuit(3, [gate("UCRY", 0, 1, 2, angle=(0.0, 0.0, 0.0, 0.8))])
    parsed = parse_qasm(export(c))
    assert all(g.kind != "UCRY" for g in parsed)
    np.testing.assert_allclose(unitary_of(parsed), unitary_of(c), atol=1e-12)


def test_export_lowers_native_multiplexers_only():
    ucry = gate("UCRY", 0, 2, 1, angle=(0.3, 0.0, -0.8, 1.1))
    ucrz = gate("UCRZ", 2, 0, angle=(0.5, -0.5))
    ccx = gate("CCX", 0, 1, 2)
    c = Circuit(3, [ccx, ucry, ucrz])
    lowered = ucry_gates((0, 2), 1, ucry.angle) + ucrz_gates((2,), 0, ucrz.angle)
    # QASM carries CCX as it is
    assert parse_qasm(export(c)) == Circuit(3, [ccx, *lowered])


def _multiplexer(kind, k, seed, angles=None):
    rng = np.random.default_rng(seed)
    qubits = rng.permutation(k + 2)[: k + 1]
    if angles is None:
        angles = rng.uniform(-3.0, 3.0, 2**k)
    return gate(kind, *map(int, qubits), angle=angles)


@pytest.mark.parametrize("kind", ["UCRY", "UCRZ"])
@pytest.mark.parametrize("k", range(6))
def test_export_writes_multiplexers_as_their_lowered_ladders(kind, k):
    # the ladder writer against lowering and writing one gate at a time
    c = Circuit(k + 2, [_multiplexer(kind, k, seed=k)])
    assert export(c) == export(decompose(c))


@pytest.mark.parametrize("kind", ["UCRY", "UCRZ"])
@pytest.mark.parametrize("k", range(1, 6))
def test_export_elides_the_same_walk_angles_as_lowering(kind, k):
    # equal pattern angles leave exact-zero walk angles; a 4e-15 step on
    # every odd pattern leaves one walk angle that is nonzero but below
    # _ANGLE_EPS
    theta = np.full(2**k, 0.7)
    theta[1::2] += 4e-15
    g = _multiplexer(kind, k, seed=k, angles=theta)
    phi, kept = g.walk
    assert (phi == 0).any() == (k > 1)
    assert ((phi != 0) & (np.abs(phi) < _ANGLE_EPS)).any()
    c = Circuit(k + 2, [g])
    text = export(c)
    assert text == export(decompose(c))
    assert text.count("\nr") == kept.sum()  # one rotation line per kept angle


def test_export_writes_multiplexers_among_other_kinds_as_lowered():
    # QASM carries CCX, SWAP and CPHASE as they are, so only the
    # multiplexers are lowered in the reference
    rng = np.random.default_rng(17)
    n = 6
    c, lowered = Circuit(n), Circuit(n)
    for i in range(40):
        a, b, t = map(int, rng.permutation(n)[:3])
        ucr = _multiplexer(("UCRY", "UCRZ")[i % 2], i % 5, seed=i)
        others = [
            gate("CCX", a, b, t),
            gate("SWAP", a, t),
            gate("CPHASE", b, t, angle=float(rng.uniform(-3.0, 3.0))),
        ]
        c.append(ucr).extend(others)
        lowered.extend(decompose(Circuit(n, [ucr]))).extend(others)
    assert export(c) == export(lowered)


def test_parsers_reject_native_multiplexers():
    for line in (
        "ucry(0.5) q[1],q[0];", "UCRZ(0.5) q[0];", "mcx q[0],q[1];", "mcry(0.5) q[0],q[1];"
    ):
        with pytest.raises(ValueError, match="unsupported"):
            parse_qasm(f"OPENQASM 2.0;\nqreg q[2];\n{line}\n")


def test_parse_qasm_errors():
    with pytest.raises(ValueError):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[0]")  # missing semicolon
    with pytest.raises(ValueError):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nbadgate q[0];")
    with pytest.raises(ValueError):
        parse_qasm("h q[0];")  # gate before qreg


def test_parse_qasm_reads_every_statement_on_a_line():
    text = 'OPENQASM 2.0; include "qelib1.inc"; qreg q[2];\nh q[0]; x q[1];  // two\n'
    assert parse_qasm(text) == Circuit(2, [gate("H", 0), gate("X", 1)])
    with pytest.raises(ValueError, match="missing semicolon"):
        parse_qasm("qreg q[2];\nh q[0]; x q[1]\n")


@pytest.mark.parametrize(
    "separator", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
)
def test_parse_qasm_comment_runs_past_other_separators(separator):
    # str.splitlines breaks at these, but a QASM line ends only at \n,
    # \r\n or \r: the X stays inside the comment
    text = f"qreg q[2];\n// note{separator} x q[0];\nh q[1];\n"
    assert parse_qasm(text) == Circuit(2, [gate("H", 1)])


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_parse_qasm_comment_ends_at_a_line_break(newline):
    text = f"qreg q[2];{newline}// note{newline} x q[0];{newline}h q[1];{newline}"
    assert parse_qasm(text) == Circuit(2, [gate("X", 0), gate("H", 1)])


@st.composite
def base_circuits(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    c = Circuit(n)
    angles = st.floats(
        min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
    )
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        kind = draw(st.sampled_from(["H", "X", "RY", "RZ", "PHASE", "CX", "SWAP"]))
        if kind in ("CX", "SWAP"):
            if n < 2:
                continue
            a, b = draw(st.permutations(range(n)))[:2]
            c.add(kind, a, b)
        elif kind in ("RY", "RZ", "PHASE"):
            c.add(kind, draw(st.integers(0, n - 1)), angle=draw(angles))
        else:
            c.add(kind, draw(st.integers(0, n - 1)))
    return c


@given(base_circuits())
@settings(max_examples=60, deadline=None)
def test_serialization_roundtrip_property(c):
    assert parse_qasm(export(c)) == c


# circuit-file lines: keywords and operands the parsers know, mixed with noise
_FILE_TOKENS = st.sampled_from(
    ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg", "q[", "]", ";", "(", ")",
     ",", "qubits", "h", "cx", "ry", "cp", "H", "CX", "RY", "MCX", "MCRY", "SWAP",
     "UCRY", "UCRZ", "ucry",
     "0", "1", "3", "-1", "30", "0.5", "nan", "inf", "1e999", " ", "//", "#"]
)
_FILE_LINES = st.one_of(
    st.lists(_FILE_TOKENS, max_size=8).map("".join),
    st.lists(_FILE_TOKENS, max_size=8).map(" ".join),
)
_FILE_TEXT = st.one_of(st.text(), st.lists(_FILE_LINES, max_size=8).map("\n".join))


@given(_FILE_TEXT)
@settings(max_examples=300, deadline=None)
def test_circuit_parsers_raise_only_value_error(text):
    # parse only: a fuzzed width could ask the simulator for any amount of memory
    try:
        parse_qasm(text)
    except ValueError:
        pass
