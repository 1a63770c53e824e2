"""Gate-level circuit representation, decomposition, scheduling and export.

The intermediate representation is deliberately small: a circuit is a flat
list of :class:`Gate` records over ``n_qubits`` wires.  Gate operands are
stored controls-first, targets-last.  Everything downstream (simulation,
resource accounting, OpenQASM export) consumes this one structure.

Uniformly controlled rotations are native ops: ``UCRY``/``UCRZ`` carry any
number of controls, one target and a tuple of ``2**k`` pattern angles
(``controls[j]`` is bit j of the pattern), so a whole cascade level is one
gate for the simulator.  :func:`decompose` and :func:`export` lower them to
their Gray-code ladders, which is what every count, depth and QASM file
describes; :func:`report` prices that ladder from the angles without
building it.

The IR has one gate vocabulary: the ten kinds OpenQASM 2 files carry
(H, X, RX, RY, RZ, PHASE, CX, CPHASE, SWAP, CCX) plus the two native
multiplexers, which :func:`export` writes lowered.  OpenQASM 2 is the one
circuit file format: :func:`export` writes it and :func:`parse_qasm` reads
it back.  Decomposition targets the base set {H, X, RX, RY, RZ, PHASE, CX},
exactly and without ancillas:

* ``UCRY``/``UCRZ`` with k >= 1 controls cost ``2**k`` CX,
* ``CCX`` uses the textbook 6-CX / 9-single-qubit T network,
* ``SWAP`` is 3 CX, ``CPHASE`` is 2 CX plus 3 phase gates.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Gate",
    "Circuit",
    "ResourceReport",
    "GATE_KINDS",
    "gate",
    "decompose",
    "report",
    "export",
    "parse_qasm",
    "ucry_gates",
    "ucrz_gates",
    "inverse",
    "cancel_adjacent_inverses",
]

# kind -> (controls, targets, takes_angle); None means variadic controls,
# which only the multiplexers take
_SIGNATURES = {
    "H": (0, 1, False),
    "X": (0, 1, False),
    "RX": (0, 1, True),
    "RY": (0, 1, True),
    "RZ": (0, 1, True),
    "PHASE": (0, 1, True),
    "CX": (1, 1, False),
    "CPHASE": (1, 1, True),
    "SWAP": (0, 2, False),
    "CCX": (2, 1, False),
    "UCRY": (None, 1, True),
    "UCRZ": (None, 1, True),
}

GATE_KINDS = frozenset(_SIGNATURES)

# uniformly controlled rotations -> the rotation their ladders are built of;
# they take any number of controls (none included) and one angle per pattern
_MULTIPLEXER_KINDS = {"UCRY": "RY", "UCRZ": "RZ"}

_BASE_KINDS = frozenset({"H", "X", "RX", "RY", "RZ", "PHASE", "CX"})
# what the scheduler takes as it is: base gates and native multiplexers
_SCHEDULED_KINDS = _BASE_KINDS | _MULTIPLEXER_KINDS.keys()

# rotations drop below this magnitude are identity for all practical purposes
_ANGLE_EPS = 1e-14


@dataclass(frozen=True)
class Gate:
    """One gate application.  ``qubits`` lists controls first, targets last;
    a multiplexer's ``angle`` is the tuple of its pattern angles."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | tuple[float, ...] | None = None

    @property
    def targets(self) -> tuple[int, ...]:
        _, n_targets, _ = _SIGNATURES[self.kind]
        return self.qubits[len(self.qubits) - n_targets :]

    @property
    def controls(self) -> tuple[int, ...]:
        _, n_targets, _ = _SIGNATURES[self.kind]
        return self.qubits[: len(self.qubits) - n_targets]


def gate(kind: str, *qubits: int, angle=None) -> Gate:
    """Validated :class:`Gate` constructor."""
    if kind not in _SIGNATURES:
        raise ValueError(f"unknown gate kind {kind!r}")
    n_ctrl, n_tgt, takes_angle = _SIGNATURES[kind]
    if n_ctrl is None:
        if not qubits:
            raise ValueError(f"{kind} needs a target")
    elif len(qubits) != n_ctrl + n_tgt:
        raise ValueError(f"{kind} takes {n_ctrl + n_tgt} operands, got {len(qubits)}")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"{kind} operands must be distinct, got {qubits}")
    if any(q < 0 for q in qubits):
        raise ValueError("qubit indices must be non-negative")
    if takes_angle:
        if angle is None:
            raise ValueError(f"{kind} requires an angle")
        if kind in _MULTIPLEXER_KINDS:
            angle = _pattern_angles(kind, angle, len(qubits) - 1)
        else:
            try:
                angle = float(angle)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{kind} angle must be a real number, got {angle!r}"
                ) from None
            if not math.isfinite(angle):
                raise ValueError(f"{kind} angle must be finite, got {angle}")
    elif angle is not None:
        raise ValueError(f"{kind} does not take an angle")
    return Gate(kind, tuple(int(q) for q in qubits), angle)


def _pattern_angles(kind: str, angle, k: int) -> tuple[float, ...]:
    try:
        values = np.asarray(angle, dtype=float)
    except (TypeError, ValueError):
        values = None
    if values is None or values.shape != (2**k,):
        raise ValueError(
            f"{kind} with {k} controls needs a sequence of {2**k} pattern angles"
        )
    if not np.isfinite(values).all():
        raise ValueError(f"{kind} pattern angles must be finite")
    return tuple(values.tolist())


class Circuit:
    """Ordered gate list on a fixed-width qubit register (qubit 0 = LSB)."""

    def __init__(self, n_qubits: int, gates: list[Gate] | None = None):
        if n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        self.n_qubits = int(n_qubits)
        self.gates: list[Gate] = []
        if gates:
            for g in gates:
                self.append(g)

    def append(self, g: Gate) -> "Circuit":
        if max(g.qubits) >= self.n_qubits:
            raise ValueError(
                f"gate {g.kind} on {g.qubits} exceeds register width {self.n_qubits}"
            )
        self.gates.append(g)
        return self

    def add(self, kind: str, *qubits: int, angle: float | None = None) -> "Circuit":
        return self.append(gate(kind, *qubits, angle=angle))

    def extend(self, gates) -> "Circuit":
        for g in gates:
            self.append(g)
        return self

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def __add__(self, other: "Circuit") -> "Circuit":
        if other.n_qubits != self.n_qubits:
            raise ValueError("cannot concatenate circuits of different width")
        return Circuit(self.n_qubits, self.gates + other.gates)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Circuit)
            and other.n_qubits == self.n_qubits
            and other.gates == self.gates
        )

    def __repr__(self) -> str:
        return f"Circuit(n_qubits={self.n_qubits}, gates={len(self.gates)})"


@dataclass
class ResourceReport:
    """Costs of a circuit after decomposition to the base gate set."""

    cnot_count: int
    single_qubit_count: int
    depth: int

    def __str__(self) -> str:
        return (
            f"cnot_count={self.cnot_count} "
            f"single_qubit_count={self.single_qubit_count} depth={self.depth}"
        )


# ---------------------------------------------------------------------------
# Gray-code multiplexers (uniformly controlled rotations)
# ---------------------------------------------------------------------------


def _fwht(v: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform (unnormalised), one butterfly stage
    over every block at a time."""
    out = np.array(v, dtype=float)
    h = 1
    while h < len(out):
        blocks = out.reshape(-1, 2, h)
        a, b = blocks[:, 0], blocks[:, 1]
        out = np.stack((a + b, a - b), axis=1).reshape(-1)
        h *= 2
    return out


def _multiplexer_angles(pattern_angles: np.ndarray) -> np.ndarray:
    """Map per-control-pattern rotation angles to Gray-walk gate angles.

    Position ``i`` of the walk sees a net sign ``(-1)**<gray(i), pattern>``,
    so the solve is a Walsh-Hadamard transform followed by the Gray-code
    permutation.
    """
    k = int(np.log2(len(pattern_angles)))
    xi = _fwht(pattern_angles) / len(pattern_angles)
    idx = np.arange(2**k)
    return xi[idx ^ (idx >> 1)]


def _kept_walk(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gray-walk angles of a multiplexer with the mask of the rotations its
    ladder keeps (magnitude at least ``_ANGLE_EPS``); the one elision test
    shared by lowering and scheduling."""
    if not np.isfinite(theta).all():
        raise ValueError("multiplexer pattern angles must be finite")
    phi = _multiplexer_angles(theta)
    return phi, np.abs(phi) >= _ANGLE_EPS


def _ucr_gates(kind: str, controls, target: int, pattern_angles) -> list[Gate]:
    controls = tuple(controls)
    theta = np.asarray(pattern_angles, dtype=float)
    k = len(controls)
    if theta.shape != (2**k,):
        raise ValueError(f"need {2**k} pattern angles for {k} controls")
    phi, kept = _kept_walk(theta)
    if k == 0:
        return [gate(kind, target, angle=phi[0])] if kept[0] else []
    # one validated CX per control, shared along the ladder (gates are frozen)
    cx = [gate("CX", c, target) for c in controls]
    wire = cx[0].targets
    gates: list[Gate] = []
    for i, (angle, keep) in enumerate(zip(phi.tolist(), kept.tolist())):
        if keep:
            gates.append(Gate(kind, wire, angle))
        # Gray-code walk: flip the bit that changes between successive codes
        gates.append(cx[_ctz(i + 1)] if i + 1 < 2**k else cx[k - 1])
    return gates


def _ctz(x: int) -> int:
    return (x & -x).bit_length() - 1


def ucry_gates(controls, target: int, pattern_angles) -> list[Gate]:
    """Uniformly controlled RY: rotate ``target`` by ``pattern_angles[p]``
    when the control qubits hold bit pattern ``p`` (``controls[j]`` is bit j).

    Emits exactly ``2**k`` CX for k >= 1 controls; zero-angle rotations are
    dropped but the CX ladder is kept intact so counts stay structural.  A
    non-finite pattern angle raises ``ValueError``.
    """
    return _ucr_gates("RY", controls, target, pattern_angles)


def ucrz_gates(controls, target: int, pattern_angles) -> list[Gate]:
    """Uniformly controlled RZ; same layout and CX budget as :func:`ucry_gates`."""
    return _ucr_gates("RZ", controls, target, pattern_angles)


# ---------------------------------------------------------------------------
# Decomposition to the base set
# ---------------------------------------------------------------------------


def _decompose_gate(g: Gate) -> list[Gate]:
    if g.kind in _BASE_KINDS:
        return [g]
    if g.kind == "SWAP":
        a, b = g.qubits
        return [gate("CX", a, b), gate("CX", b, a), gate("CX", a, b)]
    if g.kind == "CPHASE":
        a, b = g.qubits
        t = g.angle
        return [
            gate("CX", a, b),
            gate("PHASE", b, angle=-t / 2.0),
            gate("CX", a, b),
            gate("PHASE", a, angle=t / 2.0),
            gate("PHASE", b, angle=t / 2.0),
        ]
    if g.kind == "CCX":
        a, b, t = g.qubits
        q = np.pi / 4.0
        return [
            gate("H", t),
            gate("CX", b, t),
            gate("PHASE", t, angle=-q),
            gate("CX", a, t),
            gate("PHASE", t, angle=q),
            gate("CX", b, t),
            gate("PHASE", t, angle=-q),
            gate("CX", a, t),
            gate("PHASE", b, angle=q),
            gate("PHASE", t, angle=q),
            gate("H", t),
            gate("CX", a, b),
            gate("PHASE", a, angle=q),
            gate("PHASE", b, angle=-q),
            gate("CX", a, b),
        ]
    if g.kind in _MULTIPLEXER_KINDS:
        return _ucr_gates(_MULTIPLEXER_KINDS[g.kind], g.controls, g.targets[0], g.angle)
    raise ValueError(f"no decomposition rule for {g.kind}")


def _lowered(gates, kept=_BASE_KINDS):
    """``gates`` with every kind outside ``kept`` decomposed, one at a time."""
    for g in gates:
        if g.kind in kept:
            yield g
        else:
            yield from _decompose_gate(g)


def decompose(circuit: Circuit) -> Circuit:
    """Rewrite into the base set {H, X, RX, RY, RZ, PHASE, CX} exactly."""
    return Circuit(circuit.n_qubits).extend(_lowered(circuit))


def _schedule(n_qubits: int, gates) -> tuple[int, int, int]:
    """One ASAP pass: (CX count, single-qubit count, depth) of ``gates``,
    which hold base gates and native multiplexers only.  A multiplexer
    schedules as its Gray-code ladder."""
    frontier = [0] * n_qubits
    cx = single = 0
    for g in gates:
        if g.kind in _MULTIPLEXER_KINDS:
            ladder_cx, rotations = _schedule_ladder(frontier, g)
            cx += ladder_cx
            single += rotations
        elif g.kind == "CX":
            c, t = g.qubits
            frontier[c] = frontier[t] = 1 + max(frontier[c], frontier[t])
            cx += 1
        else:
            frontier[g.qubits[0]] += 1
            single += 1
    return cx, single, max(frontier, default=0)


def _schedule_ladder(frontier: list[int], g: Gate) -> tuple[int, int]:
    """Advance ``frontier`` over the Gray-code ladder of the multiplexer
    ``g`` in closed form, without building it; returns (CX, rotations).

    Walk position i holds a rotation when its angle survives elision, then
    CX(controls[ctz(i + 1)], target), the last one on ``controls[k - 1]``.
    Without waits the target's frontier after the CX at position i is its
    start plus ``i + 1`` plus the rotations kept up to i.  Control j first
    meets the target at position ``2**j - 1``, where the target may wait
    for it; after that its frontier is the target's and never passes it,
    so it ends at the target's frontier after its last CX, at position
    ``2**k - 2**j - 1`` (``2**k - 1`` for j = k - 1), past every first one.
    """
    *controls, target = g.qubits
    k = len(controls)
    _, kept = _kept_walk(np.asarray(g.angle, dtype=float))
    rotations = np.cumsum(kept).tolist()  # kept rotations at walk positions <= i
    cx = 2**k if k else 0
    start = frontier[target]
    for j, c in enumerate(controls):
        first = 2**j - 1
        start += max(0, frontier[c] - (start + rotations[first] + first))
    for j, c in enumerate(controls):
        last = 2**k - 1 if j == k - 1 else 2**k - 2**j - 1
        frontier[c] = start + rotations[last] + last + 1
    frontier[target] = start + rotations[-1] + cx
    return cx, rotations[-1]


def report(circuit: Circuit) -> ResourceReport:
    """Tally CX count, single-qubit count and ASAP depth of the decomposed
    circuit in one pass without building it: composite gates are lowered
    one at a time, and native multiplexers are priced from their angles
    without building their ladders.
    """
    return ResourceReport(*_schedule(circuit.n_qubits, _lowered(circuit, _SCHEDULED_KINDS)))


# ---------------------------------------------------------------------------
# Peephole cancellation
# ---------------------------------------------------------------------------


def inverse(g: Gate) -> Gate:
    """The gate undoing ``g``: every kind that takes an angle is a rotation
    and inverts by negating it (a multiplexer negates every pattern angle);
    every other kind is its own inverse."""
    if g.angle is None:
        return g
    if g.kind in _MULTIPLEXER_KINDS:
        return Gate(g.kind, g.qubits, tuple(-a for a in g.angle))
    return Gate(g.kind, g.qubits, -g.angle)


def _cancels(a: Gate, b: Gate) -> bool:
    if a.kind != b.kind or a.qubits != b.qubits:
        return False
    inv = inverse(a)
    if inv.angle is None:
        return True
    if a.kind in _MULTIPLEXER_KINDS:
        return all(abs(x - y) < _ANGLE_EPS for x, y in zip(inv.angle, b.angle))
    return abs(inv.angle - b.angle) < _ANGLE_EPS


def cancel_adjacent_inverses(circuit: Circuit) -> Circuit:
    """Drop gate pairs that are mutual inverses with nothing on their wires
    in between.  Iterates until no further pair cancels."""
    gates = list(circuit.gates)
    changed = True
    while changed:
        changed = False
        out: list[Gate] = []
        for g in gates:
            j = len(out) - 1
            while j >= 0 and not (set(out[j].qubits) & set(g.qubits)):
                j -= 1
            if j >= 0 and _cancels(out[j], g):
                del out[j]
                changed = True
            else:
                out.append(g)
        gates = out
    return Circuit(circuit.n_qubits, gates)


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------

# the ten kinds an OpenQASM 2 file carries, by their qelib1 names; every
# other kind is lowered on the way out
_QASM_NAMES = {
    "H": "h",
    "X": "x",
    "RX": "rx",
    "RY": "ry",
    "RZ": "rz",
    "PHASE": "u1",
    "CX": "cx",
    "CPHASE": "cp",
    "SWAP": "swap",
    "CCX": "ccx",
}
_QASM_KINDS = {v: k for k, v in _QASM_NAMES.items()}

# one statement each, without its ';'
_QASM_HEADER = re.compile(r'OPENQASM\s+2\.0|include\s+"qelib1\.inc"')
_QASM_QREG = re.compile(r"qreg\s+(\w+)\s*\[\s*(\d+)\s*\]")
_QASM_GATE = re.compile(r"(\w+)\s*(?:\(([^()]*)\))?\s+([^()]+)")
_QASM_OPERAND = re.compile(r"\s*(\w+)\s*\[\s*(\d+)\s*\]\s*")


def export(circuit: Circuit) -> str:
    """Serialise to OpenQASM 2.0 (subset h,x,rx,ry,rz,u1,cx,cp,swap,ccx),
    one register ``q`` and one gate per line; the UCRY/UCRZ multiplexers
    are written as their Gray-code ladders."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.n_qubits}];",
        *map(_qasm_line, _lowered(circuit, _QASM_NAMES)),
    ]
    return "\n".join(lines) + "\n"


def _qasm_line(g: Gate) -> str:
    name = _QASM_NAMES[g.kind]
    if g.angle is not None:
        name += f"({g.angle!r})"
    operands = ",".join(f"q[{q}]" for q in g.qubits)
    return f"{name} {operands};"


def parse_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 2.0 subset produced by :func:`export`.

    Every ``;``-terminated statement is read, however the lines break; one
    ``qreg`` must precede the gates, and every operand must index it.
    Anything else (a second register, an unclosed parenthesis, text after
    the last ``;``) raises ``ValueError``.
    """
    code = "\n".join(line.split("//")[0] for line in text.splitlines())
    *statements, rest = code.split(";")
    if rest.strip():
        raise ValueError(f"missing semicolon after {rest.strip()!r}")
    circuit: Circuit | None = None
    register = None
    for statement in map(str.strip, statements):
        if not statement or _QASM_HEADER.fullmatch(statement):
            continue
        if m := _QASM_QREG.fullmatch(statement):
            if circuit is not None:
                raise ValueError(f"second register in {statement!r}: one qreg only")
            register, circuit = m[1], Circuit(int(m[2]))
            continue
        m = _QASM_GATE.fullmatch(statement)
        if m is None:
            raise ValueError(f"malformed statement {statement!r}")
        if circuit is None:
            raise ValueError("gate before qreg declaration")
        name, arg, operands = m.groups()
        if name not in _QASM_KINDS:
            raise ValueError(f"unsupported qasm gate {name!r}")
        qubits = []
        for token in operands.split(","):
            op = _QASM_OPERAND.fullmatch(token)
            if op is None or op[1] != register:
                raise ValueError(f"operand {token.strip()!r} is not on register {register!r}")
            qubits.append(int(op[2]))
        angle = None if arg is None else float(arg)
        circuit.add(_QASM_KINDS[name], *qubits, angle=angle)
    if circuit is None:
        raise ValueError("no qreg declaration found")
    return circuit
