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
describes; :func:`report` prices that ladder from the angles, and SWAP and
CPHASE from their closed forms, without building any of them.

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

import functools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Gate",
    "Circuit",
    "ResourceReport",
    "GATE_KINDS",
    "gate",
    "decompose",
    "report",
    "report_stages",
    "export",
    "parse_qasm",
    "inverse",
    "cancel_adjacent_inverses",
]


# one row per gate kind; ``controls`` None (any number) marks a multiplexer,
# which has no OpenQASM 2 name but the ``rotation`` its ladder repeats
class _Kind(NamedTuple):
    controls: int | None
    targets: int
    takes_angle: bool
    qasm: str | None
    rotation: str | None = None


_KINDS = {
    "H": _Kind(0, 1, False, "h"),
    "X": _Kind(0, 1, False, "x"),
    "RX": _Kind(0, 1, True, "rx"),
    "RY": _Kind(0, 1, True, "ry"),
    "RZ": _Kind(0, 1, True, "rz"),
    "PHASE": _Kind(0, 1, True, "u1"),
    "CX": _Kind(1, 1, False, "cx"),
    "CPHASE": _Kind(1, 1, True, "cp"),
    "SWAP": _Kind(0, 2, False, "swap"),
    "CCX": _Kind(2, 1, False, "ccx"),
    "UCRY": _Kind(None, 1, True, None, "RY"),
    "UCRZ": _Kind(None, 1, True, None, "RZ"),
}

GATE_KINDS = frozenset(_KINDS)
_MULTIPLEXERS = frozenset(k for k, row in _KINDS.items() if row.rotation)

_BASE_KINDS = frozenset({"H", "X", "RX", "RY", "RZ", "PHASE", "CX"})
# the two-wire kinds the scheduler prices in closed form, as (CX, single-qubit
# gates, depth): each lowering ends with both wires at the later one plus depth
_TWO_WIRE_COSTS = {"CX": (1, 0, 1), "SWAP": (3, 0, 3), "CPHASE": (2, 3, 4)}
# what the scheduler takes as it is: base gates, SWAP, CPHASE and native
# multiplexers; only CCX is lowered first
_SCHEDULED_KINDS = _BASE_KINDS | _MULTIPLEXERS | frozenset(_TWO_WIRE_COSTS)
# OpenQASM 2 name -> kind, for the reader
_QASM_KINDS = {row.qasm: k for k, row in _KINDS.items() if row.qasm}

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
        return self.qubits[len(self.qubits) - _KINDS[self.kind].targets :]

    @property
    def controls(self) -> tuple[int, ...]:
        return self.qubits[: len(self.qubits) - _KINDS[self.kind].targets]

    @functools.cached_property
    def walk(self) -> tuple[np.ndarray, np.ndarray]:
        """A multiplexer's Gray-walk angles and the mask of the rotations its
        ladder keeps (magnitude at least ``_ANGLE_EPS``), both read-only and
        computed once per gate for every consumer: the one elision test.
        Walk position ``i`` sees the sign ``(-1)**<gray(i), pattern>``, so the
        angles are the pattern angles' Walsh-Hadamard transform in Gray order."""
        theta = np.asarray(self.angle, dtype=float)
        if not np.isfinite(theta).all():
            raise ValueError("multiplexer pattern angles must be finite")
        i = np.arange(len(theta))
        phi = (_fwht(theta) / len(theta))[i ^ (i >> 1)]
        kept = np.abs(phi) >= _ANGLE_EPS
        phi.flags.writeable = kept.flags.writeable = False
        return phi, kept


def gate(kind: str, *qubits: int, angle=None) -> Gate:
    """Validated :class:`Gate` constructor."""
    if kind not in _KINDS:
        raise ValueError(f"unknown gate kind {kind!r}")
    n_ctrl, n_tgt, takes_angle, *_ = _KINDS[kind]
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
        if kind in _MULTIPLEXERS:
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


def _pattern_of(state, bits):
    """The multiplexer pattern of ``state`` (an int or an int64 array) over
    the wires ``bits``: bit j of the pattern is bit ``bits[j]`` of the state.
    With no bits it is 0, an array of zeros for an array."""
    p = state & 0
    for j, c in enumerate(bits):
        p |= ((state >> c) & 1) << j
    return p


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

    @classmethod
    def _of(cls, n_qubits: int, gates: list[Gate]) -> "Circuit":
        """A circuit over ``gates`` taken as they are, each already checked
        against ``n_qubits`` wires (a concatenation or filtering of such)."""
        circuit = cls(n_qubits)
        circuit.gates = gates
        return circuit

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
        return Circuit._of(self.n_qubits, self.gates + other.gates)

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
    over every block at a time, in place, the differences staged in one
    half-length buffer."""
    out = np.array(v, dtype=float)
    diff = np.empty(len(out) // 2)
    h = 1
    while h < len(out):
        blocks = out.reshape(-1, 2, h)
        a, b = blocks[:, 0], blocks[:, 1]
        np.subtract(a, b, out=diff.reshape(-1, h))
        a += b
        b[...] = diff.reshape(-1, h)
        h *= 2
    return out


def _walk_controls(k: int) -> list[int]:
    """Which control each CX of a Gray-code ladder with k >= 1 controls is
    on: after walk position i it flips bit ``ctz(i + 1)``, the one that
    changes between successive codes, and the last one flips ``k - 1``
    back to code 0."""
    steps = np.arange(1, 2**k)
    # frexp's exponent of the lowest set bit is exactly ctz + 1
    return [*(np.frexp(steps & -steps)[1] - 1).tolist(), k - 1]


def _ladder(g: Gate, rotation, cx: list) -> list:
    """The Gray-code ladder of the multiplexer ``g`` with ``len(cx)``
    controls: at each walk position ``rotation(angle)`` unless the angle is
    elided, then the CX item ``cx[j]`` of the control it flips.  Gate lists
    and QASM lines are both written by this one walk."""
    phi, kept = g.walk
    if not cx:
        return [rotation(phi.item())] if kept[0] else []
    out = []
    for angle, keep, j in zip(phi.tolist(), kept.tolist(), _walk_controls(len(cx))):
        if keep:
            out.append(rotation(angle))
        out.append(cx[j])
    return out


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
    if g.kind in _MULTIPLEXERS:
        # 2**k CX for k >= 1 controls: a zero angle elides a rotation, never a CX
        kind, wire = _KINDS[g.kind].rotation, g.targets
        cx = [gate("CX", c, *wire) for c in g.controls]
        return _ladder(g, lambda angle: Gate(kind, wire, angle), cx)
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
    return Circuit._of(circuit.n_qubits, list(_lowered(circuit)))


def _schedule(frontier: list[int], circuit: Circuit) -> ResourceReport:
    """One ASAP pass of ``circuit`` from the per-wire ``frontier``, which it
    advances: the circuit's CX and single-qubit counts, and the depth the
    frontier reaches.  Only CCX is lowered first; a multiplexer schedules as
    its Gray-code ladder, SWAP and CPHASE as their lowerings."""
    cx = single = 0
    for g in _lowered(circuit, _SCHEDULED_KINDS):
        if g.kind in _MULTIPLEXERS:
            ladder_cx, rotations = _schedule_ladder(frontier, g)
            cx += ladder_cx
            single += rotations
        elif g.kind in _TWO_WIRE_COSTS:
            two_cx, two_single, depth = _TWO_WIRE_COSTS[g.kind]
            a, b = g.qubits
            frontier[a] = frontier[b] = depth + max(frontier[a], frontier[b])
            cx += two_cx
            single += two_single
        else:
            frontier[g.qubits[0]] += 1
            single += 1
    return ResourceReport(cx, single, max(frontier, default=0))


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
    _, kept = g.walk
    rotations = np.cumsum(kept)  # kept rotations at walk positions <= i
    cx = 2**k if k else 0
    start = frontier[target]
    for j, c in enumerate(controls):
        first = 2**j - 1
        start += max(0, frontier[c] - (start + rotations[first].item() + first))
    for j, c in enumerate(controls):
        last = 2**k - 1 if j == k - 1 else 2**k - 2**j - 1
        frontier[c] = start + rotations[last].item() + last + 1
    frontier[target] = start + rotations[-1].item() + cx
    return cx, rotations[-1].item()


def report(circuit: Circuit) -> ResourceReport:
    """Tally CX count, single-qubit count and ASAP depth of the decomposed
    circuit in one pass without building it: native multiplexers are priced
    from their angles without building their ladders, SWAP and CPHASE in
    closed form, and only CCX is lowered, one gate at a time.
    """
    return _schedule([0] * circuit.n_qubits, circuit)


def report_stages(first: Circuit, second: Circuit) -> tuple[ResourceReport, ...]:
    """The reports of ``first``, of ``second`` and of ``first + second``, two
    circuits of one width.  The last continues first's schedule through
    second instead of scheduling first again."""
    frontier = [0] * first.n_qubits
    head, tail = _schedule(frontier, first), _schedule(frontier, second)
    cx = head.cnot_count + tail.cnot_count
    single = head.single_qubit_count + tail.single_qubit_count
    return head, report(second), ResourceReport(cx, single, tail.depth)


# ---------------------------------------------------------------------------
# Peephole cancellation
# ---------------------------------------------------------------------------


def inverse(g: Gate) -> Gate:
    """The gate undoing ``g``: every kind that takes an angle is a rotation
    and inverts by negating it (a multiplexer negates every pattern angle);
    every other kind is its own inverse."""
    if g.angle is None:
        return g
    if g.kind in _MULTIPLEXERS:
        return Gate(g.kind, g.qubits, tuple(-a for a in g.angle))
    return Gate(g.kind, g.qubits, -g.angle)


def _cancels(a: Gate, b: Gate) -> bool:
    if a.kind != b.kind or a.qubits != b.qubits:
        return False
    inv = inverse(a)
    if inv.angle is None:
        return True
    if a.kind in _MULTIPLEXERS:
        return all(abs(x - y) < _ANGLE_EPS for x, y in zip(inv.angle, b.angle))
    return abs(inv.angle - b.angle) < _ANGLE_EPS


def cancel_adjacent_inverses(circuit: Circuit) -> Circuit:
    """Drop gate pairs that are mutual inverses with nothing on their wires
    in between, until no pair is left.

    One pass reaches that fixpoint.  A deleted gate shares no wire with any
    gate kept after it, and a cancelling pair has identical qubit tuples,
    so the deleted gate never stood between two gates that could cancel."""
    out: list[Gate] = []
    for g in circuit.gates:
        wires = set(g.qubits)
        j = len(out) - 1
        while j >= 0 and wires.isdisjoint(out[j].qubits):
            j -= 1
        if j >= 0 and _cancels(out[j], g):
            del out[j]
        else:
            out.append(g)
    return Circuit._of(circuit.n_qubits, out)


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------

# one statement each, without its ';'
_QASM_HEADER = re.compile(r'OPENQASM\s+2\.0|include\s+"qelib1\.inc"')
_QASM_QREG = re.compile(r"qreg\s+(\w+)\s*\[\s*(\d+)\s*\]")
_QASM_GATE = re.compile(r"(\w+)\s*(?:\(([^()]*)\))?\s+([^()]+)")
_QASM_OPERAND = re.compile(r"\s*(\w+)\s*\[\s*(\d+)\s*\]\s*")


def export(circuit: Circuit) -> str:
    """Serialise to OpenQASM 2.0 (subset h,x,rx,ry,rz,u1,cx,cp,swap,ccx),
    one register ``q`` and one gate per line.  A UCRY/UCRZ multiplexer is
    written straight from its Gray walk, as the same lines that lowering it
    to its ladder and writing each gate would give."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.n_qubits}];",
    ]
    for g in circuit:
        if g.kind in _MULTIPLEXERS:
            lines += _ladder_lines(g)
        else:  # every other kind is a QASM kind
            lines.append(_qasm_line(g))
    return "\n".join(lines) + "\n"


def _qasm_line(g: Gate) -> str:
    name = _KINDS[g.kind].qasm
    if g.angle is not None:
        name += f"({g.angle!r})"
    operands = ",".join(f"q[{q}]" for q in g.qubits)
    return f"{name} {operands};"


def _ladder_lines(g: Gate) -> list[str]:
    """The QASM lines of a multiplexer's ladder, without building its gates."""
    *controls, target = g.qubits
    rotation = f"{_KINDS[_KINDS[g.kind].rotation].qasm}(%r) q[{target}];"
    cx = [f"cx q[{c}],q[{target}];" for c in controls]
    return _ladder(g, rotation.__mod__, cx)


def parse_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 2.0 subset produced by :func:`export`.

    Every ``;``-terminated statement is read, however the lines break; one
    ``qreg`` must precede the gates, and every operand must index it.
    Anything else (a second register, an unclosed parenthesis, text after
    the last ``;``) raises ``ValueError``.
    """
    # a comment ends at a line break: \n, \r\n or \r, never another separator
    code = re.sub(r"//[^\r\n]*", "", text)
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
