"""Time the sparse loader ``sqsp`` on its reference inputs.

For each input this prints the support size d, the CX count of the lowered
``sqsp`` circuit and the seconds ``sqsp`` took, measured in process after
the sparse state is built.  The inputs are:

* the table-1 sinc and gaussian rows, and the table-1 mixture row at seeds
  0-15, compressed exactly as ``hqsp run table1`` compresses them;
* eight scattered supports on 9 qubits, at ``default_rng`` seeds 0-3: 116
  basis states with complex amplitudes and 63 with real ones.  They sit just
  on the merging side of the chooser between merging and the subcube
  cascade, where a merge costs the most.

Nothing is asserted about the times.  Run from the repository root:

    python3 scripts/time_sqsp.py
"""

from __future__ import annotations

import time

import numpy as np

from hqsp.circuit import report
from hqsp.loaders import SparseState, sqsp
from hqsp.pipeline import _unit_samples, table1_configs
from hqsp.transforms import analyse, threshold_normalize


def table1_inputs():
    sinc, gaussian = table1_configs()[:2]
    yield "sinc", sinc
    yield "gaussian", gaussian
    for seed in range(16):
        yield f"mixture seed {seed}", table1_configs(seed=seed)[2]


def compressed_state(cfg) -> SparseState:
    x = _unit_samples(cfg.build_signal())
    return SparseState.from_compressed(
        threshold_normalize(analyse(x, cfg.descriptor), cfg.threshold)
    )


def scattered_state(seed: int, d: int, complex_amps: bool, n: int = 9) -> SparseState:
    rng = np.random.default_rng(seed)
    idx = rng.choice(2**n, size=d, replace=False)
    a = rng.normal(size=d)
    if complex_amps:
        a = a + 1j * rng.normal(size=d)
    return SparseState(n, idx, a / np.linalg.norm(a))


def inputs():
    for name, cfg in table1_inputs():
        yield name, compressed_state(cfg)
    for seed in range(4):
        yield f"n=9 d=116 complex seed {seed}", scattered_state(seed, 116, True)
        yield f"n=9 d=63 real seed {seed}", scattered_state(seed, 63, False)


def main() -> None:
    print(f"{'input':<26} {'d':>5} {'sqsp CX':>8} {'seconds':>8}")
    total = 0.0
    for name, state in inputs():
        start = time.perf_counter()
        circ = sqsp(state)
        seconds = time.perf_counter() - start
        total += seconds
        print(f"{name:<26} {state.d:>5} {report(circ).cnot_count:>8} {seconds:>8.3f}")
    print(f"{'total':<26} {'':>5} {'':>8} {total:>8.3f}")


if __name__ == "__main__":
    main()
