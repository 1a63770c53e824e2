#!/usr/bin/env python3
"""Walk the hybrid pipeline end to end on the two-tone benchmark.

The signal is built so its unitary DFT has exactly four nonzero
coefficients.  Compressing classically, loading the 4-sparse spectrum, and
appending the inverse-QFT circuit should reproduce the signal on the
register exactly (up to float roundoff), at a fraction of the CX cost of
encoding all 256 amplitudes directly.
"""

from __future__ import annotations

import numpy as np

from hqsp.circuit import report
from hqsp.loaders import SparseState, eae_real, sqsp
from hqsp.qsynth import iqft
from hqsp.signals import gen_periodic
from hqsp.statesim import simulate, trace_distance
from hqsp.transforms import (
    FRACTION_OF_MAX,
    ThresholdPolicy,
    dft,
    threshold_normalize,
)


def main() -> None:
    signal = gen_periodic(256)
    x = np.asarray(signal.samples)
    print(f"signal: n={signal.n} ({len(x)} samples), norm={np.linalg.norm(x):.6f}")

    # Phase I: transform and threshold.  The spectrum is exactly 4-sparse in
    # exact arithmetic; a tiny fractional threshold strips FFT roundoff.
    spectrum = threshold_normalize(
        dft(x), ThresholdPolicy(FRACTION_OF_MAX, 1e-9)
    )
    state = SparseState.from_compressed(spectrum)
    print(f"retained d={state.d} modes at indices {state.indices.tolist()}")
    for k, v in zip(state.indices.tolist(), state.amplitudes.tolist()):
        print(f"  X[{k:3d}] = {v.real:+.5f}{v.imag:+.5f}j")

    # Phase II: sparse load followed by the inverse QFT.
    load = sqsp(state)
    decompress = iqft(signal.n)
    circuit = load + decompress
    rep = report(circuit)
    print("\nhybrid circuit:")
    print(rep)
    for name, stage in (("sqsp", load), ("iqft", decompress)):
        print(f"  {name}: {report(stage)}")

    psi = simulate(circuit)
    print(f"\ntrace distance to the input signal: {trace_distance(psi, x):.3e}")

    dense = report(eae_real(x))
    print(f"direct amplitude encoding: cnot={dense.cnot_count} depth={dense.depth}")
    print(f"CX reduction: {dense.cnot_count / rep.cnot_count:.1f}x")


if __name__ == "__main__":
    main()
