#!/usr/bin/env python3
"""Price the Gaussian benchmark: lossy wavelet compression vs. dense load.

A discretized Gaussian on 15 qubits is compressed with a 13-level packet
Haar transform, keeping only coefficients above 0.6% of the largest.  That
leaves 44 of 32768 coefficients (compression ratio ~745) and costs a
trace distance of about 0.01 against the original, while the circuit
shrinks from 32766 CX (exact amplitude encoding) to a few hundred.
"""

from __future__ import annotations

from hqsp.pipeline import ExperimentConfig, hybrid_prepare
from hqsp.transforms import FRACTION_OF_MAX, PACKET_HAAR, ThresholdPolicy


def main() -> None:
    cfg = ExperimentConfig(
        "gaussian",
        PACKET_HAAR,
        levels=13,
        threshold=ThresholdPolicy(FRACTION_OF_MAX, 0.006),
        epsilon=0.02,  # accept at most 2% trace distance
    )
    circuit, record = hybrid_prepare(cfg)

    print(f"kept d={record.d} of 2**{record.n} coefficients (CR={record.cr:.1f})")
    print(
        f"sparse load: {record.sqsp_cnot} CX, "
        f"decompression: {record.decomp_cnot} CX "
        f"(depth {record.decomp_depth})"
    )
    print(
        f"total: {record.total_cnot} CX vs. {record.eae_cnot} CX dense "
        f"-> {record.cx_reduction:.1f}x fewer entangling gates"
    )
    print(
        f"trace distance: simulated {record.simulated_td:.4f}, "
        f"classical reconstruction {record.classical_td:.4f} "
        f"(difference {abs(record.simulated_td - record.classical_td):.2e})"
    )
    print(f"circuit: {len(circuit)} gates on {circuit.n_qubits} qubits")


if __name__ == "__main__":
    main()
