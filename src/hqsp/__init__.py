"""Hybrid classical-quantum state preparation.

Compress a signal classically (DFT or packet Haar, thresholding), load the
sparse coefficient vector with a cheap circuit, and decompress with a
polynomial-depth quantum inverse transform.  See README.md for the tour.
"""

from .circuit import Circuit, Gate, ResourceReport, decompose, export, report
from .loaders import SparseState, dense_complex_load, eae_real, sqsp
from .qsynth import fsl_circuit, fsl_coefficients, inverse_packet_qhwt, iqft
from .signals import (
    Signal,
    gen_gaussian,
    gen_gaussian_mixture,
    gen_periodic,
    gen_piecewise,
    gen_sinc,
    ingest_waveform_csv,
)
from .statesim import fidelity, simulate, trace_distance, unitary_of
from .transforms import (
    CompressedVector,
    ThresholdPolicy,
    TransformDescriptor,
    classical_reconstruct,
    compression_ratio,
    dft,
    idft,
    packet_dhwt,
    packet_idhwt,
    threshold_normalize,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "Gate",
    "ResourceReport",
    "decompose",
    "export",
    "report",
    "SparseState",
    "sqsp",
    "eae_real",
    "dense_complex_load",
    "iqft",
    "inverse_packet_qhwt",
    "fsl_coefficients",
    "fsl_circuit",
    "Signal",
    "gen_periodic",
    "gen_piecewise",
    "gen_sinc",
    "gen_gaussian",
    "gen_gaussian_mixture",
    "ingest_waveform_csv",
    "simulate",
    "unitary_of",
    "fidelity",
    "trace_distance",
    "CompressedVector",
    "TransformDescriptor",
    "ThresholdPolicy",
    "dft",
    "idft",
    "packet_dhwt",
    "packet_idhwt",
    "threshold_normalize",
    "compression_ratio",
    "classical_reconstruct",
    "__version__",
]
