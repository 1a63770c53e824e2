"""Hybrid classical-quantum state preparation.

Compress a signal classically (DFT or packet Haar, thresholding), load the
sparse coefficient vector with a cheap circuit, and decompress with a
polynomial-depth quantum inverse transform.  See README.md for the tour.
Names are imported from their modules (``hqsp.circuit``, ``hqsp.loaders``,
...); the package itself re-exports nothing.
"""

__version__ = "0.1.0"
