"""Calibrate the sinc benchmark's sample range.

The sinc benchmark is specified by its operating point, not its grid: at
N = 2**15 samples, 10 packet Haar levels, and a threshold of 0.9% of the
largest coefficient, the compression should retain about 110 coefficients
(CR near 298).  The retained count depends on how much of the sinc's decay
the grid covers, so the half-range T in t in [-T, T] is a free parameter.

This script scans candidate half-ranges and prints the resulting d and CR
so the default in ``hqsp.signals.gen_sinc`` can be chosen (and re-derived
if the operating point ever changes).  Run from the repository root:

    python3 scripts/calibrate_sinc_range.py
"""

from hqsp.pipeline import compression_point
from hqsp.signals import gen_sinc
from hqsp.transforms import FRACTION_OF_MAX, ThresholdPolicy

N = 2**15
LEVELS = 10
TAU = 0.009
TARGET_D = 110


def operating_point(half_range: float) -> tuple[int, float, float]:
    signal = gen_sinc(N, -half_range, half_range)
    return compression_point(signal, LEVELS, ThresholdPolicy(FRACTION_OF_MAX, TAU))


def main() -> None:
    print(f"N=2**15 levels={LEVELS} tau={TAU:.3f} of max, target d~{TARGET_D}")
    print(f"{'T':>6}  {'d':>5}  {'CR':>7}  {'TD':>7}")
    best = None
    for half_range in (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 30.0):
        d, cr, td = operating_point(half_range)
        mark = ""
        if best is None or abs(d - TARGET_D) < abs(best[1] - TARGET_D):
            best = (half_range, d)
        if half_range == 10.0:
            mark = "  <- shipped default"
        print(f"{half_range:6.1f}  {d:5d}  {cr:7.1f}  {td:7.4f}{mark}")
    print(f"closest to target: T={best[0]:.1f} (d={best[1]})")


if __name__ == "__main__":
    main()
