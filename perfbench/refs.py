"""Regenerate the stored references for the fixed D1 and D2 inputs.

    python3 perfbench/refs.py

The D1 enclosures come from 4096 Chebyshev extrema per degree of |P|^2
(width about 1.5e-7 relative) and the D2 measures from a 400,001-point grid;
recomputing them would cost more than a whole run, so they are stored in
perfbench/refs/.  Takes about a minute on two cores.
"""

from __future__ import annotations

import json

import oracles
import workloads

D1_PER_DEGREE = 4096
D2_POINTS = 400_001


def main():
    d1 = {}
    for i in workloads.D1_INDICES:
        zeros = workloads.d1_zeros(i)
        d1[str(i)] = {"input": workloads.fingerprint_zeros(zeros),
                      "enclosure": list(oracles.ratio_enclosure(1.0, zeros, D1_PER_DEGREE))}
    d2 = {}
    for i in workloads.D2_INDICES:
        zeros, delta = workloads.d2_input(i)
        grid = oracles.level_measure(zeros, len(zeros) * delta, True, D2_POINTS)
        d2[str(i)] = {"input": workloads.fingerprint_zeros(zeros) + [delta],
                      "grid": list(grid)}
    workloads.REFS.mkdir(exist_ok=True)
    for name, data in (("d1", d1), ("d2", d2)):
        with open(workloads.REFS / f"{name}.json", "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
