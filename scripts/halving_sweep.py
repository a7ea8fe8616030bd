#!/usr/bin/env python3
"""Size sweep of the iterated-halving construction on interval families.

Prints, per ground-set size, the construction's output size and success rate
in both sampling modes.  The without-replacement column caps at n whenever
the requested size exceeds what a subset can hold, and at (eps, delta,
gamma) = (0.1, 0.25, 0.1) it reads n at every size.  The i.i.d. column is
not capped, and it shows the sizes growing with n and staying above it
(72,629, 92,520 and 112,413 at n = 10^3, 10^4 and 10^5): the construction
does not yet reach the paper's size (ROADMAP item 1).  The `combined`
rows run the two-stage construction (halving, then a chaining-sized verified
subsample of the trace, d = 2, constants from constants.json), each stage
with one attempt.  The last column is the CPU seconds of the cell (process
time, so time the hypervisor takes from a shared virtual machine does not
count).

    python scripts/halving_sweep.py [--eps 0.1] [--delta 0.25] [--gamma 0.1]
"""

import argparse
import os
import sys
import time

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from relapprox.errors import RetriesExhausted  # noqa: E402
from relapprox.generators import ImplicitIntervals  # noqa: E402
from relapprox.halving import certified_halving, combined_construction  # noqa: E402
from relapprox.sampling import WITH, WITHOUT, ApproxParams, find_constants  # noqa: E402

COMBINED = "combined"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--delta", type=float, default=0.25)
    ap.add_argument("--gamma", type=float, default=0.1)
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--sizes", type=int, nargs="+", default=[10**3, 10**4, 10**5])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    params = ApproxParams(args.eps, args.delta, args.gamma)
    constants = find_constants(os.path.join(ROOT, "constants.json"))
    print(f"eps={args.eps} delta={args.delta} gamma={args.gamma}, {args.trials} trials per cell")
    print(f"{'n':>8}  {'mode':>8}  {'mean t':>10}  {'success':>8}  {'cpu s':>6}")
    for n in args.sizes:
        family = ImplicitIntervals(n)
        for mode in (WITHOUT, WITH, COMBINED):
            started = time.process_time()
            sizes, ok = [], 0
            for i in range(args.trials):
                seed = (args.seed, n, i)
                try:
                    if mode == COMBINED:
                        sample = combined_construction(
                            family, params, 2, constants, seed, max_retries=1
                        )
                    else:
                        sample = certified_halving(
                            family, params, seed, max_retries=1, mode=mode
                        )
                except RetriesExhausted:
                    continue
                ok += 1
                sizes.append(sample.t)
            mean = sum(sizes) / len(sizes) if sizes else float("nan")
            print(
                f"{n:>8}  {mode:>8}  {mean:>10.0f}  {ok}/{args.trials:<5}  "
                f"{time.process_time() - started:>6.1f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
