"""Set-up cost of froth1d in a fresh interpreter.

Times what every CLI subcommand and every library user pays before the first
useful call: importing froth1d, building ModelParams, solving the instanton
for tau and computing h*. Prints one JSON line with the import time and the
whole set-up time.

With --reference it times instead the import of numpy and a few standard
modules, which no change to froth1d moves. The runner launches the two in
turn and scales each set-up time by the reference time next to it, since
launches on the machine the benchmark was written on ran 25% slower or
faster from one half-minute to the next.

    python3 perfbench/setup_probe.py --gamma 0.02
    python3 perfbench/setup_probe.py --reference
"""

import argparse
import json
import sys
import time
from pathlib import Path

from common import MODEL


def main():
    parser = argparse.ArgumentParser()
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma", type=float)
    group.add_argument("--reference", action="store_true")
    args = parser.parse_args()
    if args.reference:
        t0 = time.perf_counter()
        import csv, numpy, numpy.fft, numpy.linalg  # noqa: F401,E401
        print(json.dumps({"reference_s": time.perf_counter() - t0}))
        return
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import froth1d
    import_s = time.perf_counter() - t0
    params = froth1d.ModelParams.from_dict(dict(MODEL, gamma=args.gamma))
    inst = froth1d.solve_instanton(params)
    froth1d.optimal_h(params.with_tau(inst.tau))
    print(json.dumps({"import_s": import_s,
                      "setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
