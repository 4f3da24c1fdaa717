"""Self-test of the benchmark's checks: each one must bite.

Runs one round of ``quench`` and one pass of ``pipeline``, confirms that the
unperturbed outputs pass, then perturbs one output at a time and confirms
that the check marks the operation failed:

- a final descent energy off by 1e-8 relative (dense-sum check),
- one energy along a descent trace raised by one ulp (monotone-descent check),
- one coarse-graining block mean shifted by 1e-9 (block-mean check),
- the energy in minimize.json off by 1e-8 relative (dense-sum check),
- one flipped byte in an artifact (determinism check).

    python3 perfbench/selftest.py

Exits 0 when every case behaves as expected, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import workloads
    from speed import Speed

    outcomes = []

    def expect(case, failure, should_fail):
        ok = bool(failure) == should_fail
        outcomes.append(ok)
        verdict = "caught" if failure else "passed"
        print(f"{'ok ' if ok else 'BAD'} {case}: {verdict}"
              + (f" ({failure})" if failure else ""))

    seed = 11
    work = workloads.quench(seed)
    with Speed() as speed:
        recs = work.run_round(None, speed)
        expect("quench round as computed",
               [r.failure for r in recs if r.failure] or work.deferred(), False)
        d = work.descents[0]
        res = work.first[d.label]

        work.first[d.label] = dataclasses.replace(res, energy=res.energy * (1 + 1e-8))
        expect("descent energy off by 1e-8 relative",
               work.deferred().get(d.label), True)
        work.first[d.label] = res

        trace = res.trace.copy()
        k = trace.shape[0] // 2
        trace[k, 1] = np.nextafter(trace[k - 1, 1], np.inf)
        expect("descent trace raised by one ulp",
               workloads.check_descent(trace[:, 1], res.profile.samples), True)

        pipe = workloads.Pipeline(seed, ROOT / ".perfbench_run" / f"selftest-{os.getpid()}")
        try:
            recs = pipe.run_round(None, speed)
            expect("pipeline pass as computed",
                   recs[0].failure or pipe.deferred().get("pass"), False)
            expect("trace.csv row count (known fault)", recs[1].failure, True)
            files = pipe.first

            cg = json.loads(files["coarsegrain.json"])
            for piece in cg["trace"][0]["pieces"]:
                piece[1] = repr(float(piece[1]) + 1e-9)
            shifted = dict(files)
            shifted["coarsegrain.json"] = json.dumps(cg).encode()
            expect("block mean shifted by 1e-9", pipe.check_artifacts(shifted), True)

            mj = json.loads(files["minimize.json"])
            mj["energy"] = repr(float(mj["energy"]) * (1 + 1e-8))
            off = dict(files)
            off["minimize.json"] = json.dumps(mj).encode()
            expect("minimize.json energy off by 1e-8 relative",
                   pipe.check_artifacts(off), True)

            raw = bytearray(files["minimized.profile"])
            raw[len(raw) // 2] ^= 0x01
            flipped = dict(files)
            flipped["minimized.profile"] = bytes(raw)
            expect("one flipped artifact byte",
                   workloads.check_same_bytes(flipped, files), True)
        finally:
            pipe.cleanup()

    print(f"{sum(outcomes)}/{len(outcomes)} cases as expected")
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
