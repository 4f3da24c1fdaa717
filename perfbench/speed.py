"""Machine-speed probe: a fixed reference kernel, timed in a process of its own.

The host this benchmark was built on runs the same numpy work 20% faster or
slower from one half-minute to the next, and work that streams through
arrays of a megabyte or more swings further (other tenants share its cores
and caches). The runner times this kernel just before each operation and
rescales each round's times by REF_S over the round's median kernel time.
Times are then seconds at the speed where the kernel takes REF_S.

The kernel does the two kinds of work froth1d does: elementwise
transcendentals, dot products and Python loops on arrays of about a
thousand samples (the grid), and exp and dot products streamed over arrays
of 147,200 samples (the out-of-domain data of a fixed bc). The large arrays
are allocated once, so the kernel measures the machine, not its allocator:
froth1d's own page faults count in its times and are not scaled away. The
kernel runs in a separate, long-lived process that imports nothing from
froth1d, so the program's code and heap do not reach it. It still shares
the machine's cores and caches: a change that leaves threads running
between operations would slow the kernel too and shrink its own reported
times.

    python3 perfbench/speed.py      # serves: one timing per line of stdin
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

REF_S = 0.007      # kernel time on the reference machine, seconds


class _Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.uniform(-0.9, 0.9, 1024)
        self._m = rng.random((64, 64))
        self._big = rng.uniform(0.0, 1.0, 147_200)
        self._half = np.full(self._big.size, 0.5)
        self._z = np.empty_like(self._big)

    def run(self) -> float:
        acc = 0.0
        for _ in range(100):
            y = np.tanh(self._x) + np.arctanh(0.5 * self._x)
            acc += float(y @ y)
            acc += float(np.sum(self._m @ y[:64]))
            for v in y[:50]:
                acc += v * 1.0001
        for _ in range(6):
            np.multiply(self._big, -0.01, out=self._z)
            np.exp(self._z, out=self._z)
            acc += float(self._z @ self._big)
            acc += float(self._half @ self._z)
        return acc

    def time(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


def serve():
    """Time the kernel once for each line read from stdin; print seconds."""
    kernel = _Kernel()
    kernel.time()
    for _ in sys.stdin:
        print(repr(kernel.time()), flush=True)


class Speed:
    """Client of a probe process started by the constructor.

    ``close`` (or leaving a ``with`` block) ends the process and waits for it.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def probe(self) -> float:
        """Seconds the reference kernel takes now."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("speed probe process ended")
        return float(line)

    def close(self):
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    serve()
