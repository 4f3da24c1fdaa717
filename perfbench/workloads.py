"""The three workloads and the checks on their outputs.

A workload builds its inputs from the seed, then runs rounds: every round
attempts the same operations on the same inputs, so a run attempts whole
rounds and every later round must reproduce the first bit for bit. The
dense reference sums of ``oracle`` run once per run, on the first round's
outputs, after the timed rounds are over.

Each check returns None when the output is right and a message when not.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import froth1d
from froth1d import cli
from froth1d.errors import LineSearchFailure

import oracle
from common import MODEL
from speed import REF_S

ENERGY_RTOL = 1e-10      # program energy against the dense sums
GRAD_RTOL = 1e-6         # gradient against central differences
FD_STEP = 1e-6
MEAN_TOL = 1e-12         # mean constraint and block-mean conservation
CONSTANT_TOL = 1e-6      # convex-well minimiser against the constant


# ---------------------------------------------------------------------------
# checks

def check_energy(reported: float, reference: float) -> Optional[str]:
    err = abs(reported - reference) / max(abs(reference), 1e-300)
    if not err <= ENERGY_RTOL:
        return (f"energy {float(reported)!r} vs dense sum {float(reference)!r} "
                f"(rel {err:.2e})")
    return None


def check_descent(energies, samples) -> Optional[str]:
    """Energy non-increasing along the descent; every sample in the box."""
    energies = np.asarray(energies, dtype=float)
    if energies.size == 0:
        return "descent recorded no energies"
    rises = np.nonzero(np.diff(energies) > 0.0)[0]
    if rises.size:
        i = int(rises[0])
        return (f"energy rose at iteration {i + 1}: "
                f"{float(energies[i])!r} -> {float(energies[i + 1])!r}")
    if not np.all(np.abs(samples) <= 1.0):
        return f"sample outside [-1, 1]: {float(np.max(np.abs(samples)))!r}"
    return None


def check_mean(samples, mean: float) -> Optional[str]:
    err = abs(math.fsum(samples) / len(samples) - mean)
    if not err <= MEAN_TOL:
        return f"mean off the constraint by {err:.2e}"
    return None


def check_constant(samples, value: float) -> Optional[str]:
    dist = float(np.max(np.abs(np.asarray(samples) - value)))
    if not dist <= CONSTANT_TOL:
        return f"minimiser {dist:.2e} from the constant {value}"
    return None


def check_gradient(params, profile, gamma, rng) -> Optional[str]:
    """Analytic gradient against central differences at sampled indices."""
    g = froth1d.energy_gradient(params, profile, gamma)
    inner = np.nonzero(np.abs(profile.samples) < 0.9)[0]
    idx = rng.choice(inner, min(6, inner.size), replace=False)
    fd = np.empty(idx.size)
    for j, i in enumerate(idx):
        up = profile.samples.copy()
        up[i] += FD_STEP
        dn = profile.samples.copy()
        dn[i] -= FD_STEP
        fd[j] = (froth1d.total_energy(params, profile.with_samples(up), gamma).total
                 - froth1d.total_energy(params, profile.with_samples(dn), gamma).total
                 ) / (2.0 * FD_STEP * profile.dx)
    rel = float(np.max(np.abs(g[idx] - fd))) / max(float(np.max(np.abs(fd))), 1e-10)
    if not rel <= GRAD_RTOL:
        return f"gradient vs central differences: rel {rel:.2e} ({profile.bc})"
    return None


def check_instanton(model, q, dx, tau) -> Optional[str]:
    res = model.instanton_residual(q, dx)
    if not res <= 1e-8:
        return f"instanton fixed-point residual {res:.2e}"
    ref = model.surface_tension(q, dx)
    if not abs(tau - ref) <= 1e-12 * ref:
        return f"tau {tau!r} vs recomputed {ref!r}"
    return None


def check_hstar(model, gamma, tau, hstar: dict, eh_rows) -> Optional[str]:
    """h*, e(h*) and the sampled e(h) against the closed form; h* ~ gamma^(-2/3)."""
    h_ref, e_ref = model.h_star(gamma, tau)
    h, e = float(hstar["h_star"]), float(hstar["e_star"])
    if not abs(h - h_ref) <= 1e-6 * h_ref:
        return f"h* {h!r} vs {h_ref!r}"
    if not abs(e - e_ref) <= 1e-12 * e_ref:
        return f"e(h*) {e!r} vs {e_ref!r}"
    h_asym = model.h_star_asym(gamma, tau)
    if not abs(float(hstar["h_star_asym"]) - h_asym) <= 1e-12 * h_asym:
        return f"asymptotic h* {hstar['h_star_asym']} vs {h_asym!r}"
    if not abs(h / h_asym - 1.0) <= 5.0 * gamma ** (2.0 / 3.0):
        return f"h*/h*_asym = {h / h_asym!r} misses the gamma^(-2/3) law"
    for hh, ee in eh_rows:
        ref = model.e_of_h(hh, gamma, tau)
        if not abs(ee - ref) <= 1e-12 * ref:
            return f"e({hh!r}) = {ee!r} vs closed form {ref!r}"
    return None


def check_block_means(trace, samples, dx) -> Optional[str]:
    """Each replacement keeps its block's length and mean, and the mean is
    the input profile's mean over the block."""
    for t in trace:
        a, b = (float(v) for v in t["interval"])
        pieces = [(float(w), float(v)) for w, v in t["pieces"]]
        width = math.fsum(w for w, _ in pieces)
        if not abs(width - (b - a)) <= 1e-12 * max(1.0, b):
            return f"block [{a}, {b}] tiled to width {width!r}"
        mean = math.fsum(w * v for w, v in pieces) / (b - a)
        ref = oracle.block_mean(samples, dx, a, b)
        for val, what in ((mean, "replacement"), (float(t["mean"]), "reported")):
            if not abs(val - ref) <= MEAN_TOL:
                return f"block [{a}, {b}] {what} mean {val!r} vs {ref!r}"
    return None


def check_certificates(certs) -> Optional[str]:
    failing = [c["name"] for c in certs if not c["pass"]]
    return f"certificates fail: {', '.join(failing)}" if failing else None


def check_same_bytes(files: dict, ref: dict) -> Optional[str]:
    if sorted(files) != sorted(ref):
        return f"artifact set {sorted(files)} differs from {sorted(ref)}"
    for name in sorted(ref):
        if files[name] != ref[name]:
            return f"{name} differs from the first pass"
    return None


def check_trace_rows(trace_csv: str, iterations: int) -> Optional[str]:
    """trace.csv holds one row for each iteration 0..iterations."""
    rows = [line for line in trace_csv.splitlines()
            if line and not line.startswith("#")][1:]
    iters = [int(row.split(",", 1)[0]) for row in rows]
    if iters != list(range(iterations + 1)):
        return (f"trace.csv has {len(rows)} rows for {iterations} "
                f"iterations in minimize.json")
    return None


# ---------------------------------------------------------------------------
# runner-facing records

@dataclass
class Record:
    label: str               # names the operation within a round
    seconds: Optional[float]  # None for an operation that is a check only
    failure: Optional[str] = None
    ref: Optional[float] = None  # speed-probe seconds just before it ran


def dense_energies(model, profiles, gamma):
    """Dense-sum energies of GridProfiles that share one grid."""
    items = []
    for p in profiles:
        if p.bc in ("open", "periodic"):
            items.append((p.samples, None, None))
        else:
            items.append((p.samples, *oracle.extension(
                p.samples, p.bc, model.n_out(gamma, p.dx), model.m,
                p.out_left, p.out_right)))
    return oracle.dense_energies(model, items, profiles[0].dx, gamma,
                                 periodic=profiles[0].bc == "periodic")


def _seeded(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def _params(gamma: float):
    params = froth1d.ModelParams.from_dict(dict(MODEL, gamma=gamma))
    inst = froth1d.solve_instanton(params)
    return params.with_tau(inst.tau)


# ---------------------------------------------------------------------------
# descent workloads

@dataclass
class Descent:
    """One descent: how to run it and what to check on its result."""

    label: str
    init: object               # GridProfile
    gamma: float
    options: object            # MinimizeOptions
    mean: Optional[float] = None
    constant: bool = False     # minimiser must be the constant profile
    ratio: bool = False        # counts towards energy_ratio

    def run(self, params):
        if self.mean is None:
            return froth1d.minimize_energy(params, self.init, self.gamma,
                                           self.options)
        return froth1d.minimize_with_mean_constraint(
            params, self.init.L, self.mean, bc=self.init.bc, gamma=self.gamma,
            options=self.options, dx=self.init.dx, init=self.init)


class DescentWorkload:
    """Rounds of seeded descents; one operation is one descent."""

    known_faults = frozenset()

    def __init__(self, params, descents, e_star, seed):
        self.params = params
        self.descents = descents
        self.e_star = e_star
        self.seed = seed
        self.model = oracle.Model(MODEL)
        self.first = {}
        self.iterations_per_round = 0
        self.descents_per_round = len(descents)

    def run_round(self, tracer, speed):
        records = []
        n_iter = 0
        for d in self.descents:
            ref = speed.probe()
            t0 = time.perf_counter()
            try:
                res = d.run(self.params)
            except LineSearchFailure as err:
                records.append(Record(d.label, time.perf_counter() - t0,
                                      f"line search failed: {err}", ref))
                continue
            dt = time.perf_counter() - t0
            n_iter += res.iterations - int(res.converged)
            records.append(Record(d.label, dt, self._cheap(d, res), ref))
        self.iterations_per_round = n_iter
        return records

    def _cheap(self, d, res):
        fail = check_descent(res.trace[:, 1], res.profile.samples)
        if fail is None and d.mean is not None:
            fail = check_mean(res.profile.samples, d.mean)
        if fail is None:
            ref = self.first.setdefault(d.label, res)
            if ref is not res and not (
                    res.energy == ref.energy
                    and np.array_equal(res.profile.samples, ref.profile.samples)
                    and np.array_equal(res.trace, ref.trace)):
                fail = "result differs from the first round"
        return fail

    def deferred(self):
        """Dense-sum and finite-difference checks on the first round."""
        groups = defaultdict(list)
        for d in self.descents:
            if d.label in self.first:
                prof = self.first[d.label].profile
                groups[(prof.n, prof.dx, d.gamma, prof.bc == "periodic")].append(d)
        dense = {}
        for (_, _, gamma, _), group in groups.items():
            profs = [self.first[d.label].profile for d in group]
            dense.update(zip((d.label for d in group),
                             dense_energies(self.model, profs, gamma)))
        fails = {}
        for k, d in enumerate(self.descents):
            if d.label not in dense:
                continue
            res = self.first[d.label]
            fail = check_energy(res.energy, dense[d.label])
            if fail is None and d.constant:
                fail = check_constant(res.profile.samples, d.mean)
            if fail is None:
                fail = check_gradient(self.params, d.init, d.gamma,
                                      _seeded(self.seed, 99, k))
            if fail:
                fails[d.label] = fail
        return fails

    def energy_ratio(self):
        """Mean final E/L over the marked descents, over e(h*)."""
        per_length = [self.first[d.label].energy / d.init.L
                      for d in self.descents if d.ratio and d.label in self.first]
        return sum(per_length) / len(per_length) / self.e_star

    def iters_per_s(self, run_s):
        """Accepted iterations per second; every operation is a descent."""
        return self.iterations_per_round / run_s

    def cleanup(self):
        pass


def quench(seed: int) -> DescentWorkload:
    """Criterion-8 protocol scaled down: noise quenches on a 10 h* torus."""
    gamma, dx, starts, budget = 2e-2, 1.0 / 8.0, 16, 150
    params = _params(gamma)
    model = oracle.Model(MODEL)
    h_star, e_star = model.h_star(gamma, params.tau)
    L = round(10.0 * h_star / dx) * dx
    n = int(round(L / dx))
    opts = froth1d.MinimizeOptions(max_iters=budget, grad_tol=1e-6)
    descents = [
        Descent(f"start{k}", froth1d.GridProfile(
            L=L, dx=dx, samples=_seeded(seed, 1, k).uniform(-1.0, 1.0, n),
            bc="periodic"), gamma, opts, ratio=True)
        for k in range(starts)]
    return DescentWorkload(params, descents, e_star, seed)


def bounded(seed: int) -> DescentWorkload:
    """Criterion-12 grid under fixed bcs, plus mean-constrained descents."""
    gamma, dx, n = 1e-2, 1.0 / 32.0, 512
    params = _params(gamma)
    model = oracle.Model(MODEL)
    h_star, e_star = model.h_star(gamma, params.tau)
    n_out = model.n_out(gamma, dx)
    fixed = froth1d.MinimizeOptions(max_iters=10, grad_tol=1e-6)
    descents = []
    for k, bc in enumerate(("plus", "minus", "neumann", "custom")):
        rng = _seeded(seed, 2, k)
        extra = {}
        if bc == "custom":
            extra = dict(out_left=rng.uniform(-0.9, 0.9, n_out),
                         out_right=rng.uniform(-0.9, 0.9, n_out))
        init = froth1d.GridProfile(L=n * dx, dx=dx, bc=bc,
                                   samples=rng.uniform(-1.0, 1.0, n), **extra)
        descents.append(Descent(bc, init, gamma, fixed))
    # gamma = 0, open bc, means above m_beta where F is its own convex
    # envelope: the minimiser is the constant (criterion-10 style)
    converge = froth1d.MinimizeOptions(max_iters=6000, grad_tol=1e-7)
    for k, mean in enumerate((0.96, 0.98, 1.0)):
        init = froth1d.GridProfile(
            L=20.0, dx=dx, samples=_seeded(seed, 3, k).uniform(-1.0, 1.0, 640))
        descents.append(Descent(f"mean{mean}_gamma0", init, 0.0, converge,
                                mean=mean, constant=True))
    # gamma > 0, open bc, mean 0: a two-cell +-m_beta square wave of cell
    # length h* under seeded noise. Its wall count is fixed, so the final
    # E/L does not jump between wall counts from seed to seed, as it does
    # from uniform noise.
    cell = int(round(h_star / dx))
    square = np.where(np.arange(2 * cell) < cell, model.m, -model.m)
    budget = froth1d.MinimizeOptions(max_iters=100, grad_tol=1e-6)
    for k in range(4):
        noise = _seeded(seed, 4, k).uniform(-0.25, 0.25, 2 * cell)
        init = froth1d.GridProfile(L=2 * cell * dx, dx=dx,
                                   samples=np.clip(square + noise, -1.0, 1.0))
        descents.append(Descent(f"wave{k}", init, gamma, budget, mean=0.0,
                                ratio=True))
    return DescentWorkload(params, descents, e_star, seed)


# ---------------------------------------------------------------------------
# CLI pipeline

class _Timer:
    """Stands in for a function and adds up the seconds spent in it."""

    def __init__(self, fn):
        self.fn = fn
        self.seconds = 0.0

    def __call__(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self.fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - t0


SUBCOMMANDS = ("instanton", "eh-curve", "minimize", "coarse-grain", "verify",
               "report")


class Pipeline:
    """README minimal config through all six subcommands, one pass per round.

    Every pass writes to a fresh directory. A pass is one operation; the
    row count of its trace.csv is checked as a second operation.
    """

    gamma = 0.01
    # minimize always writes a header-only trace.csv: multistart runs its
    # descents with keep_trace=False
    known_faults = frozenset({"trace.csv"})

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.model = oracle.Model(MODEL)
        self.config = {"model": dict(MODEL, gamma=self.gamma), "seed": 7,
                       "minimize": {"init": "trial", "n_starts": 1}}
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")
        # only verify takes the workload seed (its random step-profile
        # corpus); minimize starts from the trial train and never reads it
        self.verify_seed = int(_seeded(seed, 5).integers(0, 2 ** 31))
        self.passes = 0
        self.first = None
        self.rates = []
        self.iterations_per_round = 0
        self.descents_per_round = 1

    def run_round(self, tracer, speed):
        out = self.workdir / f"pass{self.passes}"
        self.passes += 1
        total = 0.0
        codes = {}
        refs = []
        descent = _Timer(cli.multistart)
        cli.multistart = descent
        try:
            for sub in SUBCOMMANDS:
                refs.append(speed.probe())
                argv = [sub, "--config", str(self.config_path),
                        "--out", str(out)]
                if sub == "verify":
                    argv += ["--seed", str(self.verify_seed)]
                span = tracer.open(f"cli.{sub}") if tracer else None
                t0 = time.perf_counter()
                codes[sub] = cli.main(argv)
                total += time.perf_counter() - t0
                if tracer:
                    tracer.close(span)
        finally:
            cli.multistart = descent.fn
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        bad = [f"{s} exited {c}" for s, c in codes.items() if c != 0]
        fail = "; ".join(bad) or None
        minimize = json.loads(files["minimize.json"])
        accepted = int(minimize["iterations"]) - int(minimize["converged"])
        ref = statistics.median(refs)
        self.rates.append(accepted / (descent.seconds * REF_S / ref))
        self.iterations_per_round = accepted
        if self.first is None:
            self.first = files
        else:
            fail = fail or check_same_bytes(files, self.first)
            shutil.rmtree(out)
        trace_fail = check_trace_rows(files["trace.csv"].decode(),
                                      int(minimize["iterations"]))
        return [Record("pass", total, fail, ref),
                Record("trace.csv", None, trace_fail)]

    def deferred(self):
        fail = self.check_artifacts(self.first)
        return {"pass": fail} if fail else {}

    def check_artifacts(self, files):
        """Artifacts of one pass against independent computations."""
        model = self.model
        _, dx, _, head, q = oracle.read_profile(files["instanton.profile"].decode())
        tau = float(json.loads(files["instanton.json"])["tau"])
        if head.get("tau") != tau:
            return f"instanton.profile tau {head.get('tau')!r} vs {tau!r}"
        fail = check_instanton(model, q, dx, tau)
        if fail:
            return fail
        hstar = json.loads(files["hstar.json"])
        eh_rows = [tuple(float(v) for v in line.split(",")[:2])
                   for line in files["eh.csv"].decode().splitlines()[2:]]
        fail = check_hstar(model, self.gamma, tau, hstar, eh_rows)
        if fail:
            return fail
        _, dx, bc, _, phi = oracle.read_profile(files["minimized.profile"].decode())
        minimize = json.loads(files["minimize.json"])
        (dense,) = oracle.dense_energies(model, [(phi, None, None)], dx,
                                         self.gamma, periodic=bc == "periodic")
        fail = check_energy(float(minimize["energy"]), dense)
        if fail:
            return fail
        cg = json.loads(files["coarsegrain.json"])
        fail = check_block_means(cg["trace"], phi, dx)
        if fail:
            return fail
        certs = [cg["certificate"]]
        certs += json.loads(files["certificates.json"])["certificates"]
        return check_certificates(certs)

    def energy_ratio(self):
        minimize = json.loads(self.first["minimize.json"])
        _, e_star = self.model.h_star(
            self.gamma, float(json.loads(self.first["instanton.json"])["tau"]))
        return float(minimize["energy_per_length"]) / e_star

    def iters_per_s(self, run_s):
        """Accepted iterations per (speed-scaled) second of descent: the
        time spent in the ``multistart`` call of the minimize subcommand,
        median over the passes."""
        return statistics.median(self.rates)

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
