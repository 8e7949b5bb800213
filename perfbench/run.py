"""Benchmark of the leveldecay CLI: three closed-loop workloads.

    python3 perfbench/run.py --workload {sweep,decay,decay-slow} --seed N
                             --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One caller runs the items of a workload back to back through
``leveldecay.cli.main(argv)`` in this process, so the loop is closed: the next
item starts when the previous one returns.  The seed draws the scenarios and
the program sees only the config files written from them.  ``--seconds`` sets
the amount of work: the item count is sized so that the seed code takes about
that long on a 2-core machine, and the same (seed, seconds) always gives the
same items, so two versions of the program do the same work.

Workloads (see README.md for what each per-layer metric should move):

* ``sweep``: 32-point ``sweep --jobs 1`` items over g_sq or lambda_cutoff of
  both families.  Only threshold, eigenvalue and weight run; the 2d g_sq band
  reaches down to 1e-3, where the eigenvalue's distance to the edge
  underflows.
* ``decay``: ``decay`` at gap 1 (horizon 200, 2000 points, 22k or 42k
  Volterra steps), cycling 2d, 3d above and 3d below threshold.  The density
  table dominates.
* ``decay-slow``: ``decay`` at gap 0.25 (horizon 800, 82k steps), cycling 2d
  and 3d below threshold.  Transform and Volterra weigh more.

Each decay item type has its own stratum of the parameter band (g2*L in
[0.05, 3], L in [0.5, 2]), so every run has the same mix of cheap and dear
scenarios and the timings stay steady across seeds.

Timings are reported in units of a fixed reference loop timed alongside the
items (see SpeedProbe), because the speed of a shared machine drifts by tens
of percent; raw seconds are printed on the ``raw:`` line.

Every output is checked (see checks.py) and every artifact is hashed.  Digests,
and with ``--trace 1`` the deterministic work counters, are kept per (workload,
seed, seconds, source hash) under ``.perfbench/`` and compared with every
later run of the same key: any difference fails the run.  The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import os
import sys
import time

_BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _BLAS_THREADS

import argparse
import bisect
import contextlib
import hashlib
import json
import math
import random
import resource
import shutil
import signal
import statistics
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from tracing import DETERMINISTIC, Tracer

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("sweep", "decay", "decay-slow")
SETUP_PROBES = 5
REF_PERIOD_S = 0.25
REF_WINDOW_S = 2.0

SWEEP_POINTS = 32

# Seconds of seed-code work per sweep item and per cycle through the decay
# strata, used to size a run from --seconds.
_UNIT_SECONDS = {"sweep": 0.045, "decay": 24.0, "decay-slow": 32.0}

# Decay strata: (family, g2*L centre, L range).  The seed jitters g2*L by a
# log-uniform factor within 1.15 and draws L uniformly from its range.  Each L
# range keeps the CLI's Volterra step count fixed (21989 or 41979 steps at gap
# 1, 81959 at gap 0.25), because that count enters the cost squared.  3d
# strata stay at least 10 % away from the threshold g2*L = gap.
_DECAY_STRATA = {
    "decay": (1.0, (
        ("2d-exp", 0.4, (0.5, 0.6)),
        ("3d-exp", 2.2, (2.0, 2.09)),
        ("3d-exp", 0.08, (0.9, 1.0)),
    )),
    "decay-slow": (0.25, (
        ("2d-exp", 0.3, (1.0, 1.02)),
        ("3d-exp", 0.1, (1.0, 1.02)),
    )),
}


@dataclass(frozen=True)
class Item:
    name: str
    argv_head: tuple[str, ...]          # command and config path
    models: tuple                       # checks.Model, one per sweep value
    sweep_values: tuple[float, ...] | None = None


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _config(name: str, family: str, g_sq: float, cutoff: float, gap: float,
            sweep: str = "") -> str:
    return (
        f"name = {name}\nmodel.e1 = 0.0\nmodel.e2 = {gap!r}\n"
        f"coupling.family = {family}\ncoupling.g_sq = {g_sq!r}\n"
        f"coupling.lambda_cutoff = {cutoff!r}\n{sweep}"
    )


def _sweep_item(rng: random.Random, name: str, family: str, param: str, path: Path):
    """A sweep of one parameter: 2d g_sq log-uniform down to 1e-3, 3d on both
    sides of the threshold g2*L = gap = 1 and at least 10 % away from it."""
    cutoff = _log_uniform(rng, 0.5, 2.0)
    if family == "2d-exp":
        g_sq = _log_uniform(rng, 1e-3, 3.0)
        band = (1e-3, 3.0) if param == "g_sq" else (0.5, 2.0)
        values = [_log_uniform(rng, *band) for _ in range(SWEEP_POINTS)]
    else:
        g_sq = _log_uniform(rng, 0.5, 2.0) / cutoff
        ratios = [_log_uniform(rng, *((0.2, 0.9) if rng.random() < 0.5 else (1.1, 5.0)))
                  for _ in range(SWEEP_POINTS)]
        other = cutoff if param == "g_sq" else g_sq
        values = [r / other for r in ratios]
    values.sort()
    models = tuple(
        checks.Model(family, v, cutoff, 1.0) if param == "g_sq"
        else checks.Model(family, g_sq, v, 1.0)
        for v in values
    )
    sweep = f"sweep.parameter = {param}\nsweep.values = {', '.join(map(repr, values))}\n"
    path.write_text(_config(name, family, g_sq, cutoff, 1.0, sweep), encoding="utf-8")
    return Item(name, ("sweep", str(path), "--jobs", "1"), models, tuple(values))


def _decay_item(rng: random.Random, name: str, workload: str, i: int, tiny: bool,
                path: Path):
    gap, strata = _DECAY_STRATA[workload]
    family, gl, l_range = strata[i % len(strata)]
    gl *= _log_uniform(rng, 1 / 1.15, 1.15)
    cutoff = rng.uniform(*l_range)
    path.write_text(_config(name, family, gl / cutoff, cutoff, gap), encoding="utf-8")
    head = ("decay", str(path))
    if tiny:
        head += ("--horizon", repr(50.0 / gap))
    return Item(name, head, (checks.Model(family, gl / cutoff, cutoff, gap),))


def make_items(workload: str, seed: int, seconds: int, tiny: bool, cfg_dir: Path) -> list:
    """Draw the items of one run from the seed and write their config files."""
    rng = random.Random(f"{workload}:{seed}")
    count = max(1, round(seconds / _UNIT_SECONDS[workload]))
    if workload != "sweep":
        count *= len(_DECAY_STRATA[workload][1])
    if tiny:
        count = 4 if workload == "sweep" else 1
    items = []
    for i in range(count):
        name = f"i{i:05d}"
        path = cfg_dir / f"{name}.txt"
        if workload == "sweep":
            family = ("2d-exp", "3d-exp")[i % 2]
            param = ("g_sq", "lambda_cutoff")[(i // 2) % 2]
            items.append(_sweep_item(rng, name, family, param, path))
        else:
            items.append(_decay_item(rng, name, workload, i, tiny, path))
    return items


def source_hash() -> str:
    """Hash of the package and benchmark sources: the key of cross-run records."""
    h = hashlib.sha256()
    for base in (ROOT / "src" / "leveldecay", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def setup(args, work: Path):
    """Imports and input generation: what setup_s times."""
    import leveldecay.cli  # noqa: F401  (imports every layer)

    cfg_dir = work / "cfg"
    cfg_dir.mkdir(parents=True)
    return make_items(args.workload, args.seed, args.seconds, args.tiny, cfg_dir)


def probe_setup(args) -> list[float]:
    """Time fresh processes from spawn until their set-up is done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                samples.append(time.perf_counter() - t0)
                proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return samples


def digest_outputs(out_dir: Path, items: list) -> dict[str, str]:
    """sha256 per item over its artifacts, by file name and content."""
    by_item = {}
    for path in sorted(out_dir.iterdir()):
        item = path.name.split("_", 1)[0]
        h = by_item.setdefault(item, hashlib.sha256())
        h.update(path.name.encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return {it.name: by_item[it.name].hexdigest() if it.name in by_item else "none"
            for it in items}


_REF_SMALL = np.linspace(0.0, 1.0, 600)
_REF_LARGE = np.linspace(0.0, 30.0, 40_000)
_REF_DOT = np.exp(1j * np.linspace(0.0, 50.0, 80_000))


def reference_loop() -> None:
    """About 10 ms of the kinds of work the program does.

    Many small numpy calls (adaptive quadrature), complex exponentials over a
    large array (the transform), long complex dot products (the Volterra
    history sum) and plain bytecode.  It shares no code with the program, so
    a change to the program cannot move it; only the speed of the machine can.
    """
    acc = 0.0
    for k in range(500):
        acc += float(np.exp(-_REF_SMALL * (1.0 + 1e-3 * k)).sum())
    acc += float(np.exp(-1j * _REF_LARGE).real.sum())
    for _ in range(20):
        acc += abs(np.dot(_REF_DOT, _REF_DOT[::-1]))
    for i in range(25_000):
        acc += i * 1e-12


class SpeedProbe:
    """Times ``reference_loop`` every REF_PERIOD_S seconds while the items run.

    The machine's speed drifts by tens of percent within seconds to minutes,
    so each item's time is divided by the reference samples taken while it
    ran (at least REF_WINDOW_S around its middle).  The samples run from
    SIGALRM between bytecodes of the program; their wall and CPU time is kept
    in ``wall`` and ``cpu`` so the caller can leave it out of the items' times.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.samples: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0

    def sample(self, *_signal) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        reference_loop()
        dw = time.perf_counter() - w0
        self.starts.append(w0)
        self.samples.append(dw)
        self.wall += dw
        self.cpu += time.process_time() - c0

    def around(self, t0: float, t1: float) -> float:
        """Median sample from [t0, t1], widened to REF_WINDOW_S if shorter."""
        mid = 0.5 * (t0 + t1)
        lo = bisect.bisect_left(self.starts, min(t0, mid - 0.5 * REF_WINDOW_S))
        hi = bisect.bisect_right(self.starts, max(t1, mid + 0.5 * REF_WINDOW_S))
        return statistics.median(self.samples[lo:hi] or self.samples)

    def __enter__(self) -> SpeedProbe:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def compare_record(key: str, digests: dict, counters: dict | None,
                   wall_s: float, traced: bool) -> tuple[set, list[str], float | None]:
    """Compare with the record of earlier runs of the same key, then update it.

    Returns the items whose digest changed, counter mismatches, and the
    untraced wall_s on record (for the tracing overhead).
    """
    path = STATE / f"record-{key}.json"
    record = json.loads(path.read_text()) if path.exists() else {"digests": {}}
    bad_items = {k for k, v in digests.items()
                 if k in record["digests"] and record["digests"][k] != v}
    mismatches = []
    if counters is not None and "counters" in record:
        for name, value in counters.items():
            if record["counters"].get(name) != value:
                mismatches.append(f"{name}: {value!r} now, {record['counters'].get(name)!r} before")
    untraced = record.get("wall_s_untraced")
    for k, v in digests.items():
        record["digests"].setdefault(k, v)
    if counters is not None:
        record.setdefault("counters", counters)
    if not traced:
        record.setdefault("wall_s_untraced", wall_s)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    os.replace(tmp, path)
    return bad_items, mismatches, untraced


def layer_metrics(tracer, margins, artifact_bytes: int, wall_s: float) -> dict:
    spans = tracer.summarize()
    c = tracer.counters

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    k_calls = span("quadrature.k_pv", "calls") + span("quadrature.k_regular", "calls")
    return {
        "coupling.v2_nodes": (c["coupling.v2_nodes"], "count"),
        "quadrature.k_pv.calls": (span("quadrature.k_pv", "calls"), "count"),
        "quadrature.k_pv.s": (span("quadrature.k_pv", "s"), "s"),
        "quadrature.nodes_per_k": (ratio(tracer.k_nodes, k_calls), "count"),
        "quadrature.k_regular.calls": (span("quadrature.k_regular", "calls"), "count"),
        "quadrature.k_regular.s": (span("quadrature.k_regular", "s"), "s"),
        "spectrum.threshold.calls": (span("spectrum.threshold", "calls"), "count"),
        "spectrum.threshold.s": (span("spectrum.threshold", "s"), "s"),
        "spectrum.eigenvalue.calls": (span("spectrum.eigenvalue", "calls"), "count"),
        "spectrum.eigenvalue.self_s": (span("spectrum.eigenvalue", "self_s"), "s"),
        "spectrum.weight.calls": (span("spectrum.weight", "calls"), "count"),
        "spectrum.weight.s": (span("spectrum.weight", "s"), "s"),
        "spectrum.density.calls": (span("spectrum.density", "calls"), "count"),
        "spectrum.density.self_s": (span("spectrum.density", "self_s"), "s"),
        "spectrum.rho_evals": (c["spectrum.rho_evals"], "count"),
        "spectrum.segments": (c["spectrum.segments"], "count"),
        "spectrum.us_per_rho": (
            ratio(span("spectrum.density", "s"), c["spectrum.rho_evals"], 1e6), "us"),
        "evolution.transform.calls": (span("evolution.transform", "calls"), "count"),
        "evolution.transform.s": (span("evolution.transform", "s"), "s"),
        "evolution.times": (c["evolution.times"], "count"),
        "evolution.us_per_time": (
            ratio(span("evolution.transform", "s"), c["evolution.times"], 1e6), "us"),
        "volterra.solve.calls": (span("volterra.solve", "calls"), "count"),
        "volterra.solve.s": (span("volterra.solve", "s"), "s"),
        "volterra.kernel.s": (span("volterra.kernel", "s"), "s"),
        "volterra.steps": (c["volterra.steps"], "count"),
        "volterra.ns_per_step_sq": (
            ratio(span("volterra.solve", "s"), c["volterra.n_sq"], 1e9), "ns"),
        "artifacts.s": (span("artifacts", "s"), "s"),
        "artifacts.bytes": (artifact_bytes, "bytes"),
        "cli.items": (span("cli", "calls"), "count"),
        "cli.self_s": (span("cli", "self_s"), "s"),
        "check.e0_err_max": (margins.e0_err, "1"),
        "check.pinf_err_max": (margins.pinf_err, "1"),
        "check.cross_dev_max": (margins.cross_dev, "1"),
        "spectrum.norm_defect_max": (c["spectrum.norm_defect_max"], "1"),
        "trace.wall_s": (wall_s, "s"),
    }


def deterministic_counters(metrics: dict) -> dict:
    return {k: v for k, (v, _unit) in metrics.items()
            if k in DETERMINISTIC or k.endswith(".calls")}


def run(args) -> int:
    work = STATE / f"work-{os.getpid()}"
    if args.probe:
        try:
            setup(args, work)
            print("ready", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    try:
        items = setup(args, work)
        return _measure(args, work, items)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, work: Path, items: list) -> int:
    import scipy

    import leveldecay.cli as cli

    out_dir = work / "out"
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        for name in tracer.missing:
            print(f"trace: {name} not found; its metrics read 0")

    latencies, cpu_times, spans, codes, raised = [], [], [], {}, {}
    probe = SpeedProbe()
    with probe if tracer is None else contextlib.nullcontext():
        for idx, item in enumerate(items):
            if tracer is not None:
                tracer.item_id = idx
            p_wall, p_cpu = probe.wall, probe.cpu
            ts, cs = time.perf_counter(), time.process_time()
            try:
                codes[item.name] = cli.main([*item.argv_head, "--out", str(out_dir)])
            except Exception as exc:  # an item that raises is a failed item, not a crash
                raised[item.name] = repr(exc)
            cpu_times.append(time.process_time() - cs - (probe.cpu - p_cpu))
            latencies.append(time.perf_counter() - ts - (probe.wall - p_wall))
            spans.append((ts, time.perf_counter()))
    wall_s, cpu_s = sum(latencies), sum(cpu_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    failures: dict[str, list[str]] = {}
    margins = checks.Margins()
    for item in items:
        if item.name in raised:
            failures[item.name] = [f"raised {raised[item.name]}"]
            continue
        if codes[item.name] != 0:
            failures[item.name] = [f"exit code {codes[item.name]}"]
            continue
        try:
            if item.sweep_values is not None:
                errs = checks.check_sweep(item.models, item.sweep_values,
                                          out_dir / f"{item.name}_sweep.csv", margins)
            else:
                errs = checks.check_decay(item.models[0], out_dir, item.name, margins)
        except (OSError, ValueError, KeyError) as exc:
            errs = [f"unreadable output: {exc!r}"]
        if errs:
            failures[item.name] = errs

    digests = digest_outputs(out_dir, items) if out_dir.exists() else {}
    artifact_bytes = sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.exists() else 0
    run_digest = hashlib.sha256(
        "".join(f"{k}:{digests[k]}\n" for k in sorted(digests)).encode()
    ).hexdigest()

    layer = None
    if tracer is not None:
        layer = layer_metrics(tracer, margins, artifact_bytes, wall_s)
        tracer.write_spans(STATE / f"spans-{args.workload}.tsv")

    key = (f"{args.workload}-s{args.seed}-n{args.seconds}"
           f"{'-tiny' if args.tiny else ''}-{source_hash()[:16]}")
    bad_items, counter_mismatch, untraced_wall = compare_record(
        key, digests, deterministic_counters(layer) if layer else None,
        wall_s, traced=bool(args.trace),
    )
    for name in bad_items:
        failures.setdefault(name, []).append("artifact digest differs from an earlier run")

    setup_samples = probe_setup(args) if not args.trace else []

    print(json.dumps({
        "env": {
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "blas_threads": _BLAS_THREADS,
        },
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "items": len(items), "run_digest": run_digest,
    }))
    if len(items) <= 20:
        for name in sorted(digests):
            print(f"digest {name} {digests[name]}")
    print(f"digest run {run_digest}")
    for name, errs in sorted(failures.items()):
        for err in errs:
            print(f"FAIL {name}: {err}")
    for line in counter_mismatch:
        print(f"FAIL counter differs from an earlier traced run: {line}")
    print(f"fail_frac {len(failures) / len(items):.6g} "
          f"({len(failures)} of {len(items)} items failed)")

    lat = sorted(latencies)
    p50, p90 = percentile(lat, 0.5), percentile(lat, 0.9)
    print(f"raw: wall_s {wall_s:.4f} s, cpu_s {cpu_s:.4f} s, "
          f"item_p50_ms {1e3 * p50:.4f} ms, item_p90_ms {1e3 * p90:.4f} ms "
          f"over {len(lat)} items")
    if layer is None:
        refs = [probe.around(t0, t1) for t0, t1 in spans]
        lat_ref = sorted(w / r for w, r in zip(latencies, refs))
        print(f"reference loop: median {1e3 * statistics.median(probe.samples):.3f} ms "
              f"over {len(probe.samples)} samples")
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_ref": (sum(lat_ref), "ref"),
            "cpu_ref": (sum(c / r for c, r in zip(cpu_times, refs)), "ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "item_p50_ref": (percentile(lat_ref, 0.5), "ref"),
            "item_p90_ref": (percentile(lat_ref, 0.9), "ref"),
        }
        print(f"setup samples (s): {' '.join(f'{s:.4f}' for s in setup_samples)}")
    else:
        metrics = layer
        if untraced_wall is not None:
            print(f"tracing overhead: {wall_s - untraced_wall:.4f} s "
                  f"(traced wall_s {wall_s:.4f} - untraced {untraced_wall:.4f})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    correct = not failures and not counter_mismatch
    print(json.dumps({
        "correct": correct,
        "attempted": len(items),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke size: 4 sweep items or one short decay item")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "leveldecay" / "__init__.py").is_file():
        print(f"error: no leveldecay sources under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    STATE.mkdir(exist_ok=True)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
