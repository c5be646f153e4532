"""Benchmark for ncergo: seeded closed-loop workloads, checked against
independent references.

    python3 perfbench/run.py --workload rearrange --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One caller runs the jobs of a workload back to back (a closed loop, one
client), in whole rounds over a seed-shuffled job list, until the jobs
have run for --seconds.  The package is imported from `src/` next to this
directory; nothing is installed.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed number
of rounds untraced, then the same rounds under the outside-in tracer, and
prints the per-layer metrics with the tracing overhead.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("rearrange", "witness", "averaging")
IMPORT_PAIRS = 6
BUILD_REPEATS = 5
# `import numpy, scipy.linalg` in a fresh interpreter on the baseline
# machine (BASELINE.md), in its usual state
REFERENCE_IMPORT_S = 0.45
TRACE_ROUNDS = {"rearrange": 2, "witness": 1, "averaging": 2}

END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_ms", "ms"),
              ("job_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1,
                   help="OPENBLAS_NUM_THREADS for this run (set before numpy loads)")
    p.add_argument("--rounds", type=int, default=0,
                   help="run exactly this many rounds instead of --seconds")
    return p.parse_args(argv)


def blas_env(threads: int) -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = str(SRC)
    return env


def time_import(threads: int, code: str) -> float:
    """Wall time of a fresh interpreter running `code`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=blas_env(threads), check=True, cwd=ROOT)
    return time.perf_counter() - t0


def import_seconds(threads: int):
    """A fresh interpreter's import of ncergo (the user's start-up), at the
    reference machine's speed: each of IMPORT_PAIRS imports is divided by
    an import of numpy and scipy.linalg alone, run right after it, and the
    median ratio is multiplied by REFERENCE_IMPORT_S.  The machine has slow
    spells of minutes that slow both alike: over 24 blocks of six pairs the
    best raw import spread 0.15 (IQR / median), the median ratio 0.03.
    Returns (scaled, raw median, reference median)."""
    own, ref = [], []
    for _ in range(IMPORT_PAIRS):
        own.append(time_import(threads, "import ncergo"))
        ref.append(time_import(threads, "import numpy, scipy.linalg"))
    ratio = statistics.median(a / b for a, b in zip(own, ref))
    return REFERENCE_IMPORT_S * ratio, statistics.median(own), statistics.median(ref)


def fingerprint() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS",
                                                   "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


class Runner:
    """Runs a job list in rounds and keeps every latency and verdict."""

    def __init__(self, jobs, order, probe):
        self.jobs = jobs
        self.order = order
        self.probe = probe
        self.reference_digest = {}
        self.problems = {}
        self.attempted = 0
        self.failed = 0
        self.defects = 0

    def _judge(self, i, job, out, first: bool):
        if isinstance(out, Exception):
            return [f"raised {type(out).__name__}: {out}"]
        try:
            digest = job.digest(out)
            if not first:
                same = digest == self.reference_digest.get(i)
                return [] if same else ["output differs from the first round"]
            self.reference_digest[i] = digest
            self.defects += job.known_defect(out)
            return job.check(out)
        except Exception as exc:  # a check that crashes counts against the job
            return [f"check raised {type(exc).__name__}: {exc}"]

    def round(self, first: bool, tracer=None):
        """One pass over the job list; returns [(job index, seconds, midpoint)]."""
        timings = []
        for i in self.order:
            job = self.jobs[i]
            self.probe.tick()
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = job.call()
            except Exception as exc:  # counted as a failed job
                out = exc
            dt = time.perf_counter() - t0
            if tracer:
                tracer.active = False
            timings.append((i, dt, t0 + dt / 2))
            problems = self._judge(i, job, out, first)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.setdefault(job.name, problems)
        return timings

    def run(self, seconds: float, rounds: int, tracer=None, first=True):
        """Whole rounds until `rounds` or `seconds` of job time; returns
        [(job index, seconds, speed factor)]."""
        timings = []
        while True:
            gc.collect()  # start every round from the same heap state, outside the clock
            timings += self.round(first, tracer)
            first = False
            done = len(timings) // len(self.order)
            if (rounds and done >= rounds) or (not rounds and sum(t for _, t, _ in timings) >= seconds):
                break
        self.probe.measure()  # so the last jobs have a probe after them
        factors = self.probe.factors([mid for _, _, mid in timings])
        return [(i, t, float(f)) for (i, t, _), f in zip(timings, factors)]


def percentile_ms(values, q):
    import numpy as np
    return float(np.percentile(values, q)) * 1e3


def n_exponent(jobs, timings) -> float:
    """Slope of log job time against log n over the remark32 jobs."""
    import numpy as np
    pts = [(jobs[i].size, t * f) for i, t, f in timings if jobs[i].size]
    if len({n for n, _ in pts}) < 2:
        return 0.0
    n, t = np.array(pts, dtype=float).T
    return float(np.polyfit(np.log(n), np.log(t), 1)[0])


def layer_metrics(tracer, jobs, untraced, traced, defects):
    calls, incl, self_s = tracer.calls, tracer.incl, tracer.self_s
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for layer in ("svd", "norm2", "eigh", "qr", "schur"):
        put(f"lapack.{layer}.calls", calls[f"lapack.{layer}"], "count")
    put("lapack.svd.s", incl["lapack.svd"], "s")
    put("lapack.eigh.s", incl["lapack.eigh"], "s")
    put("lapack.share", tracer.lapack_seconds() / sum(t for _, t, _ in traced), "ratio")
    put("algebra.element.calls", calls["algebra.element"], "count")
    put("algebra.element.s", incl["algebra.element"], "s")
    put("algebra.projection_from_ranges.calls", calls["algebra.projection_from_ranges"], "count")
    put("algebra.projection_from_ranges.self_s", self_s["algebra.projection_from_ranges"], "s")
    put("algebra.projection_meet.calls", calls["algebra.projection_meet"], "count")
    put("singular.mu.calls", calls["singular.mu"], "count")
    for fn in ("mu", "clip_decompose", "lp_norm", "measure_metric", "enlarge_projection"):
        put(f"singular.{fn}.self_s", self_s[f"singular.{fn}"], "s")
    put("stepfn.integral_dominates.self_s", self_s["stepfn.integral_dominates"], "s")
    put("singular.spectral_projection_below.calls", calls["singular.spectral_projection_below"], "count")
    put("singular.spectral_projection_below.self_s", self_s["singular.spectral_projection_below"], "s")
    put("superops.verify_ds.s", incl["superops.verify_ds"], "s")
    put("superops.verify_ds.false_certified", defects, "count")
    put("superops.apply.calls", calls["superops.apply"], "count")
    put("superops.to_matrix.calls", calls["superops.to_matrix"], "count")
    put("ergodic.validate_family.s", incl["ergodic.validate_family"], "s")
    for fn in ("net_average_trace", "box_average", "besicovitch_average"):
        put(f"ergodic.{fn}.self_s", self_s[f"ergodic.{fn}"], "s")
    put("ergodic.flow_apply.calls", calls["ergodic.flow_apply"], "count")
    for fn in ("witness_convergence", "certify_cauchy", "extract_limit", "bilateral_to_onesided"):
        put(f"certify.{fn}.self_s", self_s[f"certify.{fn}"], "s")
    put("certify.witness.n_exponent", n_exponent(jobs, untraced), "slope")
    put("serialize.element_from_dict.s", incl["serialize.element_from_dict"], "s")
    # the subcommand handlers are the CLI's own work too (parsing, hashing,
    # manifests, writing); their library calls are child spans
    put("cli.main.self_s", sum(self_s[f"cli.{fn}"] for fn in ("main", "cmd_certify", "cmd_average")), "s")
    put("cli.bytes_written", tracer.bytes_written, "bytes")
    # speed-scaled, so that the ratio does not carry the machine's speed
    # change between the two passes
    put("trace.overhead_ratio", sum(t * f for _, t, f in traced)
        / sum(t * f for _, t, f in untraced), "ratio")
    return m


def run_one(args) -> int:
    if not (SRC / "ncergo" / "__init__.py").is_file():
        sys.stderr.write(f"ncergo sources not found under {SRC}\n")
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = str(args.blas_threads)
    sys.path.insert(0, str(SRC))
    import refs
    import workloads
    from speed import SpeedProbe

    probe = SpeedProbe()
    # set-up: a fresh interpreter's import (see import_seconds), then the
    # best of BUILD_REPEATS of input generation and one warm-up job in this
    # process, in raw seconds.  (The speed probe is not used for set-up: it
    # does not follow import times, and right after a child process exits
    # it reads up to twice slow.)  A traced run reports no set-up.
    imports = None if args.trace else import_seconds(args.blas_threads)

    plan = workloads.PLANS[args.workload](args.seed)  # reference work, not timed
    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        built = []

        def build():
            t0 = time.perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            built.append(workloads.BUILDERS[args.workload](args.seed, work, plan))
            built[-1][0].call()  # warm-up, outside the timed loop
            return time.perf_counter() - t0

        build_s = min(build() for _ in range(1 if args.trace else BUILD_REPEATS))
        jobs = built[-1]
        order = [int(i) for i in refs.named_stream(args.seed, "perfbench/order").permutation(len(jobs))]
        runner = Runner(jobs, order, probe)
        print("fingerprint:", json.dumps(fingerprint(), sort_keys=True))
        if args.trace:
            metrics = traced_run(args, runner, jobs)
        else:
            metrics = timed_run(args, runner, imports, build_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = "".join(runner.reference_digest[i] for i in range(len(jobs)))
    print("digest:", hashlib.sha256(digests.encode()).hexdigest())
    print(f"fail_ratio: {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} jobs)")
    print(f"known defect: verify_ds certified {runner.defects} map(s) of norm in (1, 1.15) "
          f"(c*x12*E11 on M_2; see perfbench/BASELINE.md)")
    for name, problems in sorted(runner.problems.items()):
        print(f"FAILED {name}: {'; '.join(problems[:3])}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def timed_run(args, runner, imports, build_s):
    from speed import REFERENCE_S
    import_s, own, ref = imports
    print(f"setup parts: import {import_s:.4f} s (raw median {own:.4f} s, reference median "
          f"{ref:.4f} s), build and warm-up {build_s:.4f} s (best of {BUILD_REPEATS})")
    setup_s = import_s + build_s
    timings = runner.run(args.seconds, args.rounds)
    raw = [t for _, t, _ in timings]
    lat = [t * f for _, t, f in timings]  # at the reference machine speed
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": setup_s, "jobs_per_s": len(lat) / sum(lat),
              "job_p50_ms": percentile_ms(lat, 50), "job_p90_ms": percentile_ms(lat, 90),
              "peak_rss_mb": rss_mb}
    by_kind = {}
    for i, t, f in timings:
        by_kind.setdefault(runner.jobs[i].name, []).append(t * f)
    for name, ts in sorted(by_kind.items()):
        print(f"job {name}: n={len(ts)} median={statistics.median(ts) * 1e3:.2f} ms")
    probes = runner.probe.samples
    print(f"speed probe: median {statistics.median(probes) * 1e3:.2f} ms over {len(probes)} probes "
          f"(reference {REFERENCE_S * 1e3:.2f} ms)")
    print(f"raw: jobs_per_s {len(raw) / sum(raw):.6g} 1/s, job_p50_ms {percentile_ms(raw, 50):.6g} ms, "
          f"job_p90_ms {percentile_ms(raw, 90):.6g} ms")
    print(f"timed loop: {len(lat)} jobs in {len(lat) // len(runner.order)} rounds, {sum(raw):.3f} s; "
          f"{sum(t > values['job_p90_ms'] / 1e3 for t in lat)} beyond p90")
    for name, unit in END_TO_END:
        print(f"{name}: {values[name]:.6g} {unit}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_run(args, runner, jobs):
    from tracer import Tracer
    rounds = args.rounds or TRACE_ROUNDS[args.workload]
    untraced = runner.run(0.0, rounds)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.run(0.0, rounds, tracer=tracer, first=False)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, jobs, untraced, traced, runner.defects)
    out = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.npz"
    out.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(out)
    print(f"spans: {len(tracer.span_start)} written to {out.relative_to(ROOT)}")
    print("calls:", json.dumps({k: v for k, v in sorted(tracer.calls.items())}))
    print("unhit targets:", json.dumps(tracer.unhit()))
    for name, v in metrics.items():
        print(f"{name}: {v['value']:.6g} {v['unit']}")
    return metrics


def launch(workload: str, seed: int, seconds: float = 10.0, trace: int = 0,
           blas_threads: int = 1, rounds: int = 0) -> dict:
    """One workload in its own process.  Returns its printed lines
    ("lines"), the parsed result line ("result") and the digest, calls and
    unhit-targets lines it printed; raises RuntimeError if the run fails."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
            "--blas-threads", str(blas_threads), "--rounds", str(rounds)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    fields = {"lines": lines[:-1], "result": json.loads(lines[-1])}
    for line in lines[:-1]:
        key, _, value = line.partition(": ")
        if key == "digest":
            fields[key] = value
        elif key in ("calls", "unhit targets"):
            fields[key] = json.loads(value)
    return fields


def run_all(args) -> int:
    """Each workload in its own process; prints every metric by name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        try:
            fields = launch(w, args.seed, args.seconds, args.trace, args.blas_threads, args.rounds)
        except RuntimeError as exc:
            sys.stderr.write(f"{exc}\n")
            return 1
        print(f"== {w}")
        print("\n".join(fields["lines"]))
        res = fields["result"]
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, v in res["metrics"].items():
            total["metrics"][f"{w}.{name}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
