"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py --seed 1

For every workload, in separate processes:
  * two traced runs give identical call counts for every span name and
    identical output digests;
  * one round under OPENBLAS_NUM_THREADS=2 gives the same output digest
    as one round under 1 thread (results must not depend on the BLAS
    thread count);
and across the workloads every wrapped entry point is hit at least once.
Exits 1 if any check fails or a run exits with an error.
"""

from __future__ import annotations

import argparse
import sys

from run import WORKLOADS, launch


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    ok = True
    unhit = None

    def report(name, passed, detail=""):
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}{': ' + detail if detail else ''}")

    for w in WORKLOADS:
        a, b = launch(w, args.seed, trace=1), launch(w, args.seed, trace=1)
        diff = {k for k in set(a["calls"]) | set(b["calls"])
                if a["calls"].get(k) != b["calls"].get(k)}
        report(f"{w}: call counts repeat across traced runs", not diff, ", ".join(sorted(diff)))
        report(f"{w}: digests repeat across traced runs", a["digest"] == b["digest"])
        report(f"{w}: traced runs correct", a["result"]["correct"] and b["result"]["correct"])
        one = launch(w, args.seed, blas_threads=1, rounds=1)
        two = launch(w, args.seed, blas_threads=2, rounds=1)
        report(f"{w}: same digest with 1 and 2 BLAS threads", one["digest"] == two["digest"])
        report(f"{w}: untraced run repeats traced digest", one["digest"] == a["digest"])
        unhit = set(a["unhit targets"]) if unhit is None else unhit & set(a["unhit targets"])
    report("every wrapped entry point is hit on some workload", not unhit,
           ", ".join(sorted(unhit or ())))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
