"""Compare the compiled and pure-Python kernel backends.

Run from the repository root after installing the package:

    python3 benchmarks/bench_kernels.py

Each hot kernel runs the same workload per backend; results are checked
for agreement before the timings print.
"""

import sys
import time
from pathlib import Path

from hyperkernel import kernels
from hyperkernel.core import direct_product
from hyperkernel.corpus import cyclic_group, h9

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import all_class_assignments  # noqa: E402


def _time(fn, repeat=3):
    best = float("inf")
    value = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _sr_enumeration(backend, rows, n):
    count = 0
    for class_of in all_class_assignments(n):
        if backend.sr_check(rows, n, list(class_of)):
            count += 1
    return count


def main():
    available = kernels.backends()
    H = h9()
    P = direct_product(h9(), cyclic_group(2))
    workloads = {
        "oracle_merge(h9, nmax=4)": lambda b: b.oracle_merge(H.rows, H.n, 4),
        "sr enumeration (Bell(9) partitions)": lambda b: _sr_enumeration(b, H.rows, H.n),
        "census(h9 x z2)": lambda b: b.census(P.rows, P.n, 100000),
        "assoc_witness(h9 x z2)": lambda b: b.assoc_witness(P.rows, P.n),
    }
    print(f"active backend: {kernels.BACKEND}")
    if len(available) == 1:
        print("compiled extension not present; only the pure backend runs")
    for label, work in workloads.items():
        results = {}
        timings = {}
        for name, backend in available.items():
            timings[name], results[name] = _time(lambda b=backend: work(b))
        values = list(results.values())
        agree = all(v == values[0] for v in values)
        line = f"{label:40s}"
        for name in sorted(timings):
            line += f"  {name}: {timings[name] * 1000:9.2f} ms"
        if "compiled" in timings and "pure" in timings and timings["compiled"] > 0:
            line += f"  speedup: {timings['pure'] / timings['compiled']:6.1f}x"
        if not agree:
            line += "  [MISMATCH]"
        print(line)


if __name__ == "__main__":
    main()
