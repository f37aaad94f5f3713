"""Benchmark the compiled kernels against the pure-Python fallback.

Runs every kernel on representative exact-arithmetic workloads (rational
and prime-field) and prints a timing table with the speedup.  Usage:

    python3 benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import random
import time
from fractions import Fraction

from quasihopf.kernels import pure

try:
    from quasihopf.kernels import _fast as fast
except ImportError:
    fast = None


def rand_fraction_matrix(rng, n, m):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 4))
             for _ in range(m)] for _ in range(n)]


def rand_int_matrix(rng, n, m, p):
    return [[rng.randrange(p) for _ in range(m)] for _ in range(n)]


def structure_rows(rng, n, p):
    """The sparse rows of a random structure tensor."""
    return [[sorted((k, rng.randrange(1, p)) for k in rng.sample(range(n), 3))
             for _ in range(n)] for _ in range(n)]


def workloads():
    rng = random.Random(7)
    a = rand_fraction_matrix(rng, 48, 48)
    b = rand_fraction_matrix(rng, 48, 48)
    p = 10007
    ai = rand_int_matrix(rng, 96, 96, p)
    bi = rand_int_matrix(rng, 96, 96, p)
    v = [rng.randrange(p) for _ in range(96)]
    ka = rand_int_matrix(rng, 18, 18, p)
    kb = rand_int_matrix(rng, 14, 14, p)
    n = 24
    srows = structure_rows(rng, n, p)
    u1 = [rng.randrange(p) for _ in range(n)]
    u2 = [rng.randrange(p) for _ in range(n)]
    return [
        ("mat_mul 48x48 rational",
         lambda k: k.mat_mul(a, b)),
        ("mat_mul 96x96 mod p",
         lambda k: k.mat_mul(ai, bi, mod=p)),
        ("mat_vec 96 mod p x200",
         lambda k: [k.mat_vec(ai, v, mod=p) for _ in range(200)]),
        ("kron 18x18 (x) 14x14 mod p",
         lambda k: k.kron(ka, kb, mod=p)),
        ("bilinear dim 24 x2000",
         lambda k: [k.bilinear(srows, u1, u2, n, mod=p)
                    for _ in range(2000)]),
    ]


def bench(fn, kernel, repeat):
    best = None
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(kernel)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3,
                    help="timing repetitions, best of N (default 3)")
    args = ap.parse_args()

    if fast is None:
        print("compiled kernels unavailable; timing the pure backend only")
    print(f"{'workload':34s} {'pure':>10s} {'fast':>10s} {'speedup':>8s}")
    for label, fn in workloads():
        tp, rp = bench(fn, pure, args.repeat)
        if fast is None:
            print(f"{label:34s} {tp:9.4f}s {'-':>10s} {'-':>8s}")
            continue
        tf, rf = bench(fn, fast, args.repeat)
        if rp != rf:
            raise SystemExit(f"backend results differ on: {label}")
        print(f"{label:34s} {tp:9.4f}s {tf:9.4f}s {tp / tf:7.1f}x")


if __name__ == "__main__":
    main()
