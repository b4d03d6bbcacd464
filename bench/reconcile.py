"""Per-route split of tier-1 criterion 6's exact instance stream.

    python3 bench/reconcile.py

Generates the 30 instances criterion 6 checks (seed 20240808, no size cap),
times each of the four routes untraced, then runs them again with the
tracer installed and each route in its own span.  Prints the per-route
times and the layer self times, to set beside a profile of the same stream.
"""

from __future__ import annotations

import random
import time

import run


def criterion6_instances():
    """The instance stream of tests/test_acceptance.py criterion 6."""
    from edgeschur.schur import EdgeSchurParams
    from edgeschur.shapes import Partition, SkewShape
    rng = random.Random(20240808)
    out = []
    while len(out) < 30:
        ext = rng.randint(1, 2)
        lam = Partition(tuple(sorted((rng.randint(0, 3) for _ in range(ext)),
                                     reverse=True)))
        mu = Partition(tuple(sorted((rng.randint(0, lam.part(k))
                                     for k in range(1, ext + 1)),
                                    reverse=True)))
        if not lam.contains(mu):
            continue
        n = rng.randint(1, 3)
        window = (-ext - rng.randint(0, 1), lam.first() + rng.randint(0, 1))
        out.append((SkewShape.of(lam.parts, mu.parts, extent=ext),
                    EdgeSchurParams(n, window, ext)))
    return out


def routes():
    from workloads import lattice, schur
    return {"closed": schur.edge_schur,
            "brute": schur.edge_schur_brute,
            "T": lambda s, p: lattice.edge_schur_lattice(s, p, "T"),
            "Tstar": lambda s, p: lattice.edge_schur_lattice(s, p, "Tstar")}


def main() -> None:
    from tracer import LAYERS, Tracer
    instances = criterion6_instances()
    untraced = {}
    for name, fn in routes().items():
        t0 = time.perf_counter()
        for shape, p in instances:
            fn(shape, p)
        untraced[name] = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        root = tracer.begin("bench.run")
        for name, fn in routes().items():
            span = tracer.begin(f"bench.route.{name}")
            for shape, p in instances:
                fn(shape, p)
            tracer.end(span)
        tracer.end(root)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    summ = tracer.summary()
    print("| route | untraced s | traced s |")
    print("|---|---|---|")
    for name, secs in untraced.items():
        print(f"| {name} | {secs:.2f} | "
              f"{summ[f'bench.route.{name}']['incl_s']:.2f} |")
    print(f"\ntraced wall {wall:.2f} s; layer self times:")
    for layer in LAYERS + ("bench",):
        s = sum(r["self_s"] for k, r in summ.items()
                if k.startswith(layer + "."))
        print(f"  {layer:<10} {s:8.2f} s")
    top = sorted(summ.items(), key=lambda kv: -kv[1]["self_s"])[:8]
    print("top spans by self time:")
    for k, r in top:
        print(f"  {k:<32} {r['self_s']:8.2f} s  {r['calls']:>9} calls")


if __name__ == "__main__":
    run.use_checkout_src()
    main()
