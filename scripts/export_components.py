#!/usr/bin/env python3
"""Export the crystal components of E^(3,2) with one edge label.

On the window [-2, 1] the single-label part of the crystal on shape
(3,2) splits into components of weight (3,2,1), one per diagonal, plus
one of weight (3,3,0).  Each component is written to its own DOT file.

    python scripts/export_components.py [--outdir DIR]
"""

import argparse
import os

from edgeschur.crystal import (CrystalGraph, component_decomposition,
                               crystal_graph, dot_export)
from edgeschur.schur import EdgeSchurParams
from edgeschur.shapes import Partition


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="crystal_components")
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    lam = Partition.of((3, 2))
    g = crystal_graph(lam, EdgeSchurParams(3, (-2, 1), 2))
    for comp, hw in component_decomposition(g):
        t = g.vertices[hw]
        labels = [(j - i) for (i, j), vs in t.edge_sets for _ in vs]
        if len(labels) != 1:
            continue
        keep = sorted(comp)
        remap = {v: k for k, v in enumerate(keep)}
        sub = CrystalGraph([g.vertices[v] for v in keep],
                           {g.vertices[v].key(): remap[v] for v in keep},
                           {(remap[u], i): remap[w]
                            for (u, i), w in g.arcs.items()
                            if u in comp and w in comp},
                           g.n)
        wt = "".join(map(str, t.content_vector(g.n)))
        name = f"component_a{labels[0]}_wt{wt}.dot".replace("-", "m")
        path = os.path.join(args.outdir, name)
        with open(path, "w") as fh:
            fh.write(dot_export(sub))
        print(f"{path}: {len(comp)} vertices, highest weight {wt},"
              f" label diagonal {labels[0]}")


if __name__ == "__main__":
    main()
