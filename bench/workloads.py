"""The four benchmark workloads: their instance universes and their jobs.

A workload is a finite universe of instances.  `record.py` runs every
instance once at a known-good commit and stores its output digest, cost
and workload properties in `bench/data/<workload>.json`; `run.py` draws
seeded passes from that file.  A job takes one instance spec and returns
its exact output as text: `canonical_string` for polynomials, `key()` for
tableaux, `True`/`False` for verdicts, exit code and stdout for the CLI.
A job raises when the routes it compares disagree.

The library is reached only through module attributes (`schur.edge_schur`,
never a name imported into this file), so the tracer's rebinding of the
module namespaces also covers the calls made from here.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import os

from edgeschur import cli, crystal, lattice, poly, shapes, tableaux
from edgeschur import uncrowding

# the package exports the function `schur` under the submodule's name
schur = importlib.import_module("edgeschur.schur")

Partition = shapes.Partition
SkewShape = shapes.SkewShape

# every pass draws this many instances, one from each cost stratum: about
# 3-6 s per pass, so that no single instance exceeds ~5-10 % of a pass
PASS_SIZES = {"oracle": 200, "grid": 100, "uncrowd": 100, "cli": 200}


def _parts(ext: int, top: int):
    """Weakly decreasing tuples of `ext` parts in [0, top], largest first."""
    return itertools.combinations_with_replacement(range(top, -1, -1), ext)


def _csv(parts) -> str:
    return ",".join(map(str, parts))


# -- oracle: closed form = brute ELT sum = lattice T = lattice T* ------------

# n * window width above this is the regime where one instance costs more
# than about 5 % of a pass (n = 3 at width 5 already reaches 0.9 s); tier-1
# criterion 6 keeps covering it.
ORACLE_MAX_N_WIDTH = 14


def oracle_candidates():
    """The space criterion 6 samples from, capped in n * window width."""
    for ext in (1, 2):
        for lam in _parts(ext, 3):
            for mu in _parts(ext, 3):
                if not Partition(lam).contains(Partition(mu)):
                    continue
                for n, dl, dh in itertools.product((1, 2, 3), (0, 1), (0, 1)):
                    window = (-ext - dl, lam[0] + dh)
                    if n * (window[1] - window[0] + 1) > ORACLE_MAX_N_WIDTH:
                        continue
                    key = (f"lam={_csv(lam)} mu={_csv(mu)} n={n} "
                           f"w={window[0]}:{window[1]}")
                    yield key, {"lam": lam, "mu": mu, "n": n,
                                "window": window, "ext": ext}


def oracle_job(spec, ctx) -> str:
    ext = spec["ext"]
    shape = SkewShape.of(spec["lam"], spec["mu"], extent=ext)
    p = schur.EdgeSchurParams(spec["n"], tuple(spec["window"]), ext)
    closed = schur.edge_schur(shape, p)
    routes = {"brute": schur.edge_schur_brute(shape, p),
              "T": lattice.edge_schur_lattice(shape, p, "T"),
              "Tstar": lattice.edge_schur_lattice(shape, p, "Tstar")}
    for route, value in routes.items():
        if value != closed:
            raise AssertionError(f"route {route} disagrees with the closed form")
    return poly.canonical_string(closed)


# -- grid: lattice-only checks ------------------------------------------------

# window right ends per box: both sides of the validity rule
# 2M - 2*cols >= T - 1, up to the first M where one check costs ~0.3 s
COMMUTATION_WINDOWS = {(1, 1): (1, 2, 3, 4), (1, 2): (2, 3, 4),
                       (2, 1): (1, 2, 3, 4), (2, 2): (2, 3), (1, 3): (3,),
                       (3, 1): (1, 2, 3)}
CAUCHY_PAIRS = [((), ()), ((1,), ()), ((), (1,)), ((1,), (1,)),
                ((2,), (1,)), ((1, 1), (1,))]


def grid_candidates():
    for (r, c), highs in COMMUTATION_WINDOWS.items():
        for M, T in itertools.product(highs, (2, 3, 4, 5)):
            yield (f"commutation box={r}:{c} w={-r}:{M} T={T}",
                   {"kind": "commutation", "box": (r, c), "window": (-r, M),
                    "T": T})
    for (mu, eta), n, m, dM, T in itertools.product(
            CAUCHY_PAIRS, (1, 2), (1, 2), (2, 3), (3, 4)):
        window = (-2, n + dM)
        yield (f"cauchy mu={_csv(mu)} eta={_csv(eta)} n={n} m={m} "
               f"w={window[0]}:{window[1]} T={T}",
               {"kind": "cauchy", "mu": mu, "eta": eta, "n": n, "m": m,
                "window": window, "T": T})
    for lam in _parts(3, 3):
        for n, kappa in itertools.product((1, 2, 3), (0, 1)):
            if n == 3 and lam[0] == 3:
                continue  # ~0.27 s each: a cluster that put a cliff at p90
            yield (f"factorial lam={_csv(lam)} n={n} kappa={kappa}",
                   {"kind": "factorial", "lam": lam, "n": n, "kappa": kappa})
    for top in _parts(2, 3):
        for bottom in _parts(2, 3):
            if Partition(top).contains(Partition(bottom)):
                window = (-2, top[0] + 1)
                yield (f"transfer top={_csv(top)} bottom={_csv(bottom)} "
                       f"w={window[0]}:{window[1]}",
                       {"kind": "transfer", "top": top, "bottom": bottom,
                        "window": window})


def grid_job(spec, ctx) -> str:
    kind = spec["kind"]
    if kind == "commutation":
        ok, _ = lattice.commutation_check(tuple(spec["box"]),
                                          tuple(spec["window"]), spec["T"])
        return str(ok)
    if kind == "cauchy":
        rep = lattice.cauchy_check(Partition.of(spec["mu"]),
                                   Partition.of(spec["eta"]), spec["n"],
                                   spec["m"], tuple(spec["window"]), spec["T"])
        return json.dumps({k: v for k, v in rep.items()
                           if isinstance(v, bool)}, sort_keys=True)
    if kind == "factorial":
        shape = SkewShape.of(spec["lam"], ())
        got = lattice.factorial_schur_lattice(shape, spec["n"], spec["kappa"])
        if got != schur.factorial_schur(shape, spec["n"]):
            raise AssertionError("lattice and tableau factorial Schur differ")
        return poly.canonical_string(got)
    if kind == "transfer":
        got = lattice.transfer_row(
            lattice.model_L(), Partition.of(spec["bottom"]),
            Partition.of(spec["top"]), poly.MultiPoly.var(poly.xv(1)),
            tuple(spec["window"]))
        return poly.canonical_string(got)
    raise ValueError(f"unknown grid job kind {kind!r}")


# -- uncrowd: enumeration, uncrowd/crowd round trips, f/e ---------------------

# instances enumerating more tableaux than this cost over ~5 % of a pass
# (about 1.2 ms per tableau)
UNCROWD_MAX_TABLEAUX = 150


def uncrowd_candidates():
    """Straight shapes in the 3x3 box, with 1 to UNCROWD_MAX_TABLEAUX
    tableaux."""
    for lam in shapes.partitions_in_box(3, 3):
        parts = tuple(q for q in lam.parts if q > 0)
        if not parts:
            continue
        shape = SkewShape.of(parts, (), extent=len(parts))
        for n, dl, dh in itertools.product((2, 3), (0, 1, 2), (-1, 0, 1, 2)):
            window = (-len(parts) - dl, parts[0] + dh)
            count = 0
            for _ in tableaux.enumerate_elt(shape, n, window, len(parts)):
                count += 1
                if count > UNCROWD_MAX_TABLEAUX:
                    break
            if 1 <= count <= UNCROWD_MAX_TABLEAUX:
                yield (f"lam={_csv(parts)} n={n} w={window[0]}:{window[1]}",
                       {"lam": parts, "n": n, "window": window})


def uncrowd_job(spec, ctx) -> str:
    lam = Partition.of(spec["lam"])
    n, window = spec["n"], tuple(spec["window"])
    shape = SkewShape.of(lam.parts, (), extent=lam.extent)
    out = []
    for t in tableaux.enumerate_elt(shape, n, window, lam.extent):
        key = t.key()
        back = uncrowding.crowd(uncrowding.uncrowd(t), lam, window, lam.extent)
        if back.key() != key:
            raise AssertionError(f"crowd(uncrowd(t)) != t for {key}")
        line = [key]
        for i in range(1, n):
            ft = crystal.f_elt(t, i)
            if ft is None:
                line.append("-")
                continue
            if crystal.e_elt(ft, i).key() != key:
                raise AssertionError(f"e_{i}(f_{i}(t)) != t for {key}")
            line.append(ft.key())
        out.append("\t".join(line))
    return "\n".join(out)


# -- cli: in-process edgeschur.cli.main calls ---------------------------------

TMP = "{tmp}"

# README lines, except `verify commutation` at the stated truncation and
# `verify equivalence --count 30` (seconds each)
README_LINES = [
    "expand --family edge --lambda 2,0 --extent 2 --n 2 --window -2:1",
    "expand --family factorial --lambda 2,0 --extent 2 --n 2",
    "expand --family dualschur --lambda 1 --m 1 --trunc 5",
    "expand --family edge --lambda 1 --extent 1 --n 2 --window -1:1 "
    "--schur-expand 2",
    "verify yb",
    "verify yb --kind RLL_L --perturb a1",
    "verify cauchy --n 2 --m 1 --mu 1 --window -2:5 --trunc 4",
    "verify symmetry --box 2:2 --n 3 --window -2:2",
    f"crystal --lambda 3,2 --n 3 --window -2:1 --dot {TMP}/graph.dot",
    f"uncrowd --in {TMP}/tableau.json --roundtrip",
    "tableaux --lambda 2,0 --extent 2 --n 2 --window -2:1 --edges",
]

# A known defect, kept in every pass and counted against ok_ratio: EBar
# truncates edge_schur before the exact division (schur.variation), so this
# exits 2 with "division is not exact".  Its recorded digest is the correct
# output, the untruncated quotient cut at total degree 6.
PINNED_DEFECT = ("expand --family ebar --lambda 2,1 --extent 2 --n 2 "
                 "--window -2:2 --trunc 6")

SAMPLE_SHAPES = [((1,), 1), ((2,), 1), ((1, 1), 2), ((2, 1), 2), ((2, 2), 2),
                 ((2, 1, 1), 3)]


def cli_input_files() -> dict[str, str]:
    """Tableau JSON files that `uncrowd --in` jobs read, by file name."""
    ref = tableaux.EdgeLabeledTableau.of(
        SkewShape.of((3, 3, 2, 2)), 4, (-4, 3),
        {(1, 1): 1, (1, 2): 1, (1, 3): 2, (2, 1): 2, (2, 2): 2, (2, 3): 6,
         (3, 1): 3, (3, 2): 3, (4, 1): 4, (4, 2): 5},
        {(2, 3): (4, 5), (4, 2): (4,), (5, 1): (5,)})
    files = {"tableau.json": json.dumps(ref.to_json())}
    for lam, n, window in [((2, 1), 3, (-2, 3)), ((3, 2), 3, (-2, 2)),
                           ((2, 2, 1), 3, (-3, 2))]:
        shape = SkewShape.of(lam, (), extent=len(lam))
        tabs = list(tableaux.enumerate_elt(shape, n, window, len(lam)))
        for k in range(0, len(tabs), max(1, len(tabs) // 4)):
            files[f"t{_csv(lam).replace(',', '')}_{k}.json"] = \
                json.dumps(tabs[k].to_json())
    return files


def cli_candidates():
    """The sampled part of the CLI mix (README lines and the pinned defect
    run in every pass; see `cli_fixed`)."""
    lines = []
    for (lam, ext), n in itertools.product(SAMPLE_SHAPES, (1, 2, 3)):
        base = f"--lambda {_csv(lam)} --extent {ext} --n {n}"
        w = f"--window {-ext}:{lam[0] + 1}"
        lines += [f"expand --family edge {base} {w}",
                  f"expand --family edge {base} {w} --format json",
                  f"expand --family schur {base}",
                  f"expand --family factorial {base} --sign -1",
                  f"expand --family ebar {base} {w}",
                  f"expand --family dualfact {base} {w}",
                  f"expand --family scripte {base} {w} --trunc 5"]
        if n <= 2:  # at n = 3 the listing alone takes up to seconds
            lines.append(f"tableaux {base} {w} --edges --limit 5")
        if len(lam) <= n:
            lines += [f"expand --family hatscripte {base} {w} --trunc 5",
                      f"expand --family edge {base} {w} "
                      f"--schur-expand {sum(lam) + 1}"]
    for lam in ["1", "2", "1,1", "2,1"]:
        for m, T in itertools.product((1, 2), (4, 6)):
            lines += [f"expand --family dualschur --lambda {lam} --m {m} "
                      f"--trunc {T}",
                      f"expand --family dualschur --lambda {lam} --m {m} "
                      f"--trunc {T} --alpha"]
    for kind in ("RLL_L", "RLL_Lstar", "rll_Ell", "frakRLell"):
        lines += [f"verify yb --kind {kind}",
                  f"verify yb --kind {kind} --perturb c2 --perturb-mode double"]
    lines += ["verify freefermion",
              "verify symmetry --box 1:2 --n 2", "verify symmetry --box 2:1 --n 3",
              "verify symmetry --box 2:2 --n 2 --window -2:3"]
    for mu, n, m in itertools.product(("", " --mu 1"), (1, 2), (1, 2)):
        lines.append(f"verify cauchy --n {n} --m {m}{mu} --window -2:{n + 3} "
                     "--trunc 4")
    for lam, n, window in [("2,1", 3, "-2:2"), ("2", 3, "-1:2"),
                           ("1,1", 3, "-2:1"), ("3,2", 2, "-2:1")]:
        lines.append(f"crystal --lambda {lam} --n {n} --window {window} "
                     f"--dot {TMP}/g{lam.replace(',', '')}.dot")
    for name in cli_input_files():
        lines.append(f"uncrowd --in {TMP}/{name} --roundtrip")
    lines.append("tableaux --lambda 2,1 --n 3")
    for line in lines:
        if line not in README_LINES:
            yield line, {"argv": line.split()}


def cli_fixed():
    for line in README_LINES + [PINNED_DEFECT]:
        yield line, {"argv": line.split()}


def run_cli(argv: list[str], tmp: str) -> tuple[int, str]:
    """Exit code and stdout of one in-process `edgeschur` call."""
    argv = [a.replace(TMP, tmp) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue().replace(tmp, TMP)


def cli_job(spec, ctx) -> str:
    argv = spec["argv"]
    code, stdout = run_cli(argv, ctx.tmp)
    text = f"exit {code}\n{stdout}"
    if "--dot" in argv:
        path = argv[argv.index("--dot") + 1].replace(TMP, ctx.tmp)
        with open(path) as fh:
            text += f"--- dot file ---\n{fh.read()}"
        os.remove(path)
    return text


WORKLOADS = {
    "oracle": (oracle_candidates, (), oracle_job),
    "grid": (grid_candidates, (), grid_job),
    "uncrowd": (uncrowd_candidates, (), uncrowd_job),
    "cli": (cli_candidates, cli_fixed, cli_job),
}


def candidates(name: str):
    """(sampled, fixed) lists of (key, spec) for a workload."""
    sampled, fixed, _ = WORKLOADS[name]
    return list(sampled()), list(fixed()) if fixed else []


def job_fn(name: str):
    return WORKLOADS[name][2]


def is_truncated(name: str, spec) -> bool:
    """Whether the instance computes at a finite truncation."""
    if name == "cli":
        return "--trunc" in spec["argv"]
    return "T" in spec
