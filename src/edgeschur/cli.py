"""Command line front end: expand, verify, crystal, uncrowd, tableaux.

Exit codes: 0 success, 1 a failed check (identity, symmetry, internal
invariant or uncrowding round trip), 2 usage error.

The parser is built once per process, on the first `main` call, and a
subcommand dispatches by name to the module's `cmd_<name>` at call time,
and a `verify` suite to `_verify_<suite>`, so a function rebound after that
call is still the one that runs.  Each subcommand and each `verify` suite
takes only the options it reads.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from functools import cache, partial

from . import lattice
from . import uncrowding
from .crystal import component_decomposition, crystal_graph, dot_export
from .poly import (MAX_DEGREE, canonical_string, first_difference, parse,
                   swap_x_vars)
from .schur import (EdgeSchurParams, NotSymmetric, dual_schur,
                    dual_schur_alpha, edge_schur, edge_schur_brute,
                    factorial_schur, schur_expand, variation)
from .schur import schur as schur_fn
from .shapes import Partition, SkewShape, WindowError, partitions_in_box
from .tableaux import EdgeLabeledTableau, enumerate_elt, enumerate_ssyt


def _parts(s: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in s.split(",") if p != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be integers joined by ',', got {s!r}") from None


def parse_parts(s: str) -> str:
    """The type of --lambda, --mu and --eta: a partition, integers joined by
    ','.  The text is kept, and parse_partition reads it with the --extent."""
    try:
        Partition(_parts(s))
    except ValueError as exc:  # a negative or increasing part
        raise argparse.ArgumentTypeError(str(exc)) from None
    return s


def parse_partition(s: str, extent=None) -> Partition:
    return Partition.of(_parts(s), extent)


def _int(s: str) -> int:
    """int(s); argparse would name the type function in its own message."""
    try:
        return int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {s!r}") from None


def positive_int(s: str) -> int:
    v = _int(s)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def nonnegative_int(s: str) -> int:
    v = _int(s)
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {v}")
    return v


def _int_pair(s: str) -> tuple[int, int]:
    """Two ints joined by ':', as (lo, hi)."""
    try:
        lo, hi = s.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be two integers joined by ':', got {s!r}") from None


def parse_window(s: str) -> tuple[int, int]:
    """The type of --window: m:M with M >= m - 1 (0:-1 is the empty
    window), the rule of EdgeSchurParams."""
    m, M = _int_pair(s)
    if M < m - 1:
        raise argparse.ArgumentTypeError(
            f"must be m:M with M >= m - 1, got {s!r}")
    return m, M


def parse_box(s: str) -> tuple[int, int]:
    """The type of --box: rows:cols, both >= 0."""
    r, c = _int_pair(s)
    if r < 0 or c < 0:
        raise argparse.ArgumentTypeError(f"parts must be >= 0, got {s!r}")
    return r, c


def _params(args, lam: Partition) -> EdgeSchurParams:
    extent = args.extent if args.extent is not None else max(lam.extent, 1)
    window = args.window or (-extent, lam.first())
    return EdgeSchurParams(args.n, window, extent, args.trunc)


def _lambda(args) -> Partition:
    """--lambda at the --extent, which must hold its parts."""
    lam = parse_partition(args.lam)
    if args.extent is None:
        return lam
    if args.extent < lam.length():
        raise ValueError(f"--extent {args.extent} is less than the "
                         f"{lam.length()} parts of --lambda {args.lam}")
    return lam.with_extent(args.extent)


def _shape(args) -> SkewShape:
    """The skew shape --lambda / --mu at the --extent."""
    lam, mu = _lambda(args), parse_partition(args.mu)
    if not lam.contains(mu):
        raise ValueError(f"--mu {mu} is not contained in --lambda {lam}")
    return SkewShape.of(lam.parts, mu.parts, extent=lam.extent)


def cmd_expand(args) -> int:
    shape = _shape(args)
    fam = args.family
    windowed = ("edge", "ebar", "dualfact", "scripte", "hatscripte")
    for option, value, owners in (
            ("--alpha", args.alpha, ("dualschur",)),
            ("--sign", args.sign, ("factorial",)),
            ("--window", args.window, windowed),
            ("--trunc", args.trunc, windowed + ("dualschur",)),
            ("--schur-expand", args.schur_expand,
             ("schur", "factorial", "edge")),
            ("--n", args.n, ("schur", "factorial") + windowed),
            ("--m", args.m, ("dualschur",))):
        if value is not None and fam not in owners:
            raise ValueError(f"{option} applies only to --family "
                             f"{'|'.join(owners)}, not --family {fam}")
    # unset until here, so that the loop above sees only a typed --n or --m
    args.n, args.m = args.n or 2, args.m or 1
    if fam == "schur":
        poly = schur_fn(shape, args.n)
    elif fam == "factorial":
        poly = factorial_schur(shape, args.n, sign=args.sign or 1)
    elif fam == "edge":
        poly = edge_schur(shape, _params(args, shape.outer))
    elif fam in ("ebar", "dualfact", "scripte", "hatscripte"):
        kind = {"ebar": "EBar", "dualfact": "DualFact",
                "scripte": "ScriptE", "hatscripte": "HatScriptE"}[fam]
        poly = variation(kind, shape, _params(args, shape.outer))
    elif fam == "dualschur":
        if args.trunc is None:
            raise ValueError("dualschur needs --trunc")
        if args.alpha:
            poly = dual_schur_alpha(shape, args.m, args.trunc)
        else:
            poly = dual_schur(shape, args.m, args.trunc)
    if args.schur_expand is not None:
        coeffs, rem = schur_expand(poly, args.n, args.schur_expand)
        out = {str(nu): canonical_string(c) for nu, c in sorted(coeffs.items())}
        if args.format == "json":
            print(json.dumps({"coefficients": out,
                              "remainder": canonical_string(rem)}, indent=2))
        else:
            for nu, c in sorted(coeffs.items()):
                print(f"s{nu}: {canonical_string(c)}")
            if not rem.is_zero():
                print(f"remainder: {canonical_string(rem)}")
            elif not coeffs:
                print("0")
        return 0
    if args.format == "json":
        print(json.dumps({"family": fam, "value": canonical_string(poly)}))
    else:
        print(canonical_string(poly))
    return 0


def _verify_yb(args) -> tuple[bool, str]:
    for kind in [args.kind] if args.kind else lattice.YB_KINDS:
        ok, wit = lattice.yang_baxter_check(kind, perturb=args.perturb,
                                            perturb_mode=args.perturb_mode)
        expected = args.perturb is None
        if ok != expected:
            msg = f"{kind}: {'passed' if ok else 'failed'} unexpectedly"
            if wit:
                msg += f"; witness boundary {wit[0]} -> {wit[1]}: {wit[2]} != {wit[3]}"
            return False, msg
    return True, "all Yang-Baxter checks behaved as expected"


def _verify_symmetry(args) -> tuple[bool, str]:
    r, c = args.box
    window = args.window or (-r, c)
    for lam in partitions_in_box(r, c):
        shape = SkewShape.of(lam.parts, (), extent=r)
        e = edge_schur(shape, EdgeSchurParams(args.n, window, r))
        for i in range(1, args.n):
            swapped = swap_x_vars(e, i, i + 1)
            if swapped != e:
                at, ours, theirs = first_difference(e, swapped)
                return False, (f"E^{lam} not symmetric under x{i} <-> "
                               f"x{i+1}: the lowest-degree difference is at "
                               f"{at}, where E has {ours} and its swap "
                               f"{theirs}")
    return True, f"edge Schur symmetric on the {r}x{c} box"


def _verify_equivalence(args) -> tuple[bool, str]:
    rng = random.Random(args.seed)
    for case in range(args.count):
        ext = rng.randint(1, 3)
        lam = Partition(tuple(sorted((rng.randint(0, 3)
                                      for _ in range(ext)), reverse=True)))
        mu_parts = tuple(sorted((rng.randint(0, lam.part(k))
                                 for k in range(1, ext + 1)), reverse=True))
        mu = Partition(mu_parts)
        n = rng.randint(1, 3)
        # both sides of the grid's ends -ext and lam_1 - 1
        m = rng.randint(-ext - 1, 1)
        window = (m, rng.randint(m - 1, lam.first() + 1))
        shape = SkewShape.of(lam.parts, mu.parts, extent=ext)
        p = EdgeSchurParams(n, window, ext)
        closed = edge_schur(shape, p)
        routes = {"brute": edge_schur_brute(shape, p),
                  "T": lattice.edge_schur_lattice(shape, p, "T"),
                  "Tstar": lattice.edge_schur_lattice(shape, p, "Tstar")}
        bad = next((r for r, z in routes.items() if z != closed), None)
        if bad is not None:
            at, ours, theirs = first_difference(routes[bad], closed)
            return False, (f"case {case}: {lam}/{mu} n={n} window={window}: "
                           f"the lowest-degree difference is at {at}, where "
                           f"{bad} has {ours} and the closed form {theirs}, "
                           f"so {bad} disagrees with the closed form")
    return True, f"{args.count} random instances agree on all four routes"


def _too_narrow(window, T: int, exact: str, need: str) -> ValueError:
    """The usage error (exit 2) of a failed check on a window too narrow."""
    return ValueError(f"--window {window[0]}:{window[1]} is too narrow for "
                      f"--trunc {T}: the check is exact only {exact}, so it "
                      f"needs {need}")


def _verify_commutation(args) -> tuple[bool, str]:
    c, window, T = args.box[1], args.window, args.trunc
    ok, wit = lattice.commutation_check(args.box, window, T)
    if ok:
        return True, "commutation relation holds"
    if 2 * window[1] - 2 * c < T - 1:
        raise _too_narrow(window, T, "when 2M - 2*box_cols >= T - 1",
                          f"M >= {c + T // 2}")
    at, lhs, rhs = first_difference(parse(wit[2]), parse(wit[3]))
    return False, (f"failed at lam={wit[0]}, mu={wit[1]}: the lowest-degree "
                   f"difference is at {at}, where (1 - xy) T* t has {lhs} "
                   f"and t T* has {rhs}")


def _verify_cauchy(args) -> tuple[bool, str]:
    mu, eta = parse_partition(args.mu), parse_partition(args.eta)
    window, T = args.window, args.trunc
    try:
        rep = lattice.cauchy_check(mu, eta, args.n, args.m, window, T)
    except WindowError as exc:
        raise ValueError(f"--window {window[0]}:{window[1]}: {exc}") from None
    # the grids are exact only below degree 2(M0+1) - (eta1 + n) - mu1:
    # a failure at or past it is a window too narrow for T
    firsts = eta.first() + args.n + mu.first()
    if not rep["ok"] and 2 * (window[1] + 1) - firsts <= T:
        raise _too_narrow(window, T, "below degree 2(M0+1) - (eta1 + n)"
                          " - mu1", f"M0 >= {(T + firsts) // 2}")
    # the report carries its diff_* witnesses only when a check fails
    return rep["ok"], json.dumps(rep)


def _verify_freefermion(args) -> tuple[bool, str]:
    results = {name: lattice.free_fermion_check(model())
               for name, model in (("L", lattice.model_L),
                                   ("Lstar", lattice.model_Lstar),
                                   ("Ell", lattice.model_Ell))}
    return all(results.values()), json.dumps(results)


def _verify_all(args) -> tuple[bool, str]:
    """Run the battery, one `verify` line per check, through the suites
    above; print one ok/FAIL line per check and each failing report."""
    lines = [f"yb --kind {kind}" for kind in lattice.YB_KINDS] + [
        "yb --perturb b2 --perturb-mode double",
        "freefermion",
        "symmetry --box 2:2 --n 3 --window -2:2",
        f"equivalence --seed {args.seed} --count {args.count}",
        "commutation --box 2:2 --window -2:5 --trunc 6",
        "cauchy --n 1 --m 1 --window -2:4 --trunc 4",
        "cauchy --mu 1 --n 2 --m 1 --window -2:5 --trunc 4",
        "cauchy --mu 1 --eta 1 --n 3 --m 2 --window -2:7 --trunc 6",
    ]
    failed = 0
    for line in lines:
        check = build_parser().parse_args(_fuse_window(["verify",
                                                        *line.split()]))
        t0 = time.perf_counter()
        try:
            ok, msg = globals()[f"_verify_{check.suite}"](check)
        except (AssertionError, ValueError) as exc:  # main exits 1 or 2 on it
            ok, msg = False, f"error: {exc}"
        print(f"{'ok  ' if ok else 'FAIL'} verify {line} "
              f"({time.perf_counter() - t0:.2f}s)")
        if not ok:
            print(msg)
            failed += 1
    print("---")
    return not failed, (f"{failed} checks FAILED" if failed
                        else "all checks passed")


def cmd_verify(args) -> int:
    ok, msg = globals()[f"_verify_{args.suite}"](args)
    print(msg)
    return 0 if ok else 1


def cmd_crystal(args) -> int:
    lam = _lambda(args)
    g = crystal_graph(lam, _params(args, lam))
    comps = component_decomposition(g)
    summary = []
    for comp, hw in sorted(comps, key=lambda ch: (len(ch[0]),
                                                  g.vertices[ch[1]].key())):
        t = g.vertices[hw]
        summary.append({"size": len(comp),
                        "weight": list(t.content_vector(args.n)),
                        "a_monomial": canonical_string(t.a_monomial())})
    print(json.dumps({"vertices": len(g.vertices),
                      "components": summary}, indent=2))
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(dot_export(g))
        print(f"wrote {args.dot}")
    return 0


def cmd_uncrowd(args) -> int:
    with open(args.infile) as fh:
        try:
            blob = json.load(fh)
        except RecursionError:
            raise ValueError(f"--in {args.infile}: JSON nested too deeply "
                             "to read") from None
    t = EdgeLabeledTableau.from_json(blob)
    pair = uncrowding.uncrowd(t)
    print(json.dumps({
        "P": [list(r) for r in pair.P],
        "Q": [[r, c, v] for (r, c), v in pair.Q],
    }, indent=2))
    if args.roundtrip:
        try:
            back = uncrowding.crowd(pair, t.shape.outer, t.window, t.extent)
            if back != t:
                raise uncrowding.MalformedPair("crowd gave another tableau")
        except uncrowding.MalformedPair as exc:
            print(f"round trip FAILED: {exc}", file=sys.stderr)
            return 1
        print("round trip ok")
    return 0


def cmd_tableaux(args) -> int:
    shape = _shape(args)
    if args.edges:
        window = args.window or (-shape.extent, shape.outer.first())
        tabs = list(enumerate_elt(shape, args.n, window, shape.extent))
        limit = 20 if args.limit is None else args.limit
        print(f"{len(tabs)} edge labeled tableaux")
        if args.format == "json":
            print(json.dumps([t.to_json() for t in tabs[:limit]], indent=1))
        else:
            for t in tabs[:limit]:
                print(t.render())
                print("weight:", canonical_string(t.weight()))
                print()
    else:
        for option, value in (("--window", args.window),
                              ("--format", args.format),
                              ("--limit", args.limit)):
            if value is not None:
                raise ValueError(f"{option} applies only to --edges")
        tabs = enumerate_ssyt(shape, args.n)
        print(f"{len(tabs)} semistandard tableaux")
    return 0


class _Fused(str):
    """`--window=X` or `--box=X`, joined by _fuse_window from two tokens."""


class _SubParser(argparse.ArgumentParser):
    """A subcommand's or suite's parser.  It refuses an option it does not
    read itself, so the error shows its own usage, and it names the option
    as typed, not as _fuse_window joined it."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            typed = [a.replace("=", " ", 1) if isinstance(a, _Fused) else a
                     for a in extras]
            self.error(f"unrecognized arguments: {' '.join(typed)}")
        return namespace, extras


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call."""
    ap = argparse.ArgumentParser(prog="edgeschur")
    # no prefix matching, so that `tableaux --m 2` is not read as `--mu 2`
    parser = partial(_SubParser, allow_abbrev=False)
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=parser)

    shared = {"lambda": dict(dest="lam", type=parse_parts, default="",
                             metavar="PARTS"),
              "mu": dict(type=parse_parts, default="", metavar="PARTS"),
              "eta": dict(type=parse_parts, default="", metavar="PARTS"),
              "extent": dict(type=nonnegative_int, default=None),
              "n": dict(type=positive_int, default=2),
              "m": dict(type=positive_int, default=1),
              "window": dict(type=parse_window, default=None, metavar="M:N"),
              "trunc": dict(type=nonnegative_int, default=None),
              "box": dict(type=parse_box, default="2:2", metavar="R:C"),
              "kind": dict(default=None, choices=lattice.YB_KINDS),
              "perturb": dict(default=None),
              "perturb-mode": dict(default="one", choices=["one", "double"]),
              "seed": dict(type=_int, default=20240805),
              "count": dict(type=positive_int, default=30)}

    def common(p, *names):
        """Register the shared options the subcommand reads, and no more."""
        for name in names:
            p.add_argument(f"--{name}", **shared[name])
        return p

    pe = common(sub.add_parser("expand", help="print one symmetric function"),
                "lambda", "mu", "extent", "n", "m", "window", "trunc")
    pe.add_argument("--family", required=True,
                    choices=["schur", "factorial", "edge", "ebar", "dualfact",
                             "scripte", "hatscripte", "dualschur"])
    pe.add_argument("--sign", type=int, default=None, choices=[1, -1],
                    help="factorial only; default 1")
    pe.add_argument("--alpha", action="store_const", const=True,
                    help="dualschur only: specialize every a_d to the single "
                    "symbol alpha")
    pe.add_argument("--schur-expand", type=nonnegative_int, default=None,
                    metavar="SIZE")
    pe.add_argument("--format", choices=["text", "json"], default="text")
    pe.set_defaults(n=None, m=None)  # cmd_expand fills them in

    suites = sub.add_parser("verify", help="run a verification suite") \
        .add_subparsers(dest="suite", required=True, parser_class=parser)
    common(suites.add_parser("yb"), "kind", "perturb", "perturb-mode")
    common(suites.add_parser("commutation"), "box", "window",
           "trunc").set_defaults(window=(-2, 5), trunc=6)
    common(suites.add_parser("cauchy"), "mu", "eta", "n", "m", "window",
           "trunc").set_defaults(window=(-2, 3), trunc=4)
    suites.add_parser("freefermion")
    common(suites.add_parser("symmetry"), "box", "n", "window")
    common(suites.add_parser("equivalence"), "seed", "count")
    common(suites.add_parser("all"), "seed", "count")

    pc = common(sub.add_parser("crystal", help="crystal graph export"),
                "lambda", "extent", "n", "window")
    pc.add_argument("--dot", default=None, metavar="FILE")
    pc.set_defaults(trunc=None)  # a crystal is not truncated

    pu = sub.add_parser("uncrowd", help="uncrowding of a JSON tableau")
    pu.add_argument("--in", dest="infile", required=True)
    pu.add_argument("--roundtrip", action="store_true")

    pt = common(sub.add_parser("tableaux", help="enumerate tableaux"),
                "lambda", "mu", "extent", "n", "window")
    pt.add_argument("--edges", action="store_true",
                    help="edge labeled tableaux instead of plain SSYT")
    pt.add_argument("--format", choices=["text", "json"], default=None,
                    help="--edges only; default text")
    pt.add_argument("--limit", type=nonnegative_int, default=None,
                    help="--edges only; default 20")
    return ap


def _fuse_window(argv: list[str]) -> list[str]:
    """Let `--window -2:1` work: argparse treats `-2:1` as a flag."""
    out = []
    k = 0
    while k < len(argv):
        tok = argv[k]
        if tok in ("--window", "--box") and k + 1 < len(argv):
            out.append(_Fused(f"{tok}={argv[k + 1]}"))
            k += 2
        else:
            out.append(tok)
            k += 1
    return out


def main(argv=None) -> int:
    argv = _fuse_window(list(sys.argv[1:] if argv is None else argv))
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (NotSymmetric, AssertionError) as exc:
        print("error: " + (" ".join(str(exc).split()) or type(exc).__name__),
              file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a degree the packed monomials cannot hold
        print(f"error: {exc}: degrees above MAX_DEGREE = {MAX_DEGREE} are "
              "not represented", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
