import json
import shlex
from pathlib import Path

import pytest

from edgeschur import cli, lattice, uncrowding
from edgeschur.cli import (_fuse_window, build_parser, main, parse_box,
                           parse_partition, parse_window)
from edgeschur.poly import MultiPoly, canonical_string, parse
from edgeschur.schur import (EdgeSchurParams, NotSymmetric, dual_schur_alpha,
                             edge_schur, factorial_schur, variation)
from edgeschur.shapes import SkewShape
from edgeschur.tableaux import EdgeLabeledTableau, enumerate_elt


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip()


class TestParsing:
    def test_partition(self):
        assert parse_partition("3,2").parts == (3, 2)
        assert parse_partition("").parts == ()
        assert parse_partition("2,0", extent=2).parts == (2, 0)

    def test_window(self):
        assert parse_window("-2:1") == (-2, 1)

    @pytest.mark.parametrize("option, value", [
        ("--window", "3"), ("--window", "a:1"), ("--box", "2"),
        ("--box", "1:x"), ("--lambda", "a"), ("--lambda", "2,x"),
        ("--mu", "x"), ("--eta", "x")])
    def test_malformed_pair_names_its_option(self, capsys, option, value):
        command = {"--lambda": ["tableaux"], "--box": ["verify", "symmetry"]
                   }.get(option, ["verify", "cauchy"])
        with pytest.raises(SystemExit) as exc:
            main(command + [option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        form = ("two integers joined by ':'" if option in ("--window", "--box")
                else "integers joined by ','")
        assert f"error: argument {option}: must be {form}, got '{value}'" in err

    @pytest.mark.parametrize("argv, message", [
        (["verify", "symmetry", "--box", "-1:2"],
         "argument --box: parts must be >= 0, got '-1:2'"),
        (["verify", "commutation", "--box", "-1:1", "--window", "-2:5"],
         "argument --box: parts must be >= 0, got '-1:1'"),
        (["verify", "commutation", "--box", "1:-1"],
         "argument --box: parts must be >= 0, got '1:-1'"),
        (["verify", "symmetry", "--box", "1:-1"],
         "argument --box: parts must be >= 0, got '1:-1'"),
        (["verify", "commutation", "--box", "2:2", "--window", "3:1"],
         "argument --window: must be m:M with M >= m - 1, got '3:1'"),
        (["tableaux", "--lambda", "1", "--n", "2", "--window", "5:1",
          "--edges"],
         "argument --window: must be m:M with M >= m - 1, got '5:1'"),
        (["verify", "cauchy", "--window", "-2:-9"],
         "argument --window: must be m:M with M >= m - 1, got '-2:-9'"),
        (["expand", "--family", "edge", "--lambda", "1,2"],
         "argument --lambda: parts not weakly decreasing: (1, 2)"),
        (["tableaux", "--lambda=-1"], "argument --lambda: negative part -1"),
        (["tableaux", "--lambda", "2", "--mu", "0,1"],
         "argument --mu: parts not weakly decreasing: (0, 1)"),
        (["verify", "cauchy", "--eta=-1"], "argument --eta: negative part -1"),
        (["expand", "--family", "edge", "--lambda", "2", "--extent", "-1"],
         "argument --extent: must be >= 0, got -1"),
    ], ids=["box-rows", "box-rows-commutation", "box-cols-commutation",
            "box-cols", "window-commutation", "window-tableaux",
            "window-cauchy", "lambda-increasing", "lambda-negative",
            "mu-increasing", "eta-negative", "extent-negative"])
    def test_refused_where_it_enters(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"error: {message}\n" in capsys.readouterr().err

    def test_empty_window_is_legal(self):
        assert parse_window("0:-1") == (0, -1)
        assert parse_box("0:0") == (0, 0)

    @pytest.mark.parametrize("argv, message", [
        (["expand", "--family", "edge", "--lambda", "2,1", "--extent", "1"],
         "--extent 1 is less than the 2 parts of --lambda 2,1"),
        (["crystal", "--lambda", "1,1,1", "--extent", "2", "--n", "2"],
         "--extent 2 is less than the 3 parts of --lambda 1,1,1"),
        (["tableaux", "--lambda", "1", "--mu", "1,1"],
         "--mu (1,1) is not contained in --lambda (1)"),
        (["expand", "--family", "schur", "--lambda", "2,0", "--mu", "3"],
         "--mu (3) is not contained in --lambda (2,0)"),
        (["verify", "cauchy", "--mu", "1,1", "--window", "-1:3"],
         "--window -1:3: the window must cover the vacuum of mu and eta: "
         "m <= -max(extent of mu, eta) = -2, got m = -1"),
    ], ids=["extent-expand", "extent-crystal", "mu-parts", "mu-part",
            "window-cauchy-vacuum"])
    def test_refusal_names_its_option(self, capsys, argv, message):
        # each named no option: "extent k < number of parts p", "inner (...)
        # not contained in outer (...)" and "window must cover the vacuum of
        # mu and eta"
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {message}\n"

    def test_degree_above_the_limit_is_refused(self, capsys):
        # ended in a bare OverflowError traceback with exit 1; the row's own
        # degree is named, refused before any of its terms is formed
        code = main(["expand", "--family", "schur", "--lambda", "40000",
                     "--n", "1"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err == ("error: product degree 40000 exceeds 32767: degrees"
                           " above MAX_DEGREE = 32767 are not represented\n")
        assert "Traceback" not in out.err

    @pytest.mark.parametrize("argv, degree", [
        ("--family factorial --lambda 40000 --n 1", 40000),
        ("--family edge --lambda 40000 --n 1 --extent 1 --window 0:0", 40000),
        ("--family edge --lambda 32765 --n 1 --extent 1 --window 0:32766"
         " --trunc 32767", 32769),
        ("--family edge --lambda 32765,32765 --n 2 --extent 2"
         " --window -2:32766 --trunc 32767", 32769),
    ], ids=["factorial", "edge", "edge-labels", "edge-labels-carry"])
    def test_row_degree_is_checked_before_its_terms(self, fresh_python, argv,
                                                    degree):
        # the factorial row multiplied out 2^k terms before any degree
        # check and ran without end; in a new interpreter, a row that did
        # register its 40000 a-variables widens no monomial of this process.
        # An edge row's top term x^k prod_d a_d x_v has degree k + 2D for D
        # deformed diagonals: read as k + D, the row (32765)/() on [0, 32766]
        # (D = 2) stored a term of degree 32769 and, with truncation at
        # 32767, printed a cut polynomial with exit 0; over two such levels
        # two stored degrees carried out of the degree field
        code, out, err = fresh_python(
            "import sys\nfrom edgeschur.cli import main\n"
            f"sys.exit(main(['expand', *{argv.split()!r}]))\n")
        assert code == 2 and out == ""
        assert err == (f"error: product degree {degree} exceeds 32767: degrees"
                       " above MAX_DEGREE = 32767 are not represented\n")


class TestExpand:
    def test_edge_paper_example(self, capsys):
        code, out = run(capsys, "expand", "--family", "edge", "--lambda",
                        "2,0", "--extent", "2", "--n", "2",
                        "--window", "-2:1")
        assert code == 0
        assert out == ("x1^2 + x1*x2 + x2^2 + a(-1)*x1^2*x2 + a0*x1^2*x2"
                       " + a1*x1^2*x2 + a(-1)*x1*x2^2 + a0*x1*x2^2"
                       " + a1*x1*x2^2 + a(-1)*a0*x1^2*x2^2"
                       " + a(-1)*a1*x1^2*x2^2 + a0*a1*x1^2*x2^2")

    def test_schur_has_no_depth_limit_on_n(self, fresh_python):
        # the recursive branching engine raised RecursionError from n = 495
        code, out, err = fresh_python(
            "import sys\nfrom edgeschur.cli import main\n"
            "sys.exit(main(['expand', '--family', 'schur', '--lambda', '1',"
            " '--n', '600']))")
        assert code == 0 and err == ""
        assert out.strip().split(" + ") == [f"x{i}" for i in range(1, 601)]

    def test_empty_schur(self, capsys):
        code, out = run(capsys, "expand", "--family", "schur", "--lambda", "")
        assert code == 0 and out == "1"

    def test_dualschur(self, capsys):
        code, out = run(capsys, "expand", "--family", "dualschur", "--lambda",
                        "1", "--m", "1", "--trunc", "5")
        assert code == 0 and out == "y1 + a0*y1^2 + a0^2*y1^3"

    def test_dualschur_three_vars(self, capsys):
        code, out = run(capsys, "expand", "--family", "dualschur", "--lambda",
                        "1,1", "--m", "3", "--trunc", "3")
        assert code == 0 and out == "y1*y2 + y1*y3 + y2*y3"

    def test_ebar_truncated(self, capsys):
        code, out = run(capsys, "expand", "--family", "ebar", "--lambda",
                        "2,1", "--extent", "2", "--n", "2", "--window",
                        "-2:2", "--trunc", "6")
        assert code == 0
        assert out == "y1^2*y2 + y1*y2^2 + a0*y1^2*y2^2 + a1*y1^2*y2^2"

    @pytest.mark.parametrize("family", ["edge", "dualfact"])
    def test_window_need_not_cover_vacuum(self, capsys, family):
        code, out = run(capsys, "expand", "--family", family, "--lambda",
                        "3,1", "--n", "2", "--window", "-1:4")
        shape = SkewShape.of((3, 1), (), extent=2)
        p = EdgeSchurParams(2, (-1, 4), 2)
        want = (edge_schur(shape, p) if family == "edge"
                else variation("DualFact", shape, p))
        assert code == 0 and out == canonical_string(want)

    @pytest.mark.parametrize("sign", [[], ["--sign", "-1"]])
    def test_factorial(self, capsys, sign):
        code, out = run(capsys, "expand", "--family", "factorial", "--lambda",
                        "2,1", "--n", "3", *sign)
        want = factorial_schur(SkewShape.of((2, 1), (), extent=2), 3,
                               sign=-1 if sign else 1)
        assert code == 0 and out == canonical_string(want)

    def test_dualschur_alpha(self, capsys):
        code, out = run(capsys, "expand", "--family", "dualschur", "--lambda",
                        "2,1", "--m", "2", "--trunc", "5", "--alpha")
        want = dual_schur_alpha(SkewShape.of((2, 1), (), extent=2), 2, 5)
        assert code == 0 and out == canonical_string(want)

    def test_json_value(self, capsys):
        code, out = run(capsys, "expand", "--family", "edge", "--lambda",
                        "2,1", "--extent", "2", "--n", "2", "--window", "-2:2",
                        "--format", "json")
        want = edge_schur(SkewShape.of((2, 1), (), extent=2),
                          EdgeSchurParams(2, (-2, 2), 2))
        assert code == 0
        assert json.loads(out) == {"family": "edge",
                                   "value": canonical_string(want)}

    @pytest.mark.parametrize("flag,value", [("--n", "-1"), ("--m", "0"),
                                            ("--trunc", "-1")])
    def test_rejects_nonpositive_count(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "expand", "--family", "edge", "--lambda", "1",
                flag, value)
        assert exc.value.code == 2

    def test_dualschur_needs_trunc(self, capsys):
        code, _ = run(capsys, "expand", "--family", "dualschur",
                      "--lambda", "1")
        assert code == 2

    @pytest.mark.parametrize("family, message", [
        ("dualschur", "dualschur needs --trunc"),
        ("scripte", "ScriptE needs a truncation")])
    def test_series_family_without_trunc_is_a_usage_error(self, capsys,
                                                          family, message):
        code = main(["expand", "--family", family, "--lambda", "1"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("family, option", [
        ("edge", ["--alpha"]), ("factorial", ["--alpha"]),
        ("dualschur", ["--sign", "-1"]), ("edge", ["--sign", "1"]),
        ("dualschur", ["--schur-expand", "2"]),
        ("scripte", ["--schur-expand", "2"]),
        ("schur", ["--window", "-1:1"]), ("dualschur", ["--window", "-1:1"]),
        ("factorial", ["--trunc", "0"]), ("edge", ["--m", "3"]),
        ("dualschur", ["--n", "5"])])
    def test_refuses_an_option_of_another_family(self, capsys, family,
                                                 option):
        # each exited 0 with the option ignored: edge --alpha printed a_d,
        # dualschur --schur-expand 2 one s(0,0) coefficient in y,
        # schur --window -1:1 the plain Schur polynomial, and edge --m 3
        # and dualschur --n 5 the value they give without the option
        windowed = "edge|ebar|dualfact|scripte|hatscripte"
        owners = {"--alpha": "dualschur", "--sign": "factorial",
                  "--window": windowed, "--trunc": windowed + "|dualschur",
                  "--schur-expand": "schur|factorial|edge",
                  "--n": "schur|factorial|" + windowed, "--m": "dualschur"}
        code = main(["expand", "--family", family, "--lambda", "1", "--n",
                     "2", "--trunc", "3", *option])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {option[0]} applies only to --family {owners[option[0]]},"
            f" not --family {family}\n")

    def test_schur_expand_option(self, capsys):
        code, out = run(capsys, "expand", "--family", "edge", "--lambda", "1",
                        "--extent", "1", "--n", "2", "--window", "-1:1",
                        "--schur-expand", "2")
        assert code == 0
        assert "s(1,1): a(-1) + a0 + a1" in out

    @pytest.mark.parametrize("argv", [
        ["--lambda", "1,1", "--extent", "2", "--n", "1"],
        ["--lambda", "2,1", "--n", "2", "--trunc", "2"]])
    def test_schur_expand_of_zero(self, capsys, argv):
        # no coefficient and no remainder: the text form still prints 0
        argv = ["expand", "--family", "edge", *argv]
        assert run(capsys, *argv) == (0, "0")
        expand = [*argv, "--schur-expand", "3"]
        assert run(capsys, *expand) == (0, "0")
        code, out = run(capsys, *expand, "--format", "json")
        assert (code, json.loads(out)) == (0, {"coefficients": {},
                                               "remainder": "0"})


def broken_invariant(args):
    raise AssertionError("frontier lost a state")


class TestVerify:
    def test_yb_pass(self, capsys):
        code, _ = run(capsys, "verify", "yb", "--kind", "RLL_L")
        assert code == 0

    def test_yb_perturbed_detected(self, capsys):
        code, _ = run(capsys, "verify", "yb", "--kind", "RLL_L",
                      "--perturb", "a1")
        assert code == 0  # suite passes because the perturbation failed

    def test_freefermion(self, capsys):
        code, out = run(capsys, "verify", "freefermion")
        assert code == 0 and json.loads(out) == \
            {"L": True, "Lstar": True, "Ell": True}

    def test_cauchy(self, capsys):
        code, _ = run(capsys, "verify", "cauchy", "--n", "1", "--m", "1",
                      "--window", "-2:3", "--trunc", "4")
        assert code == 0

    def test_cauchy_window_too_narrow_for_trunc(self, capsys):
        # exact only below degree 2(M0+1) - (eta1 + n) - mu1 = 2*5 - 5 = 5
        argv = ["verify", "cauchy", "--mu", "2", "--eta", "2", "--n", "1",
                "--m", "1", "--trunc", "6", "--window"]
        assert main(argv + ["-2:4"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: --window -2:4 is "
                                                    "too narrow for --trunc 6")
        assert out.err.endswith("so it needs M0 >= 5\n")
        code, out = run(capsys, *argv, "-2:5")
        assert code == 0 and json.loads(out)["ok"]

    def test_cauchy_failure_inside_the_window_is_a_failure(self, capsys,
                                                           monkeypatch):
        real = lattice.cauchy_check

        def broken(*args):
            return dict(real(*args), product=False, ok=False)

        monkeypatch.setattr(lattice, "cauchy_check", broken)
        code, out = run(capsys, "verify", "cauchy", "--n", "1", "--m", "1",
                        "--window", "-2:3", "--trunc", "4")
        assert code == 1 and json.loads(out)["product"] is False

    def test_cauchy_witness(self, capsys, monkeypatch):
        real = lattice.cauchy_check
        monkeypatch.setattr(lattice, "cauchy_check", lambda *args: dict(
            real(*args), sum_a=False, ok=False, diff_sum_a="a0*y1"))
        code, out = run(capsys, "verify", "cauchy", "--n", "1", "--m", "1",
                        "--window", "-2:3", "--trunc", "4")
        assert code == 1
        assert json.loads(out) == {"product": True, "sum_a": False,
                                   "sum_b": True, "series": True, "ok": False,
                                   "diff_sum_a": "a0*y1"}

    def test_commutation_trunc_zero(self, capsys):
        # --trunc 0 is a cutoff of its own, not a request for the default
        code, out = run(capsys, "verify", "commutation", "--box", "1:1",
                        "--window", "-1:2", "--trunc", "0")
        assert code == 0 and out == "commutation relation holds"

    @pytest.mark.parametrize("box, window, trunc, need", [
        ("2:2", "-2:3", "6", 5), ("1:1", "0:0", "2", 2)])
    def test_commutation_window_too_narrow_for_trunc(self, capsys, box,
                                                     window, trunc, need):
        # exact only while 2M - 2*box_cols >= T - 1; both fail below it
        code = main(["verify", "commutation", "--box", box, "--window",
                     window, "--trunc", trunc])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err == (f"error: --window {window} is too narrow for "
                           f"--trunc {trunc}: the check is exact only when "
                           f"2M - 2*box_cols >= T - 1, so it needs "
                           f"M >= {need}\n")

    def test_commutation_failure_inside_the_window_is_a_failure(
            self, capsys, monkeypatch):
        # readmitting the escape state breaks the relation on a wide window
        real = lattice.commutation_check
        monkeypatch.setattr(lattice, "commutation_check",
                            lambda box, window, T:
                            real(box, window, T, flip_t_right=True))
        code, out = run(capsys, "verify", "commutation", "--box", "1:1",
                        "--window", "-1:4", "--trunc", "6")
        assert code == 1
        assert out == ("failed at lam=(0), mu=(1): the lowest-degree "
                       "difference is at x1^5*y1, where (1 - xy) T* t has 0 "
                       "and t T* has 1")

    def test_symmetry_small(self, capsys):
        code, out = run(capsys, "verify", "symmetry", "--box", "2:2",
                        "--n", "3", "--window", "-2:2")
        assert code == 0 and out == "edge Schur symmetric on the 2x2 box"

    def test_symmetry_witness(self, capsys, monkeypatch):
        real = cli.edge_schur
        # 3*x2 more than E: the first shape, (1) in the 1x1 box, fails first
        monkeypatch.setattr(cli, "edge_schur",
                            lambda shape, p: real(shape, p) + parse("3*x2"))
        code, out = run(capsys, "verify", "symmetry", "--box", "1:1",
                        "--n", "2")
        assert code == 1
        assert out == ("E^(1) not symmetric under x1 <-> x2: the lowest-degree "
                       "difference is at x1, where E has 1 and its swap 4")

    def test_yb_witness(self, capsys, monkeypatch):
        real = lattice.yang_baxter_check
        # the unperturbed check answers as if a1 were perturbed
        monkeypatch.setattr(lattice, "yang_baxter_check",
                            lambda kind, perturb=None, perturb_mode="one":
                            real(kind, "a1", perturb_mode))
        code, out = run(capsys, "verify", "yb", "--kind", "RLL_L")
        assert code == 1
        assert out == ("RLL_L: failed unexpectedly; witness boundary "
                       "(0, 0, 1) -> (1, 0, 0): x1 + a0*x1*x2 != x1")

    def test_equivalence_names_route(self, capsys, monkeypatch):
        real = lattice.edge_schur_lattice

        def wrong_tstar(shape, p, form="T"):
            z = real(shape, p, form)
            return z + MultiPoly.one() if form == "Tstar" else z

        monkeypatch.setattr(lattice, "edge_schur_lattice", wrong_tstar)
        code, out = run(capsys, "verify", "equivalence", "--seed", "1",
                        "--count", "1")
        assert code == 1
        assert out.endswith("Tstar disagrees with the closed form")

    @pytest.mark.parametrize("route, wrong, witness", [
        ("T", lambda z: z * 2, "at 1, where T has 2 and the closed form 1"),
        ("brute", lambda z: z - parse("a1*x1"),
         "at a1*x1, where brute has 0 and the closed form 1"),
    ], ids=["T-doubled", "brute-missing-a-term"])
    def test_equivalence_witness(self, capsys, monkeypatch, route, wrong,
                                 witness):
        # seed 1, case 0 is E^{0/0} for n = 1 on [1, 1]: 1 + a1*x1
        if route == "brute":
            real_brute = cli.edge_schur_brute
            monkeypatch.setattr(cli, "edge_schur_brute",
                                lambda shape, p: wrong(real_brute(shape, p)))
        else:
            real = lattice.edge_schur_lattice
            monkeypatch.setattr(
                lattice, "edge_schur_lattice", lambda shape, p, form="T":
                wrong(real(shape, p, form)) if form == route
                else real(shape, p, form))
        code, out = run(capsys, "verify", "equivalence", "--seed", "1",
                        "--count", "1")
        assert code == 1
        assert out == (f"case 0: (0)/(0) n=1 window=(1, 1): the lowest-degree "
                       f"difference is {witness}, so {route} disagrees with "
                       f"the closed form")

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "nonsense")
        assert exc.value.code == 2

    def test_all(self, capsys):
        code, out = run(capsys, "verify", "all")
        lines = out.splitlines()
        assert code == 0 and lines[-2:] == ["---", "all checks passed"]
        assert [line[:4] for line in lines[:-2]] == ["ok  "] * 12

    @pytest.mark.parametrize("suite, report", [
        (lambda args: (False, '{"L": false}'), '{"L": false}'),
        (broken_invariant, "error: frontier lost a state")],
        ids=["failed", "raised"])
    def test_all_reports_a_failed_check(self, capsys, monkeypatch, suite,
                                        report):
        monkeypatch.setattr(cli, "_verify_freefermion", suite)
        code, out = run(capsys, "verify", "all", "--count", "1")
        lines = out.splitlines()
        assert code == 1 and lines[-2:] == ["---", "1 checks FAILED"]
        assert lines[5].startswith("FAIL verify freefermion (")
        assert lines[6] == report
        assert [line[:4] for line in lines[:5] + lines[7:-2]] == ["ok  "] * 11


class TestCrystalAndUncrowd:
    def test_crystal_summary(self, capsys, tmp_path):
        dot = tmp_path / "g.dot"
        code, out = run(capsys, "crystal", "--lambda", "1", "--n", "2",
                        "--window", "0:0", "--dot", str(dot))
        assert code == 0
        data = json.loads(out[:out.rindex("}") + 1])
        assert data["vertices"] == 3
        assert dot.exists()
        assert "digraph" in dot.read_text()

    def test_subcommands_agree_off_the_vacuum(self, capsys):
        # [0, 1] misses the vacuum of extent 2 and ends below lam_1 - 1 = 2:
        # E at a = x = 1 counts the tableaux, and so do the crystal's vertices
        argv = ["--lambda", "3,1", "--n", "3", "--window", "0:1"]
        code, out = run(capsys, "expand", "--family", "edge", *argv)
        assert code == 0
        total = sum(parse(out).terms.values())
        code, out = run(capsys, "tableaux", *argv, "--edges", "--limit", "0")
        assert code == 0 and out == f"{total} edge labeled tableaux"
        code, out = run(capsys, "crystal", *argv)
        assert code == 0 and json.loads(out)["vertices"] == total

    def test_uncrowd_roundtrip(self, capsys, tmp_path):
        blob = {
            "shape": {"outer": {"parts": [2], "extent": 1},
                      "inner": {"parts": [], "extent": 1}},
            "extent": 1, "window": [-1, 2],
            "entries": [[1, 1, 1], [1, 2, 1]],
            "edges": [[2, 1, [2]]],
        }
        f = tmp_path / "t.json"
        f.write_text(json.dumps(blob))
        code, out = run(capsys, "uncrowd", "--in", str(f), "--roundtrip")
        assert code == 0
        assert "round trip ok" in out

    def test_uncrowd_roundtrip_compares_tableaux(self, capsys, monkeypatch,
                                                 tmp_path):
        blob = {
            "shape": {"outer": {"parts": [2], "extent": 1},
                      "inner": {"parts": [], "extent": 1}},
            "extent": 1, "window": [-1, 2],
            "entries": [[1, 1, 1], [1, 2, 1]],
            "edges": [[2, 1, [2]]],
        }
        f = tmp_path / "t.json"
        f.write_text(json.dumps(blob))
        real = uncrowding.crowd

        def shifted(pair, lam, window, extent):
            # the same tableau on a wider window: equal but for its window
            t = real(pair, lam, window, extent)
            return EdgeLabeledTableau(t.shape, t.extent, (-1, 3), t.entries,
                                      t.edge_sets)
        monkeypatch.setattr(uncrowding, "crowd", shifted)
        code = main(["uncrowd", "--in", str(f), "--roundtrip"])
        assert code == 1
        assert capsys.readouterr().err == ("round trip FAILED: crowd gave "
                                           "another tableau\n")

    @pytest.mark.parametrize("option", [
        ["--window", "-1:1"], ["--window=-1:1"], ["--format", "text"],
        ["--format", "json"], ["--limit", "0"]],
        ids=["window", "window-fused", "format-text", "format-json", "limit"])
    def test_tableaux_refuses_edge_options_without_edges(self, capsys,
                                                         option):
        # each was accepted and read by nothing: the SSYT count printed
        code = main(["tableaux", "--lambda", "2,1", "--n", "3", *option])
        assert code == 2
        name = option[0].split("=")[0]
        assert capsys.readouterr().err == (f"error: {name} applies only to "
                                           f"--edges\n")

    def test_tableaux_defaults(self, capsys):
        code, out = run(capsys, "tableaux", "--lambda", "2,1", "--n", "3")
        assert code == 0 and out == "8 semistandard tableaux"
        # --edges lists at most 20 tableaux unless --limit says otherwise
        code, out = run(capsys, "tableaux", "--lambda", "2,1", "--n", "3",
                        "--edges")
        assert code == 0 and out.count("weight:") == 20
        code, out = run(capsys, "tableaux", "--lambda", "2,1", "--n", "3",
                        "--edges", "--format", "json", "--limit", "3")
        assert code == 0 and len(json.loads(out[out.index("["):])) == 3

    def test_uncrowd_malformed_json(self, capsys, tmp_path):
        f = tmp_path / "t.json"
        f.write_text(json.dumps({"extent": 1, "window": [-1, 2],
                                 "entries": [], "edges": []}))
        code, _ = run(capsys, "uncrowd", "--in", str(f))
        assert code == 2

    def test_uncrowd_non_int_json(self, capsys, tmp_path):
        blob = {
            "shape": {"outer": {"parts": [2], "extent": 1},
                      "inner": {"parts": [], "extent": 1}},
            "extent": 1, "window": [-1, 2],
            "entries": [[1, 1, True], [1, 2, 1]],
            "edges": [[2, 1, [2]]],
        }
        f = tmp_path / "t.json"
        f.write_text(json.dumps(blob))
        code, out = run(capsys, "uncrowd", "--in", str(f), "--roundtrip")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("labels, message", [
        ([2, 2], "error: edge set at (2, 1) not strictly sorted"),
        ([], "error: empty edge set at (2, 1)"),
    ], ids=["repeated", "empty"])
    def test_uncrowd_malformed_edge_set(self, capsys, tmp_path, labels,
                                        message):
        # read as {2} and as no edge, these would uncrowd another tableau
        blob = {
            "shape": {"outer": {"parts": [2], "extent": 1},
                      "inner": {"parts": [], "extent": 1}},
            "extent": 1, "window": [-1, 2],
            "entries": [[1, 1, 1], [1, 2, 1]],
            "edges": [[2, 1, labels]],
        }
        f = tmp_path / "t.json"
        f.write_text(json.dumps(blob))
        code = main(["uncrowd", "--in", str(f), "--roundtrip"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err == message + "\n"

    @pytest.mark.parametrize("field, rows, message", [
        ("entries", [[1, 1, 1], [1, 1, 1], [1, 2, 1]],
         "error: repeated entry position (1, 1)"),
        ("edges", [[2, 1, [2]], [2, 1, [3]]],
         "error: repeated edge position (2, 1)"),
    ], ids=["entry", "edge"])
    def test_uncrowd_repeated_position(self, capsys, tmp_path, field, rows,
                                       message):
        # read into a dict, the last row at a position would win silently
        blob = {
            "shape": {"outer": {"parts": [2], "extent": 1},
                      "inner": {"parts": [], "extent": 1}},
            "extent": 1, "window": [-1, 3],
            "entries": [[1, 1, 1], [1, 2, 1]],
            "edges": [[2, 1, [2]]],
        }
        blob[field] = rows
        f = tmp_path / "t.json"
        f.write_text(json.dumps(blob))
        code = main(["uncrowd", "--in", str(f), "--roundtrip"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err == message + "\n"

    @pytest.mark.parametrize("depth, message", [
        (900, "edge row number 1 is not [i, j, value]"),
        (5000, "--in {}: JSON nested too deeply to read"),
    ], ids=["checked", "decoded"])
    def test_uncrowd_deep_nesting(self, capsys, tmp_path, depth, message):
        # both ended in a bare RecursionError traceback with exit 1: 900
        # deep in the int check, 5,000 deep in json.load itself
        blob = {"shape": {"outer": {"parts": [2], "extent": 1},
                          "inner": {"parts": [], "extent": 1}},
                "extent": 1, "window": [-1, 2],
                "entries": [[1, 1, 1], [1, 2, 1]]}
        f = tmp_path / "t.json"
        f.write_text(json.dumps(blob)[:-1] + ', "edges": '
                     + "[" * depth + "]" * depth + "}")
        code = main(["uncrowd", "--in", str(f)])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err == "error: " + message.format(f) + "\n"

    def test_tableaux_count(self, capsys):
        code, out = run(capsys, "tableaux", "--lambda", "2,0", "--extent",
                        "2", "--n", "2", "--window", "-2:1", "--edges",
                        "--limit", "0")
        assert code == 0
        assert out.startswith("12 edge labeled tableaux")

    def test_tableaux_skew_edges(self, capsys):
        # the inner cells render as "."
        code, out = run(capsys, "tableaux", "--lambda", "2,1", "--mu", "1",
                        "--n", "2", "--edges")
        tabs = list(enumerate_elt(SkewShape.of((2, 1), (1,), extent=2), 2,
                                  (-2, 2), 2))
        listed = "".join(f"{t.render()}\nweight: "
                         f"{canonical_string(t.weight())}\n\n"
                         for t in tabs[:20])
        assert code == 0
        assert out == f"{len(tabs)} edge labeled tableaux\n{listed}".strip()
        assert all("." in t.render() for t in tabs[:20])

    def test_tableaux_json_limit(self, capsys):
        code, out = run(capsys, "tableaux", "--lambda", "1", "--n", "2",
                        "--edges", "--format", "json", "--limit", "1")
        head, body = out.split("\n", 1)
        assert code == 0 and head == "16 edge labeled tableaux"
        assert len(json.loads(body)) == 1


class TestExitCodes:
    """A failed check exits 1 with one line on stderr; usage errors exit 2."""

    @pytest.mark.parametrize("target, exc, code, message", [
        ("schur_expand", NotSymmetric("peeling revisited (2); f is not "
                                      "symmetric"), 1,
         "error: peeling revisited (2); f is not symmetric"),
        ("edge_schur", AssertionError("frontier\nlost a state"), 1,
         "error: frontier lost a state"),
        ("edge_schur", AssertionError(), 1, "error: AssertionError"),
        ("edge_schur", ValueError("bad input"), 2, "error: bad input"),
    ], ids=["not-symmetric", "assertion", "bare-assertion", "usage"])
    def test_failure_classes(self, capsys, monkeypatch, target, exc, code,
                             message):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli, target, fail)
        got = main(["expand", "--family", "edge", "--lambda", "1",
                    "--schur-expand", "2"])
        err = capsys.readouterr().err
        assert got == code
        assert err == message + "\n"

    def test_reversed_window(self, capsys):
        # the window covers the vacuum but ends before it starts
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--family", "edge", "--lambda", "1", "--n", "2",
                  "--window", "-1:-3"])
        assert exc.value.code == 2
        assert ("argument --window: must be m:M with M >= m - 1, got '-1:-3'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv, message", [
        (["verify", "equivalence", "--count", "-3"],
         "argument --count: must be >= 1, got -3"),
        (["verify", "equivalence", "--count", "0"],
         "argument --count: must be >= 1, got 0"),
        (["tableaux", "--lambda", "2", "--edges", "--limit", "-1"],
         "argument --limit: must be >= 0, got -1"),
        (["expand", "--family", "edge", "--lambda", "1", "--n", "2",
          "--schur-expand", "-1"],
         "argument --schur-expand: must be >= 0, got -1"),
        (["verify", "equivalence", "--count", "x"],
         "argument --count: must be an integer, got 'x'"),
        (["expand", "--family", "edge", "--lambda", "1", "--n", "2",
          "--schur-expand", "x"],
         "argument --schur-expand: must be an integer, got 'x'"),
        (["verify", "all", "--count", "0"],
         "argument --count: must be >= 1, got 0"),
        (["verify", "equivalence", "--seed", "x"],
         "argument --seed: must be an integer, got 'x'"),
    ], ids=["negative-count", "zero-count", "negative-limit",
            "negative-schur-expand", "non-integer-count",
            "non-integer-schur-expand", "zero-count-all", "non-integer-seed"])
    def test_count_options_refuse_negatives(self, capsys, argv, message):
        # unchecked, --count -3 reports "-3 random instances agree",
        # --limit -1 silently drops the last tableau and --schur-expand -1
        # prints the whole polynomial as the remainder
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_schur_expand_zero_is_legal(self, capsys):
        code, out = run(capsys, "expand", "--family", "edge", "--lambda", "1",
                        "--n", "2", "--schur-expand", "0")
        assert code == 0
        assert out.startswith("remainder: ")

    @pytest.mark.parametrize("argv", [
        ["crystal", "--lambda", "1", "--mu", "1", "--n", "2"],
        ["crystal", "--lambda", "1", "--m", "2"],
        ["crystal", "--lambda", "1", "--trunc", "3"],
        ["tableaux", "--lambda", "3", "--m", "2"],
        ["tableaux", "--lambda", "1", "--trunc", "3"],
        ["verify", "yb", "--lambda", "5,5"],
        ["verify", "yb", "--extent", "2"],
        ["verify", "yb", "--box", "2:2"],
        ["verify", "freefermion", "--n", "3"],
        ["verify", "symmetry", "--trunc", "1"],
        ["verify", "commutation", "--n", "5"],
        ["verify", "equivalence", "--window", "-2:1"],
    ], ids=["crystal-mu", "crystal-m", "crystal-trunc", "tableaux-m",
            "tableaux-trunc", "verify-lambda", "verify-extent", "yb-box",
            "freefermion-n", "symmetry-trunc", "commutation-n",
            "equivalence-window"])
    def test_refuses_options_the_subcommand_ignores(self, capsys, argv):
        # each was accepted and silently ignored (crystal --mu 1 built the
        # straight shape's crystal, verify symmetry --trunc 1 ran untruncated),
        # or read by prefix as another option
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, typed", [
        (["verify", "yb", "--box", "2:2"], "--box 2:2"),
        (["verify", "yb", "--window", "-2:1"], "--window -2:1"),
        (["verify", "yb", "--window=-2:1"], "--window=-2:1")])
    def test_unrecognized_option_is_named_as_typed(self, capsys, argv, typed):
        # the top-level usage and `--box=2:2`, the fused token, were named
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage: edgeschur verify yb ")
        assert err.endswith(f"edgeschur verify yb: error: unrecognized "
                            f"arguments: {typed}\n")

    def test_roundtrip_malformed_pair(self, capsys, monkeypatch, tmp_path):
        blob = {
            "shape": {"outer": {"parts": [2], "extent": 1},
                      "inner": {"parts": [], "extent": 1}},
            "extent": 1, "window": [-1, 2],
            "entries": [[1, 1, 1], [1, 2, 1]],
            "edges": [[2, 1, [2]]],
        }
        f = tmp_path / "t.json"
        f.write_text(json.dumps(blob))

        def refuse(*args, **kwargs):
            raise uncrowding.MalformedPair("0 reconstructions; pair is not "
                                           "in the image")
        monkeypatch.setattr(uncrowding, "crowd", refuse)
        code = main(["uncrowd", "--in", str(f), "--roundtrip"])
        out = capsys.readouterr()
        assert code == 1
        assert json.loads(out.out)["P"] == [[1, 1], [2]]
        assert out.err == ("round trip FAILED: 0 reconstructions; pair is "
                           "not in the image\n")


def call(capsys, argv):
    """Exit code, stdout and stderr of one main call, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParserOnce:
    """main builds its parser once per process and dispatches by name."""

    def test_usage_error_leaves_no_state(self, capsys):
        lines = [["expand", "--family", "edge", "--lambda", "2,1", "--n", "2",
                  "--schur-expand", "-1"],
                 ["tableaux", "--lambda", "1", "--bogus"],
                 ["expand", "--family", "edge", "--lambda", "2,1", "--n", "2",
                  "--window", "-2:2", "--schur-expand", "3"]]
        alone = []
        for argv in lines:
            cli.build_parser.cache_clear()
            alone.append(call(capsys, argv))
        assert [code for code, _, _ in alone] == [2, 2, 0]
        cli.build_parser.cache_clear()
        assert [call(capsys, argv) for argv in lines] == alone

    def test_dispatch_reads_the_patched_command(self, capsys, monkeypatch):
        assert run(capsys, "tableaux", "--lambda", "1")[0] == 0
        seen = []

        def patched(args):
            seen.append(args.lam)
            return 7
        monkeypatch.setattr(cli, "cmd_tableaux", patched)
        assert main(["tableaux", "--lambda", "2,1"]) == 7
        assert seen == ["2,1"]

    def test_parser_built_once(self, capsys):
        cli.build_parser.cache_clear()
        for lam in ("1", "2", "1,1", "2,1"):
            assert run(capsys, "expand", "--family", "schur",
                       "--lambda", lam)[0] == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)


def readme_commands() -> list[str]:
    """Every `edgeschur ...` line of README.md, continuations joined."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return [line.split(" #")[0].strip().removeprefix("edgeschur ")
            for line in text.replace("\\\n", " ").splitlines()
            if line.strip().startswith("edgeschur ")]


@pytest.mark.parametrize("line", readme_commands())
def test_readme_commands_parse(line):
    # parse only: a line naming an option its subcommand does not read exits 2
    build_parser().parse_args(_fuse_window(shlex.split(line)))
