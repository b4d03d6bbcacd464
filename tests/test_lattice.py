import hashlib
import itertools
import random

import pytest

from edgeschur import lattice
from edgeschur.lattice import (GridRow, GridSpec, VERTEX_ROLES, VertexModel,
                               cauchy_check, commutation_check,
                               deformed_diagonals, edge_schur_lattice,
                               factorial_schur_lattice, free_fermion_check,
                               maya_bits, model_Ell, model_L, model_Lstar,
                               partition_function, transfer_row,
                               yang_baxter_check)
from edgeschur.poly import MultiPoly, av, series_inverse, xv, yv
from edgeschur.schur import (EdgeSchurParams, dual_schur, edge_schur,
                             edge_schur_brute, factorial_schur)
from edgeschur.shapes import Partition, SkewShape, WindowError, partitions_in_box

from conftest import total_degree


def V(v):
    return MultiPoly.var(v)


ONE = MultiPoly.one()


def model_EllSubst(T: int) -> VertexModel:
    """Substitution model: moving steps weigh y/(1 - a y), as series mod T."""
    def step(x, a):
        return x * series_inverse(MultiPoly.one(T) - a * x, T)
    return VertexModel("EllSubst", {
        "a1": lambda x, a: ONE,
        "b1": lambda x, a: ONE,
        "b2": step,
        "c1": lambda x, a: ONE,
        "c2": step,
    }, left=0, right=0)


def partition_function_brute(g: GridSpec) -> MultiPoly:
    """State enumeration over all internal edge assignments (the oracle)."""
    ncols = g.window[1] - g.window[0] + 1
    tables = [[row.model.table(row.param, g.col_param(d)) for d in g.columns()]
              for row in g.rows]
    total = MultiPoly.zero()

    def rec_row(r: int, vbits: tuple[int, ...], acc: MultiPoly):
        nonlocal total
        if r == len(g.rows):
            if vbits == tuple(g.top):
                total = total + acc
            return
        left, right = g.rows[r].bounds()

        def rec_col(c: int, h: int, tops: tuple[int, ...], wgt: MultiPoly):
            if c == ncols:
                if h == right:
                    rec_row(r + 1, tops, wgt)
                return
            for e in (0, 1):
                for n_ in (0, 1):
                    wv = tables[r][c].get((h, vbits[c], e, n_))
                    if wv is not None:
                        rec_col(c + 1, e, tops + (n_,), wgt * wv)

        rec_col(0, left, (), acc)

    rec_row(0, tuple(g.bottom), ONE)
    return total

# both sides of commutation_check((1, 1), (-1, 2), 4, flip_t_right=True) at
# its first failure, lam = (0), mu = (1)
FLIPPED_LHS = (
    "x1^2 + a1*x1 + a2*x1 + a1*a2 + a(-1)*x1^2*y1 + a0*x1^2*y1 + a1*x1^2*y1"
    " + a2*x1^2*y1 + a(-1)*a1*x1*y1 + a(-1)*a2*x1*y1 + a0*a1*x1*y1"
    " + a0*a2*x1*y1 + a1^2*x1*y1 + 2*a1*a2*x1*y1 + a2^2*x1*y1"
    " + a(-1)*a1*a2*y1 + a0*a1*a2*y1 + a1^2*a2*y1 + a1*a2^2*y1")
FLIPPED_RHS = (
    "x1^2 + a1*x1 + a2*x1 + a1*a2 + x1^3*y1 + a(-1)*x1^2*y1 + a0*x1^2*y1"
    " + 2*a1*x1^2*y1 + 2*a2*x1^2*y1 + a(-1)*a1*x1*y1 + a(-1)*a2*x1*y1"
    " + a0*a1*x1*y1 + a0*a2*x1*y1 + a1^2*x1*y1 + 3*a1*a2*x1*y1 + a2^2*x1*y1"
    " + a(-1)*a1*a2*y1 + a0*a1*a2*y1 + a1^2*a2*y1 + a1*a2^2*y1")

# the roles each Yang-Baxter kind can perturb, and the SHA-256 of the sorted
# ((kind, role, mode), (ok, witness)) items of every perturbed check
YB_ROLES = {"RLL_L": ["a1", "b1", "b2", "c1", "c2"],
            "RLL_Lstar": ["a1", "a2", "b2", "c1", "c2"],
            "rll_Ell": ["a1", "a2", "b2", "c1", "c2"],
            "frakRLell": ["a1", "a2", "b2", "c1", "c2"]}
YB_WITNESS_SHA256 = \
    "a6b62036729df9ec0150b7e162347f7a6f670a1ef3f5109f3fb88006090b31cc"


@pytest.fixture(scope="module")
def perturbed_yb():
    return {(kind, role, mode): yang_baxter_check(kind, perturb=role,
                                                  perturb_mode=mode)
            for kind, roles in YB_ROLES.items() for role in roles
            for mode in ("one", "double")}


def witness_digest(results: dict) -> str:
    return hashlib.sha256(repr(sorted(results.items())).encode()).hexdigest()


class TestConservation:
    def test_nonconserving_is_zero(self):
        # a table holds only nonzero weights, all of conserving configurations
        x, a = V(xv(1)), V(av(0))
        for model in (model_L(), model_Lstar(), model_Ell(), model_Ell(-1),
                      model_EllSubst(4)):
            table = model.table(x, a)
            assert len(table) == 5
            for (w, s, e, n), wt in table.items():
                assert w + s == e + n and not wt.is_zero()


class TestTransferRows:
    def test_single_L_row(self):
        tr = transfer_row(model_L(), Partition.of((4, 2), extent=4),
                          Partition.of((4, 4, 1), extent=4), V(xv(1)), (-4, 4))
        x = V(xv(1))
        assert tr == x ** 3 * (ONE + V(av(-1)) * x) * (ONE + V(av(4)) * x)

    def test_empty_row_all_deformed(self):
        e0 = Partition.of((), extent=0)
        tr = transfer_row(model_L(), e0, e0, V(xv(1)), (0, 2))
        x = V(xv(1))
        assert tr == (ONE + V(av(0)) * x) * (ONE + V(av(1)) * x) * (ONE + V(av(2)) * x)

    def test_not_a_strip_is_zero(self):
        tr = transfer_row(model_L(), Partition.of((), extent=2),
                          Partition.of((1, 1)), V(xv(1)), (-2, 2))
        assert tr.is_zero()

    def test_lstar_row_is_edge_schur(self):
        lam = Partition.of((2, 1), extent=2)
        mu = Partition.of((1,), extent=2)
        tr = transfer_row(model_Lstar(), lam, mu, V(xv(1)), (-2, 2))
        shape = SkewShape(lam, mu)
        assert tr == edge_schur(shape, EdgeSchurParams(1, (-2, 2), 2))

    def test_ell_row_factorial_single_var(self):
        # bottom = empty + delta_0, top = (2) + delta_1 on columns [1, 3]
        g = GridSpec((GridRow(model_Ell(), V(xv(1))),), (1, 3),
                     (0, 0, 0), (0, 0, 1))
        x = V(xv(1))
        assert partition_function(g) == (x - V(av(1))) * (x - V(av(2)))

    def test_ellsubst_row_is_dual_schur(self):
        # single-variable dual Schur as a substitution-model transfer row
        lam, nu = Partition.of((2, 1)), Partition.of((1,), extent=2)
        tr = transfer_row(model_EllSubst(6), nu, lam, V(yv(1)), (-2, 2))
        want = dual_schur(SkewShape(lam, nu), 1, 6)
        def to_y(p):
            from edgeschur.poly import map_vars
            return map_vars(p, lambda v: V(yv(v[1])) if v[0] == 0 else V(v))
        assert to_y(tr).truncate(6) == want

    def test_ellsubst_row_keeps_series_cutoff(self):
        # the grid sets no cutoff, so the step series keep their own
        lam, nu = Partition.of((2, 1)), Partition.of((1,), extent=2)
        tr = transfer_row(model_EllSubst(6), nu, lam, V(yv(1)), (-2, 2))
        assert tr.trunc == 6
        assert total_degree(tr) <= 6


class TestPartitionFunction:
    def test_zero_rows(self):
        g = GridSpec((), (0, 2), (1, 0, 0), (1, 0, 0))
        assert partition_function(g) == ONE

    def test_mismatched_boundary_zero(self):
        g = GridSpec((GridRow(model_L(), V(xv(1))),), (0, 1), (0, 0), (1, 1))
        assert partition_function(g).is_zero()

    def test_dp_equals_brute_random(self):
        rng = random.Random(23)
        models = [model_L(), model_Lstar(), model_Ell()]
        for _ in range(12):
            ncols = rng.randint(2, 4)
            nrows = rng.randint(1, 3)
            # keep every grid at no more than 18 internal edges
            while ncols * nrows + (ncols - 1) * nrows > 18:
                ncols -= 1
            model = rng.choice(models)
            rows = tuple(GridRow(model, V(xv(i + 1)),
                                 left=rng.randint(0, 1),
                                 right=rng.randint(0, 1))
                         for i in range(nrows))
            window = (rng.randint(-2, 0), 0)
            window = (window[0], window[0] + ncols - 1)
            bottom = tuple(rng.randint(0, 1) for _ in range(ncols))
            top = tuple(rng.randint(0, 1) for _ in range(ncols))
            g = GridSpec(rows, window, bottom, top)
            assert partition_function(g) == partition_function_brute(g)

    def test_dp_equals_brute_truncated(self):
        # Ell(-a) and Lstar rows stacked both ways, as commutation_check
        # builds them, with the Ell(-a) right boundary also flipped to 1
        x, y = V(xv(1)), V(yv(1))
        dual = GridRow(model_Lstar(), y)
        nonzero = 0
        for right in (None, 1):
            ell = GridRow(model_Ell(-1), x, right=right)
            for rows in ((ell, dual), (dual, ell)):
                for bottom in itertools.product((0, 1), repeat=3):
                    for top in itertools.product((0, 1), repeat=3):
                        for T in (1, 3):
                            g = GridSpec(rows, (-1, 1), bottom, top, trunc=T)
                            z = partition_function(g)
                            assert z == partition_function_brute(g).truncate(T)
                            assert total_degree(z) <= T
                            nonzero += not z.is_zero()
        assert nonzero > 80


class TestPruning:
    """The DP keeps only the states its backward bit pass marks as able to
    reach the top; partition_function_brute checks every value."""

    def test_pruned_dp_equals_brute(self):
        rng = random.Random(41)
        models = [model_L(), model_Lstar(), model_Ell(), model_Ell(-1),
                  model_EllSubst(3)]
        nonzero = unreachable = 0
        for _ in range(120):
            ncols = rng.randint(1, 4)
            nrows = rng.randint(1, 3)
            while ncols * nrows + (ncols - 1) * nrows > 18:
                ncols -= 1
            rows = []
            for i in range(nrows):
                model = rng.choice(models)
                # None keeps the model's boundary label; else flip it
                left = rng.choice([None, 1 - model.left])
                right = rng.choice([None, 1 - model.right])
                rows.append(GridRow(model, V(xv(i + 1)), left, right))
            lo = rng.randint(-2, 0)
            window = (lo, lo + ncols - 1)
            bottom = tuple(rng.randint(0, 1) for _ in range(ncols))
            T = rng.choice([None, 0, 1, 3])
            # each row adds its left label's particle and drops its right's
            count = sum(bottom) + sum(l - r for l, r in
                                      (row.bounds() for row in rows))
            for top in itertools.product((0, 1), repeat=ncols):
                g = GridSpec(tuple(rows), window, bottom, top, trunc=T)
                z = partition_function(g)
                brute = partition_function_brute(g)
                assert z == (brute if T is None else brute.truncate(T)), g
                if sum(top) != count:
                    assert z.is_zero()
                    unreachable += 1
                nonzero += not z.is_zero()
        assert nonzero > 60 and unreachable > 500

    def test_prunes_dead_states(self, monkeypatch):
        """The states the sweep keeps, summed over its vertices: the T grid
        of E^{21/1} with n = 2 on [-3, 3] keeps 36 of them, where a sweep
        that keeps every state the bottom reaches keeps 215."""
        kept = []
        real = lattice._vertex

        def counting(states, moves, c, marked):
            out = real(states, moves, c, marked)
            kept.append(len(out))
            return out

        class Everything:
            def __contains__(self, key):
                return True

        monkeypatch.setattr(lattice, "_vertex", counting)
        shape = SkewShape.of((2, 1), (1,), extent=2)
        p = EdgeSchurParams(2, (-3, 3), 2)
        assert edge_schur_lattice(shape, p, "T") == edge_schur(shape, p)
        assert sum(kept) == 36
        del kept[:]
        monkeypatch.setattr(lattice, "_live_states", lambda rows, tables, tops:
                            [[Everything()] * len(row) for row in tables])
        assert edge_schur_lattice(shape, p, "T") == edge_schur(shape, p)
        assert sum(kept) == 215


def _inflows(states, moves, c, marked):
    """{key: [(acc, unit, rest), ...]} in the order the sweep meets them."""
    inflows = {}
    for st, acc in states.items():
        for de, dn, unit, rest in moves[st & 1 | st >> c & 2]:
            key = st + de + (dn << c + 1)
            if key in marked:
                inflows.setdefault(key, []).append((acc, unit, rest))
    return inflows


class TestMerge:
    """_vertex builds each kept state's sum in place: a lone unit weight
    hands its acc on as it is, a unit weight with siblings still adds them,
    and no acc handed in is ever changed."""

    def test_unit_weight_first_with_a_sibling(self, monkeypatch):
        # at T = 1 the Lstar weight 1 + a*x of (1, 0, 1, 0) is cut to the
        # unit weight, and its state comes before its sibling (0, 1, 1, 0),
        # weight x, in this grid's vertices
        rows = (GridRow(model_Lstar(), V(xv(1))),
                GridRow(model_Lstar(), V(yv(1))))
        g = GridSpec(rows, (-1, 1), (0, 0, 1), (0, 1, 0), trunc=1)
        seen = {"unit first": 0, "lone unit": 0, "split": 0}
        real = lattice._vertex

        def checked(states, moves, c, marked):
            before = {st: dict(acc.terms) for st, acc in states.items()}
            inflows = _inflows(states, moves, c, marked)
            out = real(states, moves, c, marked)
            assert {st: dict(acc.terms) for st, acc in states.items()} == \
                before
            assert list(out) == list(inflows)
            for key, parts in inflows.items():
                want = MultiPoly.zero()
                for acc, unit, rest in parts:
                    if unit:
                        want = want + acc
                    if rest is not None:
                        want = want + rest * acc
                        seen["split"] += unit
                assert out[key] == want
                lone = parts[0][1] and parts[0][2] is None
                if lone and len(parts) == 1:
                    assert out[key] is parts[0][0]
                    seen["lone unit"] += 1
                elif lone:
                    assert all(out[key] is not acc for acc, _, _ in parts)
                    seen["unit first"] += 1
            return out

        monkeypatch.setattr(lattice, "_vertex", checked)
        z = partition_function(g)
        assert seen["unit first"] and seen["lone unit"]
        assert z == partition_function_brute(g).truncate(1)
        assert z == V(xv(1)) + V(yv(1))
        # on labeled columns at T = 2 the weight 1 + a*x keeps its rest
        g = GridSpec(rows, (-1, 1), (0, 0, 1), (0, 1, 0), labels=(-1, 1),
                     trunc=2)
        assert partition_function(g) == partition_function_brute(g).truncate(2)
        assert seen["split"]


class TestSweep:
    """One _sweep from a bottom profile serves a whole set of tops."""

    @staticmethod
    def tables(g):
        return lattice._grid_tables(g.rows, g.window, g.labels, g.trunc)

    @pytest.mark.parametrize("kind", ["L", "Lstar", "Ell(-a)", "mixed"])
    def test_every_top_equals_partition_function_and_brute(self, kind):
        rng = random.Random(f"sweep {kind}")
        models = {"L": [model_L()], "Lstar": [model_Lstar()],
                  "Ell(-a)": [model_Ell(-1)],
                  "mixed": [model_L(), model_Lstar(), model_Ell(-1),
                            model_EllSubst(3)]}[kind]
        nonzero = 0
        for _ in range(12):
            ncols, nrows = rng.randint(2, 4), rng.randint(1, 2)
            rows = tuple(GridRow(rng.choice(models), V(xv(i + 1)),
                                 right=rng.choice([None, None, 0, 1]))
                         for i in range(nrows))
            lo = rng.randint(-2, 0)
            window = (lo, lo + ncols - 1)
            bottom = tuple(rng.randint(0, 1) for _ in range(ncols))
            T = rng.choice([0, 2, 3])
            # every top with the particle count the rows conserve, and a
            # few more the sweep cannot reach
            count = sum(bottom) + sum(l - r for l, r in
                                      (row.bounds() for row in rows))
            tops = list(itertools.product((0, 1), repeat=ncols))
            wanted = [top for top in tops if sum(top) == count]
            wanted += rng.sample(tops, 2)
            profiles = {lattice._profile(top): top for top in wanted}
            g = GridSpec(rows, window, bottom, bottom, trunc=T)
            frontier = lattice._sweep(rows, self.tables(g),
                                      lattice._profile(bottom),
                                      set(profiles), T)
            assert set(frontier) <= set(profiles)
            for prof, top in profiles.items():
                one = GridSpec(rows, window, bottom, top, trunc=T)
                z = frontier.get(prof, MultiPoly.zero())
                assert z == partition_function(one)
                assert z == partition_function_brute(one).truncate(T)
                nonzero += not z.is_zero()
        assert nonzero >= 8

    def test_commutation_witness_is_the_first_in_lam_major_order(self):
        """The reference loop runs one partition_function per (lam, mu)."""
        box, window, T = (2, 2), (-2, 5), 6
        x, y = V(xv(1)), V(yv(1))
        t_row = GridRow(model_Ell(-1), x, right=1)
        dual = GridRow(model_Lstar(), y)
        witness = None
        for lam in partitions_in_box(*box):
            for mu in partitions_in_box(*box):
                bottom, top = maya_bits(mu, window), maya_bits(lam, window)
                lhs = (ONE - x * y) * partition_function(
                    GridSpec((t_row, dual), window, bottom, top, trunc=T))
                rhs = partition_function(
                    GridSpec((dual, t_row), window, bottom, top, trunc=T))
                if lhs != rhs and witness is None:
                    witness = (lam, mu, lattice.canonical_string(lhs),
                               lattice.canonical_string(rhs))
        assert witness is not None
        assert commutation_check(box, window, T, flip_t_right=True) == \
            (False, witness)


class TestTableCache:
    """_cached_table's tables are built once per process and shared, so the
    cache must key on the model object and hand out tables nobody changes."""

    def test_stock_models_are_one_instance_each(self):
        assert model_L() is model_L() and model_Lstar() is model_Lstar()
        assert model_Ell(-1) is model_Ell(-1) and model_Ell() is model_Ell(1)
        assert model_Ell() is not model_Ell(-1)

    def test_perturbed_models_get_their_own_tables(self):
        # the stock model runs first, then mode 'one', then 'double' (both
        # named like "L~a1"): a table an earlier model left in the cache
        # and a later one read would break the later model's brute Z on
        # the grids where the two models differ
        differ = {"one": 0, "double": 0}
        for model, role in ((model_L(), "a1"), (model_Lstar(), "b2"),
                            (model_Ell(-1), "b2"), (model_Ell(-1), "c1")):
            models = [model] + [model.perturbed(role, mode) for mode in differ]
            for bottom in itertools.product((0, 1), repeat=3):
                for top in itertools.product((0, 1), repeat=3):
                    zs = []
                    for m in models:
                        rows = (GridRow(m, V(xv(1))), GridRow(m, V(xv(2))))
                        g = GridSpec(rows, (-1, 1), bottom, top, trunc=3)
                        z = partition_function(g)
                        assert z == partition_function_brute(g).truncate(3)
                        zs.append(z)
                    for mode, z in zip(differ, zs[1:]):
                        differ[mode] += z != zs[0]
        assert min(differ.values()) >= 20

    def test_tables_are_shared_and_left_unchanged(self):
        rows = (GridRow(model_Ell(-1), V(xv(1))), GridRow(model_L(), V(yv(1))),
                GridRow(model_Lstar(), V(xv(2))))
        g = GridSpec(rows, (-2, 2), (1, 0, 1, 0, 0), (1, 1, 0, 0, 1),
                     labels=(-1, 1), trunc=3)

        def tables():
            return [t for row in TestSweep.tables(g) for t in row]

        def snapshot(ts):
            return [{cfg: (dict(wt.terms), wt.trunc)
                     for cfg, wt in t.items()} for t in ts]

        shared = tables()
        before = snapshot(shared)
        z1, z2 = partition_function(g), partition_function(g)
        assert z1 == z2 and len(z1.terms) == 20
        assert all(z is not wt for z in (z1, z2)
                   for t in shared for wt in t.values())
        assert all(t is u for t, u in zip(tables(), shared))
        assert snapshot(shared) == before

    def test_cache_is_bounded(self):
        assert lattice._cached_table.cache_info().maxsize == 256


class TestRowCache:
    """_grid_tables reads each row's per-column tables from one bounded
    cache keyed by value, and each table carries its keys indexed once."""

    GRID = GridSpec((GridRow(model_Ell(-1), V(xv(1))),
                     GridRow(model_Lstar(), V(yv(1))),
                     GridRow(model_L(), V(xv(2)), left=1)),
                    (-2, 2), (1, 0, 1, 0, 0), (1, 1, 0, 0, 1),
                    labels=(-1, 1), trunc=3)

    @staticmethod
    def snapshot(rows):
        return [[({cfg: (dict(wt.terms), wt.trunc) for cfg, wt in t.items()},
                  [[(de, dn, unit, None if rest is None else dict(rest.terms))
                    for de, dn, unit, rest in m]
                   for m in t.moves], t.back) for t in row] for row in rows]

    def test_cache_is_bounded(self):
        assert lattice._row_tables.cache_info().maxsize == 256

    def test_rows_are_shared_and_left_unchanged(self):
        g = self.GRID
        rows = TestSweep.tables(g)
        before = self.snapshot(rows)
        assert partition_function(g) == partition_function_brute(g).truncate(3)
        assert all(r is s for r, s in zip(TestSweep.tables(g), rows))
        assert self.snapshot(rows) == before
        # the table of a column is the one _cached_table holds for it
        for row, tables in zip(g.rows, rows):
            assert len(tables) == 5
            for d, t in zip(g.columns(), tables):
                assert t is lattice._cached_table(
                    row.model, lattice._poly_key(row.param),
                    lattice._poly_key(g.col_param(d)), g.trunc)

    def test_index_lists_every_key_in_sweep_order(self):
        """Each move's weight is split once into unit + rest: unit only for
        a constant term 1 under no truncation tighter than the grid's, rest
        None only for the weight 1."""
        units = 0
        for row in TestSweep.tables(self.GRID):
            for t in row:
                moves = [[] for _ in range(4)]
                back = [[] for _ in range(4)]
                for e in (0, 1):  # the order the sweep tried keys in
                    for (h, s, e_, n), wt in t.items():
                        if e_ == e:
                            moves[h + 2 * s].append((e - h, n - s, wt))
                            back[e + 2 * n].append((h - e, s - n))
                joined = []
                for m in t.moves:
                    joined.append([])
                    for de, dn, unit, rest in m:
                        assert rest is not None or unit
                        if unit:
                            assert rest is None or rest.constant_term() == 0
                            units += 1
                        whole = ((ONE if unit else MultiPoly.zero())
                                 + (rest or MultiPoly.zero()))
                        joined[-1].append((de, dn, whole))
                assert joined == moves
                for m, want in zip(t.moves, moves):
                    for (_, _, unit, _), (_, _, wt) in zip(m, want):
                        assert unit == (wt.constant_term() == 1
                                        and wt.trunc in (None, 3))
                assert sorted(map(sorted, t.back)) == sorted(map(sorted, back))
        assert units

    def test_perturbed_model_gets_its_own_row(self):
        g = self.GRID
        stock = model_Lstar()
        for mode in ("one", "double"):
            model = stock.perturbed("b2", mode)
            rows = (GridRow(model, V(yv(1))),)
            [own] = lattice._grid_tables(rows, g.window, g.labels, g.trunc)
            [theirs] = lattice._grid_tables((GridRow(stock, V(yv(1))),),
                                            g.window, g.labels, g.trunc)
            assert own is not theirs
            for d, t in zip(g.columns(), own):
                want = model.table(V(yv(1)), g.col_param(d))
                assert {cfg: wt.truncate(3) for cfg, wt in t.items()} == \
                    {cfg: wt.truncate(3) for cfg, wt in want.items()}
            # on a labeled column b2 = 1 + a*y differs from 1 and 2 + 2*a*y
            assert any(t != u for t, u in zip(own, theirs))

    def test_commutation_marks_liveness_once_per_row_order(self, monkeypatch):
        calls = []
        real = lattice._live_states

        def counting(rows, tables, tops):
            calls.append(len(rows))
            return real(rows, tables, tops)

        monkeypatch.setattr(lattice, "_live_states", counting)
        for box, window, T, flip in (((2, 2), (-2, 5), 6, False),
                                     ((2, 2), (-2, 5), 6, True),
                                     ((1, 3), (-1, 5), 4, False)):
            del calls[:]
            ok, _ = commutation_check(box, window, T, flip_t_right=flip)
            assert ok != flip
            assert calls == [2, 2]


class TestEdgeSchurLattice:
    def test_two_row_shape(self):
        shape = SkewShape.of((2,), (), extent=2)
        p = EdgeSchurParams(2, (-2, 1), 2)
        closed = edge_schur(shape, p)
        assert edge_schur_lattice(shape, p, "T") == closed
        assert edge_schur_lattice(shape, p, "Tstar") == closed

    def test_trivial_strip_single_var(self):
        lam = Partition.of((2, 1))
        shape = SkewShape(lam, lam)
        p = EdgeSchurParams(1, (-2, 3), 2)
        z = edge_schur_lattice(shape, p, "T")
        x = V(xv(1))
        expect = ONE
        for d in sorted(deformed_diagonals(lam, lam, p.window)):
            expect = expect * (ONE + V(av(d)) * x)
        assert z == expect

    def test_random_oracle(self):
        rng = random.Random(29)
        for _ in range(30):
            ext = rng.randint(1, 2)
            lam = Partition(tuple(sorted((rng.randint(0, 3) for _ in range(ext)),
                                         reverse=True)))
            mu = Partition(tuple(sorted((rng.randint(0, lam.part(k))
                                         for k in range(1, ext + 1)),
                                        reverse=True)))
            if not lam.contains(mu):
                continue
            n = rng.randint(1, 2)
            window = (-ext - rng.randint(0, 1), lam.first() + rng.randint(0, 1))
            shape = SkewShape.of(lam.parts, mu.parts, extent=ext)
            p = EdgeSchurParams(n, window, ext)
            closed = edge_schur(shape, p)
            assert closed == edge_schur_brute(shape, p)
            assert closed == edge_schur_lattice(shape, p, "T")
            assert closed == edge_schur_lattice(shape, p, "Tstar")

    def test_tt_commutation_on_box(self):
        # <lam| T(x) T(y) |mu> is symmetric in the two spectral parameters
        window = (-3, 3)
        rows_xy = (GridRow(model_L(), V(xv(1))), GridRow(model_L(), V(xv(2))))
        rows_yx = (GridRow(model_L(), V(xv(2))), GridRow(model_L(), V(xv(1))))
        for lam in partitions_in_box(3, 3):
            for mu in partitions_in_box(3, 3):
                b, t = maya_bits(mu, window), maya_bits(lam, window)
                z1 = partition_function(GridSpec(rows_xy, window, b, t))
                z2 = partition_function(GridSpec(rows_yx, window, b, t))
                assert z1 == z2

    def test_window_need_not_cover_vacuum(self):
        # both windows miss the vacuum of extent 2; the grid is padded down
        # to -2 with unlabeled columns
        shape = SkewShape.of((2, 1), (), extent=2)
        for window in ((-1, 2), (0, 1)):
            p = EdgeSchurParams(2, window, 2)
            closed = edge_schur(shape, p)
            for form in ("T", "Tstar"):
                assert edge_schur_lattice(shape, p, form) == closed

    def test_window_ending_below_lam1(self):
        # M = 1 < lam_1 - 1: the grid is padded up to 2, where the particle
        # of part 3 ends, with a = 0 on column 2
        shape = SkewShape.of((3, 1), (), extent=2)
        p = EdgeSchurParams(2, (-2, 1), 2)
        closed = edge_schur(shape, p)
        assert lattice.canonical_string(closed) == (
            "x1^3*x2 + x1^2*x2^2 + x1*x2^3 + a0*x1^3*x2^2 + a1*x1^3*x2^2"
            " + a0*x1^2*x2^3 + a1*x1^2*x2^3 + a0*a1*x1^3*x2^3")
        assert edge_schur_brute(shape, p) == closed
        assert edge_schur_lattice(shape, p, "T") == closed
        assert edge_schur_lattice(shape, p, "Tstar") == closed

    def test_every_window(self):
        # mu <= lam in the 1x3 and 2x2 boxes; every low end around -extent
        # and every high end around lam_1 - 1, down to the empty window; the
        # brute ELT sum checks the closed form on each
        checked = 0
        for ext, cols in ((1, 3), (2, 2)):
            box = partitions_in_box(ext, cols)
            for lam, mu in itertools.product(box, box):
                if not lam.contains(mu):
                    continue
                shape = SkewShape(lam, mu)
                l1 = lam.first()
                for m in range(-ext - 1, 2):
                    for M in {m - 1, m, l1 - 2, l1 - 1, l1, l1 + 1}:
                        if M < m - 1:
                            continue
                        for n in (1, 2):
                            p = EdgeSchurParams(n, (m, M), ext)
                            closed = edge_schur(shape, p)
                            assert edge_schur_brute(shape, p) == closed
                            for form in ("T", "Tstar"):
                                assert edge_schur_lattice(shape, p, form) \
                                    == closed, (lam, mu, n, m, M, form)
                                checked += 1
        assert checked == 2892

    def test_dual_model_same_value(self):
        shape = SkewShape.of((2, 1), (1,), extent=2)
        p = EdgeSchurParams(2, (-2, 2), 2)
        assert edge_schur_lattice(shape, p, "T") == \
            edge_schur_lattice(shape, p, "Tstar")

    def test_window_enlargement_scaling(self):
        # growing [m, M] to [m, M+k] multiplies by prod (1 + a_d x_i)
        shape = SkewShape.of((2, 1), (), extent=2)
        base = EdgeSchurParams(2, (-2, 2), 2)
        wide = EdgeSchurParams(2, (-2, 4), 2)
        scale = ONE
        for d in (3, 4):
            for i in (1, 2):
                scale = scale * (ONE + V(av(d)) * V(xv(i)))
        assert edge_schur(shape, wide) == edge_schur(shape, base) * scale


class TestFactorialLattice:
    def test_two_cell_row(self):
        got = factorial_schur_lattice(SkewShape.of((2,)), 2, 0)
        assert got == factorial_schur(SkewShape.of((2,), (), extent=2), 2)

    def test_empty(self):
        assert factorial_schur_lattice(SkewShape.of(()), 2, 0) == ONE

    def test_kappa_invariance_random(self):
        rng = random.Random(31)
        for _ in range(20):
            ext = rng.randint(1, 2)
            lam = Partition(tuple(sorted((rng.randint(0, 2) for _ in range(ext)),
                                         reverse=True)))
            mu = Partition(tuple(sorted((rng.randint(0, lam.part(k))
                                         for k in range(1, ext + 1)),
                                        reverse=True)))
            if not lam.contains(mu):
                continue
            n = rng.randint(1, 2)
            shape = SkewShape.of(lam.parts, mu.parts, extent=ext)
            want = factorial_schur(shape, n)
            k0 = shape.inner.length()
            assert factorial_schur_lattice(shape, n, k0) == want
            assert factorial_schur_lattice(shape, n, k0 + 1) == want

    @pytest.mark.parametrize("lam, n, kappa", [
        ((1, 1, 1), 1, 1), ((2, 1, 1), 1, 0), ((1, 1, 1, 1), 2, 1)])
    def test_more_parts_than_kappa_plus_n(self, lam, n, kappa):
        # no semistandard filling in n letters: the early return's zero
        shape = SkewShape.of(lam, (), extent=len(lam))
        got = factorial_schur_lattice(shape, n, kappa)
        assert got == factorial_schur(shape, n) and got.is_zero()

    def test_kappa_guard(self):
        with pytest.raises(WindowError):
            factorial_schur_lattice(SkewShape.of((2, 1), (1,)), 1, 0)


class TestYangBaxter:
    @pytest.mark.parametrize("kind", ["RLL_L", "RLL_Lstar", "rll_Ell",
                                      "frakRLell"])
    def test_passes(self, kind):
        ok, wit = yang_baxter_check(kind)
        assert ok, wit

    def test_a1_to_one_breaks_L(self, perturbed_yb):
        ok, wit = perturbed_yb["RLL_L", "a1", "one"]
        assert not ok and wit is not None
        assert witness_digest(perturbed_yb) == YB_WITNESS_SHA256

    @pytest.mark.parametrize("kind,roles", list(YB_ROLES.items()))
    def test_every_doubling_breaks(self, kind, roles, perturbed_yb):
        for role in roles:
            ok, wit = perturbed_yb[kind, role, "double"]
            assert not ok, (kind, role)
            assert wit is not None
        assert witness_digest(perturbed_yb) == YB_WITNESS_SHA256


class TestCommutation:
    def test_box_2x2(self):
        ok, wit = commutation_check((2, 2), (-2, 5), 6)
        assert ok, wit

    def test_single_column_window(self):
        ok, _ = commutation_check((1, 1), (-1, 4), 4)
        assert ok

    def test_degenerate_window(self):
        # a single-column window keeps only the trivial degrees: the escape
        # tail 2(M+1) - lam1 - mu1 already enters at total degree 2
        ok, _ = commutation_check((1, 1), (0, 0), 1)
        assert ok
        ok2, _ = commutation_check((1, 1), (0, 0), 2)
        assert not ok2

    def test_flipped_right_boundary_fails(self):
        ok, wit = commutation_check((2, 2), (-2, 5), 6, flip_t_right=True)
        assert not ok and wit is not None

    def test_flipped_witness_pinned(self):
        ok, wit = commutation_check((1, 1), (-1, 2), 4, flip_t_right=True)
        assert not ok
        assert wit == (Partition.of((0,)), Partition.of((1,)), FLIPPED_LHS,
                       FLIPPED_RHS)


class TestCauchy:
    def test_empty(self):
        rep = cauchy_check(Partition.of(()), Partition.of(()), 1, 1, (-2, 3), 4)
        assert rep["ok"], rep

    def test_mu_one(self):
        rep = cauchy_check(Partition.of((1,)), Partition.of(()), 2, 1, (-2, 4), 4)
        assert rep["ok"], rep

    def test_x_zero_degenerate(self):
        # with no factorial rows the glued identity collapses to E = E
        rep = cauchy_check(Partition.of((1,)), Partition.of((1,)), 0, 1,
                           (-2, 2), 4)
        assert rep["ok"], rep

    @pytest.mark.parametrize("T", range(7))
    @pytest.mark.parametrize("mu, eta", [((), ()), ((2, 1), (1,))],
                             ids=["empty", "21-over-1"])
    def test_every_truncation(self, mu, eta, T):
        rep = cauchy_check(Partition.of(mu), Partition.of(eta), 2, 2,
                           (-2, 5), T)
        assert rep["ok"], rep

    def test_skips_terms_truncation_cuts(self, monkeypatch):
        """No closed form is computed for a term of degree above T:
        s_{lam/mu} * E^{lam/eta} has degree >= 2|lam| - |mu| - |eta|,
        s_{eta/kap} * E^{mu/kap} degree >= |mu| + |eta| - 2|kap|.  sum_a
        reads its lam off one level map per side, sum_b computes each kap."""
        lams, kaps = [], []

        def recording_many(many):
            def recorded(inner, outers, *args, **kwargs):
                lams.extend(outers)
                return many(inner, outers, *args, **kwargs)
            return recorded

        def recording(shape, *args, **kwargs):
            kaps.append(shape)
            return factorial_schur(shape, *args, **kwargs)

        for name in ("factorial_schurs", "edge_schurs"):
            monkeypatch.setattr(lattice, name,
                                recording_many(getattr(lattice, name)))
        monkeypatch.setattr(lattice, "factorial_schur", recording)
        mu, eta, T = Partition.of((2, 1)), Partition.of((1,)), 2
        assert cauchy_check(mu, eta, 2, 2, (-2, 5), T)["ok"]
        # sum_b's shapes are eta/kap with kap inside eta
        assert lams and kaps
        assert all(s.outer.size() == eta.size() for s in kaps)
        assert all(2 * lam.size() - mu.size() - eta.size() <= T
                   for lam in lams)
        assert all(mu.size() + eta.size() - 2 * s.inner.size() <= T
                   for s in kaps)


class TestFreeFermion:
    def test_L(self):
        assert free_fermion_check(model_L())

    def test_Lstar(self):
        assert free_fermion_check(model_Lstar())

    def test_Ell(self):
        # b1 vanishes in the factorial table, so a1 a2 + b1 b2 = 1 = c1 c2
        assert free_fermion_check(model_Ell())

    def test_toy_all_ones_fails(self):
        toy = VertexModel("toy", {r: (lambda x, a: ONE) for r in VERTEX_ROLES},
                          0, 0)
        assert not free_fermion_check(toy)
