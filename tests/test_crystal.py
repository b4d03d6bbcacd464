import collections
import hashlib
import itertools
import random

import pytest

from edgeschur.crystal import (component_decomposition, crystal_graph,
                               dot_export, e_elt, eps_phi, f_elt,
                               graphs_isomorphic, highest_weights,
                               is_highest_weight, schur_expansion_crystal,
                               signature, ssyt_crystal_graph)
from edgeschur.poly import MultiPoly, av
from edgeschur.schur import EdgeSchurParams, edge_schur, schur_expand
from edgeschur.shapes import Partition, SkewShape, partitions_in_box
from edgeschur.tableaux import (EdgeLabeledTableau, ValidationError,
                                enumerate_elt, enumerate_ssyt, reading_word)


def tensor_f(letters: list[int], i: int) -> list[int] | None:
    minus, _ = signature(letters, i)
    if not minus:
        return None
    out = list(letters)
    out[minus[-1]] = i + 1
    return out


def tensor_e(letters: list[int], i: int) -> list[int] | None:
    _, plus = signature(letters, i)
    if not plus:
        return None
    out = list(letters)
    out[plus[0]] = i
    return out


@pytest.fixture
def hw32():
    sh = SkewShape.of((3, 2), (), extent=2)
    return EdgeLabeledTableau.of(
        sh, 2, (-2, 1),
        {(1, 1): 1, (1, 2): 1, (1, 3): 1, (2, 1): 2, (2, 2): 2},
        {(3, 2): (3,)})


class TestWordOperators:
    def test_single_letter_edge(self):
        assert tensor_f([1], 1) == [2]
        assert tensor_e([2], 1) == [1]
        assert tensor_f([2], 1) is None

    def test_signature_example(self):
        # f_2 acts at the rightmost surviving '-', here the first letter
        assert signature([2, 3, 2, 1, 1, 1], 2) == ([0], [])
        assert tensor_f([2, 3, 2, 1, 1, 1], 2) == [3, 3, 2, 1, 1, 1]

    def test_inverse_random(self):
        rng = random.Random(41)
        for _ in range(200):
            word = [rng.randint(1, 4) for _ in range(rng.randint(1, 8))]
            i = rng.randint(1, 3)
            fw = tensor_f(word, i)
            if fw is not None:
                assert tensor_e(fw, i) == word
            ew = tensor_e(word, i)
            if ew is not None:
                assert tensor_f(ew, i) == word

    def test_eps_phi_by_iteration(self):
        rng = random.Random(43)
        for _ in range(200):
            word = [rng.randint(1, 3) for _ in range(rng.randint(1, 7))]
            i = rng.randint(1, 2)
            eps, phi = eps_phi(word, i)
            k, w = 0, word
            while (w := tensor_e(w, i)) is not None:
                k += 1
            assert k == eps
            k, w = 0, word
            while (w := tensor_f(w, i)) is not None:
                k += 1
            assert k == phi


class TestEltOperators:
    def test_exception_edge(self, hw32):
        out = f_elt(hw32, 2)
        assert dict(out.entries) == {(1, 1): 1, (1, 2): 1, (1, 3): 1,
                                     (2, 1): 3, (2, 2): 3}
        assert dict(out.edge_sets) == {(2, 1): (2,)}

    def test_plain_edge(self, hw32):
        out = f_elt(hw32, 1)
        assert dict(out.entries) == {(1, 1): 1, (1, 2): 1, (1, 3): 2,
                                     (2, 1): 2, (2, 2): 2}
        assert dict(out.edge_sets) == {(3, 2): (3,)}

    def test_inverses_exhaustive(self):
        shape = SkewShape.of((2, 1), (), extent=2)
        for t in enumerate_elt(shape, 3, (-2, 2), 2):
            for i in (1, 2):
                ft = f_elt(t, i)
                if ft is not None:
                    assert e_elt(ft, i).key() == t.key()
                et = e_elt(t, i)
                if et is not None:
                    assert f_elt(et, i).key() == t.key()

    def test_weight_pairing(self):
        shape = SkewShape.of((2, 1), (), extent=2)
        for t in enumerate_elt(shape, 3, (-2, 2), 2):
            for i in (1, 2):
                eps, phi = eps_phi([v for v, _ in reading_word(t)], i)
                wt = t.content_vector(3)
                assert phi - eps == wt[i - 1] - wt[i]

    def test_f_preserves_a_monomial(self):
        shape = SkewShape.of((2, 1), (), extent=2)

        def a_part(t):
            out = MultiPoly.one()
            for (i, j), vals in t.edge_sets:
                out = out * MultiPoly.var(av(j - i)) ** len(vals)
            return out

        for t in enumerate_elt(shape, 3, (-2, 2), 2):
            for i in (1, 2):
                ft = f_elt(t, i)
                if ft is None:
                    continue
                assert a_part(ft) == a_part(t)
                before = t.content_vector(3)
                after = ft.content_vector(3)
                diff = [a - b for a, b in zip(after, before)]
                assert diff[i - 1] == -1 and diff[i] == 1
                assert all(d == 0 for k, d in enumerate(diff)
                           if k not in (i - 1, i))

    @pytest.mark.parametrize("move, t, message", [
        # the run check: entries out of row-major order
        (f_elt, EdgeLabeledTableau(SkewShape.of((2,)), 1, (0, -1),
                                   (((1, 2), 2), ((1, 1), 1)), ()),
         r"entry position \(1, 1\) out of row-major order"),
        # no label on an edge of the run: its bump sits off the shape
        (f_elt, EdgeLabeledTableau(SkewShape.of((2, 1)), 2, (-2, 2),
                                   (((1, 1), 1), ((1, 2), 1), ((2, 1), 3)),
                                   (((3, 3), (2,)),)),
         r"illegal edge position \(3, 3\)"),
        # the reading word check: a label on the edge below the row
        (e_elt, EdgeLabeledTableau(SkewShape.of((2,)), 1, (-1, 2),
                                   (((1, 1), 2), ((1, 2), 2)),
                                   (((1, 1), (1,)), ((2, 2), (2,)))),
         r"label 2 at edge \(2, 2\) not above entry 2")])
    def test_malformed_input_raises_validation_error(self, move, t, message):
        """A tableau built without `of` that breaks a rule of validate is
        refused by name on each of the move's failure paths, never with a
        bare AssertionError."""
        with pytest.raises(ValidationError, match=message):
            move(t, 1)

    def test_move_is_pinned(self):
        """f_i and e_i on every tableau of every nonempty straight shape in
        the 3x3 box (n = 3, window (-extent, lam1)), hashed; the census
        counts the boxes each result changes, so runs of 2 and 3 boxes are
        covered both ways.  Each result, built from t's sorted entries
        without `of`, equals `EdgeLabeledTableau.of` on its own maps."""
        h = hashlib.sha256()
        tableaux = 0
        census = collections.Counter()
        for lam in partitions_in_box(3, 3):
            parts = tuple(v for v in lam.parts if v)
            if not parts:
                continue
            ext = len(parts)
            shape = SkewShape.of(parts, (), extent=ext)
            for t in enumerate_elt(shape, 3, (-ext, parts[0]), ext):
                tableaux += 1
                for i in (1, 2):
                    f, e = f_elt(t, i), e_elt(t, i)
                    h.update(f"{t.key()}|{i}|{f.key() if f else None}|"
                             f"{e.key() if e else None}\n".encode())
                    before = t.entry_map()
                    for name, out in (("f", f), ("e", e)):
                        if out is not None:
                            assert out == EdgeLabeledTableau.of(
                                out.shape, out.extent, out.window,
                                out.entry_map(), out.edge_map())
                            after = out.entry_map()
                            census[name, sum(before[c] != after[c]
                                             for c in before)] += 1
        assert tableaux == 14920
        assert h.hexdigest() == ("a48a52d94d72cc4fa30e9132522d7a56"
                                 "22b537e2e45980a8de4cf41340fc2b5c")
        for name in "fe":
            assert [census[name, k] for k in range(4)] == [6632, 6784, 1256,
                                                           144]


class TestSemistandard:
    def test_f_changes_one_entry_over_the_box(self):
        """On a semistandard tableau (no labels, the empty window) f_i is the
        classical operator: it turns one entry i into i+1, adds no label,
        and e_i undoes it.  Every skew shape in the 3x3 box, n <= 4."""
        box = partitions_in_box(3, 3)
        calls = steps = 0
        for lam, mu, n in itertools.product(box, box, range(2, 5)):
            if not lam.contains(mu):
                continue
            for t in enumerate_ssyt(SkewShape(lam, mu), n):
                for i in range(1, n):
                    calls += 1
                    ft = f_elt(t, i)
                    if ft is None:
                        continue
                    steps += 1
                    before, after = t.entry_map(), ft.entry_map()
                    changed = [c for c in before if before[c] != after[c]]
                    assert len(changed) == 1, (t, i)
                    assert (before[changed[0]], after[changed[0]]) == (i, i + 1)
                    assert ft.edge_sets == ()
                    assert e_elt(ft, i) == t
        assert (calls, steps) == (15602, 7612)


class TestHighestWeights:
    def test_32_expansion_coefficients(self):
        lam = Partition.of((3, 2))
        p = EdgeSchurParams(3, (-2, 1), 2)
        coeffs = schur_expansion_crystal(lam, p, 6)
        a = lambda d: MultiPoly.var(av(d))
        assert coeffs[Partition.of((3, 2, 1))] == a(-2) + a(-1) + a(0) + a(1)
        assert coeffs[Partition.of((3, 3), extent=3)] == a(1)
        assert coeffs[Partition.of((3, 2), extent=3)] == MultiPoly.one()

    def test_weight_321_census(self):
        lam = Partition.of((3, 2))
        a = lambda d: MultiPoly.var(av(d))
        # four highest weights on the example window, one per diagonal
        hws = highest_weights(lam, EdgeSchurParams(3, (-2, 1), 2))
        m321 = [am for _, wt, am in hws if wt == (3, 2, 1)]
        assert len(m321) == 4
        assert sum(m321, MultiPoly.zero()) == a(-2) + a(-1) + a(0) + a(1)
        # widening the window admits one more, labelled on diagonal 2
        hws2 = highest_weights(lam, EdgeSchurParams(3, (-2, 2), 2))
        m321w = [am for _, wt, am in hws2 if wt == (3, 2, 1)]
        assert sum(m321w, MultiPoly.zero()) == \
            a(-2) + a(-1) + a(0) + a(1) + a(2)

    def test_no_labels_are_yamanouchi(self):
        lam = Partition.of((2, 1))
        p = EdgeSchurParams(3, (0, 0), 2)
        hws = highest_weights(lam, p)
        plain = [t for t, _, _ in hws if not t.edge_sets]
        # classical: the unique Yamanouchi SSYT per valid weight
        assert len(plain) == len(
            [t for t in enumerate_ssyt(SkewShape.of((2, 1), (), extent=2), 3)
             if is_highest_weight(
                 EdgeLabeledTableau.of(SkewShape.of((2, 1), (), extent=2), 2,
                                       (0, 0), t.entry_map(), {}), 3)])

    def test_matches_peeling(self):
        lam = Partition.of((2, 1))
        p = EdgeSchurParams(3, (-2, 2), 2)
        crystal_coeffs = schur_expansion_crystal(lam, p, 5)
        e = edge_schur(SkewShape.of((2, 1), (), extent=2),
                       EdgeSchurParams(3, (-2, 2), 2))
        peel_coeffs, _ = schur_expand(e, 3, 5)
        for nu in set(crystal_coeffs) | set(peel_coeffs):
            assert crystal_coeffs.get(nu, MultiPoly.zero()) == \
                peel_coeffs.get(nu, MultiPoly.zero()), nu


class TestGraph:
    def test_path_for_single_box(self):
        g = crystal_graph(Partition.of((1,)), EdgeSchurParams(4, (0, 0), 1))
        comps = component_decomposition(g)
        # the label-free component is the fundamental crystal: a 4-path
        plain = [(comp, hw) for comp, hw in comps
                 if not g.vertices[hw].edge_sets]
        assert len(plain) == 1
        comp, hw = plain[0]
        assert len(comp) == 4
        arcs_in_comp = [(u, i) for (u, i) in g.arcs if u in comp]
        assert len(arcs_in_comp) == 3

    def test_single_label_components(self):
        lam = Partition.of((3, 2))
        p = EdgeSchurParams(3, (-2, 1), 2)
        g = crystal_graph(lam, p)
        # (label diagonal, highest weight, size) of each one-label component
        found = []
        for comp, hw in component_decomposition(g):
            t = g.vertices[hw]
            labels = [j - i for (i, j), vs in t.edge_sets for _ in vs]
            if len(labels) == 1:
                found.append((labels[0], t.content_vector(3), len(comp)))
        assert sorted(found) == [(-2, (3, 2, 1), 8), (-1, (3, 2, 1), 8),
                                 (0, (3, 2, 1), 8), (1, (3, 2, 1), 8),
                                 (1, (3, 3, 0), 10)]

    def test_components_isomorphic_to_b_nu(self):
        lam = Partition.of((2, 1))
        p = EdgeSchurParams(3, (-1, 1), 2)
        g = crystal_graph(lam, p)
        for comp, hw in component_decomposition(g):
            nu = Partition(g.vertices[hw].content_vector(3))
            bg = ssyt_crystal_graph(nu, 3)
            [(bcomp, bhw)] = component_decomposition(bg)
            assert len(comp) == len(bg.vertices)
            assert graphs_isomorphic(g, hw, bg, bhw)

    def test_graphs_over_different_n_are_not_isomorphic(self):
        # with arcs f1 alone, B(1) over n = 2 matches the start of the path
        # B(1) over n = 3; only the graphs' n tells them apart
        b2, b3 = (ssyt_crystal_graph(Partition.of((1,)), n) for n in (2, 3))
        [(_, hw2)], [(_, hw3)] = (component_decomposition(b) for b in (b2, b3))
        assert graphs_isomorphic(b2, hw2, b2, hw2)
        assert not graphs_isomorphic(b2, hw2, b3, hw3)
        assert not graphs_isomorphic(b3, hw3, b2, hw2)

    def test_tableaux_are_their_own_keys(self):
        """Over every nonempty straight shape of the 3x3 box, n in {2, 3}:
        two vertices share a key() iff they are equal, and the arcs have the
        SHA-256 recorded when the graph indexed its vertices by key()."""
        h = hashlib.sha256()
        vertices = arcs = 0
        for lam in partitions_in_box(3, 3):
            if not lam.size():
                continue
            for n in (2, 3):
                g = crystal_graph(lam, EdgeSchurParams(
                    n, (-lam.extent, lam.first()), lam.extent))
                keys = [t.key() for t in g.vertices]
                pairs = set(zip(keys, g.vertices))
                assert len(pairs) == len(set(keys)) == len(set(g.vertices))
                h.update(f"{lam.parts} {n} {sorted(g.arcs.items())}\n"
                         .encode())
                vertices += len(g.vertices)
                arcs += len(g.arcs)
        assert (vertices, arcs) == (15204, 14955)
        assert h.hexdigest() == ("3af0397ed848e3d054ccfeccb1d9747d"
                                 "e10d749a532ea59d6ea001be155106bb")

    def test_dot_deterministic(self):
        g = crystal_graph(Partition.of((1,)), EdgeSchurParams(2, (0, 0), 1))
        assert dot_export(g) == dot_export(g)
        assert "f1" in dot_export(g)


class TestWordCommutation:
    def test_word_commutes_exhaustive(self):
        # f on the tableau matches f on the word (asserted internally too)
        shape = SkewShape.of((2, 2), (), extent=2)
        for t in enumerate_elt(shape, 3, (-2, 2), 2):
            letters = [v for v, _ in reading_word(t)]
            for i in (1, 2):
                ft = f_elt(t, i)
                expected = tensor_f(letters, i)
                got = None if ft is None else [v for v, _ in reading_word(ft)]
                assert got == expected

    def test_label_tick_never_meets_its_new_letter(self):
        """An edge reads its labels in decreasing order, so its i + 1 comes
        just before its i and the two cancel: f_i never ticks an i on an
        edge holding i + 1, nor e_i an i + 1 on an edge holding i.  So a
        tick replaces one letter of one edge set and the set stays sorted,
        with nothing to de-duplicate."""
        shape = SkewShape.of((2, 2), (), extent=2)
        ticks = 0
        for t in enumerate_elt(shape, 3, (-2, 2), 2):
            word = reading_word(t)
            letters = [v for v, _ in word]
            edges = t.edge_map()
            for i in (1, 2):
                minus, plus = signature(letters, i)
                moves = [(minus[-1], i + 1)] if minus else []
                moves += [(plus[0], i)] if plus else []
                for pos, new in moves:
                    _, loc = word[pos]
                    if loc[0] == "edge":
                        ticks += 1
                        assert new not in edges[loc[1], loc[2]]
                        moved = (f_elt if new == i + 1 else e_elt)(t, i)
                        vals = moved.edge_map()[loc[1], loc[2]]
                        assert vals == tuple(sorted(
                            set(edges[loc[1], loc[2]]) - {loc[3]} | {new}))
        assert ticks == 136
