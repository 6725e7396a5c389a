"""Degreewise linear-algebra Betti oracle (Buchberger-independent)."""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd

import pytest

from conftest import A4_BIGRADED, RJ4_BIGRADED
from pfaffcalc import linoracle
from pfaffcalc.betti import BettiTable
from pfaffcalc.constructions import GradedMatrix, module_presentation
from pfaffcalc.fields import GF, QQ
from pfaffcalc.linoracle import monomials_of_bidegree, oracle_betti
from pfaffcalc.rings import ring_for


def test_monomial_piece_dimensions():
    ring = ring_for(4, QQ)
    nx = comb(4, 2)
    for a, b in [(0, 0), (1, 0), (0, 1), (2, 1), (3, 2)]:
        got = monomials_of_bidegree(ring, a, b)
        assert len(got) == comb(nx + a - 1, a) * comb(4 + b - 1, b)
        assert len(set(got)) == len(got)


def monomials_of_bidegree_reference(ring, a, b):
    """Reference: the piece's monomials packed from exponent lists."""
    codec = ring.codec
    nx = ring.n_x
    nvars = len(ring.names)
    if a < 0 or b < 0 or (b and nvars == nx):
        return []
    out = []
    for xpart in combinations_with_replacement(range(nx), a):
        for tpart in combinations_with_replacement(range(nx, nvars), b):
            ex = [0] * nvars
            for v in xpart + tpart:
                ex[v] += 1
            out.append(codec.pack(ex))
    out.sort()
    return out


@pytest.mark.parametrize("f,vars", [(4, "xt"), (4, "x"), (5, "xt")])
def test_monomial_piece_matches_packing_reference(f, vars):
    ring = ring_for(f, QQ, vars=vars)
    for a in range(5):
        for b in range(-1, 5 - a):
            assert monomials_of_bidegree(ring, a, b) == \
                monomials_of_bidegree_reference(ring, a, b)


def test_monomial_piece_x_only_ring():
    ring = ring_for(4, QQ, vars="x")
    assert len(monomials_of_bidegree(ring, 2, 0)) == comb(6 + 1, 2)
    assert monomials_of_bidegree(ring, 0, 1) == []


@pytest.mark.parametrize("char", [0, 32003])
def test_oracle_full_quotient_f4(char):
    field = GF(char) if char else QQ
    ring = ring_for(4, field)
    B = oracle_betti(module_presentation("RJ", ring))
    assert B.data == RJ4_BIGRADED


def test_oracle_hypersurface_quotient_f4(qq):
    ring = ring_for(4, qq, vars="x")
    B = oracle_betti(module_presentation("A", ring))
    assert B.data == A4_BIGRADED


def test_oracle_almost_complete_intersection_f4(qq):
    ring = ring_for(4, qq, vars="x")
    B = oracle_betti(module_presentation("N", ring))
    totals = {}
    for (i, _), c in B.data.items():
        totals[i] = totals.get(i, 0) + c
    assert totals == {0: 4, 1: 4}


@pytest.mark.parametrize("kind", ["A", "N"])
def test_a_t_free_presentation_over_the_full_ring_stays_in_t_degree_zero(
        kind, monkeypatch):
    # every twist has t-degree 0, so flat base change from the x-ring
    # gives the table, and no piece of positive t-degree is needed
    asked = []
    real = linoracle.monomials_of_bidegree

    def logged(ring, a, b):
        asked.append(b)
        return real(ring, a, b)

    monkeypatch.setattr(linoracle, "monomials_of_bidegree", logged)
    field = GF(32003)
    full = oracle_betti(module_presentation(kind, ring_for(4, field)))
    assert asked and not any(asked)
    x_only = oracle_betti(module_presentation(kind, ring_for(4, field,
                                                             vars="x")))
    assert full.data == x_only.data and len(full.data) > 1


def test_oracle_rejects_unit_entries(qq):
    ring = ring_for(3, qq)
    pres = GradedMatrix(ring, [[ring.one()]], [(0, 0)], [(0, 0)])
    with pytest.raises(ValueError):
        oracle_betti(pres)


# -- integer and residue elimination against the field-generic route ---------


class _FieldEliminator:
    """Reference: the field-generic elimination the oracle used to run,
    with Fraction arithmetic over QQ and monic pivots."""

    def __init__(self, field):
        self.field = field
        self.pivots = {}

    def reduce(self, col):
        f = self.field
        col = dict(col)
        while col:
            lead = min(col)
            piv = self.pivots.get(lead)
            if piv is None:
                return lead, col
            c = col[lead]
            for r, v in piv.items():
                s = f.add(col.get(r, f.zero()), f.neg(f.mul(c, v)))
                if f.is_zero(s):
                    col.pop(r, None)
                else:
                    col[r] = s
        return None, None

    def insert(self, col):
        lead, red = self.reduce(col)
        if lead is None:
            return False
        inv = self.field.inv(red[lead])
        self.pivots[lead] = {r: self.field.mul(v, inv)
                             for r, v in red.items()}
        return True

    @property
    def rank(self):
        return len(self.pivots)


def _field_null_space(cols, field):
    """Reference: the field-generic augmented elimination."""
    f = field
    pivots = {}
    kernel = []
    for key, coords in cols:
        col = dict(coords)
        combo = {key: f.one()}
        while col:
            lead = min(col)
            piv = pivots.get(lead)
            if piv is None:
                inv = f.inv(col[lead])
                pivots[lead] = ({r: f.mul(v, inv) for r, v in col.items()},
                                {k: f.mul(v, inv) for k, v in combo.items()})
                col = None
                break
            pcoords, pcombo = piv
            c = col[lead]
            for r, v in pcoords.items():
                s = f.add(col.get(r, f.zero()), f.neg(f.mul(c, v)))
                if f.is_zero(s):
                    col.pop(r, None)
                else:
                    col[r] = s
            for k, v in pcombo.items():
                s = f.add(combo.get(k, f.zero()), f.neg(f.mul(c, v)))
                if f.is_zero(s):
                    combo.pop(k, None)
                else:
                    combo[k] = s
        if col is not None:
            kernel.append(combo)
    return kernel


def oracle_betti_reference(pres):
    """Reference: the oracle before pruning.  Each piece keeps its
    elements as vectors, every variable multiple of the piece one
    bidegree lower is inserted, and so is every monomial multiple of
    every generator, with products taken by `codec.mul`.  It shares the
    elimination with the oracle through the module's names, so the
    loggers below see both."""
    ring = pres.ring
    field = ring.field
    mul = ring.codec.mul

    def mul_vector(vec, mono):
        return {(c, mul(m, mono)): v for (c, m), v in vec.items()}

    def multiple_coords(vec, mono, index):
        return {index[(c, mul(m, mono))]: v for (c, m), v in vec.items()}

    B = BettiTable()
    for bd in pres.row_degs:
        B.add(0, bd)
    memo = {}

    def monos(a, b):
        if (a, b) not in memo:
            memo[(a, b)] = monomials_of_bidegree_reference(ring, a, b)
        return memo[(a, b)]

    degrees = linoracle._bidegrees_upto(linoracle.MAX_TOTAL_DEGREE)
    prev_twists = list(pres.row_degs)
    gens = linoracle._poly_columns_to_vectors(pres)
    level = 1
    while True:
        chosen, pieces, next_gens = [], {}, []
        for bd in degrees:
            index = linoracle._strand_index(monos, prev_twists, bd)
            if not index:
                continue
            elim = linoracle._Eliminator(field)
            piece = []
            for v in ring._vcache:
                va, vb = ring.bidegree_of_monomial(v)
                for w in pieces.get((bd[0] - va, bd[1] - vb), ()):
                    if elim.insert(multiple_coords(w, v, index)):
                        piece.append(mul_vector(w, v))
            old_rank = elim.rank
            for gvec, gd in gens:
                for m in monos(bd[0] - gd[0], bd[1] - gd[1]):
                    if elim.insert(multiple_coords(gvec, m, index)):
                        wv = mul_vector(gvec, m)
                        piece.append(wv)
                        chosen.append((wv, bd))
            if piece:
                pieces[bd] = piece
            if elim.rank > old_rank:
                B.add(level, bd, elim.rank - old_rank)
            cols = [((gi, m), multiple_coords(gvec, m, index))
                    for gi, (gvec, gd) in enumerate(chosen)
                    for m in monos(bd[0] - gd[0], bd[1] - gd[1])]
            for kvec in linoracle._null_space(cols, field):
                next_gens.append((kvec, bd))
        if not next_gens:
            return B
        prev_twists = [bd for _, bd in chosen]
        gens = next_gens
        level += 1


def _oracle_with_log(pres, monkeypatch, oracle=oracle_betti):
    """Run the oracle and log every elimination it makes: the columns
    fed to each piece's eliminator with the verdicts and the final
    pivots, and the columns and kernel of each null space.  Returns
    (piece eliminators, null spaces, table)."""
    pieces, nulls = [], []

    class Logged(linoracle._Eliminator):
        def __init__(self, field):
            super().__init__(field)
            self.log = []
            pieces.append(self)

        def insert(self, col):
            before = dict(col)
            got = super().insert(col)
            self.log.append((before, got))
            return got

    real_null_space = linoracle._null_space

    def logged_null_space(cols, field):
        cols = list(cols)  # the oracle passes a generator
        before = [(key, dict(coords)) for key, coords in cols]
        kernel = real_null_space(cols, field)
        nulls.append((before, kernel))
        return kernel

    with monkeypatch.context() as m:
        m.setattr(linoracle, "_Eliminator", Logged)
        m.setattr(linoracle, "_null_space", logged_null_space)
        table = oracle(pres)
    return [e for e in pieces if e.log], nulls, table


_CASES = [("A", "x"), ("N", "x"), ("RJ", "xt")]


def _presentation(kind, vars, char):
    field = GF(char) if char else QQ
    return module_presentation(kind, ring_for(4, field, vars=vars))


@pytest.mark.parametrize("char", [0, 2, 32003])
@pytest.mark.parametrize("kind,vars", _CASES)
def test_elimination_matches_field_route(kind, vars, char, monkeypatch):
    pres = _presentation(kind, vars, char)
    field = pres.ring.field
    p = field.char
    # Replays every bidegree's matrices through the reference: the same
    # verdict per column gives the same ranks, hence the same table.
    pieces, nulls, _ = _oracle_with_log(pres, monkeypatch)
    assert pieces and nulls
    for elim in pieces:
        ref = _FieldEliminator(field)
        assert [ref.insert(col) for col, _ in elim.log] == \
            [got for _, got in elim.log]
        assert elim.rank == ref.rank
        for lead, (col, combo) in elim.pivots.items():
            assert combo is None and min(col) == lead
            assert all(type(v) is int for v in col.values())
            if p:
                assert col[lead] == 1
                assert all(0 < v < p for v in col.values())
            else:
                assert gcd(*col.values()) == 1
    for cols, kernel in nulls:
        assert len(kernel) == len(_field_null_space(cols, field))
        by_key = dict(cols)
        for kvec in kernel:
            assert kvec and all(type(v) is int and v for v in kvec.values())
            if p:
                assert all(0 < v < p for v in kvec.values())
            image = {}
            for k, v in kvec.items():
                for r, x in by_key[k].items():
                    image[r] = image.get(r, 0) + v * x
            assert all((s % p if p else s) == 0 for s in image.values())


@pytest.mark.parametrize("char", [0, 2, 32003])
@pytest.mark.parametrize("kind,vars", _CASES)
def test_pruned_oracle_matches_the_unpruned_reference(kind, vars, char,
                                                      monkeypatch):
    pres = _presentation(kind, vars, char)
    pieces, nulls, table = _oracle_with_log(pres, monkeypatch)
    ref_pieces, ref_nulls, ref_table = _oracle_with_log(
        pres, monkeypatch, oracle_betti_reference)
    assert table.data == ref_table.data
    # Each null space's columns are the multiples of the generators
    # chosen so far, keyed (generator, monomial), in (level, bidegree)
    # order: equal columns mean the same generators were chosen.
    assert nulls == ref_nulls

    def independent(elims):
        return [cols for cols in
                ([col for col, got in e.log if got] for e in elims) if cols]
    assert independent(pieces) == independent(ref_pieces)
    inserts = sum(len(e.log) for e in pieces)
    assert inserts < sum(len(e.log) for e in ref_pieces)


@pytest.mark.parametrize("char", [0, 32003])
def test_redundant_columns_keep_the_table(char):
    # column 0 again, and column 1 times a variable: both are in the
    # span of the others, and the scaled one has a bidegree of its own
    pres = _presentation("RJ", "xt", char)
    x = pres.ring.x(1, 2)
    entries = [list(row) + [row[0], row[1] * x] for row in pres.entries]
    da, db = pres.col_degs[1]
    col_degs = list(pres.col_degs) + [pres.col_degs[0], (da + 1, db)]
    redundant = GradedMatrix(pres.ring, entries, pres.row_degs, col_degs)
    assert oracle_betti(redundant).data == RJ4_BIGRADED
    assert oracle_betti_reference(redundant).data == RJ4_BIGRADED


def test_a_product_leaving_its_strand_raises(qq):
    ring = ring_for(4, qq, vars="x")

    def monos(a, b):
        return monomials_of_bidegree(ring, a, b)
    index = linoracle._strand_index(monos, [(0, 0)], (1, 0))
    x12, x13 = ring.x(1, 2).lm(), ring.x(1, 3).lm()
    vec = {(0, x12): 5}
    assert linoracle._multiple_coords(ring, vec, ring.codec.one, index) == \
        {index[(0, x12)]: 5}
    with pytest.raises(AssertionError, match="leaves its graded strand"):
        linoracle._multiple_coords(ring, vec, x13, index)


def test_rational_column_scaling_keeps_the_table():
    pres = _presentation("RJ", "xt", 0)
    entries = [list(row) for row in pres.entries]
    for row in entries:
        row[0] = row[0].scale(Fraction(2, 3))
    scaled = GradedMatrix(pres.ring, entries, pres.row_degs, pres.col_degs)
    vecs = linoracle._poly_columns_to_vectors(scaled)
    assert all(type(v) is int for vec, _ in vecs for v in vec.values())
    assert vecs[0][0] == {k: 2 * v for k, v in
                          linoracle._poly_columns_to_vectors(pres)[0][0]
                          .items()}
    assert oracle_betti(scaled).data == RJ4_BIGRADED


def test_mixed_denominators_are_cleared_by_their_lcm(qq):
    ring = ring_for(4, qq, vars="x")
    half, third = ring.x(1, 2).scale(Fraction(1, 2)), \
        ring.x(1, 3).scale(Fraction(-1, 3))
    pres = GradedMatrix(ring, [[half], [third]], [(0, 0), (0, 0)], [(1, 0)])
    (vec, deg), = linoracle._poly_columns_to_vectors(pres)
    assert deg == (1, 0)
    assert vec == {(0, ring.x(1, 2).lm()): 3, (1, ring.x(1, 3).lm()): -2}


def test_update_takes_out_the_gcd_of_the_leads():
    elim = linoracle._Eliminator(QQ)
    elim.record(0, {0: 4, 1: 2}, {"p": 2})
    assert elim.pivots[0] == ({0: 2, 1: 1}, {"p": 1})
    # 1 * col - 2 * pivot, not 2 * col - 4 * pivot
    assert elim.reduce({0: 4, 2: 1}, {"k": 1}) == \
        (1, {1: -2, 2: 1}, {"k": 1, "p": -2})


def test_new_pivots_are_primitive_over_the_rationals():
    elim = linoracle._Eliminator(QQ)
    assert elim.insert({3: -6, 5: 9})
    assert elim.pivots[3] == ({3: -2, 5: 3}, None)


def test_update_reduces_mod_p():
    elim = linoracle._Eliminator(GF(7))
    elim.record(0, {0: 3, 1: 5}, {"p": 1})
    assert elim.pivots[0] == ({0: 1, 1: 4}, {"p": 5})
    assert elim.reduce({0: 2, 1: 1}, {"k": 1}) == (None, None, {"k": 1,
                                                                "p": 4})
    assert elim.reduce({0: 1, 2: 3}, {"k": 1}) == \
        (1, {1: 3, 2: 3}, {"k": 1, "p": 2})


def test_null_space_over_the_integers():
    # columns (1, 1), (2, 2), (1, -1), (0, 4): two relations
    cols = [("a", {0: 1, 1: 1}), ("b", {0: 2, 1: 2}),
            ("c", {0: 1, 1: -1}), ("d", {1: 4})]
    kernel = linoracle._null_space(cols, QQ)
    assert kernel == [{"a": -2, "b": 1}, {"a": 2, "c": -2, "d": -1}]
