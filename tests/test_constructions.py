"""Ideal/matrix/complex constructions: shapes, gradings, closure."""

from math import comb

import pytest

from conftest import is_zero_matrix
from pfaffcalc.betti import BettiTable
from pfaffcalc.constructions import (GradedMatrix, _dec_basis, build_complex,
                                     build_ideal, generic_tau, generic_xi,
                                     mapping_cone_betti, map_matrix,
                                     module_presentation, module_ring,
                                     pfaffian_gens, s1_s2_sets, tx_entries)
from pfaffcalc.exterior import (AlternatingMatrix, all_subsets, contract,
                                pfaffian_oracle)
from pfaffcalc.fields import GF, QQ
from pfaffcalc.groebner import groebner_basis
from pfaffcalc.rings import ring_for


@pytest.mark.parametrize("f", [2, 3, 4, 5, 6])
def test_generator_counts(f):
    ring = ring_for(f, QQ)
    assert len(build_ideal("I", ring)) == comb(f, 4)
    assert len(build_ideal("K", ring)) == f
    assert len(build_ideal("J", ring)) == comb(f, 4) + f


@pytest.mark.parametrize("f", [2, 3, 4, 5, 6])
def test_lambda_ideal_generator_counts(f):
    ring = ring_for(f, QQ)
    for lam in range(1, f):
        gens = build_ideal("Ilambda", ring, lam=lam)
        assert len(gens) == comb(f, 4) + comb(lam, 2)


def test_lambda_range_is_validated():
    ring = ring_for(4, QQ)
    for lam in (0, 4, 7, None):
        with pytest.raises(ValueError):
            build_ideal("Ilambda", ring, lam=lam)


def test_unknown_ideal_kind():
    with pytest.raises(ValueError):
        build_ideal("Z", ring_for(4, QQ))


def test_generator_bidegrees():
    ring = ring_for(5, QQ)
    for g in build_ideal("I", ring):
        assert g.bidegree() == (2, 0)
    for g in build_ideal("K", ring):
        assert g.bidegree() == (1, 1)


def test_row_entries_expand_correctly():
    # (tX)_j = sum_i t_i x_(i,j) with x_(j,i) = -x_(i,j)
    ring = ring_for(3, QQ)
    e = tx_entries(ring)
    assert e[1] == ring.t(1) * ring.x(1, 2) - ring.t(3) * ring.x(2, 3)
    assert e[0] == -ring.t(2) * ring.x(1, 2) - ring.t(3) * ring.x(1, 3)


def test_pfaffian_generators_match_divided_square():
    # each Pfaffian generator is a coefficient of the generic divided square
    ring = ring_for(5, QQ)
    xi = generic_xi(ring)
    sq = xi.divided_power()
    gens = pfaffian_gens(ring)
    subsets = all_subsets(5, 4)
    assert len(gens) == len(subsets)
    for S, g in zip(subsets, gens):
        assert sq.coeff(S) == g


@pytest.mark.parametrize("char", [0, 2, 32003])
@pytest.mark.parametrize("f", [4, 5, 6, 7, 8])
def test_pfaffian_generators_match_the_oracle(f, char):
    # the divided square against first-row expansion, which shares no
    # code with the exterior products
    ring = ring_for(f, GF(char) if char else QQ, vars="x")
    A = AlternatingMatrix.generic(ring)
    subsets = all_subsets(f, 4)
    gens = pfaffian_gens(ring)
    assert len(gens) == len(subsets)
    for S, g in zip(subsets, gens):
        assert g == pfaffian_oracle(A, S), S


def test_generic_tau_is_the_t_row():
    ring = ring_for(4, QQ)
    tau = generic_tau(ring)
    assert tau.side == "dual" and tau.k == 1
    for i in range(1, 5):
        assert tau.coeff((i,)) == ring.t(i)


@pytest.mark.parametrize("name,shape", [
    ("d1", None),        # f x C(f,3)
    ("d0", None),        # f x f
    ("delta1", None),    # C(f,3) x f ... shapes checked below
])
def test_map_matrices_are_graded(name, shape):
    ring = ring_for(4, QQ)
    M = map_matrix(name, ring)
    M.check_degrees()


@pytest.mark.parametrize("char", [0, 2])
@pytest.mark.parametrize("f", [2, 3, 4, 5, 6])
def test_d0_matches_contraction_route(f, char):
    # d0 is transcribed as -X; the contraction phi_1 |-> phi_1(xi) must
    # give the same matrix, entry for entry
    ring = ring_for(f, GF(char) if char else QQ)
    d0 = map_matrix("d0", ring)
    d0c = map_matrix("d0_contracted", ring)
    assert d0c.entries == d0.entries
    assert (d0c.row_degs, d0c.col_degs) == (d0.row_degs, d0.col_degs)


@pytest.mark.parametrize("char", [0, 2])
@pytest.mark.parametrize("f", [4, 5, 6])
def test_D1_pfaffians_match_the_contraction_route(f, char):
    # D1 reads its Pfaffian entries from pfaffian_gens; each decreasing
    # basis 4-coform contracted with xi^(2) must give the same entry
    ring = ring_for(f, GF(char) if char else QQ)
    sq = generic_xi(ring).divided_power()
    want = [contract(_dec_basis(ring, S), sq).terms.get((), ring.zero())
            for S in all_subsets(f, 4)]
    D1 = map_matrix("D1", ring)
    assert D1.entries[0][f:] == want
    assert D1.col_degs[f:] == [(2, 0)] * len(want)


@pytest.mark.parametrize("f", [3, 4, 5])
def test_complex_shapes(f):
    ring = ring_for(f, QQ)
    n3 = comb(f, 3)
    pre = build_complex("precplx", ring)
    assert [t.rank for t in pre.terms] == [n3, f, f, n3]
    assert pre.exact_positions == (1, 2)
    s32 = build_complex("seq32", ring)
    assert [t.rank for t in s32.terms] == [1, 1, 3, f, n3]
    assert s32.exact_positions == (0, 1, 2, 3)
    s43 = build_complex("seq43", ring)
    assert [t.rank for t in s43.terms] == [1, 1, f, 1]
    assert s43.exact_positions == (0, 1, 2, 3)
    for C in (pre, s32, s43):
        for M in C.maps:
            M.check_degrees()


def test_seq43_exists_at_f2():
    ring = ring_for(2, QQ)
    C = build_complex("seq43", ring)
    assert [t.rank for t in C.terms] == [1, 1, 2, 1]


def test_small_f_complexes_rejected():
    ring = ring_for(2, QQ)
    with pytest.raises(ValueError):
        build_complex("precplx", ring)
    with pytest.raises(ValueError):
        build_complex("seq32", ring)
    with pytest.raises(ValueError):
        build_complex("unknown-name", ring_for(4, QQ))


@pytest.mark.parametrize("char", [0, 2])
@pytest.mark.parametrize("f", [4, 5])
def test_relation_maps_compose_to_zero(f, char):
    ring = ring_for(f, GF(char) if char else QQ)
    D1 = map_matrix("D1", ring)
    D2 = map_matrix("D2", ring)
    assert is_zero_matrix(D1 @ D2)


def test_pre_complex_composite_lands_in_pfaffian_ideal():
    ring = ring_for(4, QQ)
    C = build_complex("precplx", ring)
    gb = groebner_basis(pfaffian_gens(ring), ring)
    P = C.maps[1] @ C.maps[2]          # d0 after d1
    for col in P.columns():
        for entry in col:
            assert gb.contains(entry)


def test_s1_s2_sizes():
    for f in (4, 5, 6):
        ring = ring_for(f, QQ)
        s1, s2 = s1_s2_sets(ring)
        assert len(s1) == 3 * (f - 2)
        assert len(s2) == comb(f - 2, 2) + 2


def test_module_presentations_shapes():
    ring = ring_for(4, QQ)
    xring = ring_for(4, QQ, vars="x")
    rj = module_presentation("RJ", ring)
    assert (rj.nrows, rj.ncols) == (1, comb(4, 4) + 4)
    a = module_presentation("A", xring)
    assert (a.nrows, a.ncols) == (1, 1)
    n = module_presentation("N", xring)
    assert n.nrows == 4 and n.ncols == comb(4, 3) + comb(4, 4) * 4
    n.check_degrees()
    with pytest.raises(ValueError):
        module_presentation("Q", ring)


def test_graded_matrix_transpose_and_identity():
    ring = ring_for(3, QQ)
    M = map_matrix("d0", ring)
    # the dual map: degrees negated, so every entry keeps its bidegree
    rows, cols = ([(-a, -b) for a, b in degs]
                  for degs in (M.col_degs, M.row_degs))
    T = M.transpose(rows, cols)
    assert (T.nrows, T.ncols) == (M.ncols, M.nrows)
    assert (T.row_degs, T.col_degs) == (rows, cols)
    with pytest.raises(ValueError, match="has bidegree"):
        M.transpose(M.col_degs, M.row_degs)
    assert all(T.entries[j][i] == M.entries[i][j]
               for i in range(M.nrows) for j in range(M.ncols))
    E = GradedMatrix.identity(ring, 3)
    assert (E @ M).entries == M.entries


def test_mapping_cone_table_arithmetic():
    # beta_a in degrees (i, (j, 0)); gamma_n likewise; cone assembles
    # L_i = R(-j-1,-2)^beta_{i-2,j} + R(-j-1,-1)^gamma_{i-1,j} + R(-j,0)^beta_{i,j}
    ba = BettiTable()
    ba.add(0, (0, 0), 1)
    ba.add(1, (2, 0), 1)
    bn = BettiTable()
    bn.add(0, (0, 0), 4)
    bn.add(1, (1, 0), 4)
    cone = mapping_cone_betti(ba, bn)
    assert cone.data == {
        (0, (0, 0)): 1,
        (1, (2, 0)): 1, (1, (1, 1)): 4,
        (2, (2, 1)): 4, (2, (1, 2)): 1,
        (3, (3, 2)): 1,
    }
    bad = BettiTable()
    bad.add(0, (0, 1), 1)
    with pytest.raises(ValueError):
        mapping_cone_betti(bad, bn)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
@pytest.mark.parametrize("f", [4, 5])
def test_each_module_has_one_ring(f, field):
    # RJ's ideal holds the entries of t*X; A, N and Ilambda live on X alone
    assert module_ring("RJ", f, field) == ring_for(f, field)
    for name in ("A", "N", "Ilambda"):
        assert module_ring(name, f, field) == ring_for(f, field, vars="x")
