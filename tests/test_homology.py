"""Homology over quotients: exactness, palindromes, the char-2 report."""

import pytest

from conftest import dense_diffs
from pfaffcalc.betti import BettiTable
from pfaffcalc.constructions import (GradedMatrix, TermSpec, PresentedComplex,
                                     build_complex, module_presentation)
from pfaffcalc.fields import GF, QQ
from pfaffcalc.gbengine import (columns_of_vecs, interreduce, vec_bidegs,
                                vec_of_entries)
from pfaffcalc.homology import (ModuleSpan, betti_palindrome_check,
                                char2_anomaly_check, homology_is_zero,
                                kernel_over_quotient, quotient_span)
from pfaffcalc.resolutions import (complex_betti, composite, free_resolution,
                                   ladder_betti)
from pfaffcalc.rings import ring_for


def field_of(char):
    return GF(char) if char else QQ


@pytest.mark.parametrize("char", [0, 2])
@pytest.mark.parametrize("f", [3, 4, 5])
def test_pre_complex_exact_in_the_middle(f, char):
    ring = ring_for(f, field_of(char))
    C = build_complex("precplx", ring)
    for pos in C.exact_positions:
        assert homology_is_zero(C, pos), (f, char, pos)


@pytest.mark.parametrize("char", [0, 2])
@pytest.mark.parametrize("f", [3, 4, 5])
def test_length_four_sequence_exact(f, char):
    ring = ring_for(f, field_of(char))
    C = build_complex("seq32", ring)
    for pos in C.exact_positions:
        assert homology_is_zero(C, pos), (f, char, pos)


@pytest.mark.parametrize("char", [0, 2])
@pytest.mark.parametrize("f", [2, 3, 4, 5])
def test_bourbaki_sequence_exact(f, char):
    ring = ring_for(f, field_of(char))
    C = build_complex("seq43", ring)
    for pos in C.exact_positions:
        assert homology_is_zero(C, pos), (f, char, pos)


def test_nonexact_complex_detected(qq):
    # R <-0- R has nonzero homology at both spots
    ring = ring_for(2, qq)
    Z = GradedMatrix(ring, [[ring.zero()]], [(0, 0)], [(0, 0)])
    C = PresentedComplex("toy", ring, [], [TermSpec([(0, 0)]),
                                           TermSpec([(0, 0)])], [Z], ())
    assert not homology_is_zero(C, 0)
    assert not homology_is_zero(C, 1)
    with pytest.raises(ValueError):
        homology_is_zero(C, 5)


def test_module_span_membership(qq):
    ring = ring_for(3, qq)
    x12, x13, x23 = ring.x(1, 2), ring.x(1, 3), ring.x(2, 3)
    zero = ring.zero()
    span = ModuleSpan(ring, 2, [[x12, zero], [zero, x13]])

    def vec(col):
        return vec_of_entries(enumerate(col), span.order)

    assert span.contains_column(vec([x12 * x23, zero]))
    assert span.contains_column(vec([zero, zero]))
    assert not span.contains_column(vec([x13, zero]))


def test_kernel_over_quotient_principal(qq):
    # kernel of multiplication by x12 on R/(x12 * x13) is generated by x13
    ring = ring_for(3, qq)
    x12, x13 = ring.x(1, 2), ring.x(1, 3)
    M = GradedMatrix(ring, [[x12]], [(1, 0)], [(2, 0)])
    K, order = kernel_over_quotient(M, [[x12 * x13]])
    assert order.rank == 1 and order.twists == ((2, 0),)
    assert K, "kernel must be nonzero"
    span = ModuleSpan(ring, 1, [[x13]])
    for v in K:
        assert span.contains_column(v)


def same_span(order, vecs_a, vecs_b):
    """Whether two lists of vecs over order span the same submodule."""
    zero = order.ring.zero()

    def span(vecs):
        cols = [[col.get(i, zero) for i in range(order.rank)]
                for col in columns_of_vecs(vecs, order)]
        return ModuleSpan(order.ring, order.rank, cols, twists=order.twists)

    span_a, span_b = span(vecs_a), span(vecs_b)
    return (all(span_b.contains_column(v) for v in vecs_a)
            and all(span_a.contains_column(v) for v in vecs_b))


@pytest.mark.parametrize("char", [0, 2, 32003])
@pytest.mark.parametrize("name,f", [("A", 5), ("N", 4), ("N", 5),
                                    ("RJ", 4)])
def test_kernel_of_each_differential_is_the_next_image(name, f, char):
    # the minimal resolution (Schreyer route) is exact, so the kernel of
    # d_k is generated by the columns of d_{k+1}, and is zero at the end
    ring = ring_for(f, field_of(char), vars="xt" if name == "RJ" else "x")
    C = free_resolution(module_presentation(name, ring), len(ring.names))
    for k, d in enumerate(dense_diffs(C)):
        K, korder = kernel_over_quotient(d)
        assert korder.twists == tuple(map(tuple, d.col_degs))
        # every kernel vec is nonzero and bihomogeneous (else this raises)
        assert None not in vec_bidegs(K, korder)
        order, G = C.levels[k]
        assert not any(composite(v, korder, G, order)
                       for v in K), (k, "d o K")
        if k + 1 == C.length:
            assert not K, k
        else:
            assert same_span(korder, K, C.levels[k + 1][1]), k


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_kernel_modulo_relations_and_quotient(char):
    ring = ring_for(3, field_of(char), vars="x")
    x12, x13, x23 = ring.x(1, 2), ring.x(1, 3), ring.x(2, 3)
    zero = ring.zero()

    def vecs(cols, order):
        return [vec_of_entries(enumerate(c), order) for c in cols]

    # [x12 x13] into R / (x23, x12*x13): a*x12 + b*x13 vanishes there
    # exactly when a lies in (x13, x23) and b in (x12, x23)
    M = GradedMatrix(ring, [[x12, x13]], [(0, 0)], [(1, 0), (1, 0)])
    K, order = kernel_over_quotient(M, [[x23], [x12 * x13]])
    want = [[x13, zero], [x23, zero], [zero, x12], [zero, x23]]
    assert same_span(order, K, vecs(want, order))
    # the quotient multiplies every cover vector: (x12, x13)^T into
    # R^2 / (x12*R^2 + R*(0, x23)) has kernel (x12, x23)
    M = GradedMatrix(ring, [[x12], [x13]], [(0, 0), (0, 0)], [(1, 0)])
    K, order = kernel_over_quotient(M, [[zero, x23], [x12, zero],
                                        [zero, x12]])
    assert same_span(order, K, vecs([[x12], [x23]], order))
    # the same quotient given as an ideal, placed in every target row
    K, order = kernel_over_quotient(M, [[zero, x23]],
                                    ModuleSpan(ring, 1, [[x12]]))
    assert same_span(order, K, vecs([[x12], [x23]], order))


@pytest.mark.parametrize("char", [0, 2, 32003])
@pytest.mark.parametrize("name", ["precplx", "seq32", "seq43"])
@pytest.mark.parametrize("f", [4, 5])
def test_kernels_over_the_known_quotient_match_the_flattened_one(f, name,
                                                                 char):
    """Every kernel the exactness check takes has the reduced basis it
    had when the quotient generators times each target row were passed
    as relation columns."""
    ring = ring_for(f, field_of(char))
    C = build_complex(name, ring)
    quotient = quotient_span(C)
    zero = ring.zero()
    for pos in C.exact_positions:
        if pos == 0:
            continue
        M, term = C.maps[pos - 1], C.terms[pos - 1]
        flat = [[q if r == i else zero for r in range(term.rank)]
                for q in C.quotient for i in range(term.rank)]
        K, korder = kernel_over_quotient(M, term.extra_relations, quotient)
        K0, _ = kernel_over_quotient(M, term.extra_relations + flat)
        assert K
        assert interreduce(K, korder) == interreduce(K0, korder)


def test_palindrome_check_on_tables(qq):
    ring = ring_for(4, qq, vars="x")
    B = complex_betti(free_resolution(module_presentation("N", ring), 6))
    rep = betti_palindrome_check(B, codim=1)
    assert rep.ok and rep.c == 1
    # breaking the expected codimension breaks the report
    assert not betti_palindrome_check(B, codim=2).ok


def test_palindrome_check_rejects_lopsided():
    B = BettiTable()
    B.add(0, (0, 0), 1)
    B.add(1, (2, 0), 3)
    B.add(2, (3, 0), 1)
    assert not betti_palindrome_check(B, codim=2).ok


def _n5(field):
    pres = module_presentation("N", ring_for(5, field, vars="x"))
    return pres, ladder_betti(pres)


def test_char2_anomaly_report():
    n2, n0 = _n5(GF(2)), _n5(QQ)
    rep = char2_anomaly_check(n2, n0)
    assert rep.ok
    assert not rep.witness_in_columns_char2
    assert rep.witness_in_relations_char2
    assert rep.witness_in_columns_char0
    assert rep.certificate_matches
    assert rep.beta1_char2 == 11 and rep.beta1_char0 == 10
    assert rep.pd_char2 == rep.pd_char0 == 3
    assert len(rep.lines()) == 6
    # the Betti data are read from the tables it is given
    longer = BettiTable(dict(n0[1].data))
    longer.add(4, (6, 0))
    rep = char2_anomaly_check(n2, (n0[0], longer))
    assert rep.pd_char0 == 4 and not rep.ok


def test_char2_certificate_recomposition_rejects_wrong_coordinates(
        monkeypatch):
    # doubled coordinates still satisfy the exterior identity, which reads
    # the certificate itself, but push through d1 to twice the witness
    from pfaffcalc import homology
    real = homology._dec_coord
    monkeypatch.setattr(homology, "_dec_coord",
                        lambda el, S: real(el, S).scale(2))
    rep = char2_anomaly_check(_n5(GF(2)), _n5(QQ))
    assert not rep.certificate_matches and not rep.ok
