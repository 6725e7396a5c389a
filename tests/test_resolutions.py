"""Free resolutions: minimality, frozen tables, dual-route agreement."""

import hashlib
from fractions import Fraction
from math import comb

import pytest

from conftest import (A4_BIGRADED, MINIMAL_COMPLEX_SHA256, N4_TOTALS,
                      N5_TOTALS, N5_TOTALS_CHAR2, N6_BIGRADED,
                      N6_MINIMAL_SHA256, RJ4_BIGRADED, RJ4_TOTALS, RJ5_TOTALS)
from pfaffcalc import resolutions
from pfaffcalc.constructions import (GradedMatrix, mapping_cone_betti,
                                     module_presentation)
from pfaffcalc.fields import GF, QQ
from pfaffcalc.resolutions import (FreeComplex, ResolutionTruncated,
                                   complex_betti, composite, free_resolution,
                                   ladder_betti, minimalize, vecs_of_matrix)
from pfaffcalc.rings import ring_for


def totals(B):
    out = {}
    for (i, _), c in B.data.items():
        out[i] = out.get(i, 0) + c
    return tuple(out[i] for i in range(max(out) + 1))


def resolve(name, f, field, vars="x", max_len=None):
    ring = ring_for(f, field, vars=vars)
    pres = module_presentation(name, ring)
    return free_resolution(pres, max_len=max_len or len(ring.names))


@pytest.mark.parametrize("char", [0, 32003])
def test_full_quotient_resolution_f4(char):
    field = GF(char) if char else QQ
    C = resolve("RJ", 4, field, vars="xt")
    C.check()                       # raises unless consecutive maps compose to zero
    assert C.is_minimal()
    B = complex_betti(C)
    assert B.data == RJ4_BIGRADED
    assert totals(B) == RJ4_TOTALS
    assert C.length == 3


def test_full_quotient_resolution_f5_totals():
    C = resolve("RJ", 5, GF(32003), vars="xt")
    B = complex_betti(C)
    assert totals(B) == RJ5_TOTALS
    assert C.length == 5
    assert totals(B)[-1] == 1


def test_hypersurface_resolution_f4(qq):
    C = resolve("A", 4, qq)
    B = complex_betti(C)
    assert B.data == A4_BIGRADED
    assert C.length == 1


@pytest.mark.parametrize("char,expected", [
    (0, N4_TOTALS), (2, N4_TOTALS), (32003, N4_TOTALS),
])
def test_row_module_resolution_f4(char, expected):
    field = GF(char) if char else QQ
    C = resolve("N", 4, field)
    assert totals(complex_betti(C)) == expected
    assert C.length == comb(2, 2)


@pytest.mark.parametrize("char,expected", [
    (0, N5_TOTALS), (2, N5_TOTALS_CHAR2), (32003, N5_TOTALS),
])
def test_row_module_resolution_f5(char, expected):
    field = GF(char) if char else QQ
    C = resolve("N", 5, field)
    assert totals(complex_betti(C)) == expected
    assert C.length == comb(3, 2)


@pytest.mark.parametrize("name,f,vars", [
    ("A", 4, "x"), ("N", 4, "x"), ("N", 5, "x"), ("RJ", 4, "xt"),
])
def test_two_routes_agree(name, f, vars, qq):
    ring = ring_for(f, qq, vars=vars)
    pres = module_presentation(name, ring)
    via_min = complex_betti(free_resolution(pres, max_len=len(ring.names)))
    via_ladder = ladder_betti(pres)
    assert via_min == via_ladder


def test_resolution_truncation_is_loud(qq):
    ring = ring_for(5, qq, vars="x")
    pres = module_presentation("N", ring)
    with pytest.raises(ResolutionTruncated):
        free_resolution(pres, max_len=2)      # true length is 3
    with pytest.raises(ValueError):
        free_resolution(pres, max_len=0)


def test_minimalize_keeps_betti(qq):
    ring = ring_for(4, qq, vars="x")
    pres = module_presentation("N", ring)
    C = free_resolution(pres, max_len=6)
    minC, B = minimalize(C)
    assert complex_betti(minC) == B == complex_betti(C)
    assert minC.is_minimal()


def test_mapping_cone_matches_direct_resolution(qq):
    xring = ring_for(4, qq, vars="x")
    ba = complex_betti(free_resolution(module_presentation("A", xring), 6))
    bn = complex_betti(free_resolution(module_presentation("N", xring), 6))
    cone = mapping_cone_betti(ba, bn)
    assert cone.data == RJ4_BIGRADED


def complex_digest(C):
    """sha256 over the twists and every nonzero entry of a complex, with
    monomials as exponent vectors."""
    unpack = C.ring.codec.unpack
    h = hashlib.sha256()
    for k, d in enumerate(C.diffs):
        h.update(repr((k, d.row_degs, d.col_degs)).encode())
        for i, row in enumerate(d.entries):
            for j, e in enumerate(row):
                if not e.is_zero():
                    terms = [(unpack(m), str(c)) for m, c in e.terms]
                    h.update(repr((i, j, terms)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,f,char", sorted(MINIMAL_COMPLEX_SHA256))
def test_minimal_complex_is_frozen(name, f, char):
    # entry for entry, so the minimalization pivot order is pinned too
    C = resolve(name, f, GF(char) if char else QQ,
                vars="xt" if name == "RJ" else "x")
    assert complex_digest(C) == MINIMAL_COMPLEX_SHA256[(name, f, char)]


@pytest.mark.parametrize("name,f,char", [("N", 5, 0), ("RJ", 5, 2)])
def test_public_minimalize_of_the_frame_is_frozen(name, f, char):
    # the dense entry point contracts the whole non-minimal frame
    ring = ring_for(f, GF(char) if char else QQ,
                    vars="xt" if name == "RJ" else "x")
    levels, twists = resolutions.schreyer_frame(module_presentation(name, ring))
    vec_frame = FreeComplex(ring, twists, levels)
    frame = FreeComplex.of_matrices(ring, twists, vec_frame.diffs)
    assert not frame.is_minimal()
    minC, B = minimalize(frame)
    assert complex_digest(minC) == MINIMAL_COMPLEX_SHA256[(name, f, char)]
    assert B == complex_betti(minC)


@pytest.mark.parametrize("name,f,char", [("A", 5, 32003), ("N", 4, 0),
                                         ("RJ", 4, 2)])
def test_dense_round_trip_keeps_the_frozen_complex(name, f, char):
    # of_matrices is the one dense entry point; diffs the one way out
    C = resolve(name, f, GF(char) if char else QQ,
                vars="xt" if name == "RJ" else "x")
    D = FreeComplex.of_matrices(C.ring, C.twists, C.diffs)
    assert complex_digest(D) == MINIMAL_COMPLEX_SHA256[(name, f, char)]


def test_vec_minimality_agrees_with_a_dense_unit_scan(qq):
    ring = ring_for(5, qq, vars="x")
    levels, twists = resolutions.schreyer_frame(module_presentation("N", ring))
    frame = FreeComplex(ring, twists, levels)
    minC, _ = minimalize(frame)
    one = ring.codec.one
    for C, minimal in ((frame, False), (minC, True)):
        dense = not any(len(e.terms) == 1 and e.terms[0][0] == one
                        for d in C.diffs for row in d.entries for e in row)
        assert C.is_minimal() == dense == minimal


def test_free_resolution_checks_the_frame_and_its_minimal_complex(
        qq, monkeypatch):
    calls = []
    check, minimalize_ = FreeComplex.check, resolutions.minimalize

    def counting_check(self):
        calls.append(("check", [len(tw) for tw in self.twists]))
        check(self)

    def counting_minimalize(C):
        calls.append(("minimalize", [len(tw) for tw in C.twists]))
        return minimalize_(C)

    monkeypatch.setattr(FreeComplex, "check", counting_check)
    monkeypatch.setattr(resolutions, "minimalize", counting_minimalize)
    C = resolve("N", 4, qq)
    assert [name for name, _ in calls] == ["check", "minimalize", "check"]
    # the frame goes in, the minimal complex comes out
    ranks = [len(tw) for tw in C.twists]
    assert calls[0][1] == calls[1][1] != ranks == calls[2][1]


def test_both_routes_refuse_a_truncated_ladder_alike(qq, monkeypatch):
    real = resolutions.schreyer_resolution
    monkeypatch.setattr(resolutions, "schreyer_resolution",
                        lambda *args, **kw: (real(*args, **kw)[0], True))
    ring = ring_for(4, qq, vars="x")
    pres = module_presentation("N", ring)
    messages = []
    for route in (lambda: free_resolution(pres, max_len=6),
                  lambda: ladder_betti(pres)):
        with pytest.raises(ResolutionTruncated) as err:
            route()
        messages.append(str(err.value))
    assert messages == ["syzygy ladder still active after 8 levels"] * 2


def test_row_module_resolution_f6(gf32003):
    C = resolve("N", 6, gf32003)
    assert C.is_minimal()
    assert complex_betti(C).data == N6_BIGRADED
    assert complex_digest(C) == N6_MINIMAL_SHA256


def test_zero_module_resolves_to_the_zero_complex(qq):
    # a unit relation kills the only generator; every module contracts
    ring = ring_for(4, qq, vars="x")
    pres = GradedMatrix(ring, [[ring.one(), ring.x(1, 2)]], [(0, 0)],
                        [(0, 0), (1, 0)])
    C = free_resolution(pres, max_len=3)
    assert C.twists == [[]] and C.diffs == []
    assert complex_betti(C).data == {}


@pytest.mark.parametrize("route", ["free_resolution", "minimalize"])
def test_a_surviving_unit_is_refused(route, qq, monkeypatch):
    # contract nothing: the unit relation of the presentation survives
    monkeypatch.setattr(resolutions, "_contract_units",
                        lambda mats, twists, field, one:
                        [[True] * len(tw) for tw in twists])
    ring = ring_for(4, qq, vars="x")
    pres = GradedMatrix(ring, [[ring.one(), ring.x(1, 2)]], [(0, 0)],
                        [(0, 0), (1, 0)])
    with pytest.raises(AssertionError, match="unit entry survived"):
        if route == "free_resolution":
            free_resolution(pres, max_len=3)
        else:
            minimalize(FreeComplex.of_matrices(
                ring, [pres.row_degs, pres.col_degs], [pres]))


@pytest.mark.parametrize("char", [0, 2])
def test_contraction_fills_in_a_unit_and_drops_a_cancelled_entry(char):
    # F_0 = R^4 <- F_1 = R^2 + R(-1)^3 <- F_2 = R(-2), a = x12, b = x13.
    # The pivot (0,0) sends row 1 to [-1, 0, -b, -a] past column 0: (1,1)
    # is a fill-in unit, below and to the right.  It sends row 2 to
    # [0, a, -b, 0]: (2,1) = 1 - 1 and the surviving (2,4) = a - a cancel.
    # Pivot (1,1) has nothing else in its column, and row 1 of d_2 goes
    # with column 1 of d_1.
    ring = ring_for(4, GF(char) if char else QQ, vars="x")
    o, z, a, b = ring.one(), ring.zero(), ring.x(1, 2), ring.x(1, 3)
    twists = [[(0, 0)] * 4, [(0, 0)] * 2 + [(1, 0)] * 3, [(2, 0)]]
    d1 = GradedMatrix(ring, [[o, o, z, b, a],
                             [o, z, z, z, z],
                             [o, o, a, z, a],
                             [z, z, z, z, b]], twists[0], twists[1])
    d2 = GradedMatrix(ring, [[z], [-(a * b)], [b], [a], [z]],
                      twists[1], twists[2])
    frame = FreeComplex.of_matrices(ring, twists, [d1, d2])
    minC, B = minimalize(frame)
    assert minC.twists == [[(0, 0)] * 2, [(1, 0)] * 3, [(2, 0)]]
    assert [d.entries for d in minC.diffs] == [
        [[a, -b, z], [z, z, b]], [[b], [a], [z]]]
    assert B == complex_betti(minC)


def _koszul_maps(ring, sign):
    """d1 = [x12 x13] and d2 = [x13, sign * x12]^T; the composite
    vanishes exactly when sign = -1."""
    a, b = ring.x(1, 2), ring.x(1, 3)
    d1 = GradedMatrix(ring, [[a, b]], [(0, 0)], [(1, 0)] * 2)
    d2 = GradedMatrix(ring, [[b], [a.scale(sign)]], [(1, 0)] * 2, [(2, 0)])
    return d1, d2


@pytest.mark.parametrize("char", [0, 32003])
def test_check_rejects_a_nonzero_composite(char):
    ring = ring_for(4, GF(char) if char else QQ, vars="x")
    twists = [[(0, 0)], [(1, 0)] * 2, [(2, 0)]]
    FreeComplex.of_matrices(ring, twists, _koszul_maps(ring, -1))
    with pytest.raises(ValueError, match="composite d_1 o d_2 is nonzero"):
        FreeComplex.of_matrices(ring, twists, _koszul_maps(ring, 1))


@pytest.mark.parametrize("char,c1,c2,want", [
    pytest.param(0, 16001, 16002, 32003, id="0"),
    pytest.param(32003, 16001, 16002, 0, id="32003"),
    pytest.param(32003, 16001, 16003, 1, id="32003-residue"),
    pytest.param(0, Fraction(1, 2), Fraction(-1, 3), Fraction(1, 6),
                 id="0-fraction"),
])
def test_check_sums_the_composite_in_the_field(char, c1, c2, want):
    """d1 = [a a] and d2 = [c1, c2]^T: the composite is (c1 + c2) * a.
    16001 + 16002 = 32003 vanishes in GF(32003) and not over QQ; with
    16003 the sum leaves the residue 1; 1/2 - 1/3 is nonzero although
    the numerators cancel."""
    ring = ring_for(4, GF(char) if char else QQ, vars="x")
    a = ring.x(1, 2)
    twists = [[(0, 0)], [(1, 0)] * 2, [(1, 0)]]
    diffs = [GradedMatrix(ring, [[a, a]], twists[0], twists[1]),
             GradedMatrix(ring, [[ring.const(c1)], [ring.const(c2)]],
                          twists[1], twists[2])]
    (G, order), (H, order_next) = (vecs_of_matrix(d) for d in diffs)
    got = composite(H[0], order_next, G, order, ring.field)
    assert got == (((order.key(0, a.lm()), want),) if want else ())
    if want:
        with pytest.raises(ValueError,
                           match="composite d_1 o d_2 is nonzero"):
            FreeComplex.of_matrices(ring, twists, diffs)
    else:
        FreeComplex.of_matrices(ring, twists, diffs)


def test_composite_is_a_descending_vec(qq):
    # the smaller term is summed first, and still comes out last
    ring = ring_for(4, qq, vars="x")
    small, large = sorted((ring.x(1, 2), ring.x(1, 3)), key=lambda p: p.lm())
    d1 = GradedMatrix(ring, [[small, large]], [(0, 0)], [(1, 0)] * 2)
    d2 = GradedMatrix(ring, [[ring.one()], [ring.const(-2)]], [(1, 0)] * 2,
                      [(1, 0)])
    (G, order), (H, order_next) = (vecs_of_matrix(d) for d in (d1, d2))
    assert composite(H[0], order_next, G, order, QQ) == (
        (order.key(0, large.lm()), -2), (order.key(0, small.lm()), 1))


def test_check_rejects_a_twist_mismatch(qq):
    ring = ring_for(4, qq, vars="x")
    d1, d2 = _koszul_maps(ring, -1)
    with pytest.raises(ValueError,
                       match="differential 2 does not match the twist data"):
        FreeComplex.of_matrices(ring, [[(0, 0)], [(1, 0)] * 2, [(3, 0)]],
                                [d1, d2])
    bad = GradedMatrix(ring, d2.entries, d2.row_degs, [(3, 0)], check=False)
    with pytest.raises(ValueError, match="column 0 of differential 2 has bidegree"):
        FreeComplex.of_matrices(ring, [[(0, 0)], [(1, 0)] * 2, [(3, 0)]],
                                [d1, bad])


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_free_resolution_rejects_a_corrupted_ladder(char, monkeypatch):
    real = resolutions.schreyer_resolution

    def corrupted(*args, **kw):
        # add one to the last coefficient of the first syzygy
        levels, truncated = real(*args, **kw)
        order, els = levels[1]
        field = order.ring.field
        key, c = els[0][-1]
        c = field.add(c, field.one())
        last = () if field.is_zero(c) else ((key, c),)
        levels[1] = (order, [els[0][:-1] + last] + list(els[1:]))
        return levels, truncated

    monkeypatch.setattr(resolutions, "schreyer_resolution", corrupted)
    with pytest.raises(ValueError, match="composite d_1 o d_2 is nonzero"):
        resolve("RJ", 4, GF(char) if char else QQ, vars="xt")
