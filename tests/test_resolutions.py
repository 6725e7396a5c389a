"""Free resolutions: minimality, frozen tables, dual-route agreement."""

import ast
import gc
import hashlib
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import comb

import pytest

from conftest import (A4_BIGRADED, MINIMAL_COMPLEX_SHA256, N4_TOTALS,
                      N5_TOTALS, N5_TOTALS_CHAR2, N6_BIGRADED,
                      N6_MINIMAL_SHA256, RJ4_BIGRADED, RJ4_TOTALS, RJ5_TOTALS,
                      complex_of_matrices, dense_diffs, flat, terms)
from pfaffcalc import gbengine, resolutions
from pfaffcalc.constructions import (GradedMatrix, mapping_cone_betti,
                                     module_presentation)
from pfaffcalc.fields import GF, QQ
from pfaffcalc.gbengine import FreeModuleOrder
from pfaffcalc.resolutions import (FreeComplex, ResolutionTruncated,
                                   complex_betti, composite, free_resolution,
                                   ladder_betti, minimalize, schreyer_frame,
                                   strand_betti, vecs_of_matrix)
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


def test_free_resolution_ends_with_a_full_collection(qq):
    # it empties the free lists that the consumed frame's vecs went to
    before = gc.get_stats()[-1]["collections"]
    resolve("N", 4, qq)
    assert gc.get_stats()[-1]["collections"] > before


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
    before = complex_betti(C)  # minimalize consumes C
    minC, B = minimalize(C)
    assert complex_betti(minC) == B == before
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
    for k, d in enumerate(dense_diffs(C)):
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
    # a frame read in from dense matrices contracts to the same complex
    ring = ring_for(f, GF(char) if char else QQ,
                    vars="xt" if name == "RJ" else "x")
    vec_frame = schreyer_frame(module_presentation(name, ring))
    frame = complex_of_matrices(ring, vec_frame.twists,
                                dense_diffs(vec_frame))
    assert not frame.is_minimal()
    minC, B = minimalize(frame)
    assert complex_digest(minC) == MINIMAL_COMPLEX_SHA256[(name, f, char)]
    assert B == complex_betti(minC)


@pytest.mark.parametrize("name,f,char", [("A", 5, 32003), ("N", 4, 0),
                                         ("RJ", 4, 2)])
def test_dense_round_trip_keeps_the_frozen_complex(name, f, char):
    # vecs_of_matrix is the one way in from dense matrices, and
    # columns_of_vecs the one way out
    C = resolve(name, f, GF(char) if char else QQ,
                vars="xt" if name == "RJ" else "x")
    D = complex_of_matrices(C.ring, C.twists, dense_diffs(C))
    assert complex_digest(D) == MINIMAL_COMPLEX_SHA256[(name, f, char)]


def test_the_resolution_layer_takes_no_dense_matrix_in_or_out():
    # FreeComplex holds engine vecs only: nothing in resolutions comes
    # from the dense constructions, and no dense way in or out is left
    with open(resolutions.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    sources = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            sources += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            sources += [base] + ["%s.%s" % (base, alias.name)
                                 for alias in node.names]
    assert [s for s in sources if "constructions" in s.split(".")] == []
    assert not hasattr(FreeComplex, "diffs")
    assert not hasattr(FreeComplex, "of_matrices")


def test_the_engine_reads_its_field_from_the_order():
    # an order's ring fixes the field, so no step takes one beside it;
    # _sparse_rank alone reads no order
    sigs = {}
    for module in (gbengine, resolutions):
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                sigs[node.name] = node.args
    with_field = [name for name, args in sigs.items()
                  if "field" in (a.arg for a in args.args + args.kwonlyargs)]
    assert with_field == ["_sparse_rank"]
    assert ast.unparse(sigs["nf"]) == "f, order, buckets, record=False"
    assert not {"ring", "row_twists"} & \
        {a.arg for a in sigs["_minimal_level"].args}


def test_vec_minimality_agrees_with_a_dense_unit_scan(qq):
    ring = ring_for(5, qq, vars="x")
    frame = schreyer_frame(module_presentation("N", ring))
    one = ring.codec.one

    def scans(C):
        dense = not any(len(e.terms) == 1 and e.terms[0][0] == one
                        for d in dense_diffs(C) for row in d.entries
                        for e in row)
        return C.is_minimal(), dense
    # the frame is scanned before minimalize consumes it
    assert scans(frame) == (False, False)
    minC, _ = minimalize(frame)
    assert scans(minC) == (True, True)


@pytest.mark.parametrize("read", [
    pytest.param(lambda C: C.check(), id="check"),
    pytest.param(lambda C: C.is_minimal(), id="is_minimal"),
    pytest.param(dense_diffs, id="diffs"),
    pytest.param(complex_betti, id="complex_betti"),
    pytest.param(minimalize, id="minimalize"),
    pytest.param(strand_betti, id="strand_betti"),
])
def test_a_consumed_frame_fails_loudly(read, qq):
    # emptied vec lists would otherwise read as a minimal complex, the
    # frame's generator counts as its Betti table, or an IndexError
    ring = ring_for(4, qq, vars="x")
    C = schreyer_frame(module_presentation("N", ring))
    twists = [list(tw) for tw in C.twists]
    minimalize(C)
    assert C.levels and all(vecs == [] for _, vecs in C.levels)
    assert C.twists == twists
    with pytest.raises(ValueError, match="consumed by minimalize"):
        read(C)


def test_a_complex_on_a_consumed_frame_fails_loudly(qq):
    # a second complex on the same vec lists shares their emptying, the
    # one mark of a consumed frame, so its emptied lists do not read as a
    # minimal complex
    ring = ring_for(4, qq, vars="x")
    C = schreyer_frame(module_presentation("N", ring))
    other = FreeComplex(ring, C.twists, C.levels)
    minimalize(C)
    for read in (other.check, other.is_minimal, lambda: dense_diffs(other),
                 lambda: complex_betti(other), lambda: minimalize(other),
                 lambda: strand_betti(other)):
        with pytest.raises(ValueError, match="consumed by minimalize"):
            read()


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
    assert C.twists == [[]] and dense_diffs(C) == []
    assert complex_betti(C).data == {}


@pytest.mark.parametrize("route", ["free_resolution", "minimalize"])
def test_a_surviving_unit_is_refused(route, qq, monkeypatch):
    # contract nothing: the unit relation of the presentation survives
    monkeypatch.setattr(resolutions, "_contract_units",
                        lambda mats, k, order, alive: None)
    ring = ring_for(4, qq, vars="x")
    pres = GradedMatrix(ring, [[ring.one(), ring.x(1, 2)]], [(0, 0)],
                        [(0, 0), (1, 0)])
    with pytest.raises(AssertionError, match="unit entry survived"):
        if route == "free_resolution":
            free_resolution(pres, max_len=3)
        else:
            minimalize(complex_of_matrices(
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
    frame = complex_of_matrices(ring, twists, [d1, d2])
    table = strand_betti(frame)  # the rank route first: minimalize consumes
    minC, B = minimalize(frame)
    assert minC.twists == [[(0, 0)] * 2, [(1, 0)] * 3, [(2, 0)]]
    assert [d.entries for d in dense_diffs(minC)] == [
        [[a, -b, z], [z, z, b]], [[b], [a], [z]]]
    assert B == complex_betti(minC) == table


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
    complex_of_matrices(ring, twists, _koszul_maps(ring, -1))
    with pytest.raises(ValueError, match="composite d_1 o d_2 is nonzero"):
        complex_of_matrices(ring, twists, _koszul_maps(ring, 1))


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
    got = composite(H[0], order_next, G, order)
    assert got == ((order.key(0, a.lm()), want) if want else ())
    if want:
        with pytest.raises(ValueError,
                           match="composite d_1 o d_2 is nonzero"):
            complex_of_matrices(ring, twists, diffs)
    else:
        complex_of_matrices(ring, twists, diffs)


def test_composite_is_a_descending_vec(qq):
    # the smaller term is summed first, and still comes out last
    ring = ring_for(4, qq, vars="x")
    small, large = sorted((ring.x(1, 2), ring.x(1, 3)), key=lambda p: p.lm())
    d1 = GradedMatrix(ring, [[small, large]], [(0, 0)], [(1, 0)] * 2)
    d2 = GradedMatrix(ring, [[ring.one()], [ring.const(-2)]], [(1, 0)] * 2,
                      [(1, 0)])
    (G, order), (H, order_next) = (vecs_of_matrix(d) for d in (d1, d2))
    assert composite(H[0], order_next, G, order) == (
        order.key(0, large.lm()), -2, order.key(0, small.lm()), 1)


def test_composite_refuses_orders_given_the_wrong_way_round(qq):
    # the shift of a term is read off its key, which takes order_next's
    # monomials at least as far up as order's
    ring = ring_for(4, qq, vars="x")
    (order, G), (order_next, H) = \
        schreyer_frame(module_presentation("N", ring)).levels[:2]
    assert order_next.mshift > order.mshift
    assert not composite(H[0], order_next, G, order)
    with pytest.raises(ValueError, match="packs its monomials below"):
        composite(G[0], order, H, order_next)


def test_a_complex_refuses_a_level_over_another_ring():
    # over GF(2) the Koszul composite x13*x12 + x12*x13 vanishes; the
    # complex is labelled QQ, where it does not
    gf2 = ring_for(4, GF(2), vars="x")
    d1, d2 = _koszul_maps(gf2, 1)
    levels = [(order, vecs) for vecs, order in map(vecs_of_matrix, (d1, d2))]
    twists = [[(0, 0)], [(1, 0)] * 2, [(2, 0)]]
    FreeComplex(gf2, twists, levels)
    with pytest.raises(ValueError, match="differential 1 is over "
                                         r"PolyRing\(GF\(2\)"):
        FreeComplex(ring_for(4, QQ, vars="x"), twists, levels)


def test_a_complex_needs_one_twist_list_per_module(qq):
    ring = ring_for(4, qq, vars="x")
    with pytest.raises(ValueError,
                       match="need exactly one twist list per module"):
        FreeComplex(ring, [[(0, 0)], [(1, 0)]], [])


def test_complex_betti_refuses_a_frame_with_units(qq):
    ring = ring_for(4, qq, vars="x")
    pres = GradedMatrix(ring, [[ring.one(), ring.x(1, 2)]], [(0, 0)],
                        [(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="complex is not minimal"):
        complex_betti(schreyer_frame(pres))


def test_strand_betti_refuses_a_negative_homology_dimension(qq, monkeypatch):
    # one strand reported with more rank than its level has columns
    real = resolutions._strand_ranks

    def over_reporting(order, vecs, col_twists):
        ranks = real(order, vecs, col_twists)
        ranks[col_twists[0]] = len(vecs) + 1
        return ranks
    monkeypatch.setattr(resolutions, "_strand_ranks", over_reporting)
    pres = module_presentation("N", ring_for(4, qq, vars="x"))
    with pytest.raises(AssertionError,
                       match="negative strand homology dimension"):
        ladder_betti(pres)


def test_check_rejects_a_twist_mismatch(qq):
    ring = ring_for(4, qq, vars="x")
    d1, d2 = _koszul_maps(ring, -1)
    twists = [[(0, 0)], [(1, 0)] * 2, [(3, 0)]]
    with pytest.raises(ValueError,
                       match="differential 2 does not match the twist data"):
        complex_of_matrices(ring, twists, [d1, d2])
    with pytest.raises(ValueError, match=r"entry \(0,0\) has bidegree"):
        GradedMatrix(ring, d2.entries, d2.row_degs, [(3, 0)])
    levels = [(order, vecs) for vecs, order in map(vecs_of_matrix, (d1, d2))]
    with pytest.raises(ValueError, match="column 0 of differential 2 has bidegree"):
        FreeComplex(ring, twists, levels)


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_free_resolution_rejects_a_corrupted_ladder(char, monkeypatch):
    real = resolutions.schreyer_resolution

    def corrupted(*args, **kw):
        # add one to the last coefficient of the first syzygy
        levels, truncated = real(*args, **kw)
        order, els = levels[1]
        field = order.ring.field
        key, c = els[0][-2:]
        c = field.add(c, field.one())
        last = () if field.is_zero(c) else (key, c)
        levels[1] = (order, [els[0][:-2] + last] + list(els[1:]))
        return levels, truncated

    monkeypatch.setattr(resolutions, "schreyer_resolution", corrupted)
    ring = ring_for(4, GF(char) if char else QQ, vars="xt")
    pres = module_presentation("RJ", ring)
    # the frame is checked when built, whichever route reads it
    for route in (lambda: free_resolution(pres, max_len=len(ring.names)),
                  lambda: ladder_betti(pres)):
        with pytest.raises(ValueError,
                           match="composite d_1 o d_2 is nonzero"):
            route()


# -- the nested minimalization, kept as a reference ---------------------------

def minimalize_reference(C):
    """Reference: `minimalize` on a nested copy of the frame, each column
    a {row: {packed monomial: coeff}} dict with every key decoded.  Same
    pivot order and per-entry arithmetic as `minimalize`."""
    ring = C.ring
    mats = []
    for order, vecs in C.levels:
        cols = [{} for _ in vecs]
        for col, v in zip(cols, vecs):
            for key, c in terms(v):
                col.setdefault(order.comp(key), {})[order.mono(key)] = c
        mats.append(cols)
    alive = _contract_units_reference(mats, C.twists, ring.field,
                                      ring.codec.one)
    keep = [[i for i, a in enumerate(al) if a] for al in alive]
    twists = [[tw[i] for i in kp] for tw, kp in zip(C.twists, keep)]
    while len(twists) > 1 and not twists[-1]:
        twists.pop()
    levels = []
    for k in range(len(twists) - 1):
        pos = {i: p for p, i in enumerate(keep[k])}
        order = FreeModuleOrder(ring, len(twists[k]), twists=twists[k])
        levels.append((order, [
            flat(sorted(((order.key(pos[i], m), c) for i, e in
                         mats[k][j].items() for m, c in e.items()),
                        reverse=True))
            for j in keep[k + 1]]))
    out = FreeComplex(ring, twists, levels)
    if not out.is_minimal():
        raise AssertionError("unit entry survived minimalization")
    return out, out.betti()


def _contract_units_reference(mats, twists, field, one):
    p = field.char
    alive = [[True] * len(tw) for tw in twists]
    rows = []   # rows[k][i]: columns of mats[k] with an entry in row i
    for k, cols in enumerate(mats):
        idx = [set() for _ in twists[k]]
        for j, col in enumerate(cols):
            for i in col:
                idx[i].add(j)
        rows.append(idx)

    for k, cols in enumerate(mats):
        rowidx = rows[k]
        heap = [(i, j) for j, col in enumerate(cols)
                for i, e in col.items() if one in e]
        heapify(heap)
        while heap:
            r, c = heappop(heap)
            if not (alive[k][r] and alive[k + 1][c]):
                continue
            pivcol = cols[c]
            u = pivcol.get(r)
            if u is None or one not in u:
                continue
            uinv = field.inv(u[one])
            pivrow = [(j, cols[j][r]) for j in rowidx[r] if j != c]
            for i, a in pivcol.items():
                if i == r:
                    continue
                facs = [(ma - one, -ca * uinv) for ma, ca in a.items()]
                rowi = rowidx[i]
                for j, q in pivrow:
                    col = cols[j]
                    e = col.setdefault(i, {})
                    rowi.add(j)
                    for base, nfac in facs:
                        for mq, cq in q.items():
                            m = base + mq
                            y = e.get(m, 0) + nfac * cq
                            if p:
                                y %= p
                            if y:
                                e[m] = y
                            else:
                                del e[m]
                    if not e:
                        del col[i]
                        rowi.discard(j)
                    elif one in e:
                        heappush(heap, (i, j))
            for j in rowidx[r]:
                del cols[j][r]
            rowidx[r] = set()
            for i in pivcol:
                rowidx[i].discard(c)
            cols[c] = {}
            alive[k][r] = alive[k + 1][c] = False
            if k > 0:
                for i in mats[k - 1][r]:
                    rows[k - 1][i].discard(r)
                mats[k - 1][r] = {}
            if k + 1 < len(mats):
                for j in rows[k + 1][c]:
                    del mats[k + 1][j][c]
                rows[k + 1][c] = set()
    return alive


def _frame_complex(name, f, char, seed):
    """The Schreyer frame of the module's presentation, as a new
    FreeComplex on each call (minimalize consumes it), with the
    presentation's columns shuffled by `seed` (0 keeps the order the
    command line uses)."""
    ring, twists, levels = _frame_data(name, f, char, seed)
    return FreeComplex(ring, twists, [(order, list(vecs))
                                      for order, vecs in levels])


@lru_cache(maxsize=None)
def _frame_data(name, f, char, seed):
    """(ring, twists, levels) of the frame `_frame_complex` wraps.  RJ
    lives over the full ring, A and N over the x-variable ring."""
    ring = ring_for(f, GF(char) if char else QQ,
                    vars="xt" if name == "RJ" else "x")
    pres = module_presentation(name, ring)
    cols = list(range(pres.ncols))
    if seed:
        random.Random(seed).shuffle(cols)
    pres = GradedMatrix(ring, [[row[j] for j in cols] for row in pres.entries],
                        pres.row_degs, [pres.col_degs[j] for j in cols])
    frame = schreyer_frame(pres)
    return ring, frame.twists, tuple((order, tuple(vecs))
                                     for order, vecs in frame.levels)


def _terms_with_types(C):
    return [[[(key, c, type(c)) for key, c in terms(v)] for v in vecs]
            for _, vecs in C.levels]


@pytest.mark.parametrize("char", [0, 2, 32003])
@pytest.mark.parametrize("name,f", [(name, f) for name in ("A", "N", "RJ")
                                    for f in (4, 5)])
def test_minimalize_matches_the_nested_reference(name, f, char):
    for seed in (0, 1, 7):
        frame = _frame_complex(name, f, char, seed)
        # both readers first: minimalize consumes the frame
        table = strand_betti(frame)
        want, want_B = minimalize_reference(frame)
        got, got_B = minimalize(frame)
        assert got.twists == want.twists
        assert [order.twists for order, _ in got.levels] == \
            [order.twists for order, _ in want.levels]
        assert _terms_with_types(got) == _terms_with_types(want)
        assert got_B == want_B == table
        # every level's vec list was emptied in place, and the other
        # route refuses the consumed frame
        assert frame.levels and all(vecs == [] for _, vecs in frame.levels)
        with pytest.raises(ValueError, match="consumed by minimalize"):
            strand_betti(frame)


def _traced_peak(fn, arg):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = fn(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del out
    return peak


@pytest.mark.parametrize("name,char", [("RJ", 32003), ("N", 32003),
                                       ("RJ", 0)])
def test_minimalize_working_set_is_smaller_than_the_nested_copy(name, char):
    frame = _frame_complex(name, 5, char, 0)
    reference = _traced_peak(minimalize_reference, frame)
    peak = _traced_peak(minimalize, frame)
    assert peak <= 0.36 * reference, (peak, reference)


def _coefficient_counts(C):
    """Per level, (distinct coefficient objects, distinct values)."""
    out = []
    for _, vecs in C.levels:
        cs = [c for v in vecs for c in v[1::2]]
        out.append((len({id(c) for c in cs}), len(set(cs))))
    return out


@pytest.mark.parametrize("char", [0, 32003])
def test_each_level_holds_one_coefficient_object_per_value(char):
    # interreduce shares them in the frame, _minimal_level in the
    # minimal complex
    ring = ring_for(5, GF(char) if char else QQ, vars="xt")
    frame = schreyer_frame(module_presentation("RJ", ring))
    counts = _coefficient_counts(frame)
    minC, _ = minimalize(frame)
    for objects, values in counts + _coefficient_counts(minC):
        assert objects == values


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_every_level_holds_flat_vecs(char):
    """Each vec of the f = 5 RJ frame and of its minimal complex is one
    flat tuple (k0, c0, k1, c1, ...): even length, int keys strictly
    descending, no zero coefficient, and no tuple per term."""
    field = GF(char) if char else QQ
    ring = ring_for(5, field, vars="xt")
    frame = schreyer_frame(module_presentation("RJ", ring))
    # copied first: minimalize empties the frame's vec lists
    levels = [list(vecs) for _, vecs in frame.levels]
    minC, _ = minimalize(frame)
    levels += [vecs for _, vecs in minC.levels]
    for vecs in levels:
        assert vecs
        for v in vecs:
            assert type(v) is tuple and len(v) % 2 == 0
            keys, coeffs = v[::2], v[1::2]
            assert all(type(k) is int for k in keys)
            assert all(a > b for a, b in zip(keys, keys[1:]))
            assert not any(field.is_zero(c) for c in coeffs)


# -- the dense strand rank, kept as a reference -------------------------------

def _field_rank(rows, field):
    """Reference: rank of a dense matrix given as lists of field
    elements."""
    if not rows:
        return 0
    rows = [row[:] for row in rows]
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if not field.is_zero(rows[i][c]):
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][c])
        base = rows[rank]
        for i in range(rank + 1, len(rows)):
            if not field.is_zero(rows[i][c]):
                f = field.mul(rows[i][c], inv)
                rowi = rows[i]
                for j in range(c, ncols):
                    rowi[j] = field.add(rowi[j],
                                        field.neg(field.mul(f, base[j])))
        rank += 1
        if rank == len(rows):
            break
    return rank


def _dense_strands(order, vecs, row_twists, col_twists, field):
    """Reference: the constant blocks of one level by bidegree, each a
    dense list of rows over the rows with that twist, zeros filled in."""
    rows_at = {}
    for i, bd in enumerate(row_twists):
        rows_at.setdefault(bd, []).append(i)
    cols_at = {}
    for j, bd in enumerate(col_twists):
        cols_at.setdefault(bd, []).append(j)
    blocks = {}
    for bd, cols in cols_at.items():
        rows = rows_at.get(bd)
        if not rows:
            continue
        rowpos = {i: pos for pos, i in enumerate(rows)}
        block = [[field.zero()] * len(cols) for _ in rows]
        for pos, j in enumerate(cols):
            for key, c in terms(vecs[j]):
                if order.mono(key) == order.one:
                    block[rowpos[order.comp(key)]][pos] = c
        blocks[bd] = block
    return blocks


@pytest.mark.parametrize("name,f,char", [
    (name, f, char) for name in ("A", "N", "RJ") for f in (4, 5)
    for char in (0, 2, 32003)] + [("N", 6, 32003), ("RJ", 6, 32003)])
def test_strand_ranks_match_the_dense_reference(name, f, char):
    ring, twists, levels = _frame_data(name, f, char, 0)
    field = ring.field
    nonzero = 0
    for k, (order, vecs) in enumerate(levels):
        want = {bd: _field_rank(rows, field) for bd, rows in
                _dense_strands(order, vecs, twists[k], twists[k + 1],
                               field).items()}
        got = resolutions._strand_ranks(order, vecs, twists[k + 1])
        assert got == {bd: r for bd, r in want.items() if r}
        nonzero += len(got)
    # a strand has positive rank exactly where the frame has a unit
    assert bool(nonzero) == any(order.mono(key) == order.one
                                for order, vecs in levels
                                for v in vecs for key in v[::2])


def test_a_rational_strand_with_a_dependent_column_and_a_non_unit_pivot():
    cols = [{1: 2, 2: 3}, {1: 4, 2: 6}, {1: 3, 2: 5}, {2: 7}]
    dense = [[col.get(i, 0) for col in cols] for i in range(3)]
    assert resolutions._sparse_rank(cols, QQ) == 2 == _field_rank(dense, QQ)
    # eliminated in place: the second and fourth columns vanish, and the
    # third keeps 5 - (3/2) * 3 at row 2
    assert cols == [{1: 2, 2: 3}, {}, {2: Fraction(1, 2)}, {}]
    assert type(cols[2][2]) is Fraction
