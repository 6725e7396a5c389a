"""Acceptance criteria: one test (and one pass/fail line under -v) per
structural theorem that this package mechanically certifies.

Every criterion is exact — no tolerances anywhere — and each carries the
runtime ceiling it must meet on commodity hardware.
"""

import time
from math import comb

import pytest

from conftest import (RJ4_BIGRADED, RJ4_TOTALS, RJ5_TOTALS, codim_J,
                      is_zero_matrix)
from pfaffcalc.constructions import (build_complex, build_ideal, map_matrix,
                                     mapping_cone_betti, module_presentation)
from pfaffcalc.fields import GF, QQ
from pfaffcalc.groebner import dimension_codim, groebner_basis
from pfaffcalc.homology import (betti_palindrome_check, char2_anomaly_check,
                                homology_is_zero)
from pfaffcalc.linoracle import oracle_betti
from pfaffcalc.resolutions import complex_betti, free_resolution
from pfaffcalc.rings import ring_for
from pfaffcalc.verify import run_suite

FIELDS = {0: QQ, 2: GF(2), 32003: GF(32003)}


def totals(B):
    out = {}
    for (i, _), c in B.data.items():
        out[i] = out.get(i, 0) + c
    return tuple(out[i] for i in range(max(out) + 1))


def resolved_betti(name, f, char):
    vars = "xt" if name == "RJ" else "x"
    ring = ring_for(f, FIELDS[char], vars=vars)
    pres = module_presentation(name, ring)
    C = free_resolution(pres, max_len=len(ring.names))
    return C, complex_betti(C)


_N_CACHE = {}


def n_resolution(f, char):
    key = (f, char)
    if key not in _N_CACHE:
        _N_CACHE[key] = resolved_betti("N", f, char)
    return _N_CACHE[key]


def n_table(f, char):
    """N's presentation and its Betti table by the matrix route."""
    ring = ring_for(f, FIELDS[char], vars="x")
    return module_presentation("N", ring), n_resolution(f, char)[1]


def codim_of(kind, f, char, lam=None):
    ring = ring_for(f, FIELDS[char])
    gens = build_ideal(kind, ring, lam=lam)
    return dimension_codim(groebner_basis(gens, ring)).codim


def test_ac01_grade_table():
    """Exact codimensions of the Pfaffian, lambda, and full ideals."""
    start = time.monotonic()
    for char in (0, 32003):
        for f in (4, 5):
            assert codim_of("I", f, char) == comb(f - 2, 2)
            assert codim_of("J", f, char) == comb(f - 2, 2) + 2
            for lam in range(1, f):
                assert codim_of("Ilambda", f, char, lam=lam) \
                    == comb(f - 2, 2) + lam - 1
        assert codim_of("J", 2, char) == 1
        assert codim_of("J", 3, char) == 2
    assert time.monotonic() - start < 600


def test_ac02_gorenstein_witness():
    """R/J resolves in C(f-2,2)+2 steps ending in rank one; the f = 4
    table matches the independent degreewise linear-algebra oracle."""
    start = time.monotonic()
    for char in (0, 32003):
        C, B = resolved_betti("RJ", 4, char)
        assert C.length == 3
        assert totals(B) == RJ4_TOTALS
        assert totals(B)[-1] == 1
        ring = ring_for(4, FIELDS[char])
        assert oracle_betti(module_presentation("RJ", ring)) == B
    assert time.monotonic() - start < 120
    start = time.monotonic()
    C5, B5 = resolved_betti("RJ", 5, 32003)
    assert C5.length == 5
    assert totals(B5) == RJ5_TOTALS
    assert totals(B5)[-1] == 1
    assert time.monotonic() - start < 1800


@pytest.mark.parametrize("f", [4, 5])
def test_ac03_perfection_of_row_module(f):
    """pd(N) = C(f-2,2) over the x-variable ring, uniformly in the
    characteristic."""
    lengths = set()
    for char in (0, 2, 32003):
        C, _ = n_resolution(f, char)
        lengths.add(C.length)
    assert lengths == {comb(f - 2, 2)}


def test_ac04_exactness_suite():
    """The two finite sequences are exact at every position, including
    the explicit small cases f = 2 and 3."""
    start = time.monotonic()
    for char in (0, 2):
        for f in (4, 5):
            for name in ("seq32", "seq43"):
                C = build_complex(name, ring_for(f, FIELDS[char]))
                for pos in C.exact_positions:
                    assert homology_is_zero(C, pos), (name, f, char, pos)
        for f, name in ((2, "seq43"), (3, "seq32"), (3, "seq43")):
            C = build_complex(name, ring_for(f, FIELDS[char]))
            for pos in C.exact_positions:
                assert homology_is_zero(C, pos), (name, f, char, pos)
    assert time.monotonic() - start < 600


def test_ac05_identity_suite():
    """All multilinear identities hold on 100 seeded trials over
    GF(32003) and 20 over QQ at f in {4,5,6}; Pf^2 = det on 20 random
    6x6 alternating matrices."""
    start = time.monotonic()
    rep = run_suite("exterior-identities", fs=[4, 5, 6], chars=[0, 32003],
                    seed=0)
    assert rep.status == "pass", rep.to_text()
    assert time.monotonic() - start < 30


def test_ac06_complex_closure():
    """The two-level relation matrices compose to zero at f in {4,5};
    all composites of the assembled complexes vanish modulo the
    designated relations at f in {3,4,5}."""
    start = time.monotonic()
    for char in (0, 32003):
        for f in (4, 5):
            ring = ring_for(f, FIELDS[char])
            assert is_zero_matrix(map_matrix("D1", ring)
                                  @ map_matrix("D2", ring))
    rep = run_suite("complex-closure", fs=[3, 4, 5], chars=[0, 32003], seed=0)
    assert rep.status == "pass", rep.to_text()
    assert time.monotonic() - start < 60


def test_ac07_localization_suite():
    """Pivot-row generating sets, pivot-power membership with exponent
    at most 4, and the one-entry colon identities for both ideals."""
    start = time.monotonic()
    rep = run_suite("localization", fs=[4, 5], chars=[0, 32003], seed=0)
    assert rep.status == "pass", rep.to_text()
    assert time.monotonic() - start < 300


def test_ac08_characteristic_two_anomaly():
    """At f = 5 the witness column leaves the column span exactly in
    characteristic 2, the half-coefficient certificate resolves it in
    characteristic 0, and beta_1(N) moves while pd(N) stays 3."""
    start = time.monotonic()
    rep = char2_anomaly_check(*(n_table(5, char) for char in (2, 0)))
    assert rep.ok, "\n".join(rep.lines())
    assert rep.beta1_char2 != rep.beta1_char0
    assert rep.pd_char2 == rep.pd_char0 == 3
    assert time.monotonic() - start < 120


def test_ac09_mapping_cone_formula():
    """The cone of the comparison map assembles the bigraded table of
    R/J at f = 4 from the x-graded tables of A and N."""
    start = time.monotonic()
    _, ba = resolved_betti("A", 4, 0)
    _, bn = n_resolution(4, 0)
    cone = mapping_cone_betti(ba, bn)
    assert cone.data == RJ4_BIGRADED
    _, direct = resolved_betti("RJ", 4, 0)
    assert cone == direct
    assert time.monotonic() - start < 300


@pytest.mark.parametrize("f", [4, 5])
def test_ac10_self_duality_shadow(f):
    """The Betti table of N's minimal resolution is palindromic."""
    _, B = n_resolution(f, 0)
    rep = betti_palindrome_check(B, codim=comb(f - 2, 2))
    assert rep.ok, repr(rep)
