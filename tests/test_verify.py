"""Verification driver: grids, determinism, budgets, report formats."""

import json

import pytest

from pfaffcalc import constructions, homology, resolutions, verify
from pfaffcalc.betti import BettiTable
from pfaffcalc.exterior import ExteriorElement
from pfaffcalc.groebner import HilbertData
from pfaffcalc.rings import PolyRing
from pfaffcalc.verify import (ERROR, FAIL, PASS, SKIPPED, SUITE_NAMES,
                              CheckFailure, CheckResult, SuiteReport,
                              run_suite)

EXPECTED_SUITES = (
    "exterior-identities",
    "complex-closure",
    "grades",
    "exactness",
    "resolutions",
    "gorenstein",
    "localization",
    "char-anomaly",
)


def test_suite_registry():
    assert SUITE_NAMES == EXPECTED_SUITES


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


def test_identity_suite_small_grid():
    rep = run_suite("exterior-identities", fs=[4], chars=[32003], seed=3)
    assert rep.status == "pass"
    assert rep.checks
    for c in rep.checks:
        assert c.verdict == PASS
        assert c.name and c.claim
        assert c.seconds is not None


def test_json_output_is_deterministic():
    a = run_suite("exterior-identities", fs=[4], chars=[32003], seed=11)
    b = run_suite("exterior-identities", fs=[4], chars=[32003], seed=11)
    assert a.to_json() == b.to_json()
    obj = json.loads(a.to_json())
    assert obj["suite"] == "exterior-identities"
    assert obj["grid"] == {"f": [4], "char": [32003], "seed": 11}
    assert obj["status"] == "pass"
    # timings vary run to run and must stay out of the JSON
    assert "seconds" not in json.dumps(obj)


def test_zero_budget_goes_incomplete():
    rep = run_suite("grades", fs=[4], chars=[0], budget_seconds=0)
    assert rep.status == "incomplete"
    assert all(c.verdict == SKIPPED for c in rep.checks)
    assert all(c.seconds is None for c in rep.checks)


@pytest.mark.parametrize("suite,fs", [
    pytest.param("grades", [9], id="grades-f9"),
    pytest.param("grades", [], id="grades-no-f"),
    pytest.param("char-anomaly", [4], id="char-anomaly-f4"),
])
def test_a_grid_that_selects_no_check_is_refused(suite, fs):
    # a report of no checks would read "pass" on nothing
    with pytest.raises(ValueError, match="selects no check of suite"):
        run_suite(suite, fs=fs)


@pytest.mark.parametrize("fs,chars,what", [
    pytest.param([4, 4], [0], "f", id="f"),
    pytest.param([4], [0, 0], "char", id="char"),
])
def test_a_grid_that_repeats_a_value_is_refused(fs, chars, what):
    # each check would run twice under one name
    with pytest.raises(ValueError, match="repeats a value of %s" % what):
        run_suite("grades", fs=fs, chars=chars)


def test_grid_restriction_drops_unsupported_values():
    rep = run_suite("grades", fs=[2, 4], chars=[0])
    assert rep.fs == [2, 4]
    names = [c.name for c in rep.checks]
    assert any("f=2" in n for n in names)
    assert all("f=3" not in n for n in names)
    # the pfaffian ideal alone has no supported f=2 check
    assert any(n.startswith("codim-pfaffians[f=4") for n in names) or \
        any("pfaffian" in n for n in names)


def test_status_ordering():
    mk = lambda v: CheckResult("n", "c", v, "", None)
    assert SuiteReport("s", [4], [0], 0, [mk(PASS)]).status == "pass"
    assert SuiteReport("s", [4], [0], 0, [mk(PASS), mk(SKIPPED)]).status \
        == "incomplete"
    assert SuiteReport("s", [4], [0], 0,
                       [mk(PASS), mk(SKIPPED), mk(FAIL)]).status == "fail"
    assert SuiteReport("s", [4], [0], 0,
                       [mk(PASS), mk(SKIPPED), mk(ERROR)]).status == "error"
    assert SuiteReport("s", [4], [0], 0,
                       [mk(ERROR), mk(FAIL)]).status == "fail"
    assert SuiteReport("s", [4], [0], 0, []).status == "pass"


def _raise(exc):
    raise exc


def test_crashed_check_is_an_error_not_a_fail(monkeypatch):
    checks = [verify._Check("crash", "c",
                            lambda: _raise(ValueError("no pivot"))),
              verify._Check("after", "c", lambda: "ran")]
    monkeypatch.setitem(verify._SUITE_BUILDERS, "grades",
                        (lambda fs, chars, seed: checks, (4,), (0,)))
    rep = run_suite("grades")
    assert [(c.verdict, c.detail) for c in rep.checks] == [
        (ERROR, "ValueError: no pivot"), (PASS, "ran")]
    assert rep.status == "error"
    obj = json.loads(rep.to_json())
    assert obj["status"] == "error"
    assert obj["checks"][0]["verdict"] == "error"
    assert "1 error" in rep.to_text().splitlines()[2]
    # a certified failure still outranks a crash
    checks.append(verify._Check("refuted", "c",
                                lambda: _raise(CheckFailure("no"))))
    rep = run_suite("grades")
    assert [c.verdict for c in rep.checks] == [ERROR, PASS, FAIL]
    assert rep.status == "fail"


def _counting(monkeypatch, calls, routes=("minimalize", "strand_betti")):
    """Record each Schreyer frame verify builds, and each call of the
    named route functions, as (function, variables, presentation
    columns, characteristic); a route call is matched to the frame
    object it received."""
    frames = []  # (frame, shape), kept alive so identities stay unique
    real_frame = verify.schreyer_frame

    def frame(pres):
        out = real_frame(pres)
        shape = (len(pres.ring.names), pres.ncols, pres.ring.field.char)
        frames.append((out, shape))
        calls.append(("schreyer_frame",) + shape)
        return out
    monkeypatch.setattr(verify, "schreyer_frame", frame)

    def counting(name):
        real = getattr(verify, name)

        def counted(fr):
            calls.append((name,) + next(s for f, s in frames if f is fr))
            return real(fr)
        return counted
    for name in routes:
        monkeypatch.setattr(verify, name, counting(name))


def test_resolution_tables_are_computed_once_per_run(monkeypatch):
    """Six checks of the f = 4 resolutions suite over QQ ask for the
    tables of RJ (three times), N (twice) and A (once); each table's
    frame is built once per run and read by both routes, and all of it
    happens again in the next run.  The rank-oracle check reads the RJ
    presentation from the same cache, so each module is presented once
    per run."""
    calls = []
    _counting(monkeypatch, calls)
    presented = []
    real_presentation = verify.module_presentation

    def presentation(module, ring):
        presented.append(module)
        return real_presentation(module, ring)
    monkeypatch.setattr(verify, "module_presentation", presentation)
    first = run_suite("resolutions", fs=[4], chars=[0])
    assert first.status == "pass" and len(first.checks) == 4
    assert sorted(presented) == ["A", "N", "RJ"]
    # (variables, presentation columns, characteristic): RJ 10 and 5,
    # N 6 and 8, A 6 and 1, all over QQ
    shapes = ((10, 5, 0), (6, 8, 0), (6, 1, 0))
    assert sorted(c for c in calls if c[0] == "schreyer_frame") == \
        sorted(("schreyer_frame",) + shape for shape in shapes)
    assert sorted(calls) == sorted(
        (name,) + shape for name in ("schreyer_frame", "minimalize",
                                     "strand_betti")
        for shape in shapes)
    assert verify._TABLES == {}
    second = run_suite("resolutions", fs=[4], chars=[0])
    assert len(calls) == 18
    assert second.to_json() == first.to_json()
    assert verify._TABLES == {}


def test_a_table_whose_routes_disagree_is_not_kept(monkeypatch):
    calls = []
    _counting(monkeypatch, calls, routes=("minimalize",))
    monkeypatch.setattr(verify, "strand_betti", lambda frame: BettiTable())
    rep = run_suite("resolutions", fs=[4], chars=[0])
    assert [c.verdict for c in rep.checks] == [FAIL] * 4
    assert all(c.detail.startswith("matrix-route and rank-route Betti tables "
                                   "disagree") for c in rep.checks)
    # every check that asked for a table built its frame and resolved it
    # again
    assert [c[0] for c in calls] == ["schreyer_frame", "minimalize"] * 4
    assert verify._TABLES == {}


def test_a_resolution_longer_than_claimed_is_a_fail(monkeypatch):
    # with every claimed length one short, the true resolutions are one
    # longer than claimed: a certified fail, not an error
    real = verify.comb
    monkeypatch.setattr(verify, "comb", lambda n, k: real(n, k) - 1)
    rep = run_suite("resolutions", fs=[5], chars=[32003])
    assert [(c.name, c.verdict, c.detail) for c in rep.checks] == [
        ("bigraded-quotient-resolution[f=5,GF(32003)]", FAIL,
         "length 5, expected 4"),
        ("cokernel-projective-dimension[f=5,GF(32003)]", FAIL,
         "projective dimension 3, expected 2")]


# N at f = 5: 10 variables, 10 differential columns and 5 * 5 Pfaffian ones
_N5 = [(10, 35, 2), (10, 35, 0)]


def test_char_anomaly_resolves_each_table_once_by_both_routes(monkeypatch):
    calls = []
    _counting(monkeypatch, calls)
    rep = run_suite("char-anomaly")
    assert rep.status == "pass"
    assert sorted(calls) == sorted(
        (name,) + shape for name in ("schreyer_frame", "minimalize",
                                     "strand_betti")
        for shape in _N5)
    assert verify._TABLES == {}


def test_the_rank_route_reads_each_frame_before_the_matrix_route(
        monkeypatch):
    """minimalize consumes its frame, so on every table of a
    resolutions and char-anomaly run, strand_betti reads the frame
    first."""
    calls = []
    _counting(monkeypatch, calls)
    monkeypatch.setattr(verify, "SUITE_NAMES", ("resolutions",
                                                "char-anomaly"))
    rep = run_suite("all")
    assert rep.status == "pass"
    # one frame per shape, so a shape names one frame object
    shapes = [c[1:] for c in calls if c[0] == "schreyer_frame"]
    assert len(shapes) == len(set(shapes)) >= 4
    for shape in shapes:
        assert [c[0] for c in calls if c[1:] == shape] == [
            "schreyer_frame", "strand_betti", "minimalize"]


def _consume_first(monkeypatch):
    real = verify.schreyer_frame

    def consumed(pres):
        frame = real(pres)
        resolutions.minimalize(frame)
        return frame
    monkeypatch.setattr(verify, "schreyer_frame", consumed)


def _consume_between(monkeypatch):
    real = verify.strand_betti

    def read_then_consume(frame):
        table = real(frame)
        resolutions.minimalize(frame)
        return table
    monkeypatch.setattr(verify, "strand_betti", read_then_consume)


@pytest.mark.parametrize("consume", [_consume_first, _consume_between],
                         ids=["before-the-rank-route",
                              "before-the-matrix-route"])
def test_a_consumed_frame_is_an_error_not_a_table(consume, monkeypatch):
    consume(monkeypatch)
    rep = run_suite("resolutions", fs=[4], chars=[0])
    assert [c.verdict for c in rep.checks] == [ERROR] * 4
    assert all("consumed by minimalize" in c.detail for c in rep.checks)
    assert verify._TABLES == {}


def test_char_anomaly_reads_the_tables_of_the_resolutions_suite(monkeypatch):
    """Run together, the projective-dimension checks at f = 5 build the
    two N tables and the char-anomaly check builds no frame of its own;
    its report is the one it makes alone."""
    alone = run_suite("char-anomaly").to_json_obj()["checks"]
    calls = []
    _counting(monkeypatch, calls)
    built = []  # the rank of F_0 of every ladder, whoever asks for it
    real_ladder = resolutions.schreyer_resolution

    def ladder(*args, **kw):
        built.append(args[1].rank)
        return real_ladder(*args, **kw)
    monkeypatch.setattr(resolutions, "schreyer_resolution", ladder)
    monkeypatch.setattr(verify, "SUITE_NAMES", ("resolutions",
                                                "char-anomaly"))
    rep = run_suite("all", fs=[5], chars=[2, 0])
    assert [c.name for c in rep.checks] == [
        "cokernel-projective-dimension[f=5,GF(2)]",
        "bigraded-quotient-resolution[f=5,QQ]",
        "cokernel-projective-dimension[f=5,QQ]",
        "presentation-depends-on-characteristic[f=5]"]
    assert rep.status == "pass"
    assert rep.to_json_obj()["checks"][-1:] == alone
    frames = [c[1:] for c in calls if c[0] == "schreyer_frame"]
    # RJ at f = 5: 15 variables, 5 Pfaffians and 5 entries of t*X
    assert sorted(frames) == sorted(_N5 + [(15, 10, 0)])
    assert sorted(built) == [1, 5, 5]  # RJ once, N twice: nothing more


def test_pfaffians_are_built_once_per_ring_per_run(monkeypatch):
    calls = []  # (ring, list returned)
    real = constructions.pfaffian_gens

    def recorded(ring):
        gens = real(ring)
        calls.append((ring, gens))
        return gens
    monkeypatch.setattr(constructions, "pfaffian_gens", recorded)
    runs = []
    for _ in range(2):
        start = len(calls)
        assert run_suite("grades", fs=[4, 5], chars=[0, 32003]).status == \
            "pass"
        assert constructions._PFAFFIANS == {}
        built = {}
        for ring, gens in calls[start:]:
            first = built.setdefault(ring, gens)
            if gens is not first:  # a fresh list of the same polynomials
                assert len(gens) == len(first) and all(
                    a is b for a, b in zip(gens, first))
        assert len(built) == 4 and len(calls) - start > len(built)
        # every call got a list of its own
        assert len({id(gens) for _, gens in calls[start:]}) == \
            len(calls) - start
        runs.append(built)
    # the second run built every ring's generators again
    assert all(runs[1][ring][0] is not gens[0]
               for ring, gens in runs[0].items())


def test_text_report_shape():
    rep = run_suite("grades", fs=[2], chars=[0], seed=0)
    text = rep.to_text()
    lines = text.splitlines()
    assert lines[0] == "suite: grades"
    assert lines[1].startswith("grid: f=2 char=0 seed=0")
    assert lines[2].startswith("status: pass")
    assert sum(1 for ln in lines if ln.startswith("  ")) >= len(rep.checks)


def test_exactness_suite_small_grid():
    rep = run_suite("exactness", fs=[2, 3], chars=[2], seed=0)
    assert rep.status == "pass"
    names = [c.name for c in rep.checks]
    assert any("seq43" in n and "f=2" in n for n in names)


def test_closure_suite_small_grid():
    rep = run_suite("complex-closure", fs=[3], chars=[0], seed=0)
    assert rep.status == "pass"
    # the two-map relation complex needs f >= 4, so only composites run
    assert all("composites-vanish" in c.name for c in rep.checks)


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("name,f,k", [("precplx", 4, 0), ("precplx", 4, 1),
                                      ("seq32", 3, 2)])
def test_closure_rejects_a_perturbed_map(name, f, k, char, monkeypatch):
    # doubling the first nonzero entry of maps[k + 1] moves a composite
    # column at position k out of the designated relations
    real = verify.build_complex

    def perturbed(name, ring):
        C = real(name, ring)
        M = C.maps[k + 1]
        ent = [list(row) for row in M.entries]
        i, j = next((i, j) for j in range(M.ncols) for i in range(M.nrows)
                    if not ent[i][j].is_zero())
        ent[i][j] = ent[i][j].scale(ring.field.from_int(2))
        C.maps[k + 1] = constructions.GradedMatrix(ring, ent, M.row_degs,
                                                   M.col_degs)
        return C

    verify._closure_complex(name, f, char)
    monkeypatch.setattr(verify, "build_complex", perturbed)
    with pytest.raises(CheckFailure,
                       match="a composite column at position %d lies "
                             "outside the designated relations" % k):
        verify._closure_complex(name, f, char)


@pytest.mark.parametrize("char", [0, 32003])
def test_relation_maps_reject_a_perturbed_entry(char, monkeypatch):
    # doubling an entry of D2 that meets a nonzero entry of D1's row
    # leaves a nonzero composite
    real = verify.map_matrix

    def perturbed(name, ring):
        M = real(name, ring)
        if name != "D2":
            return M
        row = real("D1", ring).entries[0]
        ent = [list(r) for r in M.entries]
        i, j = next((i, j) for j in range(M.ncols) for i in range(M.nrows)
                    if not (row[i].is_zero() or ent[i][j].is_zero()))
        ent[i][j] = ent[i][j].scale(ring.field.from_int(2))
        return constructions.GradedMatrix(ring, ent, M.row_degs, M.col_degs)

    assert verify._closure_relation_maps(4, char) == \
        "composite is the zero 1x20 matrix"
    monkeypatch.setattr(verify, "map_matrix", perturbed)
    with pytest.raises(CheckFailure, match="the composite of the two "
                                           "relation maps is a nonzero"):
        verify._closure_relation_maps(4, char)


def test_all_runs_every_suite_in_order():
    rep = run_suite("all", fs=[4], chars=[0], budget_seconds=0)
    assert rep.suite == "all"
    assert rep.status == "incomplete"
    # at least one check from each suite family must be on the list
    assert len(rep.checks) > 8
    # a grid is judged empty per run: char-anomaly selects nothing at
    # f = 4, and the run still goes ahead
    assert not any(c.name.startswith("presentation-depends")
                   for c in rep.checks)


# -- a mutant for every check family ------------------------------------------
#
# Each mutant plants one fault, by monkeypatch, in a function or method
# that the checks call.  Run over the whole f = 4 grid at one
# characteristic, exactly the families the fault concerns must read fail,
# and nothing else may move: no error, no other fail.

def _wrap(monkeypatch, owner, name, mutate):
    """Replace owner.name by a function that returns mutate(result, *args)
    of the original."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *args: mutate(real(*args), *args))


def _first_entry_plus(B, n):
    """A copy of the Betti table B with n added to its first entry, in
    key order; B itself is shared with other checks and stays as it
    was."""
    data = dict(B.data)
    data[min(data)] += n
    return BettiTable(data)


def _one_generator_moved_up(B):
    """A copy of B with one generator of its first entry moved up one
    x-degree."""
    i, (a, b) = min(B.data)
    out = _first_entry_plus(B, -1)
    out.add(i, (a + 1, b))
    return out


def _d2_column0_negated(M, name, ring):
    if name != "D2":
        return M
    ent = [list(r) for r in M.entries]
    i = next(i for i, row in enumerate(ent) if not row[0].is_zero())
    ent[i][0] = -ent[i][0]
    return constructions.GradedMatrix(ring, ent, M.row_degs, M.col_degs)


def _unit_kernel_vector_added(out, *args):
    vecs, order = out
    return vecs + [(order.key(0, order.one), order.ring.field.one())], order


def _square_term_dropped(monkeypatch):
    # only in squares over field scalars, which the exterior identities
    # sample: the square of the generic form over the polynomial ring
    # gives the Pfaffian generators, whose one f = 4 term a dropped term
    # would zero, failing the families built on them too
    raw = ExteriorElement.divided_power

    def dropped(self):
        sq = raw(self)
        if isinstance(self.ring, PolyRing):
            return sq
        return sq._new(dict(list(sq.terms.items())[1:]))
    monkeypatch.setattr(ExteriorElement, "divided_power", dropped)


def _negated_on_field_scalars(side, k, other_k):
    """A mutate for `_wrap` on an ExteriorElement product: the result
    negated where a degree-k element of `side` meets one of degree
    other_k over field scalars, which only the exterior identities
    sample; the polynomial-ring complexes of the other suites stay as
    built."""
    def mutate(out, self, other):
        if isinstance(self.ring, PolyRing) or \
                (self.side, self.k, other.k) != (side, k, other_k):
            return out
        return -out
    return mutate


MUTANTS = [
    pytest.param(
        lambda mp: _wrap(mp, verify, "oracle_betti",
                         lambda B, pres: _first_entry_plus(B, 1)),
        {"betti-against-rank-oracle"}, id="oracle-entry-plus-one"),
    pytest.param(
        lambda mp: _wrap(mp, verify, "mapping_cone_betti",
                         lambda B, *tables: _first_entry_plus(B, -1)),
        {"iterated-cone-assembly"}, id="cone-entry-minus-one"),
    pytest.param(
        lambda mp: _wrap(mp, verify, "map_matrix", _d2_column0_negated),
        {"relation-maps-compose-to-zero"}, id="d2-entry-negated"),
    pytest.param(
        lambda mp: _wrap(mp, verify, "determinant_oracle",
                         lambda det, M: det + 1),
        {"pfaffian-squares-to-determinant"}, id="determinant-plus-one"),
    pytest.param(
        lambda mp: mp.setattr(
            verify, "betti_palindrome_check",
            lambda B, codim, real=verify.betti_palindrome_check: real(
                _one_generator_moved_up(B), codim)),
        {"self-dual-cokernel-table", "self-dual-quotient-table"},
        id="palindrome-generator-moved-up"),
    pytest.param(
        lambda mp: _wrap(mp, homology, "kernel_over_quotient",
                         _unit_kernel_vector_added),
        {"homology-vanishes"}, id="kernel-unit-vector-added"),
    pytest.param(
        lambda mp: _wrap(mp, verify, "s1_s2_sets", lambda s, ring: (
            s[0], s[1] + [ring.x(1, 2)])),
        {"local-generators-membership"}, id="pivot-variable-in-s2"),
    pytest.param(
        lambda mp: _wrap(mp, verify, "s1_s2_sets", lambda s, ring: (
            s[0], s[1][:-1])),
        {"pivot-square-inversion"}, id="s2-generator-dropped"),
    pytest.param(
        lambda mp: mp.setattr(
            verify, "saturation_member",
            lambda gens, f, g, bound, real=verify.saturation_member: real(
                gens, f, g, 0)),
        {"pivot-power-saturation"}, id="saturation-search-stops-at-zero"),
    pytest.param(
        lambda mp: _wrap(mp, verify, "ideal_quotient",
                         lambda quot, gens, f: quot + [f]),
        {"pfaffian-colon-regularity", "combined-colon-regularity"},
        id="colon-gains-its-divisor"),
    pytest.param(
        lambda mp: _wrap(mp, verify, "dimension_codim",
                         lambda hd, ideal: HilbertData(hd.dim, hd.codim + 1,
                                                       hd.numerator)),
        {"codim-sum-ideal", "codim-pfaffian-ideal",
         "codim-partial-row-ideal"}, id="codim-plus-one"),
    pytest.param(
        _square_term_dropped,
        {"double-contraction-divided-square", "divided-power-derivation",
         "half-factorization"}, id="square-term-dropped"),
    # the Leibniz shapes are the only vector actions on a 2-coform, the
    # three-term rule the only wedge of a 2-coform with a coform, and
    # the pairing the only action of a 3-form on a 3-coform
    pytest.param(
        lambda mp: _wrap(mp, ExteriorElement, "act",
                         _negated_on_field_scalars("primal", 1, 2)),
        {"contract-vector-leibniz"}, id="vector-on-2-coform-negated"),
    pytest.param(
        lambda mp: _wrap(mp, ExteriorElement, "wedge",
                         _negated_on_field_scalars("dual", 2, 1)),
        {"three-coform-expansion"}, id="coform-wedge-negated"),
    pytest.param(
        lambda mp: _wrap(mp, ExteriorElement, "act",
                         _negated_on_field_scalars("primal", 3, 3)),
        {"pairing-compatibility"}, id="3-form-pairing-negated"),
]


@pytest.fixture(scope="module")
def clean_check_names():
    rep = run_suite("all", fs=[4], chars=[32003])
    assert rep.status == PASS
    return [c.name for c in rep.checks]


@pytest.mark.parametrize("plant,families", MUTANTS)
def test_a_mutant_fails_exactly_its_own_families(plant, families,
                                                  clean_check_names,
                                                  monkeypatch):
    plant(monkeypatch)
    rep = run_suite("all", fs=[4], chars=[32003])
    assert [c.name for c in rep.checks] == clean_check_names
    verdicts = {}
    for c in rep.checks:
        verdicts.setdefault(c.name.split("[")[0], set()).add(c.verdict)
        if c.verdict == FAIL:
            assert c.detail, c.name
    assert verdicts == {family: {FAIL} if family in families else {PASS}
                        for family in verdicts}
    assert families <= set(verdicts)


def test_a_zero_ideal_gets_a_colon_verdict(monkeypatch):
    # every generator zero: the colon ideals are zero too, and comparing
    # two zero ideals is a verdict, not an error
    monkeypatch.setattr(verify, "build_ideal",
                        lambda kind, ring, lam=None: [ring.zero()] * 3)
    rep = run_suite("localization", fs=[4], chars=[32003])
    [check] = [c for c in rep.checks
               if c.name == "pfaffian-colon-regularity[f=4,GF(32003)]"]
    assert check.verdict in (PASS, FAIL), check.detail
