"""Verification driver: grids, determinism, budgets, report formats."""

import json

import pytest

from pfaffcalc import constructions, verify
from pfaffcalc.betti import BettiTable
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


def _counting(monkeypatch, name, calls):
    real = getattr(verify, name)

    def counted(pres, *args, **kw):
        calls.append((name, len(pres.ring.names), pres.ncols))
        return real(pres, *args, **kw)
    monkeypatch.setattr(verify, name, counted)


def test_resolution_tables_are_computed_once_per_run(monkeypatch):
    """Six checks of the f = 4 resolutions suite over QQ ask for the
    tables of RJ (three times), N (twice) and A (once); each table is
    resolved by both routes once per run, and again in the next run.
    The rank-oracle check reads the RJ presentation from the same cache,
    so each module is presented once per run."""
    calls = []
    _counting(monkeypatch, "free_resolution", calls)
    _counting(monkeypatch, "ladder_betti", calls)
    presented = []
    real_presentation = verify.module_presentation

    def presentation(module, ring):
        presented.append(module)
        return real_presentation(module, ring)
    monkeypatch.setattr(verify, "module_presentation", presentation)
    first = run_suite("resolutions", fs=[4], chars=[0])
    assert first.status == "pass" and len(first.checks) == 4
    assert sorted(presented) == ["A", "N", "RJ"]
    # (variables, presentation columns): RJ 10 and 5, N 6 and 8, A 6 and 1
    assert sorted(calls) == sorted(
        (name,) + shape for name in ("free_resolution", "ladder_betti")
        for shape in ((10, 5), (6, 8), (6, 1)))
    assert verify._TABLES == {}
    second = run_suite("resolutions", fs=[4], chars=[0])
    assert len(calls) == 12
    assert second.to_json() == first.to_json()
    assert verify._TABLES == {}


def test_a_table_whose_routes_disagree_is_not_kept(monkeypatch):
    calls = []
    _counting(monkeypatch, "free_resolution", calls)
    monkeypatch.setattr(verify, "ladder_betti", lambda pres: BettiTable())
    rep = run_suite("resolutions", fs=[4], chars=[0])
    assert [c.verdict for c in rep.checks] == [FAIL] * 4
    assert all(c.detail.startswith("matrix-route and rank-route Betti tables "
                                   "disagree") for c in rep.checks)
    # every check that asked for a table resolved it again
    assert len(calls) == 4
    assert verify._TABLES == {}


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


def test_all_runs_every_suite_in_order():
    rep = run_suite("all", fs=[4], chars=[0], budget_seconds=0)
    assert rep.suite == "all"
    assert rep.status == "incomplete"
    # at least one check from each suite family must be on the list
    assert len(rep.checks) > 8
