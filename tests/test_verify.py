"""The suite runner: determinism, shrinking, suite registry."""

import pytest

from traversale import verify
from traversale.errors import InvalidCaseCount, UnknownSuite
from traversale.verify import (
    ALL_SUITES,
    Draws,
    _CaseUnbuildable,
    _run_property,
    verify_all,
    verify_suite,
)


def test_registry_contains_the_named_suites():
    assert ALL_SUITES == (
        "involution-equivalence",
        "ramee",
        "biduality",
        "incidence-duality",
        "quadrangle-independence",
        "pencil-theorem",
        "two-involutions",
        "harmonic-FGXY",
        "transport",
        "classification",
        "worked-example",
        "affine-diameters",
        "self-polar",
        "rendering",
    )


def test_unknown_suite_raises():
    with pytest.raises(UnknownSuite):
        verify_suite("knot-theory")
    with pytest.raises(InvalidCaseCount):
        verify_suite("biduality", cases=0)


def test_reports_are_byte_identical():
    a = verify_suite("two-involutions", seed=4, cases=12).to_text()
    b = verify_suite("two-involutions", seed=4, cases=12).to_text()
    assert a == b
    c = verify_suite("two-involutions", seed=5, cases=12).to_text()
    assert a != c


def test_report_structure():
    r = verify_suite("biduality", seed=2, cases=8)
    text = r.to_text()
    assert text.startswith("suite: biduality\nseed: 2\ncases: 8\n")
    assert "PASS pole-of-polar-roundtrip 8/8" in text
    assert '"failures": 0' in text
    assert r.passed


def test_every_suite_passes_at_small_scale():
    for name in ALL_SUITES:
        r = verify_suite(name, seed=3, cases=6)
        assert r.passed, r.to_text()


def test_default_case_counts(seed_1_reports):
    expected = dict.fromkeys(ALL_SUITES, 100)
    expected.update({"involution-equivalence": 200, "self-polar": 50, "worked-example": 1, "rendering": 1})
    assert {r.suite: r.cases for r in seed_1_reports} == expected


def test_verify_all_covers_everything():
    reports = verify_all(seed=2, cases=5)
    assert [r.suite for r in reports] == list(ALL_SUITES)


def test_draws_replay_clamps_into_range():
    d = Draws(replay=[100, -7])
    assert d.draw_int(0, 9) == 100 % 10
    assert d.draw_int(1, 3) == 1 + (-7 - 1) % 3


def test_failure_produces_shrunk_counterexample():
    def broken(d):
        a = d.draw_int(0, 64)
        return a == 0, [f"a={a}"]

    res = _run_property("demo", "broken", seed=1, cases=40, case_fn=broken)
    assert not res.passed
    assert res.counterexample is not None
    # halving toward zero bottoms out at the minimal failing value 1
    assert res.counterexample.endswith("a=1")
    line = res.line()
    assert line.startswith("FAIL broken ")


def test_unexpected_exception_is_a_failing_case():
    def crashes(d):
        a = d.draw_int(0, 3)
        return 1 // a > 0, [f"a={a}"]  # ZeroDivisionError whenever a == 0

    res = _run_property("demo", "crashes", seed=1, cases=40, case_fn=crashes)
    assert 0 < res.passed_cases < res.total_cases == 40
    assert "unexpected ZeroDivisionError: integer division or modulo by zero" in res.counterexample


def test_unbuildable_case_is_a_failing_case():
    def never_builds(d):
        d.draw_int(0, 9)
        raise _CaseUnbuildable("no draw accepted in 30 tries")

    res = _run_property("demo", "never-builds", seed=1, cases=12, case_fn=never_builds)
    assert res.line() == "FAIL never-builds 0/12"
    assert res.counterexample == "case 0\nunbuildable: no draw accepted in 30 tries"


def test_retry_helpers_redraw_then_give_up():
    d = Draws(replay=[0, 0, 3, 5])
    assert d.until(lambda d: d.draw_int(0, 9), lambda v: v > 0) == 3
    with pytest.raises(_CaseUnbuildable):
        Draws(replay=[1] * 10).distinct(2, lambda d: d.draw_int(0, 9), tries=10)
    with pytest.raises(_CaseUnbuildable):
        Draws(replay=[0] * 5).until(lambda d: 1 // d.draw_int(0, 9), tries=5, catch=ZeroDivisionError)
    assert Draws(replay=[4, 4, 7]).distinct(2, lambda d: d.draw_int(0, 9)) == [4, 7]


def _demo_suite(monkeypatch, setup=None):
    """Register an empty suite "demo" of 3 cases for this test only; returns its property decorator."""
    monkeypatch.setitem(verify._SUITES, "demo", (3, setup, []))
    return lambda name, fixed=False: verify._property("demo", name, fixed)


def test_fixed_property_failure_reports_its_detail(monkeypatch):
    prop = _demo_suite(monkeypatch)

    @prop("holds", fixed=True)
    def _holds():
        return True, "not shown"

    @prop("fails", fixed=True)
    def _fails():
        return False, "got 3\nwanted 4"

    assert verify_suite("demo").to_text() == (
        "suite: demo\nseed: 1\ncases: 3\n"
        "PASS holds 1/1\n"
        "FAIL fails 0/1\n  | got 3\n  | wanted 4\n"
        'summary {"cases": 3, "failures": 1, "properties": 2, "seed": 1, "suite": "demo"}\n'
    )


def test_fixed_property_that_raises_reports_the_exception(monkeypatch):
    prop = _demo_suite(monkeypatch)

    @prop("raises", fixed=True)
    def _raises():
        raise KeyError("tau")

    (result,) = verify_suite("demo").properties
    assert result.line() == "FAIL raises 0/1"
    assert result.counterexample == "KeyError: 'tau'"


def test_failed_setup_fails_only_the_properties_that_read_it(monkeypatch):
    def setup(seed):
        raise ValueError(f"no pool for seed {seed}")

    prop = _demo_suite(monkeypatch, setup)

    @prop("fixed-reads", fixed=True)
    def _fixed_reads(pool):
        return bool(pool()), ""

    @prop("fixed-ignores", fixed=True)
    def _fixed_ignores(pool):
        return True, ""

    @prop("drawn-reads")
    def _drawn_reads(pool, d):
        return bool(pool()), []

    @prop("drawn-ignores")
    def _drawn_ignores(pool, d):
        return d.draw_int(0, 9) <= 9, []

    report = verify_suite("demo", seed=7)
    assert [p.line() for p in report.properties] == [
        "FAIL fixed-reads 0/1",
        "PASS fixed-ignores 1/1",
        "FAIL drawn-reads 0/3",
        "PASS drawn-ignores 3/3",
    ]
    assert report.properties[0].counterexample == "ValueError: no pool for seed 7"
    assert report.properties[2].counterexample == "case 0\nunexpected ValueError: no pool for seed 7"
