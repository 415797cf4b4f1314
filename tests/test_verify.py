"""The suite runner: determinism, shrinking, suite registry."""

import random
from fractions import Fraction

import pytest

from traversale import verify
from traversale.conic import chord_parametrization
from traversale.errors import GeometryError, InvalidCaseCount, TooManyDigits, UnknownSuite
from traversale.involution import InvolutionOnLine
from traversale.numbers import INF, from_pair
from traversale.projective import PLine, PPoint
from traversale.report import VerificationReport
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


def _ranges_verify_draws_from():
    ranges = set()
    real = Draws.draw_int

    def recording(self, lo, hi):
        ranges.add((lo, hi))
        return real(self, lo, hi)

    Draws.draw_int = recording
    try:
        verify_all(seed=2, cases=3)
    finally:
        Draws.draw_int = real
    return ranges


def test_draws_are_the_draws_of_randint():
    verify_ranges = _ranges_verify_draws_from()
    assert {(-4, 4), (-9, 9), (1, 9), (0, 1)} <= verify_ranges
    # widths 1, 2^k - 1, 2^k and 2^k + 1, negative and large lower ends
    widths = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 255, 256, 257, 2**31 - 1, 2**32, 2**32 + 1, 2**64 + 1]
    ranges = sorted(verify_ranges) + [(lo, lo + w - 1) for w in widths for lo in (0, -3, -(2**40), 7)]
    for seed in range(60):
        draws = Draws(random.Random(f"draws:{seed}"))
        reference = random.Random(f"draws:{seed}")
        order = ranges[seed % len(ranges):] + ranges[:seed % len(ranges)]
        drawn = [draws.draw_int(lo, hi) for _ in range(4) for lo, hi in order]
        assert drawn == [reference.randint(lo, hi) for _ in range(4) for lo, hi in order]
        assert draws.record == drawn
        # both generators are left in the same state
        assert draws.draw_int(0, 2**20) == reference.randint(0, 2**20)


def _rational_draws_of_verify():
    """The (lo, hi, dmax) of every rational that ``verify_all`` draws."""
    ranges = set()
    real = Draws.rational

    def recording(self, lo=-9, hi=9, dmax=9):
        ranges.add((lo, hi, dmax))
        return real(self, lo, hi, dmax)

    Draws.rational = recording
    try:
        verify_all(seed=2, cases=3)
    finally:
        Draws.rational = real
    return sorted(ranges)


def test_rational_draws_are_the_fractions_they_replace():
    ranges = _rational_draws_of_verify()
    assert {(-9, 9, 9), (-8, 8, 6), (-9, 9, 5), (-6, 6, 4), (-8, 8, 5)} <= set(ranges)
    conics = verify._fixed_conics(1)
    for seed in range(60):
        for lo, hi, dmax in ranges:
            draws, reference = (Draws(random.Random(f"rational:{seed}")) for _ in range(2))
            pair = draws.rational(lo, hi, dmax)
            fraction = Fraction(reference.draw_int(lo, hi), reference.draw_int(1, dmax))
            assert draws.record == reference.record
            assert pair == (fraction.numerator, fraction.denominator) and from_pair(pair) == fraction
            assert Draws(replay=draws.record).rational(lo, hi, dmax) == pair
            par = chord_parametrization(conics[seed % len(conics)])
            assert par.point_from_pair(pair) == par.point(fraction)
        draws, reference = (Draws(random.Random(f"point:{seed}")) for _ in range(2))
        x, y = (Fraction(reference.draw_int(-9, 9), reference.draw_int(1, 9)) for _ in range(2))
        assert verify._draw_finite_point(draws) == PPoint(x, y, 1)
        assert draws.record == reference.record


def test_drawn_cases_build_no_fraction(monkeypatch, fraction_count):
    """No drawn case of ``verify_all(1)`` makes a Fraction or hands one to a ``linalg`` reduction.

    Counted per suite, so a failure names the suites that compute in
    Fraction.  Fixed properties may keep their Fraction literals, so they
    run uncounted.
    """
    monkeypatch.setattr(verify, "_run_fixed", fraction_count.uncounted(verify._run_fixed))
    reports = []
    for name in ALL_SUITES:
        fraction_count.label = name
        reports.append(verify_suite(name, 1))
    fraction_count.label = None
    assert [report.to_text() for report in reports] == [report.to_text() for report in verify_all(1)]
    assert all(report.passed for report in reports)
    assert fraction_count.counts == {}


def test_failure_produces_shrunk_counterexample():
    def broken(d):
        a = d.draw_int(0, 64)
        return a == 0, lambda: [f"a={a}"]

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
        return 1 // a >= 0, lambda: [f"a={a}"]  # fails only by ZeroDivisionError, whenever a == 0

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
        return bool(pool()), list

    @prop("drawn-ignores")
    def _drawn_ignores(pool, d):
        return d.draw_int(0, 9) <= 9, list

    report = verify_suite("demo", seed=7)
    assert [p.line() for p in report.properties] == [
        "FAIL fixed-reads 0/1",
        "PASS fixed-ignores 1/1",
        "FAIL drawn-reads 0/3",
        "PASS drawn-ignores 3/3",
    ]
    assert report.properties[0].counterexample == "ValueError: no pool for seed 7"
    assert report.properties[2].counterexample == "case 0\nunexpected ValueError: no pool for seed 7"


def test_transcripts_are_formatted_only_for_failing_cases():
    formatted = []

    def case(d):
        a = d.draw_int(0, 9)
        return a != 3, lambda: formatted.append(a) or [f"a={a}"]

    res = _run_property("demo", "lazy", seed=1, cases=40, case_fn=case)
    assert 0 < res.passed_cases < 40
    assert set(formatted) == {3}
    assert res.counterexample.endswith("\na=3")


def test_a_transcript_that_raises_is_a_failing_case():
    def case(d):
        a = d.draw_int(0, 9)
        return a < 5, lambda: [f"a={1 // 0}"]

    res = _run_property("demo", "bad-transcript", seed=1, cases=40, case_fn=case)
    assert 0 < res.passed_cases < 40
    assert res.counterexample.endswith("\nunexpected ZeroDivisionError: integer division or modulo by zero")


def test_verify_all_seeds_one_stream_per_randomized_property(monkeypatch):
    keys = []
    real = random.Random
    monkeypatch.setattr(verify.random, "Random", lambda key: keys.append(key) or real(key))
    assert all(report.passed for report in verify_all(1))
    # the 20 randomized properties and the pool of fixed conics
    assert len(keys) == len(set(keys)) == 21
    assert "conic-pool:1" in keys


def test_more_cases_repeat_the_shorter_run_as_their_first_cases():
    def recording(records):
        def case(d):
            d.until(lambda d: d.draw_int(-9, 9), lambda v: v != 0)
            d.rational()
            records.append(list(d.record))
            return True, list
        return case

    short, long = [], []
    _run_property("demo", "prefix", seed=1, cases=5, case_fn=recording(short))
    _run_property("demo", "prefix", seed=1, cases=12, case_fn=recording(long))
    assert len(short) == 5 and len(long) == 12
    assert long[:5] == short
    assert len({tuple(r) for r in long}) > 1


# Faults injected into the names a suite's case functions read, so that the
# full report of a failing suite, shrunk counterexample and transcript
# included, is pinned byte for byte.

def _negative(t):
    return t is not INF and t < 0


def _reject_negative_couples(real):
    return lambda inv, p: real(inv, p) and not _negative(p.first)


def _wrong_polar_at_even_x(real):
    return lambda c, p: PLine(1, 0, 0) if p.coords[0] % 2 == 0 else real(c, p)


def _crash_at_even_x(real):
    def polar(c, p):
        if p.coords[0] % 2 == 0:
            raise ZeroDivisionError("even first coordinate")
        return real(c, p)
    return polar


def _swap_unless_negative(real):
    return lambda p, q, chart: real(p, q, chart) if _negative(p.first) else InvolutionOnLine(chart, ((0, 1), (1, 0)))


def _flip_membership_if_first_couple_negative(real):
    return lambda pairs: real(pairs) != _negative(pairs[0].first)


def _never_joins(real):
    def join(p, q):
        raise GeometryError("no join")
    return join


_PINNED_FAILURES = {
    "ramee": ("ramee", "contains_pair", _reject_negative_couples, (
        "suite: ramee\nseed: 3\ncases: 8\nFAIL membership-and-kind-preserved 1/8\n  | case 0\n"
        "  | involution ((1, -1), (0, -1)) on [0, 1, 0]\n  | center (0, 1, -1)\n  | target [1, 1, 1/9]\n"
        "  | couple {-1/5, 6/5} -> {-2/9, 16/33}: member False\n  | couple {1/5, 4/5} -> {4/27, 32/81}: member True\n"
        "  | couple {0, 1} -> {0, 4/9}: member True\n  | kinds hyperbolic -> hyperbolic\n"
        'summary {"cases": 8, "failures": 1, "properties": 1, "seed": 3, "suite": "ramee"}\n'
    )),
    "two-involutions": ("two-involutions", "contains_pair", _reject_negative_couples, (
        "suite: two-involutions\nseed: 3\ncases: 8\nFAIL pencil-vs-polarity 1/8\n  | case 0\n"
        "  | conic 1 1 -1 0 0 0\n  | f (1, 6, -6)\n  | line [1, -109/12, -107/12]\n  | pencil fixes f: True\n"
        "  | pencil fixes H: True\n  | pencil swaps L,M: False\n  | polarity fixes L: True\n"
        "  | polarity fixes M: True\n  | polarity swaps f,H: False\n  | distinct: True\n  | harmonic: True\n"
        'summary {"cases": 8, "failures": 1, "properties": 1, "seed": 3, "suite": "two-involutions"}\n'
    )),
    "transport": ("transport", "polar", _wrong_polar_at_even_x, (
        "suite: transport\nseed: 3\ncases: 8\nFAIL polarity-moves-with-homographies 2/8\n  | case 1\n"
        "  | conic 1 -1 -1 0 0 0\n  | homography ((0, 0, 1), (1, 0, 0), (0, -1, 0))\n"
        "  | polar commutes: False\n  | pole commutes: True\n  | class preserved: True\n"
        "  | polarity involution commutes: True\n"
        'summary {"cases": 8, "failures": 1, "properties": 1, "seed": 3, "suite": "transport"}\n'
    )),
    "agregativite": ("involution-equivalence", "involution_from_two_pairs", _swap_unless_negative, (
        "suite: involution-equivalence\nseed: 3\ncases: 8\nPASS rectangle-vs-homographic 8/8\n"
        "PASS arbre-vs-involution 8/8\nPASS harmonic-bridge 8/8\nPASS midpoint-infinity 8/8\n"
        "FAIL agregativite 4/8\n  | case 2\n"
        "  | couples [PointPair(Fraction(0, 1), Fraction(1, 1)), PointPair(Fraction(1, 5), Fraction(4, 5)),"
        " PointPair(Fraction(-1, 5), Fraction(6, 5))]\n"
        "  | matrices ((0, 1), (1, 0)) ((0, 1), (1, 0)) ((0, 1), (1, 0))\n"
        'summary {"cases": 8, "failures": 1, "properties": 5, "seed": 3, "suite": "involution-equivalence"}\n'
    )),
    "membership": ("involution-equivalence", "in_single_involution", _flip_membership_if_first_couple_negative, (
        "suite: involution-equivalence\nseed: 3\ncases: 8\nFAIL rectangle-vs-homographic 3/8\n  | case 1\n"
        "  | couples {-1, 1} {-4, 1/4} {-5, 1/5}\n  | rectangle identities: True\n"
        "  | homographic membership: False\nFAIL arbre-vs-involution 4/8\n  | case 0\n  | souche 1/12\n"
        "  | couples {-1/4, 1/4} {0, 3/4} {0, 0}\n  | arbre: False\n  | membership: True\n"
        "FAIL harmonic-bridge 3/8\n  | case 0\n  | a=-1/5 b=0 c=1/5\n  | conjugate=-1/15\n  | cross ratio -1\n"
        "FAIL midpoint-infinity 5/8\n  | case 2\n  | c=0 g=-1/5 midpoint=-1/10\n  | member: False\n"
        "  | shifted member: False\nPASS agregativite 8/8\n"
        'summary {"cases": 8, "failures": 4, "properties": 5, "seed": 3, "suite": "involution-equivalence"}\n'
    )),
    "unexpected": ("incidence-duality", "polar", _crash_at_even_x, (
        "suite: incidence-duality\nseed: 3\ncases: 8\nFAIL collinear-points-concurrent-polars 0/8\n"
        "  | case 0\n  | unexpected ZeroDivisionError: even first coordinate\n"
        "PASS concurrent-lines-collinear-poles 8/8\n"
        'summary {"cases": 8, "failures": 1, "properties": 2, "seed": 3, "suite": "incidence-duality"}\n'
    )),
    "unbuildable": ("biduality", "join", _never_joins, (
        "suite: biduality\nseed: 3\ncases: 8\nFAIL pole-of-polar-roundtrip 0/8\n  | case 0\n"
        "  | unbuildable: no draw accepted in 30 tries\n"
        'summary {"cases": 8, "failures": 1, "properties": 1, "seed": 3, "suite": "biduality"}\n'
    )),
}


@pytest.mark.parametrize("fault", sorted(_PINNED_FAILURES))
def test_failing_reports_are_pinned(monkeypatch, fault):
    suite, name, inject, pinned = _PINNED_FAILURES[fault]
    monkeypatch.setattr(verify, name, inject(getattr(verify, name)))
    assert verify_suite(suite, seed=3, cases=8).to_text() == pinned


def test_a_seed_too_long_to_print_raises_too_many_digits():
    # the seed keys the case streams and heads the report as text
    seed = (10**3000) ** 2
    with pytest.raises(TooManyDigits):
        verify_suite("ramee", seed, 1)
    with pytest.raises(TooManyDigits):
        verify_suite("quadrangle-independence", seed, 1)
    with pytest.raises(TooManyDigits):
        VerificationReport("ramee", seed, 1).to_text()
