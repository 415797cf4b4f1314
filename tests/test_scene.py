"""Scene files and the CLI: parsing, checks, exit codes, determinism."""

import argparse
import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from traversale import PLine, PPoint, scene
from traversale.cli import _FIGURE_NAMES, _SUITE_IDS, _build_parser, main
from traversale.errors import ParseError, UnknownReference
from traversale.render import FIGURES, render_figure
from traversale.scene import CommandError, run_scene_text
from traversale.verify import ALL_SUITES

DEMOS = Path(__file__).resolve().parent.parent / "demos"

GOOD_SCENE = """
# the worked configuration on the unit circle
conic unit 1 1 -1 0 0 0
point F 2 0 1
line tau 2 0 -1
point B 1 0 1
point C -1 0 1
point D 3/5 4/5 1
point E 5/13 12/13 1
quadrangle q conic=unit B C D E
construct polar tau2 unit F
check polar unit F = tau
check traversale unit F = tau
check classify unit = nondegenerate-real
check on unit D
check equal tau tau2
check incident B tau2   # (1,0) is not on x = 1/2: expected failure
"""


def test_scene_checks_and_verdicts():
    report = run_scene_text(GOOD_SCENE, name="worked")
    assert report.suite == "scene:worked"
    assert report.cases == 6
    verdicts = {p.name.split(" ", 1)[1]: p.passed for p in report.properties}
    assert verdicts["check polar unit F = tau"]
    assert verdicts["check traversale unit F = tau"]
    assert verdicts["check classify unit = nondegenerate-real"]
    assert verdicts["check on unit D"]
    assert verdicts["check equal tau tau2"]
    assert not verdicts["check incident B tau2"]
    assert not report.passed


def test_scene_report_is_deterministic():
    a = run_scene_text(GOOD_SCENE, name="worked").to_text()
    b = run_scene_text(GOOD_SCENE, name="worked").to_text()
    assert a == b


def test_scene_parse_error_zero_denominator():
    with pytest.raises(ParseError) as exc:
        run_scene_text("point P 1/0 2 1\n")
    assert exc.value.line == 1 and exc.value.column == 9


def test_scene_parse_error_bad_token_column():
    for text, line, column, message in (
        ("conic c 1 1 -1 0 0 oops\n", 1, 20, "not a rational literal: 'oops'"),
        ("point F 2 0 1\nrender scene out=s.svg width=abc\n", 2, 24, "width must be an integer, got 'abc'"),
        # the same message as the CLI's --viewport
        ("point F 2 0 1\nrender scene out=s.svg viewport=-2,-2,2\n", 2, 24, "viewport must be xmin,ymin,xmax,ymax"),
        ("render scene out=s.svg viewport=-2,-2,2,1/0\n", 1, 24, "zero denominator in '1/0'"),
        ("construct\n", 1, 1, "construct needs an operation"),
        ("point P 1 0 1\nconstruct spin l P P\n", 2, 11, "unknown construct op 'spin'"),
        ("check\n", 1, 1, "check needs an operation"),
        ("conic unit 1 1 -1 0 0 0\ncheck polar unit F x tau\n", 2, 20, "expected '='"),
        ("check classify unit is empty\n", 1, 21, "expected '='"),
        ("render fig8\n", 1, 1, "render FIGSPEC out=PATH"),
        ("render fig8 out=a.svg dpi=3\n", 1, 23, "unknown render option 'dpi=3'"),
        ("render fig8 width=3 viewport=-1,-1,1,1\n", 1, 1, "render needs out=PATH"),
        # an empty path names no file to write
        ("render scene out= viewport=-2,-2,2,2\n", 1, 1, "render needs out=PATH"),
        ("render fig8 out viewport=-1,-1,1,1\n", 1, 13, "unknown render option 'out'"),
        ("point P 1 0\n", 1, 1, "point takes 4 arguments, got 3"),
        ("construct join l\n", 1, 1, "construct takes 4 arguments, got 2"),
        ("check incident P\n", 1, 1, "check takes 3 arguments, got 2"),
        ("check classify k =\n", 1, 1, "check takes 4 arguments, got 3"),
        ("conic k 1 1 -1 0 0 0\nquadrangle q cone=k a b c d\n", 2, 14, "expected conic=..., got 'cone=k'"),
        ("point P 1 0 1\npoint P 2 0 1\n", 2, 7, "name 'P' already defined"),
        # a definition's literals are read before its name is defined
        ("point P 1 0 1\npoint P x 0 1\n", 2, 9, "not a rational literal: 'x'"),
        ("frob a b\n", 1, 1, "unknown command 'frob'"),
        ("check spin a b = c\n", 1, 7, "unknown check op 'spin'"),
        (
            "conic k 1 1 -1 0 0 0\ncheck classify k = round\n", 2, 20,
            "unknown class 'round'; one of ['double-line', 'empty', 'nondegenerate-real', 'two-lines']",
        ),
        # the class name is read before the conic's name is looked up
        (
            "check classify ghost = round\n", 1, 24,
            "unknown class 'round'; one of ['double-line', 'empty', 'nondegenerate-real', 'two-lines']",
        ),
    ):
        with pytest.raises(ParseError) as exc:
            run_scene_text(text)
        assert exc.value.line == line and exc.value.column == column
        assert str(exc.value) == f"line {line}, column {column}: {message}"


def test_scene_unknown_reference():
    for text, message in (
        ("conic unit 1 1 -1 0 0 0\ncheck polar ghost F = tau\n", "line 2: unknown name 'ghost'"),
        ("line l 1 0 0\npoint F 2 0 1\nconstruct join m l F\n", "line 3: 'l' is PLine, expected PPoint"),
        ("point P 1 0 1\nline l 1 0 -1\ncheck on l P\n", "line 3: 'l' is PLine, expected Conic"),
        # each key=NAME is looked up before the next key is read
        ("line l 0 1 0\nchart c line=l origin=ghost unit=U infin=O\n", "line 2: unknown name 'ghost'"),
    ):
        with pytest.raises(UnknownReference) as exc:
            run_scene_text(text)
        assert str(exc.value) == message


def test_scene_duplicate_name():
    with pytest.raises(ParseError):
        run_scene_text("point P 1 0 1\npoint P 2 0 1\n")


def test_scene_domain_error_names_command(tmp_path):
    for text, message in (
        (
            "point P 1 0 1\npoint Q 2 0 2\nconstruct join l P Q\n",
            "line 3: construct join l P Q: join needs distinct points, got (1, 0, 1) twice",
        ),
        # x^2 + y^2 = 3 z^2 has no rational point, so the conic cannot be drawn
        (
            "conic k 1 1 -3 0 0 0\nrender scene out=x.svg\n",
            "line 2: render scene out=x.svg: no rational point found on the conic within the search budget",
        ),
        (
            "point P 1 0 1\nline l 0 1 0\nchart c line=l origin=P unit=P infinity=P\n",
            "line 3: chart c line=l origin=P unit=P infinity=P: chart reference points must be pairwise distinct",
        ),
        (
            "point F 2 0 1\nrender scene out=x.svg width=0\n",
            "line 2: render scene out=x.svg width=0: width 0 must be at least 1 pixel",
        ),
        ("point F 2 0 1\nrender scene out=missing/x.svg\n", "line 2: render scene out=missing/x.svg: "),
        # a value is built before its name is defined
        (
            "point P 1 0 1\nconstruct join P P P\n",
            "line 2: construct join P P P: join needs distinct points, got (1, 0, 1) twice",
        ),
        ("point P 1 0 1\npoint P 0 0 0\n", "line 2: point P 0 0 0: (0, 0, 0) is not a projective point"),
    ):
        with pytest.raises(CommandError) as exc:
            run_scene_text(text, base_dir=str(tmp_path))
        assert str(exc.value).startswith(message)
    assert not (tmp_path / "x.svg").exists()


def test_scene_construct_commands():
    text = (
        "point P 1 1 1\npoint Q -1 1 1\n"
        "construct join l P Q\n"
        "line m 1 0 0\n"
        "construct meet X l m\n"
        "point Y 0 1 1\n"
        "check equal X Y\n"
        "conic unit 1 1 -1 0 0 0\npoint F 2 0 1\n"
        "construct traversale tau unit F\n"
        "construct polar tau2 unit F\n"
        "check equal tau tau2\n"
    )
    report = run_scene_text(text)
    assert report.passed and report.cases == 2


def test_scene_check_join_and_meet():
    text = (
        "point P 1 1 1\npoint Q -1 1 1\nline l 0 1 -1\nline m 1 0 0\n"
        "point Y 0 1 1\npoint O 0 0 1\n"
        "check join P Q = l\n"
        "check meet l m = Y\n"
        "check join P O = l\n"  # PO is y = x, not y = 1
        "check meet l m = O\n"
    )
    report = run_scene_text(text)
    verdicts = [p.passed for p in report.properties]
    assert verdicts == [True, True, False, False]
    assert report.properties[2].name == "L9 check join P O = l"
    assert report.properties[3].counterexample == "expected (0, 0, 1), got (0, 1, 1)"
    with pytest.raises(UnknownReference):  # join takes points, not lines
        run_scene_text("line l 0 1 -1\nline m 1 0 0\npoint X 0 1 1\ncheck join l m = X\n")


def test_scene_check_formats_its_counterexample_only_on_failure(monkeypatch):
    formatted = []
    for cls in (PPoint, PLine):
        monkeypatch.setattr(cls, "__str__", lambda self, real=cls.__str__: formatted.append(1) or real(self))
    passing = (
        "conic k 1 1 -1 0 0 0\npoint F 2 0 1\nline tau 2 0 -1\npoint A 1 0 1\npoint T 1 0 2\n"
        "check polar k F = tau\ncheck incident T tau\ncheck on k A\ncheck equal F F\n"
    )
    assert run_scene_text(passing).passed and formatted == []
    report = run_scene_text(passing + "check equal F A\ncheck on k F\n")
    assert [p.counterexample for p in report.properties[-2:]] == ["(1, 0, 1/2) != (1, 0, 1)", "(1, 0, 1/2) is not on the conic"]


def test_scene_operations_read_rebound_names(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(scene, "join", counting("join", scene.join))
    monkeypatch.setattr(scene, "polar", counting("polar", scene.polar))
    text = (
        "point P 1 1 1\npoint Q -1 1 1\nconic unit 1 1 -1 0 0 0\npoint F 2 0 1\n"
        "construct join l P Q\ncheck join P Q = l\n"
        "construct polar tau unit F\ncheck polar unit F = tau\n"
    )
    assert run_scene_text(text).passed
    assert calls == ["join", "join", "polar", "polar"]


def test_scene_chart_and_pole_check():
    text = (
        "line xaxis 0 1 0\npoint O 0 0 1\npoint U 1 0 1\npoint I 1 0 0\n"
        "chart ax line=xaxis origin=O unit=U infinity=I\n"
        "conic unit 1 1 -1 0 0 0\nline tau 2 0 -1\npoint F 2 0 1\n"
        "check pole unit tau = F\n"
    )
    report = run_scene_text(text)
    assert report.passed and report.cases == 1


def test_scene_render_writes_file(tmp_path):
    scene = (
        "conic unit 1 1 -1 0 0 0\npoint F 2 0 1\n"
        "render scene out=out.svg viewport=-2,-2,3,2\nrender fig13 out=f13.svg\n"
    )
    report = run_scene_text(scene, name="r", base_dir=str(tmp_path))
    assert report.passed
    assert (tmp_path / "out.svg").exists() and (tmp_path / "f13.svg").exists()
    assert (tmp_path / "out.svg").read_text().startswith("<?xml")


def test_worked_example_scene_report_and_figures(tmp_path):
    text = (DEMOS / "worked_example.scene").read_text()
    report = run_scene_text(text, name="worked_example.scene", base_dir=str(tmp_path))
    digest = hashlib.sha256(report.to_text().encode("utf-8")).hexdigest()
    assert digest == "eda6909ac54d0c97ddd9f08a53490abcb82bf6630417130a816f9fb746905310"
    for name in ("fig8.svg", "worked.svg"):  # the committed demo figures
        assert (tmp_path / name).read_bytes() == (DEMOS / name).read_bytes()


# -- CLI ----------------------------------------------------------------------

def test_cli_polar_pole(capsys):
    assert main(["polar", "--conic", "1 1 -1 0 0 0", "--point", "(2, 0, 1)"]) == 0
    assert capsys.readouterr().out.strip() == "[1, 0, -1/2]"
    assert main(["pole", "--conic", "1 1 -1 0 0 0", "--line", "[2, 0, -1]"]) == 0
    assert capsys.readouterr().out.strip() == "(1, 0, 1/2)"


def test_cli_traversale_agreement(capsys):
    assert main(["traversale", "--conic", "1 1 -1 0 0 0", "--point", "(2, 0, 1)"]) == 0
    out = capsys.readouterr().out
    assert "agreement  exact" in out


def test_cli_traversale_builds_no_quadrangle_without_transcript(monkeypatch, capsys):
    from traversale import synthetic

    built = []
    real_init = synthetic.InscribedQuadrangle.__init__
    monkeypatch.setattr(synthetic.InscribedQuadrangle, "__init__", lambda self, *args: built.append(args) or real_init(self, *args))
    assert main(["traversale", "--conic", "1 1 -1 0 0 0", "--point", "(2, 0, 1)"]) == 0
    assert capsys.readouterr().out == "traversale [1, 0, -1/2]\npolar      [1, 0, -1/2]\nagreement  exact\n"
    assert built == []


def test_cli_traversale_of_a_point_on_a_degenerate_conic_exits_2(capsys):
    # (0, 0, 1) is on the line pair x^2 = y^2; the conic's error comes first
    assert main(["traversale", "--conic", "1 -1 0 0 0 0", "--point", "(0, 0, 1)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rational parametrization needs a nondegenerate conic\n"


def test_cli_traversale_transcript_builds_one_quadrangle(tmp_path, monkeypatch, capsys):
    from traversale import cli, synthetic

    calls, built = [], []
    real_through = synthetic.inscribed_quadrangle_through
    real_init = synthetic.InscribedQuadrangle.__init__

    def counting_through(*args, **kwargs):
        calls.append(args)
        return real_through(*args, **kwargs)

    def counting_init(self, *args):
        built.append(args)
        real_init(self, *args)

    for module in (synthetic, cli):  # the verb may call it by either module's name
        if hasattr(module, "inscribed_quadrangle_through"):
            monkeypatch.setattr(module, "inscribed_quadrangle_through", counting_through)
    monkeypatch.setattr(synthetic.InscribedQuadrangle, "__init__", counting_init)
    path = tmp_path / "t.scene"
    argv = ["traversale", "--conic", "1 1 -1 0 0 0", "--point", "(2, 0, 1)", "--transcript", str(path)]
    assert main(argv) == 0
    assert "agreement  exact" in capsys.readouterr().out
    assert len(calls) == 1 and built == []  # the sweep's quadrangle skips the checked constructor


def test_cli_transcript_of_a_cross_term_conic_runs(tmp_path, capsys):
    # the transcript prints the conic's yz coefficient as given, and the scene re-checks the construction
    path = tmp_path / "t.scene"
    argv = ["traversale", "--conic", "1 1 -1 0 0 1", "--point", "(2, 0, 1)", "--transcript", str(path)]
    assert main(argv) == 0
    assert "conic k 1 1 -1 0 0 1" in path.read_text().splitlines()
    capsys.readouterr()
    assert main(["run", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cli_involution(capsys):
    # the full stdout of each shape: fixed points rational (INF among them,
    # or both finite), absent (elliptic) and irrational
    shapes = {
        ("{0, 0}", "{inf, inf}"): "matrix ((1, 0), (0, -1))\nkind hyperbolic\nfixed 0 inf\nsouche inf\n",
        ("{1, 1}", "{2, 2}"): "matrix ((3, -4), (2, -3))\nkind hyperbolic\nfixed 1 2\nsouche 3/2\n",
        ("{2/5, -8/5}", "{8/5, -2/5}"): "matrix ((0, 16), (-25, 0))\nkind elliptic\nsouche 0\n",
        ("{0, 1}", "{2, inf}"): "matrix ((2, -2), (1, -2))\nkind hyperbolic-irrational\nsouche 2\n",
    }
    for (first, second), expected in shapes.items():
        assert main(["involution", "--pair", first, "--pair", second]) == 0
        assert capsys.readouterr().out == expected, (first, second)


def test_cli_classify(capsys):
    assert main(["classify", "--conic", "1 0 -1 0 0 0"]) == 0
    out = capsys.readouterr().out
    assert "class two-lines" in out and "point-double (0, 1, 0)" in out
    assert main(["classify", "--conic", "1 0 0 0 0 0"]) == 0
    assert capsys.readouterr().out == "class double-line\nsignature (1, 0)\nrank 1\ndouble-line [1, 0, 0]\n"


def test_cli_parser_is_built_once_and_keeps_no_parsed_state(capsys):
    assert _build_parser() is _build_parser()
    argv = ["involution", "--pair", "{2/5, -8/5}", "--pair", "{8/5, -2/5}"]
    for _ in range(2):  # an appended list would carry the first call's couples over
        assert len(_build_parser().parse_args(argv).pair) == 2
        assert main(argv) == 0
    first, second = capsys.readouterr().out.split("souche 0\n", 1)
    assert first + "souche 0\n" == second


def test_cli_valid_call_after_an_unknown_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["polar", "--conic", "1 1 -1 0 0 0", "--point", "(2, 0, 1)", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["polar", "--conic", "1 1 -1 0 0 0", "--point", "(2, 0, 1)"]) == 0
    assert capsys.readouterr().out == "[1, 0, -1/2]\n"


def test_cli_bad_input_exit_2(tmp_path, capsys):
    assert main(["polar", "--conic", "1 1", "--point", "(2, 0, 1)"]) == 2
    assert main(["polar", "--conic", "1 1 -1 0 0 0", "--point", "(0, 0, 0)"]) == 2
    assert main(["verify", "not-a-suite"]) == 2
    assert main(["verify", "biduality", "--cases", "-3"]) == 2
    assert main(["render", "fig8", "--width", "0", "--out", str(tmp_path / "f.svg")]) == 2
    assert main(["render", "fig8", "--viewport=-2,-2,2", "--out", str(tmp_path / "f.svg")]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 6 and len(err.splitlines()) == 6
    assert err.splitlines()[-1] == "error: viewport must be xmin,ymin,xmax,ymax"


def test_cli_run_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.scene"
    good.write_text("conic unit 1 1 -1 0 0 0\npoint F 2 0 1\nline tau 2 0 -1\ncheck polar unit F = tau\n")
    report = tmp_path / "report.txt"
    assert main(["run", str(good), "--out", str(report)]) == 0
    assert report.read_text() == capsys.readouterr().out
    bad = tmp_path / "bad.scene"
    bad.write_text("conic unit 1 1 -1 0 0 0\npoint F 2 0 1\nline wrong 1 0 -1\ncheck polar unit F = wrong\n")
    assert main(["run", str(bad)]) == 1
    malformed = tmp_path / "broken.scene"
    malformed.write_text("point P 1/0 0 1\n")
    assert main(["run", str(malformed)]) == 2
    zero_width = tmp_path / "zero-width.scene"
    zero_width.write_text("point F 2 0 1\nrender scene out=s.svg width=0\n")
    assert main(["run", str(zero_width)]) == 2
    bad_width = tmp_path / "bad-width.scene"
    bad_width.write_text("point F 2 0 1\nrender scene out=s.svg width=abc\n")
    assert main(["run", str(bad_width)]) == 2
    assert main(["run", str(tmp_path)]) == 2  # a directory, not a scene file
    err = capsys.readouterr().err
    assert err.count("error: ") == 4 and len(err.splitlines()) == 4


def test_cli_render_writes(tmp_path, capsys):
    out = tmp_path / "fig8.svg"
    assert main(["render", "fig8", "--out", str(out)]) == 0
    assert out.read_text().startswith("<?xml")
    capsys.readouterr()


def test_cli_render_viewport_needs_the_equals_form(tmp_path, capsys):
    out = tmp_path / "fig8.svg"
    assert main(["render", "fig8", "--viewport=-2,-2,2,2", "--out", str(out)]) == 0
    viewport = (Fraction(-2), Fraction(-2), Fraction(2), Fraction(2))
    assert out.read_bytes() == render_figure("fig8", viewport=viewport).encode("utf-8")
    assert capsys.readouterr().out == f"wrote {out}\n"
    with pytest.raises(SystemExit) as exc:  # argparse takes "-2,-2,2,2" for an option
        main(["render", "fig8", "--viewport", "-2,-2,2,2", "--out", str(out)])
    assert exc.value.code == 2


def test_empty_viewport_error_names_the_viewport_literal(tmp_path, capsys):
    assert main(["render", "fig8", "--viewport=1,1,1,1", "--out", str(tmp_path / "f.svg")]) == 2
    assert capsys.readouterr().err == "error: viewport 1,1,1,1 has no area\n"
    flat = tmp_path / "flat.scene"
    flat.write_text("point F 2 0 1\nrender scene out=s.svg viewport=1/2,0,2/4,1\n")
    assert main(["run", str(flat)]) == 2
    assert capsys.readouterr().err == (
        "error: line 2: render scene out=s.svg viewport=1/2,0,2/4,1: viewport 1/2,0,1/2,1 has no area\n"
    )


def test_unknown_figure_names_its_scene_line_and_column(tmp_path, capsys):
    scene = tmp_path / "fig99.scene"
    scene.write_text("point F 2 0 1\n  render fig99 out=s.svg\n")
    assert main(["run", str(scene)]) == 2
    assert capsys.readouterr().err == (
        "error: line 2, column 10: unknown figure 'fig99'; available: fig10, fig13, fig14, fig16, fig8\n"
    )
    assert not (tmp_path / "s.svg").exists()


def test_cli_verify_single_suite(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = main(["verify", "biduality", "--seed", "5", "--cases", "10", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "suite: biduality" in text and "seed: 5" in text
    assert capsys.readouterr().out == text


def test_cli_env_seed_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DESARGUES_SEED", "123")
    assert main(["verify", "biduality", "--seed", "5", "--cases", "5"]) == 0
    assert "seed: 123" in capsys.readouterr().out
    monkeypatch.setenv("DESARGUES_SEED", "abc")
    assert main(["verify", "biduality", "--cases", "1"]) == 2
    assert capsys.readouterr().err == "error: DESARGUES_SEED must be an integer, got 'abc'\n"


def test_cli_each_verb_takes_only_the_options_it_reads():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        verb: {a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)}
        for verb, p in sub.choices.items()
    }
    assert options == {
        "polar": {"conic", "point"},
        "pole": {"conic", "line"},
        "traversale": {"conic", "point", "transcript"},
        "involution": {"pair"},
        "classify": {"conic"},
        "run": {"scene", "out"},
        "render": {"figure", "viewport", "width", "out"},
        "verify": {"suites", "all", "seed", "cases", "out"},
    }


def test_cli_lists_every_figure_and_suite():
    # the parser spells the names so that building it imports neither layer
    assert _FIGURE_NAMES == tuple(sorted(FIGURES))
    assert _SUITE_IDS == ALL_SUITES


def test_cli_rejects_options_a_verb_does_not_read(tmp_path, capsys):
    out = tmp_path / "p.txt"
    for argv in (
        ["polar", "--conic", "1 1 -1 0 0 0", "--point", "(2, 0, 1)", "--out", str(out)],
        ["classify", "--conic", "1 0 -1 0 0 0", "--seed", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1
    assert not out.exists()
