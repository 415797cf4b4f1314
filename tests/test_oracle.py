"""Byte-identical outputs and the value contract of the kernel's classes.

The digests and strings below are the package's reference outputs (the
verify digest is the one ``perfbench/reference.json`` pins); a refactor of
the kernel must leave all of them unchanged.
"""

import hashlib
from fractions import Fraction

import pytest

from traversale import (
    INF,
    Conic,
    Homography,
    InvolutionOnLine,
    LineChart,
    PLine,
    PointPair,
    PPoint,
    RationalParametrization,
    canonical_chart,
)
from traversale.cli import main
from traversale.render import FIGURES, render_figure
from traversale.synthetic import InscribedQuadrangle, worked_quadrangle


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_verify_all_seed_1_report_digest(seed_1_reports):
    text = "\n".join(r.to_text() for r in seed_1_reports)
    assert _sha256(text) == "974bbfff446e69e17b25d661357b3ffc2ab3430baa232f7b4909e295790f1976"


FIGURE_DIGESTS = {
    "fig8": "ecfdd48cff36c41388eeed6c12f75f5ec7ca8a86c661f41243cd7c9a97e2ce16",
    "fig10": "6e3c8688d79009b50d546c3beae079121f04d7e82891b59882715b37029417b1",
    "fig13": "5560d5bb424ff072478a8a939a747341cdaab052f17ae420cd706bef461677ff",
    "fig14": "a9f2c0a149cef379f4b0702d109b526da882d2afd4e7516f21d220b2b1bd1468",
    "fig16": "426eca5b039935c43d6824433f5ea704367398bad4f0b65d3d6a90f8c65503b8",
}


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_digest(name):
    assert _sha256(render_figure(name)) == FIGURE_DIGESTS[name]


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["polar", "--conic", "1 1 -1 0 0 0", "--point", "(2, 0, 1)"], "[1, 0, -1/2]\n"),
        (["pole", "--conic", "1 1 -1 0 0 0", "--line", "[2, 0, -1]"], "(1, 0, 1/2)\n"),
        (
            ["involution", "--pair", "{2/5, -8/5}", "--pair", "{8/5, -2/5}"],
            "matrix ((0, 16), (-25, 0))\nkind elliptic\nsouche 0\n",
        ),
        (
            ["classify", "--conic", "1 0 -1 0 0 0"],
            "class two-lines\nsignature (1, 1)\nrank 2\npoint-double (0, 1, 0)\n",
        ),
    ],
)
def test_readme_cli_stdout(argv, stdout, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout


def test_readme_traversale_stdout_and_transcript(tmp_path, capsys):
    path = tmp_path / "t.scene"
    argv = ["traversale", "--conic", "1 1 -1 0 0 0", "--point", "(2, 0, 1)", "--transcript", str(path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "traversale [1, 0, -1/2]\npolar      [1, 0, -1/2]\nagreement  exact\n"
        f"transcript {path}\n"
    )
    assert _sha256(path.read_text()) == "ed105d566d3dd74212395b3cf55a438da47534bd9e1386094c4b499adf8c5b3c"


def test_transcript_digest_of_a_conic_without_a_witness(tmp_path):
    # the bornes come from the searched base point; their integer coordinates
    # lead with entries other than 1 and hold zero and negative entries, which
    # print as "point B 0 1 -2/3" and "point E 1 -6/35 37/105"
    path = tmp_path / "t.scene"
    argv = ["traversale", "--conic", "1 4 -9 0 0 0", "--point", "(5, 1, 3)", "--transcript", str(path)]
    assert main(argv) == 0
    assert _sha256(path.read_text()) == "b23a0a9e7cff78f8be24e4847732655aae5530905bc013ae75a62b6c5c912ca0"


# -- the value contract ----------------------------------------------------------

Y0 = canonical_chart(PLine(0, 1, 0))

# class -> (sample, a twin equal to it up to scale, repr, str)
VALUES = {
    "PPoint": (
        lambda: PPoint(Fraction(3, 5), Fraction(4, 5), 1),
        lambda: PPoint(-6, -8, -10),
        "PPoint(3, 4, 5)",
        "(1, 4/3, 5/3)",
    ),
    "PLine": (
        lambda: PLine(2, 0, -1),
        lambda: PLine(-1, 0, Fraction(1, 2)),
        "PLine(2, 0, -1)",
        "[1, 0, -1/2]",
    ),
    "LineChart": (
        lambda: canonical_chart(PLine(1, -1, 2)),
        lambda: LineChart(PLine(-2, 2, -4), PPoint(0, 2, 1), PPoint(1, 3, 1), PPoint(-3, -3, 0)),
        "LineChart(line=[1, -1, 2], origin=(0, 1, 1/2), unit=(1, 3, 1), inf=(1, 1, 0))",
        "LineChart(line=[1, -1, 2], origin=(0, 1, 1/2), unit=(1, 3, 1), inf=(1, 1, 0))",
    ),
    "Homography": (
        lambda: Homography.scaling(2, Fraction(1, 3)),
        lambda: Homography(((12, 0, 0), (0, 2, 0), (0, 0, 6))),
        "Homography((6, 0, 0), (0, 1, 0), (0, 0, 3))",
        "Homography((6, 0, 0), (0, 1, 0), (0, 0, 3))",
    ),
    "Conic": (
        Conic.unit_circle,
        lambda: Conic(((3, 0, 0), (0, 3, 0), (0, 0, -3))),  # no witness: a cache, not compared
        "Conic((1, 0, 0), (0, 1, 0), (0, 0, -1))",
        "1 1 -1 0 0 0",
    ),
    "PointPair": (
        lambda: PointPair(INF, Fraction(-2, 3)),
        lambda: PointPair(Fraction(-4, 6), INF),
        "PointPair(Fraction(-2, 3), inf)",
        "{-2/3, inf}",
    ),
    "InvolutionOnLine": (
        lambda: InvolutionOnLine(Y0, ((1, 2), (3, -1))),
        lambda: InvolutionOnLine(canonical_chart(PLine(0, 3, 0)), ((-2, -4), (-6, 2))),
        "InvolutionOnLine(matrix=((1, 2), (3, -1)), line=[0, 1, 0])",
        "[[1, 2], [3, -1]] on [0, 1, 0]",
    ),
}

# classes compared by identity: a fresh build is a different object
IDENTITIES = {
    "InscribedQuadrangle": (
        worked_quadrangle,
        "InscribedQuadrangle((1, 0, 1), (1, 0, -1), (1, 4/3, 5/3), (1, 12/5, 13/5))",
    ),
    "RationalParametrization": (
        lambda: RationalParametrization(Conic.unit_circle(), PPoint(-1, 0, 1)),
        "<traversale.conic.RationalParametrization object at ",
    ),
}

CLASSES = {
    "PPoint": PPoint,
    "PLine": PLine,
    "LineChart": LineChart,
    "Homography": Homography,
    "Conic": Conic,
    "PointPair": PointPair,
    "InvolutionOnLine": InvolutionOnLine,
    "InscribedQuadrangle": InscribedQuadrangle,
    "RationalParametrization": RationalParametrization,
}


def _sample(name):
    return (VALUES.get(name) or IDENTITIES[name])[0]()


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_assignment_raises(name):
    value = _sample(name)
    assert type(value) is CLASSES[name]
    field = type(value).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "extra")


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_up_to_scale_and_hash(name):
    make, twin, _, _ = VALUES[name]
    a, b = make(), twin()
    assert a == b and not (a != b)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != object()


@pytest.mark.parametrize("name", sorted(VALUES))
def test_repr_and_str(name):
    make, _, rep, text = VALUES[name]
    value = make()
    assert repr(value) == rep
    assert str(value) == text


@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_identity_classes(name):
    make, rep = IDENTITIES[name]
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, a, b}) == 2
    assert repr(a).startswith(rep)
