"""Seeded fuzzing of the CLI boundary: every input ends in exit 0, 1 or 2.

Random argv for every verb and random scene text are fed to ``cli.main``
in-process.  No exception may escape, and an exit code of 2 (bad input)
must come with exactly one ``error:`` line on stderr.  The literals mix
valid rationals with the edge cases of the parser: ``3/-4``, ``1/0``,
``-0``, ``+5``, 25-digit integers and non-numbers.  Integers at Python's
int/str digit limit, and products over it, end the same way, as do
3,000-digit involution couples and viewport bounds, and a quadrangle whose
collinear bornes have coordinates over the limit.
"""

import hashlib
import random
import sys

import pytest

from traversale import TooManyDigits
from traversale.cli import main
from traversale.numbers import format_int
from traversale.render import FIGURES
from traversale.scene import run_scene_text
from traversale.verify import ALL_SUITES

RATIONALS = (
    "0", "1", "-1", "2", "-2", "3", "1/2", "-3/4", "5/13", "12/13", "+5", "-0", "0/7",
    "3/-4", "1/0", "1234567890123456789012345", "-9999999999999999999999999",
    "1/1000000000000000000000007", "1.5", "abc", "", "inf",
)
PAIR_VALUES = RATIONALS + ("inf",) * 3
# defines k, F, tau and four points of k, so that later random lines can refer to them
PREAMBLE = (
    "conic k 1 1 -1 0 0 0\npoint F 2 0 1\nline tau 2 0 -1\n"
    "point a 1 0 1\npoint b -1 0 1\npoint c 3/5 4/5 1\npoint d 5/13 12/13 1\n"
)
SUITES = ALL_SUITES + ("nope",)
CLASSES = ("nondegenerate-real", "empty", "two-lines", "double-line", "circle")


def _rat(rng):
    # small valid values most of the time, so that constructions get exercised
    if rng.random() < 0.75:
        return str(rng.randint(-3, 3))
    return rng.choice(RATIONALS)


def _triple(rng, brackets):
    n = rng.choice((3, 3, 3, 2, 4))
    text = brackets[0] + ", ".join(_rat(rng) for _ in range(n)) + brackets[1]
    return text if rng.random() < 0.9 else text[1:]


def _conic(rng):
    n = rng.choice((6, 6, 6, 6, 5, 7))
    if rng.random() < 0.3:
        base = ["1", "1", "-1", "0", "0", "0"]  # the unit circle, perturbed below
        base[rng.randrange(6)] = _rat(rng)
        return " ".join(base[:n])
    return rng.choice((" ", ", ")).join(_rat(rng) for _ in range(n))


def _pair(rng):
    n = rng.choice((2, 2, 2, 1, 3))
    return "{" + ", ".join(rng.choice(PAIR_VALUES) for _ in range(n)) + "}"


def _argv(rng, tmp_path, scene_path):
    verb = rng.choice(("polar", "pole", "traversale", "involution", "classify", "run", "render", "verify"))
    if verb == "polar" or verb == "traversale":
        argv = [verb, "--conic", _conic(rng), "--point", _triple(rng, "()")]
        if verb == "traversale" and rng.random() < 0.3:
            argv += ["--transcript", str(rng.choice((tmp_path / "t.scene", tmp_path)))]
    elif verb == "pole":
        argv = [verb, "--conic", _conic(rng), "--line", _triple(rng, "[]")]
    elif verb == "involution":
        argv = [verb]
        for _ in range(rng.choice((2, 2, 2, 1, 3))):
            argv += ["--pair", _pair(rng)]
    elif verb == "classify":
        argv = [verb, "--conic", _conic(rng)]
    elif verb == "run":
        argv = [verb, str(rng.choice((scene_path, scene_path, tmp_path, tmp_path / "missing.scene")))]
    elif verb == "render":
        argv = [verb, rng.choice(sorted(FIGURES) + ["fig99"]), "--out", str(tmp_path / "f.svg")]
        if rng.random() < 0.5:
            argv += ["--viewport", ",".join(_rat(rng) for _ in range(rng.choice((4, 4, 3))))]
        argv += ["--width", rng.choice(("0", "-3", "1", "abc", "2.5"))]
    else:
        argv = [verb, rng.choice(SUITES), "--cases", rng.choice(("1", "0", "-2", "x"))]
        argv += ["--seed", rng.choice(("1", "7", "-3", "1234567890123456789012345"))]
    return argv


def _scene(rng):
    """A scene that mostly refers to defined names of the right type, sometimes corrupted."""
    points, lines, conics = ["F", "a", "b", "c", "d"], ["tau"], ["k"]
    pick = rng.choice
    out = PREAMBLE.splitlines() if rng.random() < 0.8 else []
    for i in range(rng.randint(1, 6)):
        new = f"n{i}"
        p, l, k = pick(points), pick(lines), pick(conics)
        kind = rng.randrange(10)
        if kind == 0:
            out.append(f"point {new} {_rat(rng)} {_rat(rng)} {_rat(rng)}")
            points.append(new)
        elif kind == 1:
            out.append(f"line {new} {_rat(rng)} {_rat(rng)} {_rat(rng)}")
            lines.append(new)
        elif kind == 2:
            out.append(f"conic {new} " + _conic(rng).replace(",", ""))
            conics.append(new)
        elif kind == 3:
            op, args, pool = pick((
                ("join", (p, pick(points)), lines), ("meet", (l, pick(lines)), points),
                ("polar", (k, p), lines), ("pole", (k, l), points), ("traversale", (k, p), lines),
            ))
            out.append(f"construct {op} {new} {args[0]} {args[1]}")
            pool.append(new)
        elif kind == 4:
            out.append(pick((
                f"check polar {k} {p} = {l}", f"check pole {k} {l} = {p}",
                f"check traversale {k} {p} = {l}", f"check classify {k} = {pick(CLASSES)}",
                f"check join {p} {pick(points)} = {l}", f"check meet {l} {pick(lines)} = {p}",
            )))
        elif kind == 5:
            out.append(pick((f"check incident {p} {l}", f"check on {k} {p}", f"check equal {p} {pick(points)}")))
        elif kind == 6:
            out.append(f"quadrangle {new} conic={k} " + " ".join(pick(points) for _ in range(4)))
        elif kind == 7:
            out.append(f"chart {new} line={l} " + " ".join(f"{key}={pick(points)}" for key in ("origin", "unit", "infinity")))
        elif kind == 8 and rng.random() < 0.3:  # rendering is the slow command
            vp = ",".join(_rat(rng) for _ in range(pick((4, 4, 2))))
            width = pick(("32", "0", "-1", "abc"))
            out.append(f"render {pick(('scene', 'fig99'))} out=s.svg viewport={vp} width={width}")
        else:
            out.append(f"# comment {new}")
    if rng.random() < 0.3:  # corrupt one token
        i = rng.randrange(len(out))
        tokens = out[i].split() or ["#"]
        tokens[rng.randrange(len(tokens))] = pick(("", "zz", "1/0", "=", "conic=", "3/-4", "frobnicate"))
        out[i] = " ".join(tokens)
    return "\n".join(out) + "\n"


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the argv shape with exit 2
        code = exc.code
    err = capsys.readouterr().err
    return code, err


@pytest.mark.parametrize("seed", [1, 2])
def test_fuzz_cli_and_scenes_end_in_a_named_exit(seed, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DESARGUES_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    rng = random.Random(seed)
    scene_path = tmp_path / "fuzz.scene"
    for case in range(300):
        if case % 2:
            scene_path.write_text(_scene(rng))
            argv = ["run", str(scene_path)]
        else:
            argv = _argv(rng, tmp_path, scene_path)
        code, err = _outcome(capsys, argv)
        assert code in (0, 1, 2), (argv, code, err)
        if code == 2:
            error_lines = [line for line in err.splitlines() if "error:" in line]
            assert len(error_lines) == 1, (argv, err)


# sha256 of the outcomes of _scene(random.Random(i)) for i in range(1000)
SCENE_OUTCOMES_SHA256 = "c85da8339560112bfdd23a70e903f0bef5f1e395a404b4755b4d94db9b3ea564"


def test_fuzz_scene_outcomes_are_pinned(tmp_path):
    """Each scene's report text, or the class and message of what it raised, is unchanged."""
    digest = hashlib.sha256()
    for i in range(1000):
        try:
            outcome = run_scene_text(_scene(random.Random(i)), base_dir=str(tmp_path)).to_text()
        except Exception as exc:
            outcome = f"{type(exc).__name__}: {exc}".replace(str(tmp_path), "<tmp>")
        digest.update(outcome.encode("utf-8") + b"\0")
    assert digest.hexdigest() == SCENE_OUTCOMES_SHA256


# Python converts ints of at most this many digits to and from text
LIMIT = sys.get_int_max_str_digits()
HUGE = str(10**3000)  # a literal under the limit whose products are over it


def _digit_cases():
    """argv, or scene text, and the expected exit code at the digit limit, and across it by a product."""
    cases = []
    for digits in (LIMIT - 1, LIMIT, LIMIT + 1):
        n, code = "7" * digits, 2 if digits > LIMIT else 0
        cases += [
            pytest.param(["polar", "--conic", "1 1 -1 0 0 0", "--point", f"(2, 0, {n})"], code, id=f"polar-{digits}"),
            pytest.param(["pole", "--conic", "1 1 -1 0 0 0", "--line", f"[2, 0, {n}]"], code, id=f"pole-{digits}"),
            pytest.param(
                ["traversale", "--conic", "1 1 -1 0 0 0", "--point", f"({n}, 0, 1)"], code, id=f"traversale-{digits}"
            ),
            pytest.param(
                f"conic k 1 1 -1 0 0 0\npoint F {n} 0 1\nline tau 1 0 0\ncheck traversale k F = tau\n",
                code or 1,
                id=f"scene-{digits}",
            ),
        ]
    a, b, c, d = (10**4199 + k for k in (1, 3, 7, 9))  # odd, 4,200 digits
    return cases + [
        pytest.param(["polar", "--conic", f"1 1 -{HUGE} 0 0 0", "--point", f"(2, 0, {HUGE})"], 2, id="polar-product"),
        pytest.param(["pole", "--conic", f"{HUGE} 1 -1 0 0 0", "--line", f"[1, {HUGE}, 1]"], 2, id="pole-product"),
        pytest.param(
            ["traversale", "--conic", f"1 1 -{HUGE} 0 0 0", "--point", f"(2, 0, {HUGE})"], 2, id="traversale-product"
        ),
        # the point search meets irrational traces whose discriminants have too many digits to print
        pytest.param(
            ["traversale", "--conic", f"{HUGE}1 1 -{HUGE}3 0 0 0", "--point", "(2, 0, 1)"], 2, id="search-product"
        ),
        pytest.param(
            f"conic k 1 1 -{HUGE} 0 0 0\npoint F 2 0 {HUGE}\nline tau 1 0 0\ncheck polar k F = tau\n",
            2,
            id="scene-product",
        ),
        # the involution's matrix holds products of the couples' entries, printed in its text or its error
        pytest.param(["involution", "--pair", f"{{{HUGE}, 1}}", "--pair", f"{{{HUGE}, 3}}"], 2, id="involution-degenerate"),
        pytest.param(
            ["involution", "--pair", f"{{{HUGE}, {10**2000 + 7}}}", "--pair", "{2, 3}"], 2, id="involution-matrix"
        ),
        # a viewport too large for a float is bad input; conic samples beyond float range are still drawn
        pytest.param(["render", "fig8", f"--viewport=-{HUGE},-2,2,2", "--out", "f.svg"], 2, id="render-viewport"),
        pytest.param(f"render fig8 out=f.svg viewport=-{HUGE},-2,2,2\n", 2, id="scene-render-viewport"),
        pytest.param(f"conic k 1 1 -1 {HUGE} 0 0\nrender scene out=f.svg width=64\n", 0, id="scene-render-conic"),
        # three collinear bornes on a line pair, named in the quadrangle's error by coordinates over the limit
        pytest.param(
            f"conic k 0 0 0 1 0 0\npoint A 0 {a}/{b} {c}/{d}\npoint B 0 {a}/{b} 1\npoint C 0 {c}/{d} 1\n"
            "point D 1 0 1\nquadrangle q conic=k A B C D\n",
            2,
            id="scene-quadrangle",
        ),
    ]


@pytest.mark.parametrize("case, code", _digit_cases())
def test_integers_at_the_digit_limit_end_in_a_named_exit(case, code, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if isinstance(case, str):
        (tmp_path / "digits.scene").write_text(case)
        case = ["run", str(tmp_path / "digits.scene")]
    exit_code, err = _outcome(capsys, case)
    assert exit_code == code, err
    # a bad input is named on one error line; nothing else reaches stderr
    assert "Traceback" not in err and err.count("\n") == err.count("error:") == (code == 2)


def test_a_product_over_the_digit_limit_prints_the_named_error(capsys):
    with pytest.raises(TooManyDigits) as exc:
        format_int(10**6000)
    argv = ["polar", "--conic", f"1 1 -{HUGE} 0 0 0", "--point", f"(2, 0, {HUGE})"]
    assert _outcome(capsys, argv) == (2, f"error: {exc.value}\n")
