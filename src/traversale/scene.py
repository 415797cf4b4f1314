"""Line-oriented scene files: exact objects, checks, renders.

A scene is a sequence of commands, one per line, with ``#`` comments.  All
numeric literals are exact rationals (``p`` or ``p/q``).  Object definitions
come first in reading order and later commands refer to them by name:

    point F 2 0 1
    conic unit 1 1 -1 0 0 0
    line tau 2 0 -1
    quadrangle q conic=unit B C D E
    chart ax line=xaxis origin=O unit=U infinity=I
    construct polar tau2 unit F
    check polar unit F = tau
    check traversale unit F = tau
    check join B C = bc
    check classify unit = nondegenerate-real
    check incident F tau
    check on unit B
    check equal tau tau2
    render fig8 out=fig8.svg
    render scene out=all.svg viewport=-2,-2,2,2

``construct OP NAME A B`` defines NAME as OP(A, B), and ``check OP A B = NAME``
checks that OP(A, B) equals NAME, for the same five operations: join (two
points), meet (two lines), polar and traversale (a conic and a point), pole
(a conic and a line).

Parsing reports 1-based line and column, a malformed ``viewport=`` with the
CLI's message; executing reports unknown names and failed checks.  Checks
never abort the run; their verdicts are collected into a deterministic
report.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .conic import Conic, ConicClass, classify, polar, pole
from .errors import EmptyViewport, GeometryError, ParseError, SceneError, UnknownReference
from .numbers import parse_rational
from .projective import LineChart, PLine, PPoint, join, meet
from .render import Drawable, build_figure, parse_viewport, render_svg
from .report import PropertyResult, VerificationReport
from .synthetic import InscribedQuadrangle, traversale_from_quadrangle
from .value import Value

_CLASS_NAMES = {k.value for k in ConicClass}


def _operations() -> dict[str, tuple]:
    """OP -> (function, argument types, result type), read by ``construct`` and ``check``.

    Built on each call, so each command uses the functions bound to this
    module's names when it runs, including names rebound after import.
    """
    return {
        "join": (join, (PPoint, PPoint), PLine),
        "meet": (meet, (PLine, PLine), PPoint),
        "polar": (polar, (Conic, PPoint), PLine),
        "pole": (pole, (Conic, PLine), PPoint),
        "traversale": (traversale_from_quadrangle, (Conic, PPoint), PLine),
    }


class _Token(Value):
    """A whitespace-separated word of a scene line and its 1-based column."""

    __slots__ = ("text", "column")

    def __init__(self, text: str, column: int):
        self._set(text, column)


class _Command(Value):
    """The tokens of one non-empty scene line."""

    __slots__ = ("line_no", "tokens")

    def __init__(self, line_no: int, tokens: tuple[_Token, ...]):
        self._set(line_no, tokens)

    @property
    def verb(self) -> str:
        return self.tokens[0].text


class CommandError(SceneError):
    """A command failed: a domain error, an empty viewport or an unwritable output."""

    def __init__(self, line_no: int, command: str, cause: Exception):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {command}: {cause}")


def parse_scene(text: str) -> list[_Command]:
    commands = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        if not stripped.strip():
            continue
        tokens = []
        col = 0
        for piece in stripped.split():
            col = stripped.index(piece, col)
            tokens.append(_Token(piece, col + 1))
            col += len(piece)
        commands.append(_Command(idx, tuple(tokens)))
    return commands


class Scene:
    """Named exact objects plus the outcomes of executed commands."""

    def __init__(self):
        self.objects: dict[str, object] = {}
        self.checks: list[PropertyResult] = []

    # -- helpers ------------------------------------------------------------

    def _define(self, cmd: _Command, name_token: _Token, value) -> None:
        name = name_token.text
        if name in self.objects:
            raise ParseError(cmd.line_no, name_token.column, f"name {name!r} already defined")
        self.objects[name] = value

    def _lookup(self, cmd: _Command, token: _Token, types) -> object:
        name = token.text
        if name not in self.objects:
            raise UnknownReference(f"line {cmd.line_no}: unknown name {name!r}")
        obj = self.objects[name]
        if not isinstance(obj, types):
            wanted = " or ".join(t.__name__ for t in types)
            raise UnknownReference(
                f"line {cmd.line_no}: {name!r} is {type(obj).__name__}, expected {wanted}"
            )
        return obj

    def _rat(self, cmd: _Command, token: _Token) -> Fraction:
        try:
            return parse_rational(token.text)
        except ValueError as exc:
            raise ParseError(cmd.line_no, token.column, str(exc)) from None

    def _arity(self, cmd: _Command, n: int) -> None:
        if len(cmd.tokens) != n:
            raise ParseError(
                cmd.line_no,
                cmd.tokens[0].column,
                f"{cmd.verb} takes {n - 1} arguments, got {len(cmd.tokens) - 1}",
            )

    @staticmethod
    def _keyed(cmd: _Command, token: _Token, key: str) -> _Token:
        if not token.text.startswith(key + "="):
            raise ParseError(cmd.line_no, token.column, f"expected {key}=..., got {token.text!r}")
        return _Token(token.text[len(key) + 1 :], token.column + len(key) + 1)

    # -- command execution ----------------------------------------------------

    def execute(self, cmd: _Command, base_dir: str = ".") -> None:
        verb = cmd.verb
        try:
            handler = getattr(self, f"_cmd_{verb}", None)
            if handler is None:
                raise ParseError(cmd.line_no, cmd.tokens[0].column, f"unknown command {verb!r}")
            handler(cmd, base_dir)
        except (GeometryError, EmptyViewport, OSError) as exc:
            raise CommandError(cmd.line_no, " ".join(t.text for t in cmd.tokens), exc) from exc

    def _cmd_point(self, cmd: _Command, base_dir: str) -> None:
        self._arity(cmd, 5)
        coords = [self._rat(cmd, t) for t in cmd.tokens[2:5]]
        self._define(cmd, cmd.tokens[1], PPoint(*coords))

    def _cmd_line(self, cmd: _Command, base_dir: str) -> None:
        self._arity(cmd, 5)
        coeffs = [self._rat(cmd, t) for t in cmd.tokens[2:5]]
        self._define(cmd, cmd.tokens[1], PLine(*coeffs))

    def _cmd_conic(self, cmd: _Command, base_dir: str) -> None:
        self._arity(cmd, 8)
        c = [self._rat(cmd, t) for t in cmd.tokens[2:8]]
        self._define(cmd, cmd.tokens[1], Conic.from_coefficients(*c))

    def _cmd_quadrangle(self, cmd: _Command, base_dir: str) -> None:
        self._arity(cmd, 7)
        conic_tok = self._keyed(cmd, cmd.tokens[2], "conic")
        conic = self._lookup(cmd, conic_tok, (Conic,))
        pts = [self._lookup(cmd, t, (PPoint,)) for t in cmd.tokens[3:7]]
        self._define(cmd, cmd.tokens[1], InscribedQuadrangle(conic, *pts))

    def _cmd_chart(self, cmd: _Command, base_dir: str) -> None:
        self._arity(cmd, 6)
        line = self._lookup(cmd, self._keyed(cmd, cmd.tokens[2], "line"), (PLine,))
        origin = self._lookup(cmd, self._keyed(cmd, cmd.tokens[3], "origin"), (PPoint,))
        unit = self._lookup(cmd, self._keyed(cmd, cmd.tokens[4], "unit"), (PPoint,))
        inf = self._lookup(cmd, self._keyed(cmd, cmd.tokens[5], "infinity"), (PPoint,))
        self._define(cmd, cmd.tokens[1], LineChart(line, origin, unit, inf))

    def _cmd_construct(self, cmd: _Command, base_dir: str) -> None:
        if len(cmd.tokens) < 2:
            raise ParseError(cmd.line_no, cmd.tokens[0].column, "construct needs an operation")
        op = cmd.tokens[1].text
        ops = _operations()
        if op not in ops:
            raise ParseError(cmd.line_no, cmd.tokens[1].column, f"unknown construct op {op!r}")
        fn, arg_types, _ = ops[op]
        self._arity(cmd, 5)
        args = [self._lookup(cmd, t, (typ,)) for t, typ in zip(cmd.tokens[3:5], arg_types)]
        self._define(cmd, cmd.tokens[2], fn(*args))

    def _cmd_check(self, cmd: _Command, base_dir: str) -> None:
        if len(cmd.tokens) < 2:
            raise ParseError(cmd.line_no, cmd.tokens[0].column, "check needs an operation")
        op = cmd.tokens[1].text
        label = f"L{cmd.line_no} check {' '.join(t.text for t in cmd.tokens[1:])}"
        ops = _operations()
        if op in ops:
            fn, arg_types, result_type = ops[op]
            self._arity(cmd, 6)
            if cmd.tokens[4].text != "=":
                raise ParseError(cmd.line_no, cmd.tokens[4].column, "expected '='")
            args = [self._lookup(cmd, t, (typ,)) for t, typ in zip(cmd.tokens[2:4], arg_types)]
            expected = self._lookup(cmd, cmd.tokens[5], (result_type,))
            actual = fn(*args)
            self._record(label, actual == expected, f"expected {expected}, got {actual}")
        elif op == "classify":
            self._arity(cmd, 5)
            if cmd.tokens[3].text != "=":
                raise ParseError(cmd.line_no, cmd.tokens[3].column, "expected '='")
            kind = cmd.tokens[4].text
            if kind not in _CLASS_NAMES:
                raise ParseError(
                    cmd.line_no, cmd.tokens[4].column,
                    f"unknown class {kind!r}; one of {sorted(_CLASS_NAMES)}",
                )
            conic = self._lookup(cmd, cmd.tokens[2], (Conic,))
            actual = classify(conic).kind.value
            self._record(label, actual == kind, f"expected {kind}, got {actual}")
        elif op == "incident":
            self._arity(cmd, 4)
            p = self._lookup(cmd, cmd.tokens[2], (PPoint,))
            l = self._lookup(cmd, cmd.tokens[3], (PLine,))
            self._record(label, l.contains(p), f"{p} is not on {l}")
        elif op == "on":
            self._arity(cmd, 4)
            conic = self._lookup(cmd, cmd.tokens[2], (Conic,))
            p = self._lookup(cmd, cmd.tokens[3], (PPoint,))
            self._record(label, conic.contains(p), f"{p} is not on the conic")
        elif op == "equal":
            self._arity(cmd, 4)
            a = self._lookup(cmd, cmd.tokens[2], (object,))
            b = self._lookup(cmd, cmd.tokens[3], (object,))
            self._record(label, a == b, f"{a} != {b}")
        else:
            raise ParseError(cmd.line_no, cmd.tokens[1].column, f"unknown check op {op!r}")

    def _cmd_render(self, cmd: _Command, base_dir: str) -> None:
        if len(cmd.tokens) < 3:
            raise ParseError(cmd.line_no, cmd.tokens[0].column, "render FIGSPEC out=PATH")
        figspec = cmd.tokens[1].text
        out = None
        viewport = None
        width = 640
        for tok in cmd.tokens[2:]:
            if tok.text.startswith("out="):
                out = tok.text[4:]
            elif tok.text.startswith("viewport="):
                try:
                    viewport = parse_viewport(tok.text[len("viewport=") :])
                except ValueError as exc:
                    raise ParseError(cmd.line_no, tok.column, str(exc)) from None
            elif tok.text.startswith("width="):
                try:
                    width = int(tok.text[6:])
                except ValueError:
                    raise ParseError(
                        cmd.line_no, tok.column, f"width must be an integer, got {tok.text[6:]!r}"
                    ) from None
            else:
                raise ParseError(cmd.line_no, tok.column, f"unknown render option {tok.text!r}")
        if not out:
            raise ParseError(cmd.line_no, cmd.tokens[0].column, "render needs out=PATH")
        if figspec == "scene":
            drawables = self.drawables()
            vp = viewport or (Fraction(-3), Fraction(-3), Fraction(3), Fraction(3))
            svg = render_svg(drawables, vp, width)
        else:
            try:
                figure_drawables, default_vp = build_figure(figspec)
            except UnknownReference as exc:
                raise ParseError(cmd.line_no, cmd.tokens[1].column, str(exc)) from None
            svg = render_svg(figure_drawables, viewport or default_vp, width)
        path = out if os.path.isabs(out) else os.path.join(base_dir, out)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)

    def drawables(self) -> list[Drawable]:
        out = []
        for name, obj in self.objects.items():
            if isinstance(obj, Conic):
                out.append(Drawable("conic", obj, name))
            elif isinstance(obj, PLine):
                out.append(Drawable("line", obj, name))
            elif isinstance(obj, InscribedQuadrangle):
                for l1, l2 in obj.bornale_couples:
                    out.append(Drawable("line", l1))
                    out.append(Drawable("line", l2))
        for name, obj in self.objects.items():
            if isinstance(obj, PPoint):
                out.append(Drawable("point", obj, name))
        return out

    def _record(self, label: str, ok: bool, detail: str) -> None:
        self.checks.append(
            PropertyResult(label, 1 if ok else 0, 1, None if ok else detail)
        )


def run_scene_text(text: str, name: str = "scene", base_dir: str = ".") -> VerificationReport:
    commands = parse_scene(text)
    scene = Scene()
    for cmd in commands:
        scene.execute(cmd, base_dir)
    return VerificationReport(
        suite=f"scene:{name}",
        seed=0,
        cases=len(scene.checks),
        properties=tuple(scene.checks),
    )


def run_scene(path: str) -> VerificationReport:
    """Parse and execute a scene file; the report carries one line per check.

    Parse problems raise ParseError with line and column; dangling names
    raise UnknownReference; domain, viewport and output-file errors raise
    CommandError naming the offending command.  Check failures do not
    raise, they make the report fail (CLI exit code 1).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return run_scene_text(
        text, name=os.path.basename(path), base_dir=os.path.dirname(path) or "."
    )
