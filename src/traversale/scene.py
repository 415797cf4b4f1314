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

The tables below are the grammar: ``_DEFINITIONS`` (the definition verbs),
``_operations()`` (construct and check), ``_PREDICATES`` (check incident, on,
equal) and ``_RENDER_OPTIONS``.  ``Scene._read`` reads the arguments of each
definition, construct and check from its row, and its literal reader reads
the render options, so a new verb, operation or option is a new row.

Parsing reports 1-based line and column, a malformed ``viewport=`` with the
CLI's message; executing reports unknown names and failed checks.  Checks
never abort the run; their verdicts are collected into a deterministic
report.
"""

from __future__ import annotations

import operator
import os
from fractions import Fraction

from .conic import Conic, ConicClass, classify, polar, pole
from .errors import EmptyViewport, GeometryError, ParseError, SceneError, UnknownReference, ViewportOutOfRange
from .numbers import parse_rational
from .projective import LineChart, PLine, PPoint, join, meet
from .render import Drawable, build_figure, parse_viewport, render_svg
from .report import PropertyResult, VerificationReport
from .synthetic import InscribedQuadrangle, traversale_from_quadrangle
from .value import Value

_CLASS_NAMES = {k.value for k in ConicClass}


def _equals(text: str) -> str:
    if text != "=":
        raise ValueError("expected '='")
    return text


def _class_name(text: str) -> str:
    if text not in _CLASS_NAMES:
        raise ValueError(f"unknown class {text!r}; one of {sorted(_CLASS_NAMES)}")
    return text


def _width(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"width must be an integer, got {text!r}") from None


# An argument kind is a type (the name of a defined object of that type), a
# (key, type) pair (the token key=NAME) or a reader of the token's text that
# raises ValueError, such as parse_rational.

# verb NAME ARG... -> (constructor, argument kinds)
_DEFINITIONS = {
    "point": (PPoint, (parse_rational,) * 3),
    "line": (PLine, (parse_rational,) * 3),
    "conic": (Conic.from_coefficients, (parse_rational,) * 6),
    "quadrangle": (InscribedQuadrangle, (("conic", Conic),) + (PPoint,) * 4),
    "chart": (LineChart, (("line", PLine), ("origin", PPoint), ("unit", PPoint), ("infinity", PPoint))),
}

# check OP A B -> (predicate, argument types, failure text formatted with the arguments)
_PREDICATES = {
    "incident": (lambda p, l: l.contains(p), (PPoint, PLine), "{0} is not on {1}"),
    "on": (Conic.contains, (Conic, PPoint), "{1} is not on the conic"),
    "equal": (operator.eq, (object, object), "{0} != {1}"),
}

# render FIGSPEC KEY=TEXT... -> reader of TEXT
_RENDER_OPTIONS = {"out": str, "viewport": parse_viewport, "width": _width}


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

    def _define(self, cmd: _Command, index: int, value) -> None:
        name_token = cmd.tokens[index]
        name = name_token.text
        if name in self.objects:
            raise ParseError(cmd.line_no, name_token.column, f"name {name!r} already defined")
        self.objects[name] = value

    def _lookup(self, cmd: _Command, token: _Token, kind) -> object:
        name = token.text
        if isinstance(kind, tuple):
            key, kind = kind
            if not name.startswith(key + "="):
                raise ParseError(cmd.line_no, token.column, f"expected {key}=..., got {name!r}")
            name = name[len(key) + 1 :]
        if name not in self.objects:
            raise UnknownReference(f"line {cmd.line_no}: unknown name {name!r}")
        obj = self.objects[name]
        if not isinstance(obj, kind):
            raise UnknownReference(
                f"line {cmd.line_no}: {name!r} is {type(obj).__name__}, expected {kind.__name__}"
            )
        return obj

    @staticmethod
    def _literal(cmd: _Command, token: _Token, reader, text: str):
        try:
            return reader(text)
        except ValueError as exc:
            raise ParseError(cmd.line_no, token.column, str(exc)) from None

    def _read(self, cmd: _Command, first: int, kinds: tuple) -> list:
        """The values of ``cmd.tokens[first:]``, one token per kind.

        Every literal is read before any name is looked up, so a malformed
        ``=`` or class name is reported before an unknown object.
        """
        tokens = cmd.tokens[first:]
        if len(tokens) != len(kinds):
            raise ParseError(
                cmd.line_no,
                cmd.tokens[0].column,
                f"{cmd.verb} takes {first - 1 + len(kinds)} arguments, got {len(cmd.tokens) - 1}",
            )
        values = list(kinds)
        names = []
        for i, (tok, kind) in enumerate(zip(tokens, kinds)):
            if isinstance(kind, (type, tuple)):
                names.append(i)
            else:
                values[i] = self._literal(cmd, tok, kind, tok.text)
        for i in names:
            values[i] = self._lookup(cmd, tokens[i], kinds[i])
        return values

    @staticmethod
    def _op(cmd: _Command, known) -> str:
        """The operation token's text; a ParseError if it is missing or not one of ``known``."""
        if len(cmd.tokens) < 2:
            raise ParseError(cmd.line_no, cmd.tokens[0].column, f"{cmd.verb} needs an operation")
        op = cmd.tokens[1].text
        if op not in known:
            raise ParseError(cmd.line_no, cmd.tokens[1].column, f"unknown {cmd.verb} op {op!r}")
        return op

    # -- command execution ----------------------------------------------------

    def execute(self, cmd: _Command, base_dir: str = ".") -> None:
        verb = cmd.verb
        try:
            if verb in _DEFINITIONS:
                build, kinds = _DEFINITIONS[verb]
                self._define(cmd, 1, build(*self._read(cmd, 2, kinds)))
                return
            handler = getattr(self, f"_cmd_{verb}", None)
            if handler is None:
                raise ParseError(cmd.line_no, cmd.tokens[0].column, f"unknown command {verb!r}")
            handler(cmd, base_dir)
        except (GeometryError, EmptyViewport, ViewportOutOfRange, OSError) as exc:
            raise CommandError(cmd.line_no, " ".join(t.text for t in cmd.tokens), exc) from exc

    def _cmd_construct(self, cmd: _Command, base_dir: str) -> None:
        ops = _operations()
        fn, arg_types, _ = ops[self._op(cmd, ops)]
        self._define(cmd, 2, fn(*self._read(cmd, 3, arg_types)))

    def _cmd_check(self, cmd: _Command, base_dir: str) -> None:
        ops = _operations()
        op = self._op(cmd, (*ops, *_PREDICATES, "classify"))
        label = f"L{cmd.line_no} check {' '.join(t.text for t in cmd.tokens[1:])}"
        if op in _PREDICATES:
            fn, arg_types, failure = _PREDICATES[op]
            args = self._read(cmd, 2, arg_types)
            self._record(label, fn(*args), lambda: failure.format(*args))
            return
        if op == "classify":
            conic, _, expected = self._read(cmd, 2, (Conic, _equals, _class_name))
            actual = classify(conic).kind.value
        else:
            fn, arg_types, result_type = ops[op]
            *args, _, expected = self._read(cmd, 2, (*arg_types, _equals, result_type))
            actual = fn(*args)
        self._record(label, actual == expected, lambda: f"expected {expected}, got {actual}")

    def _cmd_render(self, cmd: _Command, base_dir: str) -> None:
        if len(cmd.tokens) < 3:
            raise ParseError(cmd.line_no, cmd.tokens[0].column, "render FIGSPEC out=PATH")
        figspec = cmd.tokens[1]
        options = {"out": "", "viewport": None, "width": 640}
        for tok in cmd.tokens[2:]:
            key, eq, text = tok.text.partition("=")
            if not eq or key not in _RENDER_OPTIONS:
                raise ParseError(cmd.line_no, tok.column, f"unknown render option {tok.text!r}")
            options[key] = self._literal(cmd, tok, _RENDER_OPTIONS[key], text)
        out = options["out"]
        if not out:
            raise ParseError(cmd.line_no, cmd.tokens[0].column, "render needs out=PATH")
        if figspec.text == "scene":
            drawables, viewport = self.drawables(), (Fraction(-3), Fraction(-3), Fraction(3), Fraction(3))
        else:
            try:
                drawables, viewport = build_figure(figspec.text)
            except UnknownReference as exc:
                raise ParseError(cmd.line_no, figspec.column, str(exc)) from None
        svg = render_svg(drawables, options["viewport"] or viewport, options["width"])
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

    def _record(self, label: str, ok: bool, detail) -> None:
        """Record a verdict; ``detail()`` formats the counterexample of a failed check only."""
        self.checks.append(PropertyResult(label, 1 if ok else 0, 1, None if ok else detail()))


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
