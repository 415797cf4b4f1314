"""Command-line interface.

Each verb takes only the options its handler reads:

    polar --conic --point          pole --conic --line
    traversale --conic --point [--transcript PATH]
    involution --pair --pair       classify --conic
    run SCENE [--out PATH]
    render FIGURE [--viewport=XMIN,YMIN,XMAX,YMAX] [--width] [--out PATH]
    verify [SUITE ...] [--all] [--seed N] [--cases N] [--out PATH]

Exact literals only: points as "(x, y, z)", lines as "[u, v, w]", conics as
six rationals "a b c d e f", involution couples as "{t1, t2}" with "inf",
viewports as "--viewport=-2,-2,2,2" (in the spaced form "--viewport
-2,-2,2,2" argparse takes the value for an option and exits 2).

Exit codes: 0 all checks pass, 1 a check failed, 2 bad input (an unknown
option, parse errors, unknown references, geometric preconditions,
unreadable or directory paths, a width below 1, a case count below 1, a
viewport too large for float coordinates).
DESARGUES_SEED, when set, overrides verify's --seed.

Only the kernel is imported with this module.  The construction, scene,
render and verify layers are imported by the verbs that use them, so a
`polar` call loads none of them.  The argument parser is built once per
process, on the first call to :func:`main`; each call parses into a fresh
namespace, so in-process callers (a scene loop, the tests) share no
parsed state.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .conic import Conic, classify, polar, pole
from .errors import GeometryError, SceneError
from .involution import PointPair, classify_and_fixed_points, involution_from_two_pairs, souche_of
from .numbers import format_extended, format_repr, parse_rational
from .projective import PLine, PPoint, canonical_chart


# The names the render and verify options list, spelled here so that
# building the parser imports neither layer; the tests hold them equal to
# render.FIGURES and verify.ALL_SUITES.
_FIGURE_NAMES = ("fig10", "fig13", "fig14", "fig16", "fig8")
_SUITE_IDS = (
    "involution-equivalence", "ramee", "biduality", "incidence-duality", "quadrangle-independence",
    "pencil-theorem", "two-involutions", "harmonic-FGXY", "transport", "classification",
    "worked-example", "affine-diameters", "self-polar", "rendering",
)


class _InputError(Exception):
    pass


def run_scene(path: str):
    """Run a scene file, importing the scene language on the first call.

    The `run` verb calls it by this module-level name, so a tracer can
    rebind it.
    """
    from .scene import run_scene

    return run_scene(path)


def _parse_conic(text: str) -> Conic:
    parts = text.replace(",", " ").split()
    if len(parts) != 6:
        raise _InputError(f"a conic needs six rationals (a b c d e f), got {text!r}")
    try:
        coeffs = [parse_rational(p) for p in parts]
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    return Conic.from_coefficients(*coeffs)


def _parse_literal(parse, text: str):
    """``parse(text)`` with a malformed literal reported as bad input."""
    try:
        return parse(text)
    except ValueError as exc:
        raise _InputError(str(exc)) from None


def _effective_seed(args) -> int:
    env = os.environ.get("DESARGUES_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _InputError(f"DESARGUES_SEED must be an integer, got {env!r}") from None
    return args.seed


def _cmd_polar(args) -> int:
    print(str(polar(_parse_conic(args.conic), _parse_literal(PPoint.parse, args.point))))
    return 0


def _cmd_pole(args) -> int:
    print(str(pole(_parse_conic(args.conic), _parse_literal(PLine.parse, args.line))))
    return 0


def _cmd_traversale(args) -> int:
    from .synthetic import inscribed_quadrangle_through, quadrangle_transcript, traversale_from_quadrangle

    conic = _parse_conic(args.conic)
    point = _parse_literal(PPoint.parse, args.point)
    constructed = traversale_from_quadrangle(conic, point)
    algebraic = polar(conic, point)
    agree = constructed == algebraic
    print(f"traversale {constructed}")
    print(f"polar      {algebraic}")
    print(f"agreement  {'exact' if agree else 'MISMATCH'}")
    if args.transcript:
        with open(args.transcript, "w", encoding="utf-8") as fh:
            fh.write(quadrangle_transcript(inscribed_quadrangle_through(conic, point)))
        print(f"transcript {args.transcript}")
    return 0 if agree else 1


def _cmd_involution(args) -> int:
    if len(args.pair) != 2:
        raise _InputError("exactly two --pair couples determine an involution")
    chart = canonical_chart(PLine(0, 1, 0))
    first, second = (_parse_literal(PointPair.parse, text) for text in args.pair)
    inv = involution_from_two_pairs(first, second, chart)
    kind, fixed = classify_and_fixed_points(inv)
    print(f"matrix {format_repr(inv.matrix)}")
    print(f"kind {kind.value}")
    if fixed is not None:
        print("fixed " + " ".join(format_extended(t) for t in fixed))
    print(f"souche {format_extended(souche_of(inv))}")
    return 0


def _cmd_classify(args) -> int:
    result = classify(_parse_conic(args.conic))
    print(f"class {result.kind.value}")
    print("signature " + format_repr(result.signature))
    print(f"rank {result.rank}")
    if result.point_double is not None:
        print(f"point-double {result.point_double}")
    if result.double_line is not None:
        print(f"double-line {result.double_line}")
    return 0


def _cmd_run(args) -> int:
    report = run_scene(args.scene)
    text = report.to_text()
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if report.passed else 1


def _cmd_render(args) -> int:
    from .render import parse_viewport, render_figure

    viewport = _parse_literal(parse_viewport, args.viewport) if args.viewport else None
    svg = render_figure(args.figure, viewport=viewport, width=args.width)
    out = args.out or f"{args.figure}.svg"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {out}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import verify_all, verify_suite

    seed = _effective_seed(args)
    if args.all or not args.suites:
        reports = verify_all(seed, args.cases)
    else:
        reports = [verify_suite(name, seed, args.cases) for name in args.suites]
    text = "\n".join(r.to_text() for r in reports)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if all(r.passed for r in reports) else 1


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traversale",
        description="Exact projective polarity: Desargues constructions vs quadratic forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    p = verb("polar", _cmd_polar, "polar line of a point")
    p.add_argument("--conic", required=True)
    p.add_argument("--point", required=True)

    p = verb("pole", _cmd_pole, "pole point of a line")
    p.add_argument("--conic", required=True)
    p.add_argument("--line", required=True)

    p = verb("traversale", _cmd_traversale, "ruler-built traversale of a point, checked against the polar")
    p.add_argument("--conic", required=True)
    p.add_argument("--point", required=True)
    p.add_argument(
        "--transcript", default=None, metavar="PATH",
        help="also write the construction as a runnable scene transcript",
    )

    p = verb("involution", _cmd_involution, "involution from two couples")
    p.add_argument("--pair", action="append", required=True, help='couple "{t1, t2}", twice')

    p = verb("classify", _cmd_classify, "exact class and inertia of a conic")
    p.add_argument("--conic", required=True)

    p = verb("run", _cmd_run, "execute a scene file")
    p.add_argument("scene")
    p.add_argument("--out", default=None, metavar="PATH", help="also write the report to PATH")

    p = verb("render", _cmd_render, "render a built-in figure to SVG")
    p.add_argument("figure", choices=_FIGURE_NAMES)
    p.add_argument("--viewport", metavar="XMIN,YMIN,XMAX,YMAX", help="four rationals: --viewport=-2,-2,2,2")
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--out", default=None, metavar="PATH", help="SVG path (default FIGURE.svg)")

    p = verb("verify", _cmd_verify, "run verification suites")
    p.add_argument("suites", nargs="*", help=f"suite ids ({', '.join(_SUITE_IDS)})")
    p.add_argument("--all", action="store_true", help="run every suite")
    p.add_argument("--seed", type=int, default=1, help="PRNG seed (DESARGUES_SEED overrides)")
    p.add_argument("--cases", type=int, default=None, help="cases per randomized property")
    p.add_argument("--out", default=None, metavar="PATH", help="also write the report to PATH")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (_InputError, SceneError, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
