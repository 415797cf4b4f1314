"""The four benchmark workloads: seeded inputs, calls into traversale, checks.

Each workload turns ``--seed`` into a stream of chunks.  ``prepare(j)``
builds the inputs of chunk ``j`` (untimed), ``run`` makes the calls into the
program and times each task, and ``check`` compares the outputs with what
the benchmark expects (untimed).  One chunk is the workload's fixed task
list; ``wall_s`` is the median chunk time.

The program never sees the seed: it receives conic matrices, points, scene
texts and the verify seed as plain inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import time
from fractions import Fraction

from traversale import cli, conic, involution, linalg, projective, render, scene, synthetic, verify
from traversale.conic import Conic, ConicClass
from traversale.errors import NoRationalSecants
from traversale.involution import InvolutionKind, PointPair
from traversale.numbers import from_pair
from traversale.projective import Homography

DEFAULT_SEED = 1  # the seed of `traversale verify --all`; references are stored for it
UNIT_CIRCLE = ((1, 0, 0), (0, 1, 0), (0, 0, -1))
CIRCLE = Conic.unit_circle()
FIGURES = ("fig8", "fig10", "fig13", "fig14", "fig16")


class Tally:
    """Everything one measured stretch of a workload produced.

    A chunk is timed in one or more segments; each segment carries the
    machine-speed factor measured around it, and a scaled time is a raw
    time multiplied by the factor of its segment.
    """

    def __init__(self):
        self.walls: list[float] = []  # raw seconds per chunk
        self.scaled: list[float] = []  # calibrated seconds per chunk
        self.chunk_tasks: list[int] = []
        self.segment_starts: list[int] = []  # index of each segment's first latency sample
        self.scales: list[float] = []  # one per segment
        self.probes: list[float] = []  # raw speed-probe seconds after each segment
        self.latencies_ms: list[float] = []  # raw
        self.tasks = 0  # tasks attempted; unbuildable draws are not tasks
        self.failed = 0
        self.draws = 0  # construction draws tried, built or not
        self.by_k: dict[int, tuple[list[int], list[int]]] = {}  # k -> (conic bits, latency sample indices)
        self.failures: list[str] = []

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 5:
            self.failures.append(what)

    def add_segment(self, first_sample, scale, probe) -> None:
        self.segment_starts.append(first_sample)
        self.scales.append(scale)
        self.probes.append(probe)

    def add_chunk(self, wall, scaled, tasks) -> None:
        self.walls.append(wall)
        self.scaled.append(scaled)
        self.chunk_tasks.append(tasks)

    def scaled_latencies(self) -> list[float]:
        ends = self.segment_starts[1:] + [len(self.latencies_ms)]
        return [
            x * scale
            for start, end, scale in zip(self.segment_starts, ends, self.scales)
            for x in self.latencies_ms[start:end]
        ]

    def growth(self) -> dict[int, tuple[list[int], list[float]]]:
        """k -> (conic bits, scaled task ms), for deep-chain's growth curve."""
        scaled = self.scaled_latencies()
        return {k: (bits, [scaled[i] for i in idx]) for k, (bits, idx) in sorted(self.by_k.items())}

    def merge_outcomes(self, other: "Tally") -> None:
        self.tasks += other.tasks
        self.failed += other.failed
        self.failures = other.failures + self.failures


# ---------------------------------------------------------------------------
# exact integer helpers of the benchmark's own, used to make inputs and
# expected values independently of traversale
# ---------------------------------------------------------------------------

def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)) for i in range(3))


def _mat_vec(m, v):
    return tuple(sum(m[i][k] * v[k] for k in range(3)) for i in range(3))


def _transpose(m):
    return tuple(tuple(m[j][i] for j in range(3)) for i in range(3))


def _adjugate(m):
    def minor(i, j):
        r = [row for k, row in enumerate(m) if k != i]
        c = [[x for k, x in enumerate(row) if k != j] for row in r]
        return c[0][0] * c[1][1] - c[0][1] * c[1][0]

    return tuple(tuple((-1) ** (i + j) * minor(j, i) for j in range(3)) for i in range(3))


def _det(m):
    return sum(m[0][j] * _adjugate(m)[j][0] for j in range(3))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _reduced(values):
    g = 0
    for v in values:
        g = math.gcd(g, v)
    return tuple(v // g for v in values)


def _reduced_mat(m):
    flat = _reduced([x for row in m for x in row])
    return (flat[0:3], flat[3:6], flat[6:9])


def _random_homography(rng, bound):
    while True:
        m = tuple(tuple(rng.randint(-bound, bound) for _ in range(3)) for _ in range(3))
        if _det(m) != 0:
            return m


def _distinct_params(rng, n, top=8, den=6):
    out: list[Fraction] = []
    while len(out) < n:
        t = Fraction(rng.randint(-top, top), rng.randint(1, den))
        if t not in out:
            out.append(t)
    return out


def _circle_point(t: Fraction):
    p, q = t.numerator, t.denominator
    return (q * q - p * p, 2 * p * q, q * q + p * p)


def _bits(values) -> int:
    return max(abs(int(v)).bit_length() for v in values)


def _conic_bits(c: Conic) -> int:
    return _bits(x for row in c.matrix for x in row)


# ---------------------------------------------------------------------------
# constructions and deep-chain: one task, two families of conics
# ---------------------------------------------------------------------------

class _Draw:
    """Inputs of one construction task: a homography and chart parameters."""

    __slots__ = ("k", "matrix", "t1", "t2", "couples")

    def __init__(self, k, matrix, rng):
        self.k = k
        self.matrix = matrix
        self.t1, self.t2 = _distinct_params(rng, 2)
        self.couples = _distinct_params(rng, 4, top=9, den=5)


def _construction(draw: _Draw, tr):
    """One construction task; returns (failed checks, conic bits, point bits).

    The conic is the unit circle moved by ``draw.matrix``.  Two points
    p1, p2 of it are drawn; f is the meet of their tangents, so polar(f) is
    the chord p1p2 and pole(chord) is f.  The ruler-built traversale and
    pole must equal those exactly.
    """
    J = lambda p, q: tr.call("projective.join", projective.join, p, q)
    M = lambda l, m: tr.call("projective.meet", projective.meet, l, m)
    h = tr.call("projective.homography", Homography, draw.matrix)
    c = tr.call("conic.transform", conic.transform, CIRCLE, h)
    par = conic.rational_parametrize(c, c.witness)
    p1 = tr.call("conic.param_point", par.point, draw.t1)
    p2 = tr.call("conic.param_point", par.point, draw.t2)
    f = M(tr.call("conic.polar", conic.polar, c, p1), tr.call("conic.polar", conic.polar, c, p2))
    tau = tr.call("conic.polar", conic.polar, c, f)

    quad = tr.call("synthetic.quadrangle_through", synthetic.inscribed_quadrangle_through, c, f)
    b, c2, d, e = quad.bornes
    f_again = M(J(b, c2), J(d, e))
    n = M(J(c2, d), J(b, e))
    g = M(J(b, d), J(c2, e))
    ruler = J(g, n)
    built = tr.call("synthetic.traversale", synthetic.traversale_from_quadrangle, c, f)

    chord = J(p1, p2)
    prim = tr.call("linalg.primitive", linalg.primitive, linalg.cross(p1.coords, p2.coords))
    pole = tr.call("conic.pole", conic.pole, c, chord)
    pole_built = tr.call("synthetic.pole_by_construction", synthetic.pole_by_construction, c, chord)

    inv = tr.call("conic.polarity_involution", conic.polarity_involution_on_line, c, chord)
    kind, fixed = tr.call("involution.classify_fixed", involution.classify_and_fixed_points, inv)
    ends = {from_pair(tr.call("projective.pair_of", inv.chart.pair_of, p)) for p in (p1, p2)}
    s1 = draw.couples[0]
    first = PointPair(s1, inv.apply(s1))
    s2 = next(s for s in draw.couples[1:] if s not in (first.first, first.second))
    second = PointPair(s2, inv.apply(s2))
    rebuilt = tr.call("involution.from_two_pairs", involution.involution_from_two_pairs, first, second, inv.chart)

    meets = tr.call("conic.line_intersect", conic.line_intersect, c, chord)
    cls = tr.call("conic.classify", conic.classify, c)

    checks = {
        "diagonal point is f": f_again == f,
        "ruler traversale == polar": ruler == tau,
        "traversale_from_quadrangle == polar": built == tau,
        "polar(f) is the chord of contact": tau == chord,
        "primitive(cross) == join": prim == chord.coeffs,
        "pole(chord) == f": pole == f,
        "pole_by_construction == pole": pole_built == pole,
        "polarity involution fixes the chord's ends": kind is InvolutionKind.HYPERBOLIC and set(fixed) == ends,
        "involution_from_two_pairs rebuilds it": rebuilt == inv,
        "line_intersect gives the chord's ends": set(meets) == {p1, p2},
        "classify: nondegenerate (2, 1)": cls.kind is ConicClass.NONDEGENERATE_REAL and cls.signature == (2, 1),
    }
    point_bits = _bits([*tau.coeffs, *(x for p in (f, pole, n, g, *quad.bornes) for x in p.coords)])
    return [name for name, ok in checks.items() if not ok], _conic_bits(c), point_bits


def _run_constructions(draws, tr, tally, lap):
    for i, draw in enumerate(draws):
        if i:
            lap()  # each task is its own calibration segment
        tally.draws += 1
        start = time.perf_counter()
        try:
            failed, conic_bits, point_bits = tr.call("task", _construction, draw, tr)
        except NoRationalSecants:
            continue  # unbuildable draw: not a task, and never a pass
        except Exception as exc:  # noqa: BLE001 -- any other exception is a wrong result
            failed, conic_bits, point_bits = [f"{type(exc).__name__}: {exc}"], 0, 0
        ms = (time.perf_counter() - start) * 1000
        tally.tasks += 1
        tally.latencies_ms.append(ms)
        if failed:
            tally.fail(f"k={draw.k} {draw.matrix} t=({draw.t1}, {draw.t2}): {', '.join(failed)}")
        tr.count("conic.max_coeff_bits", conic_bits)
        tr.count("projective.max_coeff_bits", point_bits)
        bits, samples = tally.by_k.setdefault(draw.k, ([], []))
        bits.append(conic_bits)
        samples.append(len(tally.latencies_ms) - 1)


class Constructions:
    """Small-coefficient conics: one homography with entries in [-4, 4]."""

    name = "constructions"
    tasks_per_chunk = 40

    def __init__(self, seed, workdir, reference):
        self.seed = seed

    def instrument(self, tracer):
        return []

    def prepare(self, chunk):
        rng = random.Random(f"{self.name}:{self.seed}:{chunk}")
        return [_Draw(1, _random_homography(rng, 4), rng) for _ in range(self.tasks_per_chunk)]

    def run(self, draws, tr, tally, lap):
        _run_constructions(draws, tr, tally, lap)

    def check(self, draws, outputs, tally):
        pass  # every task checks its own results exactly


class DeepChain(Constructions):
    """The same task on conics pushed through k composed homographies."""

    name = "deep-chain"
    chain_lengths = (1,) + tuple(range(16, 257, 16))

    def prepare(self, chunk):
        rng = random.Random(f"{self.name}:{self.seed}:{chunk}")
        draws = []
        m = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        for k in range(1, self.chain_lengths[-1] + 1):
            m = _reduced_mat(_mat_mul(_random_homography(rng, 4), m))
            if k in self.chain_lengths:
                draws.append(_Draw(k, m, rng))
        return draws


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

def _svg_shape(tracer, svg):
    tracer.count("render.svg_bytes", len(svg.encode("utf-8")))
    tracer.count("render.polyline_points", sum(p.count(",") for p in re.findall(r'points="([^"]*)"', svg)))


class VerifyAll:
    """`verify_all(seed)` at default case counts, one suite call at a time.

    Every chunk runs the same seed, as a user re-running
    `traversale verify --all --seed N` does, and must repeat its bytes.
    """

    name = "verify-all"

    def __init__(self, seed, workdir, reference):
        self.seed = seed
        self.expected = reference["verify_all_seed1_sha256"] if seed == DEFAULT_SEED else None

    def instrument(self, tracer):
        return [
            tracer.wrap(render, "build_figure", "render.build_figure"),
            tracer.wrap(render, "render_svg", "render.render_svg", _svg_shape),
            tracer.wrap(verify, "build_figure", "render.build_figure"),
        ]

    def prepare(self, chunk):
        return verify.ALL_SUITES

    def run(self, suites, tr, tally, lap):
        """verify_all(seed) is exactly this loop over verify_suite.

        Each suite is its own timing segment, so the speed calibration
        follows the machine within the 2-3 s pass.
        """
        texts = []
        for i, name in enumerate(suites):
            if i:
                lap()
            start = time.perf_counter()
            report = tr.call(f"verify.suite.{name}", verify.verify_suite, name, self.seed)
            elapsed_ms = (time.perf_counter() - start) * 1000
            texts.append(tr.call("report.to_text", report.to_text))
            n = sum(p.total_cases for p in report.properties)
            tally.latencies_ms.extend([elapsed_ms / n] * n)
            tally.tasks += n
        return texts

    def check(self, suites, texts, tally):
        cases = 0
        for name, text in zip(suites, texts):
            n = sum(int(m.group(2)) for m in map(_PROPERTY_LINE.match, text.splitlines()) if m)
            cases += n
            problem = _report_problem(name, self.seed, text)
            if problem:
                tally.fail(f"suite {name} seed {self.seed}: {problem}", n)
        digest = hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()
        if self.expected is None:
            self.expected = digest  # other seeds: every pass must repeat the first
        if digest != self.expected:
            tally.fail(f"verify report digest {digest} != {self.expected}", cases)


_PROPERTY_LINE = re.compile(r"(PASS|FAIL) \S+ (\d+)/(\d+)$")


def _report_problem(suite, seed, text):
    """Why a verify report is not an all-PASS report of this suite, or None."""
    lines = text.splitlines()
    head = [f"suite: {suite}", f"seed: {seed}"]
    if lines[:2] != head or not lines[2].startswith("cases: ") or not lines[-1].startswith("summary {"):
        return f"unexpected report layout: {lines[:3]} ... {lines[-1:]}"
    props = [_PROPERTY_LINE.match(line) for line in lines[3:-1]]
    if not props or not all(props):
        return f"unexpected property lines: {lines[3:-1]}"
    failing = [m.group(0) for m in props if m.group(1) != "PASS" or m.group(2) != m.group(3)]
    summary = json.loads(lines[-1][len("summary "):])
    if failing or summary != {"suite": suite, "seed": seed, "cases": int(lines[2][7:]),
                              "properties": len(props), "failures": 0}:
        return f"failing properties {failing}, summary {summary}"
    return None


# ---------------------------------------------------------------------------
# scenes
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return str(Fraction(v))


def scene_inputs(rng, label):
    """A scene text checking the traversale and pole of a random conic.

    The conic is the unit circle under a random homography, translated so
    that its first borne B lies on the y-axis, where traversale's
    rational-point search looks first.  Returns the text, the number of
    checks in it, its points in definition order, and its viewport.
    """
    while True:
        h = _random_homography(rng, 3)
        pts = [_mat_vec(h, _circle_point(t)) for t in _distinct_params(rng, 4)]
        bx, _, bz = pts[0]
        if bz != 0 and all(p[2] != 0 for p in pts):
            break
    shift = ((bz, 0, -bx), (0, bz, 0), (0, 0, bz))
    h = _mat_mul(shift, h)
    b, c, d, e = (_reduced(_mat_vec(shift, p)) for p in pts)
    adj = _adjugate(h)
    m = _reduced_mat(_mat_mul(_mat_mul(_transpose(adj), UNIT_CIRCLE), adj))
    f = _reduced(_cross(_cross(b, c), _cross(d, e)))
    tau = _reduced(_mat_vec(m, f))
    coeffs = (Fraction(m[0][0], 2), Fraction(m[1][1], 2), Fraction(m[2][2], 2), m[0][1], m[0][2], m[1][2])
    xs = [Fraction(p[0], p[2]) for p in (b, c, d, e)]
    ys = [Fraction(p[1], p[2]) for p in (b, c, d, e)]
    pad_x, pad_y = (max(xs) - min(xs)) / 2, (max(ys) - min(ys)) / 2
    viewport = (min(xs) - pad_x, min(ys) - pad_y, max(xs) + pad_x, max(ys) + pad_y)
    lines = [
        f"# {label}: traversale and pole on a transformed circle",
        "conic k " + " ".join(_fmt(x) for x in coeffs),
    ]
    for name, p in zip("BCDE", (b, c, d, e)):
        lines.append(f"point {name} " + " ".join(map(str, p)))
    lines += [
        "quadrangle q conic=k B C D E",
        "point F " + " ".join(map(str, f)),
        "line tau " + " ".join(map(str, tau)),
        "check on k B",
        "check on k C",
        "check on k D",
        "check on k E",
        "check classify k = nondegenerate-real",
        "construct join bc B C",
        "construct join de D E",
        "construct join cd C D",
        "construct join be B E",
        "construct join bd B D",
        "construct join ce C E",
        "construct meet F2 bc de",
        "check equal F2 F",
        "check incident F bc",
        "construct meet N cd be",
        "construct meet G bd ce",
        "construct join gn G N",
        "check equal gn tau",
        "check polar k F = tau",
        "check traversale k F = tau",
        "construct traversale tau3 k F",
        "check equal tau3 tau",
        "construct pole Fb k tau",
        "check equal Fb F",
        "check pole k tau = F",
    ]
    checks = sum(1 for line in lines if line.startswith("check "))
    # every PPoint the scene defines, in definition order: B C D E F F2 N G Fb
    n = _reduced(_cross(_cross(c, d), _cross(b, e)))
    g = _reduced(_cross(_cross(b, d), _cross(c, e)))
    points = [b, c, d, e, f, f, n, g, f]
    return lines, checks, points, viewport


def _expected_circles(points, viewport, width=640):
    """SVG centres of the points inside the viewport, computed exactly."""
    xmin, ymin, xmax, ymax = viewport
    scale = Fraction(width) / (xmax - xmin)
    out = []
    for x, y, z in points:
        if z == 0:
            continue
        px, py = Fraction(x, z), Fraction(y, z)
        if xmin <= px <= xmax and ymin <= py <= ymax:
            out.append((float((px - xmin) * scale), float((ymax - py) * scale)))
    return out


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


_CIRCLE_RE = re.compile(r'<circle [^>]*cx="([^"]+)" cy="([^"]+)"')


class Scenes:
    """Generated scene files run with `traversale run`, in-process."""

    name = "scenes"

    def __init__(self, seed, workdir, reference):
        self.seed = seed
        self.workdir = workdir
        self.figures = reference["figures_sha256"]
        self.seed1 = reference["scenes_seed1_chunk0_sha256"] if seed == DEFAULT_SEED else None

    def instrument(self, tracer):
        return [
            tracer.wrap(cli, "run_scene", "scene.run"),
            tracer.wrap(scene, "parse_scene", "scene.parse"),
            tracer.wrap(scene, "build_figure", "render.build_figure"),
            tracer.wrap(scene, "render_svg", "render.render_svg", _svg_shape),
            tracer.wrap(scene, "join", "projective.join"),
            tracer.wrap(scene, "meet", "projective.meet"),
            tracer.wrap(scene, "polar", "conic.polar"),
            tracer.wrap(scene, "pole", "conic.pole"),
            tracer.wrap(scene, "classify", "conic.classify"),
            tracer.wrap(scene, "traversale_from_quadrangle", "synthetic.traversale"),
        ]

    def prepare(self, chunk):
        rng = random.Random(f"{self.name}:{self.seed}:{chunk}")
        scenes = []
        for i, figure in enumerate(FIGURES):
            stem = f"s{i}"
            lines, checks, points, viewport = scene_inputs(rng, f"chunk {chunk} scene {i}")
            lines.append(f"render scene out={stem}-scene.svg viewport=" + ",".join(_fmt(v) for v in viewport))
            lines.append(f"render {figure} out={stem}-{figure}.svg")
            path = os.path.join(self.workdir, f"{stem}.scene")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            svgs = (os.path.join(self.workdir, f"{stem}-scene.svg"), os.path.join(self.workdir, f"{stem}-{figure}.svg"))
            for svg in svgs:
                if os.path.exists(svg):
                    os.remove(svg)
            scenes.append((path, figure, len(lines), checks, _expected_circles(points, viewport), svgs))
        return chunk, scenes

    def run(self, inputs, tr, tally, lap):
        outputs = []
        for i, (path, _, commands, *_) in enumerate(inputs[1]):
            if i:
                lap()  # each scene is its own calibration segment
            out = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = tr.call("cli.main", cli.main, ["run", path])
            except Exception as exc:  # noqa: BLE001 -- reported as a wrong result
                code = f"{type(exc).__name__}: {exc}"
            tally.latencies_ms.append((time.perf_counter() - start) * 1000)
            tr.count("scene.commands", commands)
            outputs.append((code, out.getvalue()))
        return outputs

    def check(self, inputs, outputs, tally):
        chunk, scenes = inputs
        for i, ((path, figure, _, checks, circles, svgs), (code, report)) in enumerate(zip(scenes, outputs)):
            tally.tasks += 1
            reference = self.seed1[i] if self.seed1 is not None and chunk == 0 else None
            problem = self._problem(figure, checks, circles, svgs, code, report, reference)
            if problem:
                tally.fail(f"{os.path.basename(path)} chunk {chunk}: {problem}")

    def _problem(self, figure, checks, circles, svgs, code, report, reference):
        if code != 0:
            return f"exit {code}"
        verdicts = [line.split()[0] for line in report.splitlines() if line.startswith(("PASS ", "FAIL "))]
        if len(verdicts) != checks or any(v != "PASS" for v in verdicts):
            return f"expected {checks} PASS lines, got {verdicts}"
        scene_svg, figure_svg = (_read(p) for p in svgs)
        digests = [hashlib.sha256(t.encode("utf-8")).hexdigest() for t in (report, scene_svg, figure_svg)]
        if digests[2] != self.figures[figure]:
            return f"{figure} SVG digest {digests[2]} differs from the reference"
        if reference is not None and digests[:2] != reference:
            return f"report/scene SVG digests {digests[:2]} differ from the reference"
        drawn = [(float(x), float(y)) for x, y in _CIRCLE_RE.findall(scene_svg)]
        if len(drawn) != len(circles) or any(
            abs(a - x) > 1e-9 * (1 + abs(x)) or abs(b - y) > 1e-9 * (1 + abs(y))
            for (a, b), (x, y) in zip(drawn, circles)
        ):
            return f"scene SVG points {drawn} differ from the exact positions {circles}"
        return None


WORKLOADS = {w.name: w for w in (VerifyAll, Constructions, DeepChain, Scenes)}
