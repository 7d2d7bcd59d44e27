"""Seeded workloads for the coiso-kit benchmark.

Each workload is a fixed cycle of strata.  Cycle ``c`` of seed ``s`` is drawn
from its own ``random.Random`` stream, so the same (seed, cycle) always gives
the same inputs, and every cycle holds exactly one input per stratum.  The
runner only ever stops between cycles, so each run sees the strata in equal
shares and throughput does not hinge on which seed draws one giant input.

An op is the library work done for one input.  ``check`` is the correctness
gate of the op; a gate that returns False, or an op that raises, counts as a
failed op.  ``serialize`` gives the bytes of an input, so a test can show
that a seed regenerates the same inputs.

The library sees only the generated inputs; it is imported from the source
tree of the checkout by ``run.py``.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from coisokit import (
    AffinePencil,
    DifferentialForm,
    MultiVectorField,
    RingElement,
    Scalar,
    VerticalSection,
    cli,
    coiso_algebra_from_form,
    de_rham_d,
    exp_ad,
    fibre_translate_pushforward,
    invert_affine_pencil,
    make_chart,
    make_coiso_algebra,
    mc_partial_table,
    mc_series_exact,
    pencil_product_defect,
    projection_P,
)
from coisokit._linalg import scalar_det

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_DIR = os.path.join(ROOT, "tests", "data")


def cycle_rng(workload: str, seed: int, cycle: int) -> random.Random:
    # str seeds hash the same way in every process, unlike hash()
    return random.Random(f"{workload}:{seed}:{cycle}")


def _fraction(rng) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


# -- exact_series: the criterion-2 family -------------------------------------------

# (base dim, fibre dim, y-degree of the bivector); one trial of each per cycle
EXACT_STRATA = tuple(itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3)))


@dataclass(frozen=True)
class SeriesTrial:
    stratum: tuple
    pi: MultiVectorField
    alpha: VerticalSection


def _base_factor(rng, chart):
    name = rng.choice(chart.base)
    if chart.kind(name)[0] == "periodic":
        maker = RingElement.cos_of if rng.random() < 0.5 else RingElement.sin_of
        return maker(chart, {name: rng.randint(1, 2)})
    return RingElement.coordinate(chart, name) ** rng.randint(1, 2)


def _monomial(rng, chart, ydeg, base: bool):
    """c * (one base factor if ``base``) * a fibre monomial of total degree ydeg."""
    term = RingElement.constant(chart, _fraction(rng))
    if base:
        term = term * _base_factor(rng, chart)
    for _ in range(ydeg):
        term = term * RingElement.coordinate(chart, rng.choice(chart.fibre))
    return term


def _series_trial(rng, stratum) -> SeriesTrial:
    base_dim, fibre_dim, ydeg = stratum
    # b0 periodic, the rest polynomial: a random periodic flag per coordinate
    # made all-periodic charts whose trial costs set a seed-dependent tail
    base = " ".join(f"b{i}{'*' if i == 0 else ''}" for i in range(base_dim))
    chart = make_chart(base, " ".join(f"f{j}" for j in range(fibre_dim)))
    # wedge pairs with a base factor, so P(pi) = 0 (a centred bivector)
    keys = [
        k for k in itertools.combinations(range(chart.n_dirs), 2)
        if k[0] < chart.n_base
    ]
    pi = MultiVectorField.zero(chart, 2)
    for n in range(2):
        lead = ydeg if n == 0 else rng.randint(0, ydeg)
        coeff = (_monomial(rng, chart, lead, True)
                 + _monomial(rng, chart, rng.randint(0, ydeg), False))
        pi = pi + MultiVectorField(chart, 2, ((rng.choice(keys), coeff),))
    # one monomial per component: a sum here multiplies the term growth of
    # every bracket and gave single trials 100x the cost of their stratum.
    # Which monomials carry a base factor is fixed, not drawn: a random
    # choice let a seed's tail hinge on how many Fourier factors it drew
    comps = [_monomial(rng, chart, 0, j % 2 == 0) for j in range(fibre_dim)]
    return SeriesTrial(stratum, pi, VerticalSection.from_components(chart, comps))


class ExactSeries:
    name = "exact_series"
    strata = EXACT_STRATA

    def __init__(self, seed: int):
        self.seed = seed

    def cycle(self, c: int):
        rng = cycle_rng(self.name, self.seed, c)
        return [_series_trial(rng, s) for s in self.strata]

    @staticmethod
    def run_op(t: SeriesTrial):
        push = fibre_translate_pushforward(t.pi, t.alpha)
        via_exp = exp_ad(t.pi, t.alpha).at_zero_fibre()
        alg = make_coiso_algebra(t.pi, require_poisson=False)
        series = mc_series_exact(alg, t.alpha)
        return via_exp, push.at_zero_fibre(), series, projection_P(push)

    @staticmethod
    def check(t: SeriesTrial, result) -> bool:
        # exp(ad_alpha) pi = pushforward on the zero section; MC series = P(push)
        via_exp, push0, series, p_push = result
        return via_exp == push0 and series == p_push

    @staticmethod
    def serialize(t: SeriesTrial) -> bytes:
        chart = t.pi.chart
        head = f"{t.stratum} {chart.base} {chart.periodic} {chart.fibre}"
        return f"{head}\n{t.pi.render()}\n{t.alpha.render()}\n".encode()


# -- torus_scenarios: scenario text through parse -> run -> emit --------------------

# (symplectic block 2k, kernel rank r); each cycle also runs tests/data/t4.scn
TORUS_STRATA = tuple(itertools.product((1, 2, 3), (2, 3, 4)))
T4_NAME = "t4.scn"


@dataclass(frozen=True)
class ScenarioText:
    name: str
    text: str
    base_dir: str


def _trig(rng, coord) -> str:
    coeff = f"{rng.randint(1, 3)}/{rng.randint(1, 2)}"
    return f"{coeff}*{rng.choice(('sin', 'cos'))}({2 * rng.randint(1, 2)}*pi*{coord})"


def _fourier_section(rng, coords, rank) -> str:
    """A section whose components are single sines/cosines of the given coords."""
    return "(" + ", ".join(_trig(rng, coords[j % len(coords)]) for j in range(rank)) + ")"


def torus_scenario_text(rng, k: int, r: int) -> str:
    """Product-torus model T^{2k} x T^r with a constant and Fourier sections.

    The Fourier sections decide the numeric grid: a section of two
    coordinates samples 32 x 32 points, one of one coordinate 32 points.  The
    (k, r) = (1, 2) model takes one two-coordinate section (the numeric-oracle
    heavy case, a quarter of the cycle's time), the other k = 1 and k = 2
    models one single-coordinate section and k = 3 two of them, so the number
    of checks sharing one cached algebra varies with the stratum.
    """
    ys = [f"y{i + 1}" for i in range(2 * k)]
    qs = [f"q{j + 1}" for j in range(r)]
    ps = [f"p{j + 1}" for j in range(r)]
    block = " + ".join(f"d{ys[2 * i]}/\\d{ys[2 * i + 1]}" for i in range(k))
    consts = ", ".join(
        f"{rng.randint(-3, 3)}/{rng.randint(1, 4)}" for _ in range(r)
    )
    lines = [
        f"# product torus: symplectic block {2 * k}, kernel rank {r}",
        f"chart base=({','.join(n + '*' for n in ys + qs)}) fibre=({','.join(ps)})",
        f"omega = gotay({block}, {', '.join(qs)})",
        "pi = inv_form(omega)",
        f"c = ({consts})",
        "check coisotropic c",
        "check mc c",
    ]
    supports = (2,) if (k, r) == (1, 2) else {1: (1,), 2: (1,), 3: (1, 1)}[k]
    for n, size in enumerate(supports):
        lines.append(f"s{n} = {_fourier_section(rng, rng.sample(ys + qs, size), r)}")
        lines.append(f"check coisotropic s{n}")
        lines.append(f"check mc s{n}")
    lines.append("check jacobi s0")
    if r == 2:
        # a sine pair on one symplectic pair: lambda_1-closed, class NONZERO
        i = rng.randrange(k)
        a = [_trig(rng, ys[2 * i]).replace("cos", "sin"),
             _trig(rng, ys[2 * i + 1]).replace("cos", "sin")]
        lines.append(f"a = ({', '.join(a)})")
        lines.append("check kuranishi a")
    return "\n".join(lines) + "\n"


def parse_report(text: str):
    """Emitted text report -> [(label, status, {detail: value})] per check."""
    blocks = []
    for line in text.splitlines():
        if line.startswith("[") and "] " in line:
            label, status = line.split("] ", 1)[1].rsplit(": ", 1)
            blocks.append((label, status, {}))
        elif line.startswith("    ") and blocks:
            key, _, value = line.strip().partition(": ")
            blocks[-1][2][key] = value
    return blocks


def generated_report_ok(scenario: str, text: str) -> bool:
    """Gate of a generated scenario on the text a user would read.

    The report holds one block per ``check`` line of the scenario, in order.
    Every mc matches its pushforward oracle exactly, jacobi holds at both
    orders, kuranishi certifies NONZERO, and each coisotropic verdict agrees
    with whether the exact MC value of the same section is 0 (criterion 6).
    """
    blocks = parse_report(text)
    checks = [line.split()[1:3] for line in scenario.splitlines()
              if line.startswith("check ")]
    if [label.split()[:2] for label, _, _ in blocks] != checks:
        return False
    mc_zero = {}
    for label, status, details in blocks:
        kind, target = label.split()[:2]
        if kind == "mc":
            if details.get("exact_match") != "true" or status != "pass":
                return False
            mc_zero[target] = details.get("mc") == "0"
        elif kind == "jacobi":
            if details.get("order_1") != "ok" or details.get("order_2") != "ok":
                return False
        elif kind == "kuranishi":
            if details.get("verdict") != "NONZERO":
                return False
    coiso = [(label.split()[1], status) for label, status, _ in blocks
             if label.startswith("coisotropic ")]
    for target, status in coiso:
        if status not in ("pass", "fail") or target not in mc_zero:
            return False
        if (status == "pass") != mc_zero[target]:
            return False
    return True


class TorusScenarios:
    name = "torus_scenarios"
    strata = (T4_NAME,) + TORUS_STRATA

    def __init__(self, seed: int):
        self.seed = seed
        with open(os.path.join(DATA_DIR, T4_NAME), encoding="utf-8") as fh:
            self.t4_text = fh.read()
        with open(os.path.join(DATA_DIR, "t4_report.txt"), encoding="utf-8") as fh:
            self.t4_report = fh.read()

    def cycle(self, c: int):
        rng = cycle_rng(self.name, self.seed, c)
        out = [ScenarioText(T4_NAME, self.t4_text, DATA_DIR)]
        for k, r in TORUS_STRATA:
            name = f"gen_c{c}_k{k}_r{r}.scn"
            out.append(ScenarioText(name, torus_scenario_text(rng, k, r), DATA_DIR))
        return out

    @staticmethod
    def run_op(s: ScenarioText) -> str:
        scenario = cli.parse_scenario(s.text, name=s.name, base_dir=s.base_dir)
        report = cli.run(scenario, cli.RunFlags())
        return cli.emit_report(report, "text")

    def check(self, s: ScenarioText, text: str) -> bool:
        if s.name == T4_NAME:
            return text == self.t4_report
        return generated_report_ok(s.text, text)

    @staticmethod
    def serialize(s: ScenarioText) -> bytes:
        return f"{s.name}\n{s.text}".encode()


# -- jet_pencil: jet-mode inversion and affine pencils ------------------------------

JET_CHART = make_chart("x1 x2 q1 q2", "p1 p2")
JET_ORDER = 12
PENCIL_ORDER = 6
# one jet model per slot "jet"; pencils with 1 and 2 parameters
JET_STRATA = ("jet", "pencil1", "jet", "pencil2")


@dataclass(frozen=True)
class JetModel:
    omega: DifferentialForm
    alpha: VerticalSection


@dataclass(frozen=True)
class Pencil:
    a: tuple
    b: tuple


def _jet_model(rng) -> JetModel:
    """omega = dx1/\\dx2 + dq1/\\dp1 + dq2/\\dp2 + d(c p_j m(x) dx_i).

    m(x) always involves the other x coordinate, so d theta has a genuine
    fibre-linear term and inversion runs through the Neumann series; the
    Pfaffian stays 1, so the form is invertible at y = 0.  The draws keep
    the order-12 error at or below 1e-10 and the order-1 error above 1e-3
    on the 4 x 4 grid (checked over every combination of the choices).
    """
    chart = JET_CHART
    one = RingElement.one(chart)
    x1, x2 = (RingElement.coordinate(chart, n) for n in ("x1", "x2"))
    i = rng.randrange(2)
    other = x2 if i == 0 else x1
    m = rng.choice((other, x1 * x2))
    p = RingElement.coordinate(chart, rng.choice(chart.fibre))
    c = rng.choice((Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)))
    theta = DifferentialForm(chart, 1, (((i,), (p * m).scale(c)),))
    omega = (
        DifferentialForm(chart, 2, (((0, 1), one), ((2, 4), one), ((3, 5), one)))
        + de_rham_d(theta)
    )
    comps = rng.choice(((x1, x1 * x2), (x2, x1), (x1 * x2, x2 * x2)))
    scale = rng.choice((Fraction(1, 10), Fraction(1, 8)))
    alpha = VerticalSection.from_components(chart, [e.scale(scale) for e in comps])
    return JetModel(omega, alpha)


def _pencil(rng, n_params: int) -> Pencil:
    while True:
        a = tuple(tuple(Fraction(rng.randint(-4, 4)) for _ in range(4)) for _ in range(4))
        if not scalar_det([[Scalar.of(x) for x in row] for row in a]).is_zero():
            break
    b = tuple(
        tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(4)) for _ in range(4))
        for _ in range(n_params)
    )
    return Pencil(a, b)


class JetPencil:
    name = "jet_pencil"
    strata = JET_STRATA

    def __init__(self, seed: int):
        self.seed = seed

    def cycle(self, c: int):
        rng = cycle_rng(self.name, self.seed, c)
        out = []
        for s in self.strata:
            if s == "jet":
                out.append(_jet_model(rng))
            else:
                out.append(_pencil(rng, int(s[-1])))
        return out

    @staticmethod
    def run_op(inp):
        if isinstance(inp, JetModel):
            alg = coiso_algebra_from_form(inp.omega, truncation=JET_ORDER)
            table = mc_partial_table(alg, inp.alpha, JET_ORDER, per_axis=4)
            return table.max_error_at(JET_ORDER), table.max_error_at(1)
        labels = tuple(f"v{k + 1}" for k in range(len(inp.b)))
        pencil = AffinePencil.from_rationals(inp.a, inp.b, labels)
        inverse = invert_affine_pencil(pencil, PENCIL_ORDER)
        return pencil_product_defect(pencil, inverse, PENCIL_ORDER)

    @staticmethod
    def check(inp, result) -> bool:
        if isinstance(inp, JetModel):
            err_n, err_1 = result
            return err_n <= 1e-8 and err_1 > 1e-4
        return result == []

    @staticmethod
    def serialize(inp) -> bytes:
        if isinstance(inp, JetModel):
            return f"{inp.omega.render()}\n{inp.alpha.render()}\n".encode()
        return f"{inp.a}\n{inp.b}\n".encode()


WORKLOADS = {w.name: w for w in (ExactSeries, TorusScenarios, JetPencil)}
