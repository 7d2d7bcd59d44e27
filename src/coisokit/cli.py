"""Scenario runner: a small declarative language for charts, fields and checks.

A scenario is line oriented:

    # comment
    chart base=(y1*,y2*,q1*,q2*) fibre=(p1,p2) [domain=1/2]
    pi = inv_form(dy1/\\dy2 + dq1/\\dp1 + dq2/\\dp2)
    a = (sin(2*pi*y1), sin(2*pi*y2))
    check kuranishi a

Expressions cover rationals, ``pi``, ``i``, coordinate names, ``sin``/``cos``,
``+ - * / ^``, wedge ``/\\``, vector symbols ``@p1``, form symbols ``dp1``,
and the constructors ``inv_form(...)`` and ``gotay(...)``.  A sin/cos
argument is an expression in ``pi``, ``i``, rationals and the periodic
coordinates that must come out as 2*pi times an integer combination of
periodic coordinates, such as ``2*pi*(y1 - 3*y2)``.  Inside expressions the
name ``pi`` always denotes the constant; checks that need the Poisson
bivector look up the binding named ``pi``.  Parse errors give the line and
the column counted from the start of the line.

Reports are deterministic for fixed scenario and flags; timings are only
included when explicitly requested so that outputs stay byte-stable.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import operator
import os
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .coeff_ring import NAME, ChartSpec, RingElement, Scalar, make_chart
from .errors import CoisoKitError, ScenarioError
from .forms import DifferentialForm, is_in_omega_le, fibrewise_degree_classify
from .linfty import (
    TwistedElement,
    coisotropy_check_numeric,
    higher_jacobi_verify,
    make_coiso_algebra,
    mc_partial_table,
    mc_series_exact,
    twisted_brackets,
)
from .multivector import (
    MultiVectorField,
    VerticalSection,
    as_vertical,
    projected_pushforward,
)
from .obstruction import obstructedness_certificate
from .symplectic_model import (
    InvertedBivector,
    PresymplecticData,
    SubbundleSpec,
    gotay_local_model,
    invert_affine_pencil,
    parse_pencil_text,
    pencil_product_defect,
    symplectic_to_poisson,
)

# The largest order of 'check mc a N' and 'check pencil F N'.  A table has
# one row per order and the pencil's Neumann series one term per order, so
# an order is bounded where it is parsed; every scenario, test and workload
# orders at most 12.
MAX_ORDER = 100

# The most lambda-monomials a 'check pencil F N' series may have.  A file
# with k parameter blocks at order N asks for C(N + k, k) of them, which
# MAX_ORDER alone does not bound (10 blocks at order 100 are about 4.7e13).
# The bound is C(64, 2): two blocks reach order 62, one block every order.
# Every scenario, test and workload asks for at most 101; a 4 x 4 pencil at
# the bound (2 blocks at order 62, 3 at 20, 5 at 9) takes 0.35-0.6 s to
# invert and check on a 2-core Xeon VM (`coisokit run --timings`), and a
# dense one of ``symplectic_model.MAX_PENCIL_SIZE`` up to about 6 s.
MAX_PENCIL_TERMS = math.comb(64, 2)


# -- tokenizer -------------------------------------------------------------------

# a number is a run of decimal digits, exactly what int() reads; a name or an
# '@' symbol is read with the chart's coordinate-name pattern
_DIGITS = re.compile(r"\d+")


def _tokenize(text: str, line: int, offset: int = 0):
    """Tokens of ``text``, which starts ``offset`` columns into its line."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        col = offset + i + 1
        if (m := _DIGITS.match(text, i)) or (m := NAME.match(text, i)):
            tokens.append(("num" if m.re is _DIGITS else "name", m.group(), line, col))
            i = m.end()
        elif ch == "@":
            m = NAME.match(text, i + 1)
            if m is None:
                raise ScenarioError("'@' must be followed by a coordinate", line, col)
            tokens.append(("at", m.group(), line, col))
            i = m.end()
        elif ch == "/" and i + 1 < n and text[i + 1] == "\\":
            tokens.append(("wedge", "/\\", line, col))
            i += 2
        elif ch in "+-*/^(),=":
            tokens.append(("op", ch, line, col))
            i += 1
        else:
            raise ScenarioError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", "", line, offset + n + 1))
    return tokens


# -- expression AST ----------------------------------------------------------------


class _ExprParser:
    # Parentheses, call arguments and unary minus nest at most this deep.
    # A parenthesised factor costs the parser seven Python frames per level,
    # so the bound keeps parsing and evaluation far below the interpreter's
    # default recursion limit of 1000.
    MAX_DEPTH = 64
    # binary operators as (token kind, operator texts), loosest first; every
    # level is left-associative, and '^' and unary minus bind tighter still
    LEVELS = (("op", "+-"), ("wedge", "/\\"), ("op", "*/"))

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def enter(self, line, col):
        self.depth += 1
        if self.depth > self.MAX_DEPTH:
            raise ScenarioError(
                f"expression nested deeper than {self.MAX_DEPTH} levels", line, col
            )

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, line, col = self.next()
        if kind not in ("op", "wedge") or text != op:
            raise ScenarioError(f"expected {op!r}, found {text!r}", line, col)

    def at_end(self) -> bool:
        return self.peek()[0] == "end"

    def parse(self):
        node = self.parse_binary()
        if not self.at_end():
            _, text, line, col = self.peek()
            raise ScenarioError(f"unexpected trailing {text!r}", line, col)
        return node

    def parse_binary(self, level=0):
        """A left-associative chain of the operators of ``LEVELS[level]``."""
        kind, ops = self.LEVELS[level]
        last = level + 1 == len(self.LEVELS)
        node = self.parse_unary() if last else self.parse_binary(level + 1)
        while (tok := self.peek())[0] == kind and tok[1] in ops:
            _, op, line, col = self.next()
            rhs = self.parse_unary() if last else self.parse_binary(level + 1)
            node = ("bin", op, node, rhs, (line, col))
        return node

    def parse_unary(self):
        if self.peek()[0] == "op" and self.peek()[1] == "-":
            _, _, line, col = self.next()
            self.enter(line, col)
            node = ("neg", self.parse_unary(), (line, col))
            self.depth -= 1
            return node
        return self.parse_pow()

    def parse_pow(self):
        node = self.parse_atom()
        if self.peek()[0] == "op" and self.peek()[1] == "^":
            _, _, line, col = self.next()
            sign = 1
            if self.peek()[0] == "op" and self.peek()[1] == "-":
                self.next()
                sign = -1
            kind, text, eline, ecol = self.next()
            if kind != "num":
                raise ScenarioError("exponent must be an integer", eline, ecol)
            node = ("pow", node, sign * int(text), (line, col))
        return node

    def parse_atom(self):
        kind, text, line, col = self.next()
        if kind == "num":
            return ("num", int(text), (line, col))
        if kind == "at":
            return ("at", text, (line, col))
        if kind == "name":
            if self.peek()[0] == "op" and self.peek()[1] == "(":
                self.next()
                return ("call", text, self.parse_list(line, col), (line, col))
            return ("name", text, (line, col))
        if kind == "op" and text == "(":
            items = self.parse_list(line, col)
            # '(e)' is e itself; '(e,)' and '(e1, e2)' are sections
            if len(items) == 1 and self.tokens[self.pos - 2][:2] != ("op", ","):
                return items[0]
            return ("tuple", items, (line, col))
        raise ScenarioError(f"unexpected token {text!r}", line, col)

    def parse_list(self, line, col):
        """Comma-separated expressions up to the closing ')', one level deeper;
        a trailing comma is allowed."""
        self.enter(line, col)
        items = [self.parse_binary()]
        while self.peek()[:2] == ("op", ","):
            self.next()
            if self.peek()[:2] == ("op", ")"):
                break
            items.append(self.parse_binary())
        self.expect_op(")")
        self.depth -= 1
        return items


# -- evaluation -------------------------------------------------------------------


_ADD_KINDS = "cannot add values of different kinds"
_ARITHMETIC = {
    "+": (operator.add, _ADD_KINDS),
    "-": (operator.sub, _ADD_KINDS),
    "*": (operator.mul, "'*' multiplies scalars or scales by a scalar"),
}


@contextlib.contextmanager
def _located(pos):
    """Report a library error raised in the block as a ScenarioError at ``pos``."""
    try:
        yield
    except CoisoKitError as exc:
        raise ScenarioError(str(exc), *pos)


class _Evaluator:
    def __init__(self, chart: ChartSpec, bindings, truncation: int):
        self.chart = chart
        self.bindings = bindings
        self.truncation = truncation

    def eval(self, node):
        tag = node[0]
        if tag == "num":
            return RingElement.constant(self.chart, node[1])
        if tag == "name":
            return self._name(node[1], node[2])
        if tag == "at":
            return self._vector(node[1], node[2])
        if tag == "neg":
            return -self.eval(node[1])
        if tag == "pow":
            return self._pow(self.eval(node[1]), node[2], node[3])
        if tag == "tuple":
            items = [self.eval(item) for item in node[1]]
            return self._section(items, node[2])
        if tag == "call":
            return self._call(node[1], node[2], node[3])
        if tag == "bin":
            # walk the left spine of a chain such as x1 + x1 + ... iteratively,
            # so a long flat sum or product needs no frame per operand
            spine = []
            while node[0] == "bin":
                spine.append(node)
                node = node[2]
            value = self.eval(node)
            for _, op, _, rnode, pos in reversed(spine):
                value = self._bin(op, value, self.eval(rnode), pos)
            return value
        raise AssertionError(f"unknown node {tag}")

    def _name(self, name, pos):
        chart = self.chart
        if name == "pi":
            return RingElement.constant(chart, Scalar.pi_power(1))
        if name == "i":
            return RingElement.constant(chart, Scalar.imag_unit())
        if name in chart.names:
            kind, _ = chart.kind(name)
            if kind == "periodic":
                raise ScenarioError(
                    f"periodic coordinate {name!r} enters only through sin/cos",
                    *pos,
                )
            return RingElement.coordinate(chart, name)
        if name.startswith("d") and name[1:] in chart.names:
            return DifferentialForm.basis_covector(chart, name[1:])
        if name in self.bindings:
            return self.bindings[name]
        raise ScenarioError(f"undefined name {name!r}", *pos)

    def _vector(self, name, pos):
        with _located(pos):
            return MultiVectorField.basis_vector(self.chart, name)

    def _section(self, items, pos):
        comps = []
        for item in items:
            if not isinstance(item, RingElement):
                raise ScenarioError("tuple entries must be scalar expressions", *pos)
            comps.append(item)
        with _located(pos):
            return VerticalSection.from_components(self.chart, comps)

    def _pow(self, value, n, pos):
        if isinstance(value, RingElement):
            if n >= 0:
                return value ** n
            if value.is_constant():
                with _located(pos):
                    inv = value.constant_scalar().inverse()
                return RingElement.constant(self.chart, inv) ** (-n)
        raise ScenarioError("'^' needs a scalar base (negative powers: constants)", *pos)

    def _bin(self, op, lv, rv, pos):
        if op == "/\\":
            if isinstance(lv, MultiVectorField) and isinstance(rv, MultiVectorField):
                return lv.wedge(rv)
            if isinstance(lv, DifferentialForm) and isinstance(rv, DifferentialForm):
                return lv.wedge(rv)
            raise ScenarioError("wedge needs two vectors or two forms", *pos)
        if op == "/":
            return self._div(lv, rv, pos)
        apply, mismatch = _ARITHMETIC[op]
        try:
            # the value types decide which operand kinds combine
            return apply(lv, rv)
        except TypeError:
            raise ScenarioError(mismatch, *pos) from None
        except (CoisoKitError, ValueError) as exc:
            # ValueError: a sum of two nonzero fields of different degrees
            raise ScenarioError(str(exc), *pos)

    def _div(self, a, b, pos):
        if not isinstance(b, RingElement) or not b.is_constant():
            raise ScenarioError("'/' divides by a constant only", *pos)
        with _located(pos):
            inv = b.constant_scalar().inverse()
        return a.scale(inv)

    @functools.cached_property
    def _phase(self) -> "_PhaseEvaluator":
        """The one evaluator of this scenario's sin/cos arguments."""
        names = [self.chart.base[i] for i in self.chart.periodic_axes]
        return _PhaseEvaluator(names, self.truncation)

    def _trig(self, fn, node, pos):
        """sin/cos of 2*pi times an integer combination of periodic coordinates.

        The argument is evaluated by ``_PhaseEvaluator``, on a chart where the
        periodic coordinates are plain variables, with no bindings.  It is
        accepted iff every term of the result is an even integer times pi
        times one coordinate; an argument with no terms is a zero phase.
        """
        names = self._phase.chart.base
        phase = self._phase.eval(node)
        modes = {}
        ok = isinstance(phase, RingElement)
        for xe, _, _, s in phase.terms if ok else ():
            single = s.single_term()
            ok = (sum(xe) == 1 and single is not None and single[0] == 1
                  and not single[2] and (single[1] / 2).denominator == 1)
            if not ok:
                break
            modes[names[xe.index(1)]] = int(single[1] / 2)
        if not ok:
            raise ScenarioError(
                "sin/cos argument must be 2*pi times an integer combination "
                "of periodic coordinates",
                *pos,
            )
        # with no modes, sin_of and cos_of give 0 and 1
        maker = RingElement.sin_of if fn == "sin" else RingElement.cos_of
        return maker(self.chart, modes)

    # -- constructors ----------------------------------------------------------

    def _call(self, name, args, pos):
        if name in ("sin", "cos"):
            if len(args) != 1:
                raise ScenarioError(f"{name} takes one argument", *pos)
            return self._trig(name, args[0], pos)
        if name == "inv_form":
            if len(args) != 1:
                raise ScenarioError("inv_form takes one form argument", *pos)
            form = self.eval(args[0])
            if not isinstance(form, DifferentialForm) or form.degree != 2:
                raise ScenarioError("inv_form needs a differential 2-form", *pos)
            with _located(pos):
                return symplectic_to_poisson(form, self.truncation)
        if name == "gotay":
            return self._gotay(args, pos)
        raise ScenarioError(f"unknown function {name!r}", *pos)

    def _gotay(self, args, pos):
        if len(args) < 2:
            raise ScenarioError("gotay(form, kernel coordinates...) expected", *pos)
        form = self.eval(args[0])
        if not isinstance(form, DifferentialForm):
            raise ScenarioError("gotay needs a differential form", *pos)
        kernel = []
        for arg in args[1:]:
            if arg[0] != "name":
                raise ScenarioError("gotay kernel entries must be names", *pos)
            kernel.append(arg[1])
        base = self.chart.base_chart()
        with _located(pos):
            omega_c = DifferentialForm(
                base,
                form.degree,
                (
                    (dirs, coeff.restrict_to_base())
                    for dirs, coeff in form.terms
                ),
            )
            data = PresymplecticData(base, omega_c, SubbundleSpec(tuple(kernel)))
            model = gotay_local_model(data, self.chart.fibre_bound)
        if model.chart != self.chart:
            raise ScenarioError(
                f"gotay produces fibre coordinates {model.chart.fibre}, "
                f"scenario chart has {self.chart.fibre}",
                *pos,
            )
        return model.omega


class _PhaseEvaluator(_Evaluator):
    """Evaluates a sin/cos argument: pi, i, rationals and periodic coordinates.

    The periodic coordinates are plain variables of its chart; any other
    name or vector symbol is a positioned ScenarioError saying so.
    """

    def __init__(self, periodic, truncation: int):
        super().__init__(make_chart(" ".join(periodic)), {}, truncation)

    def _name(self, name, pos):
        names = self.chart.names
        if name in ("pi", "i") or name in names or (name[:1] == "d" and name[1:] in names):
            return super()._name(name, pos)
        raise ScenarioError(_PHASE_NAMES.format(repr(name)), *pos)

    def _vector(self, name, pos):
        if name in self.chart.names:
            return super()._vector(name, pos)
        raise ScenarioError(_PHASE_NAMES.format(repr("@" + name)), *pos)


_PHASE_NAMES = "only periodic coordinates may appear in a sin/cos argument, not {}"


# -- scenario ------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckSpec:
    kind: str
    target: str
    param: Optional[int] = None
    line: int = field(default=0, compare=False)

    def label(self) -> str:
        extra = "" if self.param is None else f" {self.param}"
        return f"{self.kind} {self.target}{extra}"


@dataclass
class Scenario:
    """A parsed scenario; equal scenarios have equal charts, bindings and checks.

    ``truncation`` is the jet order ``inv_form(...)`` inverted at.
    """

    chart: Optional[ChartSpec]
    bindings: dict
    checks: tuple
    name: str = field(default="<scenario>", compare=False)
    base_dir: str = field(default=".", compare=False)
    truncation: int = field(default=6, compare=False)


def _parse_chart_line(body: str, line: int) -> ChartSpec:
    base, fibre, bound = None, "", None
    rest = body
    try:
        while rest.strip():
            rest = rest.strip()
            if rest.startswith("base=("):
                end = rest.index(")")
                base = rest[len("base=(") : end]
                rest = rest[end + 1 :]
            elif rest.startswith("fibre=("):
                end = rest.index(")")
                fibre = rest[len("fibre=(") : end]
                rest = rest[end + 1 :]
            elif rest.startswith("domain="):
                value = rest[len("domain="):].split()[0]
                bound = Fraction(value)
                rest = rest[len("domain=") + len(value) :]
            else:
                raise ScenarioError(f"cannot parse chart clause near {rest!r}", line)
    except (ValueError, ZeroDivisionError, IndexError):
        # a missing ')', an empty or non-rational domain bound
        raise ScenarioError(f"malformed chart clause {rest!r}", line) from None
    if base is None:
        raise ScenarioError("chart needs base=(...)", line)
    try:
        return make_chart(base.replace(",", " "), fibre.replace(",", " "), bound)
    except ValueError as exc:
        raise ScenarioError(str(exc), line)


def parse_scenario(
    text: str, name: str = "<scenario>", base_dir: str = ".", truncation: int = 6
) -> Scenario:
    """Parse and evaluate a scenario; raises ScenarioError with positions."""
    chart: Optional[ChartSpec] = None
    bindings: dict = {}
    checks: list[CheckSpec] = []
    evaluator: Optional[_Evaluator] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("chart "):
            if chart is not None:
                raise ScenarioError("chart is already declared", lineno)
            chart = _parse_chart_line(stripped[len("chart "):], lineno)
            evaluator = _Evaluator(chart, bindings, truncation)
            continue
        if stripped.startswith("check ") or stripped == "check":
            checks.append(_parse_check(stripped.split()[1:], bindings, lineno))
            continue
        if "=" in stripped:
            lhs, rhs = stripped.split("=", 1)
            target = lhs.strip()
            if not target.isidentifier():
                raise ScenarioError(f"invalid binding name {target!r}", lineno)
            if chart is None or evaluator is None:
                raise ScenarioError("bindings need a chart declared first", lineno)
            tokens = _tokenize(rhs, lineno, len(line) - len(rhs))
            node = _ExprParser(tokens).parse()
            bindings[target] = evaluator.eval(node)
            continue
        raise ScenarioError(f"cannot parse line {stripped!r}", lineno)
    return Scenario(chart, bindings, tuple(checks), name, base_dir, truncation)


def _parse_check(words, bindings, lineno) -> CheckSpec:
    """The check of the words after 'check', read against its ``CHECKS``
    entry: arity, then binding, then integer parameter, then its bounds."""
    kind, *args = words or [None]
    entry = CHECKS.get(kind)
    if entry is None:
        raise ScenarioError(f"unknown check (expected one of {', '.join(CHECKS)})", lineno)
    param = entry.param
    if len(args) not in ((1,) if param is None else (1, 2) if param.optional else (2,)):
        raise ScenarioError(f"check {kind} takes {entry.usage}", lineno)
    if entry.binding and args[0] not in bindings:
        raise ScenarioError(f"undefined name {args[0]!r} in check", lineno)
    if len(args) == 1:
        return CheckSpec(kind, args[0], None, lineno)
    what = f"check {kind}: {param.what} must be"
    try:
        value = int(args[1])
    except ValueError:
        raise ScenarioError(f"{what} an integer, found {args[1]!r}", lineno) from None
    for word, bound, beyond in (("least", param.minimum, operator.lt),
                                ("most", param.maximum, operator.gt)):
        if bound is not None and beyond(value, bound):
            raise ScenarioError(f"{what} at {word} {bound}, found {value}", lineno)
    return CheckSpec(kind, args[0], value, lineno)


def render_scenario(s: Scenario) -> str:
    """Canonical text whose parse at the scenario's ``truncation`` equals it.

    A bivector bound to ``inv_form(...)`` is written as the inversion of its
    form, so it parses back to the same jet.  Any other jet binding (one
    built by arithmetic on such a bivector) has no text that parses back to
    it, and raises CoisoKitError naming the binding.
    """
    lines = []
    chart = s.chart
    if chart is not None:
        base = ",".join(
            nm + ("*" if per else "")
            for nm, per in zip(chart.base, chart.periodic)
        )
        line = f"chart base=({base})"
        if chart.fibre:
            line += f" fibre=({','.join(chart.fibre)})"
        if chart.fibre_bound is not None:
            line += f" domain={chart.fibre_bound}"
        lines.append(line)
    for name, value in s.bindings.items():
        lines.append(f"{name} = {_render_value(name, value)}")
    for check in s.checks:
        lines.append(f"check {check.label()}")
    return "\n".join(lines) + "\n"


def _render_value(name: str, value) -> str:
    if isinstance(value, InvertedBivector):
        return f"inv_form({value.source_form.render()})"
    order = value.jet_order if isinstance(value, RingElement) else value.jet_order()
    if order is not None:
        raise CoisoKitError(
            f"binding {name!r} is a jet of order {order}; only an inv_form(...) "
            "bivector is written as a jet"
        )
    if isinstance(value, VerticalSection) and value.degree == 1:
        comps = value.components()
        inner = ", ".join(c.render() for c in comps)
        # a one-component section keeps its comma: '(e)' is just e
        return f"({inner}{',' if len(comps) == 1 else ''})"
    return value.render()


# -- running ------------------------------------------------------------------------


@dataclass(frozen=True)
class RunFlags:
    samples: int = 32
    strict: bool = False
    timings: bool = False


@dataclass
class CheckResult:
    index: int
    kind: str
    target: str
    param: Optional[int]
    status: str  # pass | fail | inconclusive | error
    details: tuple  # ordered (key, value) pairs, all strings
    defect: Optional[float] = None
    table: Optional[object] = None
    timing_ms: float = 0.0

    label = CheckSpec.label  # reads only kind, target and param


@dataclass
class RunReport:
    scenario: str
    flags: RunFlags
    results: tuple
    truncation: int  # Scenario.truncation of the scenario run

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "inconclusive": 0, "error": 0}
        for r in self.results:
            out[r.status] += 1
        return out

    def exit_code(self) -> int:
        c = self.counts()
        if c["error"]:
            return 3
        if c["fail"]:
            return 1
        if c["inconclusive"] and self.flags.strict:
            return 1
        return 0


def _algebra(scenario: Scenario):
    pi = scenario.bindings.get("pi")
    if not isinstance(pi, MultiVectorField) or pi.degree != 2:
        raise CoisoKitError("checks need a degree-2 multivector bound to the name 'pi'")
    return make_coiso_algebra(pi)


def run(scenario: Scenario, flags: RunFlags = RunFlags()) -> RunReport:
    """Execute the checks in order; per-check errors do not abort the run."""
    # built once, by the first check that needs it; an error is not cached,
    # so every such check reports it
    algebra = functools.cache(functools.partial(_algebra, scenario))
    results = []
    for idx, check in enumerate(scenario.checks, start=1):
        started = time.perf_counter()
        try:
            entry = CHECKS.get(check.kind)
            if entry is None:  # a Scenario built in code may name any kind
                raise CoisoKitError(f"unknown check kind {check.kind!r}")
            status, details, defect, table = entry.run(scenario, algebra, check, flags)
        except CoisoKitError as exc:
            status, details, defect, table = (
                "error",
                (("message", str(exc)),),
                None,
                None,
            )
        elapsed = (time.perf_counter() - started) * 1000.0
        results.append(
            CheckResult(
                idx, check.kind, check.target, check.param,
                status, details, defect, table, elapsed,
            )
        )
    return RunReport(scenario.name, flags, tuple(results), scenario.truncation)


def _binding(scenario, name):
    try:
        return scenario.bindings[name]
    except KeyError:
        raise CoisoKitError(f"binding {name!r} is not defined")


def _algebra_and_section(scenario, algebra, check):
    """The algebra and the check's target section, in that order, so a
    scenario without a usable 'pi' reports that before its target."""
    alg = algebra()
    value = _binding(scenario, check.target)
    if not isinstance(value, MultiVectorField):
        raise CoisoKitError("check target must be a vertical section")
    return alg, as_vertical(value)


# A runner takes (scenario, algebra, check, flags) and returns
# (status, details, defect, table).


def _run_coisotropic(scenario, algebra, check, flags):
    alg, alpha = _algebra_and_section(scenario, algebra, check)
    res = coisotropy_check_numeric(alg, alpha, per_axis=flags.samples)
    status = "pass" if res.coisotropic else "fail"
    return status, (("max_defect", f"{res.max_defect:.12e}"),), res.max_defect, None


def _run_mc(scenario, algebra, check, flags):
    alg, alpha = _algebra_and_section(scenario, algebra, check)
    if check.param is None:
        if alg.pi.jet_order() is not None:
            raise CoisoKitError("jet-mode bivector: give an order, e.g. 'check mc a 8'")
        series = mc_series_exact(alg, alpha)
        oracle = projected_pushforward(alg.pi, alpha)
        ok = series == oracle
        details = (
            ("mc", series.render()),
            ("oracle", oracle.render()),
            ("exact_match", "true" if ok else "false"),
        )
        return ("pass" if ok else "fail"), details, None, None
    table = mc_partial_table(alg, alpha, check.param, per_axis=flags.samples)
    err = table.max_error_at(check.param)
    details = (
        ("order", str(check.param)),
        ("max_error_at_order", f"{err:.12e}"),
    )
    return ("pass" if err <= 1e-8 else "fail"), details, err, table


def _run_kuranishi(scenario, algebra, check, flags):
    report = obstructedness_certificate(*_algebra_and_section(scenario, algebra, check))
    status = "pass" if report.verdict == "NONZERO" else "inconclusive"
    d = report.to_dict()
    details = tuple(
        (k, str(d[k]) if not isinstance(d[k], bool) else ("true" if d[k] else "false"))
        for k in ("closed", "kuranishi", "beta", "integral", "verdict")
        if d[k] is not None
    )
    return status, details, None, None


def _run_jacobi(scenario, algebra, check, flags):
    alg, alpha = _algebra_and_section(scenario, algebra, check)
    w = TwistedElement.from_section(alpha)
    family = twisted_brackets(alg)
    oks = [higher_jacobi_verify(family, [w] * n) for n in (1, 2)]
    details = tuple((f"order_{n}", "ok" if ok else "violated") for n, ok in zip((1, 2), oks))
    return ("pass" if all(oks) else "fail"), details, None, None


def _run_omega_le(scenario, algebra, check, flags):
    form = _binding(scenario, check.target)
    if not isinstance(form, DifferentialForm):
        raise CoisoKitError("omega_le target must be a differential form")
    degrees = sorted(fibrewise_degree_classify(form))
    details = (("fibrewise_degrees", "{" + ",".join(map(str, degrees)) + "}"),)
    return ("pass" if is_in_omega_le(form, check.param) else "fail"), details, None, None


def _run_pencil(scenario, algebra, check, flags):
    try:
        with open(os.path.join(scenario.base_dir, check.target), encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CoisoKitError(f"cannot read pencil file: {exc}")
    pencil = parse_pencil_text(text)
    count = math.comb(check.param + len(pencil.b), len(pencil.b))
    if count > MAX_PENCIL_TERMS:
        raise CoisoKitError(
            f"pencil series at order {check.param} with {len(pencil.b)} parameter "
            f"blocks has {count} monomials, above the bound {MAX_PENCIL_TERMS}"
        )
    bad = pencil_product_defect(pencil, invert_affine_pencil(pencil, check.param), check.param)
    details = (
        ("size", str(pencil.size)),
        ("order", str(check.param)),
        ("exact_identity", "true" if not bad else "false"),
    )
    return ("pass" if not bad else "fail"), details, None, None


# -- check kinds ---------------------------------------------------------------------


class _IntParam(NamedTuple):
    """A check's integer parameter: its name and bounds, and whether it may
    be left out."""

    what: str
    minimum: Optional[int] = None
    maximum: Optional[int] = None
    optional: bool = False


class _CheckKind(NamedTuple):
    """How a check kind is parsed and run.

    ``usage`` ends the message 'check <kind> takes ...' for a wrong number of
    arguments; ``binding`` says the target names a binding (not a file);
    ``param`` is the integer parameter, if any; ``run`` is the runner.
    """

    usage: str
    binding: bool
    param: Optional[_IntParam]
    run: Callable


# The one list of check kinds: parse_scenario reads each check line against
# its entry and run calls its runner.  README's grammar names them in order.
CHECKS = {
    "coisotropic": _CheckKind("exactly one name", True, None, _run_coisotropic),
    "mc": _CheckKind("a name and an optional order", True,
                     _IntParam("order", 1, MAX_ORDER, optional=True), _run_mc),
    "kuranishi": _CheckKind("exactly one name", True, None, _run_kuranishi),
    "jacobi": _CheckKind("exactly one name", True, None, _run_jacobi),
    "omega_le": _CheckKind("a name and a degree", True, _IntParam("degree"), _run_omega_le),
    "pencil": _CheckKind("a file and an order", False,
                         _IntParam("order", 0, MAX_ORDER), _run_pencil),
}


# -- report emission ------------------------------------------------------------------


def emit_report(report: RunReport, fmt: str, path: Optional[str] = None) -> str:
    """Render a report as text, json or csv; optionally write it to a file."""
    if fmt == "text":
        out = _report_text(report)
    elif fmt == "json":
        out = _report_json(report)
    elif fmt == "csv":
        out = _report_csv(report)
    else:
        raise CoisoKitError(f"unknown format {fmt!r} (use text, json or csv)")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(out)
    return out


def _report_text(report: RunReport) -> str:
    f = report.flags
    lines = [
        "coiso-kit report",
        f"scenario: {report.scenario}",
        f"flags: truncation={report.truncation} samples={f.samples} "
        f"strict={'true' if f.strict else 'false'}",
        "",
    ]
    for r in report.results:
        lines.append(f"[{r.index}] {r.label()}: {r.status}")
        for key, value in r.details:
            lines.append(f"    {key}: {value}")
        if report.flags.timings:
            lines.append(f"    time_ms: {r.timing_ms:.3f}")
    c = report.counts()
    lines.append("")
    lines.append(
        f"summary: total={len(report.results)} pass={c['pass']} fail={c['fail']} "
        f"inconclusive={c['inconclusive']} error={c['error']}"
    )
    return "\n".join(lines) + "\n"


def _report_json(report: RunReport) -> str:
    f = report.flags
    doc = {
        "schema": "coisokit-report/1",
        "scenario": report.scenario,
        "flags": {
            "truncation": report.truncation,
            "samples": f.samples,
            "strict": f.strict,
        },
        "checks": [
            {
                "index": r.index,
                "kind": r.kind,
                "target": r.target,
                "param": r.param,
                "status": r.status,
                "defect": r.defect,
                "details": {k: v for k, v in r.details},
                **({"time_ms": round(r.timing_ms, 3)} if f.timings else {}),
            }
            for r in report.results
        ],
        "summary": report.counts(),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def report_from_json(text: str) -> dict:
    """Parse a JSON report back into its documented dictionary shape."""
    doc = json.loads(text)
    if doc.get("schema") != "coisokit-report/1":
        raise CoisoKitError("not a coisokit report document")
    return doc


def _report_csv(report: RunReport) -> str:
    tables = [r for r in report.results if r.table is not None]
    if tables:
        parts = []
        for r in tables:
            parts.append(f"# check {r.index}: {r.label()}")
            parts.append(r.table.to_csv().rstrip("\n"))
        return "\n".join(parts) + "\n"
    lines = ["index,kind,target,param,status,defect"]
    for r in report.results:
        param = "" if r.param is None else str(r.param)
        defect = "" if r.defect is None else f"{r.defect:.12e}"
        lines.append(f"{r.index},{r.kind},{r.target},{param},{r.status},{defect}")
    return "\n".join(lines) + "\n"


# -- entry point -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coisokit",
        description="Exact calculus for coisotropic deformation scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario file")
    runp.add_argument("file")
    runp.add_argument("--truncation", type=int, default=6)
    runp.add_argument("--samples", type=int, default=32)
    runp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    runp.add_argument("--out", default=None)
    runp.add_argument("--strict", action="store_true")
    runp.add_argument("--timings", action="store_true")
    args = parser.parse_args(argv)
    for flag, low in (("truncation", 1), ("samples", 2)):
        if getattr(args, flag) < low:
            runp.error(f"--{flag} must be at least {low}, found {getattr(args, flag)}")

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        scenario = parse_scenario(
            text,
            name=os.path.basename(args.file),
            base_dir=os.path.dirname(os.path.abspath(args.file)),
            truncation=args.truncation,
        )
    except ScenarioError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    flags = RunFlags(samples=args.samples, strict=args.strict, timings=args.timings)
    report = run(scenario, flags)
    try:
        out = emit_report(report, args.format, args.out)
    except (CoisoKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.out is None:
        sys.stdout.write(out)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
