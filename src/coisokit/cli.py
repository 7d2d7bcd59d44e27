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
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .coeff_ring import ChartSpec, RingElement, Scalar, make_chart
from .errors import CoisoKitError, ScenarioError
from .forms import DifferentialForm, is_in_omega_le, fibrewise_degree_classify
from .linfty import (
    TwistedElement,
    _inverted_form_algebra,
    _per_axis_default,
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
    fibre_translate_pushforward,
    projection_P,
)
from .obstruction import obstructedness_certificate
from .symplectic_model import (
    PresymplecticData,
    SubbundleSpec,
    gotay_local_model,
    invert_affine_pencil,
    parse_pencil_text,
    pencil_product_defect,
    symplectic_to_poisson,
)

CHECK_KINDS = ("coisotropic", "mc", "kuranishi", "jacobi", "omega_le", "pencil")


# -- tokenizer -------------------------------------------------------------------


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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j], line, col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], line, col))
            i = j
        elif ch == "@":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                raise ScenarioError("'@' must be followed by a coordinate", line, col)
            tokens.append(("at", text[i + 1 : j], line, col))
            i = j
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
        node = self.parse_add()
        if not self.at_end():
            _, text, line, col = self.peek()
            raise ScenarioError(f"unexpected trailing {text!r}", line, col)
        return node

    def parse_add(self):
        node = self.parse_wedge()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            _, op, line, col = self.next()
            rhs = self.parse_wedge()
            node = ("bin", op, node, rhs, (line, col))
        return node

    def parse_wedge(self):
        node = self.parse_mul()
        while self.peek()[0] == "wedge":
            _, _, line, col = self.next()
            rhs = self.parse_mul()
            node = ("bin", "/\\", node, rhs, (line, col))
        return node

    def parse_mul(self):
        node = self.parse_unary()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            _, op, line, col = self.next()
            rhs = self.parse_unary()
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
            if len(items) == 1:
                return items[0]
            return ("tuple", items, (line, col))
        raise ScenarioError(f"unexpected token {text!r}", line, col)

    def parse_list(self, line, col):
        """Comma-separated expressions up to the closing ')', one level deeper."""
        self.enter(line, col)
        items = [self.parse_add()]
        while self.peek()[0] == "op" and self.peek()[1] == ",":
            self.next()
            items.append(self.parse_add())
        self.expect_op(")")
        self.depth -= 1
        return items


# -- evaluation -------------------------------------------------------------------


class _Evaluator:
    def __init__(self, chart: ChartSpec, bindings, truncation: int, sources):
        self.chart = chart
        self.bindings = bindings
        self.truncation = truncation
        self.sources = sources

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
        try:
            return MultiVectorField.basis_vector(self.chart, name)
        except CoisoKitError as exc:
            raise ScenarioError(str(exc), *pos)

    def _section(self, items, pos):
        comps = []
        for item in items:
            if not isinstance(item, RingElement):
                raise ScenarioError("tuple entries must be scalar expressions", *pos)
            comps.append(item)
        try:
            return VerticalSection.from_components(self.chart, comps)
        except CoisoKitError as exc:
            raise ScenarioError(str(exc), *pos)

    def _pow(self, value, n, pos):
        if isinstance(value, RingElement):
            if n >= 0:
                return value ** n
            if value.is_constant():
                try:
                    inv = value.constant_scalar().inverse()
                except CoisoKitError as exc:
                    raise ScenarioError(str(exc), *pos)
                return RingElement.constant(self.chart, inv) ** (-n)
        raise ScenarioError("'^' needs a scalar base (negative powers: constants)", *pos)

    def _bin(self, op, lv, rv, pos):
        if op == "/\\":
            if isinstance(lv, MultiVectorField) and isinstance(rv, MultiVectorField):
                return lv.wedge(rv)
            if isinstance(lv, DifferentialForm) and isinstance(rv, DifferentialForm):
                return lv.wedge(rv)
            raise ScenarioError("wedge needs two vectors or two forms", *pos)
        try:
            if op == "+":
                return self._add(lv, rv, pos)
            if op == "-":
                return self._add(lv, self._negate(rv), pos)
            if op == "*":
                return self._mul(lv, rv, pos)
            if op == "/":
                return self._div(lv, rv, pos)
        except ScenarioError:
            raise
        except CoisoKitError as exc:
            raise ScenarioError(str(exc), *pos)
        raise AssertionError(op)

    @staticmethod
    def _negate(v):
        return -v

    def _add(self, a, b, pos):
        if isinstance(a, RingElement) and isinstance(b, RingElement):
            return a + b
        if isinstance(a, MultiVectorField) and isinstance(b, MultiVectorField):
            return a + b
        if isinstance(a, DifferentialForm) and isinstance(b, DifferentialForm):
            return a + b
        raise ScenarioError("cannot add values of different kinds", *pos)

    def _mul(self, a, b, pos):
        if isinstance(a, RingElement) and isinstance(b, RingElement):
            return a * b
        if isinstance(a, RingElement) and isinstance(b, (MultiVectorField, DifferentialForm)):
            return b.scale(a)
        if isinstance(b, RingElement) and isinstance(a, (MultiVectorField, DifferentialForm)):
            return a.scale(b)
        raise ScenarioError("'*' multiplies scalars or scales by a scalar", *pos)

    def _div(self, a, b, pos):
        if not isinstance(b, RingElement) or not b.is_constant():
            raise ScenarioError("'/' divides by a constant only", *pos)
        try:
            inv = b.constant_scalar().inverse()
        except CoisoKitError as exc:
            raise ScenarioError(str(exc), *pos)
        return a.scale(inv)

    def _trig(self, fn, node, pos):
        """sin/cos of 2*pi times an integer combination of periodic coordinates.

        The argument is evaluated by ``_PhaseEvaluator``, on a chart where the
        periodic coordinates are plain variables, with no bindings.  It is
        accepted iff every term of the result is an even integer times pi
        times one coordinate; an argument with no terms is a zero phase.
        """
        names = [self.chart.base[i] for i in self.chart.periodic_axes]
        phase = _PhaseEvaluator(names, self.truncation).eval(node)
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
            try:
                pi = symplectic_to_poisson(form, self.truncation)
            except CoisoKitError as exc:
                raise ScenarioError(str(exc), *pos)
            self.sources["__last_inv_form__"] = form
            return pi
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
        try:
            omega_c = DifferentialForm(
                base,
                form.degree,
                (
                    (dirs, coeff.restrict_to_base())
                    for dirs, coeff in form.terms
                ),
            )
            data = PresymplecticData(base, omega_c, SubbundleSpec(tuple(kernel)))
            model = gotay_local_model(data)
        except CoisoKitError as exc:
            raise ScenarioError(str(exc), *pos)
        built = model.chart
        if (built.base, built.periodic, built.fibre) != (
            self.chart.base,
            self.chart.periodic,
            self.chart.fibre,
        ):
            raise ScenarioError(
                f"gotay produces fibre coordinates {built.fibre}, "
                f"scenario chart has {self.chart.fibre}",
                *pos,
            )
        return DifferentialForm(
            self.chart,
            2,
            (
                (dirs, RingElement(self.chart, coeff.terms, coeff.jet_order))
                for dirs, coeff in model.omega.terms
            ),
        )


class _PhaseEvaluator(_Evaluator):
    """Evaluates a sin/cos argument: pi, i, rationals and periodic coordinates.

    The periodic coordinates are plain variables of its chart; any other
    name or vector symbol is a positioned ScenarioError saying so.
    """

    def __init__(self, periodic, truncation: int):
        super().__init__(make_chart(" ".join(periodic)), {}, truncation, {})

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
    chart: Optional[ChartSpec]
    bindings: dict
    checks: tuple
    name: str = "<scenario>"
    base_dir: str = "."
    sources: dict = field(default_factory=dict, compare=False)

    def __eq__(self, other):
        if not isinstance(other, Scenario):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.bindings == other.bindings
            and self.checks == other.checks
        )


def _is_name_token(text: str) -> bool:
    """True when the tokenizer reads ``text`` back as one ``name`` token."""
    try:
        tokens = _tokenize(text, 0)
    except ScenarioError:
        return False
    return len(tokens) == 2 and tokens[0][:2] == ("name", text)


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
    base, fibre = base.replace(",", " "), fibre.replace(",", " ")
    names = [n[:-1] if n.endswith("*") else n for n in base.split()] + fibre.split()
    for name in names:
        if not _is_name_token(name):
            raise ScenarioError(f"invalid chart coordinate name {name!r}", line)
    try:
        return make_chart(base, fibre, bound)
    except ValueError as exc:
        raise ScenarioError(str(exc), line)


def parse_scenario(
    text: str, name: str = "<scenario>", base_dir: str = ".", truncation: int = 6
) -> Scenario:
    """Parse and evaluate a scenario; raises ScenarioError with positions."""
    chart: Optional[ChartSpec] = None
    bindings: dict = {}
    sources: dict = {}
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
            evaluator = _Evaluator(chart, bindings, truncation, sources)
            continue
        if stripped.startswith("check ") or stripped == "check":
            parts = stripped.split()
            if len(parts) < 2 or parts[1] not in CHECK_KINDS:
                raise ScenarioError(
                    f"unknown check (expected one of {', '.join(CHECK_KINDS)})", lineno
                )
            kind = parts[1]
            args = parts[2:]
            checks.append(_parse_check(kind, args, bindings, lineno))
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
            sources.pop("__last_inv_form__", None)
            # a rebound name keeps no source unless it is a direct inv_form(...)
            sources.pop(target, None)
            value = evaluator.eval(node)
            if "__last_inv_form__" in sources and node[0] == "call" and node[1] == "inv_form":
                sources[target] = sources.pop("__last_inv_form__")
            bindings[target] = value
            continue
        raise ScenarioError(f"cannot parse line {stripped!r}", lineno)
    return Scenario(chart, bindings, tuple(checks), name, base_dir, sources)


def _parse_check(kind, args, bindings, lineno) -> CheckSpec:
    def need_name(pos_text):
        if not args:
            raise ScenarioError(f"check {kind} needs {pos_text}", lineno)
        return args[0]

    def int_param(text, what, minimum=None):
        try:
            value = int(text)
        except ValueError:
            raise ScenarioError(
                f"check {kind}: {what} must be an integer, found {text!r}", lineno
            ) from None
        if minimum is not None and value < minimum:
            raise ScenarioError(
                f"check {kind}: {what} must be at least {minimum}, found {value}",
                lineno,
            )
        return value

    if kind in ("coisotropic", "kuranishi", "jacobi"):
        if len(args) != 1:
            raise ScenarioError(f"check {kind} takes exactly one name", lineno)
        target = need_name("a binding name")
        _require_binding(target, bindings, lineno)
        return CheckSpec(kind, target, None, lineno)
    if kind == "mc":
        if len(args) not in (1, 2):
            raise ScenarioError("check mc takes a name and an optional order", lineno)
        target = need_name("a binding name")
        _require_binding(target, bindings, lineno)
        param = int_param(args[1], "order", 1) if len(args) == 2 else None
        return CheckSpec(kind, target, param, lineno)
    if kind == "omega_le":
        if len(args) != 2:
            raise ScenarioError("check omega_le takes a name and a degree", lineno)
        _require_binding(args[0], bindings, lineno)
        return CheckSpec(kind, args[0], int_param(args[1], "degree"), lineno)
    if kind == "pencil":
        if len(args) != 2:
            raise ScenarioError("check pencil takes a file and an order", lineno)
        return CheckSpec(kind, args[0], int_param(args[1], "order", 0), lineno)
    raise ScenarioError(f"unknown check kind {kind!r}", lineno)


def _require_binding(name, bindings, lineno):
    if name not in bindings:
        raise ScenarioError(f"undefined name {name!r} in check", lineno)


def render_scenario(s: Scenario) -> str:
    """Canonical text whose parse equals the scenario."""
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
        lines.append(f"{name} = {_render_value(value)}")
    for check in s.checks:
        lines.append(f"check {check.label()}")
    return "\n".join(lines) + "\n"


def _render_value(value) -> str:
    if isinstance(value, VerticalSection) and value.degree == 1:
        comps = value.components()
        return "(" + ", ".join(c.render() for c in comps) + ")"
    return value.render()


# -- running ------------------------------------------------------------------------


@dataclass(frozen=True)
class RunFlags:
    truncation: int = 6
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


class _AlgebraCache:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._alg = None

    def get(self):
        if self._alg is None:
            pi = self.scenario.bindings.get("pi")
            if not isinstance(pi, MultiVectorField) or pi.degree != 2:
                raise CoisoKitError(
                    "checks need a degree-2 multivector bound to the name 'pi'"
                )
            source = self.scenario.sources.get("pi")
            if source is None:
                self._alg = make_coiso_algebra(pi, require_poisson=True)
            else:
                # inv_form built this pi, and its inversion checked [pi, pi] = 0
                self._alg = _inverted_form_algebra(pi, source)
        return self._alg


def run(scenario: Scenario, flags: RunFlags = RunFlags()) -> RunReport:
    """Execute the checks in order; per-check errors do not abort the run."""
    cache = _AlgebraCache(scenario)
    results = []
    for idx, check in enumerate(scenario.checks, start=1):
        started = time.perf_counter()
        try:
            status, details, defect, table = _run_check(scenario, cache, check, flags)
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
    return RunReport(scenario.name, flags, tuple(results))


def _binding(scenario, name):
    try:
        return scenario.bindings[name]
    except KeyError:
        raise CoisoKitError(f"binding {name!r} is not defined")


def _as_section(value) -> VerticalSection:
    if not isinstance(value, MultiVectorField):
        raise CoisoKitError("check target must be a vertical section")
    return as_vertical(value)


def _run_check(scenario, cache, check, flags):
    kind = check.kind
    if kind == "coisotropic":
        alg = cache.get()
        alpha = _as_section(_binding(scenario, check.target))
        res = coisotropy_check_numeric(alg, alpha, per_axis=_per_axis(flags, alg, alpha))
        status = "pass" if res.coisotropic else "fail"
        details = (("max_defect", f"{res.max_defect:.12e}"),)
        return status, details, res.max_defect, None
    if kind == "mc":
        return _run_mc(scenario, cache, check, flags)
    if kind == "kuranishi":
        alg = cache.get()
        a = _as_section(_binding(scenario, check.target))
        report = obstructedness_certificate(alg, a)
        status = "pass" if report.verdict == "NONZERO" else "inconclusive"
        d = report.to_dict()
        details = tuple(
            (k, str(d[k]) if not isinstance(d[k], bool) else ("true" if d[k] else "false"))
            for k in ("closed", "kuranishi", "beta", "integral", "verdict")
            if d[k] is not None
        )
        return status, details, None, None
    if kind == "jacobi":
        alg = cache.get()
        a = _as_section(_binding(scenario, check.target))
        w = TwistedElement.from_section(a)
        family = twisted_brackets(alg)
        oks = [higher_jacobi_verify(family, [w] * n) for n in (1, 2)]
        status = "pass" if all(oks) else "fail"
        details = tuple((f"order_{n}", "ok" if ok else "violated") for n, ok in zip((1, 2), oks))
        return status, details, None, None
    if kind == "omega_le":
        form = _binding(scenario, check.target)
        if not isinstance(form, DifferentialForm):
            raise CoisoKitError("omega_le target must be a differential form")
        degrees = sorted(fibrewise_degree_classify(form))
        ok = is_in_omega_le(form, check.param)
        details = (("fibrewise_degrees", "{" + ",".join(map(str, degrees)) + "}"),)
        return ("pass" if ok else "fail"), details, None, None
    if kind == "pencil":
        path = os.path.join(scenario.base_dir, check.target)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CoisoKitError(f"cannot read pencil file: {exc}")
        pencil = parse_pencil_text(text)
        inverse = invert_affine_pencil(pencil, check.param)
        bad = pencil_product_defect(pencil, inverse, check.param)
        details = (
            ("size", str(pencil.size)),
            ("order", str(check.param)),
            ("exact_identity", "true" if not bad else "false"),
        )
        return ("pass" if not bad else "fail"), details, None, None
    raise CoisoKitError(f"unknown check kind {kind!r}")


def _per_axis(flags: RunFlags, alg, alpha) -> int:
    names = alg.pi.support_names() | alpha.support_names()
    return _per_axis_default(len(names), hard_cap=flags.samples)


def _run_mc(scenario, cache, check, flags):
    alg = cache.get()
    alpha = _as_section(_binding(scenario, check.target))
    if check.param is None:
        if alg.pi.jet_order() is not None:
            raise CoisoKitError("jet-mode bivector: give an order, e.g. 'check mc a 8'")
        series = mc_series_exact(alg, alpha)
        oracle = projection_P(fibre_translate_pushforward(alg.pi, alpha))
        ok = series == oracle
        details = (
            ("mc", series.render()),
            ("oracle", oracle.render()),
            ("exact_match", "true" if ok else "false"),
        )
        return ("pass" if ok else "fail"), details, None, None
    table = mc_partial_table(
        alg, alpha, check.param, per_axis=_per_axis(flags, alg, alpha)
    )
    err = table.max_error_at(check.param)
    ok = err <= 1e-8
    details = (
        ("order", str(check.param)),
        ("max_error_at_order", f"{err:.12e}"),
    )
    return ("pass" if ok else "fail"), details, err, table


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
        f"flags: truncation={f.truncation} samples={f.samples} "
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
            "truncation": f.truncation,
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
    except OSError as exc:
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
    flags = RunFlags(
        truncation=args.truncation,
        samples=args.samples,
        strict=args.strict,
        timings=args.timings,
    )
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
