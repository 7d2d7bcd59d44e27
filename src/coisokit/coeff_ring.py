"""Exact coefficient functions on a chart of a vector bundle.

An element of the ring is a finite sum of terms

    scalar * (monomial in non-periodic base coordinates)
           * (Fourier mode e^{i 2 pi k.x} over the periodic base coordinates)
           * (monomial in fibre coordinates),

where the scalar is a Gaussian rational times an integer power of pi.  The
period of every periodic coordinate is fixed to 1.  Sines and cosines are
stored internally in the exponential basis, so derivatives stay exact and
pick up exact factors of 2*pi; on output they are rendered back in the real
sin/cos product basis.

Terms are kept sorted by the lexicographic key (x-exponents, Fourier modes,
y-exponents) with no zero scalars, so equal elements are equal tuples and can
be hashed and compared bit for bit.

Coefficients are accumulated once per operation.  A product or sum collects
the Gaussian rationals of every contribution in one accumulator per output
key (a dict from pi-exponent to ``[re, im]``) and builds each output Scalar
once; a product skips the term pairs above the jet order before any
arithmetic, and no per-pair Scalar is built.

Jets (finite fibre order) are ordinary elements with ``jet_order`` set;
binary operations between jets truncate to the minimum order.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    ChartMismatchError,
    DimensionMismatchError,
    FibreDependenceError,
    NonInvertibleScalarError,
    PeriodicCoordinateError,
    UnknownCoordinateError,
)

_F0 = Fraction(0)
_F1 = Fraction(1)


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected an int or Fraction, got {type(v).__name__}")


def _acc_add(acc: dict, terms) -> None:
    """Add (e, re, im) triples into an accumulator {e: [re, im]}."""
    for e, re, im in terms:
        slot = acc.get(e)
        if slot is None:
            acc[e] = [re, im]
        else:
            slot[0] += re
            slot[1] += im


def _acc_mul(acc: dict, left, right) -> None:
    """Add the product of two canonical term tuples into an accumulator."""
    for e1, a, b in left:
        for e2, c, d in right:
            e = e1 + e2
            slot = acc.get(e)
            if b or d:
                re, im = a * c - b * d, a * d + b * c
                if slot is None:
                    acc[e] = [re, im]
                else:
                    slot[0] += re
                    slot[1] += im
            elif slot is None:  # both real: no imaginary cross terms
                acc[e] = [a * c, _F0]
            else:
                slot[0] += a * c


def _acc_terms(acc: dict) -> tuple:
    """The sorted term tuple of an accumulator, zero coefficients dropped."""
    return tuple((e, re, im) for e, (re, im) in sorted(acc.items()) if re or im)


class Scalar:
    """Exact number of the form sum_e (a_e + i*b_e) * pi^e.

    The map from pi-exponent e to the Gaussian rational a_e + i*b_e is
    finite and stores no zero coefficients.  Multiplication adds
    pi-exponents; all arithmetic is exact.  Every operation fills one
    accumulator {e: [re, im]} and sorts it once; results that are canonical
    by construction (negation, conjugation, inverse) are wrapped as they are.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[int, Fraction, Fraction]] = ()):
        acc: dict[int, list] = {}
        _acc_add(acc, terms)
        self._terms = tuple((e, _frac(re), _frac(im)) for e, re, im in _acc_terms(acc))

    @classmethod
    def _wrap(cls, terms: tuple) -> "Scalar":
        """A Scalar over an already canonical term tuple of Fractions."""
        s = object.__new__(cls)
        s._terms = terms
        return s

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Scalar":
        return cls()

    @classmethod
    def one(cls) -> "Scalar":
        return cls(((0, _F1, _F0),))

    @classmethod
    def rational(cls, num, den=1) -> "Scalar":
        return cls(((0, Fraction(num, den), _F0),))

    @classmethod
    def gaussian(cls, re, im) -> "Scalar":
        return cls(((0, _frac(re), _frac(im)),))

    @classmethod
    def imag_unit(cls) -> "Scalar":
        return cls(((0, _F0, _F1),))

    @classmethod
    def pi_power(cls, exponent: int, coeff=1) -> "Scalar":
        return cls(((exponent, _frac(coeff), _F0),))

    @classmethod
    def of(cls, v) -> "Scalar":
        if isinstance(v, Scalar):
            return v
        if isinstance(v, (int, Fraction)):
            return cls(((0, _frac(v), _F0),))
        raise TypeError(f"cannot coerce {type(v).__name__} to Scalar")

    # -- queries -------------------------------------------------------

    @property
    def terms(self):
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        """True when the value is a plain rational (pi-free and real)."""
        return self.is_zero() or (
            len(self._terms) == 1
            and self._terms[0][0] == 0
            and self._terms[0][2] == 0
        )

    def single_term(self):
        """The (exponent, re, im) triple when there is exactly one, else None."""
        return self._terms[0] if len(self._terms) == 1 else None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = Scalar.of(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        return _scalar_sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return Scalar._wrap(tuple((e, -re, -im) for e, re, im in self._terms))

    def __sub__(self, other):
        return self + (-Scalar.of(other))

    def __rsub__(self, other):
        return Scalar.of(other) + (-self)

    def __mul__(self, other):
        other = Scalar.of(other)
        acc: dict[int, list] = {}
        _acc_mul(acc, self._terms, other._terms)
        return Scalar._wrap(_acc_terms(acc))

    __rmul__ = __mul__

    def conjugate(self) -> "Scalar":
        return Scalar._wrap(tuple((e, re, -im) for e, re, im in self._terms))

    def inverse(self) -> "Scalar":
        """Exact inverse; defined only for single-term scalars c * pi^e."""
        t = self.single_term()
        if t is None:
            raise NonInvertibleScalarError(
                f"cannot invert {self!r}: not a single pi-power term"
            )
        e, a, b = t
        n = a * a + b * b
        return Scalar._wrap(((-e, a / n, -b / n),))

    def __truediv__(self, other):
        return self * Scalar.of(other).inverse()

    def evalf(self) -> complex:
        val = 0j
        for e, re, im in self._terms:
            val += complex(re, im) * math.pi ** e
        return val

    # -- structural ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def __repr__(self):
        return f"Scalar({self.render()})"

    def render(self) -> str:
        sign, text = self.render_signed()
        return ("-" if sign < 0 else "") + text

    def render_signed(self) -> tuple[int, str]:
        """Return (sign, text) with the sign pulled out when unambiguous."""
        if self.is_zero():
            return 1, "0"
        t = self.single_term()
        if t is not None:
            e, re, im = t
            if im == 0:
                return (1 if re > 0 else -1), _join_factors(
                    _frac_text(abs(re)), _pi_text(e)
                )
            if re == 0:
                return (1 if im > 0 else -1), _join_factors(
                    _frac_text(abs(im)), "i", _pi_text(e)
                )
            return 1, _join_factors(
                "(" + _gauss_text(re, im) + ")", _pi_text(e)
            )
        pieces = []
        for e, re, im in self._terms:
            if im == 0:
                body = _join_factors(_frac_text(re), _pi_text(e))
            elif re == 0:
                body = _join_factors(_frac_text(im), "i", _pi_text(e))
            else:
                body = _join_factors("(" + _gauss_text(re, im) + ")", _pi_text(e))
            pieces.append(body)
        return 1, "(" + " + ".join(pieces) + ")"


def _scalar_sum(parts) -> Scalar:
    """The sum of several Scalars, accumulated once."""
    acc: dict[int, list] = {}
    for part in parts:
        _acc_add(acc, part._terms)
    return Scalar._wrap(_acc_terms(acc))


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _pi_text(e: int) -> str:
    if e == 0:
        return ""
    return "pi" if e == 1 else f"pi^{e}"


def _gauss_text(re: Fraction, im: Fraction) -> str:
    im_part = "i" if abs(im) == 1 else f"{_frac_text(abs(im))}*i"
    return f"{_frac_text(re)} {'+' if im > 0 else '-'} {im_part}"


def _join_factors(*parts: str) -> str:
    parts = [p for p in parts if p not in ("", "1")]
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class ChartSpec:
    """A chart of a vector bundle E -> C.

    ``base`` lists the base coordinate names, ``periodic`` the matching
    period-1 flags, ``fibre`` the fibre coordinate names.  ``fibre_bound``
    optionally bounds the fibre max-norm and defines the tubular domain U.
    """

    base: tuple[str, ...]
    periodic: tuple[bool, ...]
    fibre: tuple[str, ...] = ()
    fibre_bound: Optional[Fraction] = None

    def __post_init__(self):
        names = self.base + self.fibre
        if len(set(names)) != len(names):
            raise ValueError(f"coordinate names must be distinct: {names}")
        if len(self.periodic) != len(self.base):
            raise ValueError("one periodicity flag per base coordinate required")

    @property
    def n_base(self) -> int:
        return len(self.base)

    @property
    def n_fibre(self) -> int:
        return len(self.fibre)

    @property
    def n_dirs(self) -> int:
        return len(self.base) + len(self.fibre)

    # computed once per chart: a cached_property writes the instance
    # __dict__ directly, which a frozen dataclass without slots allows, and
    # eq/hash/repr read only the fields
    @functools.cached_property
    def poly_axes(self) -> tuple[int, ...]:
        """Indices (into base) of the non-periodic base coordinates."""
        return tuple(i for i, p in enumerate(self.periodic) if not p)

    @functools.cached_property
    def periodic_axes(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.periodic) if p)

    @property
    def names(self) -> tuple[str, ...]:
        """All coordinate names, base first then fibre."""
        return self.base + self.fibre

    def direction_name(self, d: int) -> str:
        return self.names[d]

    def direction_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownCoordinateError(f"{name!r} is not a coordinate of {self}")

    def is_fibre_dir(self, d: int) -> bool:
        return d >= len(self.base)

    def is_periodic_dir(self, d: int) -> bool:
        return d < len(self.base) and self.periodic[d]

    def kind(self, name: str) -> tuple[str, int]:
        """Classify a name: ('poly', i) / ('periodic', i) / ('fibre', j).

        The index is the position within the corresponding exponent tuple.
        """
        if name in self.fibre:
            return "fibre", self.fibre.index(name)
        if name in self.base:
            i = self.base.index(name)
            if self.periodic[i]:
                return "periodic", self.periodic_axes.index(i)
            return "poly", self.poly_axes.index(i)
        raise UnknownCoordinateError(f"{name!r} is not a coordinate of {self}")

    def base_chart(self) -> "ChartSpec":
        return ChartSpec(self.base, self.periodic, (), None)

    def extend(self, fibre: Sequence[str], bound=None) -> "ChartSpec":
        return ChartSpec(self.base, self.periodic, tuple(fibre), bound)


def make_chart(base: str, fibre: str = "", bound=None) -> ChartSpec:
    """Build a chart from short specs like ``make_chart("y1* y2* x", "p1 p2")``.

    A trailing ``*`` on a base name marks it periodic (period 1).
    """
    names, flags = [], []
    for token in base.split():
        if token.endswith("*"):
            names.append(token[:-1])
            flags.append(True)
        else:
            names.append(token)
            flags.append(False)
    return ChartSpec(
        tuple(names),
        tuple(flags),
        tuple(fibre.split()),
        None if bound is None else Fraction(bound),
    )


def _min_order(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class RingElement:
    """A canonical finite sum of scalar * x-monomial * Fourier mode * y-monomial."""

    __slots__ = ("chart", "terms", "jet_order")

    def __init__(self, chart: ChartSpec, terms, jet_order: Optional[int] = None):
        # terms: iterable of (xexp, modes, yexp, Scalar); canonicalised here.
        # A key met once keeps its Scalar; the coefficients of a key met
        # more than once are summed in one accumulator.
        groups: dict[tuple, list] = {}
        for xe, k, ye, s in terms:
            if jet_order is not None and sum(ye) > jet_order:
                continue
            if type(s) is not Scalar:
                s = Scalar.of(s)
            if not s._terms:
                continue
            key = (tuple(xe), tuple(k), tuple(ye))
            group = groups.get(key)
            if group is None:
                groups[key] = [s]
            else:
                group.append(s)
        out = []
        for key, group in sorted(groups.items()):
            s = group[0] if len(group) == 1 else _scalar_sum(group)
            if s._terms:
                out.append(key + (s,))
        self.chart = chart
        self.terms = tuple(out)
        self.jet_order = jet_order

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, chart: ChartSpec) -> "RingElement":
        return cls(chart, ())

    @classmethod
    def one(cls, chart: ChartSpec) -> "RingElement":
        return cls.constant(chart, 1)

    @classmethod
    def constant(cls, chart: ChartSpec, value) -> "RingElement":
        s = Scalar.of(value)
        key = cls._zero_key(chart)
        return cls(chart, ((key[0], key[1], key[2], s),))

    @classmethod
    def coordinate(cls, chart: ChartSpec, name: str) -> "RingElement":
        kind, idx = chart.kind(name)
        if kind == "periodic":
            raise PeriodicCoordinateError(
                f"{name!r} is periodic; use Fourier modes (sin/cos) instead"
            )
        xe, k, ye = cls._zero_key(chart)
        if kind == "poly":
            xe = _bump(xe, idx)
        else:
            ye = _bump(ye, idx)
        return cls(chart, ((xe, k, ye, Scalar.one()),))

    @classmethod
    def fourier_mode(cls, chart: ChartSpec, modes: Mapping[str, int]) -> "RingElement":
        """The exponential e^{i 2 pi sum_j k_j x_j} for periodic coordinates x_j."""
        xe, k, ye = cls._zero_key(chart)
        k = list(k)
        for name, n in modes.items():
            kind, idx = chart.kind(name)
            if kind != "periodic":
                raise PeriodicCoordinateError(f"{name!r} is not periodic")
            k[idx] += n
        return cls(chart, ((xe, tuple(k), ye, Scalar.one()),))

    @classmethod
    def cos_of(cls, chart: ChartSpec, modes: Mapping[str, int]) -> "RingElement":
        """cos(2 pi sum k_j x_j) in the exponential basis."""
        plus = cls.fourier_mode(chart, modes)
        minus = cls.fourier_mode(chart, {n: -v for n, v in modes.items()})
        return (plus + minus).scale(Scalar.rational(1, 2))

    @classmethod
    def sin_of(cls, chart: ChartSpec, modes: Mapping[str, int]) -> "RingElement":
        """sin(2 pi sum k_j x_j) in the exponential basis."""
        plus = cls.fourier_mode(chart, modes)
        minus = cls.fourier_mode(chart, {n: -v for n, v in modes.items()})
        return (plus - minus).scale(Scalar.gaussian(0, Fraction(-1, 2)))

    @staticmethod
    def _zero_key(chart: ChartSpec):
        return (
            (0,) * len(chart.poly_axes),
            (0,) * len(chart.periodic_axes),
            (0,) * chart.n_fibre,
        )

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        z = self._zero_key(self.chart)
        return all((xe, k, ye) == z for xe, k, ye, _ in self.terms)

    def constant_scalar(self) -> Scalar:
        if self.is_zero():
            return Scalar.zero()
        if not self.is_constant():
            raise ValueError(f"{self.render()!r} is not constant")
        return self.terms[0][3]

    def is_base_only(self) -> bool:
        return all(sum(ye) == 0 for _, _, ye, _ in self.terms)

    def y_degree(self) -> int:
        return max((sum(ye) for _, _, ye, _ in self.terms), default=0)

    def support_names(self) -> frozenset:
        """Coordinate names this element actually depends on."""
        chart = self.chart
        out = set()
        for xe, k, ye, _ in self.terms:
            for pos, e in enumerate(xe):
                if e:
                    out.add(chart.base[chart.poly_axes[pos]])
            for pos, n in enumerate(k):
                if n:
                    out.add(chart.base[chart.periodic_axes[pos]])
            for pos, e in enumerate(ye):
                if e:
                    out.add(chart.fibre[pos])
        return frozenset(out)

    # -- arithmetic -------------------------------------------------------

    def _check_chart(self, other: "RingElement"):
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatchError(
                f"operands live on different charts: {self.chart} vs {other.chart}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = RingElement.constant(self.chart, other)
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check_chart(other)
        return RingElement(
            self.chart,
            self.terms + other.terms,
            _min_order(self.jet_order, other.jet_order),
        )

    __radd__ = __add__

    def __neg__(self):
        return RingElement(
            self.chart,
            ((xe, k, ye, -s) for xe, k, ye, s in self.terms),
            self.jet_order,
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = RingElement.constant(self.chart, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, s) -> "RingElement":
        s = Scalar.of(s)
        return RingElement(
            self.chart,
            ((xe, k, ye, c * s) for xe, k, ye, c in self.terms),
            self.jet_order,
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check_chart(other)
        jet = _min_order(self.jet_order, other.jet_order)
        right = [(xe, k, ye, sum(ye), s._terms) for xe, k, ye, s in other.terms]
        accs: dict[tuple, dict] = {}
        for xe1, k1, ye1, s1 in self.terms:
            deg1 = sum(ye1)
            left = s1._terms
            for xe2, k2, ye2, deg2, t2 in right:
                if jet is not None and deg1 + deg2 > jet:
                    continue
                key = (_tadd(xe1, xe2), _tadd(k1, k2), _tadd(ye1, ye2))
                acc = accs.get(key)
                if acc is None:
                    accs[key] = acc = {}
                _acc_mul(acc, left, t2)
        out = []
        for key, acc in sorted(accs.items()):
            terms = _acc_terms(acc)
            if terms:
                out.append(key + (Scalar._wrap(terms),))
        # the keys are tuples and sorted already: no second canonicalisation
        f = object.__new__(RingElement)
        f.chart, f.terms, f.jet_order = self.chart, tuple(out), jet
        return f

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not in the ring")
        out = RingElement.one(self.chart)
        if self.jet_order is not None:
            out = out.truncate(self.jet_order)
        for _ in range(n):
            out = out * self
        return out

    # -- calculus ----------------------------------------------------------

    def partial(self, name: str) -> "RingElement":
        """Exact partial derivative with respect to a chart coordinate."""
        kind, idx = self.chart.kind(name)
        out = []
        for xe, k, ye, s in self.terms:
            if kind == "poly":
                e = xe[idx]
                if e:
                    out.append((_bump(xe, idx, -1), k, ye, s * Fraction(e)))
            elif kind == "fibre":
                e = ye[idx]
                if e:
                    out.append((xe, k, _bump(ye, idx, -1), s * Fraction(e)))
            else:
                n = k[idx]
                if n:
                    out.append((xe, k, ye, s * Scalar.pi_power(1, 2 * n) * Scalar.imag_unit()))
        jet = self.jet_order
        if kind == "fibre" and jet is not None:
            jet -= 1  # y^N + O(y^(N+1)) differentiates to order N - 1
        return RingElement(self.chart, out, jet)

    def substitute_fibre(self, exprs: Sequence["RingElement"]) -> "RingElement":
        """Replace each fibre coordinate y_j by exprs[j], fully expanded."""
        chart = self.chart
        if len(exprs) != chart.n_fibre:
            raise DimensionMismatchError(
                f"expected {chart.n_fibre} fibre expressions, got {len(exprs)}"
            )
        order = self.jet_order
        for e in exprs:
            self._check_chart(e)
            order = _min_order(order, e.jet_order)
        out = RingElement.zero(chart)
        powers: dict[tuple[int, int], RingElement] = {}

        def pw(j, n):
            if (j, n) not in powers:
                powers[(j, n)] = exprs[j] ** n
            return powers[(j, n)]

        for xe, k, ye, s in self.terms:
            piece = RingElement(chart, ((xe, k, (0,) * chart.n_fibre, s),))
            for j, e in enumerate(ye):
                if e:
                    piece = piece * pw(j, e)
            out = out + piece
        if order is not None:
            out = out.truncate(order)
        return out

    def shift_fibre(self, alphas: Sequence["RingElement"]) -> "RingElement":
        """Substitution y_j -> y_j + alphas[j] with base-only alphas."""
        chart = self.chart
        if len(alphas) != chart.n_fibre:
            raise DimensionMismatchError(
                f"expected {chart.n_fibre} shift entries, got {len(alphas)}"
            )
        exprs = []
        for j, a in enumerate(alphas):
            self._check_chart(a)
            if not a.is_base_only():
                raise FibreDependenceError(
                    f"shift entry {j} depends on a fibre coordinate"
                )
            exprs.append(RingElement.coordinate(chart, chart.fibre[j]) + a)
        return self.substitute_fibre(exprs)

    # -- truncation and restriction -----------------------------------------

    def truncate(self, order: int) -> "RingElement":
        """The jet of this element with fibre order ``order``."""
        order = order if self.jet_order is None else min(order, self.jet_order)
        return RingElement(self.chart, self.terms, order)

    def without_truncation(self) -> "RingElement":
        return RingElement(self.chart, self.terms, None)

    def at_zero_fibre(self) -> "RingElement":
        """Set all fibre coordinates to zero (drop positive y-degree terms)."""
        return RingElement(
            self.chart,
            ((xe, k, ye, s) for xe, k, ye, s in self.terms if sum(ye) == 0),
            None,
        )

    def y_component(self, j: int) -> "RingElement":
        """The coefficient of y_j among terms linear in y."""
        out = []
        for xe, k, ye, s in self.terms:
            if sum(ye) == 1 and ye[j] == 1:
                out.append((xe, k, (0,) * self.chart.n_fibre, s))
        return RingElement(self.chart, out)

    def restrict_to_base(self) -> "RingElement":
        """Reinterpret a base-only element on the base chart of C."""
        if not self.is_base_only():
            raise FibreDependenceError("element depends on fibre coordinates")
        base = self.chart.base_chart()
        return RingElement(base, ((xe, k, (), s) for xe, k, _, s in self.terms))

    def extend_to(self, chart: ChartSpec) -> "RingElement":
        """Include an element of the base ring into a bundle chart."""
        if chart.base_chart() != self.chart.base_chart():
            raise ChartMismatchError("charts have different bases")
        if not self.is_base_only():
            raise FibreDependenceError("element depends on fibre coordinates")
        ye = (0,) * chart.n_fibre
        return RingElement(chart, ((xe, k, ye, s) for xe, k, _, s in self.terms))

    def fourier_zero_mode(self, names: Sequence[str]) -> "RingElement":
        """Keep only terms with zero Fourier mode along the given coordinates.

        This is the exact integral over the unit torus in those directions.
        """
        idxs = []
        for name in names:
            kind, idx = self.chart.kind(name)
            if kind != "periodic":
                raise PeriodicCoordinateError(f"{name!r} is not periodic")
            idxs.append(idx)
        return RingElement(
            self.chart,
            (
                (xe, k, ye, s)
                for xe, k, ye, s in self.terms
                if all(k[i] == 0 for i in idxs)
            ),
            self.jet_order,
        )

    # -- reality and numerics -------------------------------------------------

    def conjugate(self) -> "RingElement":
        return RingElement(
            self.chart,
            (
                (xe, tuple(-n for n in k), ye, s.conjugate())
                for xe, k, ye, s in self.terms
            ),
            self.jet_order,
        )

    def is_real_element(self) -> bool:
        """True iff the coefficients satisfy c_{-k} = conjugate(c_k)."""
        return self.terms == self.conjugate().terms

    def eval(self, point: Sequence[float]) -> complex:
        """Numeric value at a point given in chart order (base, then fibre)."""
        chart = self.chart
        if len(point) != chart.n_dirs:
            raise DimensionMismatchError(
                f"point has {len(point)} coordinates, chart needs {chart.n_dirs}"
            )
        xs = [point[i] for i in chart.poly_axes]
        ps = [point[i] for i in chart.periodic_axes]
        ys = list(point[chart.n_base:])
        val = 0j
        for xe, k, ye, s in self.terms:
            term = s.evalf()
            for v, e in zip(xs, xe):
                if e:
                    term *= v ** e
            phase = sum(n * v for n, v in zip(k, ps))
            if phase:
                term *= cmath.exp(2j * math.pi * phase)
            for v, e in zip(ys, ye):
                if e:
                    term *= v ** e
            val += term
        return val

    # -- structure ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = RingElement.constant(self.chart, other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.terms == other.terms
            and self.jet_order == other.jet_order
        )

    def __hash__(self):
        return hash((self.chart, self.terms, self.jet_order))

    def __repr__(self):
        tag = "" if self.jet_order is None else f", jet<= {self.jet_order}"
        return f"RingElement({self.render()}{tag})"

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """Canonical text form, parseable by the scenario grammar.

        Fourier modes are converted back to products of per-coordinate
        sines and cosines, e.g. ``8*pi^2*cos(2*pi*y1)*cos(2*pi*y2)``.
        """
        if self.is_zero():
            return "0"
        chart = self.chart
        pnames = [chart.base[i] for i in chart.periodic_axes]
        groups: dict[tuple, dict[tuple, Scalar]] = {}
        for xe, k, ye, s in self.terms:
            groups.setdefault((xe, ye), {})[k] = s
        pieces = []
        for (xe, ye), modes in sorted(groups.items()):
            for labels, s in sorted(_real_basis(modes).items()):
                if s.is_zero():
                    continue
                pieces.append(((xe, ye, labels), s))
        out = []
        for (xe, ye, labels), s in pieces:
            sign, stext = s.render_signed()
            factors = [] if stext == "1" else [stext]
            for pos, e in enumerate(xe):
                if e:
                    nm = chart.base[chart.poly_axes[pos]]
                    factors.append(nm if e == 1 else f"{nm}^{e}")
            for pos, (fn, n) in enumerate(labels):
                if fn:
                    arg = f"2*pi*{pnames[pos]}" if n == 1 else f"{2 * n}*pi*{pnames[pos]}"
                    factors.append(f"{fn}({arg})")
            for pos, e in enumerate(ye):
                if e:
                    nm = chart.fibre[pos]
                    factors.append(nm if e == 1 else f"{nm}^{e}")
            body = "*".join(factors) if factors else "1"
            if not out:
                out.append(body if sign > 0 else f"-{body}")
            else:
                out.append(f"{'+' if sign > 0 else '-'} {body}")
        return " ".join(out)


def _real_basis(modes: Mapping[tuple, Scalar]) -> dict[tuple, Scalar]:
    """Convert exponential-mode coefficients to the sin/cos product basis.

    Keys of the result are tuples of per-axis labels ('', 0) for the
    constant factor, ('cos', n) or ('sin', n) with n > 0 otherwise.
    """
    if not modes:
        return {}
    n_axes = len(next(iter(modes)))
    cur: dict[tuple, Scalar] = dict(modes)
    i_unit = Scalar.imag_unit()
    for ax in range(n_axes):
        nxt: dict[tuple, Scalar] = {}

        def put(key, val):
            if key in nxt:
                nxt[key] = nxt[key] + val
            else:
                nxt[key] = val

        consumed = set()
        for key, s in cur.items():
            if key in consumed:
                continue
            n = key[ax]
            if n == 0:
                put(key[:ax] + (("", 0),) + key[ax + 1 :], s)
                continue
            partner = key[:ax] + (-n,) + key[ax + 1 :]
            sp = cur.get(partner, Scalar.zero())
            consumed.add(partner)
            if n < 0:
                n, s, sp = -n, sp, s
            cos_key = key[:ax] + (("cos", n),) + key[ax + 1 :]
            sin_key = key[:ax] + (("sin", n),) + key[ax + 1 :]
            put(cos_key, s + sp)
            put(sin_key, i_unit * (s - sp))
        cur = nxt
    return cur


def _tadd(a: tuple, b: tuple) -> tuple:
    return tuple(map(operator.add, a, b))


def _bump(t: tuple, i: int, delta: int = 1) -> tuple:
    return t[:i] + (t[i] + delta,) + t[i + 1 :]


# -- compiled grid evaluation ----------------------------------------------------


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) in real arithmetic, as Python forms the product."""
    return ar * br - ai * bi, ar * bi + ai * br


def _distinct(rows: list) -> tuple[list, np.ndarray]:
    """The distinct rows in sorted order and, per input row, its index there."""
    distinct = sorted(set(rows))
    index = {row: i for i, row in enumerate(distinct)}
    return distinct, np.array([index[row] for row in rows], dtype=int)


def _float_powers(col: np.ndarray, exps: list) -> np.ndarray:
    """(N, len(exps)) array of Python's ``v ** e``, taken once per distinct v."""
    powers: dict[float, list] = {}
    rows = []
    for v in col.tolist():
        row = powers.get(v)
        if row is None:
            row = powers[v] = [v ** e for e in exps]
        rows.append(row)
    return np.array(rows, dtype=float).reshape(len(col), len(exps))


def _complex_powers(vr: np.ndarray, vi: np.ndarray, exps: list):
    """(vr + i vi) ** e for each e, by Python's square-and-multiply, as (re, im)."""
    squares = [(vr, vi)]
    while 1 << len(squares) <= exps[-1]:
        squares.append(_cmul(*squares[-1], *squares[-1]))
    out_r, out_i = [], []
    for e in exps:
        rr, ri = 1.0, 0.0
        for bit, (sr, si) in enumerate(squares):
            if e >> bit & 1:
                rr, ri = _cmul(rr, ri, sr, si)
        out_r.append(np.broadcast_to(rr, vr.shape))
        out_i.append(np.broadcast_to(ri, vr.shape))
    return np.stack(out_r, axis=1), np.stack(out_i, axis=1)


class GridEvaluator:
    """Ring elements compiled once into numpy arrays, evaluated on whole grids.

    The terms of all elements become one complex coefficient vector
    (``Scalar.evalf`` once per term) and, for each polynomial base axis,
    the Fourier modes and each fibre axis, the distinct exponents (modes)
    with one index per term.  A call evaluates every element at N points in
    one pass and returns an (N, len(elements)) complex array.  ``base`` is
    an (N, n_base) real array; ``fibre`` is an (N, n_fibre) complex array,
    needed only when an element depends on the fibre.

    Only ``.terms`` is read.  A value is formed with the operations of
    ``RingElement.eval`` in its order: the coefficient times each base power
    (Python's float power, taken once per distinct coordinate value), the
    Fourier phase and each fibre power (Python's square-and-multiply), with
    complex products in real arithmetic and terms summed in order from 0.
    A factor an ``eval`` term skips is multiplied in here as exactly 1, which
    can change only the sign of a zero term, and no sum.  So both agree bit
    for bit wherever numpy's cos and sin agree with the math module's.
    """

    def __init__(self, elements: Sequence["RingElement"]):
        self.n_out = len(elements)
        terms = [(out, rank, t) for out, el in enumerate(elements)
                 for rank, t in enumerate(el.terms)]
        self._coeff = np.array([t[3].evalf() for _, _, t in terms], dtype=complex)
        out = np.array([o for o, _, _ in terms], dtype=int)
        rank = np.array([r for _, r, _ in terms], dtype=int)
        self._ranks = [(np.flatnonzero(rank == r), out[rank == r])
                       for r in range(int(rank.max(initial=-1)) + 1)]
        self._poly, self._phase, self._fibre = [], None, []
        if not terms:
            return
        chart = elements[0].chart
        for pos, axis in enumerate(chart.poly_axes):
            exps, at = _distinct([t[0][pos] for _, _, t in terms])
            if exps != [0]:
                self._poly.append((axis, exps, at))
        modes, at = _distinct([t[1] for _, _, t in terms])
        if any(map(any, modes)):
            self._phase = (chart.periodic_axes, np.array(modes, dtype=float), at)
        for j in range(chart.n_fibre):
            exps, at = _distinct([t[2][j] for _, _, t in terms])
            if exps != [0]:
                self._fibre.append((j, exps, at))

    def __call__(self, base: np.ndarray, fibre: Optional[np.ndarray] = None) -> np.ndarray:
        n_pts = len(base)
        re = np.repeat(self._coeff.real[None, :], n_pts, axis=0)
        im = np.repeat(self._coeff.imag[None, :], n_pts, axis=0)
        for axis, exps, at in self._poly:
            f = _float_powers(base[:, axis], exps)[:, at]
            re *= f
            im *= f
        if self._phase is not None:
            axes, modes, at = self._phase
            # sum_j k_j x_j as eval adds it; a zero phase turns by exactly 1
            phase = np.zeros((n_pts, len(modes)))
            for pos, axis in enumerate(axes):
                phase = phase + modes[:, pos] * base[:, axis, None]
            theta = (2 * math.pi) * phase
            re, im = _cmul(re, im, np.cos(theta)[:, at], np.sin(theta)[:, at])
        for j, exps, at in self._fibre:
            if fibre is None:
                raise DimensionMismatchError("an element depends on the fibre: pass fibre values")
            f_re, f_im = _complex_powers(fibre[:, j].real, fibre[:, j].imag, exps)
            re, im = _cmul(re, im, f_re[:, at], f_im[:, at])
        val = np.zeros((n_pts, self.n_out), dtype=complex)
        for cols, outs in self._ranks:
            val.real[:, outs] += re[:, cols]
            val.imag[:, outs] += im[:, cols]
        return val


# -- spec-level operation names ------------------------------------------------


def ring_mul(f: RingElement, g: RingElement) -> RingElement:
    """Exact product of two ring elements on the same chart."""
    return f * g


def partial_derivative(f: RingElement, coord: str) -> RingElement:
    """Exact partial derivative of f with respect to a chart coordinate."""
    return f.partial(coord)


def taylor_shift(f: RingElement, alphas: Sequence[RingElement]) -> RingElement:
    """Exact substitution y_j -> y_j + alphas[j] for base-only alphas."""
    return f.shift_fibre(alphas)


def eval_point(f: RingElement, point: Sequence[float]) -> complex:
    """Machine-precision value of f, with pi evaluated numerically."""
    return f.eval(point)
