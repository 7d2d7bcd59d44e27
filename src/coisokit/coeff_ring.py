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

A Scalar stores each Gaussian rational as Python ints: one quad
(pi-exponent, re, im, den) standing for (re + i*im)/den, in lowest terms.
Coefficients are accumulated once per operation, and a sum of products is
one operation.  A product, a sum or a signed sum of products (``dot``)
collects every contribution in one accumulator per output key (a dict from
pi-exponent to ``[re, im, den]``): integer products and sums, unreduced,
with one gcd only where two denominators differ.  Each output term is then
reduced by one gcd and each output Scalar built once; a product skips the
term pairs above the jet order before any arithmetic, and no per-pair
Scalar, no Fraction and no partial sum is built.

A RingElement product is a ``dot`` too.  Its accumulator is keyed by the
flat tuple ``xe + k + ye``, built once per operand term and added once per
term pair; the three parts have fixed lengths per chart, so flat keys sort
as the (xe, k, ye) keys do, and each output key is split once.  A term pair
whose Scalars are one real quad each (every rational coefficient) is
multiplied inline, a negative sign folded into its numerator; every other
pair goes through ``_acc_mul``, the one general pair loop.

Results that are canonical as produced are wrapped as they are
(``RingElement._wrap``, like ``Scalar._wrap``), with no second
canonicalisation:

- ``dot``: its keys come sorted out of one accumulator;
- ``partial``: each key stays or loses 1 from one exponent, so the keys stay
  distinct and in order; each quad is scaled by the int exponent, or by
  2*pi*i*n, with one gcd, since gcd(re, im, den) == 1 makes
  gcd(c*re, c*im, den) == gcd(c, den);
- negation, and ``scale`` by a nonzero Scalar: the keys stay, and a product
  of nonzero Scalars is nonzero (a zero Scalar gives the empty element);
- the filters ``truncate``, ``at_zero_fibre``, ``fibre_part`` and
  ``fourier_zero_mode``: a subsequence of sorted terms is sorted.

Jets are ordinary elements with ``jet_order`` set.  A jet of order N
stands for every f + t, where f is its terms and the unknown tail t has
only terms of y-degree > N; ``jet_order`` None means exact.  The contract:

- A result with jet order M equals op(f + t) through y-degree M for every
  tail t, and holds no term above M.  Orders combine by the minimum rule: a
  sum and a ``dot`` take the minimum over all their operands, zero ones
  included, and a ``dot`` skips the term pairs above it before any
  arithmetic; ``partial`` along a fibre coordinate lowers the order by one
  and ``truncate(M)`` lowers it to M.
- A result with no jet order (an exact element, a Scalar) does not depend
  on t.  ``at_zero_fibre`` and ``restrict_to_base`` need N >= 0, and raise
  JetOrderError otherwise; ``substitute_fibre`` raises it for an expression
  with a y-degree-0 term, which would move t into every order.
- The queries that read the stored terms are jet-relative: ``is_zero``,
  ``is_constant``, ``constant_scalar``, ``y_degree``, ``is_base_only``,
  ``support_names``, ``eval``, ``render`` and equality answer for f, so
  through order N (``is_constant`` and ``constant_scalar`` raise
  JetOrderError for N < 0).  ``without_truncation`` takes t = 0 on purpose.

A multivector field or form keeps one element per wedge index, each at its
own jet order, so its components may have different orders (``jet_order()``
of a field is their minimum).  Each component of a bracket or a wedge is one
``dot`` over the products that feed it, at the minimum order of those
products' operands, and no other component's order enters it.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    ChartMismatchError,
    DimensionMismatchError,
    FibreDependenceError,
    JetOrderError,
    NonInvertibleScalarError,
    PeriodicCoordinateError,
    UnknownCoordinateError,
)


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected an int or Fraction, got {type(v).__name__}")


def _acc_put(slot: list, re: int, im: int, den: int) -> None:
    """Add (re + i*im)/den into a slot of another denominator, with one gcd."""
    d0 = slot[2]
    g = math.gcd(d0, den)
    m0, m1 = den // g, d0 // g
    slot[0] = slot[0] * m0 + re * m1
    slot[1] = slot[1] * m0 + im * m1
    slot[2] = d0 * m0


def _acc_add(acc: dict, quads) -> None:
    """Add (e, re, im, den) quads into an accumulator {e: [re, im, den]}."""
    for e, re, im, den in quads:
        slot = acc.get(e)
        if slot is None:
            acc[e] = [re, im, den]
        elif slot[2] == den:
            slot[0] += re
            slot[1] += im
        else:
            _acc_put(slot, re, im, den)


def _acc_mul(acc: dict, left, right) -> None:
    """Add the product of two quad tuples into an accumulator, unreduced."""
    for e1, a, b, d1 in left:
        for e2, c, d, d2 in right:
            e = e1 + e2
            den = d1 * d2
            slot = acc.get(e)
            if b or d:
                re, im = a * c - b * d, a * d + b * c
                if slot is None:
                    acc[e] = [re, im, den]
                elif slot[2] == den:
                    slot[0] += re
                    slot[1] += im
                else:
                    _acc_put(slot, re, im, den)
            elif slot is None:  # both real: no imaginary cross terms
                acc[e] = [a * c, 0, den]
            elif slot[2] == den:
                slot[0] += a * c
            else:
                _acc_put(slot, a * c, 0, den)


def _neg_terms(terms: tuple) -> tuple:
    """A quad tuple with every coefficient negated (still canonical)."""
    return tuple((e, -re, -im, den) for e, re, im, den in terms)


def _times_int(terms: tuple, c: int) -> tuple:
    """A quad tuple times a nonzero int, one gcd per term: gcd(re, im, den)
    is 1, so gcd(c*re, c*im, den) is gcd(c, den)."""
    gcd = math.gcd
    out = []
    for e, re, im, den in terms:
        g = gcd(c, den)
        m = c // g
        out.append((e, re * m, im * m, den // g))
    return tuple(out)


def _times_pi_i(terms: tuple) -> tuple:
    """A quad tuple times pi*i (still canonical): each pi-exponent goes up
    by one and (re, im) turns into (-im, re)."""
    return tuple((e + 1, -im, re, den) for e, re, im, den in terms)


def _times_i_power(terms: tuple, p: int) -> tuple:
    """A quad tuple times i^p (still canonical): each factor i turns (re, im)
    into (-im, re)."""
    for _ in range(p % 4):
        terms = tuple((e, -im, re, den) for e, re, im, den in terms)
    return terms


def _acc_terms(acc: dict) -> tuple:
    """The sorted quad tuple of an accumulator: zero coefficients dropped and
    each term reduced by one gcd."""
    out = []
    gcd = math.gcd
    for e, (re, im, den) in sorted(acc.items()):
        if re or im:
            if den != 1:
                g = gcd(re, im, den)
                if g != 1:
                    re, im, den = re // g, im // g, den // g
            out.append((e, re, im, den))
    return tuple(out)


def _quad(e: int, re, im) -> tuple:
    """The quad of (re + i*im) * pi^e for ints or Fractions, over their lcm."""
    re, im = _frac(re), _frac(im)
    den = math.lcm(re.denominator, im.denominator)
    return (e, re.numerator * (den // re.denominator),
            im.numerator * (den // im.denominator), den)


class Scalar:
    """Exact number of the form sum_e (a_e + i*b_e) * pi^e.

    The map from pi-exponent e to the Gaussian rational a_e + i*b_e is
    finite and stores no zero coefficients.  Multiplication adds
    pi-exponents; all arithmetic is exact and runs on Python ints.

    Each Gaussian rational is stored as integer numerators over one
    denominator, as the quad (e, re, im, den) with den > 0,
    gcd(re, im, den) == 1 and (re, im) != (0, 0), one per exponent and
    sorted by e, so equal Scalars store equal tuples.  Every operation fills
    one accumulator {e: [re, im, den]}: numerators add directly over equal
    denominators, and otherwise both go to a common denominator with one
    gcd.  The accumulator is sorted once and each output term is reduced by
    one gcd; results that are canonical by construction (negation,
    conjugation, inverse) are wrapped as they are.  ``terms`` shows the
    coefficients as (e, Fraction re, Fraction im) triples.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[int, Fraction, Fraction]] = ()):
        acc: dict[int, list] = {}
        _acc_add(acc, [_quad(e, re, im) for e, re, im in terms])
        self._terms = _acc_terms(acc)

    @classmethod
    def _wrap(cls, terms: tuple) -> "Scalar":
        """A Scalar over an already canonical quad tuple."""
        s = object.__new__(cls)
        s._terms = terms
        return s

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Scalar":
        return cls._wrap(())

    @classmethod
    def one(cls) -> "Scalar":
        return cls._wrap(((0, 1, 0, 1),))

    @classmethod
    def rational(cls, num, den=1) -> "Scalar":
        return cls.of(Fraction(num, den))

    @classmethod
    def gaussian(cls, re, im) -> "Scalar":
        return cls(((0, re, im),))

    @classmethod
    def imag_unit(cls) -> "Scalar":
        return cls._wrap(((0, 0, 1, 1),))

    @classmethod
    def pi_power(cls, exponent: int, coeff=1) -> "Scalar":
        return cls(((exponent, coeff, 0),))

    @classmethod
    def of(cls, v) -> "Scalar":
        if isinstance(v, Scalar):
            return v
        if isinstance(v, int):
            return cls._wrap(((0, int(v), 0, 1),) if v else ())
        if isinstance(v, Fraction):
            return cls._wrap(((0, v.numerator, 0, v.denominator),) if v else ())
        raise TypeError(f"cannot coerce {type(v).__name__} to Scalar")

    # -- queries -------------------------------------------------------

    @property
    def terms(self):
        """The coefficients as (e, re, im) triples of Fractions, sorted by e."""
        return tuple((e, Fraction(re, den), Fraction(im, den))
                     for e, re, im, den in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def single_term(self):
        """The (exponent, re, im) triple when there is exactly one, else None."""
        return self.terms[0] if len(self._terms) == 1 else None

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
        return Scalar._wrap(_neg_terms(self._terms))

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

    @classmethod
    def dot(cls, products) -> "Scalar":
        """sum_k sign_k * f_k * g_k over (sign, f, g) triples, sign +1 or -1.

        Every product is multiplied into one accumulator, which is sorted
        and reduced once: the same Scalar as the pairwise sum of the signed
        products.  Raises ValueError when there is no product.
        """
        products = tuple(products)
        if not products:
            raise ValueError("dot needs at least one product")
        acc: dict[int, list] = {}
        for sign, f, g in products:
            _acc_mul(acc, f._terms if sign > 0 else _neg_terms(f._terms), g._terms)
        return cls._wrap(_acc_terms(acc))

    def conjugate(self) -> "Scalar":
        return Scalar._wrap(tuple((e, re, -im, den) for e, re, im, den in self._terms))

    def inverse(self) -> "Scalar":
        """Exact inverse; defined only for single-term scalars c * pi^e."""
        if len(self._terms) != 1:
            raise NonInvertibleScalarError(
                f"cannot invert {self!r}: not a single pi-power term"
            )
        ((e, a, b, d),) = self._terms
        # den / (a + i b) = den (a - i b) / (a^2 + b^2)
        re, im, den = d * a, -d * b, a * a + b * b
        g = math.gcd(re, im, den)
        return Scalar._wrap(((-e, re // g, im // g, den // g),))

    def __truediv__(self, other):
        return self * Scalar.of(other).inverse()

    def evalf(self) -> complex:
        # int true division rounds correctly, as float(Fraction) does
        val = 0j
        for e, re, im, den in self._terms:
            val += complex(re / den, im / den) * math.pi ** e
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
        if t is None:
            return 1, "(" + " + ".join(_term_text(*term) for term in self.terms) + ")"
        e, re, im = t
        if (re < 0 and not im) or (im < 0 and not re):
            return -1, _term_text(e, -re, -im)
        return 1, _term_text(e, re, im)


def _scalar_sum(parts) -> Scalar:
    """The sum of several Scalars, accumulated once."""
    acc: dict[int, list] = {}
    for part in parts:
        _acc_add(acc, part._terms)
    return Scalar._wrap(_acc_terms(acc))


def _term_text(e: int, re: Fraction, im: Fraction) -> str:
    """One term re + im*i times pi^e, a real or imaginary one unbracketed."""
    if not im:
        coeff = (_frac_text(re),)
    elif not re:
        coeff = (_frac_text(im), "i")
    else:
        coeff = ("(" + _gauss_text(re, im) + ")",)
    return _join_factors(*coeff, _pi_text(e))


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _pi_text(e: int) -> str:
    if e == 0:
        return ""
    return "pi" if e == 1 else f"pi^{e}"


def _gauss_text(re: Fraction, im: Fraction) -> str:
    im_part = "i" if abs(im) == 1 else f"{_frac_text(abs(im))}*i"
    return f"{_frac_text(re)} {'+' if im > 0 else '-'} {im_part}"


# A coordinate name: word characters (Unicode letters, digits and numerics,
# and '_') not starting with a decimal digit.  The scenario grammar reads
# names with the same pattern, so every chart coordinate renders as one name
# token.  It reads ``pi`` and ``i`` as constants and ``d<name>`` as the form
# symbol of the coordinate <name>, so a chart reserves those.
NAME = re.compile(r"[^\W\d]\w*")


def _join_factors(*parts: str) -> str:
    parts = [p for p in parts if p not in ("", "1")]
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class ChartSpec:
    """A chart of a vector bundle E -> C.

    ``base`` lists the base coordinate names, ``periodic`` the matching
    period-1 flags, ``fibre`` the fibre coordinate names, each matching
    ``NAME``.  ``fibre_bound`` optionally bounds the fibre max-norm and
    defines the tubular domain U.
    """

    base: tuple[str, ...]
    periodic: tuple[bool, ...]
    fibre: tuple[str, ...] = ()
    fibre_bound: Optional[Fraction] = None

    def __post_init__(self):
        names = self.base + self.fibre
        for name in names:
            if not NAME.fullmatch(name):
                raise ValueError(f"invalid chart coordinate name {name!r}")
            if name in ("pi", "i") or (name[:1] == "d" and name[1:] in names):
                raise ValueError(
                    f"chart coordinate name {name!r} is reserved for a constant "
                    "or a form symbol"
                )
        if len(set(names)) != len(names):
            raise ValueError(f"coordinate names must be distinct: {names}")
        if len(self.periodic) != len(self.base):
            raise ValueError("one periodicity flag per base coordinate required")
        if self.fibre_bound is not None and self.fibre_bound <= 0:
            raise ValueError(f"domain bound {self.fibre_bound} must be positive")

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
            raise UnknownCoordinateError(
                f"{name!r} is not a coordinate of ({', '.join(self.names)})"
            )

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
        raise UnknownCoordinateError(
            f"{name!r} is not a coordinate of ({', '.join(self.names)})"
        )

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

    @classmethod
    def _wrap(cls, chart: ChartSpec, terms: tuple, jet_order: Optional[int]) -> "RingElement":
        """An element over terms that are canonical already: keys strictly
        increasing, no zero Scalar, no term above ``jet_order``."""
        h = object.__new__(cls)
        h.chart, h.terms, h.jet_order = chart, terms, jet_order
        return h

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
        """Whether every term has the zero key.

        On a jet of order N >= 0 the answer holds through order N, as
        ``is_zero``'s does: ``(y**2).truncate(1)`` is constant through order
        1.  A jet of order < 0 raises JetOrderError."""
        self._check_base_part_known()
        z = self._zero_key(self.chart)
        return all((xe, k, ye) == z for xe, k, ye, _ in self.terms)

    def constant_scalar(self) -> Scalar:
        """The value of a constant element (ValueError if it is not one).

        Jet-relative as ``is_constant`` is; a jet of order < 0 raises
        JetOrderError."""
        self._check_base_part_known()
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
        return RingElement._wrap(
            self.chart,
            tuple((xe, k, ye, Scalar._wrap(_neg_terms(s._terms))) for xe, k, ye, s in self.terms),
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
        # the Scalars have no zero divisors, so a nonzero factor keeps every term
        terms = tuple((xe, k, ye, c * s) for xe, k, ye, c in self.terms) if s._terms else ()
        return RingElement._wrap(self.chart, terms, self.jet_order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return RingElement.dot(((1, self, other),))

    __rmul__ = __mul__

    @classmethod
    def dot(cls, products) -> "RingElement":
        """sum_k sign_k * f_k * g_k over (sign, f, g) triples, sign +1 or -1.

        Every term pair of every product is multiplied into one accumulator
        per output key, and the result is sorted and wrapped once.  It is the
        pairwise sum of the signed products, jet order included: the minimum
        over all operands, zero ones too; the term pairs above it are skipped
        before any arithmetic.  A product is the one-pair case.  Raises
        ValueError when there is no product and ChartMismatchError when the
        operands live on different charts.
        """
        products = tuple(products)
        if not products:
            raise ValueError("dot needs at least one product")
        head = products[0][1]
        jet = None
        for _, f, g in products:
            head._check_chart(f)
            head._check_chart(g)
            jet = _min_order(_min_order(jet, f.jet_order), g.jet_order)
        # one flat key xe + k + ye per operand term, added once per term pair
        accs: dict[tuple, dict] = {}
        add = operator.add
        for sign, f, g in products:
            if not f.terms or not g.terms:
                continue
            # a pair of Scalars that are one real quad each is multiplied
            # inline, without _acc_mul; ``real`` is that quad, else None
            right = []
            for xe, k, ye, s in g.terms:
                t = s._terms
                real = t[0] if len(t) == 1 and not t[0][2] else None
                right.append((xe + k + ye, sum(ye), t, real))
            for xe1, k1, ye1, s1 in f.terms:
                key1 = xe1 + k1 + ye1
                deg1 = sum(ye1)
                left = s1._terms
                real1 = len(left) == 1 and not left[0][2]
                if real1:
                    e1, a, _, d1 = left[0]
                    if sign < 0:
                        a = -a
                        left = ((e1, a, 0, d1),)
                elif sign < 0:
                    left = _neg_terms(left)
                for key2, deg2, t2, real2 in right:
                    if jet is not None and deg1 + deg2 > jet:
                        continue
                    key = tuple(map(add, key1, key2))
                    acc = accs.get(key)
                    if acc is None:
                        accs[key] = acc = {}
                    if real1 and real2 is not None:
                        e2, c, _, d2 = real2
                        e, re, den = e1 + e2, a * c, d1 * d2
                        slot = acc.get(e)
                        if slot is None:
                            acc[e] = [re, 0, den]
                        elif slot[2] == den:
                            slot[0] += re
                        else:
                            _acc_put(slot, re, 0, den)
                    else:
                        _acc_mul(acc, left, t2)
        chart = head.chart
        nx = len(chart.poly_axes)
        nk = nx + len(chart.periodic_axes)
        out = []
        for key, acc in sorted(accs.items()):
            terms = _acc_terms(acc)
            if terms:
                out.append((key[:nx], key[nx:nk], key[nk:], Scalar._wrap(terms)))
        return cls._wrap(chart, tuple(out), jet)

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
        jet = self.jet_order
        # each key stays, or loses 1 from one exponent: still distinct and
        # in order, so the result is wrapped as it is
        out = []
        if kind == "periodic":
            # d/dx e^{2 pi i n x} = 2 pi i n e^{2 pi i n x}
            for xe, k, ye, s in self.terms:
                n = k[idx]
                if n:
                    out.append((xe, k, ye, Scalar._wrap(_times_int(_times_pi_i(s._terms), 2 * n))))
        elif kind == "poly":
            for xe, k, ye, s in self.terms:
                e = xe[idx]
                if e:
                    out.append((_bump(xe, idx, -1), k, ye, Scalar._wrap(_times_int(s._terms, e))))
        else:
            for xe, k, ye, s in self.terms:
                e = ye[idx]
                if e:
                    out.append((xe, k, _bump(ye, idx, -1), Scalar._wrap(_times_int(s._terms, e))))
            if jet is not None:
                jet -= 1  # y^N + O(y^(N+1)) differentiates to order N - 1
        return RingElement._wrap(self.chart, tuple(out), jet)

    def substitute_fibre(self, exprs: Sequence["RingElement"]) -> "RingElement":
        """Replace each fibre coordinate y_j by exprs[j], fully expanded.

        A jet admits only expressions without a y-degree-0 term: otherwise
        each unknown term y^k past its order moves into every order, and
        JetOrderError is raised.
        """
        chart = self.chart
        if len(exprs) != chart.n_fibre:
            raise DimensionMismatchError(
                f"expected {chart.n_fibre} fibre expressions, got {len(exprs)}"
            )
        order = self.jet_order
        for e in exprs:
            self._check_chart(e)
            order = _min_order(order, e.jet_order)
        if self.jet_order is not None and any(
            not any(ye) for e in exprs for _, _, ye, _ in e.terms
        ):
            raise JetOrderError(
                f"a jet of order {self.jet_order} cannot take a fibre expression "
                "with a y-degree-0 term: its unknown terms move into every order"
            )
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
        return RingElement._wrap(
            self.chart, tuple(t for t in self.terms if sum(t[2]) <= order), order
        )

    def without_truncation(self) -> "RingElement":
        return RingElement(self.chart, self.terms, None)

    def _check_base_part_known(self):
        if self.jet_order is not None and self.jet_order < 0:
            raise JetOrderError(
                f"a jet of order {self.jet_order} does not know its y-degree-0 part"
            )

    def at_zero_fibre(self) -> "RingElement":
        """Set all fibre coordinates to zero (drop positive y-degree terms).

        The result is exact; a jet of order < 0 raises JetOrderError."""
        self._check_base_part_known()
        return RingElement._wrap(
            self.chart, tuple(t for t in self.terms if not any(t[2])), None
        )

    def fibre_part(self) -> "RingElement":
        """The terms of positive y-degree, at this element's jet order: the
        element minus its value at y = 0."""
        return RingElement._wrap(
            self.chart, tuple(t for t in self.terms if any(t[2])), self.jet_order
        )

    def restrict_to_base(self) -> "RingElement":
        """Reinterpret a base-only element on the base chart of C.

        The result is exact; a jet of order < 0 raises JetOrderError."""
        self._check_base_part_known()
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
        return RingElement._wrap(
            self.chart,
            tuple(t for t in self.terms if not any(t[1][i] for i in idxs)),
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
        xnames = [chart.base[i] for i in chart.poly_axes]
        pnames = [chart.base[i] for i in chart.periodic_axes]
        groups: dict[tuple, dict[tuple, Scalar]] = {}
        for xe, k, ye, s in self.terms:
            groups.setdefault((xe, ye), {})[k] = s
        out = []
        for (xe, ye), modes in sorted(groups.items()):
            for labels, s in sorted(_real_basis(modes).items()):
                if s.is_zero():
                    continue
                sign, stext = s.render_signed()
                factors = [] if stext == "1" else [stext]
                factors += _powers(xnames, xe)
                factors += [f"{fn}({2 * n}*pi*{nm})" for nm, (fn, n) in zip(pnames, labels) if fn]
                factors += _powers(chart.fibre, ye)
                body = "*".join(factors) or "1"
                if not out:
                    out.append(body if sign > 0 else f"-{body}")
                else:
                    out.append(f"{'+' if sign > 0 else '-'} {body}")
        return " ".join(out)


def _powers(names: Sequence[str], exps: tuple) -> list[str]:
    return [nm if e == 1 else f"{nm}^{e}" for nm, e in zip(names, exps) if e]


def _real_basis(modes: Mapping[tuple, Scalar]) -> dict[tuple, Scalar]:
    """Convert exponential-mode coefficients to the sin/cos product basis.

    Each axis expands as e^{2 pi i n x} = cos(2 pi |n| x) + i sgn(n) sin(2 pi |n| x),
    and the products are summed per label tuple.  Keys of the result are
    tuples of per-axis labels ('', 0) for the constant factor, ('cos', n) or
    ('sin', n) with n > 0 otherwise.
    """
    accs: dict[tuple, dict] = {}
    for k, s in modes.items():
        # per axis, (label, p) for the factor i^p: 1 for cos, i*sgn(n) for sin
        axes = [
            ((("cos", abs(n)), 0), (("sin", abs(n)), 1 if n > 0 else 3)) if n else ((("", 0), 0),)
            for n in k
        ]
        for combo in itertools.product(*axes):
            labels = tuple(label for label, _ in combo)
            terms = _times_i_power(s._terms, sum(p for _, p in combo))
            _acc_add(accs.setdefault(labels, {}), terms)
    return {labels: Scalar._wrap(_acc_terms(acc)) for labels, acc in accs.items()}


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


def sample_grid(chart: ChartSpec, names: Sequence[str], per_axis: int = 32):
    """Deterministic base-point grid varying only the named base coordinates.

    Fibre names in ``names`` are ignored.  With k base coordinates varied,
    each takes max(2, min(per_axis, floor(4096^(1/k)))) points, so
    ``per_axis`` is an upper bound and the grid keeps within 4096 points
    while it has at least 2 per axis.  Periodic axes take their points in
    [0, 1), non-periodic axes in [-1, 1]; all other coordinates stay at 0.
    """
    wanted = set(names)
    active = [i for i, nm in enumerate(chart.base) if nm in wanted]
    if active:
        per_axis = max(2, min(per_axis, int(4096 ** (1.0 / len(active)) + 1e-9)))
    axes = []
    for i in range(chart.n_base):
        if i not in active:
            axes.append((0.0,))
        elif chart.periodic[i]:
            axes.append(tuple(j / per_axis for j in range(per_axis)))
        else:
            axes.append(
                tuple(-1.0 + 2.0 * j / (per_axis - 1) for j in range(per_axis))
            )
    return tuple(itertools.product(*axes))
