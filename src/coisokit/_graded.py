"""Shared machinery for wedge-indexed objects with RingElement coefficients.

Both multivector fields and differential forms are finite maps from strictly
increasing tuples of direction indices (base directions first, then fibre
directions, in chart order) to ring elements.  This module holds the common
container plus the sign bookkeeping for wedge products.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterable, Optional

from .coeff_ring import ChartSpec, RingElement, Scalar
from .errors import ChartMismatchError


def merge_dirs(a: tuple, b: tuple) -> Optional[tuple[int, tuple]]:
    """Merge two ascending index tuples; (sign, merged) or None on collision."""
    if set(a) & set(b):
        return None
    inversions = 0
    for x in a:
        for y in b:
            if y < x:
                inversions += 1
    merged = tuple(sorted(a + b))
    return (-1 if inversions % 2 else 1), merged


def inversion_sign(seq) -> int:
    """(-1) to the number of inversions of ``seq``: the sign of the
    permutation that sorts it."""
    inversions = sum(a > b for a, b in itertools.combinations(seq, 2))
    return -1 if inversions % 2 else 1


def dot_by_wedge(products) -> list:
    """(dirs, sum of sign * f * g) per wedge index over (dirs, sign, f, g).

    The products are grouped by wedge index and each group is summed by one
    ``RingElement.dot``, so no coefficient is built product by product.
    """
    groups: dict[tuple, list] = {}
    for dirs, sign, f, g in products:
        group = groups.get(dirs)
        if group is None:
            groups[dirs] = [(sign, f, g)]
        else:
            group.append((sign, f, g))
    return [(dirs, RingElement.dot(group)) for dirs, group in groups.items()]


class GradedTerms:
    """Homogeneous graded object: degree plus wedge-indexed coefficients."""

    __slots__ = ("chart", "degree", "terms", "_partials", "_hash")

    def __init__(self, chart: ChartSpec, degree: int, terms):
        acc: dict[tuple, RingElement] = {}
        for dirs, coeff in terms:
            dirs = tuple(dirs)
            if len(dirs) != degree:
                raise ValueError(f"wedge {dirs} does not have degree {degree}")
            if any(dirs[i] >= dirs[i + 1] for i in range(len(dirs) - 1)):
                raise ValueError(f"wedge indices must be strictly increasing: {dirs}")
            if dirs in acc:
                acc[dirs] = acc[dirs] + coeff
            else:
                acc[dirs] = coeff
        self.chart = chart
        self.degree = degree
        self.terms = tuple(
            sorted((d, c) for d, c in acc.items() if not c.is_zero())
        )
        self._partials = self._hash = None

    @classmethod
    def _wrap(cls, chart: ChartSpec, degree: int, pairs):
        """An object over (dirs, coeff) pairs whose wedge indices are valid
        for ``degree`` and distinct already: zero coefficients are dropped
        and the terms sorted, and nothing else is checked."""
        h = object.__new__(cls)
        h.chart, h.degree, h._partials, h._hash = chart, degree, None, None
        h.terms = tuple(sorted(t for t in pairs if t[1].terms))
        return h

    @classmethod
    def from_factor_images(cls, chart: ChartSpec, w, images, coeff=lambda c: c):
        """Sum of coeff(c) * images[d_1] ^ ... ^ images[d_k] over the terms of w.

        Pushforwards, pullbacks and the musical maps act factor by factor; a
        term c with wedge (d_1, ..., d_k) maps to coeff(c) times the wedge of
        the degree-1 images.  Each term's images are wedged first (they are
        small), and the products of coeff(c) with that wedge's coefficients,
        over all terms, are summed by one ``dot`` per output wedge index, so
        each coefficient's jet order is the minimum over every product that
        feeds it, also where some of them cancel.  A term with a zero image
        has a zero wedge; its coeff(c) is not taken.  A zero coeff(c) is
        skipped before any product, so its jet order bounds nothing.
        """
        one = ((), RingElement.one(chart))
        products = []
        for dirs, c in w.terms:
            factors = [images[d] for d in dirs]
            if any(f.is_zero() for f in factors):
                continue
            wedged = functools.reduce(GradedTerms.wedge, factors).terms if factors else (one,)
            value = coeff(c)
            if value.terms:
                products.extend((d, 1, value, g) for d, g in wedged)
        return cls._wrap(chart, w.degree, dot_by_wedge(products))

    def coefficient_matrix(self):
        """Full antisymmetric matrix of a degree-2 object."""
        if self.degree != 2:
            raise ValueError("coefficient_matrix requires degree 2")
        n = self.chart.n_dirs
        zero = RingElement.zero(self.chart)
        mat = [[zero for _ in range(n)] for _ in range(n)]
        for (i, j), c in self.terms:
            mat[i][j] = c
            mat[j][i] = -c
        return mat

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, dirs: Iterable[int]) -> RingElement:
        dirs = tuple(dirs)
        for d, c in self.terms:
            if d == dirs:
                return c
        return RingElement.zero(self.chart)

    def support_names(self) -> frozenset:
        out = frozenset()
        for _, c in self.terms:
            out |= c.support_names()
        return out

    def max_y_degree(self) -> int:
        return max((c.y_degree() for _, c in self.terms), default=0)

    def jet_order(self) -> Optional[int]:
        """Reliable fibre order: None when exact, else the minimum over terms."""
        orders = [c.jet_order for _, c in self.terms if c.jet_order is not None]
        return min(orders) if orders else None

    def partials_along(self, i: int) -> tuple:
        """((dirs, d coeff / d u_i), ...) over the terms whose derivative
        along direction ``i`` is nonzero.  An object never changes, so each
        direction's row is computed once and kept on the object."""
        table = self._partials
        if table is None:
            table = self._partials = {}
        row = table.get(i)
        if row is None:
            name = self.chart.direction_name(i)
            row = table[i] = tuple(
                (dirs, dc) for dirs, c in self.terms if (dc := c.partial(name)).terms
            )
        return row

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.chart != other.chart:
            raise ChartMismatchError(
                f"operands live on different charts: {self.chart} vs {other.chart}"
            )

    def __add__(self, other):
        """The sum of two objects of one kind and degree.

        A coefficient that cancels to zero is dropped with its jet order, so
        a sum of more than two jet objects must be built in one pass (one
        constructor call over all their terms): summed left to right, a
        later addend's higher order would take the dropped one's place.
        """
        if not isinstance(other, GradedTerms):
            return NotImplemented
        self._check(other)
        if self._base_kind() is not other._base_kind():
            raise TypeError("cannot add objects of different graded kinds")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add degree {self.degree} and degree {other.degree}"
            )
        acc = dict(self.terms)
        for d, c in other.terms:
            mine = acc.get(d)
            acc[d] = c if mine is None else mine + c
        return self._base_kind()._wrap(self.chart, self.degree, acc.items())

    def __neg__(self):
        return self._base_kind()._wrap(self.chart, self.degree, [(d, -c) for d, c in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        """Multiply every coefficient by a ring element or scalar."""
        if isinstance(s, RingElement):
            return self.map_coefficients(lambda c: c * s)
        s = Scalar.of(s)
        return self.map_coefficients(lambda c: c.scale(s))

    def __mul__(self, s):
        if isinstance(s, (int, Fraction, Scalar, RingElement)):
            return self.scale(s)
        return NotImplemented

    __rmul__ = __mul__

    def wedge(self, other):
        if not isinstance(other, GradedTerms):
            raise TypeError(f"cannot wedge with {type(other).__name__}")
        self._check(other)
        if self._base_kind() is not other._base_kind():
            raise TypeError("cannot wedge a multivector with a form")
        products = (
            (m[1], m[0], c1, c2)
            for d1, c1 in self.terms
            for d2, c2 in other.terms
            if (m := merge_dirs(d1, d2)) is not None
        )
        return self._base_kind()._wrap(
            self.chart, self.degree + other.degree, dot_by_wedge(products)
        )

    def __xor__(self, other):
        return self.wedge(other)

    def map_coefficients(self, fn):
        return self._base_kind()._wrap(self.chart, self.degree, [(d, fn(c)) for d, c in self.terms])

    def at_zero_fibre(self):
        """Evaluate all coefficients at y = 0 (keep the wedge structure)."""
        return self.map_coefficients(lambda c: c.at_zero_fibre())

    def truncate(self, order: int):
        return self.map_coefficients(lambda c: c.truncate(order))

    def without_truncation(self):
        return self.map_coefficients(lambda c: c.without_truncation())

    def _base_kind(self):
        raise NotImplementedError

    # -- structure -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GradedTerms):
            return NotImplemented
        if self._base_kind() is not other._base_kind():
            return NotImplemented
        if self.chart != other.chart:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        """The hash of the terms, computed once, since an object never
        changes.  Equal objects hash equal, zero objects of any two degrees
        too; the chart is left to ``__eq__`` (each coefficient hashes it)."""
        if self._hash is None:
            self._hash = hash(self.terms)
        return self._hash

    def render(self) -> str:
        if self.is_zero():
            return "0"
        sym = self._symbol_prefix()
        pieces = []
        for dirs, coeff in self.terms:
            wedge = " /\\ ".join(sym + self.chart.direction_name(d) for d in dirs)
            text = coeff.render()
            if not wedge:
                pieces.append(text)
            elif text == "1":
                pieces.append(wedge)
            elif text == "-1":
                pieces.append(f"-{wedge}")
            elif " " in text or "+" in text.lstrip("-"):
                pieces.append(f"({text}) * {wedge}")
            else:
                pieces.append(f"{text} * {wedge}")
        return " + ".join(pieces)

    def _symbol_prefix(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"
