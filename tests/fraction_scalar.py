"""Reference Scalar arithmetic on Fraction triples, for differential tests.

A reference value is a canonical tuple of (e, re, im) triples of Fractions,
one per pi-exponent e, sorted by e, with no zero coefficient: the layout
that ``coeff_ring.Scalar`` stored before it kept integer numerators, with
its accumulator and its rendering.  ``Scalar.terms`` must equal it, and
every operation must agree with it.
"""

import math
from fractions import Fraction

F0 = Fraction(0)


def acc_add(acc: dict, terms) -> None:
    """Add (e, re, im) triples into an accumulator {e: [re, im]}."""
    for e, re, im in terms:
        slot = acc.get(e)
        if slot is None:
            acc[e] = [Fraction(re), Fraction(im)]
        else:
            slot[0] += re
            slot[1] += im


def acc_mul(acc: dict, left, right) -> None:
    """Add the product of two canonical term tuples into an accumulator."""
    for e1, a, b in left:
        for e2, c, d in right:
            e = e1 + e2
            re, im = a * c - b * d, a * d + b * c
            slot = acc.get(e)
            if slot is None:
                acc[e] = [re, im]
            else:
                slot[0] += re
                slot[1] += im


def acc_terms(acc: dict) -> tuple:
    """The sorted term tuple of an accumulator, zero coefficients dropped."""
    return tuple((e, re, im) for e, (re, im) in sorted(acc.items()) if re or im)


def canon(terms) -> tuple:
    acc = {}
    acc_add(acc, terms)
    return acc_terms(acc)


def neg(t) -> tuple:
    return tuple((e, -re, -im) for e, re, im in t)


def conjugate(t) -> tuple:
    return tuple((e, re, -im) for e, re, im in t)


def add(*parts) -> tuple:
    acc = {}
    for t in parts:
        acc_add(acc, t)
    return acc_terms(acc)


def dot(products) -> tuple:
    """sum sign * f * g over (sign, f, g) with f, g reference tuples."""
    acc = {}
    for sign, f, g in products:
        acc_mul(acc, f if sign > 0 else neg(f), g)
    return acc_terms(acc)


def mul(f, g) -> tuple:
    return dot([(1, f, g)])


def inverse(t) -> tuple:
    ((e, a, b),) = t
    n = a * a + b * b
    return ((-e, a / n, -b / n),)


def evalf(t) -> complex:
    val = 0j
    for e, re, im in t:
        val += complex(re, im) * math.pi ** e
    return val


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _join(*parts) -> str:
    parts = [p for p in parts if p not in ("", "1")]
    return "*".join(parts) if parts else "1"


def _pi_text(e) -> str:
    return "" if e == 0 else ("pi" if e == 1 else f"pi^{e}")


def _gauss_text(re, im) -> str:
    im_part = "i" if abs(im) == 1 else f"{_frac_text(abs(im))}*i"
    return f"{_frac_text(re)} {'+' if im > 0 else '-'} {im_part}"


def render(t) -> str:
    """A single term pulls its sign out; a sum keeps each sign in its numbers."""
    if not t:
        return "0"
    if len(t) == 1:
        ((e, re, im),) = t
        if im == 0:
            sign, text = (1 if re > 0 else -1), _join(_frac_text(abs(re)), _pi_text(e))
        elif re == 0:
            sign, text = (1 if im > 0 else -1), _join(_frac_text(abs(im)), "i", _pi_text(e))
        else:
            sign, text = 1, _join("(" + _gauss_text(re, im) + ")", _pi_text(e))
        return ("-" if sign < 0 else "") + text
    pieces = []
    for e, re, im in t:
        if im == 0:
            pieces.append(_join(_frac_text(re), _pi_text(e)))
        elif re == 0:
            pieces.append(_join(_frac_text(im), "i", _pi_text(e)))
        else:
            pieces.append(_join("(" + _gauss_text(re, im) + ")", _pi_text(e)))
    return "(" + " + ".join(pieces) + ")"
