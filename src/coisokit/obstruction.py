"""First-obstruction certificate for simultaneous deformations.

Pipeline: check that a section is closed for the first bracket, form the
Kuranishi representative lambda_2(a, a), convert it to a leafwise 2-form
beta through the inverse musical map, integrate over the leaf tori, and
certify obstructedness when the integral is a non-constant function of the
remaining coordinates.  The certificate is one-sided: a non-constant
integral proves the Kuranishi class is nonzero, while a constant one is
reported as inconclusive, never as unobstructed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Optional

from ._graded import inversion_sign
from .coeff_ring import RingElement, make_chart
from .errors import CoisoKitError, NotClosedError
from .forms import (
    DifferentialForm,
    SubbundleSpec,
    leaf_subbundle,
    leafwise_sharp_inverse,
)
from .linfty import CoisoAlgebra, coiso_algebra_from_form, kuranishi_rep
from .multivector import MultiVectorField, VerticalSection
from .symplectic_model import PresymplecticData, gotay_local_model


@dataclass(frozen=True)
class ObstructionReport:
    """Outcome of the certificate; NONZERO is theorem-backed, never guessed."""

    closed: bool
    kuranishi: Optional[VerticalSection]
    beta: Optional[DifferentialForm]
    integral: Optional[RingElement]
    verdict: str

    def __post_init__(self):
        if self.verdict not in ("NONZERO", "INCONCLUSIVE"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "NONZERO":
            if self.integral is None or self.integral.is_constant():
                raise ValueError(
                    "NONZERO requires a non-constant integral function"
                )

    def to_dict(self) -> dict:
        return {
            "closed": self.closed,
            "kuranishi": None if self.kuranishi is None else self.kuranishi.render(),
            "beta": None if self.beta is None else self.beta.render(),
            "integral": None if self.integral is None else self.integral.render(),
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


class TorusExample(NamedTuple):
    algebra: CoisoAlgebra
    section: VerticalSection


def build_T4_example() -> TorusExample:
    """The 4-torus model: chart, inverted symplectic form, and the sine section.

    The base is R^4/Z^4 with coordinates (y1, y2, q1, q2), the bundle is
    R^2 x C with fibre coordinates (p1, p2), and the symplectic form is
    dy1 /\\ dy2 + dq1 /\\ dp1 + dq2 /\\ dp2.  The default section is
    (sin(2*pi*y1), sin(2*pi*y2)).
    """
    base = make_chart("y1* y2* q1* q2*")
    one = RingElement.one(base)
    omega_c = DifferentialForm(base, 2, (((0, 1), one),))
    data = PresymplecticData(base, omega_c, SubbundleSpec(("q1", "q2")))
    model = gotay_local_model(data)
    alg = coiso_algebra_from_form(model.omega)
    chart = model.chart
    a = VerticalSection.from_components(
        chart,
        [
            RingElement.sin_of(chart, {"y1": 1}),
            RingElement.sin_of(chart, {"y2": 1}),
        ],
    )
    return TorusExample(alg, a)


def _leaf_directions(alg: CoisoAlgebra) -> SubbundleSpec:
    """The leaf subbundle from the bivector, restricted to product charts."""
    F = leaf_subbundle(alg.pi)
    chart = alg.chart
    for i, flag in enumerate(chart.periodic):
        if not flag:
            raise CoisoKitError(
                "obstruction pipeline needs a product torus chart; "
                f"base coordinate {chart.base[i]!r} is not periodic"
            )
    return F


def beta_of(alg: CoisoAlgebra, a: MultiVectorField) -> DifferentialForm:
    """The leafwise 2-form representing the Kuranishi class of a closed section."""
    return leafwise_sharp_inverse(alg.pi, kuranishi_rep(alg, a))


def fibre_torus_integral(beta: DifferentialForm, torus_directions) -> RingElement:
    """Exact integral of a leafwise top form over the unit torus in F.

    Extracts the zero-frequency Fourier component in the torus directions,
    signed by the orientation of the given direction order.
    """
    chart = beta.chart
    dirs = tuple(torus_directions)
    idx = tuple(chart.direction_index(d) for d in dirs)
    ordered = tuple(sorted(idx))
    if beta.is_zero():
        return RingElement.zero(chart)
    if beta.degree != len(dirs):
        raise CoisoKitError(
            f"form degree {beta.degree} does not match {len(dirs)} torus directions"
        )
    sign = inversion_sign(idx)
    out = RingElement.zero(chart)
    for wedge, coeff in beta.terms:
        if wedge != ordered:
            raise CoisoKitError(
                f"form has a factor outside the torus directions: {wedge}"
            )
        if not coeff.is_base_only():
            raise CoisoKitError("integrand coefficients must be base functions")
        out = out + coeff.fourier_zero_mode(dirs)
    return out if sign > 0 else -out


def obstructedness_certificate(
    alg: CoisoAlgebra, a: MultiVectorField
) -> ObstructionReport:
    """Run the full certificate for a degree-1 vertical section."""
    F = _leaf_directions(alg)
    try:
        rep = kuranishi_rep(alg, a)
    except NotClosedError:
        return ObstructionReport(False, None, None, None, "INCONCLUSIVE")
    beta = leafwise_sharp_inverse(alg.pi, rep)
    integral = fibre_torus_integral(beta, F.directions)
    verdict = "INCONCLUSIVE" if integral.is_constant() else "NONZERO"
    return ObstructionReport(True, rep, beta, integral, verdict)
