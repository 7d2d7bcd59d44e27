"""Coisotropic multibrackets, Maurer-Cartan series, and the twisted algebra.

The brackets on vertical sections are iterated Schouten brackets with the
bivector followed by the projection onto wedge E:

    lambda_k(a_1, ..., a_k) = P([...[pi, a_1], ..., a_k]).

The Maurer-Cartan series of a degree-1 section alpha is
sum_{k>=1} (1/k!) lambda_k(alpha, ..., alpha); for fibrewise polynomial pi it
terminates and equals the projection of the exact pushforward of pi under the
fibre translation by alpha, which is the identity every exact test here leans
on.  The twisted brackets extend this to pairs (multivector, section) and
govern simultaneous deformation of the bivector and the submanifold; the
twisted series of (tau[1], a) is the series above for pi + tau, paired with
the Jacobi defect -[pi, tau] - [tau, tau] / 2 of pi + tau.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .coeff_ring import ChartSpec, GridEvaluator, Scalar
from .errors import (
    DegenerateBivectorError,
    DimensionMismatchError,
    DomainBoundError,
    JetOrderError,
    NotClosedError,
    NotCoisotropicError,
    NotPoissonError,
    NotVerticalError,
    TruncationCapError,
)
from .forms import DifferentialForm
from .multivector import (
    MultiVectorField,
    VerticalSection,
    ad_series,
    as_vertical,
    default_exp_cap,
    exp_ad,
    is_poisson,
    projection_P,
    schouten_bracket,
)


@dataclass(frozen=True)
class CoisoAlgebra:
    """A chart with a bivector for which the zero section is coisotropic.

    ``poisson_verified`` records whether [pi, pi] = 0 was checked (exactly,
    or through the jet order for jets).  ``source_form`` optionally keeps the
    symplectic form the bivector was inverted from; numeric oracles prefer it
    because it is exact where the bivector may only be a jet.
    """

    chart: ChartSpec
    pi: MultiVectorField
    poisson_verified: bool = False
    source_form: Optional[DifferentialForm] = None


def make_coiso_algebra(
    pi: MultiVectorField,
    require_poisson: bool = True,
    source_form: Optional[DifferentialForm] = None,
) -> CoisoAlgebra:
    """Validate P(pi) = 0 (always) and the Jacobi identity (unless waived)."""
    if pi.degree != 2:
        raise NotCoisotropicError("a coisotropic algebra needs a degree-2 field")
    if not projection_P(pi).is_zero():
        raise NotCoisotropicError(
            "zero section is not coisotropic: P(pi) != 0"
        )
    if require_poisson and not is_poisson(pi):
        raise NotPoissonError("bivector fails the Jacobi identity")
    return CoisoAlgebra(pi.chart, pi, require_poisson, source_form)


def _inverted_form_algebra(
    pi: MultiVectorField, omega: DifferentialForm
) -> CoisoAlgebra:
    """Wrap pi = symplectic_to_poisson(omega, N), which has checked [pi, pi] = 0.

    Only P(pi) = 0 is validated here; the Jacobi identity is not checked twice.
    """
    alg = make_coiso_algebra(pi, require_poisson=False, source_form=omega)
    return replace(alg, poisson_verified=True)


def coiso_algebra_from_form(
    omega: DifferentialForm, truncation: int = 6
) -> CoisoAlgebra:
    """Invert a fibrewise affine symplectic form and wrap it as an algebra."""
    from .symplectic_model import symplectic_to_poisson

    return _inverted_form_algebra(symplectic_to_poisson(omega, truncation), omega)


# -- brackets -----------------------------------------------------------------


def _bracket_chain(X: MultiVectorField, sections) -> VerticalSection:
    """P([...[X, a_1], ..., a_n]) for vertical sections a_i."""
    for a in sections:
        X = schouten_bracket(X, as_vertical(a))
    return projection_P(X)


def lambda_n(alg: CoisoAlgebra, *sections: MultiVectorField) -> VerticalSection:
    """P([...[pi, a_1], ..., a_n]) for vertical sections a_i."""
    return _bracket_chain(alg.pi, sections)


def kuranishi_rep(alg: CoisoAlgebra, a: MultiVectorField) -> VerticalSection:
    """The Kuranishi representative lambda_2(a, a) of a lambda_1-closed a.

    [pi, a] is bracketed once and serves both lambda_1(a) and lambda_2(a, a).
    """
    a = as_vertical(a)
    first = schouten_bracket(alg.pi, a)
    if not projection_P(first).is_zero():
        raise NotClosedError("section is not lambda_1-closed: P([pi, a]) != 0")
    return projection_P(schouten_bracket(first, a))


def mc_series_exact(alg: CoisoAlgebra, alpha: MultiVectorField) -> VerticalSection:
    """Sum the Maurer-Cartan series of a degree-1 section to termination.

    Requires a fibrewise polynomial bivector (no jet truncation); equals
    P of the pushforward of pi under the fibre translation by alpha.  Each
    bracket is projected as it is summed, which measured faster than
    P(exp_ad(pi, alpha)) projecting the full sum once.
    """
    alpha = as_vertical(alpha)
    if alpha.degree != 1:
        raise NotVerticalError("Maurer-Cartan input must have degree 1")
    if alg.pi.jet_order() is not None:
        raise JetOrderError(
            "mc_series_exact needs polynomial mode; use mc_partial_table for jets"
        )
    _check_domain(alg, alpha)
    cap = default_exp_cap(alg.pi)
    acc = MultiVectorField.zero(alg.chart, alg.pi.degree)
    for term, coeff in itertools.islice(ad_series(alg.pi, alpha), cap):
        if term.is_zero():
            break
        acc = acc + projection_P(term).scale(coeff)
    else:
        raise TruncationCapError(
            f"Maurer-Cartan series did not terminate within {cap} brackets"
        )
    return as_vertical(acc)


def _check_domain(alg: CoisoAlgebra, alpha: VerticalSection):
    """Sample |alpha| against the fibre bound on the shared grid budget."""
    bound = alg.chart.fibre_bound
    if bound is None:
        return
    comps = alpha.components()
    points = sample_grid(alg.chart, sorted(alpha.support_names()))
    values = GridEvaluator(comps)
    for start, base in _grid_chunks(alg.chart, points):
        sups = np.abs(values(base)).max(axis=1, initial=0.0)
        over = np.flatnonzero(sups > float(bound))
        if len(over):
            raise DomainBoundError(
                f"graph(-alpha) leaves the tubular domain: |alpha| = {sups[over[0]]:.6g} "
                f"> {float(bound):.6g} at {points[start + over[0]]}"
            )


# -- numeric grids and oracles -----------------------------------------------


def _per_axis_default(n_axes: int, budget: int = 4096, hard_cap: int = 32) -> int:
    if n_axes <= 0:
        return 1
    per = int(budget ** (1.0 / n_axes) + 1e-9)
    return max(2, min(hard_cap, per))


def sample_grid(
    chart: ChartSpec, names: Sequence[str], per_axis: Optional[int] = None
):
    """Deterministic base-point grid varying only the named coordinates.

    Periodic axes take ``per_axis`` points in [0, 1); non-periodic axes take
    them in [-1, 1].  All other coordinates stay at 0.
    """
    wanted = set(names)
    active = [i for i, nm in enumerate(chart.base) if nm in wanted]
    if per_axis is None:
        per_axis = _per_axis_default(len(active))
    axes = []
    for i in range(chart.n_base):
        if i not in active:
            axes.append((0.0,))
        elif chart.periodic[i]:
            axes.append(tuple(j / per_axis for j in range(per_axis)))
        elif per_axis == 1:
            axes.append((0.0,))
        else:
            axes.append(
                tuple(-1.0 + 2.0 * j / (per_axis - 1) for j in range(per_axis))
            )
    return tuple(itertools.product(*axes))


# Grid points per numpy pass: bounds the (points, terms) and (points, n, n)
# work arrays whatever the grid size.
_GRID_CHUNK = 256


def _grid_chunks(chart: ChartSpec, points):
    """(start, (k, n_base) real array) for consecutive chunks of base points."""
    base = np.array(points, dtype=float)
    if len(base) and (base.ndim != 2 or base.shape[1] != chart.n_base):
        raise DimensionMismatchError(
            f"base points need {chart.n_base} coordinates, got {base.shape[1:]}"
        )
    for start in range(0, len(base), _GRID_CHUNK):
        yield start, base[start : start + _GRID_CHUNK]


def _pushforward_block(alg_or_pi, alpha: VerticalSection):
    """The numeric Maurer-Cartan oracle of one check: (J Pi J^T)[m:, m:] on a grid.

    Pi is the true bivector at (x, -alpha(x)) (the inverted source form if
    any, else pi) and J the Jacobian of the fibre translation by alpha.  The
    block is P of the pushed bivector at (x, 0); it vanishes exactly where
    graph(-alpha) is coisotropic, so it is also the coisotropy defect.

    The section's components, their base partials and the entries of the
    true matrix are compiled once (``GridEvaluator``); the returned function
    maps a (k, m) array of base points (a chunk of ``_grid_chunks``) to the
    (k, n, n) stack of blocks in one numpy pass: evaluation, a batched
    inverse and stacked products.  Raises DegenerateBivectorError at the
    first point where the source form is singular.
    """
    true = alg_or_pi
    if isinstance(true, CoisoAlgebra):
        true = true.pi if true.source_form is None else true.source_form
    chart = alpha.chart
    m, n = chart.n_base, chart.n_fibre
    comps = alpha.components()
    dalpha = [((m + j, i), d) for j, c in enumerate(comps)
              for i, d in enumerate(map(c.partial, chart.base)) if d.terms]
    at_base = GridEvaluator(comps + [d for _, d in dalpha])
    entries = GridEvaluator([c for _, c in true.terms])
    mat_at = tuple(np.array([ij for ij, _ in true.terms], dtype=int).reshape(-1, 2).T)
    jac_at = tuple(np.array([ij for ij, _ in dalpha], dtype=int).reshape(-1, 2).T)
    invert = isinstance(true, DifferentialForm)

    def block(base: np.ndarray) -> np.ndarray:
        k = len(base)
        at_x = at_base(base)
        mat = np.zeros((k, m + n, m + n), dtype=complex)
        mat[(slice(None),) + mat_at] = entries(base, -at_x[:, :n])
        mat = mat - mat.transpose(0, 2, 1)
        if invert:
            mat = -_inverse_or_degenerate(mat, base)
        jac = np.repeat(np.eye(m + n, dtype=complex)[None], k, axis=0)
        jac[(slice(None),) + jac_at] = at_x[:, n:]
        return (jac @ mat @ jac.transpose(0, 2, 1))[:, m:, m:]

    return block


def _inverse_or_degenerate(mats: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Batched inverse; the first singular matrix names its base point."""
    try:
        return np.linalg.inv(mats)
    except np.linalg.LinAlgError:
        for mat, x in zip(mats, base):
            try:
                np.linalg.inv(mat)
            except np.linalg.LinAlgError:
                raise DegenerateBivectorError(
                    "source form is degenerate on the graph over base point "
                    f"{tuple(map(float, x))}"
                ) from None
        raise


def pushforward_oracle_numeric(alg_or_pi, alpha: VerticalSection, x) -> np.ndarray:
    """Vertical block of the pushed bivector at (x, 0), computed numerically.

    Evaluates the true matrix at (x, -alpha(x)) and conjugates with the
    translation Jacobian; independent of the symbolic bracket machinery.
    The same code as a grid check, on a one-point grid.
    """
    (_, base), = _grid_chunks(alpha.chart, [x])
    return _pushforward_block(alg_or_pi, alpha)(base)[0]


# -- partial-sum convergence tables ---------------------------------------------


@dataclass(frozen=True)
class ConvergenceRow:
    point: tuple
    n: int
    partial: tuple
    oracle: tuple
    abs_error: float


@dataclass(frozen=True)
class ConvergenceTable:
    """Per-point Maurer-Cartan partial sums against the numeric oracle."""

    component_names: tuple[str, ...]
    point_names: tuple[str, ...]
    rows: tuple[ConvergenceRow, ...]

    def __post_init__(self):
        seen: dict[tuple, int] = {}
        for row in self.rows:
            if row.abs_error < 0:
                raise ValueError("absolute errors must be nonnegative")
            last = seen.get(row.point)
            if last is not None and row.n <= last:
                raise ValueError("orders must increase per point")
            seen[row.point] = row.n

    def max_error_at(self, n: int) -> float:
        return max((r.abs_error for r in self.rows if r.n == n), default=0.0)

    def to_csv(self) -> str:
        header = (
            list(self.point_names)
            + ["n"]
            + [f"partial_{c}" for c in self.component_names]
            + [f"oracle_{c}" for c in self.component_names]
            + ["abs_error"]
        )
        lines = [",".join(header)]
        for r in self.rows:
            vals = (
                [f"{v:.12g}" for v in r.point]
                + [str(r.n)]
                + [f"{v:.12e}" for v in r.partial]
                + [f"{v:.12e}" for v in r.oracle]
                + [f"{r.abs_error:.12e}"]
            )
            lines.append(",".join(vals))
        return "\n".join(lines) + "\n"


def _component_dirs(chart: ChartSpec, degree: int):
    fdirs = range(chart.n_base, chart.n_dirs)
    return list(itertools.combinations(fdirs, degree))


def _real_parts(values: np.ndarray) -> list:
    """Rows of real parts; the first value that is not real raises ValueError."""
    bad = np.abs(values.imag) > 1e-9 * (np.abs(values) + 1.0)
    if bad.any():
        value = values.flat[np.flatnonzero(bad)[0]].item()
        raise ValueError(f"expected a real value, got {value}")
    return values.real.tolist()


def mc_partial_table(
    alg: CoisoAlgebra,
    alpha: MultiVectorField,
    order: int,
    points=None,
    per_axis: Optional[int] = None,
) -> ConvergenceTable:
    """Numeric partial sums beta_n for n = 1..order against the pushforward oracle."""
    alpha = as_vertical(alpha)
    jet = alg.pi.jet_order()
    if jet is not None and jet < order:
        raise JetOrderError(f"jet order {jet} is below the requested order {order}")
    chart = alg.chart
    if points is None:
        names = sorted(alg.pi.support_names() | alpha.support_names())
        points = sample_grid(chart, names, per_axis=per_axis)
    points = tuple(points)
    comp_dirs = _component_dirs(chart, alg.pi.degree)
    comp_names = ["".join(chart.direction_name(d) for d in dirs) for dirs in comp_dirs]
    partials = []
    acc = MultiVectorField.zero(chart, alg.pi.degree)
    for term, coeff in itertools.islice(ad_series(alg.pi, alpha), order):
        if not term.is_zero():
            acc = acc + projection_P(term).scale(coeff)
        partials.append(acc)
    at = np.array(comp_dirs, dtype=int).reshape(-1, 2) - chart.n_base
    partial_at = GridEvaluator(
        [beta.coefficient(dirs) for beta in partials for dirs in comp_dirs]
    )
    oracle_at = _pushforward_block(alg, alpha)
    width = len(comp_dirs)
    rows = []
    for start, base in _grid_chunks(chart, points):
        # per point: the oracle components, then each partial sum's, in the
        # order they are checked for reality
        values = _real_parts(np.concatenate(
            [oracle_at(base)[:, at[:, 0], at[:, 1]], partial_at(base)], axis=1
        ))
        for x, vals in zip(points[start : start + len(base)], values):
            oracle = tuple(vals[:width])
            for n in range(1, len(partials) + 1):
                part = tuple(vals[n * width : (n + 1) * width])
                err = max(
                    (abs(v - o) for v, o in zip(part, oracle)), default=0.0
                )
                rows.append(ConvergenceRow(tuple(x), n, part, oracle, err))
    return ConvergenceTable(
        tuple(comp_names), tuple(chart.base), tuple(rows)
    )


# -- numeric coisotropy check ----------------------------------------------------


@dataclass(frozen=True)
class CoisotropyResult:
    coisotropic: bool
    max_defect: float


def coisotropy_check_numeric(
    alg_or_pi,
    alpha: MultiVectorField,
    points=None,
    per_axis: Optional[int] = None,
    tol: float = 1e-9,
) -> CoisotropyResult:
    """Measure the coisotropy defect of graph(-alpha) on a sample grid.

    The defect is the max over the grid of |(J Pi J^T)[m:, m:]|, the numeric
    pushforward block at (x, -alpha(x)): the numeric Maurer-Cartan value,
    the same quantity as the oracle columns of ``mc_partial_table``.  The
    graph is coisotropic exactly when it vanishes.
    """
    alpha = as_vertical(alpha)
    pi = alg_or_pi.pi if isinstance(alg_or_pi, CoisoAlgebra) else alg_or_pi
    if points is None:
        names = sorted(pi.support_names() | alpha.support_names())
        points = sample_grid(alpha.chart, names, per_axis=per_axis)
    points = tuple(points)
    block = _pushforward_block(alg_or_pi, alpha)
    worst = 0.0
    for _, base in _grid_chunks(alpha.chart, points):
        # np.maximum keeps a NaN, so a NaN defect fails the check
        worst = float(np.maximum(worst, np.max(np.abs(block(base)))))
    return CoisotropyResult(worst <= tol, worst)


# -- twisted algebra ---------------------------------------------------------------


class TwistedElement:
    """Element (X[1], a) of the twisted algebra W(C, pi).

    A multivector of degree p sits in W-degree p - 2; a vertical section of
    wedge degree q sits in W-degree q - 1.  Maurer-Cartan inputs
    (tau[1], alpha) are homogeneous of W-degree 0.
    """

    __slots__ = ("chart", "mv", "section", "degree")

    def __init__(self, chart, mv=None, section=None, degree=None):
        if mv is not None and mv.is_zero():
            mv = None
        if section is not None and section.is_zero():
            section = None
        self.chart = chart
        self.mv = mv
        self.section = None if section is None else as_vertical(section)
        degs = set()
        if mv is not None:
            degs.add(mv.degree - 2)
        if section is not None:
            degs.add(section.degree - 1)
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous twisted element: W-degrees {degs}")
        if degs:
            inferred = degs.pop()
            if degree is not None and degree != inferred:
                raise ValueError("stated degree contradicts the components")
            degree = inferred
        elif degree is None:
            degree = 0
        self.degree = degree

    @classmethod
    def from_multivector(cls, X: MultiVectorField) -> "TwistedElement":
        return cls(X.chart, mv=X)

    @classmethod
    def from_section(cls, a: MultiVectorField) -> "TwistedElement":
        return cls(a.chart, section=as_vertical(a))

    @classmethod
    def zero(cls, chart: ChartSpec, degree: int = 0) -> "TwistedElement":
        return cls(chart, degree=degree)

    def is_zero(self) -> bool:
        return self.mv is None and self.section is None

    def mv_part(self) -> MultiVectorField:
        if self.mv is None:
            return MultiVectorField.zero(self.chart, self.degree + 2)
        return self.mv

    def section_part(self) -> VerticalSection:
        if self.section is None:
            return VerticalSection(self.chart, self.degree + 1, ())
        return self.section

    def __add__(self, other):
        if not isinstance(other, TwistedElement):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add twisted elements of different degree")
        return TwistedElement(
            self.chart,
            mv=self.mv_part() + other.mv_part(),
            section=self.section_part() + other.section_part(),
            degree=self.degree,
        )

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s) -> "TwistedElement":
        return TwistedElement(
            self.chart,
            mv=None if self.mv is None else self.mv.scale(Scalar.of(s)),
            section=None if self.section is None else self.section.scale(Scalar.of(s)),
            degree=self.degree,
        )

    def __eq__(self, other):
        if not isinstance(other, TwistedElement):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.mv_part() == other.mv_part()
            and self.section_part() == other.section_part()
        )

    def __hash__(self):
        return hash((self.chart, self.mv, self.section))

    def __repr__(self):
        return f"TwistedElement(mv={self.mv!r}, section={self.section!r})"


def twisted_lambda(
    alg: CoisoAlgebra, elements: Sequence[TwistedElement]
) -> TwistedElement:
    """The twisted multibrackets of W(C, pi) on homogeneous elements.

    The defining values on pure slots are
        lambda_1(X[1]) = (-[pi, X][1], P(X)),
        lambda_1(a)    = (0, P([pi, a])),
        lambda_2(X[1], Y[1]) = (-1)^{|X|} [X, Y][1],
        lambda_n(a_1, ..., a_n) = P([...[pi, a_1], ..., a_n]),
        lambda_{n+1}(X[1], a_1, ..., a_n) = P([...[X, a_1], ..., a_n]),
    and every other slot pattern vanishes.  Mixed arguments expand
    multilinearly with Koszul signs over the W-degrees.
    """
    n = len(elements)
    chart = alg.chart
    result_deg = sum(e.degree for e in elements) + 1
    mv_acc = MultiVectorField.zero(chart, result_deg + 2)
    sec_acc = MultiVectorField.zero(chart, result_deg + 1)
    if all(e.section is not None for e in elements):
        sec_acc = sec_acc + lambda_n(alg, *(e.section for e in elements))
    # one multivector slot X, every other slot a section
    for pos, e in enumerate(elements):
        others = [o.section for i, o in enumerate(elements) if i != pos]
        if e.mv is None or any(o is None for o in others):
            continue
        if n == 1:
            mv_acc = mv_acc - schouten_bracket(alg.pi, e.mv)
        term = _bracket_chain(e.mv, others)
        koszul = sum(o.degree for o in elements[:pos]) * e.degree
        sec_acc = sec_acc + (-term if koszul % 2 else term)
    # two multivector slots; three or more, or two with sections, vanish
    if n == 2 and elements[0].mv is not None and elements[1].mv is not None:
        X, Y = elements[0].mv, elements[1].mv
        term = schouten_bracket(X, Y)
        mv_acc = mv_acc + (-term if (X.degree - 1) % 2 else term)
    return TwistedElement(
        chart,
        mv=None if mv_acc.is_zero() else mv_acc,
        section=None if sec_acc.is_zero() else as_vertical(sec_acc),
        degree=result_deg,
    )


def twisted_brackets(alg: CoisoAlgebra) -> Callable:
    def family(args):
        return twisted_lambda(alg, list(args))

    return family


def coisotropic_brackets(alg: CoisoAlgebra) -> Callable:
    def family(args):
        return lambda_n(alg, *args)

    return family


def twisted_mc(alg: CoisoAlgebra, w: TwistedElement) -> TwistedElement:
    """Maurer-Cartan series sum_k lambda_k(w, ..., w) / k! of w = (tau[1], a).

    Its closed form is (-[pi, tau] - [tau, tau] / 2, P(exp(ad_a)(pi + tau)))
    with ad_a = [., a]: the slots of lambda_k(w, ..., w) holding tau add up to
    k P(ad_a^{k-1} tau) with Koszul sign +, and P(pi) = 0.  Given [pi, pi] = 0
    it vanishes iff pi + tau is Poisson and graph(-a) is coisotropic for
    pi + tau.  ``exp_ad`` sums the series; past its cap it raises
    TruncationCapError.
    """
    if w.degree != 0:
        raise ValueError("twisted Maurer-Cartan input must have W-degree 0")
    tau = w.mv_part()
    mv = -schouten_bracket(alg.pi, tau) - schouten_bracket(tau, tau).scale(
        Scalar.rational(1, 2)
    )
    section = projection_P(exp_ad(alg.pi + tau, w.section_part()))
    return TwistedElement(alg.chart, mv=mv, section=section, degree=1)


# -- higher Jacobi identities ------------------------------------------------------


def _w_degree(x) -> int:
    if isinstance(x, TwistedElement):
        return x.degree
    if isinstance(x, MultiVectorField):
        return x.degree - 1
    raise TypeError(f"no W-degree for {type(x).__name__}")


def _koszul_sign(order: Sequence[int], degrees: Sequence[int]) -> int:
    sign = 1
    for pos_b, b in enumerate(order):
        for a in order[pos_b + 1 :]:
            if a < b and degrees[a] % 2 and degrees[b] % 2:
                sign = -sign
    return sign


def higher_jacobi_verify(family: Callable, inputs: Sequence) -> bool:
    """Check the order-n identity sum over unshuffles of lambda(lambda(...), ...).

    Convention: with all brackets of degree +1 and graded symmetric, the
    relation for n inputs reads

        sum_{i=1}^{n} sum_{(i, n-i)-unshuffles s} eps(s)
            lambda_{n-i+1}(lambda_i(x_{s(1)}, ..), x_{s(i+1)}, ..) = 0,

    where eps is the Koszul sign of the unshuffle on the input degrees.
    """
    n = len(inputs)
    if n > 3:
        raise ValueError("identities are verified through order 3 only")
    degrees = [_w_degree(x) for x in inputs]
    acc = None
    for i in range(1, n + 1):
        for chosen in itertools.combinations(range(n), i):
            rest = tuple(k for k in range(n) if k not in chosen)
            sign = _koszul_sign(chosen + rest, degrees)
            inner = family(tuple(inputs[k] for k in chosen))
            term = family((inner,) + tuple(inputs[k] for k in rest))
            if sign < 0:
                term = -term
            acc = term if acc is None else acc + term
    return acc is None or acc.is_zero()
