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

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ._graded import dot_by_wedge, inversion_sign
from .coeff_ring import ChartSpec, GridEvaluator, RingElement, Scalar, sample_grid
from .errors import (
    CoisoKitError,
    DegenerateBivectorError,
    DimensionMismatchError,
    DomainBoundError,
    JetOrderError,
    NotClosedError,
    NotCoisotropicError,
    NotPoissonError,
)
from .forms import DifferentialForm
from .multivector import (
    MultiVectorField,
    VerticalSection,
    ad_series,
    as_vertical,
    deformation_section,
    exp_ad,
    is_poisson,
    projection_P,
    schouten_bracket,
)
from .symplectic_model import InvertedBivector, symplectic_to_poisson


@dataclass(frozen=True)
class CoisoAlgebra:
    """A chart with a bivector for which the zero section is coisotropic.

    ``poisson_verified`` records whether [pi, pi] = 0 was checked (exactly,
    or through the jet order for jets).  The algebra memoises lambda_1 and
    lambda_2 of its most recently used sections (``_lambdas``), keyed by the
    value of each section, for as long as it lives; the memo takes no part
    in equality or repr.
    """

    chart: ChartSpec
    pi: MultiVectorField
    poisson_verified: bool = False
    # (_memo_item(a_1), ..., _memo_item(a_k)) -> lambda_k(a_1, ..., a_k) for
    # k <= _MEMO_DEPTH, least recently used first
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def make_coiso_algebra(
    pi: MultiVectorField, require_poisson: bool = True
) -> CoisoAlgebra:
    """Validate P(pi) = 0 (always) and the Jacobi identity (unless waived).

    An ``InvertedBivector`` was checked by its inversion; the Jacobi
    identity is then not checked again and ``poisson_verified`` is True.
    """
    if pi.degree != 2:
        raise NotCoisotropicError("a coisotropic algebra needs a degree-2 field")
    if not projection_P(pi).is_zero():
        raise NotCoisotropicError(
            "zero section is not coisotropic: P(pi) != 0"
        )
    inverted = isinstance(pi, InvertedBivector)
    if require_poisson and not inverted and not is_poisson(pi):
        raise NotPoissonError("bivector fails the Jacobi identity")
    return CoisoAlgebra(pi.chart, pi, require_poisson or inverted)


def coiso_algebra_from_form(
    omega: DifferentialForm, truncation: int = 6
) -> CoisoAlgebra:
    """Invert a fibrewise affine symplectic form and wrap it as an algebra."""
    return make_coiso_algebra(symplectic_to_poisson(omega, truncation))


# -- brackets -----------------------------------------------------------------


def _copy(X: MultiVectorField) -> MultiVectorField:
    """X as a new field, with no derivative table (``partials_along``)."""
    return MultiVectorField(X.chart, X.degree, X.terms)


def _bracket(X: MultiVectorField, Y: MultiVectorField) -> MultiVectorField:
    """[X, Y], taken with copies, so neither field keeps a derivative table."""
    return schouten_bracket(_copy(X), _copy(Y))


# The number of values lambda_k(a_1, ..., a_k) an algebra's memo keeps, the
# least recently used one evicted first.  A Jacobi check on section a writes
# up to three values of sections it derives, such as P([pi, a]), before it
# reads lambda_1(a) and lambda_2(a, a) again, and a scenario's other
# sections write theirs in between; with fewer than 6 values kept, torus
# scenarios bracket some levels twice.
_MEMO_SIZE = 8
# The memo keeps lambda_k(a_1, ..., a_k) for k <= _MEMO_DEPTH: the values the
# mc, kuranishi and jacobi checks share.  It keeps no bracket
# [...[pi, a_1], ..., a_k] itself; those are the largest fields of an op, and
# a memo that held them (and the deeper levels of an MC series) kept them
# live to the end of the op.
_MEMO_DEPTH = 2


def _memo_item(a: MultiVectorField) -> tuple:
    """Section a as an entry of a memo key: its value with its degree, since
    zero sections of any two degrees are equal.  The key of
    lambda_k(a_1, ..., a_k) holds the entries of a_1, ..., a_k."""
    return a.degree, a


def _remember(alg: CoisoAlgebra, key: tuple, value: VerticalSection):
    """Keep ``value`` under ``key`` as the most recently used value, and
    drop the least recently used ones past ``_MEMO_SIZE``."""
    memo = alg._memo
    memo[key] = value
    if len(memo) > _MEMO_SIZE:
        memo.pop(next(iter(memo)), None)


def _lambdas(alg: CoisoAlgebra, sections: Sequence[MultiVectorField]):
    """Yield P([pi, a_1]), P([[pi, a_1], a_2]), ... for the vertical
    sections a_1, ..., a_n in turn.

    The values through level ``_MEMO_DEPTH`` are memoised on the algebra,
    keyed by the value and degree of each section (``_memo_item``), so a
    check that reads lambda_1(a) or lambda_2(a, a) after another check took
    it brackets nothing, also when its section is an equal object.  A level
    after a hit is bracketed from pi through the sections before it.  The
    brackets are taken with copies of pi and of the sections (one per call
    for each distinct section and degree), whose derivative tables go with
    the brackets, and each value is handed out as a new section, so neither
    the memo nor the caller's fields keep a table.
    """
    X, key, copies = None, (), {}

    def bracket(X, a):
        item = _memo_item(a)
        copy = copies.get(item)
        if copy is None:
            copy = copies[item] = _copy(as_vertical(a))
        return schouten_bracket(X, copy)

    for k, a in enumerate(sections, start=1):
        key = key + (_memo_item(a),) if k <= _MEMO_DEPTH else None
        value = alg._memo.pop(key, None) if key else None
        if value is None:
            if X is None:
                X = functools.reduce(bracket, sections[: k - 1], _copy(alg.pi))
            X = bracket(X, a)
            value = projection_P(X)
        else:
            X = None
        if key:
            _remember(alg, key, value)
        yield VerticalSection(value.chart, value.degree, value.terms)


def lambda_n(alg: CoisoAlgebra, *sections: MultiVectorField) -> VerticalSection:
    """P([...[pi, a_1], ..., a_n]) for vertical sections a_i, read from the
    algebra's memo (``_lambdas``)."""
    value = None
    for value in _lambdas(alg, sections):
        pass
    return projection_P(alg.pi) if value is None else value


def kuranishi_rep(alg: CoisoAlgebra, a: MultiVectorField) -> VerticalSection:
    """The Kuranishi representative lambda_2(a, a) of a lambda_1-closed a.

    [pi, a] serves both lambda_1(a) and lambda_2(a, a); both come from the
    algebra's memo (``_lambdas``).
    """
    a = deformation_section(a)
    values = _lambdas(alg, (a, a))
    if not next(values).is_zero():
        raise NotClosedError("section is not lambda_1-closed: P([pi, a]) != 0")
    return next(values)


def mc_series_exact(alg: CoisoAlgebra, alpha: MultiVectorField) -> VerticalSection:
    """Sum the Maurer-Cartan series of a degree-1 section to termination.

    Requires a fibrewise polynomial bivector (no jet truncation); equals
    P of the pushforward of pi under the fibre translation by alpha, which
    ``multivector.projected_pushforward(pi, alpha)`` computes without a
    bracket: that is the identity's right-hand side.  Each
    bracket is projected as it is taken, which measured faster than
    P(exp_ad(pi, alpha)) projecting the full sum once, and the projections
    are summed by one ``dot`` per wedge index over the products of each
    coefficient with the constant 1/k!.  The projections of
    the first ``_MEMO_DEPTH`` brackets (zero past the series' end) are
    lambda_1(alpha) and lambda_2(alpha, alpha), and the series leaves them in
    the algebra's memo (``_lambdas``) for a later check to read.
    """
    alpha = deformation_section(alpha)
    if alg.pi.jet_order() is not None:
        raise JetOrderError(
            "mc_series_exact needs polynomial mode; use mc_partial_table for jets"
        )
    _check_domain(alg.chart, alpha)
    levels, products = [], []
    for term, coeff in ad_series(alg.pi, alpha):
        levels.append(projection_P(term))
        factor = RingElement.constant(alg.chart, coeff)
        products.extend((dirs, 1, c, factor) for dirs, c in levels[-1].terms)
    # the series ends at a zero bracket, and every bracket after it is zero
    levels += [VerticalSection(alg.chart, alg.pi.degree, ())] * _MEMO_DEPTH
    for k in range(1, _MEMO_DEPTH + 1):
        _remember(alg, (_memo_item(alpha),) * k, levels[k - 1])
    return VerticalSection(alg.chart, alg.pi.degree, dot_by_wedge(products))


def _check_domain(chart: ChartSpec, alpha: VerticalSection):
    """Sample |alpha| against the chart's fibre bound on the shared grid budget.

    The one ``domain=`` rule: ``mc_series_exact``, ``mc_partial_table`` and
    ``coisotropy_check_numeric`` deform by graph(-alpha), so each refuses a
    section that leaves the tubular domain (DomainBoundError).
    """
    bound = chart.fibre_bound
    if bound is None:
        return
    import numpy as np
    comps = alpha.components()
    points = sample_grid(chart, sorted(alpha.support_names()))
    values = GridEvaluator(comps)
    for start, base in _grid_chunks(chart, points):
        sups = np.abs(values(base)).max(axis=1, initial=0.0)
        over = np.flatnonzero(sups > float(bound))
        if len(over):
            raise DomainBoundError(
                f"graph(-alpha) leaves the tubular domain: |alpha| = {sups[over[0]]:.6g} "
                f"> {float(bound):.6g} at {points[start + over[0]]}"
            )


# -- numeric grids and oracles -----------------------------------------------


# Grid points per numpy pass: bounds the (points, terms) and (points, n, n)
# work arrays whatever the grid size.
_GRID_CHUNK = 256


def _grid_chunks(chart: ChartSpec, points):
    """(start, (k, n_base) real array) for consecutive chunks of base points."""
    import numpy as np
    base = np.array(points, dtype=float)
    if len(base) and (base.ndim != 2 or base.shape[1] != chart.n_base):
        raise DimensionMismatchError(
            f"base points need {chart.n_base} coordinates, got {base.shape[1:]}"
        )
    for start in range(0, len(base), _GRID_CHUNK):
        yield start, base[start : start + _GRID_CHUNK]


def _pushforward_block(alg_or_pi, alpha: VerticalSection):
    """The numeric Maurer-Cartan oracle of one check: J_f Pi J_f^T on a grid.

    Pi is the true bivector at (x, -alpha(x)) (an ``InvertedBivector``'s
    source form, inverted, else pi) and J_f = [d alpha / dx | I_n] the n
    fibre rows of the Jacobian J of the fibre translation by alpha, so
    J_f Pi J_f^T is the block (J Pi J^T)[m:, m:] without the other rows.
    The block is P of the pushed bivector at (x, 0); it vanishes exactly
    where graph(-alpha) is coisotropic, so it is also the coisotropy defect.

    The section's components, their base partials and the entries of the
    true matrix are compiled once (``GridEvaluator``); the returned function
    maps a (k, m) array of base points (a chunk of ``_grid_chunks``) to the
    (k, n, n) stack of blocks in one numpy pass: evaluation, a batched
    inverse and stacked products.  A true matrix whose terms all have the
    zero key (every Gotay torus model's source form) is evaluated and
    inverted at the chunk's first point only and broadcast to the others;
    otherwise at every point.  Raises DegenerateBivectorError at the first
    point where the source form is singular.
    """
    import numpy as np
    pi = alg_or_pi.pi if isinstance(alg_or_pi, CoisoAlgebra) else alg_or_pi
    invert = isinstance(pi, InvertedBivector)
    true = pi.source_form if invert else pi
    chart = alpha.chart
    m, n = chart.n_base, chart.n_fibre
    comps = alpha.components()
    dalpha = [((j, i), d) for j, c in enumerate(comps)
              for i, d in enumerate(map(c.partial, chart.base)) if d.terms]
    at_base = GridEvaluator(comps + [d for _, d in dalpha])
    entries = GridEvaluator([c for _, c in true.terms])
    varies = any(any(xe) or any(modes) or any(ye)
                 for _, c in true.terms for xe, modes, ye, _ in c.terms)
    mat_at = tuple(np.array([ij for ij, _ in true.terms], dtype=int).reshape(-1, 2).T)
    jac_at = tuple(np.array([ij for ij, _ in dalpha], dtype=int).reshape(-1, 2).T)

    def block(base: np.ndarray) -> np.ndarray:
        k = len(base)
        at_x = at_base(base)
        # one matrix for all points when the true matrix is constant
        at = base if varies else base[:1]
        mat = np.zeros((len(at), m + n, m + n), dtype=complex)
        mat[(slice(None),) + mat_at] = entries(at, -at_x[: len(at), :n])
        mat = mat - mat.transpose(0, 2, 1)
        if invert:
            mat = -_inverse_or_degenerate(mat, at)
        jac = np.zeros((k, n, m + n), dtype=complex)
        jac[:, :, m:] = np.eye(n)
        jac[(slice(None),) + jac_at] = at_x[:, n:]
        return jac @ mat @ jac.transpose(0, 2, 1)

    return block


def _inverse_or_degenerate(mats: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Batched inverse; the first singular matrix names its base point."""
    import numpy as np
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
    fibre rows of the translation Jacobian; independent of the symbolic
    bracket machinery.  The same code as a grid check, on a one-point grid.
    """
    alpha = deformation_section(alpha)
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
            # a NaN compares false both ways, so it is refused here too
            if not row.abs_error >= 0:
                raise ValueError(f"absolute errors must be nonnegative, got {row.abs_error}")
            last = seen.get(row.point)
            if last is not None and row.n <= last:
                raise ValueError("orders must increase per point")
            seen[row.point] = row.n

    def max_error_at(self, n: int) -> float:
        import numpy as np
        # np.max keeps a NaN; Python's max drops one that is not first
        return float(np.max([r.abs_error for r in self.rows if r.n == n], initial=0.0))

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


def _real_parts(values: np.ndarray) -> np.ndarray:
    """The real parts; the first value that is not real raises CoisoKitError."""
    import numpy as np
    bad = np.abs(values.imag) > 1e-9 * (np.abs(values) + 1.0)
    if bad.any():
        value = values.flat[np.flatnonzero(bad)[0]].item()
        raise CoisoKitError(f"expected a real value, got {value}")
    return values.real


def _weight_part(pi: MultiVectorField, order: int) -> MultiVectorField:
    """pi_{<= order}: the terms of pi of weight at most ``order``.

    The weight of a term is its fibre degree plus its number of base wedge
    factors (see ``ad_series``).  A component with b base factors keeps its
    coefficient through fibre order ``order - b`` (``truncate``), and one
    with b > ``order`` is dropped.
    """
    m = pi.chart.n_base
    terms = []
    for dirs, c in pi.terms:
        b = sum(d < m for d in dirs)
        if b <= order:
            terms.append((dirs, c.truncate(order - b)))
    return MultiVectorField(pi.chart, pi.degree, terms)


def mc_partial_table(
    alg: CoisoAlgebra,
    alpha: MultiVectorField,
    order: int,
    per_axis: int = 32,
) -> ConvergenceTable:
    """Numeric partial sums beta_n for n = 1..order against the pushforward oracle.

    beta_n = sum_{k <= n} P(ad_a^k pi) / k!.  Each bracket with the section
    lowers the weight of every term (fibre degree plus base wedge factors)
    by exactly one, and P keeps only weight 0, so P(ad_a^k pi) reads only
    the weight-k terms of pi.  The series is therefore taken of pi_{<= order}
    (``_weight_part``), the same partial sums bit for bit: a component with
    b base factors is truncated at fibre order ``order - b``, and the jet
    orders this gives every bracket (``order - k - b'`` for a component with
    b' base factors after k brackets) drop no term P reads.

    Once the series has ended, beta_n repeats its last partial sum.  An
    order below 1 raises JetOrderError (the table would have no row).  A
    section that leaves the chart's tubular domain raises DomainBoundError,
    and a NaN error at a grid point raises CoisoKitError naming the point.
    """
    import numpy as np
    if order < 1:
        raise JetOrderError(f"table order {order} < 1: the table would have no partial sum")
    alpha = deformation_section(alpha)
    jet = alg.pi.jet_order()
    if jet is not None and jet < order:
        raise JetOrderError(f"jet order {jet} is below the requested order {order}")
    chart = alg.chart
    _check_domain(chart, alpha)
    names = sorted(alg.pi.support_names() | alpha.support_names())
    points = sample_grid(chart, names, per_axis=per_axis)
    comp_dirs = _component_dirs(chart, alg.pi.degree)
    comp_names = ["".join(chart.direction_name(d) for d in dirs) for dirs in comp_dirs]
    partials = []
    acc = MultiVectorField.zero(chart, alg.pi.degree)
    for term, coeff in itertools.islice(ad_series(_weight_part(alg.pi, order), alpha), order):
        acc = acc + projection_P(term).scale(coeff)
        partials.append(acc)
    partials += [acc] * (order - len(partials))
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
        # per point and order, max |partial - oracle|; np.max keeps a NaN
        # (inf - inf), which is refused just below
        with np.errstate(invalid="ignore"):
            diffs = values[:, width:].reshape(len(base), order, width) - values[:, None, :width]
        errs = np.max(np.abs(diffs), axis=2, initial=0.0)
        nan = np.flatnonzero(np.isnan(errs).any(axis=1))
        if len(nan):
            raise CoisoKitError(
                f"partial sum or oracle is not a number at {points[start + nan[0]]}"
            )
        xs = points[start : start + len(base)]
        for x, vals, row_errs in zip(xs, values.tolist(), errs.tolist()):
            oracle = tuple(vals[:width])
            for n, err in enumerate(row_errs, start=1):
                part = tuple(vals[n * width : (n + 1) * width])
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
    alg_or_pi, alpha: MultiVectorField, per_axis: int = 32
) -> CoisotropyResult:
    """Measure the coisotropy defect of graph(-alpha) on a sample grid.

    The defect is the max over the grid of |J_f Pi J_f^T|, the numeric
    pushforward block (J Pi J^T)[m:, m:] at (x, -alpha(x)) formed from the
    fibre rows J_f of J (see ``_pushforward_block``): the numeric
    Maurer-Cartan value, the same quantity as the oracle columns of
    ``mc_partial_table``.  The graph is coisotropic exactly when it
    vanishes; the check passes when it is at most 1e-9.  A section that
    leaves the chart's tubular domain raises DomainBoundError.
    """
    import numpy as np
    alpha = deformation_section(alpha)
    _check_domain(alpha.chart, alpha)
    pi = alg_or_pi.pi if isinstance(alg_or_pi, CoisoAlgebra) else alg_or_pi
    names = sorted(pi.support_names() | alpha.support_names())
    points = sample_grid(alpha.chart, names, per_axis=per_axis)
    block = _pushforward_block(alg_or_pi, alpha)
    worst = 0.0
    for _, base in _grid_chunks(alpha.chart, points):
        # np.maximum keeps a NaN, so a NaN defect fails the check
        worst = float(np.maximum(worst, np.max(np.abs(block(base)))))
    return CoisotropyResult(worst <= 1e-9, worst)


# -- twisted algebra ---------------------------------------------------------------


@dataclass(frozen=True)
class TwistedElement:
    """Element (X[1], a) of the twisted algebra W(C, pi).

    A multivector of degree p sits in W-degree p - 2; a vertical section of
    wedge degree q sits in W-degree q - 1.  Both parts are fields: an absent
    part is the zero field of the degree the W-degree fixes.  Maurer-Cartan
    inputs (tau[1], alpha) are homogeneous of W-degree 0.
    """

    mv: MultiVectorField
    section: VerticalSection

    def __post_init__(self):
        if self.mv.degree - 2 != self.section.degree - 1:
            raise ValueError(
                f"inhomogeneous twisted element: multivector of degree {self.mv.degree}, "
                f"section of degree {self.section.degree}"
            )
        object.__setattr__(self, "section", as_vertical(self.section))

    @property
    def chart(self) -> ChartSpec:
        return self.mv.chart

    @property
    def degree(self) -> int:
        return self.mv.degree - 2

    @classmethod
    def from_multivector(cls, X: MultiVectorField) -> "TwistedElement":
        return cls(X, VerticalSection(X.chart, X.degree - 1, ()))

    @classmethod
    def from_section(cls, a: MultiVectorField) -> "TwistedElement":
        return cls(MultiVectorField.zero(a.chart, a.degree + 1), a)

    @classmethod
    def zero(cls, chart: ChartSpec, degree: int = 0) -> "TwistedElement":
        return cls.from_multivector(MultiVectorField.zero(chart, degree + 2))

    def is_zero(self) -> bool:
        return self.mv.is_zero() and self.section.is_zero()

    def __add__(self, other):
        if not isinstance(other, TwistedElement):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return TwistedElement(self.mv + other.mv, self.section + other.section)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s) -> "TwistedElement":
        return TwistedElement(self.mv.scale(s), self.section.scale(s))


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
    multilinearly with Koszul signs over the W-degrees; a slot pattern with
    a zero part is skipped before any bracket is taken.
    """
    n = len(elements)
    chart = alg.chart
    sections = [e.section for e in elements]
    result_deg = sum(e.degree for e in elements) + 1
    mv_acc = MultiVectorField.zero(chart, result_deg + 2)
    sec_acc = MultiVectorField.zero(chart, result_deg + 1)
    if not any(a.is_zero() for a in sections):
        sec_acc = sec_acc + lambda_n(alg, *sections)
    # one multivector slot X, every other slot a section
    for pos, e in enumerate(elements):
        others = sections[:pos] + sections[pos + 1 :]
        if e.mv.is_zero() or any(a.is_zero() for a in others):
            continue
        if n == 1:
            mv_acc = mv_acc - _bracket(alg.pi, e.mv)
        term = projection_P(functools.reduce(_bracket, map(as_vertical, others), e.mv))
        koszul = sum(o.degree for o in elements[:pos]) * e.degree
        sec_acc = sec_acc + (-term if koszul % 2 else term)
    # two multivector slots; three or more, or two with sections, vanish
    if n == 2 and not (elements[0].mv.is_zero() or elements[1].mv.is_zero()):
        X, Y = elements[0].mv, elements[1].mv
        term = _bracket(X, Y)
        mv_acc = mv_acc + (-term if (X.degree - 1) % 2 else term)
    return TwistedElement(mv_acc, sec_acc)


def twisted_brackets(alg: CoisoAlgebra) -> Callable:
    """The bracket family args -> twisted_lambda(alg, args) of W(C, pi)."""
    return functools.partial(twisted_lambda, alg)


def twisted_mc(alg: CoisoAlgebra, w: TwistedElement) -> TwistedElement:
    """Maurer-Cartan series sum_k lambda_k(w, ..., w) / k! of w = (tau[1], a).

    Its closed form is (-[pi, tau] - [tau, tau] / 2, P(exp(ad_a)(pi + tau)))
    with ad_a = [., a]: the slots of lambda_k(w, ..., w) holding tau add up to
    k P(ad_a^{k-1} tau) with Koszul sign +, and P(pi) = 0.  Given [pi, pi] = 0
    it vanishes iff pi + tau is Poisson and graph(-a) is coisotropic for
    pi + tau.  ``exp_ad`` sums the series, which ends (see ``ad_series``).
    """
    if w.degree != 0:
        raise ValueError("twisted Maurer-Cartan input must have W-degree 0")
    tau = w.mv
    mv = -_bracket(alg.pi, tau) - _bracket(tau, tau).scale(Scalar.rational(1, 2))
    return TwistedElement(mv, projection_P(exp_ad(alg.pi + tau, w.section)))


# -- higher Jacobi identities ------------------------------------------------------


def _w_degree(x) -> int:
    if isinstance(x, TwistedElement):
        return x.degree
    if isinstance(x, MultiVectorField):
        return x.degree - 1
    raise TypeError(f"no W-degree for {type(x).__name__}")


def higher_jacobi_verify(family: Callable, inputs: Sequence) -> bool:
    """Check the order-n identity sum over unshuffles of lambda(lambda(...), ...).

    Convention: with all brackets of degree +1 and graded symmetric, the
    relation for n inputs reads

        sum_{i=1}^{n} sum_{(i, n-i)-unshuffles s} eps(s)
            lambda_{n-i+1}(lambda_i(x_{s(1)}, ..), x_{s(i+1)}, ..) = 0,

    where eps is the Koszul sign of the unshuffle on the input degrees.
    The same inner bracket serves every unshuffle that chooses the same
    inputs, so each distinct argument tuple is passed to ``family`` once
    per call.  An argument tuple is keyed by the values of the inputs it is
    made of: each input by the first input equal to it in value and
    W-degree (zero elements of any two W-degrees are equal), and an inner
    bracket by the inputs it brackets, so no new value is hashed.
    """
    n = len(inputs)
    if n > 3:
        raise ValueError("identities are verified through order 3 only")
    degrees = [_w_degree(x) for x in inputs]
    keyed = list(zip(degrees, inputs))
    first = [keyed.index(x) for x in keyed]
    memo: dict = {}

    def bracket(key, args):
        value = memo.get(key)
        if value is None:
            value = memo[key] = family(args)
        return value

    acc = None
    for i in range(1, n + 1):
        for chosen in itertools.combinations(range(n), i):
            rest = tuple(k for k in range(n) if k not in chosen)
            # the Koszul sign: only odd-degree inputs anticommute
            sign = inversion_sign([k for k in chosen + rest if degrees[k] % 2])
            key = tuple(first[k] for k in chosen)
            inner = bracket(key, tuple(inputs[k] for k in chosen))
            term = bracket((key, tuple(first[k] for k in rest)),
                           (inner,) + tuple(inputs[k] for k in rest))
            if sign < 0:
                term = -term
            acc = term if acc is None else acc + term
    return acc is None or acc.is_zero()
