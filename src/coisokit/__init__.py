"""coiso-kit: exact symbolic and numeric calculus for coisotropic deformations.

Everything is immutable after construction and every operation is a pure
function, so values can be shared freely across threads.
"""

from .coeff_ring import (
    ChartSpec,
    RingElement,
    Scalar,
    make_chart,
    sample_grid,
)
from .errors import (
    ChartMismatchError,
    CoisoKitError,
    DegenerateBivectorError,
    DimensionMismatchError,
    DomainBoundError,
    FibreDependenceError,
    FloatOverflowError,
    JetOrderError,
    NonAffineFibreError,
    NonInvertibleScalarError,
    NotClosedError,
    NotCoisotropicError,
    NotPoissonError,
    NotVerticalError,
    PencilError,
    PeriodicCoordinateError,
    PresymplecticError,
    ScenarioError,
    TruncationCapError,
    UnknownCoordinateError,
)
from .forms import (
    DifferentialForm,
    SubbundleSpec,
    de_rham_d,
    fibrewise_degree_classify,
    interior_product,
    is_in_omega_le,
    leaf_subbundle,
    leafwise_d,
    leafwise_sharp_inverse,
    leafwise_sharp_star,
    musical_inverse,
    pullback_zero_section,
    sharp_star,
    sharp_star_inverse,
)
from .linfty import (
    CoisoAlgebra,
    CoisotropyResult,
    ConvergenceRow,
    ConvergenceTable,
    TwistedElement,
    coiso_algebra_from_form,
    coisotropy_check_numeric,
    higher_jacobi_verify,
    kuranishi_rep,
    lambda_n,
    make_coiso_algebra,
    mc_partial_table,
    mc_series_exact,
    pushforward_oracle_numeric,
    twisted_brackets,
    twisted_lambda,
    twisted_mc,
)
from .multivector import (
    MultiVectorField,
    VerticalSection,
    as_vertical,
    deformation_section,
    exp_ad,
    fibre_translate_pushforward,
    projected_pushforward,
    projection_P,
    schouten_bracket,
)
from .obstruction import (
    ObstructionReport,
    TorusExample,
    beta_of,
    build_T4_example,
    fibre_torus_integral,
    obstructedness_certificate,
)
from .symplectic_model import (
    AffinePencil,
    GotayModel,
    InvertedBivector,
    PresymplecticData,
    gotay_local_model,
    invert_affine_pencil,
    parse_pencil_text,
    pencil_product_defect,
    symplectic_to_poisson,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
