"""Empirical Christoffel functions for support inference and classification.

The pipeline: enumerate a monomial basis, assemble per-class empirical
moment matrices from a labeled point cloud, factorize them into fast
Christoffel function evaluators, and classify queries by score argmax.
Joint (point, label) constructions and the related pointwise inequalities
are available for numerical verification.
"""

from .christoffel import (
    ChristoffelEvaluator,
    ThresholdPolicy,
    build_evaluator,
    eval_cf,
    eval_cf_batch,
    eval_cf_inverse,
    eval_cf_inverse_batch,
    orthonormal_polynomials,
    variational_eval,
)
from .classifier import (
    REJECT_LABEL,
    ClassifierModel,
    InterpolationBasis,
    SandwichReport,
    classify,
    classify_batch,
    default_degree,
    eval_joint,
    eval_joint_inverse,
    fit,
    fit_degrees,
    joint_cf,
    make_theta,
    sandwich_check,
    scores,
    scores_batch,
    tensor_cf,
    variety_cf,
)
from .datasets import (
    AffineTransform,
    ShapeSpec,
    epsilon_interior_mask,
    gen_shapes,
    read_csv,
    read_points_csv,
    scale_to_unit_box,
    write_csv,
)
from .errors import CfkitError, DataError, NumericalError
from .metrics import (
    MetricsReport,
    confusion_matrix,
    evaluate_model,
    render_report,
)
from .moments import (
    EmpiricalMeasure,
    LabeledDataset,
    MomentMatrix,
    class_split,
    empirical_moment_matrix,
    joint_moment_matrix,
    uniform_measure,
)
from .multiindex import (
    MonomialBasis,
    basis_dimension,
    enumerate_basis,
    enumerate_tensor_basis,
    enumerate_variety_basis,
    eval_monomials_batch,
)
from .persist import file_sha256, load_metadata, load_model, save_model

__version__ = "0.1.0"
