"""Scale-adaptive bounding-box similarity criteria and their analysis toolkit.

The core is the SIoU family: IoU raised to a size-dependent power so small
boxes can be scored more leniently (for evaluation) or more strictly (for
training losses), together with IoU, GIoU, alpha-IoU, NWD, loss gradients,
Monte Carlo and quadrature distribution analysis, detection mAP, and rating
statistics.
"""

from .criteria import (
    CriterionId,
    CriterionParams,
    DEFAULT_PARAMS,
    EVALUATION_PRESET,
    LOSS_PRESET,
    alpha_iou,
    boxes_array,
    elementwise,
    evaluate,
    exponent_p,
    giou,
    gsiou,
    iou,
    nwd,
    pairwise,
    siou,
    value_range,
)
from .errors import (
    DegenerateInput,
    EmptyCell,
    InsufficientSamples,
    NonDifferentiablePoint,
    ParseError,
    QuadratureNonConvergence,
    ScaleIoUError,
)
from .evaluation import (
    BoxTable,
    EvalConfig,
    MatchLabel,
    average_precision,
    count_ground_truths,
    map_report,
    match_detections,
)
from .geometry import (
    Box,
    SizeClass,
    area,
    intersection_area,
    size_class,
)
from .loss import (
    BoxGradient,
    finite_difference_gradient,
    loss_gradient,
    reweight_gradient_ratio,
    reweight_loss_ratio,
)
from .rating import (
    RatingTable,
    criterion_values,
    group_means,
    group_records,
    kendall_tau,
    one_way_anova,
    relative_gap,
)
from .stats import (
    DistributionSummary,
    OrderPreservationCounts,
    PdfMethod,
    ShiftDirection,
    ShiftModel,
    empirical_pdf,
    moment_curve,
    moment_curves,
    order_preservation_counts,
    order_preservation_rate,
    shift_curve,
    simulate_criteria,
    simulate_criterion,
    simulate_histogram,
    summarize,
    summarize_criteria,
)
from .theory import (
    TheorySetup,
    giou_pdf,
    moment_consistency_report,
    theoretical_moment,
)

__version__ = "0.1.0"
