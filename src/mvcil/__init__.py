"""Multi-view class-incremental learning.

Per-view sparse random-feature extraction, orthogonal-projection fusion of a
continual stream of (class, view) sessions, and a selectively consolidated
softmax head, with benchmark stream protocols, Avg Acc / BWT metrics, and a
CLI (`mvcil`).
"""

__version__ = "0.1.0"

from .consolidation import (
    DecisionHead,
    FisherEstimate,
    end_of_class,
    expand_head,
    fisher_diag,
    swc_loss_and_grad,
)
from .dataset import (
    SplitDataset,
    StreamProtocol,
    ViewBatch,
    load_feature_views,
    load_idx,
    make_permuted_views,
    make_protocol,
    make_synthesized_views,
    split_by_class,
    stream_sessions,
)
from .evaluation import AccuracyMatrix, avg_acc, bwt, evaluate_classes, familiar_view_eval
from .orthogonal_fusion import FusionLayer, Projector
from .sparse_features import (
    ExtractionConfig,
    RandomEncoder,
    ViewFeature,
    extract_view_feature,
    fista_fit,
)
from .trainer import (
    ConfigError,
    ConsolidationConfig,
    FusionConfig,
    Model,
    RunConfig,
    RunResult,
    run,
)

__all__ = [
    "AccuracyMatrix",
    "ConfigError",
    "ConsolidationConfig",
    "DecisionHead",
    "ExtractionConfig",
    "FisherEstimate",
    "FusionConfig",
    "FusionLayer",
    "Model",
    "Projector",
    "RandomEncoder",
    "RunConfig",
    "RunResult",
    "SplitDataset",
    "StreamProtocol",
    "ViewBatch",
    "ViewFeature",
    "avg_acc",
    "bwt",
    "end_of_class",
    "evaluate_classes",
    "expand_head",
    "extract_view_feature",
    "familiar_view_eval",
    "fisher_diag",
    "fista_fit",
    "load_feature_views",
    "load_idx",
    "make_permuted_views",
    "make_protocol",
    "make_synthesized_views",
    "run",
    "split_by_class",
    "stream_sessions",
    "swc_loss_and_grad",
]
