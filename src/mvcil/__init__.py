"""Multi-view class-incremental learning.

Per-view sparse random-feature extraction, orthogonal-projection fusion of a
continual stream of (class, view) sessions, and a selectively consolidated
softmax head, with benchmark stream protocols, Avg Acc / BWT metrics, and a
CLI (`mvcil`).
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

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

# every public name imported above; the submodules are left out
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
