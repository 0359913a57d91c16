"""Weighted protein-interaction network construction, community detection,
and evaluation against complex catalogues and annotation sets."""

__version__ = "0.1.0"

from .builder import BuildResult, build_wppi
from .detector import (
    CompressedNetwork,
    DetectionResult,
    HubConfig,
    community_modularity,
    compress,
    connectivity,
    delta_modularity,
    detect,
    functional_cohesion,
    interaction_intensity,
    select_hubs,
    stage1_agglomerate,
    stage2_refine,
    weighted_degree,
)
from .evaluator import (
    AnnotationSet,
    ComplexCatalogue,
    enrich,
    hypergeom_pvalue,
    match_complexes,
    overlap_score,
    recall_ratio,
)
from .expression import (
    ExpressionMatrix,
    match_genes,
    pearson,
    pearson_flagged,
    quantile_normalize,
    quantile_normalize_values,
)
from .model import (
    Partition,
    PpiNetwork,
    ProteinIndex,
    WeightedNetwork,
    intern_proteins,
)

__all__ = [
    "AnnotationSet",
    "BuildResult",
    "ComplexCatalogue",
    "CompressedNetwork",
    "DetectionResult",
    "ExpressionMatrix",
    "HubConfig",
    "Partition",
    "PpiNetwork",
    "ProteinIndex",
    "WeightedNetwork",
    "build_wppi",
    "community_modularity",
    "compress",
    "connectivity",
    "delta_modularity",
    "detect",
    "enrich",
    "functional_cohesion",
    "hypergeom_pvalue",
    "interaction_intensity",
    "intern_proteins",
    "match_complexes",
    "match_genes",
    "overlap_score",
    "pearson",
    "pearson_flagged",
    "quantile_normalize",
    "quantile_normalize_values",
    "recall_ratio",
    "select_hubs",
    "stage1_agglomerate",
    "stage2_refine",
    "weighted_degree",
]
