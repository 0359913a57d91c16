"""Weighted protein-interaction network construction, community detection,
and evaluation against complex catalogues and annotation sets.

The names below load their module on first access (PEP 562), so a command
that needs only some modules, such as ``wppi evaluate``, never imports numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "builder": ("BuildResult", "build_wppi"),
    "detector": ("CompressedNetwork", "DetectionResult", "HubConfig", "community_modularity",
                 "compress", "connectivity", "delta_modularity", "detect",
                 "functional_cohesion", "interaction_intensity", "select_hubs",
                 "stage1_agglomerate", "stage2_refine"),
    "evaluator": ("AnnotationSet", "ComplexCatalogue", "enrich", "hypergeom_pvalue",
                  "match_complexes", "overlap_score", "recall_ratio"),
    "expression": ("ExpressionMatrix", "match_genes", "pearson", "quantile_normalize",
                   "quantile_normalize_values"),
    "model": ("Partition", "PpiNetwork", "ProteinIndex", "WeightedNetwork"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
