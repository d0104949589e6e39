"""From-scratch ML substrate replacing the paper's Weka toolchain.

Provides CART decision trees, Random Forests, information-gain ranking,
CFS subset selection with best-first search, stratified k-fold CV,
class balancing and paper-format classification reports.
"""

from .balance import balanced_indices, oversample
from .crossval import cross_validate, stratified_kfold
from .forest import RandomForestClassifier
from .information import (
    conditional_entropy,
    entropy,
    information_gain,
    symmetrical_uncertainty,
)
from .metrics import (
    ClassificationReport,
    ClassReport,
    accuracy,
    classification_report,
    confusion_matrix,
)
from .parallel import block_ranges, effective_n_jobs, run_tasks
from .selection import CfsSubsetSelector, InfoGainRanker, SelectionResult
from .tree import DecisionTreeClassifier

__all__ = [
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "InfoGainRanker",
    "CfsSubsetSelector",
    "SelectionResult",
    "entropy",
    "conditional_entropy",
    "information_gain",
    "symmetrical_uncertainty",
    "accuracy",
    "confusion_matrix",
    "classification_report",
    "ClassificationReport",
    "ClassReport",
    "stratified_kfold",
    "cross_validate",
    "balanced_indices",
    "oversample",
    "effective_n_jobs",
    "block_ranges",
    "run_tasks",
]
