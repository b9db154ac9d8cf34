"""Influence auditing for user-based collaborative filtering recommenders.

Train neighborhood and nonnegative-factorization recommenders, measure each
user's leave-one-out influence on everyone else's top-l lists, aggregate
group influence curves, extract per-user features, and fit a regression
tree predicting influence from those features.
"""

from .data import (DatasetError, DatasetStats, RatingsDataset, compute_stats,
                   drop_user, load_dataset, load_ratings, sample_items,
                   sample_users, save_dataset)
from .recommender import (KnnModel, ModelConfig, NmfModel, TrainingError,
                          evaluate, predict_knn, top_items, train_knn,
                          train_nmf, train_test_split)
from .influence import (GroupInfluenceCurve, InfluenceReport,
                        group_influence, influence_all, influence_oracle,
                        jaccard_distance)
from .features import FeatureConfig, FeatureTable, extract_all
from .predictor import (RegressionTree, export_boundaries, fit_metrics,
                        fit_tree, predict_tree)
from .analysis import (MdsEmbedding, centrality_dispersion, classical_mds,
                       mds_embed, segment_by_influence)

__version__ = "0.1.0"

__all__ = [
    "DatasetError", "DatasetStats", "RatingsDataset", "compute_stats",
    "drop_user", "load_dataset", "load_ratings", "sample_items",
    "sample_users", "save_dataset",
    "KnnModel", "ModelConfig", "NmfModel", "TrainingError", "evaluate",
    "predict_knn", "top_items", "train_knn", "train_nmf", "train_test_split",
    "GroupInfluenceCurve", "InfluenceReport", "group_influence",
    "influence_all", "influence_oracle", "jaccard_distance",
    "FeatureConfig", "FeatureTable", "extract_all",
    "RegressionTree", "export_boundaries", "fit_metrics", "fit_tree",
    "predict_tree",
    "MdsEmbedding", "centrality_dispersion", "classical_mds", "mds_embed",
    "segment_by_influence",
]
