"""Integration tests for the three detectors on small corpora."""

import numpy as np
import pytest

from repro.core.representation import AvgRepresentationDetector
from repro.core.stall import StallDetector
from repro.core.switching import SwitchDetector
from repro.core.labeling import has_variation


@pytest.fixture(scope="module")
def fitted_stall(stall_records):
    return StallDetector(n_estimators=15, random_state=0).fit(stall_records)


@pytest.fixture(scope="module")
def fitted_representation(adaptive_records):
    return AvgRepresentationDetector(n_estimators=15, random_state=0).fit(
        adaptive_records
    )


class TestStallDetector:
    def test_unfitted_raises(self, stall_records):
        with pytest.raises(RuntimeError):
            StallDetector().predict(stall_records)

    def test_fit_empty_raises(self):
        with pytest.raises(ValueError):
            StallDetector().fit([])

    def test_invalid_selection_mode(self):
        with pytest.raises(ValueError):
            StallDetector(feature_selection="lasso")

    def test_selected_features_small_subset(self, fitted_stall):
        assert 2 <= len(fitted_stall.selected_names_) <= 8

    def test_feature_gains_positive(self, fitted_stall):
        gains = fitted_stall.feature_gains()
        assert gains
        assert all(g >= 0 for _, g in gains)

    def test_train_report_populated(self, fitted_stall):
        assert fitted_stall.train_report_.accuracy > 0.6

    def test_predictions_valid_labels(self, fitted_stall, stall_records):
        predictions = fitted_stall.predict(stall_records[:20])
        assert set(predictions) <= {
            "no stalls",
            "mild stalls",
            "severe stalls",
        }

    def test_evaluate_beats_majority_on_train(self, fitted_stall, stall_records):
        report = fitted_stall.evaluate(stall_records)
        labels = fitted_stall.labels_for(stall_records)
        _, counts = np.unique(labels, return_counts=True)
        majority = counts.max() / counts.sum()
        assert report.accuracy >= majority - 0.05

    def test_infogain_mode(self, stall_records):
        detector = StallDetector(
            n_estimators=10, feature_selection="infogain", n_features=5
        ).fit(stall_records)
        assert len(detector.selected_names_) == 5

    def test_none_mode_uses_all_features(self, stall_records):
        detector = StallDetector(
            n_estimators=5, feature_selection="none"
        ).fit(stall_records)
        assert len(detector.selected_indices_) == 70

    def test_cross_validate_runs(self, fitted_stall, stall_records):
        report = fitted_stall.cross_validate(stall_records, n_splits=3)
        assert 0.5 < report.accuracy <= 1.0

    def test_cross_validate_singleton_class(self, fitted_stall, stall_records):
        labels = np.array(["no stalls"] * len(stall_records), dtype=object)
        labels[1::2] = "mild stalls"
        labels[0] = "severe stalls"
        report = fitted_stall.cross_validate(stall_records, labels=labels)
        supports = {row.label: row.support for row in report.classes}
        assert supports["severe stalls"] == 1
        assert sum(supports.values()) == len(stall_records)


class TestRepresentationDetector:
    def test_fit_and_predict(self, fitted_representation, adaptive_records):
        predictions = fitted_representation.predict(adaptive_records[:10])
        assert set(predictions) <= {"LD", "SD", "HD"}

    def test_chunk_features_dominate_selection(self, fitted_representation):
        """Paper Table 5: chunk-size statistics dominate the subset."""
        names = fitted_representation.selected_names_
        chunky = sum(
            1
            for n in names
            if n.startswith(("chunk", "throughput", "cumsum"))
        )
        assert chunky / len(names) >= 0.5

    def test_evaluation_reasonable(self, fitted_representation, adaptive_records):
        report = fitted_representation.evaluate(adaptive_records)
        assert report.accuracy > 0.6

    def test_label_order_in_report(self, fitted_representation, adaptive_records):
        report = fitted_representation.evaluate(adaptive_records)
        assert report.labels == ["LD", "SD", "HD"]

    def test_cross_validate_singleton_class(
        self, fitted_representation, adaptive_records
    ):
        # A corpus holding a single HD session used to raise
        # "n_splits=2 > smallest class size 1".
        labels = fitted_representation.labels_for(adaptive_records).copy()
        labels[labels == "HD"] = "SD"
        labels[0] = "HD"
        report = fitted_representation.cross_validate(
            adaptive_records, labels=labels
        )
        supports = {row.label: row.support for row in report.classes}
        assert supports["HD"] == 1
        assert sum(supports.values()) == len(adaptive_records)


class TestSwitchDetector:
    def test_scores_nonnegative(self, adaptive_records):
        scores = SwitchDetector().scores(adaptive_records)
        assert (scores >= 0).all()

    def test_calibrate_then_evaluate(self, adaptive_records):
        detector = SwitchDetector()
        truth = np.array([has_variation(r) for r in adaptive_records])
        if truth.any() and not truth.all():
            threshold = detector.calibrate(adaptive_records, truth)
            assert threshold > 0
            evaluation = detector.evaluate(adaptive_records, truth)
            assert evaluation.balanced_accuracy > 0.55

    def test_calibrate_single_class_raises(self, adaptive_records):
        detector = SwitchDetector()
        with pytest.raises(ValueError):
            detector.calibrate(
                adaptive_records, np.ones(len(adaptive_records), dtype=bool)
            )

    def test_switching_sessions_score_higher(self, adaptive_records):
        detector = SwitchDetector()
        truth = np.array([has_variation(r) for r in adaptive_records])
        scores = detector.scores(adaptive_records)
        if truth.any() and not truth.all():
            assert np.median(scores[truth]) > np.median(scores[~truth])

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            SwitchDetector(threshold=0.0)

    def test_score_distributions_split(self, adaptive_records):
        detector = SwitchDetector()
        dists = detector.score_distributions(adaptive_records)
        assert set(dists) == {"without", "with"}
        total = dists["without"].size + dists["with"].size
        assert total == len(adaptive_records)


class TestVariationClassification:
    def test_three_levels_produced(self, adaptive_records):
        detector = SwitchDetector()
        truth = np.array([has_variation(r) for r in adaptive_records])
        if truth.any() and not truth.all():
            detector.calibrate(adaptive_records, truth)
        labels = detector.classify_variation(adaptive_records)
        assert set(labels) <= {"no variation", "mild variation", "high variation"}

    def test_no_variation_below_threshold(self, adaptive_records):
        detector = SwitchDetector(threshold=1e12)
        labels = detector.classify_variation(adaptive_records)
        assert set(labels) == {"no variation"}

    def test_invalid_high_factor(self, adaptive_records):
        with pytest.raises(ValueError):
            SwitchDetector().classify_variation(adaptive_records, high_factor=1.0)

    def test_levels_ordered_by_score(self, adaptive_records):
        detector = SwitchDetector()
        truth = np.array([has_variation(r) for r in adaptive_records])
        if truth.any() and not truth.all():
            detector.calibrate(adaptive_records, truth)
        scores = detector.scores(adaptive_records)
        labels = detector.classify_variation(adaptive_records)
        order = {"no variation": 0, "mild variation": 1, "high variation": 2}
        none_scores = scores[labels == "no variation"]
        high_scores = scores[labels == "high variation"]
        if none_scores.size and high_scores.size:
            assert none_scores.max() < high_scores.min()


class TestPredictProba:
    def test_stall_proba_is_distribution(self, fitted_stall, stall_records):
        proba = fitted_stall.predict_proba(stall_records[:15])
        assert proba.shape[0] == 15
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert (proba >= 0).all()

    def test_proba_argmax_matches_predict(self, fitted_stall, stall_records):
        proba = fitted_stall.predict_proba(stall_records[:15])
        predicted = fitted_stall.predict(stall_records[:15])
        classes = fitted_stall._model.classes_
        assert (classes[np.argmax(proba, axis=1)] == predicted).all()

    def test_representation_proba(self, fitted_representation, adaptive_records):
        proba = fitted_representation.predict_proba(adaptive_records[:10])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)


def _cache_events(model):
    """(hits, misses) of the feature-matrix cache for one model."""
    from repro.obs import get_registry

    totals = {"repro_features_cache_hits_total": 0.0,
              "repro_features_cache_misses_total": 0.0}
    for family in get_registry().collect():
        if family.name in totals:
            for labels, child in family.samples():
                if dict(labels).get("model") == model:
                    totals[family.name] += child.value
    return tuple(totals.values())


class TestSelectedColumnFeatures:
    """Detectors build only their selected columns (one code path)."""

    @pytest.mark.parametrize("kind", ["stall", "representation"])
    def test_features_of_matches_full_slice_and_hits_cache(
        self, kind, stall_records, adaptive_records
    ):
        from repro.core.features import (
            build_representation_matrix,
            build_stall_matrix,
        )
        from repro.core.featurex import get_cache

        get_cache().clear()
        if kind == "stall":
            records, build = stall_records, build_stall_matrix
            detector = StallDetector(n_estimators=5).fit(records)
        else:
            records, build = adaptive_records, build_representation_matrix
            detector = AvgRepresentationDetector(n_estimators=5).fit(records)
        # fit cached the full matrix; evaluation slices it: one hit.
        hits, misses = _cache_events(kind)
        X = detector._features_of(records)
        assert _cache_events(kind) == (hits + 1, misses)
        full, _ = build(records, cache=False)
        assert np.array_equal(X, full[:, detector.selected_indices_])
        # inference never touches the cache, and scores the same.
        hits, misses = _cache_events(kind)
        proba = detector.predict_proba(records)
        labels = detector.predict(records)
        assert _cache_events(kind) == (hits, misses)
        assert np.array_equal(proba, detector._model.predict_proba(X))
        assert np.array_equal(labels, detector._model.predict(X))
        get_cache().clear()
