"""Tests for the Prometheus-style binary baseline."""

import numpy as np
import pytest

from repro.baselines.prometheus import BINARY_LABELS, PrometheusBaseline


@pytest.fixture(scope="module")
def fitted(stall_records):
    return PrometheusBaseline(n_estimators=15, random_state=0).fit(stall_records)


class TestPrometheusBaseline:
    def test_unfitted_raises(self, stall_records):
        with pytest.raises(RuntimeError):
            PrometheusBaseline().predict(stall_records)

    def test_binary_labels(self, fitted, stall_records):
        labels = fitted.labels_for(stall_records)
        assert set(labels) <= set(BINARY_LABELS)

    def test_uses_only_qos_features(self, fitted):
        """No chunk-size/time features — the point of the comparison."""
        from repro.core.features import stall_feature_names

        names = stall_feature_names()
        used = [names[i] for i in fitted.selected_indices_]
        assert used
        assert not any(name.startswith("chunk") for name in used)

    def test_predictions_binary(self, fitted, stall_records):
        predictions = fitted.predict(stall_records[:20])
        assert set(predictions) <= set(BINARY_LABELS)

    def test_evaluate_report(self, fitted, stall_records):
        report = fitted.evaluate(stall_records)
        assert report.labels == list(BINARY_LABELS)
        assert 0.4 < report.accuracy <= 1.0

    def test_cross_validate_not_perfect(self, fitted, stall_records):
        report = fitted.cross_validate(stall_records, n_splits=3)
        assert report.accuracy < 1.0

    def test_selection_is_the_qos_block_in_column_order(self, fitted):
        """The forest's feature draws depend on the column order."""
        from repro.core.features import stall_feature_names

        names = stall_feature_names()
        indices = fitted.selected_indices_
        assert indices == sorted(indices)
        assert fitted.selected_names_ == [names[i] for i in indices]
        assert [name for name, _ in fitted.feature_gains()] == (
            fitted.selected_names_
        )

    def test_n_jobs_reaches_the_forest(self):
        assert PrometheusBaseline(n_jobs=2)._model_factory().n_jobs == 2
