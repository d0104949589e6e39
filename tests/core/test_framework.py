"""Integration tests for the unified QoE framework and evaluation protocol."""

import numpy as np
import pytest

from repro.core.evaluation import balanced_train_full_test, evaluate_model
from repro.core.framework import QoEFramework
from repro.ml.forest import RandomForestClassifier


@pytest.fixture(scope="module")
def framework(stall_records, adaptive_records):
    return QoEFramework(random_state=0, n_estimators=15).fit(
        stall_records, adaptive_records
    )


class TestQoEFramework:
    def test_unfitted_raises(self, stall_records):
        with pytest.raises(RuntimeError):
            QoEFramework().diagnose(stall_records)

    def test_diagnose_all_sessions(self, framework, adaptive_records):
        diagnoses = framework.diagnose(adaptive_records[:15])
        assert len(diagnoses) == 15
        for diagnosis in diagnoses:
            assert diagnosis.stall_class in (
                "no stalls",
                "mild stalls",
                "severe stalls",
            )
            assert diagnosis.representation_class in ("LD", "SD", "HD")
            assert isinstance(diagnosis.has_quality_switches, bool)

    def test_diagnose_non_adaptive_mode(self, framework, stall_records):
        diagnoses = framework.diagnose(stall_records[:5], adaptive=False)
        for diagnosis in diagnoses:
            assert diagnosis.representation_class is None
            assert diagnosis.has_quality_switches is None

    def test_switch_threshold_calibrated(self, framework):
        assert framework.switching.threshold > 0

    def test_diagnosis_ids_match(self, framework, adaptive_records):
        diagnoses = framework.diagnose(adaptive_records[:5])
        assert [d.session_id for d in diagnoses] == [
            r.session_id for r in adaptive_records[:5]
        ]

    def test_diagnose_skips_feature_cache(
        self, framework, adaptive_records, monkeypatch
    ):
        """Serving batches never repeat: no hashing, no cache traffic."""
        from repro.core.featurex import engine, get_cache

        get_cache().clear()
        hashed = []
        monkeypatch.setattr(
            engine, "batch_key", lambda *args: hashed.append(args)
        )
        framework.diagnose(adaptive_records[:12])
        assert hashed == []
        assert len(get_cache()._entries) == 0

    def test_fit_derives_adaptive_subset(self, stall_records):
        framework = QoEFramework(random_state=1, n_estimators=5)
        framework.fit(stall_records)    # no explicit adaptive records
        assert framework.stall._model is not None


class TestEvaluationProtocol:
    def _data(self, n=300, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 4))
        y = np.where(X[:, 0] > 0.8, "rare", "common")
        return X, y

    def test_balanced_training_set(self):
        X, y = self._data()
        captured = {}

        class Spy(RandomForestClassifier):
            def fit(self, Xb, yb):
                captured["labels"] = yb.copy()
                return super().fit(Xb, yb)

        balanced_train_full_test(
            lambda: Spy(n_estimators=5, random_state=0), X, y, random_state=0
        )
        _, counts = np.unique(captured["labels"], return_counts=True)
        assert counts.min() == counts.max()

    def test_oversampling_keeps_majority(self):
        X, y = self._data()
        captured = {}

        class Spy(RandomForestClassifier):
            def fit(self, Xb, yb):
                captured["n"] = len(yb)
                return super().fit(Xb, yb)

        balanced_train_full_test(
            lambda: Spy(n_estimators=5, random_state=0),
            X,
            y,
            random_state=0,
        )
        majority = max(np.unique(y, return_counts=True)[1])
        assert captured["n"] == 2 * majority

    def test_report_covers_full_set(self):
        X, y = self._data()
        _, report = balanced_train_full_test(
            lambda: RandomForestClassifier(n_estimators=5, random_state=0),
            X,
            y,
            random_state=0,
        )
        assert report.matrix.sum() == len(y)

    def test_evaluate_model_on_new_data(self):
        X, y = self._data()
        model, _ = balanced_train_full_test(
            lambda: RandomForestClassifier(n_estimators=10, random_state=0),
            X,
            y,
            random_state=0,
        )
        X2, y2 = self._data(seed=1)
        report = evaluate_model(model, X2, y2)
        assert report.accuracy > 0.7
