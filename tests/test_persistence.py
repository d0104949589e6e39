"""Tests for JSON model persistence."""

import json

import numpy as np
import pytest

from repro import QoEFramework
from repro.baselines.prometheus import PrometheusBaseline
from repro.core.representation import AvgRepresentationDetector
from repro.core.stall import StallDetector
from repro.ml.forest import RandomForestClassifier
from repro.persistence import (
    _detector_from_dict,
    _detector_to_dict,
    forest_from_dict,
    forest_to_dict,
    framework_from_dict,
    framework_to_dict,
    load_framework,
    payload_checksum,
    save_framework,
)


@pytest.fixture(scope="module")
def framework(stall_records, adaptive_records):
    return QoEFramework(random_state=0, n_estimators=10).fit(
        stall_records, adaptive_records
    )


class TestForestRoundtrip:
    def _forest(self, labels):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(150, 4))
        y = labels[(X[:, 0] > 0).astype(int)]
        return (
            RandomForestClassifier(n_estimators=8, random_state=0).fit(X, y),
            X,
        )

    def test_numeric_labels_roundtrip(self):
        forest, X = self._forest(np.array([0, 1]))
        clone = forest_from_dict(forest_to_dict(forest))
        assert (clone.predict(X) == forest.predict(X)).all()
        np.testing.assert_allclose(
            clone.predict_proba(X), forest.predict_proba(X)
        )

    def test_string_labels_roundtrip(self):
        forest, X = self._forest(np.array(["healthy", "stalled"]))
        clone = forest_from_dict(forest_to_dict(forest))
        assert (clone.predict(X) == forest.predict(X)).all()

    def test_unfitted_forest_rejected(self):
        with pytest.raises(ValueError):
            forest_to_dict(RandomForestClassifier())

    def test_payload_is_json_serialisable(self):
        forest, _ = self._forest(np.array([0, 1]))
        json.dumps(forest_to_dict(forest))   # must not raise

    def test_hyperparameters_roundtrip(self):
        """A reloaded forest that is re-fit() must grow the same kind
        of ensemble, not silently revert to constructor defaults."""
        rng = np.random.default_rng(1)
        X = rng.normal(size=(120, 5))
        y = (X[:, 0] > 0).astype(int)
        forest = RandomForestClassifier(
            n_estimators=6,
            criterion="entropy",
            max_depth=4,
            min_samples_split=5,
            min_samples_leaf=2,
            max_features=3,
            bootstrap=False,
            oob_score=False,
            random_state=42,
        ).fit(X, y)
        clone = forest_from_dict(forest_to_dict(forest))
        for attr in (
            "n_estimators", "criterion", "max_depth", "min_samples_split",
            "min_samples_leaf", "max_features", "bootstrap", "oob_score",
            "random_state",
        ):
            assert getattr(clone, attr) == getattr(forest, attr), attr
        # Re-fitting the clone reproduces the original forest exactly.
        refit = clone.fit(X, y)
        np.testing.assert_array_equal(
            refit.predict_proba(X), forest.predict_proba(X)
        )

    def test_tree_hyperparameters_roundtrip(self):
        forest, _ = self._forest(np.array([0, 1]))
        clone = forest_from_dict(forest_to_dict(forest))
        for orig, restored in zip(forest.estimators_, clone.estimators_):
            assert restored.max_depth == orig.max_depth
            assert restored.min_samples_split == orig.min_samples_split
            assert restored.min_samples_leaf == orig.min_samples_leaf
            assert restored.max_features == orig.max_features

    def test_float_labels_stay_float(self):
        """Integral *float* labels (0.0/1.0) must not come back int64."""
        forest, X = self._forest(np.array([0.0, 1.0]))
        assert forest.classes_.dtype.kind == "f"
        clone = forest_from_dict(forest_to_dict(forest))
        assert clone.classes_.dtype.kind == "f"
        assert clone.predict(X).dtype.kind == "f"
        assert (clone.predict(X) == forest.predict(X)).all()

    def test_int_labels_stay_int(self):
        forest, X = self._forest(np.array([0, 1]))
        clone = forest_from_dict(forest_to_dict(forest))
        assert clone.classes_.dtype.kind == "i"
        assert clone.predict(X).dtype.kind == "i"

    def test_legacy_v1_forest_payload_loads(self):
        """Version-1 payloads (no hyperparameters, 'num' class kind)
        must still deserialise, with defaults substituted."""
        forest, X = self._forest(np.array([0, 1]))
        payload = forest_to_dict(forest)
        for key in ("criterion", "max_depth", "min_samples_split",
                    "min_samples_leaf", "max_features", "bootstrap",
                    "oob_score", "random_state"):
            payload.pop(key)
        payload["classes"] = {
            "kind": "num",
            "values": [float(c) for c in forest.classes_],
        }
        for tree in payload["trees"]:
            for key in ("max_depth", "min_samples_split",
                        "min_samples_leaf", "max_features"):
                tree.pop(key)
        clone = forest_from_dict(payload)
        assert clone.criterion == "gini"
        assert clone.max_features == "sqrt"
        assert (clone.predict(X) == forest.predict(X)).all()


class TestFrameworkRoundtrip:
    def test_unfitted_framework_rejected(self):
        with pytest.raises(ValueError):
            framework_to_dict(QoEFramework())

    def test_dict_roundtrip_preserves_predictions(
        self, framework, stall_records, adaptive_records
    ):
        clone = framework_from_dict(framework_to_dict(framework))
        original = framework.diagnose(adaptive_records[:10])
        restored = clone.diagnose(adaptive_records[:10])
        assert [d.stall_class for d in original] == [
            d.stall_class for d in restored
        ]
        assert [d.representation_class for d in original] == [
            d.representation_class for d in restored
        ]
        assert [d.has_quality_switches for d in original] == [
            d.has_quality_switches for d in restored
        ]

    def test_file_roundtrip(self, framework, adaptive_records, tmp_path):
        path = tmp_path / "models.json"
        save_framework(framework, path)
        clone = load_framework(path)
        original = framework.diagnose(adaptive_records[:5])
        restored = clone.diagnose(adaptive_records[:5])
        assert [d.stall_class for d in original] == [
            d.stall_class for d in restored
        ]

    def test_switch_threshold_preserved(self, framework, tmp_path):
        path = tmp_path / "models.json"
        save_framework(framework, path)
        clone = load_framework(path)
        assert clone.switching.threshold == framework.switching.threshold

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            framework_from_dict({"format_version": 99})

    def test_legacy_v1_framework_format_tolerated(self, framework):
        payload = framework_to_dict(framework)
        assert payload["format_version"] == 2
        payload["format_version"] = 1   # a pre-upgrade model file
        clone = framework_from_dict(payload)
        assert clone._fitted

    def test_selected_features_preserved(self, framework, tmp_path):
        path = tmp_path / "models.json"
        save_framework(framework, path)
        clone = load_framework(path)
        assert clone.stall.selected_names_ == framework.stall.selected_names_
        assert clone.stall.feature_gains()   # selection result restored


#: Every ForestDetector declaration and selection mode, with the
#: records it trains on.  The baseline's selection is fixed.
_ROUND_TRIPS = [
    (StallDetector, "cfs", "stall_records"),
    (StallDetector, "infogain", "stall_records"),
    (StallDetector, "none", "stall_records"),
    (AvgRepresentationDetector, "cfs", "adaptive_records"),
    (AvgRepresentationDetector, "infogain", "adaptive_records"),
    (AvgRepresentationDetector, "none", "adaptive_records"),
    (PrometheusBaseline, None, "stall_records"),
]


class TestDetectorRoundTrip:
    """A saved and reloaded detector answers every public call as the
    fitted one did, whatever order its selection result is in."""

    @pytest.mark.parametrize(
        "cls, mode, records_fixture",
        _ROUND_TRIPS,
        ids=[f"{c.__name__}-{m or 'fixed'}" for c, m, _ in _ROUND_TRIPS],
    )
    def test_public_methods_survive_the_round_trip(
        self, cls, mode, records_fixture, request
    ):
        records = request.getfixturevalue(records_fixture)
        kwargs = {} if mode is None else {"feature_selection": mode}
        detector = cls(n_estimators=5, random_state=0, **kwargs).fit(records)
        payload = json.loads(json.dumps(_detector_to_dict(detector)))
        clone = _detector_from_dict(payload, cls)
        assert clone.feature_gains() == detector.feature_gains()
        assert np.array_equal(
            clone.predict_proba(records), detector.predict_proba(records)
        )
        assert np.array_equal(clone.predict(records), detector.predict(records))

    def test_file_without_result_names_loads_in_column_order(self, framework):
        """Files written before the result's own names were stored."""
        payload = framework_to_dict(framework)
        del payload["stall"]["selection_names"]
        clone = framework_from_dict(payload)
        assert clone.stall.feature_gains() == framework.stall.feature_gains()

    def test_result_names_must_be_the_selected_columns(self, framework):
        payload = framework_to_dict(framework)
        payload["stall"]["selection_names"][0] = "not a feature"
        with pytest.raises(ValueError, match="other than its selected"):
            framework_from_dict(payload)


class TestLoadValidation:
    """Corruption of a saved model file must fail loudly, as ValueError,
    naming the failing layer — never a KeyError ten frames deep."""

    @pytest.fixture()
    def saved(self, framework, tmp_path):
        path = tmp_path / "models.json"
        save_framework(framework, path)
        return path

    def test_saved_file_embeds_checksum(self, saved):
        payload = json.loads(saved.read_text())
        assert payload["payload_sha256"] == payload_checksum(payload)

    def test_checksum_ignores_key_order(self, saved):
        payload = json.loads(saved.read_text())
        reordered = dict(reversed(list(payload.items())))
        assert payload_checksum(reordered) == payload["payload_sha256"]

    def test_tampered_payload_rejected(self, saved):
        payload = json.loads(saved.read_text())
        payload["switching"]["threshold"] += 1.0
        saved.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="checksum"):
            load_framework(saved)

    def test_truncated_file_rejected(self, saved):
        text = saved.read_text()
        saved.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError, match="not valid JSON"):
            load_framework(saved)

    def test_non_object_json_rejected(self, saved):
        saved.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="JSON object"):
            load_framework(saved)

    def test_missing_section_rejected(self, framework, tmp_path):
        payload = framework_to_dict(framework)
        del payload["switching"]
        path = tmp_path / "models.json"
        path.write_text(json.dumps(payload))  # no checksum: format check hits
        with pytest.raises(ValueError, match="switching"):
            load_framework(path)

    def test_corrupt_section_rejected_as_value_error(self, framework):
        payload = framework_to_dict(framework)
        del payload["stall"]["model"]
        with pytest.raises(ValueError, match="corrupt model payload"):
            framework_from_dict(payload)

    def test_legacy_file_without_checksum_loads(self, framework, tmp_path):
        """Files written before checksums existed must keep loading."""
        payload = framework_to_dict(framework)
        assert "payload_sha256" not in payload
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(payload))
        clone = load_framework(path)
        assert clone._fitted

    def test_non_dict_payload_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            framework_from_dict(["not", "a", "dict"])

    # A section that passes the checksum must still be servable: each
    # case below loaded at one time and failed at the first diagnose
    # (or, for the dropped name, diagnosed under a wrong name silently).

    def test_out_of_range_index_rejected(self, framework):
        payload = framework_to_dict(framework)
        payload["stall"]["selected_indices"][0] = 500
        with pytest.raises(ValueError, match="500"):
            framework_from_dict(payload)

    def test_index_count_must_match_forest(self, framework):
        payload = framework_to_dict(framework)
        payload["stall"]["selected_indices"].pop()
        with pytest.raises(ValueError, match="fitted on"):
            framework_from_dict(payload)

    def test_name_count_must_match_indices(self, framework):
        payload = framework_to_dict(framework)
        payload["representation"]["selected_names"].pop()
        with pytest.raises(ValueError, match="names for"):
            framework_from_dict(payload)

    def test_score_count_must_match_indices(self, framework):
        """A lost gain would silently shorten ``feature_gains()``."""
        payload = framework_to_dict(framework)
        payload["stall"]["selection_scores"].pop()
        with pytest.raises(ValueError, match="scores for"):
            framework_from_dict(payload)

    def test_names_must_match_this_feature_layout(self, framework):
        """A file from a build with another feature layout is refused."""
        payload = framework_to_dict(framework)
        names = payload["stall"]["selected_names"]
        names[0], names[1] = names[1], names[0]
        with pytest.raises(ValueError, match="this build's feature"):
            framework_from_dict(payload)

    def test_non_integer_index_rejected(self, framework):
        payload = framework_to_dict(framework)
        payload["stall"]["selected_indices"][0] = 1.0
        with pytest.raises(ValueError, match="not a column"):
            framework_from_dict(payload)
