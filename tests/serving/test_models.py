"""Model hot-reload: versioning, atomic swap, corrupt-file resilience."""

from __future__ import annotations

import json

import pytest

from repro.obs import get_registry
from repro.persistence import save_framework
from repro.serving.models import ModelManager


@pytest.fixture()
def model_path(serving_framework, tmp_path):
    path = tmp_path / "model.json"
    save_framework(serving_framework, path)
    return path


class TestConstruction:
    def test_from_file(self, model_path):
        manager = ModelManager(model_path)
        assert manager.version == 1
        assert manager.reloadable
        assert manager.current._fitted

    def test_from_framework(self, serving_framework):
        manager = ModelManager(serving_framework)
        assert manager.version == 1
        assert not manager.reloadable
        assert manager.current is serving_framework

    def test_unfitted_framework_rejected(self):
        from repro import QoEFramework

        with pytest.raises(ValueError):
            ModelManager(QoEFramework())

    def test_in_memory_manager_cannot_reload(self, serving_framework):
        with pytest.raises(RuntimeError):
            ModelManager(serving_framework).reload()


class TestReload:
    def test_successful_reload_bumps_version(self, serving_framework, model_path):
        reloads = get_registry().counter(
            "repro_serving_model_reloads_total", labelnames=("status",)
        )
        before = reloads.labels(status="ok").value
        manager = ModelManager(model_path)
        save_framework(serving_framework, model_path)  # "new" model arrives
        old = manager.current
        assert manager.reload() is True
        assert manager.version == 2
        assert manager.current is not old              # swapped, not mutated
        assert reloads.labels(status="ok").value == before + 1

    def test_version_gauge_tracks(self, serving_framework, model_path):
        gauge = get_registry().gauge("repro_serving_model_version")
        manager = ModelManager(model_path)
        save_framework(serving_framework, model_path)
        manager.reload()
        assert gauge.value == manager.version

    def test_corrupt_file_keeps_current_model(self, model_path):
        errors = get_registry().counter(
            "repro_serving_model_reloads_total", labelnames=("status",)
        )
        before = errors.labels(status="error").value
        manager = ModelManager(model_path)
        serving_before = manager.current
        model_path.write_text("{definitely not json")
        assert manager.reload() is False
        assert manager.version == 1
        assert manager.current is serving_before
        assert errors.labels(status="error").value == before + 1

    def test_tampered_checksum_rejected_on_reload(self, model_path):
        manager = ModelManager(model_path)
        payload = json.loads(model_path.read_text())
        payload["switching"]["threshold"] = 123.0      # bit-flip a field
        model_path.write_text(json.dumps(payload))
        assert manager.reload() is False
        assert manager.version == 1

    def test_unservable_section_keeps_current_model(
        self, model_path, stall_records
    ):
        """A re-checksummed file whose stall section names a column the
        feature model does not have never replaces the serving model."""
        from repro.persistence import payload_checksum

        manager = ModelManager(model_path)
        serving_before = manager.current
        payload = json.loads(model_path.read_text())
        payload["stall"]["selected_indices"][0] = 500
        payload["payload_sha256"] = payload_checksum(payload)
        model_path.write_text(json.dumps(payload))
        assert manager.reload() is False
        assert manager.version == 1
        assert manager.current is serving_before
        assert manager.current.diagnose(stall_records[:3], adaptive=False)

    def test_missing_file_keeps_current_model(self, model_path):
        manager = ModelManager(model_path)
        model_path.unlink()
        assert manager.reload() is False
        assert manager.current is not None

    def test_reloaded_model_predicts_identically(
        self, serving_framework, model_path, stall_records
    ):
        """Round-tripped model must diagnose exactly like the original."""
        manager = ModelManager(model_path)
        manager.reload()
        sample = list(stall_records[:5])
        original = serving_framework.diagnose(sample, adaptive=False)
        reloaded = manager.current.diagnose(sample, adaptive=False)
        assert [d.stall_class for d in original] == [
            d.stall_class for d in reloaded
        ]
