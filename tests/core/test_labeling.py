"""Unit tests for the labelling rules (§4.1-§4.3)."""

import numpy as np
import pytest

from repro.core.labeling import (
    REPRESENTATION_LABELS,
    SEVERE_RR_THRESHOLD,
    STALL_LABELS,
    has_variation,
    label_records,
    representation_label,
    stall_label,
)
from repro.datasets.schema import SessionRecord


def _record(**gt):
    n = 4
    return SessionRecord(
        session_id="x",
        encrypted=False,
        timestamps=np.arange(n, dtype=float),
        sizes=np.full(n, 1000.0),
        transactions=np.full(n, 0.5),
        rtt_min=np.zeros(n),
        rtt_avg=np.zeros(n),
        rtt_max=np.zeros(n),
        bdp=np.zeros(n),
        bif_avg=np.zeros(n),
        bif_max=np.zeros(n),
        loss_pct=np.zeros(n),
        retx_pct=np.zeros(n),
        **gt,
    )


class TestStallLabel:
    def test_no_stalls(self):
        record = _record(stall_duration_s=0.0, total_duration_s=100.0)
        assert stall_label(record) == "no stalls"

    def test_mild(self):
        record = _record(stall_duration_s=5.0, total_duration_s=100.0)
        assert stall_label(record) == "mild stalls"

    def test_boundary_exactly_at_threshold_is_mild(self):
        record = _record(stall_duration_s=10.0, total_duration_s=100.0)
        assert stall_label(record) == "mild stalls"

    def test_severe(self):
        record = _record(stall_duration_s=10.1, total_duration_s=100.0)
        assert stall_label(record) == "severe stalls"

    def test_threshold_constant(self):
        assert SEVERE_RR_THRESHOLD == 0.1

    def test_labels_tuple(self):
        assert STALL_LABELS == ("no stalls", "mild stalls", "severe stalls")


class TestRepresentationLabel:
    def test_ld_below_360(self):
        record = _record(resolutions=np.array([240, 240]))
        assert representation_label(record) == "LD"

    def test_sd_boundaries_inclusive(self):
        assert (
            representation_label(_record(resolutions=np.array([360, 360])))
            == "SD"
        )
        assert (
            representation_label(_record(resolutions=np.array([480, 480])))
            == "SD"
        )

    def test_hd_above_480(self):
        record = _record(resolutions=np.array([720, 720]))
        assert representation_label(record) == "HD"

    def test_mixed_session_uses_mean(self):
        # mean of 144 and 720 = 432 -> SD
        record = _record(resolutions=np.array([144, 720]))
        assert representation_label(record) == "SD"

    def test_labels_tuple(self):
        assert REPRESENTATION_LABELS == ("LD", "SD", "HD")


class TestHasVariation:
    def test_no_switches(self):
        record = _record(resolutions=np.array([360, 360, 360]))
        assert not has_variation(record)

    def test_one_switch(self):
        record = _record(resolutions=np.array([240, 360, 360]))
        assert has_variation(record)

    def test_many_switches(self):
        record = _record(resolutions=np.array([240, 480, 240, 720, 360]))
        assert has_variation(record)

    def test_switch_back_to_start_still_counts(self):
        record = _record(resolutions=np.array([360, 480, 360]))
        assert has_variation(record)

    def test_single_chunk_has_no_variation(self):
        assert not has_variation(_record(resolutions=np.array([720])))

    def test_missing_ground_truth_raises(self):
        with pytest.raises(ValueError):
            has_variation(_record())

    def test_vectorised_over_records(self):
        records = [
            _record(resolutions=np.array([360, 360])),
            _record(resolutions=np.array([360, 720])),
        ]
        assert label_records(records, has_variation).tolist() == [False, True]


class TestLabelRecords:
    def test_vectorised(self):
        records = [
            _record(stall_duration_s=0.0, total_duration_s=10.0),
            _record(stall_duration_s=5.0, total_duration_s=10.0),
        ]
        labels = label_records(records, stall_label)
        assert labels.tolist() == ["no stalls", "severe stalls"]
