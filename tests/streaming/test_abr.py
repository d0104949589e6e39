"""Unit tests for the hybrid ABR and its throughput estimator."""

import pytest

from repro.streaming.abr import HybridAbr, ThroughputEstimator
from repro.streaming.catalog import DASH_LADDER, Video

VIDEO = Video(video_id="v", duration_s=120.0, complexity=1.0)
LADDER = DASH_LADDER


def _rung(resolution):
    return next(q for q in LADDER if q.resolution_p == resolution)


class TestThroughputEstimator:
    def test_first_sample_is_estimate(self):
        est = ThroughputEstimator()
        est.update(1000.0)
        assert est.estimate_kbps == 1000.0

    def test_ewma_moves_toward_new_samples(self):
        est = ThroughputEstimator(alpha=0.5)
        est.update(1000.0)
        est.update(2000.0)
        assert est.estimate_kbps == pytest.approx(1500.0)

    def test_zero_before_samples(self):
        assert ThroughputEstimator().estimate_kbps == 0.0

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            ThroughputEstimator().update(-1.0)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            ThroughputEstimator(alpha=0.0)


class TestHybridAbr:
    def test_panic_drops_to_sustainable_rung(self):
        """Panic needs low buffer AND insufficient throughput; it then
        drops straight to the sustainable rung (skipping the one-rung
        downswitch rule)."""
        abr = HybridAbr(panic_s=2.5)
        current = _rung(480)
        choice = abr.select(LADDER, VIDEO, 400.0, 1.0, current, playback_started=True)
        # budget 320 sustains the 240p rung (250 kbps)
        assert choice.resolution_p == 240

    def test_no_panic_when_throughput_sufficient(self):
        abr = HybridAbr(panic_s=2.5)
        current = _rung(480)
        choice = abr.select(LADDER, VIDEO, 1e9, 1.0, current, playback_started=True)
        assert choice.resolution_p >= 480

    def test_no_panic_during_initial_fill(self):
        abr = HybridAbr(panic_s=2.5)
        current = _rung(480)
        choice = abr.select(LADDER, VIDEO, 5000.0, 1.0, current, playback_started=False)
        assert choice.resolution_p >= 480

    def test_upswitch_one_rung_at_a_time(self):
        abr = HybridAbr(upswitch_min_buffer_s=10.0)
        current = _rung(240)
        choice = abr.select(LADDER, VIDEO, 1e9, 20.0, current)
        assert choice.resolution_p == 360

    def test_upswitch_blocked_on_thin_buffer(self):
        abr = HybridAbr(upswitch_min_buffer_s=10.0)
        current = _rung(240)
        choice = abr.select(LADDER, VIDEO, 1e9, 5.0, current)
        assert choice.resolution_p == 240

    def test_downswitch_immediate_when_buffer_thin(self):
        abr = HybridAbr(downswitch_max_buffer_s=15.0)
        current = _rung(1080)
        choice = abr.select(LADDER, VIDEO, 400.0, 8.0, current)
        assert choice.resolution_p == 240

    def test_downswitch_suppressed_on_full_buffer(self):
        abr = HybridAbr(downswitch_max_buffer_s=15.0)
        current = _rung(1080)
        choice = abr.select(LADDER, VIDEO, 400.0, 28.0, current)
        assert choice.resolution_p == 1080

    @pytest.mark.parametrize(
        "safety, throughput_kbps, resolution_p",
        [
            (0.8, 3000.0, 720),
            (0.8, 100_000.0, 1080),   # top rung
            (0.8, 50.0, 144),         # bottom rung
            (0.5, 1000.0, 360),       # 1000 kbps * 0.5 = exactly the 360p rung
        ],
    )
    def test_initial_selection_uses_throughput(
        self, safety, throughput_kbps, resolution_p
    ):
        abr = HybridAbr(safety=safety)
        choice = abr.select(
            LADDER, VIDEO, throughput_kbps, 0.0, None, playback_started=False
        )
        assert choice.resolution_p == resolution_p

    def test_steady_when_throughput_sustains_current_rung(self):
        abr = HybridAbr(safety=0.8)
        current = _rung(480)
        # budget 0.8 * 1500 = 1200 sustains 480p (1000) but not 720p.
        for buffer_s in (1.0, 12.0, 30.0):
            assert abr.select(LADDER, VIDEO, 1500.0, buffer_s, current) == current

    def test_ladder_order_does_not_matter(self):
        abr = HybridAbr()
        shuffled = [LADDER[i] for i in (3, 0, 5, 1, 4, 2)]
        cases = [
            (3000.0, 0.0, None, False),
            (1e9, 20.0, _rung(240), True),
            (400.0, 8.0, _rung(1080), True),
            (400.0, 1.0, _rung(480), True),
        ]
        for throughput, buffer_s, current, started in cases:
            assert abr.select(
                shuffled, VIDEO, throughput, buffer_s, current, started
            ) == abr.select(LADDER, VIDEO, throughput, buffer_s, current, started)

    def test_complex_title_needs_more_throughput(self):
        """The budget is compared with the title's effective bitrate, so
        a complex title gets a lower rung at the same throughput."""
        abr = HybridAbr(safety=1.0)
        simple = Video(video_id="s", duration_s=120.0, complexity=1.0)
        complex_ = Video(video_id="c", duration_s=120.0, complexity=2.0)
        assert abr.select(LADDER, simple, 2300.0, 0.0, None).resolution_p == 720
        assert abr.select(LADDER, complex_, 2300.0, 0.0, None).resolution_p == 480

    def test_zero_throughput_gets_bottom_rung(self):
        choice = HybridAbr().select(LADDER, VIDEO, 0.0, 0.0, None)
        assert choice.resolution_p == 144

    def test_panic_overrides_full_buffer_suppression(self):
        """Below ``panic_s`` the drop to the sustainable rung happens
        even where a healthy buffer would otherwise absorb the dip."""
        abr = HybridAbr(panic_s=20.0, downswitch_max_buffer_s=15.0)
        current = _rung(1080)
        assert abr.select(
            LADDER, VIDEO, 400.0, 18.0, current, playback_started=True
        ).resolution_p == 240
        assert abr.select(
            LADDER, VIDEO, 400.0, 18.0, current, playback_started=False
        ).resolution_p == 1080

    def test_upswitch_stops_at_candidate(self):
        """Repeated selections on a comfortable buffer walk the ladder one
        rung per chunk and stop at the throughput candidate."""
        abr = HybridAbr(safety=0.8)
        current = _rung(144)
        walk = []
        for _ in range(6):
            current = abr.select(LADDER, VIDEO, 1500.0, 20.0, current)
            walk.append(current.resolution_p)
        assert walk == [240, 360, 480, 480, 480, 480]


class TestThroughputEstimatorSequence:
    def test_alpha_one_tracks_last_sample(self):
        est = ThroughputEstimator(alpha=1.0)
        for sample in (100.0, 5000.0, 42.0):
            est.update(sample)
        assert est.estimate_kbps == 42.0

    def test_update_returns_new_estimate(self):
        est = ThroughputEstimator(alpha=0.25)
        assert est.update(800.0) == 800.0
        assert est.update(0.0) == pytest.approx(600.0)
        assert est.estimate_kbps == pytest.approx(600.0)

    def test_alpha_above_one_rejected(self):
        with pytest.raises(ValueError):
            ThroughputEstimator(alpha=1.5)
