#!/usr/bin/env python
"""Real-time QoE dashboard: live diagnosis, MOS scoring and alarms.

Extends the operator scenario with the library's extension features:

* :class:`repro.realtime.RealTimeMonitor` — sessions are diagnosed the
  moment they close in the live weblog stream, not in a batch job;
* :func:`repro.core.mos_from_diagnosis` — each diagnosis is converted
  to an estimated Mean Opinion Score;
* :mod:`repro.persistence` — the trained models are saved to JSON and
  reloaded, as a long-running monitoring daemon would do.

Run:  python examples/realtime_dashboard.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import QoEFramework
from repro.core.mos import mos_from_diagnosis
from repro.datasets import (
    CorpusConfig,
    generate_adaptive_corpus,
    generate_cleartext_corpus,
    generate_corpus,
)
from repro.network.mobility import COMMUTER_USER, STATIC_USER
from repro.persistence import load_framework, save_framework
from repro.realtime import RealTimeMonitor


def train_and_persist(model_path: Path) -> None:
    print("== one-off training, then persist the models to JSON ==")
    cleartext = generate_cleartext_corpus(350, seed=20)
    adaptive = generate_adaptive_corpus(220, seed=21)
    framework = QoEFramework(random_state=0, n_estimators=25).fit(
        cleartext.records_with_stall_truth(),
        adaptive.records_with_representation_truth(),
    )
    save_framework(framework, model_path)
    print(f"   models written to {model_path} "
          f"({model_path.stat().st_size / 1024:.0f} KB of JSON)\n")


def live_monitoring(model_path: Path) -> None:
    print("== monitoring daemon: reload models, watch the live stream ==")
    framework = load_framework(model_path)

    scores = []

    def on_diagnosis(diagnosis):
        breakdown = mos_from_diagnosis(diagnosis)
        scores.append(breakdown.mos)
        flag = "⚠" if diagnosis.stall_class != "no stalls" else " "
        print(
            f"  {flag} session closed: stalls={diagnosis.stall_class:<14} "
            f"quality={diagnosis.representation_class:<3} "
            f"switches={str(diagnosis.has_quality_switches):<5} "
            f"-> MOS {breakdown.mos:.2f}"
        )

    monitor = RealTimeMonitor(
        framework,
        severe_alarm_after=3,
        on_diagnosis=on_diagnosis,
    )

    # Two subscribers' encrypted streams, interleaved by timestamp.
    streams = []
    for i, mobility in enumerate((COMMUTER_USER, STATIC_USER)):
        corpus = generate_corpus(
            CorpusConfig(
                n_sessions=12,
                seed=200 + i,
                adaptive_fraction=1.0,
                mobility=mobility,
                encrypted=True,
                single_subscriber=True,
            )
        )
        for entry in corpus.weblogs:
            entry.subscriber_id = f"sub-{i:02d}"
        streams.extend(corpus.weblogs)
    streams.sort(key=lambda e: e.timestamp_s)

    monitor.feed_many(streams)
    monitor.flush()

    print("\n== dashboard summary ==")
    for subscriber, health in sorted(monitor.health.items()):
        print(
            f"   {subscriber}: {health.sessions} sessions, "
            f"stall ratio {health.stall_ratio:.0%}, "
            f"severe {health.severe}, LD {health.low_definition}"
        )
    if scores:
        print(f"   mean estimated MOS across sessions: {np.mean(scores):.2f}")
    for alarm in monitor.alarms:
        print(f"   ALARM {alarm.subscriber_id}: {alarm.reason} "
              f"(after {alarm.sessions_observed} sessions)")
    if not monitor.alarms:
        print("   no alarms raised")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        model_path = Path(tmp) / "qoe-models.json"
        train_and_persist(model_path)
        live_monitoring(model_path)


if __name__ == "__main__":
    main()
