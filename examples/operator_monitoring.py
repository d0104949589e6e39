#!/usr/bin/env python
"""Operator scenario: passive QoE monitoring of encrypted subscribers.

This is the workload the paper's introduction motivates: a mobile
operator that can no longer inspect video traffic (TLS everywhere)
wants per-subscriber QoE reports from a single passive vantage point.

The script:

1. trains the framework on historical cleartext weblogs (the training
   phase only has to happen once, while ground truth is available);
2. receives the encrypted weblog stream of several subscribers —
   URIs gone, only SNI + sizes + timings + TCP statistics remain;
3. regroups the flows into video sessions with the §5.2 reconstruction
   heuristic (domain filter, signalling patterns, idle gaps);
4. emits a per-subscriber QoE report in real-time-monitoring style.

Run:  python examples/operator_monitoring.py
"""

from collections import defaultdict

from repro import QoEFramework
from repro.capture.reconstruction import SessionReconstructor
from repro.datasets import (
    generate_adaptive_corpus,
    generate_cleartext_corpus,
    generate_corpus,
    CorpusConfig,
)
from repro.datasets.preparation import records_from_reconstruction
from repro.network.mobility import COMMUTER_USER


def train_framework() -> QoEFramework:
    """One-off training phase on cleartext ground truth."""
    print("== training phase (cleartext weblogs with URI ground truth) ==")
    cleartext = generate_cleartext_corpus(400, seed=10)
    adaptive = generate_adaptive_corpus(250, seed=11)
    framework = QoEFramework(random_state=0, n_estimators=30)
    framework.fit(
        cleartext.records_with_stall_truth(),
        adaptive.records_with_representation_truth(),
    )
    print(f"   stall features: {framework.stall.selected_names_}")
    print(f"   representation features: "
          f"{framework.representation.selected_names_[:5]} ...")
    return framework


def capture_encrypted_subscribers(n_subscribers: int = 4):
    """Encrypted weblog streams of several commuting subscribers."""
    print("\n== capture phase (encrypted weblogs, per subscriber) ==")
    streams = {}
    for i in range(n_subscribers):
        corpus = generate_corpus(
            CorpusConfig(
                n_sessions=25,
                seed=100 + i,
                adaptive_fraction=1.0,
                mobility=COMMUTER_USER,
                encrypted=True,
                single_subscriber=True,
            )
        )
        streams[f"subscriber-{i:02d}"] = corpus.weblogs
        print(
            f"   {f'subscriber-{i:02d}'}: {len(corpus.weblogs)} weblog "
            f"entries, {len(corpus.sessions)} (hidden) video sessions"
        )
    return streams


def monitor(framework: QoEFramework, streams) -> None:
    """Reconstruct sessions per subscriber and report their QoE."""
    print("\n== monitoring phase (session reconstruction + diagnosis) ==")
    reconstructor = SessionReconstructor()
    for subscriber, weblogs in streams.items():
        reconstructed = reconstructor.reconstruct(weblogs)
        records = records_from_reconstruction(reconstructed, [], [])
        if not records:
            print(f"   {subscriber}: no video sessions observed")
            continue
        diagnoses = framework.diagnose(records)
        stalled = [
            d for d in diagnoses if d.stall_class != "no stalls"
        ]
        severe = [d for d in diagnoses if d.stall_class == "severe stalls"]
        low_quality = [
            d for d in diagnoses if d.representation_class == "LD"
        ]
        switchy = [d for d in diagnoses if d.has_quality_switches]
        flag = "!!" if len(severe) >= 3 else ("! " if stalled else "  ")
        print(
            f" {flag}{subscriber}: {len(diagnoses)} sessions | "
            f"stalled {len(stalled)} (severe {len(severe)}) | "
            f"LD quality {len(low_quality)} | with switches {len(switchy)}"
        )
    print(
        "\nsubscribers flagged '!!' would be candidates for radio-resource "
        "or CDN-path investigation — derived entirely from encrypted flows."
    )


def main() -> None:
    framework = train_framework()
    streams = capture_encrypted_subscribers()
    monitor(framework, streams)


if __name__ == "__main__":
    main()
