#!/usr/bin/env python
"""Quickstart: train the QoE framework on cleartext traffic and apply
it to encrypted traffic — the paper's end-to-end workflow in ~40 lines.

Run:  python examples/quickstart.py
"""

from collections import Counter

from repro import QoEFramework
from repro.datasets import (
    generate_adaptive_corpus,
    generate_cleartext_corpus,
    generate_encrypted_corpus,
)


def main() -> None:
    # 1. The operator's cleartext corpus: URIs still carry ground truth
    #    (itag -> resolution, playback reports -> stalls).
    print("generating cleartext training corpus ...")
    cleartext = generate_cleartext_corpus(400, seed=1)
    adaptive = generate_adaptive_corpus(250, seed=2)

    stall_records = cleartext.records_with_stall_truth()
    adaptive_records = adaptive.records_with_representation_truth()

    # 2. Train all three detectors once, on cleartext ground truth.
    print("training the QoE framework (stalls, representation, switching) ...")
    framework = QoEFramework(random_state=0, n_estimators=30)
    framework.fit(stall_records, adaptive_records)
    print(f"  stall model features:  {framework.stall.selected_names_}")
    print(f"  switch threshold:      {framework.switching.threshold:.0f}")

    # 3. Encrypted traffic appears: no URIs, no session ids — only
    #    sizes, timings and TCP statistics survive TLS.
    print("generating encrypted traffic (instrumented commuter) ...")
    encrypted = generate_encrypted_corpus(120, seed=3)

    # 4. Diagnose every reconstructed encrypted session.
    diagnoses = framework.diagnose(encrypted.records)

    print(f"\ndiagnosed {len(diagnoses)} encrypted sessions:")
    print("  stalling:      ", dict(Counter(d.stall_class for d in diagnoses)))
    print(
        "  representation:",
        dict(Counter(d.representation_class for d in diagnoses)),
    )
    print(
        "  has switches:  ",
        dict(Counter(d.has_quality_switches for d in diagnoses)),
    )

    # 5. Since this is a simulation we can check against ground truth.
    with_truth = [
        (d, r)
        for d, r in zip(diagnoses, encrypted.records)
        if r.stall_duration_s is not None and r.total_duration_s
    ]
    from repro.core import stall_label

    correct = sum(1 for d, r in with_truth if d.stall_class == stall_label(r))
    print(
        f"\nstall-class accuracy vs hidden ground truth: "
        f"{correct / len(with_truth):.1%}  ({correct}/{len(with_truth)})"
    )


if __name__ == "__main__":
    main()
