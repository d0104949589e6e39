"""Shared fixtures: small corpora and records reused across test modules.

Session-scoped because corpus generation is the expensive part of the
suite; tests must not mutate these objects.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.generate import (
    generate_adaptive_corpus,
    generate_cleartext_corpus,
    generate_encrypted_corpus,
)
from repro.datasets.preparation import record_from_video_session
from repro.network.path import NetworkPath
from repro.streaming.adaptive import AdaptivePlayer
from repro.streaming.catalog import Video, VideoCatalog
from repro.streaming.progressive import ProgressivePlayer


@pytest.fixture(scope="session")
def cleartext_corpus():
    """A small §3.1-style cleartext corpus (mixed delivery)."""
    return generate_cleartext_corpus(120, seed=101)


@pytest.fixture(scope="session")
def adaptive_corpus():
    """A small all-HAS corpus."""
    return generate_adaptive_corpus(100, seed=104)


@pytest.fixture(scope="session")
def encrypted_corpus():
    """A small §5.2-style encrypted corpus."""
    return generate_encrypted_corpus(60, seed=103)


@pytest.fixture(scope="session")
def stall_records(cleartext_corpus):
    return cleartext_corpus.records_with_stall_truth()


@pytest.fixture(scope="session")
def adaptive_records(adaptive_corpus):
    return adaptive_corpus.records_with_representation_truth()


@pytest.fixture(scope="session")
def one_progressive_session():
    """A single simulated progressive session on a good network."""
    rng = np.random.default_rng(7)
    video = Video(video_id="fixture-prog", duration_s=120.0)
    path = NetworkPath("good", 700.0, rng)
    return ProgressivePlayer().play(video, path, rng, place="home")


@pytest.fixture(scope="session")
def one_adaptive_session():
    """A single simulated adaptive session on a good network."""
    rng = np.random.default_rng(9)
    video = Video(video_id="fixture-has", duration_s=120.0)
    path = NetworkPath("good", 700.0, rng)
    return AdaptivePlayer().play(video, path, rng, place="home")


@pytest.fixture(scope="session")
def one_record(one_adaptive_session):
    """A SessionRecord built straight from a simulated session."""
    return record_from_video_session(one_adaptive_session)
