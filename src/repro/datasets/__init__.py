"""Corpus generation, data preparation and the per-session schema."""

from .generate import (
    Corpus,
    CorpusConfig,
    generate_adaptive_corpus,
    generate_cleartext_corpus,
    generate_corpus,
    generate_encrypted_corpus,
)
from .preparation import (
    group_cleartext_sessions,
    record_from_video_session,
    records_from_reconstruction,
    remove_proxy_artifacts,
)
from .schema import SessionRecord

__all__ = [
    "SessionRecord",
    "Corpus",
    "CorpusConfig",
    "generate_corpus",
    "generate_cleartext_corpus",
    "generate_adaptive_corpus",
    "generate_encrypted_corpus",
    "group_cleartext_sessions",
    "record_from_video_session",
    "records_from_reconstruction",
    "remove_proxy_artifacts",
]
