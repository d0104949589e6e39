"""Declarative, seedable fault plans.

A :class:`FaultPlan` is a frozen description of *which* failures a run
should experience — record corruption, clock skew, drops, duplicates,
reorders, worker kills, model-reload failures — with every stochastic
choice pinned to one seed.  The plan is pure data: it does nothing by
itself, and a plan with every knob at zero (:attr:`FaultPlan.is_noop`)
is the determinism baseline — running it must be bit-identical to not
having a fault layer at all.

Plans parse from three interchangeable spec forms (the CLI's
``serve-replay --faults SPEC`` accepts any of them):

* a compact string — ``"corrupt=0.02,kill_shard=1@100,seed=7"``;
* inline JSON — ``'{"corrupt_fraction": 0.02, "kill_shard": 1}'``;
* a path to a JSON file holding the same object.

The :class:`~repro.faults.injector.FaultInjector` executes a plan.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["FaultPlan"]

#: compact-spec key → (dataclass field, value parser)
_COMPACT_KEYS = {
    "seed": ("seed", int),
    "corrupt": ("corrupt_fraction", float),
    "drop": ("drop_fraction", float),
    "duplicate": ("duplicate_fraction", float),
    "reorder": ("reorder_fraction", float),
    "skew": ("skew_fraction", float),
    "skew_s": ("skew_s", float),
    "kill_times": ("kill_times", int),
    "reload_fail": ("reload_failures", int),
    "reload_delay": ("reload_delay_s", float),
}

#: Compact keys with their own "value@value:value" grammar.
_STRUCTURED_KEYS = ("kill_shard", "skew", "partition_shard", "slow_link")

_FRACTION_FIELDS = (
    "corrupt_fraction",
    "drop_fraction",
    "duplicate_fraction",
    "reorder_fraction",
    "skew_fraction",
)


@dataclass(frozen=True)
class FaultPlan:
    """One run's worth of injectable failures, fully deterministic.

    Parameters
    ----------
    seed:
        Seed for every per-record random draw.  Two injectors built
        from equal plans corrupt exactly the same records.
    corrupt_fraction:
        Fraction of trace records to garble (negative sizes, NaN
        timestamps/metrics — the modes cycle deterministically).
    drop_fraction, duplicate_fraction, reorder_fraction:
        Fractions of records to silently drop, emit twice, or swap
        with their successor (collector loss / retransmission /
        interleaving jitter).
    skew_fraction, skew_s:
        Fraction of records whose timestamp is shifted *backwards* by
        ``skew_s`` seconds — a skewed collector clock.
    kill_shard, kill_at_entry, kill_times:
        Kill the worker thread of shard ``kill_shard`` when it picks up
        its ``kill_at_entry``-th record, ``kill_times`` times in total
        (several kills in a row exercise the restart budget and the
        circuit breaker).  ``None`` disables.
    partition_shard, partition_at_entry, partition_secs:
        Partition the *socket*-backed shard ``partition_shard`` after
        it has accepted its ``partition_at_entry``-th record: the
        worker goes silent — no heartbeats, no reads — for
        ``partition_secs`` seconds while its TCP connection stays
        alive.  The reachable-but-slow failure mode a dead
        process never exhibits; the supervisor must classify it *partitioned* (not
        dead) and quarantine without restarting.  ``None`` disables.
        Compact form: ``partition_shard=IDX@ENTRY:SECS``.
    slow_link_fraction, slow_link_ms:
        Delay a deterministic ``slow_link_fraction`` of the socket
        transport's entry batches by ``slow_link_ms`` milliseconds
        before sending — degraded-link latency without loss, so the
        diagnosis stream must stay bit-identical.  Compact form:
        ``slow_link=FRAC:MS``.
    reload_failures, reload_delay_s:
        Make the next N model reload attempts fail with ``OSError``,
        and/or stall every reload by a fixed delay.
    """

    seed: int = 0
    corrupt_fraction: float = 0.0
    drop_fraction: float = 0.0
    duplicate_fraction: float = 0.0
    reorder_fraction: float = 0.0
    skew_fraction: float = 0.0
    skew_s: float = 120.0
    kill_shard: Optional[int] = None
    kill_at_entry: int = 1
    kill_times: int = 1
    partition_shard: Optional[int] = None
    partition_at_entry: int = 1
    partition_secs: float = 2.0
    slow_link_fraction: float = 0.0
    slow_link_ms: float = 5.0
    reload_failures: int = 0
    reload_delay_s: float = 0.0

    def __post_init__(self) -> None:
        for name in _FRACTION_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.skew_s < 0:
            raise ValueError("skew_s must be >= 0")
        if self.kill_shard is not None and self.kill_shard < 0:
            raise ValueError("kill_shard must be a shard index >= 0")
        if self.kill_at_entry < 1:
            raise ValueError("kill_at_entry must be >= 1")
        if self.kill_times < 1:
            raise ValueError("kill_times must be >= 1")
        if self.partition_shard is not None and self.partition_shard < 0:
            raise ValueError("partition_shard must be a shard index >= 0")
        if self.partition_at_entry < 1:
            raise ValueError("partition_at_entry must be >= 1")
        if self.partition_secs <= 0:
            raise ValueError("partition_secs must be positive")
        if not 0.0 <= self.slow_link_fraction <= 1.0:
            raise ValueError(
                f"slow_link_fraction must be in [0, 1], "
                f"got {self.slow_link_fraction!r}"
            )
        if self.slow_link_ms < 0:
            raise ValueError("slow_link_ms must be >= 0")
        if self.reload_failures < 0:
            raise ValueError("reload_failures must be >= 0")
        if self.reload_delay_s < 0:
            raise ValueError("reload_delay_s must be >= 0")

    # ------------------------------------------------------------------

    @property
    def is_noop(self) -> bool:
        """True when executing this plan can never change anything."""
        return (
            self.corrupt_fraction == 0.0
            and self.drop_fraction == 0.0
            and self.duplicate_fraction == 0.0
            and self.reorder_fraction == 0.0
            and self.skew_fraction == 0.0
            and self.kill_shard is None
            and self.partition_shard is None
            and self.slow_link_fraction == 0.0
            and self.reload_failures == 0
            and self.reload_delay_s == 0.0
        )

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    def describe(self) -> str:
        """Human-readable one-liner of the non-default knobs."""
        if self.is_noop:
            return "no faults"
        parts = []
        for name in _FRACTION_FIELDS:
            value = getattr(self, name)
            if value:
                parts.append(f"{name.replace('_fraction', '')}={value:g}")
        if self.skew_fraction:
            parts.append(f"skew_s={self.skew_s:g}")
        if self.kill_shard is not None:
            parts.append(
                f"kill shard {self.kill_shard}@{self.kill_at_entry}"
                + (f" x{self.kill_times}" if self.kill_times > 1 else "")
            )
        if self.partition_shard is not None:
            parts.append(
                f"partition shard {self.partition_shard}"
                f"@{self.partition_at_entry} for {self.partition_secs:g}s"
            )
        if self.slow_link_fraction:
            parts.append(
                f"slow_link={self.slow_link_fraction:g}"
                f":{self.slow_link_ms:g}ms"
            )
        if self.reload_failures:
            parts.append(f"reload_failures={self.reload_failures}")
        if self.reload_delay_s:
            parts.append(f"reload_delay={self.reload_delay_s:g}s")
        return ", ".join(parts)

    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise ValueError(
                f"fault plan must be a JSON object, got {type(payload).__name__}"
            )
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - fields)
        if unknown:
            raise ValueError(
                f"unknown fault plan key(s) {unknown}; valid: {sorted(fields)}"
            )
        return cls(**payload)

    @classmethod
    def parse(cls, spec: Optional[str]) -> "FaultPlan":
        """A plan from a compact string, inline JSON, or a JSON file path."""
        if spec is None or not spec.strip():
            return cls()
        spec = spec.strip()
        if os.path.isfile(spec):
            with open(spec, "r", encoding="utf-8") as handle:
                spec = handle.read().strip()
        if spec.startswith("{"):
            try:
                payload = json.loads(spec)
            except json.JSONDecodeError as exc:
                raise ValueError(f"fault spec is not valid JSON: {exc}") from exc
            return cls.from_dict(payload)
        return cls._parse_compact(spec)

    @classmethod
    def _parse_compact(cls, spec: str) -> "FaultPlan":
        values: Dict = {}
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" not in token:
                raise ValueError(
                    f"bad fault spec token {token!r}: expected key=value"
                )
            key, _, raw = token.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in _COMPACT_KEYS and key not in _STRUCTURED_KEYS:
                raise ValueError(
                    f"unknown fault spec key {key!r}; valid: "
                    f"{sorted(_COMPACT_KEYS) + sorted(_STRUCTURED_KEYS)}"
                )
            try:
                if key == "kill_shard":
                    # "kill_shard=1@100": shard index @ record count
                    shard, _, at = raw.partition("@")
                    values["kill_shard"] = int(shard)
                    if at:
                        values["kill_at_entry"] = int(at)
                elif key == "partition_shard":
                    # "partition_shard=1@100:2.5":
                    # shard index @ record count : silent seconds
                    shard, _, rest = raw.partition("@")
                    values["partition_shard"] = int(shard)
                    if rest:
                        at, _, secs = rest.partition(":")
                        if at:
                            values["partition_at_entry"] = int(at)
                        if secs:
                            values["partition_secs"] = float(secs)
                elif key == "slow_link":
                    # "slow_link=0.1:5": fraction of batches [: delay ms]
                    fraction, _, delay = raw.partition(":")
                    values["slow_link_fraction"] = float(fraction)
                    if delay:
                        values["slow_link_ms"] = float(delay)
                elif key == "skew":
                    # "skew=0.01:120": fraction [: backwards-skew seconds]
                    fraction, _, magnitude = raw.partition(":")
                    values["skew_fraction"] = float(fraction)
                    if magnitude:
                        values["skew_s"] = float(magnitude)
                else:
                    field, parser = _COMPACT_KEYS[key]
                    values[field] = parser(raw)
            except ValueError as exc:
                raise ValueError(
                    f"bad value for fault spec key {key!r}: {raw!r}"
                ) from exc
        return cls(**values)
