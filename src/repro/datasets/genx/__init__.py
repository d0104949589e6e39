"""genx: the vectorized corpus engine.

:func:`repro.datasets.generate.generate_corpus` always simulates
through the columnar engine in :mod:`repro.datasets.genx.vector`,
which batches all sessions' path fading, TCP rounds, player state
machines and buffer accounting through numpy and materializes the
session objects at the end.

The original object-per-session simulation loop
(:class:`~repro.network.path.NetworkPath`, the player classes, the
capture proxy) stays as the *bit-identity oracle*:
:func:`repro.datasets.generate.reference_corpus` runs it, and the tests
and benchmarks compare the two.  Both consume one shared
:class:`~repro.datasets.genx.plan.CorpusPlan` and per-session RNG
streams (:mod:`repro.datasets.genx.streams`), so a fixed seed produces
**bit-identical** corpora — identical weblog fields, records, summaries
and segment records — from either.  This mirrors the
``repro.core.featurex`` precedent: the slow path is the specification,
the fast path is an optimisation that must prove itself equal.
"""
