"""Unit tests for CFS subset selection and info-gain ranking."""

import numpy as np
import pytest

from repro.ml.selection import CfsSubsetSelector, InfoGainRanker, SelectionResult


def _dataset(seed=0, n=400):
    """Two informative features (one redundant pair) + noise."""
    rng = np.random.default_rng(seed)
    informative = rng.normal(size=n)
    second = rng.normal(size=n)
    X = np.column_stack(
        [
            informative,                       # 0: informative
            informative + rng.normal(0, 0.05, n),  # 1: redundant copy of 0
            second,                            # 2: independently informative
            rng.normal(size=n),                # 3: noise
            rng.normal(size=n),                # 4: noise
        ]
    )
    y = ((informative > 0) & (second > 0)).astype(int)
    return X, y


class TestInfoGainRanker:
    def test_informative_features_ranked_first(self):
        X, y = _dataset()
        result = InfoGainRanker().rank(X, y)
        assert set(result.selected[:3]) >= {0, 2} or set(result.selected[:3]) >= {1, 2}

    def test_scores_descending(self):
        X, y = _dataset()
        result = InfoGainRanker().rank(X, y)
        assert all(a >= b for a, b in zip(result.scores, result.scores[1:]))

    def test_names_aligned(self):
        X, y = _dataset()
        names = [f"f{i}" for i in range(X.shape[1])]
        result = InfoGainRanker().rank(X, y, names=names)
        assert result.names == [names[j] for j in result.selected]

    def test_top_restricts(self):
        X, y = _dataset()
        result = InfoGainRanker().rank(X, y).top(2)
        assert len(result.selected) == 2
        assert len(result.scores) == 2

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            InfoGainRanker().rank(np.zeros((5, 2)), np.zeros(4))


class TestCfs:
    def test_selects_informative_not_noise(self):
        X, y = _dataset()
        result = CfsSubsetSelector().select(X, y)
        assert 2 in result.selected
        assert 0 in result.selected or 1 in result.selected
        assert 3 not in result.selected and 4 not in result.selected

    def test_redundant_pair_not_both_kept(self):
        X, y = _dataset()
        result = CfsSubsetSelector().select(X, y)
        assert not (0 in result.selected and 1 in result.selected)

    def test_merit_positive(self):
        X, y = _dataset()
        result = CfsSubsetSelector().select(X, y)
        assert result.merit > 0

    def test_max_subset_size_enforced(self):
        X, y = _dataset(seed=1)
        result = CfsSubsetSelector(max_subset_size=1).select(X, y)
        assert len(result.selected) == 1

    def test_names_propagated(self):
        X, y = _dataset()
        names = [f"feat{i}" for i in range(X.shape[1])]
        result = CfsSubsetSelector().select(X, y, names=names)
        assert all(name in names for name in result.names)

    def test_invalid_max_stale(self):
        with pytest.raises(ValueError):
            CfsSubsetSelector(max_stale=0)

    def test_pure_noise_selects_little(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 6))
        y = rng.integers(0, 2, 200)
        result = CfsSubsetSelector().select(X, y)
        # With no real signal the merit stays near zero.
        assert result.merit < 0.3


class TestSelectionResult:
    def test_top_preserves_merit(self):
        result = SelectionResult(selected=[3, 1, 2], scores=[0.5, 0.4, 0.1], merit=0.7)
        assert result.top(2).merit == 0.7
        assert result.top(2).selected == [3, 1]


def _reference_select(selector, X, y, names=None):
    """The per-pair CFS search the compact-code kernel replaced: every
    SU through ``information.symmetrical_uncertainty``, cached in a
    dict on first use."""
    import heapq

    from repro.ml.information import information_gain, symmetrical_uncertainty
    from repro.ml.selection import _discretize_matrix

    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    n_features = X.shape[1]
    Xd = _discretize_matrix(X, y)
    r_cf = np.array(
        [symmetrical_uncertainty(Xd[:, j], y) for j in range(n_features)]
    )
    ff_cache = {}

    def r_ff(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in ff_cache:
            ff_cache[key] = symmetrical_uncertainty(Xd[:, key[0]], Xd[:, key[1]])
        return ff_cache[key]

    def merit(subset):
        k = len(subset)
        if k == 0:
            return 0.0
        sum_cf = sum(r_cf[j] for j in subset)
        if k == 1:
            return float(sum_cf)
        members = sorted(subset)
        sum_ff = 0.0
        for a in range(k):
            for b in range(a + 1, k):
                sum_ff += r_ff(members[a], members[b])
        denom = np.sqrt(k + 2.0 * sum_ff)
        return float(sum_cf / denom) if denom > 0 else 0.0

    start = frozenset()
    best_subset, best_merit = start, merit(start)
    counter = 0
    frontier = [(-best_merit, counter, start)]
    visited = {start}
    stale = 0
    while frontier and stale < selector.max_stale:
        _, __, subset = heapq.heappop(frontier)
        improved = False
        if (
            selector.max_subset_size is not None
            and len(subset) >= selector.max_subset_size
        ):
            candidates = []
        else:
            candidates = [j for j in range(n_features) if j not in subset]
        for j in candidates:
            child = subset | {j}
            if child in visited:
                continue
            visited.add(child)
            m = merit(child)
            counter += 1
            heapq.heappush(frontier, (-m, counter, child))
            if m > best_merit + 1e-12:
                best_merit, best_subset, improved = m, child, True
        stale = 0 if improved else stale + 1
    selected = sorted(best_subset, key=lambda j: -r_cf[j])
    return SelectionResult(
        selected=[int(j) for j in selected],
        scores=[float(information_gain(y, Xd[:, j])) for j in selected],
        names=[names[j] for j in selected] if names is not None else None,
        merit=float(best_merit),
    ), len(ff_cache)


def _assert_same_selection(a, b):
    assert a.selected == b.selected
    assert [s.hex() for s in a.scores] == [s.hex() for s in b.scores]
    assert a.merit.hex() == b.merit.hex()
    assert a.names == b.names


class TestCompactCodeKernel:
    """The batched SU kernel against ``symmetrical_uncertainty``."""

    @staticmethod
    def _columns(seed, n):
        from repro.ml.information import (
            discretize,
            equal_frequency_bins,
            mdl_discretize,
        )

        rng = np.random.default_rng(seed)
        y = rng.integers(0, 3, size=n)
        raw = rng.normal(size=(n, 6)) + 0.5 * y[:, None]
        raw[rng.random(n) < 0.1, 1] = np.nan     # non-finite bin
        raw[:, 2] = np.inf                       # only the non-finite bin
        cols = [
            discretize(raw[:, 0], mdl_discretize(raw[:, 0], y)),
            discretize(raw[:, 1], equal_frequency_bins(raw[:, 1], 12)),
            discretize(raw[:, 2], np.empty(0)),
            discretize(raw[:, 3], equal_frequency_bins(raw[:, 3], 40)),
            np.zeros(n, dtype=np.int64),           # constant
            rng.integers(0, 200, size=n),          # wide rows
            discretize(raw[:, 4], mdl_discretize(raw[:, 4], y)),
        ]
        return np.column_stack(cols), y

    @pytest.mark.parametrize("seed,n", [(0, 60), (1, 400), (2, 3000)])
    def test_pair_and_class_su_bitwise(self, seed, n):
        from repro.ml.information import symmetrical_uncertainty
        from repro.ml.selection import _CodedColumns

        Xd, y = self._columns(seed, n)
        coded = _CodedColumns(Xd, y.astype(str))
        class_su = coded.class_su()
        for j in range(Xd.shape[1]):
            ref = symmetrical_uncertainty(Xd[:, j], y.astype(str))
            assert class_su[j].hex() == ref.hex()
        lo, hi = np.triu_indices(Xd.shape[1], k=1)
        pair_su = coded.pair_su(lo, hi)
        for i, j, su in zip(lo, hi, pair_su):
            ref = symmetrical_uncertainty(Xd[:, i], Xd[:, j])
            assert su.hex() == ref.hex(), (i, j)


class TestCfsMatchesReference:
    """``select`` returns what the per-pair search returned, bit for bit,
    on the paper's two feature sets."""

    def test_stall_matrix(self, stall_records):
        from repro.core.features import build_stall_matrix
        from repro.core.stall import StallDetector

        X, names = build_stall_matrix(stall_records, cache=False)
        y = StallDetector().labels_for(stall_records)
        assert X.shape[1] == 70
        selector = CfsSubsetSelector()
        ref, _ = _reference_select(selector, X, y, names)
        _assert_same_selection(selector.select(X, y, names), ref)

    def test_representation_matrix(self, adaptive_records):
        from repro.core.features import build_representation_matrix
        from repro.core.representation import AvgRepresentationDetector

        X, names = build_representation_matrix(adaptive_records, cache=False)
        y = AvgRepresentationDetector().labels_for(adaptive_records)
        assert X.shape[1] == 210
        for selector in (
            CfsSubsetSelector(),
            CfsSubsetSelector(max_stale=2, max_subset_size=6),
        ):
            ref, _ = _reference_select(selector, X, y, names)
            _assert_same_selection(selector.select(X, y, names), ref)

    def test_span_counts_subsets_and_pairs(self):
        from repro.obs.tracing import Tracer, set_tracer

        X, y = _dataset(seed=3, n=200)
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            CfsSubsetSelector().select(X, y)
        finally:
            set_tracer(previous)
        _, pairs = _reference_select(CfsSubsetSelector(), X, y)
        (node,) = [r for r in tracer.roots() if r.name == "ml.cfs_select"]
        assert node.count == 1
        assert node.counters["su_pairs"] == pairs
        assert node.counters["subsets_evaluated"] > 0
