"""Submap summaries: Gaussian entropy, tf-idf, and the gate."""

import math

import numpy as np
import pytest

from semslam.config import RunConfig
from semslam.core import ContractViolation
from semslam.submap import (
    Corpus,
    SubmapSummary,
    gate,
    gaussian_entropy,
    tfidf_score,
)

from conftest import random_spd


def summary(tfidf=0.5, landmark_count=10):
    return SubmapSummary(np.zeros(3, dtype=int), tfidf, landmark_count)


class TestGaussianEntropy:
    def test_identity_spot_value(self):
        # (3/2) (1 + ln 2 pi) ~= 4.2568 nats
        assert gaussian_entropy(np.eye(3)) == pytest.approx(4.2568, abs=1e-4)
        assert gaussian_entropy(np.eye(3)) == pytest.approx(1.5 * (1.0 + math.log(2.0 * math.pi)), rel=1e-12)

    def test_scaling_identity(self):
        # H(cI) = H(I) + (3/2) ln c; c = e^2 adds exactly 3 nats
        assert gaussian_entropy(math.e**2 * np.eye(3)) == pytest.approx(gaussian_entropy(np.eye(3)) + 3.0, rel=1e-12)

    def test_depends_only_on_determinant(self, rng):
        cov = random_spd(rng)
        det = np.linalg.det(cov)
        scaled_eye = det ** (1.0 / 3.0) * np.eye(3)
        assert gaussian_entropy(cov) == pytest.approx(gaussian_entropy(scaled_eye), rel=1e-9)

    def test_monotone_in_determinant(self, rng):
        covs = sorted((random_spd(rng) for _ in range(5)), key=lambda c: np.linalg.det(c))
        ents = [gaussian_entropy(c) for c in covs]
        assert ents == sorted(ents)

    def test_non_spd_rejected(self):
        with pytest.raises(ContractViolation):
            gaussian_entropy(np.diag([1.0, 1.0, 0.0]))


class TestTfidf:
    def test_single_document_scores_zero(self):
        corpus = Corpus(3)
        h = np.array([3, 0, 0])
        corpus.add(h[None])
        assert tfidf_score(h, corpus) == 0.0

    def test_worked_example(self):
        # submap {tree: 2, pole: 1}; N = 4 submaps, df(tree) = 2, df(pole) = 1:
        # (2/3) ln 2 + (1/3) ln 4 = 0.9242
        corpus = Corpus(3)  # tree, pole, other
        corpus.add(np.array([[2, 1, 0], [1, 0, 0], [0, 0, 1], [0, 0, 2]]))
        score = tfidf_score(np.array([2, 1, 0]), corpus)
        assert score == pytest.approx((2 / 3) * math.log(2) + (1 / 3) * math.log(4), rel=1e-12)
        assert score == pytest.approx(0.9242, abs=1e-4)

    def test_ubiquitous_class_contributes_zero(self):
        corpus = Corpus(1)
        for _ in range(5):
            corpus.add(np.array([[1]]))
        assert tfidf_score(np.array([4]), corpus) == pytest.approx(0.0)

    def test_empty_histogram_scores_zero(self):
        corpus = Corpus(2)
        corpus.add(np.array([[1, 0]]))
        assert tfidf_score(np.zeros(2, dtype=int), corpus) == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractViolation, match="at least one document"):
            tfidf_score(np.array([1, 0]), Corpus(2))

    def test_unseen_class_rejected(self):
        corpus = Corpus(2)
        corpus.add(np.array([[1, 0]]))
        with pytest.raises(ContractViolation, match="not present in corpus"):
            tfidf_score(np.array([0, 1]), corpus)

    def test_document_shape_checked(self):
        for bad in (np.array([1, 0, 0]), np.zeros((1, 2))):
            with pytest.raises(ContractViolation):
                Corpus(3).add(bad)

    def test_incremental_equals_batch(self):
        hists = np.array([[2, 1, 0], [0, 1, 0], [1, 0, 2]])
        inc = Corpus(3)
        for h in hists:
            inc.add(h[None])
        batch = Corpus(3)
        batch.add(hists)
        assert inc.n_docs == batch.n_docs == 3
        assert inc.df.tolist() == batch.df.tolist() == [2, 2, 1]
        assert tfidf_score(hists[0], inc) == tfidf_score(hists[0], batch)

    def test_scene_doc_unit(self):
        # each normalized scene vector of a submap is one document
        corpus = Corpus(3)
        corpus.add(np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5]]))
        assert corpus.n_docs == 2
        assert corpus.df.tolist() == [2, 0, 1]


class TestGate:
    def test_default_rule_skips_sparse_submaps(self):
        assert gate(summary(landmark_count=0), RunConfig()) == "skip"

    def test_default_rule_checks_rich_submaps(self):
        assert gate(summary(landmark_count=20, tfidf=1.0), RunConfig()) == "check"

    def test_default_thresholds_configurable(self):
        cfg = RunConfig(gate_min_landmarks=3, gate_min_tfidf=0.9)
        assert gate(summary(landmark_count=5, tfidf=0.5), cfg) == "skip"
        assert gate(summary(landmark_count=5, tfidf=1.0), cfg) == "check"

    def test_deterministic(self):
        s = summary(landmark_count=9, tfidf=0.4)
        assert all(gate(s, RunConfig()) == gate(s, RunConfig()) for _ in range(5))
