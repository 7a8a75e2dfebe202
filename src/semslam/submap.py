"""Submap summaries and the loop-closure gate.

A submap is a fixed-length run of scenes. Its summary carries the class
histogram, a Gaussian entropy of the fused landmark spread, a tf-idf score
against all submaps seen so far, and the landmark count. A small CART
decides whether the submap is worth a loop-closure search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import ClassHistogram, ClassLabel, ContractViolation, check_spd

GATE_FEATURES = ("entropy", "tfidf", "landmark_count")


@dataclass(frozen=True, eq=False)
class SubmapSummary:
    submap_id: int
    histogram: ClassHistogram
    entropy: float
    tfidf: float
    landmark_count: int
    scene_ids: Tuple[int, ...]

    def features(self) -> np.ndarray:
        return np.array([self.entropy, self.tfidf, float(self.landmark_count)])


def gaussian_entropy(cov: np.ndarray) -> float:
    """Differential entropy of a 3-D Gaussian, in nats."""
    check_spd(cov)
    sign, logdet = np.linalg.slogdet(np.asarray(cov))
    return 0.5 * (3.0 * math.log(2.0 * math.pi * math.e) + logdet)


class Corpus:
    """Document-frequency statistics for tf-idf over submaps.

    doc_unit selects the granularity of the inverse-document frequency:
    'submap' counts submaps containing a class, 'scene' counts scenes.
    """

    def __init__(self, doc_unit: str = "submap"):
        if doc_unit not in ("submap", "scene"):
            raise ContractViolation("doc_unit must be 'submap' or 'scene'")
        self.doc_unit = doc_unit
        self.n_docs = 0
        self.df: Dict[ClassLabel, int] = {}

    def add_submap(self, histogram: ClassHistogram, scene_histograms: Optional[Sequence[ClassHistogram]] = None):
        if self.doc_unit == "submap":
            self.n_docs += 1
            for label, c in histogram.counts.items():
                if c > 0:
                    self.df[label] = self.df.get(label, 0) + 1
        else:
            if scene_histograms is None:
                raise ContractViolation("scene histograms required for scene-level corpus")
            for h in scene_histograms:
                self.n_docs += 1
                for label, c in h.counts.items():
                    if c > 0:
                        self.df[label] = self.df.get(label, 0) + 1


def tfidf_score(histogram: ClassHistogram, corpus: Corpus) -> float:
    """Term frequency times log inverse document frequency, natural log."""
    if histogram.total == 0:
        return 0.0
    if corpus.n_docs < 1:
        raise ContractViolation("corpus must contain at least one document")
    score = 0.0
    for label, count in histogram.counts.items():
        if count == 0:
            continue
        df = corpus.df.get(label, 0)
        if df == 0:
            raise ContractViolation("class not present in corpus; insert before scoring")
        score += (count / histogram.total) * math.log(corpus.n_docs / df)
    return score


# ---------------------------------------------------------------------------
# decision-tree gate


@dataclass
class GateNode:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["GateNode"] = None
    right: Optional["GateNode"] = None
    label: str = ""

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class GateTree:
    root: GateNode

    def predict(self, features: np.ndarray) -> str:
        node = self.root
        while not node.is_leaf:
            node = node.left if features[node.feature] <= node.threshold else node.right
        return node.label


def _gini(labels: Sequence[str]) -> float:
    n = len(labels)
    if n == 0:
        return 0.0
    p = sum(1 for l in labels if l == "check") / n
    return 2.0 * p * (1.0 - p)


def _majority(labels: Sequence[str]) -> str:
    checks = sum(1 for l in labels if l == "check")
    return "check" if checks * 2 > len(labels) else "skip"


def _build_cart(X: np.ndarray, y: List[str], depth: int, max_depth: int, min_leaf: int) -> GateNode:
    if depth >= max_depth or len(set(y)) == 1 or len(y) < 2 * min_leaf:
        return GateNode(label=_majority(y))
    n, d = X.shape
    best = None  # (impurity, feature, threshold, mask)
    for f in range(d):
        vals = np.unique(X[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = 0.5 * (a + b)
            mask = X[:, f] <= thr
            nl = int(mask.sum())
            if nl < min_leaf or n - nl < min_leaf:
                continue
            yl = [y[i] for i in range(n) if mask[i]]
            yr = [y[i] for i in range(n) if not mask[i]]
            imp = (len(yl) * _gini(yl) + len(yr) * _gini(yr)) / n
            if best is None or imp < best[0] - 1e-12:
                best = (imp, f, thr, mask)
    if best is None or best[0] >= _gini(y) - 1e-12:
        return GateNode(label=_majority(y))
    _, f, thr, mask = best
    left = _build_cart(X[mask], [y[i] for i in range(n) if mask[i]], depth + 1, max_depth, min_leaf)
    right = _build_cart(X[~mask], [y[i] for i in range(n) if not mask[i]], depth + 1, max_depth, min_leaf)
    return GateNode(feature=f, threshold=thr, left=left, right=right)


def train_gate(samples: Sequence[Tuple[SubmapSummary, str]], max_depth: int = 3, min_leaf: int = 2) -> GateTree:
    """CART (Gini) over (entropy, tfidf, landmark_count) with check/skip labels."""
    if len(samples) < 10:
        raise ContractViolation("need at least 10 training samples")
    for _, label in samples:
        if label not in ("check", "skip"):
            raise ContractViolation(f"unknown label {label!r}")
    X = np.stack([s.features() for s, _ in samples])
    y = [label for _, label in samples]
    return GateTree(_build_cart(X, y, 0, max_depth, min_leaf))


@dataclass(frozen=True)
class GateDefaults:
    min_landmarks: int = 8
    min_tfidf: float = 0.0


def gate(summary: SubmapSummary, tree: Optional[GateTree] = None, defaults: GateDefaults = GateDefaults()) -> str:
    """Check/skip decision for loop-closure search on this submap."""
    if tree is not None:
        return tree.predict(summary.features())
    ok = summary.landmark_count >= defaults.min_landmarks and summary.tfidf >= defaults.min_tfidf
    return "check" if ok else "skip"
