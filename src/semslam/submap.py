"""Submap summaries and the loop-closure gate.

A submap is a fixed-length run of scenes. Its summary carries the class
histogram, a tf-idf score against all submaps seen so far, and the landmark
count. The gate checks the last two against fixed thresholds to decide
whether the submap is worth a loop-closure search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .core import ClassHistogram, ContractViolation, check_spd


@dataclass(frozen=True, eq=False)
class SubmapSummary:
    histogram: ClassHistogram
    tfidf: float
    landmark_count: int


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
        self.df: Dict[int, int] = {}  # class id -> documents holding it

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
# gate


@dataclass(frozen=True)
class GateDefaults:
    min_landmarks: int = 8
    min_tfidf: float = 0.0


def gate(summary: SubmapSummary, defaults: GateDefaults = GateDefaults()) -> str:
    """Check/skip decision for loop-closure search on this submap."""
    ok = summary.landmark_count >= defaults.min_landmarks and summary.tfidf >= defaults.min_tfidf
    return "check" if ok else "skip"
