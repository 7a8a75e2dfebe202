"""Submap summaries and the loop-closure gate.

A submap is a fixed-length run of scenes. Its summary carries the class
histogram, a tf-idf score against all submaps seen so far, and the landmark
count. The gate checks the last two against the config's thresholds to
decide whether the submap is worth a loop-closure search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .core import ContractViolation, check_spd


@dataclass(frozen=True, eq=False)
class SubmapSummary:
    histogram: np.ndarray  # class counts
    tfidf: float
    landmark_count: int


def gaussian_entropy(cov: np.ndarray) -> float:
    """Differential entropy of a 3-D Gaussian, in nats."""
    check_spd(cov)
    sign, logdet = np.linalg.slogdet(np.asarray(cov))
    return 0.5 * (3.0 * math.log(2.0 * math.pi * math.e) + logdet)


class Corpus:
    """Document frequencies for tf-idf: n_docs documents, df[c] of which
    hold class c. A document is a class histogram."""

    def __init__(self, n_classes: int):
        self.n_docs = 0
        self.df = np.zeros(n_classes, dtype=int)

    def add(self, documents: np.ndarray) -> None:
        """Add a (k, n_classes) stack of documents."""
        documents = np.asarray(documents)
        if documents.ndim != 2 or documents.shape[1] != self.df.size:
            raise ContractViolation(f"expected a (k, {self.df.size}) stack of documents, got {documents.shape}")
        self.n_docs += len(documents)
        self.df += (documents > 0).sum(axis=0)


def tfidf_score(counts: np.ndarray, corpus: Corpus) -> float:
    """Term frequency times log inverse document frequency, natural log."""
    counts = np.asarray(counts)
    present = counts > 0
    if not present.any():
        return 0.0
    if corpus.n_docs < 1:
        raise ContractViolation("corpus must contain at least one document")
    df = corpus.df[present]
    if not df.all():
        raise ContractViolation("class not present in corpus; insert before scoring")
    return float(np.sum(counts[present] / counts.sum() * np.log(corpus.n_docs / df)))


# ---------------------------------------------------------------------------
# gate


def gate(summary: SubmapSummary, cfg: RunConfig) -> str:
    """Check/skip decision for loop-closure search on this submap."""
    ok = summary.landmark_count >= cfg.gate_min_landmarks and summary.tfidf >= cfg.gate_min_tfidf
    return "check" if ok else "skip"
