"""Overlapping n-gram tokenization, training-set vocabularies and
left-padded id encoding."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .seqio import LabeledDataset
from .util import DataError, located

PAD_ID = 0
OOV_ID = 1

# Bound on n keeps worst-case vocabulary size manageable (20^n tokens).
MAX_N = 8


def tokenize(residues: str, n: int) -> list:
    """Split a sequence into its len-n+1 overlapping n-gram "words".

    Raises:
        DataError: n exceeds the sequence length.
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in [1, {MAX_N}], got {n}")
    if n > len(residues):
        raise DataError(
            f"cannot take {n}-grams of a length-{len(residues)} sequence")
    return [residues[i:i + n] for i in range(len(residues) - n + 1)]


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-id table with reserved padding and out-of-vocabulary ids.

    Built by encode --ngrams from every record, test folds of nested-cv
    --tokens included; tokens it does not hold map to OOV. A token net
    maps to OOV as well every id that no row of its training data holds
    (models.NeuralClassifier), so a token seen only in a test fold scores
    as an unknown one. The tokens of token_to_id carry ids 2, 3, ... in
    its order.
    """
    n: int
    token_to_id: dict

    def __post_init__(self):
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must be in [1, {MAX_N}], got {self.n}")

    @property
    def size(self) -> int:
        return 2 + len(self.token_to_id)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, OOV_ID)


def build_vocab(corpus, n: int) -> Vocabulary:
    """Assign ids to the n-grams of a tokenize corpus by first appearance.

    Deterministic for a fixed corpus order. Ids 0 and 1 are reserved.
    """
    if not corpus:
        raise DataError("cannot build a vocabulary from an empty corpus")
    token_to_id = {}
    for tokens in corpus:
        for tok in tokens:
            if tok not in token_to_id:
                token_to_id[tok] = len(token_to_id) + 2
    return Vocabulary(n=n, token_to_id=token_to_id)


def encode_corpus(token_lists, vocab: Vocabulary, max_len: int) -> np.ndarray:
    """Encode token lists into one (n, max_len) id matrix.

    Each row is left-padded with PAD_ID and unknown tokens become
    OOV_ID. A sequence longer than max_len is rejected rather than
    truncated.
    """
    ids = np.full((len(token_lists), max_len), PAD_ID, dtype=np.int64)
    for r, tokens in enumerate(token_lists):
        if len(tokens) > max_len:
            raise DataError(f"{len(tokens)} tokens exceed max_len {max_len}")
        ids[r, max_len - len(tokens):] = [vocab.id_of(t) for t in tokens]
    return ids


def true_lengths(ids) -> np.ndarray:
    """Tokens per row of an id matrix: its ids other than PAD_ID."""
    return np.count_nonzero(np.asarray(ids) != PAD_ID, axis=1)


def token_frequencies(ds: LabeledDataset, n: int) -> dict:
    """Per-class n-gram counts (the tabular stand-in for per-class token
    clouds); a data error names its record."""
    out = {name: Counter() for name in ds.class_names}
    for rec, label in zip(ds.records, ds.labels):
        with located(f"record {rec.id}", DataError):
            out[label].update(tokenize(rec.residues, n))
    return out
