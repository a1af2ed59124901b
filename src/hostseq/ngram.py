"""Overlapping n-gram tokenization, training-set vocabularies and
left-padded id encoding."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .seqio import DataError, LabeledDataset, SequenceTooShortError, read_json
from .util import atomic_write_text

PAD_ID = 0
OOV_ID = 1
PAD_TOKEN = "<pad>"
OOV_TOKEN = "<oov>"

# Bound on n keeps worst-case vocabulary size manageable (20^n tokens).
MAX_N = 8


class SequenceTooLongError(DataError):
    pass


def tokenize(residues: str, n: int) -> list:
    """Split a sequence into its len-n+1 overlapping n-gram "words".

    Raises:
        SequenceTooShortError: n exceeds the sequence length.
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in [1, {MAX_N}], got {n}")
    if n > len(residues):
        raise SequenceTooShortError(
            f"cannot take {n}-grams of a length-{len(residues)} sequence")
    return [residues[i:i + n] for i in range(len(residues) - n + 1)]


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-id table with reserved padding and out-of-vocabulary ids.

    Built from the training split only; unseen test tokens map to OOV.
    """
    n: int
    token_to_id: dict
    id_to_token: tuple = field(default=())

    def __post_init__(self):
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must be in [1, {MAX_N}], got {self.n}")
        if not self.id_to_token:
            inverse = [PAD_TOKEN, OOV_TOKEN] + [None] * len(self.token_to_id)
            for tok, i in self.token_to_id.items():
                inverse[i] = tok
            object.__setattr__(self, "id_to_token", tuple(inverse))

    @property
    def size(self) -> int:
        return 2 + len(self.token_to_id)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, OOV_ID)


def build_vocab(corpus, n: int | None = None) -> Vocabulary:
    """Assign ids to tokens by first appearance over a token-list corpus.

    Deterministic for a fixed corpus order. Ids 0 and 1 are reserved.
    """
    if not corpus:
        raise DataError("cannot build a vocabulary from an empty corpus")
    token_to_id = {}
    next_id = 2
    for tokens in corpus:
        for tok in tokens:
            if n is None:
                n = len(tok)
            elif len(tok) != n:
                raise DataError(
                    f"token {tok!r} has length {len(tok)}, expected {n}")
            if tok not in token_to_id:
                token_to_id[tok] = next_id
                next_id += 1
    if n is None:
        raise DataError("corpus contains no tokens")
    return Vocabulary(n=n, token_to_id=token_to_id)


def encode_corpus(token_lists, vocab: Vocabulary, max_len: int):
    """Encode token lists into one (n, max_len) id matrix.

    Each row is left-padded with PAD_ID and unknown tokens become
    OOV_ID. A sequence longer than max_len is rejected rather than
    truncated.

    Returns (ids, true_lens).
    """
    ids = np.full((len(token_lists), max_len), PAD_ID, dtype=np.int64)
    true_lens = np.empty(len(token_lists), dtype=np.int64)
    for r, tokens in enumerate(token_lists):
        if len(tokens) > max_len:
            raise SequenceTooLongError(
                f"{len(tokens)} tokens exceed max_len {max_len}")
        ids[r, max_len - len(tokens):] = [vocab.id_of(t) for t in tokens]
        true_lens[r] = len(tokens)
    return ids, true_lens


def token_frequencies(ds: LabeledDataset, n: int) -> dict:
    """Per-class n-gram counts (the tabular stand-in for per-class token
    clouds)."""
    out = {name: Counter() for name in ds.class_names}
    for rec, label in zip(ds.records, ds.labels):
        out[label].update(tokenize(rec.residues, n))
    return out


def save_vocab(vocab: Vocabulary, max_len: int, path) -> None:
    tokens = [vocab.id_to_token[i] for i in range(2, vocab.size)]
    doc = {"n": vocab.n, "max_len": max_len, "pad_id": PAD_ID,
           "oov_id": OOV_ID, "tokens": tokens}
    atomic_write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_vocab(path):
    """Returns (Vocabulary, max_len); a malformed file is a DataError."""
    doc = read_json(path)
    try:
        token_to_id = {tok: i + 2 for i, tok in enumerate(doc["tokens"])}
        return Vocabulary(n=doc["n"], token_to_id=token_to_id), doc["max_len"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed vocabulary: {exc!r}") from exc
