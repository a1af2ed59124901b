"""n-gram tokenization, vocabulary construction, left-padded encoding."""

import numpy as np
import pytest

from hostseq import ngram, seqio, store


def test_tokenize_reference_trigrams():
    assert ngram.tokenize("MLSITILFL", 3) == [
        "MLS", "LSI", "SIT", "ITI", "TIL", "ILF", "LFL"]


def test_tokenize_token_count():
    for n in (1, 2, 3, 5):
        toks = ngram.tokenize("MKTIIALSYI", n)
        assert len(toks) == 10 - n + 1
        assert all(len(t) == n for t in toks)


def test_tokenize_n_equals_length():
    assert ngram.tokenize("MKT", 3) == ["MKT"]


def test_tokenize_too_short():
    with pytest.raises(ngram.DataError,
                       match="cannot take 3-grams of a length-2 sequence"):
        ngram.tokenize("MK", 3)


def test_tokenize_n_bounds():
    with pytest.raises(ValueError):
        ngram.tokenize("MKTIIALSYILCL", 0)
    with pytest.raises(ValueError):
        ngram.tokenize("MKTIIALSYILCL", ngram.MAX_N + 1)


def test_build_vocab_first_appearance_order():
    vocab = ngram.build_vocab([["AA", "AB"], ["AB", "AC"]], 2)
    assert vocab.token_to_id == {"AA": 2, "AB": 3, "AC": 4}
    assert vocab.size == 5
    assert vocab.id_of("AA") == 2
    assert vocab.id_of("ZZ") == ngram.OOV_ID


def test_build_vocab_empty_corpus():
    with pytest.raises(seqio.DataError):
        ngram.build_vocab([], 2)


def test_encode_corpus_pads_left_and_maps_oov():
    vocab = ngram.build_vocab([["AA", "AB", "AC"]], 2)
    ids = ngram.encode_corpus([["AB", "ZZ"]], vocab, max_len=5)
    assert list(ids[0]) == [0, 0, 0, 3, ngram.OOV_ID]
    assert list(ngram.true_lengths(ids)) == [2]


def test_encode_corpus_rejects_overflow():
    vocab = ngram.build_vocab([["AA"]], 2)
    with pytest.raises(ngram.DataError, match="4 tokens exceed max_len 3"):
        ngram.encode_corpus([["AA"], ["AA"] * 4], vocab, max_len=3)


def test_encode_corpus_matrix():
    vocab = ngram.build_vocab([["AA", "AB"], ["AB"]], 2)
    ids = ngram.encode_corpus([["AA", "AB"], ["AB"]], vocab, 3)
    assert ids.shape == (2, 3)
    assert list(ids[0]) == [0, 2, 3]
    assert list(ids[1]) == [0, 0, 3]
    assert list(ngram.true_lengths(ids)) == [2, 1]


def test_token_frequencies_by_class():
    recs = seqio.assign_host_labels(seqio.parse_fasta(
        ">a|host=human\nAAAC\n"
        ">b|host=human\nAACA\n"
        ">c|host=chicken\nCCCC\n"
    ))
    ds, _ = seqio.dedup_and_resolve(recs, "coarse")
    freqs = ngram.token_frequencies(ds, 2)
    assert freqs["human"]["AA"] == 3
    assert freqs["human"]["AC"] == 2
    assert freqs["avian"] == {"CC": 3}


def test_vocab_roundtrip(tmp_path):
    corpus = [ngram.tokenize("MKTIIALSYI", 3), ngram.tokenize("MKTAYILCLV", 3)]
    vocab = ngram.build_vocab(corpus, 3)
    path = tmp_path / "vocab.json"
    store.save_vocab(vocab, max_len=8, path=path)
    loaded, max_len = store.load_vocab(path)
    assert max_len == 8
    assert loaded.n == 3
    assert loaded.token_to_id == vocab.token_to_id
    ids_a = ngram.encode_corpus(corpus, vocab, 8)
    ids_b = ngram.encode_corpus(corpus, loaded, 8)
    assert np.array_equal(ids_a, ids_b)
