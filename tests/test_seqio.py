"""Corpus ingestion: FASTA grammar, alphabet filter, host labels, dedup."""

import pytest

from hostseq import seqio


SIMPLE = """\
>r1|host=Human
MKTIIALSYILCLVFA
>r2|host=chicken
MKAILVVLLYTFATANA
"""


def test_parse_fasta_basic():
    records = seqio.parse_fasta(SIMPLE)
    assert [r.id for r in records] == ["r1", "r2"]
    assert records[0].residues == "MKTIIALSYILCLVFA"
    assert records[0].metadata == {"host": "Human"}


def test_parse_fasta_multiline_and_case():
    text = ">a|host=human\nmkti\n ialsy \nILCL\n"
    (rec,) = seqio.parse_fasta(text)
    assert rec.residues == "MKTIIALSYILCL"


def test_parse_fasta_rejects_data_before_header():
    with pytest.raises(seqio.MalformedFastaError, match="before any header"):
        seqio.parse_fasta("MKTI\n>a|host=human\nMKTI\n")


def test_parse_fasta_rejects_empty_body():
    with pytest.raises(seqio.MalformedFastaError, match="empty sequence body"):
        seqio.parse_fasta(">a|host=human\n>b|host=human\nMKTI\n")


def test_parse_fasta_rejects_duplicate_id():
    text = ">a|host=human\nMK\n>a|host=human\nMI\n"
    with pytest.raises(seqio.MalformedFastaError, match="duplicate record id"):
        seqio.parse_fasta(text)


def test_header_parser_errors_name_line():
    with pytest.raises(seqio.MalformedFastaError, match="line 1"):
        seqio.parse_fasta(">a|hostless\nMK\n")


def test_write_fasta_roundtrip():
    records = seqio.parse_fasta(SIMPLE)
    text = seqio.write_fasta(records)
    again = seqio.parse_fasta(text)
    assert again == records


def test_coarse_host_mapping():
    assert seqio.coarse_host("Human") == "human"
    assert seqio.coarse_host("pig") == "swine"
    assert seqio.coarse_host("swine") == "swine"
    for h in ("chicken", "duck", "mallard", "avian"):
        assert seqio.coarse_host(h) == "avian"
    with pytest.raises(seqio.UnknownHostError):
        seqio.coarse_host("ferret")


def test_dedup_keeps_first_and_counts():
    recs = seqio.assign_host_labels(seqio.parse_fasta(
        ">a|host=human\nMKTI\n"
        ">b|host=human\nMKTI\n"
        ">c|host=chicken\nAAAA\n"
    ))
    ds, report = seqio.dedup_and_resolve(recs, "coarse")
    assert [r.id for r in ds.records] == ["a", "c"]
    assert report["dropped_duplicate"] == 1
    assert report["kept"] == 2


def test_dedup_drops_conflicting_labels_entirely():
    recs = seqio.assign_host_labels(seqio.parse_fasta(
        ">a|host=human\nMKTI\n"
        ">b|host=chicken\nMKTI\n"
        ">c|host=duck\nAAAA\n"
    ))
    ds, report = seqio.dedup_and_resolve(recs, "coarse")
    assert [r.id for r in ds.records] == ["c"]
    assert report["dropped_multilabel"] == 2


def test_dedup_conflict_is_level_dependent():
    # chicken vs duck collide at fine level but agree at coarse level
    recs = seqio.assign_host_labels(seqio.parse_fasta(
        ">a|host=chicken\nMKTI\n"
        ">b|host=duck\nMKTI\n"
    ))
    coarse_ds, _ = seqio.dedup_and_resolve(recs, "coarse")
    fine_ds, fine_report = seqio.dedup_and_resolve(recs, "fine")
    assert len(coarse_ds) == 1
    assert len(fine_ds) == 0
    assert fine_report["dropped_multilabel"] == 2


def test_prepare_corpus_counts():
    text = (
        ">a|host=human\nMKTI\n"
        ">b|host=human\nMKXI\n"       # rejected: X
        ">c|host=human\nMKTI\n"       # duplicate of a
        ">d|host=chicken|incomplete=true\nMKAI\n"
        ">e|host=duck\nMKCI\n"
    )
    ds, report = seqio.prepare_corpus(text, "coarse", drop_incomplete=True)
    assert report == {"parsed": 5, "rejected_alphabet": 1,
                      "dropped_incomplete": 1, "dropped_duplicate": 1,
                      "dropped_multilabel": 0, "kept": 2}
    assert sorted(ds.labels) == ["avian", "human"]
    assert ds.class_names == ("avian", "human")  # sorted, not first seen


def test_dataset_roundtrip(tmp_path):
    ds, _ = seqio.prepare_corpus(SIMPLE, "fine")
    path = tmp_path / "dataset.json"
    seqio.save_dataset(ds, path)
    loaded = seqio.load_dataset(path)
    assert loaded == ds


def test_dataset_rejects_label_outside_class_names():
    rec = seqio.ProteinRecord(id="a", residues="MK", fine_label="human")
    with pytest.raises(seqio.DataError, match="outside class_names"):
        seqio.LabeledDataset(records=(rec,), level="fine", class_names=("avian",))
