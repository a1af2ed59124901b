"""Seeded input files for the benchmark workloads.

Every file is a pure function of the workload seed, built with the
program's own synthetic-corpus generator; the CLI under test receives
only the files written here.
"""

from __future__ import annotations

import os

import numpy as np

from hostseq import pssm, seqio, synth
from hostseq.util import derive_seed

# Synthetic class i stands for host HOSTS[i]. "chicken" exercises the
# fine-to-coarse mapping (chicken -> avian) that `prepare` applies.
HOSTS = ("human", "chicken", "swine")
DUPLICATE_SHARE = 0.05
NONCANONICAL_RECORDS = 3


def corpus(seed: int, records: int, min_len: int, max_len: int):
    spec = synth.SynthSpec(classes=synth.default_classes(len(HOSTS)),
                           records=records, min_len=min_len, max_len=max_len,
                           seed=seed)
    return synth.generate(spec)


def write_dataset(out_dir: str, seed: int, records: int, min_len: int,
                  max_len: int) -> dict:
    """dataset.json for workloads that start from a prepared corpus."""
    seqio.save_dataset(corpus(seed, records, min_len, max_len),
                       os.path.join(out_dir, "dataset.json"))
    return {}


def write_fasta_and_pssms(out_dir: str, seed: int, records: int,
                          min_len: int, max_len: int) -> dict:
    """corpus.fasta with host names, plus pssms/<id>.pssm per record.

    The FASTA also carries exact duplicates of some records and a few
    records with a non-canonical residue, so that the dedup and alphabet
    filters of `prepare` do real work. Returns the counts they must
    report.
    """
    ds = corpus(seed, records, min_len, max_len)
    rng = np.random.default_rng(derive_seed(seed, "bench-ingest"))
    host = {name: HOSTS[i] for i, name in enumerate(ds.class_names)}
    kept = [seqio.ProteinRecord(id=r.id, residues=r.residues,
                                metadata={"host": host[r.fine_label]})
            for r in ds.records]
    n_dup = max(1, round(DUPLICATE_SHARE * len(kept)))
    duplicates = [
        seqio.ProteinRecord(id=f"dup-{i}", residues=kept[j].residues,
                            metadata=kept[j].metadata)
        for i, j in enumerate(rng.choice(len(kept), n_dup, replace=False))]
    rejected = []
    for i, j in enumerate(rng.choice(len(kept), NONCANONICAL_RECORDS,
                                     replace=False)):
        residues = kept[j].residues
        pos = int(rng.integers(len(residues)))
        rejected.append(seqio.ProteinRecord(
            id=f"noncanonical-{i}",
            residues=residues[:pos] + "X" + residues[pos + 1:],
            metadata=kept[j].metadata))
    with open(os.path.join(out_dir, "corpus.fasta"), "w",
              encoding="utf-8") as fh:
        fh.write(seqio.write_fasta(kept + duplicates + rejected))
    pssm_dir = os.path.join(out_dir, "pssms")
    os.makedirs(pssm_dir)
    for r in kept:
        raw = pssm.synth_pssm(r.residues, seed)
        with open(os.path.join(pssm_dir, f"{r.id}.pssm"), "w",
                  encoding="utf-8") as fh:
            fh.write(pssm.render_psiblast_pssm(raw))
    return {"parsed": len(kept) + n_dup + NONCANONICAL_RECORDS,
            "kept": len(kept), "dropped_duplicate": n_dup,
            "rejected_alphabet": NONCANONICAL_RECORDS}
