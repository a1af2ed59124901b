"""Seed derivation and atomic file writes."""

import os

import numpy as np
import pytest

from hostseq.util import atomic_write_bytes, atomic_write_text, derive_seed


def test_derive_seed_deterministic():
    assert derive_seed(7, "outer", 3) == derive_seed(7, "outer", 3)


def test_derive_seed_distinct_keys():
    seeds = {
        derive_seed(7, "outer", 3),
        derive_seed(7, "outer", 4),
        derive_seed(7, "inner", 3),
        derive_seed(8, "outer", 3),
    }
    assert len(seeds) == 4


def test_derive_seed_type():
    s = derive_seed(0, "x")
    assert isinstance(s, int)
    assert s >= 0


# Seeds every artifact depends on: derive_seed must keep these values.
@pytest.mark.parametrize("keys, seed", [
    (("outer",), 1534362394292100088),
    (("héllo",), 17903491545082624886),
    ((2022, "kfold"), 8701897908510324770),
    ((7, "outer", 3), 14139800736200857714),
    ((1, "outer", 0, "grid", 1, "inner", 1), 12172302858304672259),
    ((0,), 15793235383387715774),
    ((2**32 - 1,), 3028043900922232328),
    ((2**32,), 5836529245451711556),
    ((2**63 - 25,), 13461218566075252259),
    ((2**64 + 5,), 4306970560664876850),
    ((np.uint64(2**64 - 1),), 12591116029944179981),
    ((True,), 7434755675892716031),
    ((False, "x"), 3260604885678447477),
])
def test_derive_seed_pinned_values(keys, seed):
    assert derive_seed(*keys) == seed


def test_derive_seed_negative_key_raises():
    with pytest.raises(ValueError,
                       match=r"^seed keys must be non-negative, got -1$"):
        derive_seed(1, "outer", -1)


def test_atomic_write_text(tmp_path):
    path = tmp_path / "a.txt"
    atomic_write_text(path, "hello\n")
    assert path.read_text() == "hello\n"
    atomic_write_text(path, "replaced\n")
    assert path.read_text() == "replaced\n"
    assert os.listdir(tmp_path) == ["a.txt"]  # no stray temp files


def test_atomic_write_bytes(tmp_path):
    path = tmp_path / "b.bin"
    atomic_write_bytes(path, b"\x00\x01")
    assert path.read_bytes() == b"\x00\x01"
    assert os.listdir(tmp_path) == ["b.bin"]
