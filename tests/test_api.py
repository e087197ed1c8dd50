"""The package's public surface is exactly `seqalign.__all__`."""

import types

import seqalign


def test_all_has_no_duplicates():
    assert len(seqalign.__all__) == len(set(seqalign.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in seqalign.__all__ if not hasattr(seqalign, name)]
    assert missing == []


def test_every_public_name_is_exported():
    bound = {
        name
        for name, value in vars(seqalign).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(seqalign.__all__)

