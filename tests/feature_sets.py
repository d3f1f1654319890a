"""Build FeatureSets from in-memory records, as the tests need them, on either backing."""

import tempfile

import numpy as np
import pytest

from speechdep.features import FeatureSet, open_feature_cache, read_feature_cache, write_feature_cache

# run a test once per backing: a block read into memory, and a cache opened on its file
BACKINGS = pytest.mark.parametrize("reader", [read_feature_cache, open_feature_cache], ids=["read", "opened"])


def feature_set(records, normalized=True) -> FeatureSet:
    """LogSpectrogram records of one shape stacked into one FeatureSet, as a cache read would hold them."""
    return FeatureSet(
        np.stack([r.values for r in records]),
        [r.speaker_id for r in records],
        [r.crop_index for r in records],
        [r.label for r in records],
        normalized,
    )


def cached_set(records, directory, reader=open_feature_cache, normalize=True) -> FeatureSet:
    """Pre-normalization records written to a new cache file in directory, then read back by reader."""
    with tempfile.NamedTemporaryFile(suffix=".lspg", dir=directory, delete=False) as fh:
        path = fh.name
    write_feature_cache(path, records)
    return reader(path, normalize)
