"""Build FeatureSets from in-memory records, as the tests need them."""

import numpy as np

from speechdep.features import FeatureSet


def feature_set(records, normalized=True) -> FeatureSet:
    """LogSpectrogram records of one shape stacked into one FeatureSet, as a cache read would hold them."""
    return FeatureSet(
        np.stack([r.values for r in records]),
        [r.speaker_id for r in records],
        [r.crop_index for r in records],
        [r.label for r in records],
        normalized,
    )
