"""``synthesize_data_profiles`` is bit-identical to the per-device oracle it replaced.

The oracle (``scalar_profiles.py``) draws and summarises one device at a time.  The
array-native synthesiser must return the same profiles — every float compared by its bit
pattern, since ``==`` equates ``-0.0`` and ``0.0`` but golden JSON does not — and leave the
generator in the same state.  All committed goldens are IID, so this is the pin on the
non-IID path; it also fails if numpy changes its Dirichlet construction.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.profiles import _dirichlet, synthesize_data_profiles
from repro.exceptions import DataError
from scalar_profiles import scalar_synthesize_data_profiles

DISTRIBUTIONS = ("iid", "non_iid_50", "non_iid_75", "non_iid_100")


def _fingerprint(profiles):
    return [
        (
            device_id,
            profile.device_id,
            profile.num_samples,
            profile.class_fraction.hex(),
            profile.balance_score.hex(),
            profile.is_non_iid,
        )
        for device_id, profile in profiles.items()
    ]


def _assert_matches_oracle(device_ids, distribution, num_classes, samples, seed, concentration):
    oracle_rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    expected = scalar_synthesize_data_profiles(
        device_ids, distribution, num_classes, samples, oracle_rng, concentration
    )
    actual = synthesize_data_profiles(
        device_ids, distribution, num_classes, samples, rng, concentration
    )
    assert _fingerprint(actual) == _fingerprint(expected)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    return actual


@pytest.mark.parametrize("concentration", [0.05, 0.1, 1.0])
@pytest.mark.parametrize("samples", [1, 5, 300])
@pytest.mark.parametrize("num_classes", [2, 10, 100])
@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_matches_oracle(distribution, num_classes, samples, concentration):
    for seed in range(4):
        _assert_matches_oracle(
            list(range(40)), distribution, num_classes, samples, seed, concentration
        )


def test_empty_and_single_class_devices_keep_their_zero_signs():
    # One sample per device at most: a device with no samples scores 0.0, a device
    # with one sample holds one class and scores the oracle's -0.0.
    profiles = _assert_matches_oracle(list(range(200)), "non_iid_50", 10, 1, 5, 0.1)
    scores = {profile.balance_score.hex() for profile in profiles.values()}
    assert scores == {(0.0).hex(), (-0.0).hex()}
    assert {profile.num_samples for profile in profiles.values()} == {0, 1}


def test_more_classes_than_one_pairwise_block():
    # numpy sums more than 128 values in recursive halves; the rows must still match.
    _assert_matches_oracle(list(range(30)), "non_iid_50", 300, 400, 2, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    device_ids=st.lists(
        st.integers(min_value=0, max_value=10**6), min_size=1, max_size=60, unique=True
    ),
    distribution=st.sampled_from(DISTRIBUTIONS),
    num_classes=st.integers(min_value=2, max_value=40),
    samples=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    concentration=st.floats(min_value=0.02, max_value=60.0),
)
def test_matches_oracle_on_random_fleets(
    device_ids, distribution, num_classes, samples, seed, concentration
):
    _assert_matches_oracle(device_ids, distribution, num_classes, samples, seed, concentration)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    alpha=st.one_of(
        st.sampled_from([0.05, 0.0999, 0.1, 0.1000001, 1.0, 50.0]),
        st.floats(min_value=0.01, max_value=100.0),
    ),
    num_classes=st.integers(min_value=2, max_value=300),
)
def test_class_mix_is_numpys_dirichlet(seed, alpha, num_classes):
    # The class mix itself, bit for bit: the profiles only see it through the
    # multinomial counts, which a last-bit difference in the mix rarely moves.
    oracle_rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    expected = oracle_rng.dirichlet(np.full(num_classes, alpha))
    assert _dirichlet(rng, alpha, num_classes).tobytes() == expected.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("distribution", ["iid", "non_iid_100"])
@pytest.mark.parametrize("concentration", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_concentration_must_be_finite_and_positive(distribution, concentration):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DataError, match="concentration"):
        synthesize_data_profiles(list(range(10)), distribution, 10, 300, rng, concentration)
    assert rng.bit_generator.state == state


def test_duplicate_device_ids_rejected():
    with pytest.raises(DataError, match="unique"):
        synthesize_data_profiles([3, 1, 3], "non_iid_50", 10, 300, np.random.default_rng(0))
