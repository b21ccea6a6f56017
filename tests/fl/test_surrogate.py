"""Tests for the surrogate convergence model."""

import math

import numpy as np
import pytest

from repro.data.profiles import DeviceDataProfile
from repro.exceptions import SimulationError
from repro.fl.surrogate import STALL_QUALITY_THRESHOLD, SurrogateConvergenceModel
from repro.nn.workloads import CNN_MNIST


def _profile(device_id, quality, num_samples=300, non_iid=False):
    return DeviceDataProfile(
        device_id=device_id,
        num_samples=num_samples,
        class_fraction=quality,
        balance_score=quality,
        is_non_iid=non_iid,
    )


def _arrays(profiles):
    """The (data_quality, num_samples) arrays a round hands the model."""
    return (
        np.array([profile.data_quality for profile in profiles], dtype=np.float64),
        np.array([profile.num_samples for profile in profiles], dtype=np.int64),
    )


def _iid_participants(count=10):
    return _arrays([_profile(device_id, 0.97) for device_id in range(count)])


def _non_iid_participants(count=10):
    return _arrays([_profile(device_id, 0.25, non_iid=True) for device_id in range(count)])


@pytest.fixture
def model():
    return SurrogateConvergenceModel(CNN_MNIST, rng=np.random.default_rng(0), noise_scale=0.0)


class TestSurrogateConvergence:
    def test_round_quality_sums_left_to_right(self, model):
        # One dominant term and ten below half its ULP: a left-to-right sum drops each
        # small term, a compensated sum (math.fsum, or the built-in sum from Python 3.12
        # on) keeps them, so the two give different bits.
        participants = [DeviceDataProfile(0, 1, 1.0, 1.0, False)] + [
            DeviceDataProfile(device_id, 1, 2e-16, 0.0, True) for device_id in range(1, 11)
        ]
        terms = [profile.data_quality * profile.num_samples for profile in participants]
        expected = 0.0
        for term in terms:
            expected += term
        assert math.fsum(terms) != expected
        assert model.round_quality(*_arrays(participants)) == expected / len(participants)

    def test_iid_rounds_make_progress(self, model):
        before = model.accuracy
        after = model.step(
            *_iid_participants(), local_epochs=5, num_expected_participants=10
        )
        assert after > before

    def test_iid_training_converges_to_target(self, model):
        for _ in range(200):
            model.step(*_iid_participants(), 5, 10)
        assert model.accuracy >= CNN_MNIST.target_accuracy

    def test_non_iid_rounds_stall(self, model):
        for _ in range(100):
            model.step(*_non_iid_participants(), 5, 10)
        assert model.accuracy < 0.3

    def test_round_quality_weighted_by_samples(self, model):
        heavy_good = [_profile(0, 0.9, num_samples=900), _profile(1, 0.1, num_samples=100)]
        assert model.round_quality(*_arrays(heavy_good)) == pytest.approx(0.82, abs=0.01)
        assert model.round_quality(*_arrays([])) == 0.0

    def test_more_epochs_make_faster_progress(self):
        slow = SurrogateConvergenceModel(CNN_MNIST, rng=np.random.default_rng(0), noise_scale=0.0)
        fast = SurrogateConvergenceModel(CNN_MNIST, rng=np.random.default_rng(0), noise_scale=0.0)
        slow.step(*_iid_participants(), local_epochs=1, num_expected_participants=10)
        fast.step(*_iid_participants(), local_epochs=10, num_expected_participants=10)
        assert fast.accuracy > slow.accuracy

    def test_dropped_participants_slow_progress(self):
        full = SurrogateConvergenceModel(CNN_MNIST, rng=np.random.default_rng(0), noise_scale=0.0)
        partial = SurrogateConvergenceModel(
            CNN_MNIST, rng=np.random.default_rng(0), noise_scale=0.0
        )
        full.step(*_iid_participants(20), 5, 20)
        partial.step(*_iid_participants(5), 5, 20)
        assert full.accuracy > partial.accuracy

    def test_robust_aggregator_mitigates_heterogeneity(self):
        # Pick a mixed-quality round just below the stall threshold for plain FedAvg.
        participants = _arrays([_profile(i, 0.45) for i in range(10)])
        plain = SurrogateConvergenceModel(CNN_MNIST, 0.0, np.random.default_rng(0), noise_scale=0.0)
        robust = SurrogateConvergenceModel(
            CNN_MNIST, 0.45, np.random.default_rng(0), noise_scale=0.0
        )
        plain.step(*participants, 5, 10)
        robust.step(*participants, 5, 10)
        assert robust.accuracy > plain.accuracy

    def test_accuracy_never_exceeds_max(self, model):
        for _ in range(500):
            model.step(*_iid_participants(), 10, 10)
        assert model.accuracy <= CNN_MNIST.max_accuracy

    def test_empty_round_only_drifts(self, model):
        before = model.accuracy
        after = model.step(*_arrays([]), 5, 10)
        assert after == pytest.approx(before, abs=0.02)

    def test_reset(self, model):
        model.step(*_iid_participants(), 5, 10)
        model.reset()
        assert model.accuracy == pytest.approx(0.10)

    def test_validation(self):
        with pytest.raises(SimulationError):
            SurrogateConvergenceModel(CNN_MNIST, aggregator_robustness=1.5)
        with pytest.raises(SimulationError):
            SurrogateConvergenceModel(CNN_MNIST, initial_accuracy=0.999)
        model = SurrogateConvergenceModel(CNN_MNIST)
        with pytest.raises(SimulationError):
            model.step(*_iid_participants(), 0, 10)

    def test_stall_threshold_in_sensible_range(self):
        assert 0.3 < STALL_QUALITY_THRESHOLD < 0.8
