"""Model-aggregation server and its two training backends.

The server side of Figure 2: select K participants (done by a selection policy), broadcast
the global model, collect local updates, aggregate and evaluate.  Two interchangeable
backends implement the "train and evaluate" part:

* :class:`NumpyTrainingBackend` performs real local SGD on per-device shards with the numpy
  neural-network library and evaluates the aggregated model on a held-out test set.
* :class:`SurrogateTrainingBackend` advances the analytical convergence model of
  :mod:`repro.fl.surrogate`, which is what the large-scale experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import GlobalParams
from repro.data.federated import FederatedDataset
from repro.data.profiles import DataProfileArrays
from repro.exceptions import SimulationError
from repro.fl.aggregation import Aggregator, ClientUpdate
from repro.fl.client import FLClient
from repro.fl.surrogate import SurrogateConvergenceModel
from repro.fl.trainer import LocalTrainer
from repro.nn.model import Sequential
from repro.nn.workloads import WorkloadProfile


@dataclass(frozen=True)
class RoundTrainingResult:
    """Statistical outcome of one aggregation round."""

    accuracy: float
    previous_accuracy: float
    mean_train_loss: float
    num_updates: int

    @property
    def accuracy_improvement(self) -> float:
        """Accuracy delta relative to the previous round (drives the AutoFL reward)."""
        return self.accuracy - self.previous_accuracy


class TrainingBackend:
    """Interface shared by the surrogate and numpy training backends."""

    @property
    def accuracy(self) -> float:
        """Current global-model accuracy."""
        raise NotImplementedError

    def run_round(self, participant_ids: list[int]) -> RoundTrainingResult:
        """Execute one aggregation round with the given participants."""
        raise NotImplementedError


class SurrogateTrainingBackend(TrainingBackend):
    """Training backend driven by the analytical convergence model."""

    def __init__(
        self,
        workload: WorkloadProfile,
        data_profiles: DataProfileArrays,
        aggregator: Aggregator,
        global_params: GlobalParams,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not data_profiles:
            raise SimulationError("data_profiles must not be empty")
        self._data_profiles = data_profiles
        self._global_params = global_params
        self._model = SurrogateConvergenceModel(
            workload,
            aggregator_robustness=aggregator.surrogate_robustness,
            rng=rng if rng is not None else np.random.default_rng(0),
        )

    @property
    def accuracy(self) -> float:
        return self._model.accuracy

    def run_round(self, participant_ids: list[int]) -> RoundTrainingResult:
        previous = self._model.accuracy
        profiles = self._data_profiles
        try:
            rows = profiles.rows_for(participant_ids)
        except KeyError as exc:
            raise SimulationError(f"no data profile for device {exc.args[0]}") from None
        accuracy = self._model.step(
            profiles.data_quality[rows],
            profiles.num_samples[rows],
            local_epochs=self._global_params.local_epochs,
            num_expected_participants=self._global_params.num_participants,
        )
        return RoundTrainingResult(
            accuracy=accuracy,
            previous_accuracy=previous,
            mean_train_loss=max(0.0, 1.0 - accuracy),
            num_updates=len(participant_ids),
        )


class NumpyTrainingBackend(TrainingBackend):
    """Training backend running real local SGD with the numpy neural-network library."""

    def __init__(
        self,
        model: Sequential,
        federated_dataset: FederatedDataset,
        aggregator: Aggregator,
        global_params: GlobalParams,
        test_features: np.ndarray,
        test_labels: np.ndarray,
        learning_rate: float = 0.05,
        rng: np.random.Generator | None = None,
    ) -> None:
        if len(test_features) == 0:
            raise SimulationError("test set must not be empty")
        self._model = model
        self._dataset = federated_dataset
        self._aggregator = aggregator
        self._global_params = global_params
        self._test_features = test_features
        self._test_labels = test_labels
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._trainer = LocalTrainer()
        self._clients: dict[int, FLClient] = {}
        self._learning_rate = learning_rate
        self._global_weights = model.get_weights()
        self._accuracy = self._evaluate()

    @property
    def accuracy(self) -> float:
        return self._accuracy

    @property
    def global_weights(self) -> list[dict[str, np.ndarray]]:
        """Copy of the current global model weights."""
        return [{name: value.copy() for name, value in layer.items()} for layer in self._global_weights]

    def _client(self, device_id: int) -> FLClient:
        if device_id not in self._clients:
            local = self._dataset.local_dataset(device_id)
            self._clients[device_id] = FLClient(
                device_id=device_id,
                features=local.features,
                labels=local.labels,
                learning_rate=self._learning_rate,
            )
        return self._clients[device_id]

    def _evaluate(self) -> float:
        self._model.set_weights(self._global_weights)
        return self._trainer.evaluate(self._model, self._test_features, self._test_labels)

    def run_round(self, participant_ids: list[int]) -> RoundTrainingResult:
        if not participant_ids:
            return RoundTrainingResult(
                accuracy=self._accuracy,
                previous_accuracy=self._accuracy,
                mean_train_loss=0.0,
                num_updates=0,
            )
        previous = self._accuracy
        updates: list[ClientUpdate] = []
        for device_id in participant_ids:
            client = self._client(device_id)
            if client.num_samples == 0:
                continue
            updates.append(
                client.local_update(
                    self._model,
                    self._global_weights,
                    batch_size=self._global_params.batch_size,
                    epochs=self._global_params.local_epochs,
                    rng=self._rng,
                    proximal_mu=self._aggregator.client_proximal_mu,
                )
            )
        if updates:
            self._global_weights = self._aggregator.aggregate(self._global_weights, updates)
        self._accuracy = self._evaluate()
        mean_loss = float(np.mean([update.train_loss for update in updates])) if updates else 0.0
        return RoundTrainingResult(
            accuracy=self._accuracy,
            previous_accuracy=previous,
            mean_train_loss=mean_loss,
            num_updates=len(updates),
        )
