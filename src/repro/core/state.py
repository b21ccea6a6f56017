"""AutoFL state features and their discretisation (paper Table 1).

The Q-table is indexed by a *global* state (NN characteristics and FL global parameters —
identical for every device within a training job) and a *local* state (per-device runtime
variance and data coverage).  Continuous features are discretised into the bins of paper
Table 1; :mod:`repro.core.dbscan` shows how such bins can be re-derived from observations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import GlobalParams
from repro.data.profiles import DeviceDataProfile
from repro.devices.device import RoundConditions
from repro.devices.fleet_arrays import RoundConditionsArrays
from repro.exceptions import PolicyError
from repro.network.bandwidth import BAD_NETWORK_THRESHOLD_MBPS
from repro.nn.workloads import WorkloadProfile


@dataclass(frozen=True)
class GlobalState:
    """Discretised global state: NN-related features plus FL global parameters."""

    s_conv: int
    s_fc: int
    s_rc: int
    s_batch: int
    s_epochs: int
    s_participants: int

    def as_tuple(self) -> tuple[int, ...]:
        """Hashable tuple form used as part of the Q-table key."""
        return (
            self.s_conv,
            self.s_fc,
            self.s_rc,
            self.s_batch,
            self.s_epochs,
            self.s_participants,
        )


@dataclass(frozen=True)
class LocalState:
    """Discretised per-device state: runtime variance plus local data coverage."""

    s_co_cpu: int
    s_co_mem: int
    s_network: int
    s_data: int

    def as_tuple(self) -> tuple[int, ...]:
        """Hashable tuple form used as part of the Q-table key."""
        return (self.s_co_cpu, self.s_co_mem, self.s_network, self.s_data)


def _bin_value(value: float, thresholds: list[float]) -> int:
    """Index of the first threshold exceeding ``value`` (``len(thresholds)`` if none)."""
    for index, threshold in enumerate(thresholds):
        if value < threshold:
            return index
    return len(thresholds)


def bin_values(values: np.ndarray, thresholds: list[float]) -> np.ndarray:
    """Vectorised :func:`_bin_value`: the bins of
    ``np.searchsorted(thresholds, values, side="right")``, as ``uint8``.

    One comparison per threshold, counted down from the top bin: each threshold a value
    falls below takes one bin off.  NaN falls below none and stays in the top bin, as in
    ``searchsorted`` and :func:`_bin_value` (counting ``values >= threshold`` up from 0
    would put it in bin 0).
    """
    bins = np.full(len(values), len(thresholds), dtype=np.uint8)
    for threshold in thresholds:
        bins -= values < threshold
    return bins


class StateEncoder:
    """Encodes raw observations into the discrete states of paper Table 1."""

    #: ``S_CONV``: none, small (<10), medium (<20), large (<30), larger (>=30).  A leading
    #: "none" bin is added to Table 1's bins so models without a layer family are
    #: distinguishable from models with a few such layers.
    CONV_THRESHOLDS = [0.5, 10.0, 20.0, 30.0]
    #: ``S_FC``: none, small (<10), large (>=10).
    FC_THRESHOLDS = [0.5, 10.0]
    #: ``S_RC``: none, small (<5), medium (<10), large (>=10).
    RC_THRESHOLDS = [0.5, 5.0, 10.0]
    #: ``S_B``: small (<8), medium (<32), large (>=32).
    BATCH_THRESHOLDS = [8.0, 32.0]
    #: ``S_E``: small (<5), medium (<10), large (>=10).
    EPOCH_THRESHOLDS = [5.0, 10.0]
    #: ``S_K``: small (<10), medium (<50), large (>=50).
    PARTICIPANT_THRESHOLDS = [10.0, 50.0]
    #: ``S_Co_CPU`` / ``S_Co_MEM``: none (0 %), small (<25 %), medium (<75 %), large.
    UTILIZATION_THRESHOLDS = [1e-9, 0.25, 0.75]
    #: ``S_Data``: small (<25 %), medium (<100 %), large (=100 %) of classes present.
    DATA_THRESHOLDS = [0.25, 0.999999]

    def encode_global(self, workload: WorkloadProfile, params: GlobalParams) -> GlobalState:
        """Discretise the NN characteristics and FL global parameters."""
        return GlobalState(
            s_conv=_bin_value(workload.num_conv_layers, self.CONV_THRESHOLDS),
            s_fc=_bin_value(workload.num_fc_layers, self.FC_THRESHOLDS),
            s_rc=_bin_value(workload.num_rc_layers, self.RC_THRESHOLDS),
            s_batch=_bin_value(params.batch_size, self.BATCH_THRESHOLDS),
            s_epochs=_bin_value(params.local_epochs, self.EPOCH_THRESHOLDS),
            s_participants=_bin_value(params.num_participants, self.PARTICIPANT_THRESHOLDS),
        )

    def encode_local(
        self, conditions: RoundConditions, data_profile: DeviceDataProfile
    ) -> LocalState:
        """Discretise one device's runtime conditions and data coverage."""
        if conditions is None or data_profile is None:
            raise PolicyError("conditions and data_profile are required to encode a local state")
        return LocalState(
            s_co_cpu=_bin_value(conditions.co_cpu_util, self.UTILIZATION_THRESHOLDS),
            s_co_mem=_bin_value(conditions.co_mem_util, self.UTILIZATION_THRESHOLDS),
            s_network=0 if conditions.bandwidth_mbps > BAD_NETWORK_THRESHOLD_MBPS else 1,
            s_data=_bin_value(data_profile.class_fraction, self.DATA_THRESHOLDS),
        )

    # ------------------------------------------------------------------ batch encoding
    #: Bin counts per local-state feature — the mixed radix of :meth:`local_code`.
    NUM_UTILIZATION_BINS = len(UTILIZATION_THRESHOLDS) + 1
    NUM_NETWORK_BINS = 2
    NUM_DATA_BINS = len(DATA_THRESHOLDS) + 1
    #: Total number of distinct packed local states (4 * 4 * 2 * 3 = 96).
    NUM_LOCAL_CODES = (
        NUM_UTILIZATION_BINS * NUM_UTILIZATION_BINS * NUM_NETWORK_BINS * NUM_DATA_BINS
    )

    @classmethod
    def local_code(cls, state: LocalState) -> int:
        """Pack a :class:`LocalState` into its dense integer code in ``[0, 96)``."""
        return (
            (state.s_co_cpu * cls.NUM_UTILIZATION_BINS + state.s_co_mem)
            * cls.NUM_NETWORK_BINS
            + state.s_network
        ) * cls.NUM_DATA_BINS + state.s_data

    def encode_local_codes(
        self, conditions: RoundConditionsArrays, class_fractions: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`encode_local` over aligned condition/coverage arrays.

        Returns packed local-state codes (``local_code`` of the per-device
        :class:`LocalState`).  Binning uses :func:`bin_values`, which is exactly
        ``_bin_value``'s first-threshold-exceeding rule including the on-threshold tie
        (a value equal to a threshold lands in the upper bin in both) and NaN (the top
        bin in both).
        """
        s_co_cpu = bin_values(conditions.co_cpu_util, self.UTILIZATION_THRESHOLDS)
        s_co_mem = bin_values(conditions.co_mem_util, self.UTILIZATION_THRESHOLDS)
        # 1 unless the bandwidth exceeds the threshold, NaN included, as in encode_local.
        s_network = ~(conditions.bandwidth_mbps > BAD_NETWORK_THRESHOLD_MBPS)
        s_data = bin_values(class_fractions, self.DATA_THRESHOLDS)
        # Every code is below NUM_LOCAL_CODES (96), so it is packed in bytes, which is
        # several times faster than in int64 at fleet scale, and widened once.
        codes = (
            (s_co_cpu * self.NUM_UTILIZATION_BINS + s_co_mem) * self.NUM_NETWORK_BINS
            + s_network
        ) * self.NUM_DATA_BINS + s_data
        return codes.astype(np.int64)
