"""Communication time and energy model (paper Eq. 3).

Each participant uploads its model-gradient update to the aggregation server and downloads
the new global model.  Communication energy is ``P_TX^S * t_TX`` where the transmit power
depends on the signal strength ``S`` — transmitting on a weak link costs substantially more
power (paper Sections 3.2 and 5.2; the weak-network scenario raises communication time and
energy by roughly 4.3x on average).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.network.bandwidth import (
    BAD_NETWORK_THRESHOLD_MBPS,
    STRONG_NETWORK_THRESHOLD_MBPS,
    SignalStrength,
    signal_from_bandwidth,
)

#: Transmit power (W) of the wireless interface per signal-strength level.  Anchored at
#: published smartphone radio measurements: ~0.8 W for a strong link, rising steeply as the
#: link degrades and the power amplifier compensates.
TX_POWER_WATT: dict[SignalStrength, float] = {
    SignalStrength.STRONG: 0.8,
    SignalStrength.MODERATE: 1.3,
    SignalStrength.WEAK: 2.2,
}

#: Receive power (W) of the wireless interface (far less signal-dependent than transmit).
RX_POWER_WATT: dict[SignalStrength, float] = {
    SignalStrength.STRONG: 0.6,
    SignalStrength.MODERATE: 0.8,
    SignalStrength.WEAK: 1.0,
}

#: Protocol overhead multiplier on payload size (framing, retransmissions, TLS).
PROTOCOL_OVERHEAD = 1.10

#: Fraction of the nominal link bandwidth available for the model download (the downlink is
#: usually faster than the uplink on mobile links; modelled as 2x the uplink).
DOWNLINK_BANDWIDTH_FACTOR = 2.0


@dataclass(frozen=True)
class CommunicationEstimate:
    """Predicted communication cost of one participant for one round."""

    upload_time_s: float
    download_time_s: float
    energy_j: float
    signal: SignalStrength

    @property
    def total_time_s(self) -> float:
        """Total time the radio is active for FL traffic."""
        return self.upload_time_s + self.download_time_s


class CommunicationModel:
    """Computes per-round communication time and energy for a participant."""

    def __init__(self, protocol_overhead: float = PROTOCOL_OVERHEAD) -> None:
        if protocol_overhead < 1.0:
            raise ConfigurationError("protocol_overhead must be >= 1.0")
        self._protocol_overhead = protocol_overhead

    def transfer_time_s(self, payload_mb: float, bandwidth_mbps: float) -> float:
        """Time to transfer ``payload_mb`` megabytes over a ``bandwidth_mbps`` link."""
        if payload_mb < 0:
            raise ConfigurationError("payload_mb must be non-negative")
        if bandwidth_mbps <= 0:
            raise ConfigurationError("bandwidth_mbps must be positive")
        payload_megabits = payload_mb * 8.0 * self._protocol_overhead
        return payload_megabits / bandwidth_mbps

    def estimate(
        self,
        model_size_mb: float,
        bandwidth_mbps: float,
        signal: SignalStrength | None = None,
    ) -> CommunicationEstimate:
        """Estimate the upload/download time and radio energy for one round.

        Parameters
        ----------
        model_size_mb:
            Size of the model (gradient update and global model are the same size for
            FedAvg-style aggregation), in megabytes.
        bandwidth_mbps:
            Sampled uplink bandwidth for this device and round.
        signal:
            Optional explicit signal-strength level; derived from the bandwidth when omitted.
        """
        signal = signal if signal is not None else signal_from_bandwidth(bandwidth_mbps)
        upload_time = self.transfer_time_s(model_size_mb, bandwidth_mbps)
        download_time = self.transfer_time_s(
            model_size_mb, bandwidth_mbps * DOWNLINK_BANDWIDTH_FACTOR
        )
        energy = TX_POWER_WATT[signal] * upload_time + RX_POWER_WATT[signal] * download_time
        return CommunicationEstimate(
            upload_time_s=upload_time,
            download_time_s=download_time,
            energy_j=energy,
            signal=signal,
        )

    def estimate_batch(
        self, model_size_mb: float, bandwidth_mbps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised :meth:`estimate` over per-device bandwidths.

        Returns ``(upload_time_s, download_time_s, energy_j)`` arrays; the per-device
        signal level is derived from the bandwidth exactly as in the scalar path.
        """
        if model_size_mb < 0:
            raise ConfigurationError("model_size_mb must be non-negative")
        if (bandwidth_mbps <= 0).any():
            raise ConfigurationError("bandwidth_mbps must be positive")
        payload_megabits = model_size_mb * 8.0 * self._protocol_overhead
        upload_time = payload_megabits / bandwidth_mbps
        download_time = payload_megabits / (bandwidth_mbps * DOWNLINK_BANDWIDTH_FACTOR)
        # First-match signal banding as nested np.where — same values as np.select
        # over the ordered conditions, without its per-choice temporary arrays.
        strong = bandwidth_mbps > STRONG_NETWORK_THRESHOLD_MBPS
        moderate = bandwidth_mbps > BAD_NETWORK_THRESHOLD_MBPS
        tx_power = np.where(
            strong,
            TX_POWER_WATT[SignalStrength.STRONG],
            np.where(
                moderate,
                TX_POWER_WATT[SignalStrength.MODERATE],
                TX_POWER_WATT[SignalStrength.WEAK],
            ),
        )
        rx_power = np.where(
            strong,
            RX_POWER_WATT[SignalStrength.STRONG],
            np.where(
                moderate,
                RX_POWER_WATT[SignalStrength.MODERATE],
                RX_POWER_WATT[SignalStrength.WEAK],
            ),
        )
        energy = tx_power * upload_time + rx_power * download_time
        return upload_time, download_time, energy
