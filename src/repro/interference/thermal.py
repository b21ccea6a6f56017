"""Thermal-throttling model.

Paper Section 6.2 attributes part of the CPU's degradation under interference to "frequent
thermal throttling": sustained high power draw on a passively cooled phone forces the DVFS
governor to cap the frequency.  The model here converts sustained power (training plus
co-runner) into an additional throttling slowdown applied to CPU execution.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError


class ThermalModel:
    """Simple steady-state thermal throttling model.

    The sustainable power budget of a passively cooled phone chassis is a few watts; power
    drawn above that budget is assumed to force a proportional frequency (and therefore
    performance) reduction once the thermal capacitance is exhausted, which is the
    steady-state behaviour relevant to multi-minute training rounds.
    """

    def __init__(
        self, sustainable_power_watt: float = 4.0, throttle_sensitivity: float = 0.12
    ) -> None:
        if sustainable_power_watt <= 0:
            raise ConfigurationError("sustainable_power_watt must be positive")
        if throttle_sensitivity < 0:
            raise ConfigurationError("throttle_sensitivity must be non-negative")
        self._budget = sustainable_power_watt
        self._sensitivity = throttle_sensitivity

    @property
    def sustainable_power_watt(self) -> float:
        """Chassis-level sustainable power budget in watts."""
        return self._budget

    def throttle_slowdown(self, sustained_power_watt: float) -> float:
        """Additional slowdown factor (>= 1.0) for a sustained power draw.

        Power at or below the budget incurs no throttling; each watt above the budget adds
        ``throttle_sensitivity`` to the slowdown.
        """
        if sustained_power_watt < 0:
            raise ConfigurationError("sustained_power_watt must be non-negative")
        excess = max(0.0, sustained_power_watt - self._budget)
        return 1.0 + self._sensitivity * excess

    def throttle_slowdown_batch(self, sustained_power_watt: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`throttle_slowdown` over per-device sustained power draws."""
        if (sustained_power_watt < 0).any():
            raise ConfigurationError("sustained_power_watt must be non-negative")
        excess = np.maximum(0.0, sustained_power_watt - self._budget)
        return 1.0 + self._sensitivity * excess
