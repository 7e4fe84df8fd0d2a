"""Noise schedules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NoiseSchedule", "ScheduleError", "make_schedule"]


class ScheduleError(ValueError):
    """Invalid schedule parameters or time index."""


@dataclass(frozen=True)
class NoiseSchedule:
    """beta/alpha/alpha_bar tables for steps t = 1..T (arrays are 0-indexed)."""

    T: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray

    def _check_t(self, t: int) -> int:
        if not 1 <= t <= self.T:
            raise ScheduleError(f"t={t} outside schedule range 1..{self.T}")
        return int(t)

    def beta_at(self, t: int) -> float:
        return float(self.beta[self._check_t(t) - 1])

    def alpha_bar_at(self, t: int) -> float:
        return float(self.alpha_bar[self._check_t(t) - 1])


def make_schedule(T: int, beta_1: float, beta_T: float) -> NoiseSchedule:
    """Linear beta schedule; alpha_bar by cumulative product."""
    if T < 1:
        raise ScheduleError(f"T must be >= 1, got {T}")
    if not 0.0 < beta_1 <= beta_T < 1.0:
        raise ScheduleError(f"need 0 < beta_1 <= beta_T < 1, got ({beta_1}, {beta_T})")
    beta = np.linspace(beta_1, beta_T, T)
    alpha = 1.0 - beta
    return NoiseSchedule(T=T, beta=beta, alpha=alpha, alpha_bar=np.cumprod(alpha))

