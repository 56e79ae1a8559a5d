"""Staggered (MAC) grid and time-partition descriptions.

Field layout convention used throughout the package:

* cell-centered scalars (temperature, pressure): shape ``(nx, ny)`` at
  ``((i+1/2)hx, (j+1/2)hy)``;
* x-velocity ``u``: shape ``(nx+1, ny)`` on vertical faces ``(i hx, (j+1/2)hy)``,
  rows ``0`` and ``nx`` lie on the boundary and are pinned to zero;
* y-velocity ``v``: shape ``(nx, ny+1)`` on horizontal faces, columns ``0`` and
  ``ny`` pinned to zero.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular MAC grid on [0, lx] x [0, ly]."""

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise DomainError(f"grid must have nx, ny >= 8, got {self.nx}x{self.ny}")
        if not (self.lx > 0 and self.ly > 0):
            raise DomainError("domain extents must be positive")

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    def cell_centers(self):
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y, indexing="ij")

    def nodes(self):
        x = np.arange(self.nx + 1) * self.hx
        y = np.arange(self.ny + 1) * self.hy
        return np.meshgrid(x, y, indexing="ij")

    def u_positions(self):
        x = np.arange(self.nx + 1) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y, indexing="ij")

    def v_positions(self):
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = np.arange(self.ny + 1) * self.hy
        return np.meshgrid(x, y, indexing="ij")

    def zeros_u(self) -> np.ndarray:
        return np.zeros((self.nx + 1, self.ny))

    def zeros_v(self) -> np.ndarray:
        return np.zeros((self.nx, self.ny + 1))

    def zeros_cells(self) -> np.ndarray:
        return np.zeros((self.nx, self.ny))

    def digest(self) -> str:
        key = f"grid:{self.nx}:{self.ny}:{self.lx!r}:{self.ly!r}"
        return hashlib.sha256(key.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, t_final] into nt steps."""

    t_final: float
    nt: int

    def __post_init__(self):
        if self.nt < 16:
            raise DomainError(f"time grid must have nt >= 16, got {self.nt}")
        if self.nt + 1 > np.iinfo(np.intp).max // 8:
            raise DomainError(f"nt = {self.nt} time nodes do not fit in an array")
        if not (self.t_final > 0):
            raise DomainError("time horizon must be positive")
        if not (self.t_final / self.nt > 0):
            raise DomainError(f"time step t_final / nt = {self.t_final!r} / {self.nt} "
                              "underflows to 0")

    @property
    def dt(self) -> float:
        return self.t_final / self.nt

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.nt + 1)
