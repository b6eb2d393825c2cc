"""Uniform periodic Cartesian tensor meshes of the d-dimensional torus.

Cells are identical hyper-rectangles, stored as row-major arrays of shape
`Mesh.shape` with periodic wraparound on every axis. The edges of one axis
share one transmissibility. `roll` and `axis_difference` are the periodic
neighbor shift and edge difference on such arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, _integer, _list, _real


@dataclass(frozen=True)
class MeshSpec:
    """Axis-aligned box [a_l, b_l) per axis and cell counts M_l."""

    extents: tuple
    cells_per_axis: tuple

    def __post_init__(self):
        key = "mesh.extents"
        extents = tuple((_real(a, key), _real(b, key)) for a, b in _list(self.extents, key))
        cells = _list(self.cells_per_axis, "mesh.cells")
        cells = tuple(_integer(m, "mesh.cells", minimum=2) for m in cells)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "cells_per_axis", cells)
        if len(extents) < 1 or len(extents) != len(cells):
            raise ConfigurationError(
                f"need one (extent, cell count) pair per axis, got {extents} and {cells}"
            )
        for a, b in extents:
            if not 0 < b - a < np.inf:  # also False on an infinite end or b - a overflowing
                raise ConfigurationError(
                    f"mesh.extents [{a}, {b}) must have finite ends a < b and a finite b - a"
                )

    @property
    def dim(self) -> int:
        return len(self.cells_per_axis)


@dataclass(frozen=True)
class Mesh:
    """Mesh with derived spacings, cell measure and transmissibilities.

    Immutable after construction; safe to share across threads. One
    transmissibility per axis (the mesh is uniform).
    """

    spec: MeshSpec
    dx: tuple
    cell_measure: float
    transmissibilities: tuple

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def shape(self) -> tuple:
        return self.spec.cells_per_axis

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along a 0-based axis."""
        a, _ = self.spec.extents[axis]
        m = self.shape[axis]
        return a + (np.arange(m) + 0.5) * self.dx[axis]

    def tau(self, axis: int) -> float:
        """Transmissibility of edges orthogonal to a 0-based axis."""
        return self.transmissibilities[axis]


def build_mesh(spec: MeshSpec) -> Mesh:
    """Construct a mesh with all derived quantities from a validated spec."""
    dx = tuple((b - a) / m for (a, b), m in zip(spec.extents, spec.cells_per_axis))
    cell_measure = float(np.prod(dx))
    # tau = m(sigma)/dx with m(sigma) = m(K)/dx, which stays consistent in
    # 1D where the codimension-1 measure degenerates.
    transmissibilities = tuple(cell_measure / h / h for h in dx)
    return Mesh(spec=spec, dx=dx, cell_measure=cell_measure, transmissibilities=transmissibilities)


def roll(values: np.ndarray, shift: int, axis: int) -> np.ndarray:
    """np.roll(values, shift, axis) by two slices.

    np.roll's generic set-up costs several times the copy on the mesh
    sizes of the recipes; assembly and the production terms roll every
    axis on each call.
    """
    head = (slice(None),) * axis
    return np.concatenate(
        (values[head + (slice(-shift, None),)], values[head + (slice(None, -shift),)]), axis=axis
    )


def axis_difference(values: np.ndarray, axis: int) -> np.ndarray:
    """Owner-side difference to the +axis neighbor, D_K = v_{K+e} - v_K."""
    return roll(values, -1, axis) - values
