import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import edge_cells, edges, neighbor

from crossfv import ConfigurationError, MeshSpec, UsageError, build_mesh


def mesh_1d(m=4, a=0.0, b=1.0):
    return build_mesh(MeshSpec(extents=((a, b),), cells_per_axis=(m,)))


def test_unit_interval_derived_quantities():
    m = mesh_1d(4)
    assert m.dx == (0.25,)
    assert m.cell_measure == 0.25
    assert m.transmissibilities == (4.0,)


def test_2d_anisotropic_transmissibilities():
    m = build_mesh(MeshSpec(extents=((0, 1), (0, 1)), cells_per_axis=(2, 4)))
    assert m.cell_measure == pytest.approx(0.125, abs=0)
    assert m.transmissibilities[0] == pytest.approx(0.25 / 0.5)
    assert m.transmissibilities[1] == pytest.approx(0.5 / 0.25)


def test_wide_interval_mesh():
    m = build_mesh(MeshSpec(extents=((-10.0, 10.0),), cells_per_axis=(500,)))
    assert m.dx[0] == pytest.approx(0.04)
    assert m.n_cells * m.cell_measure == pytest.approx(20.0, rel=1e-14)


def test_total_measure_exact():
    m = build_mesh(MeshSpec(extents=((-3, 5), (2, 9)), cells_per_axis=(8, 14)))
    assert m.n_cells * m.cell_measure == pytest.approx(8 * 7, rel=1e-14)


def test_invalid_specs_raise():
    with pytest.raises(ConfigurationError):
        MeshSpec(extents=((0, 1),), cells_per_axis=(1,))
    with pytest.raises(ConfigurationError):
        MeshSpec(extents=((1, 1),), cells_per_axis=(4,))
    with pytest.raises(ConfigurationError):
        MeshSpec(extents=((0, 1), (0, 2)), cells_per_axis=(4,))


def test_neighbor_wraps_periodically():
    m = mesh_1d(4)
    assert neighbor(m, 3, 1) == (0,)
    assert neighbor(m, 0, -1) == (3,)
    m2 = build_mesh(MeshSpec(extents=((0, 1), (0, 1)), cells_per_axis=(4, 4)))
    assert neighbor(m2, (0, 2), 2) == (0, 3)
    assert neighbor(m2, (0, 3), 2) == (0, 0)


def test_neighbor_rejects_bad_axis():
    m = mesh_1d(4)
    with pytest.raises(UsageError):
        neighbor(m, 0, 0)
    with pytest.raises(UsageError):
        neighbor(m, 0, 2)


def test_edge_counts():
    assert sum(1 for _ in edges(mesh_1d(4))) == 4
    m44 = build_mesh(MeshSpec(extents=((0, 1), (0, 1)), cells_per_axis=(4, 4)))
    assert sum(1 for _ in edges(m44)) == 32
    m23 = build_mesh(MeshSpec(extents=((0, 1), (0, 1)), cells_per_axis=(2, 3)))
    assert sum(1 for _ in edges(m23)) == 12


def test_edges_visit_each_pair_once():
    m = build_mesh(MeshSpec(extents=((0, 1), (0, 1)), cells_per_axis=(3, 4)))
    seen = set()
    for e in edges(m):
        k, l = edge_cells(m, e)
        key = (k, l)
        assert key not in seen
        seen.add(key)
    assert len(seen) == m.dim * m.n_cells


def test_double_counting_identity():
    # sum over edges of m(sigma) * d_sigma equals d * total volume, exactly.
    m = build_mesh(MeshSpec(extents=((0, 2), (1, 4)), cells_per_axis=(8, 4)))
    total = 0.0
    for _, axis in edges(m):
        ax = axis - 1
        total += m.cell_measure / m.dx[ax] * m.dx[ax]  # m(sigma) = m(K)/dx_l
    assert total == pytest.approx(m.dim * m.n_cells * m.cell_measure, rel=1e-14)


def test_uniform_mesh_identity():
    m = build_mesh(MeshSpec(extents=((0, 1), (-2, 3)), cells_per_axis=(4, 8)))
    for ax in range(m.dim):
        assert m.tau(ax) * m.dx[ax] ** 2 == pytest.approx(m.cell_measure, rel=1e-14)


def test_cell_centers():
    m = mesh_1d(4)
    assert np.allclose(m.axis_coordinates(0), [0.125, 0.375, 0.625, 0.875])


@settings(max_examples=50)
@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=1, max_value=2),
)
def test_neighbor_roundtrip(m1, m2, axis):
    m = build_mesh(MeshSpec(extents=((0, 1), (0, 1)), cells_per_axis=(m1, m2)))
    for cell in [(0, 0), (m1 - 1, m2 - 1), (m1 // 2, m2 // 2)]:
        assert neighbor(m, neighbor(m, cell, axis), -axis) == cell
