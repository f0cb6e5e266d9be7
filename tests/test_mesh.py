import numpy as np
import pytest

from stochwave.fem import FeSpace
from stochwave.mesh import build_interval_mesh, build_unit_square_tri_mesh, refine_uniform


def test_interval_mesh_basic():
    m = build_interval_mesh(4)
    assert np.allclose(m.vertices[:, 0], [0, 0.25, 0.5, 0.75, 1.0])
    assert m.resolution == 4
    assert m.n_cells == 4


def test_interval_single_cell():
    m = build_interval_mesh(1)
    assert m.n_cells == 1
    assert m.resolution == 1


def test_interval_table1_finest():
    m = build_interval_mesh(64)
    assert m.n_vertices == 65
    assert m.resolution == 64


def test_interval_rejects_zero():
    with pytest.raises(ValueError):
        build_interval_mesh(0)


def test_square_mesh_smallest():
    m = build_unit_square_tri_mesh(1)
    assert m.n_cells == 2
    assert m.n_vertices == 4


def test_square_mesh_counts_and_area():
    m = build_unit_square_tri_mesh(2)
    assert m.n_cells == 8
    assert m.n_vertices == 9
    assert abs(FeSpace(m).wdet.sum() - 1.0) < 1e-12


def test_square_mesh_16():
    m = build_unit_square_tri_mesh(16)
    assert m.n_cells == 512
    assert m.resolution == 16


def test_square_rejects_zero():
    with pytest.raises(ValueError):
        build_unit_square_tri_mesh(0)


@pytest.mark.parametrize("dim", [1, 2])
def test_measure_covers_domain(dim):
    m = build_interval_mesh(7) if dim == 1 else build_unit_square_tri_mesh(5)
    assert abs(FeSpace(m).wdet.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_quasi_uniform(dim):
    m = build_interval_mesh(6) if dim == 1 else build_unit_square_tri_mesh(3)
    meas = FeSpace(m).wdet.sum(axis=1)  # per-cell length or area
    assert meas.max() / meas.min() < 2.0 + 1e-12


def test_refine_interval_nested_bitwise():
    coarse = build_interval_mesh(4)
    fine = refine_uniform(coarse)
    assert fine.n_cells == 8
    assert fine.resolution == 2 * coarse.resolution
    coarse_set = {v.tobytes() for v in coarse.vertices}
    fine_set = {v.tobytes() for v in fine.vertices}
    assert coarse_set <= fine_set  # coarse vertices reproduced bit-identically


def test_refine_square():
    coarse = build_unit_square_tri_mesh(2)
    fine = refine_uniform(coarse)
    assert fine.n_cells == 32
    assert abs(FeSpace(fine).wdet.sum() - 1.0) < 1e-12
    coarse_set = {v.tobytes() for v in coarse.vertices}
    fine_set = {v.tobytes() for v in fine.vertices}
    assert coarse_set <= fine_set


def test_refine_chain_h_halves_exactly():
    m = build_interval_mesh(4)
    f = refine_uniform(m)
    assert np.all(np.diff(f.vertices[:, 0]) == 0.125)
    ff = refine_uniform(f)
    assert np.all(np.diff(ff.vertices[:, 0]) == 0.0625)
