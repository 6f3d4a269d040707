"""Mesh text format round-trip and VTK output."""

import numpy as np

from stentflow.geometry import ObstacleSpec, build_macro_geometry, triangulate
from stentflow.meshio import load_mesh, save_mesh, write_vtk


def test_roundtrip_bit_identical(tmp_path):
    geo = build_macro_geometry(0.25, "collateral", ObstacleSpec())
    mesh = triangulate(geo, 0.12)
    p1 = tmp_path / "m.mesh"
    save_mesh(mesh, p1, header_lines=["prov test"])
    back = load_mesh(p1)
    assert np.array_equal(mesh.vertices, back.vertices)
    assert np.array_equal(mesh.triangles, back.triangles)
    assert np.array_equal(mesh.boundary_edges, back.boundary_edges)
    assert list(mesh.boundary_tags) == list(back.boundary_tags)
    assert np.array_equal(mesh.interface_edges, back.interface_edges)
    # saving the loaded mesh reproduces the file byte for byte
    p2 = tmp_path / "m2.mesh"
    save_mesh(back, p2, header_lines=["prov test"])
    assert p1.read_bytes() == p2.read_bytes()


def test_header_line_format(tmp_path):
    geo = build_macro_geometry(0.5, "collateral", ObstacleSpec())
    mesh = triangulate(geo, 0.2)
    path = tmp_path / "m.mesh"
    save_mesh(mesh, path)
    head = path.read_text().splitlines()[0]
    n_edges = len(mesh.boundary_edges) + len(mesh.interface_edges)
    assert head == (f"vertices {mesh.n_vertices} / triangles "
                    f"{mesh.n_triangles} / edges {n_edges}")


def test_vtk_writer(tmp_path):
    geo = build_macro_geometry(0.5, "collateral", ObstacleSpec())
    mesh = triangulate(geo, 0.2)
    path = tmp_path / "m.vtk"
    write_vtk(mesh, path, point_data={
        "pressure": np.zeros(mesh.n_vertices),
        "velocity": np.zeros((mesh.n_vertices, 2)),
    })
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert f"POINTS {mesh.n_vertices} double" in text
    assert f"CELL_TYPES {mesh.n_triangles}" in text
    assert "VECTORS velocity double" in text


def reference_write_vtk(mesh, path, point_data=None, title="stentflow mesh"):
    """The writer formatting numpy scalars one f-string at a time."""
    out = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID",
           f"POINTS {mesh.n_vertices} double"]
    out.extend(f"{x} {y} 0.0" for x, y in mesh.vertices)
    m = mesh.n_triangles
    out.append(f"CELLS {m} {4 * m}")
    out.extend(f"3 {a} {b} {c}" for a, b, c in mesh.triangles)
    out.append(f"CELL_TYPES {m}")
    out.extend("5" for _ in range(m))
    if point_data:
        out.append(f"POINT_DATA {mesh.n_vertices}")
        for name, arr in point_data.items():
            arr = np.asarray(arr)
            if arr.ndim == 1:
                out.append(f"SCALARS {name} double 1")
                out.append("LOOKUP_TABLE default")
                out.extend(str(v) for v in arr)
            else:
                out.append(f"VECTORS {name} double")
                out.extend(f"{v[0]} {v[1]} 0.0" for v in arr)
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def test_vtk_bytes_match_reference_writer(tmp_path):
    geo = build_macro_geometry(0.5, "collateral", ObstacleSpec())
    mesh = triangulate(geo, 0.2)
    rng = np.random.default_rng(0)
    n = mesh.n_vertices

    def spread(shape):
        # values over many magnitudes, both signs, with exact zeros and
        # integers, around the switches between positional and exponent form
        v = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 21, size=shape)
        v.flat[:6] = [0.0, -0.0, 1e16, 1e-5, 9.999999999999999e15, 123456789.0]
        return v

    data = {"pressure": spread(n), "velocity": spread((n, 2)),
            "ids": np.arange(n)}
    mesh.vertices = mesh.vertices * 10.0 ** rng.integers(-8, 9, size=(n, 1))
    write_vtk(mesh, tmp_path / "new.vtk", point_data=data, title="t")
    reference_write_vtk(mesh, tmp_path / "ref.vtk", point_data=data, title="t")
    assert (tmp_path / "new.vtk").read_bytes() == (tmp_path / "ref.vtk").read_bytes()
