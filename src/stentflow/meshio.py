"""Mesh text format and VTK legacy ASCII export.

The text format round-trips bit-identically:

    # optional provenance comment lines
    vertices N / triangles M / edges K
    x y                 (N lines, full precision)
    i j k               (M lines)
    i j TAG             (K lines: boundary edges then interface edges)
"""

from __future__ import annotations

import numpy as np

from .geometry import BoundaryTag, Mesh

INTERFACE_TAGS = (BoundaryTag.GAMMA0, BoundaryTag.SIGMA)


def save_mesh(mesh: Mesh, path, header_lines=()):
    lines = [f"# {h}" for h in header_lines]
    n_edges = len(mesh.boundary_edges) + len(mesh.interface_edges)
    lines.append(
        f"vertices {mesh.n_vertices} / triangles {mesh.n_triangles} / edges {n_edges}"
    )
    lines.extend(f"{float(x)!r} {float(y)!r}" for x, y in mesh.vertices)
    lines.extend(f"{a} {b} {c}" for a, b, c in mesh.triangles)
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        lines.append(f"{a} {b} {tag.value}")
    for (a, b), tag in zip(mesh.interface_edges, mesh.interface_tags):
        lines.append(f"{a} {b} {tag.value}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path) -> Mesh:
    with open(path) as fh:
        rows = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    head = rows[0].split("/")
    n_v = int(head[0].split()[1])
    n_t = int(head[1].split()[1])
    n_e = int(head[2].split()[1])
    k = 1
    verts = np.array(
        [[float(t) for t in rows[k + i].split()] for i in range(n_v)], dtype=float
    )
    k += n_v
    tris = np.array(
        [[int(t) for t in rows[k + i].split()] for i in range(n_t)], dtype=np.int32
    )
    k += n_t
    b_edges, b_tags, i_edges, i_tags = [], [], [], []
    for i in range(n_e):
        a, b, tag = rows[k + i].split()
        tag = BoundaryTag(tag)
        if tag in INTERFACE_TAGS:
            i_edges.append((int(a), int(b)))
            i_tags.append(tag)
        else:
            b_edges.append((int(a), int(b)))
            b_tags.append(tag)
    return Mesh(
        vertices=verts,
        triangles=tris,
        boundary_edges=np.array(b_edges, dtype=np.int32).reshape(-1, 2),
        boundary_tags=np.array(b_tags, dtype=object),
        interface_edges=np.array(i_edges, dtype=np.int32).reshape(-1, 2),
        interface_tags=np.array(i_tags, dtype=object),
        holes=np.empty((0, 3)),
        meta={"kind": "loaded"},
    )


def write_vtk(mesh: Mesh, path, point_data=None, title="stentflow mesh"):
    """Legacy ASCII unstructured grid with optional vertex point data.

    ``point_data`` maps names to arrays of shape (n_vertices,) or
    (n_vertices, 2); 2-vectors are padded to 3 components.
    """
    out = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_vertices} double",
    ]
    # plain Python numbers (tolist) print as numpy scalars do, only faster
    out.extend(map("{} {} 0.0".format, *mesh.vertices.T.tolist()))
    m = mesh.n_triangles
    out.append(f"CELLS {m} {4 * m}")
    out.extend(map("3 {} {} {}".format, *mesh.triangles.T.tolist()))
    out.append(f"CELL_TYPES {m}")
    out.extend(["5"] * m)
    if point_data:
        out.append(f"POINT_DATA {mesh.n_vertices}")
        for name, arr in point_data.items():
            arr = np.asarray(arr)
            if arr.ndim == 1:
                out.append(f"SCALARS {name} double 1")
                out.append("LOOKUP_TABLE default")
                out.extend(map(str, arr.tolist()))
            else:
                out.append(f"VECTORS {name} double")
                out.extend(map("{} {} 0.0".format, *arr[:, :2].T.tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
