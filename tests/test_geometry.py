"""Geometry and meshing: spec examples, invariants, determinism."""

import hashlib

import numpy as np
import pytest

import stentflow.geometry as geometry
from stentflow.errors import NonIntegerReciprocal, ObstacleTouchesCell
from stentflow.fem import build_space
from stentflow.geometry import (
    BoundaryTag as T,
    ObstacleSpec,
    RefineSpec,
    _mesh_edges,
    build_macro_geometry,
    build_strip_mesh,
    mirror_half,
    no_stent_mesh,
    rectangle_mesh,
    triangulate,
)
from stentflow.homogenized import first_order_meshes
from stentflow.meshio import save_mesh


class TestMacroGeometry:
    def test_reference_quarter(self):
        geo = build_macro_geometry(0.25, "collateral", ObstacleSpec())
        centers = geo.hole_centers()
        assert geo.m == 4
        expect = [(0.25 * (i + 0.5), 0.25 * 0.25) for i in range(4)]
        assert np.allclose(centers, expect, atol=1e-15)
        assert geo.hole_radius() == pytest.approx(3 / 64)

    def test_identity_scaling(self):
        geo = build_macro_geometry(1.0, "collateral", ObstacleSpec())
        assert geo.m == 1
        assert np.allclose(geo.hole_centers(), [(0.5, 0.25)])
        assert geo.hole_radius() == pytest.approx(3 / 16)

    def test_third_aneurysm(self):
        # centers eps*(c + (i,0)) evaluated by hand for eps = 1/3
        geo = build_macro_geometry(1 / 3, "aneurysm", ObstacleSpec())
        expect = [(1 / 6, 1 / 12), (1 / 2, 1 / 12), (5 / 6, 1 / 12)]
        assert np.allclose(geo.hole_centers(), expect, atol=1e-15)

    def test_non_integer_reciprocal(self):
        with pytest.raises(NonIntegerReciprocal):
            build_macro_geometry(0.3, "collateral", ObstacleSpec())

    @pytest.mark.parametrize("eps", [0.0, -0.25, 2.0, float("nan")])
    def test_degenerate_eps_rejected(self, eps):
        with pytest.raises(NonIntegerReciprocal):
            build_macro_geometry(eps, "collateral", ObstacleSpec())

    def test_obstacle_touching_cell(self):
        with pytest.raises(ObstacleTouchesCell):
            build_macro_geometry(0.25, "collateral",
                                 ObstacleSpec(center=(0.5, 0.25), radius=0.25))

    def test_bad_case(self):
        with pytest.raises(ValueError):
            build_macro_geometry(0.25, "bifurcation", ObstacleSpec())


class TestRectangleMesh:
    def test_flat_channel_structured_counts(self):
        # 4x4 quads split in two: 32 triangles, 25 vertices
        m = rectangle_mesh(0, 1, 0, 1, 0.25)
        assert m.n_vertices == 25
        assert m.n_triangles == 32

    def test_degenerate_h_rejected(self):
        geo = build_macro_geometry(0.25, "collateral", ObstacleSpec())
        with pytest.raises(ValueError):
            triangulate(geo, 0.0)
        with pytest.raises(ValueError):
            triangulate(geo, -1.0)

    def test_graded_toward_bottom(self):
        m = rectangle_mesh(0, 1, 0, 1, 0.1, grade_to_y=0.0)
        ys = np.unique(m.vertices[:, 1])
        assert ys[0] == 0.0 and ys[-1] == 1.0
        # rows near the grading line are finer than near the far side
        assert (ys[1] - ys[0]) < 0.7 * (ys[-1] - ys[-2])
        assert m.min_angle_deg() >= 20.0


class TestMacroMesh:
    def test_postconditions_eps8(self):
        geo = build_macro_geometry(0.125, "collateral", ObstacleSpec())
        m = triangulate(geo, 0.05)
        assert np.all(m.signed_areas() > 0)
        assert m.min_angle_deg() >= 20.0

    def test_area_matches_holes(self):
        geo = build_macro_geometry(0.25, "collateral", ObstacleSpec())
        h = 0.1
        m = triangulate(geo, h)
        expected = 2.0 - 4 * np.pi * (0.25 * 3 / 16) ** 2
        assert abs(m.signed_areas().sum() - expected) < 10 * h * h

    def test_interface_is_mesh_line(self):
        geo = build_macro_geometry(0.25, "collateral", ObstacleSpec())
        m = triangulate(geo, 0.1)
        g0 = m.edges_with_tag(T.GAMMA0)
        assert len(g0) > 0
        assert np.all(np.abs(m.vertices[g0.ravel(), 1]) < 1e-14)
        lengths = np.abs(np.diff(m.vertices[g0][:, :, 0], axis=1))
        assert lengths.sum() == pytest.approx(1.0, abs=1e-12)

    def test_layer_top_is_mesh_line(self):
        eps = 0.125
        geo = build_macro_geometry(eps, "collateral", ObstacleSpec())
        m = triangulate(geo, 0.1)
        on_line = np.abs(m.vertices[:, 1] - eps) < 1e-14
        assert on_line.sum() >= 2

    @pytest.mark.parametrize("spec, key", [
        (dict(obstacle_factor=0), "mesh.obstacle_factor"),
        (dict(obstacle_factor=float("nan")), "mesh.obstacle_factor"),
        (dict(min_circle_segments=2), "mesh.min_circle_segments"),
        (dict(min_angle_deg=60.0), "mesh.min_angle"),
        (dict(min_angle_deg=-1.0), "mesh.min_angle"),
    ])
    def test_refine_spec_rejects_bad_values(self, spec, key):
        # a bad spec fails where it is made, naming its config key, before
        # any meshing (obstacle_factor = 0 divided by zero in triangulate)
        with pytest.raises(ValueError, match=key):
            triangulate(build_macro_geometry(0.25, "collateral"), 0.1, RefineSpec(**spec))

    def test_circle_segments(self):
        spec = RefineSpec(min_circle_segments=16)
        geo = build_macro_geometry(0.25, "collateral", ObstacleSpec())
        m = triangulate(geo, 0.1, spec)
        circ = m.edges_with_tag(T.GAMMA_EPS)
        assert len(circ) >= 4 * 16          # m = 4 holes
        # all circle vertices sit on their circles
        r = geo.hole_radius()
        centers = geo.hole_centers()
        pts = m.vertices[np.unique(circ.ravel())]
        d = np.min(
            np.abs(np.hypot(pts[:, 0, None] - centers[None, :, 0],
                            pts[:, 1, None] - centers[None, :, 1]) - r),
            axis=1,
        )
        assert d.max() < 1e-12

    def test_aneurysm_bottom_is_wall(self):
        geo = build_macro_geometry(0.25, "aneurysm", ObstacleSpec())
        m = triangulate(geo, 0.1)
        tags = set(m.boundary_tags)
        assert T.GAMMA_OUT2 not in tags
        geo2 = build_macro_geometry(0.25, "collateral", ObstacleSpec())
        m2 = triangulate(geo2, 0.1)
        assert T.GAMMA_OUT2 in set(m2.boundary_tags)

    def test_deterministic(self):
        geo = build_macro_geometry(0.25, "collateral", ObstacleSpec())
        a = triangulate(geo, 0.1)
        b = triangulate(geo, 0.1)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)
        assert np.array_equal(a.boundary_edges, b.boundary_edges)

    @pytest.mark.parametrize("which, digest", [
        (0.25, "46bef1339ca2c679241983b3da4bf57c5274a7b41b38b8728a134c3b589a79a3"),
        (0.0625, "24ceddfa9624ef57dee640f3b3c3799e98ef52a8b259cbf994cd675dd59a457c"),
        ("no-stent collateral",
         "15f4fe53670e901883d7df860094d37152bb4d9579e8d23e5ed9a0a44b3179bb"),
        ("no-stent aneurysm",
         "655f0becce86ed7f64b99ea5f434906af580d940034c4d67bc0f31e371d851de"),
        ("first-order upper",
         "48b3dacd528b5013948ffb56bfe9a89239a3cbd3e561da8b633aefd2902ecb99"),
        ("first-order lower collateral",
         "4daabe2a9ca0f52fa67e9f14b90cc208224d65de414d1894d23922e441708901"),
        ("first-order lower aneurysm",
         "8b9bb36c6feb9817dd710bfc7784b9c05953b7a1ed3832c87fe8e403f4305b10"),
        ("unobstructed strip",
         "33dc4d49d2abb327dd3d59d2d4fb25ca0be03c3b6d749e817df4cde1ece2629b"),
        ("ungraded rectangle",
         "729335e651a712a91241f12e9e3fde30e94fd4d9541db7dfde97f76f098cf6ad"),
    ])
    def test_macro_file_unchanged(self, tmp_path, which, digest):
        # the mesh files of the study's first and last eps (a float), as
        # written when the obstacle blocks were assembled point by point in
        # Python loops, and of the other domains, as written when each mesh
        # builder finished its mesh with its own copy of the edge tagging
        builders = {
            "no-stent collateral": lambda: no_stent_mesh("collateral"),
            "no-stent aneurysm": lambda: no_stent_mesh("aneurysm"),
            "first-order upper": lambda: first_order_meshes()[0],
            "first-order lower collateral": lambda: first_order_meshes()[1],
            "first-order lower aneurysm":
                lambda: first_order_meshes(case="aneurysm")[1],
            "unobstructed strip": lambda: build_strip_mesh(None),
            "ungraded rectangle": lambda: rectangle_mesh(0, 1, 0, 1, 0.1),
        }
        mesh = (triangulate(build_macro_geometry(which, "collateral", ObstacleSpec()), 0.1)
                if isinstance(which, float) else builders[which]())
        path = tmp_path / "macro.mesh"
        save_mesh(mesh, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_identity_scaling_meshable(self):
        # eps = 1: the layer fills the whole upper channel
        geo = build_macro_geometry(1.0, "collateral", ObstacleSpec())
        m = triangulate(geo, 0.15)
        assert np.all(m.signed_areas() > 0)
        assert m.min_angle_deg() >= 20.0
        expected = 2.0 - np.pi * (3 / 16) ** 2
        assert abs(m.signed_areas().sum() - expected) < 10 * 0.15**2


class TestStripMesh:
    def test_periodic_traces_match(self):
        m = build_strip_mesh(ObstacleSpec(), L=10, h=1 / 24)
        left = np.sort(m.vertices[np.abs(m.vertices[:, 0]) < 1e-14][:, 1])
        right = np.sort(m.vertices[np.abs(m.vertices[:, 0] - 1) < 1e-14][:, 1])
        assert len(left) == len(right)
        assert np.array_equal(left, right)

    def test_no_obstacle_structured_sides(self):
        m = build_strip_mesh(None, L=2, h=0.5)
        left = np.sort(m.vertices[np.abs(m.vertices[:, 0]) < 1e-14][:, 1])
        right = np.sort(m.vertices[np.abs(m.vertices[:, 0] - 1) < 1e-14][:, 1])
        assert np.array_equal(left, right)
        assert left[0] == -2.0 and left[-1] == 2.0

    def test_sigma_is_mesh_line(self):
        m = build_strip_mesh(ObstacleSpec(), L=10, h=1 / 24)
        sig = m.edges_with_tag(T.SIGMA)
        assert len(sig) > 0
        assert np.all(np.abs(m.vertices[sig.ravel(), 1]) < 1e-14)
        lengths = np.abs(np.diff(m.vertices[sig][:, :, 0], axis=1))
        assert lengths.sum() == pytest.approx(1.0, abs=1e-12)

    def test_obstacle_below_interface_valid(self):
        # containment is the only geometric requirement
        obs = ObstacleSpec(center=(0.5, -0.3), radius=0.15)
        m = build_strip_mesh(obs, L=6, h=1 / 24)
        assert np.all(m.signed_areas() > 0)
        assert m.min_angle_deg() >= 20.0

    def test_area_invariant(self):
        h = 1 / 24
        m = build_strip_mesh(ObstacleSpec(), L=10, h=h)
        expected = 20.0 - np.pi * (3 / 16) ** 2
        assert abs(m.signed_areas().sum() - expected) < 10 * h * h

    def test_small_L_rejected(self):
        with pytest.raises(ValueError):
            build_strip_mesh(ObstacleSpec(), L=1.0, h=0.1)

    def test_lateral_obstacle_rejected(self):
        # the strip meshes every disk at x1 = 1/2, so only a disk that
        # reaches the lateral sides from there is rejected, wherever its cx
        m = build_strip_mesh(ObstacleSpec(center=(0.05, 0.25), radius=0.04), L=6, h=1 / 48)
        assert m.holes.tolist() == [[0.5, 0.25, 0.04]]
        with pytest.raises(ObstacleTouchesCell):
            build_strip_mesh(ObstacleSpec(radius=0.45), L=6, h=0.5)

    def test_coarser_request_gives_no_bigger_strip(self):
        # 22 columns halve to 11, an odd count that stopped the far-field
        # coarsening early: h = 1/8 ... 1/22 gave 6,658 triangles, 1/24 4,172
        n24 = build_strip_mesh(ObstacleSpec(), L=10, h=1 / 24).n_triangles
        for h in (1 / 16, 1 / 22):
            assert build_strip_mesh(ObstacleSpec(), L=10, h=h).n_triangles <= n24

    def test_finer_request_gives_no_smaller_strip(self):
        # at 28, 36, 44, ... columns the far-field halvings reached an odd
        # count (44 -> 22 -> 11) and kept the far field fine: 44 columns gave
        # 13,636 triangles, 48 gave 12,388
        counts = [build_strip_mesh(ObstacleSpec(), L=10, h=1 / n).n_triangles
                  for n in range(24, 97)]
        assert counts == sorted(counts)

    @pytest.mark.parametrize("r, n", [(0.02, 8), (0.02, 48), (0.04, 16), (0.04, 24),
                                      (0.06, 16), (0.08, 12)])
    def test_small_disk_at_coarse_h(self, r, n):
        # a lattice cell spans at most 2.5 chords of the disk's 16-gon, so
        # these meshes pass the quality check (below 10 degrees before)
        mesh = build_strip_mesh(ObstacleSpec(radius=r), L=10, h=1 / n)
        assert mesh.min_angle_deg() >= 20.0
        assert mirror_half(mesh) is not None

    def test_default_strip_file_unchanged(self, tmp_path):
        # the mesh file of the default strip, as written before the column
        # count was rounded to a multiple of 4
        path = tmp_path / "strip.mesh"
        save_mesh(build_strip_mesh(ObstacleSpec()), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "eb6e9e9c565937c0e495d4763df82b0bbc9bf3ac6c9f1efce8d97538ac170f07")

    def test_deterministic(self):
        a = build_strip_mesh(ObstacleSpec(), L=6, h=1 / 24)
        b = build_strip_mesh(ObstacleSpec(), L=6, h=1 / 24)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)


class TestMirrorHalf:
    @pytest.mark.parametrize("obstacle, n", [(ObstacleSpec(), 48), (ObstacleSpec(), 12),
                                             (ObstacleSpec(), 16), (ObstacleSpec(), 20),
                                             (ObstacleSpec(), 24), (ObstacleSpec(), 32),
                                             (None, 4)])
    def test_symmetric_strip_halves(self, request, obstacle, n, node_xy):
        L = 10.0 if obstacle else 4.0
        full = (request.getfixturevalue("default_strip") if n == 48
                else build_strip_mesh(obstacle, L=L, h=1 / n))
        half = mirror_half(full)
        assert half is not None
        mesh = half.mesh
        assert mesh.signed_areas().sum() == pytest.approx(0.5 * full.signed_areas().sum(),
                                                          rel=1e-13)
        # the restricted edge table is the one a fresh edge pass gives
        edges, keys, tri_edges, bed, line = _mesh_edges(mesh.vertices,
                                                        mesh.triangles.astype(np.int64))
        for got, ref in zip(mesh.edge_table, (edges, keys, tri_edges[:, [1, 2, 0]])):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert np.array_equal(mesh.boundary_edges, bed)
        assert np.array_equal(mesh.interface_edges, line) and len(line)
        # the mirror line x1 = 1/2, less the disk's chord, is the new right side
        right = mesh.boundary_edges[mesh.boundary_tags == T.STRIP_RIGHT]
        assert np.all(np.abs(mesh.vertices[right, 0] - 0.5) < 1e-12)
        chord = 2 * ObstacleSpec().radius if obstacle else 0.0
        assert np.ptp(mesh.vertices[right, 1], axis=1).sum() == pytest.approx(
            2 * L - chord, abs=1e-12)
        # every other boundary edge keeps the tag it has in the full mesh
        nv = full.n_vertices
        own = np.flatnonzero(~half.mirrored[:nv])
        full_id = np.empty(mesh.n_vertices, dtype=np.int64)
        full_id[half.source[own]] = own
        tag_of = {frozenset(e): t for e, t in zip(full.boundary_edges.tolist(),
                                                  full.boundary_tags)}
        for e, t in zip(full_id[mesh.boundary_edges].tolist(), mesh.boundary_tags):
            assert tag_of.get(frozenset(e), T.STRIP_RIGHT) == t
        # each vertex and edge midpoint sits at its source, or at its mirror image
        xy_full, xy_half = (node_xy(build_space(m, {})) for m in (full, mesh))
        src = xy_half[half.source]
        src[half.mirrored, 0] = 1.0 - src[half.mirrored, 0]
        assert np.abs(src - xy_full).max() < 1e-12
        assert np.array_equal(half.triangles, np.flatnonzero(
            full.vertices[full.triangles, 0].max(axis=1) < 0.5 + 1e-12))

    @pytest.mark.parametrize("obstacle, h", [
        pytest.param(ObstacleSpec(), 1 / 40, id="h=1/40"),
        pytest.param(ObstacleSpec(center=(0.4, 0.3)), 1 / 24, id="off-centre"),
        *(pytest.param(ObstacleSpec(), 1 / n, id=f"obstacle-{n}")
          for n in (24, 32, 48, 64, 96, 128)),
        *(pytest.param(None, 1 / n, id=f"none-{n}") for n in (8, 12, 16, 24, 32, 48, 64, 96, 128)),
    ])
    def test_every_strip_has_a_half(self, obstacle, h):
        # h = 1/40 rounds to 48 columns, as the far field of 40 would end at
        # 5 columns whose middle triangles cross x1 = 1/2; the off-centre disk
        # is meshed at x1 = 1/2; the others are every column count that the
        # requests 1/8 ... 1/128 give
        mesh = build_strip_mesh(obstacle, L=4, h=h)
        assert mirror_half(mesh) is not None
        if obstacle is not None:
            assert mesh.holes[0].tolist() == [0.5, obstacle.center[1], obstacle.radius]


def test_one_edge_pass_per_mesh(monkeypatch):
    # the mesher's edge pass also gives the FE space and the half strip their
    # edge tables
    calls = []
    edge_pass = geometry._mesh_edges
    monkeypatch.setattr(geometry, "_mesh_edges",
                        lambda *a: calls.append(a) or edge_pass(*a))
    mesh = build_strip_mesh(ObstacleSpec(), L=4, h=1 / 16)
    build_space(mesh, {})
    build_space(mirror_half(mesh).mesh, {})
    assert len(calls) == 1


def test_no_stent_mesh_tags():
    m = no_stent_mesh("aneurysm", 0.1)
    tags = set(m.boundary_tags)
    assert T.GAMMA_EPS not in tags
    assert T.GAMMA_OUT2 not in tags
    assert len(m.edges_with_tag(T.GAMMA0)) > 0
