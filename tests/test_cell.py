"""Boundary-layer problems: constraints, averaged identities, degeneracies.

Quantitative agreement with the published constants is exercised by the
acceptance suite at full resolution; here a moderate strip keeps the
structural identities cheap.
"""

import dataclasses

import numpy as np
import pytest

from stentflow.cell import (
    _chi,
    _far_field_jump,
    extract_constants,
    identity_report,
    section_average,
    solve_all,
    solve_beta,
    solve_chi,
    solve_upsilon,
    solve_varkappa,
    write_constants,
    read_constants,
)
from stentflow.errors import ConstraintMismatch, MeshMismatch, PeriodicMismatch
from stentflow.solvers import SolverConfig
from stentflow.fem import BC, assemble_loads, band_integral, gradient_energy
from stentflow.geometry import BoundaryTag as T, ObstacleSpec, build_strip_mesh, mirror_half

H = 1 / 24
L = 10.0


@pytest.fixture(scope="module")
def strip():
    return build_strip_mesh(ObstacleSpec(), L=L, h=H)


@pytest.fixture(scope="module")
def solutions(strip):
    sols, constants = solve_all(strip, with_varkappa=True)
    return sols, constants


class TestCellSolves:
    def test_dirichlet_on_obstacle_exact(self, strip, solutions, node_xy):
        sols, _ = solutions
        beta = sols["beta"]
        space = beta.solution.space
        circ = strip.edges_with_tag(T.GAMMA_EPS)
        nds = np.unique(circ.ravel())
        xy = node_xy(space)[nds]
        assert np.abs(beta.solution.u[nds] + xy[:, 1]).max() < 1e-13
        assert np.abs(beta.solution.u[space.n_vnode + nds]).max() < 1e-13

    def test_periodicity_exact(self, strip, solutions):
        sols, _ = solutions
        u = sols["chi"].solution.u
        space = sols["chi"].solution.space
        for s, m in space.vel_pairs:
            assert u[s] == u[m]

    def test_pressure_normalized_on_top_band(self, strip, solutions):
        sols, _ = solutions
        for cell in sols.values():
            space = cell.solution.space
            mean = band_integral(space, cell.solution.p, L - 2, L - 1,
                                 average=True)
            assert abs(mean) < 1e-12
            assert cell.normalization["band"] == (L - 2, L - 1)

    def test_vertical_sections_vanish(self, solutions):
        sols, _ = solutions
        for y2 in (-L / 2, -1.0, 1.0, L / 2):
            assert abs(section_average(sols["beta"], 1, y2)) <= 1e-6
            assert abs(section_average(sols["upsilon"], 1, y2)) <= 1e-6

    def test_identities(self, solutions):
        sols, constants = solutions
        rep = identity_report(sols["beta"], sols["upsilon"], sols["chi"],
                              sols["varkappa"], constants)
        assert rep["beta1_jump_identity_rel"] <= 0.01
        assert rep["ups1_bottom_energy_rel"] <= 0.01
        assert rep["ups_jump_vs_beta_bottom_rel"] <= 0.01
        assert rep["chi_energy_vs_eta_jump_rel"] <= 0.01
        assert rep["pi_section_max_rel"] <= 1e-6
        assert rep["varpi_section_max_rel"] <= 1e-6
        assert rep["chi2_farfield_dev"] <= 1e-6
        assert rep["mu_jump_identity_rel"] <= 0.02
        assert rep["varkappa1_jump_identity_rel"] <= 0.02
        assert rep["varkappa_farfield_variance"] <= 1e-6

    def test_report_keys_match_tolerance_table(self, solutions):
        # `cell` fails a report key without a tolerance, so the two agree
        from stentflow.cli import TOL_TABLE

        sols, constants = solutions
        rep = identity_report(sols["beta"], sols["upsilon"], sols["chi"],
                              sols["varkappa"], constants)
        assert rep.keys() == TOL_TABLE.keys()

    def test_grad_energies_match_stiffness_form(self, solutions):
        sols, constants = solutions
        for which in ("beta", "upsilon", "chi"):
            sol = sols[which].solution
            ref = gradient_energy(sol.space, sol.u)
            assert sols[which].grad_energy == pytest.approx(ref, rel=1e-14)
        assert constants.ups_grad_energy == sols["upsilon"].grad_energy

    def test_eta_jump_positive(self, solutions):
        _, constants = solutions
        assert constants.eta_jump > 0
        assert constants.eta_jump == pytest.approx(constants.chi_grad_energy,
                                                   rel=1e-10)

    def test_constants_roundtrip(self, solutions, tmp_path):
        _, constants = solutions
        path = tmp_path / "c.txt"
        write_constants(constants, path, header_lines=["prov"])
        back = read_constants(path)
        assert back.as_dict() == constants.as_dict()


class TestDegenerate:
    def test_no_obstacle_chi_exact(self):
        mesh = build_strip_mesh(None, L=4, h=0.25)
        chi = solve_chi(mesh)
        space = chi.solution.space
        # exact uniform through-flow: chi = -e2, eta constant
        assert np.abs(chi.solution.u[: space.n_vnode]).max() < 1e-10
        assert np.abs(chi.solution.u[space.n_vnode :] + 1.0).max() < 1e-10
        jump = (band_integral(space, chi.solution.p, 2, 3, average=True)
                - band_integral(space, chi.solution.p, -3, -2, average=True))
        assert abs(jump) < 1e-10

    def test_no_obstacle_varkappa_exact(self):
        mesh = build_strip_mesh(None, L=4, h=0.25)
        chi = solve_chi(mesh)
        vk = solve_varkappa(mesh, chi)
        space = vk.solution.space
        assert np.abs(vk.solution.u[: space.n_vnode]).max() < 1e-9
        assert np.abs(vk.solution.u[space.n_vnode :] - 1.0).max() < 1e-9

    def test_beta_rejects_empty_obstacle(self):
        mesh = build_strip_mesh(None, L=4, h=0.25)
        with pytest.raises(ValueError):
            solve_beta(mesh)
        with pytest.raises(ValueError):
            solve_upsilon(mesh)

    def test_varkappa_mesh_mismatch(self, strip):
        other = build_strip_mesh(ObstacleSpec(), L=4, h=1 / 16)
        chi = solve_chi(other)
        with pytest.raises(MeshMismatch):
            solve_varkappa(strip, chi)


def test_constants_stable_under_h_halving():
    # halving h moves every constant by less than its acceptance tolerance
    c_coarse = solve_all(build_strip_mesh(ObstacleSpec(), L=10, h=1 / 16),
                         with_varkappa=False)[1]
    c_fine = solve_all(build_strip_mesh(ObstacleSpec(), L=10, h=1 / 32),
                       with_varkappa=False)[1]
    rel_tol = {"beta1_plus": 0.02, "beta1_minus": 0.02, "ups1_minus": 0.05,
               "eta_jump": 0.02}
    for key, tol in rel_tol.items():
        a, b = getattr(c_coarse, key), getattr(c_fine, key)
        assert abs(a - b) / abs(b) < tol, key
    assert abs(c_coarse.ups1_plus - c_fine.ups1_plus) < 5e-3


def test_constants_converge_at_second_order_in_h(default_strip_cells):
    # observed order log2((c(h) - c(h/2)) / (c(h/2) - c(h/4))) of the far-field
    # constants over strip.h = 1/24, 1/48, 1/96 (measured 2.16 to 2.18); the
    # h = 1/48 constants are the default strip's
    c = [solve_all(build_strip_mesh(ObstacleSpec(), L=10, h=h), with_varkappa=False)[1]
         for h in (1 / 24, 1 / 96)]
    c.insert(1, default_strip_cells[1])
    for key in ("eta_jump", "beta1_plus", "beta1_minus", "ups1_minus"):
        v = [getattr(ci, key) for ci in c]
        order = np.log2((v[0] - v[1]) / (v[1] - v[2]))
        assert 1.9 <= order <= 2.5, (key, order)


def test_asymmetric_obstacle_duality_identities():
    # the averaged identities do not rely on the reference disk's symmetry
    mesh = build_strip_mesh(ObstacleSpec(center=(0.4, 0.3), radius=0.15),
                            L=8, h=1 / 24)
    sols, constants = solve_all(mesh, with_varkappa=True)
    rep = identity_report(sols["beta"], sols["upsilon"], sols["chi"],
                          sols["varkappa"], constants)
    assert rep["beta1_jump_identity_rel"] <= 0.01
    assert rep["ups1_bottom_energy_rel"] <= 0.01
    assert rep["ups_jump_vs_beta_bottom_rel"] <= 0.01
    assert rep["chi_energy_vs_eta_jump_rel"] <= 0.01
    assert rep["mu_jump_identity_rel"] <= 0.02
    assert rep["varkappa1_jump_identity_rel"] <= 0.02
    assert rep["beta2_section_max"] <= 1e-6
    assert rep["ups2_section_max"] <= 1e-6


def test_truncation_length_insensitive():
    # doubling the strip length leaves every constant unchanged to 1e-6
    c10 = solve_all(build_strip_mesh(ObstacleSpec(), L=10, h=H),
                    with_varkappa=False)[1]
    c14 = solve_all(build_strip_mesh(ObstacleSpec(), L=14, h=H),
                    with_varkappa=False)[1]
    for key in ("beta1_plus", "beta1_minus", "ups1_plus", "ups1_minus",
                "eta_jump"):
        assert abs(getattr(c10, key) - getattr(c14, key)) < 1e-6


def test_identity_report_on_a_short_strip():
    # at L = 4 the sections +-5 lie outside the strip, where an average
    # raises; the report reads those at +-1 and +-2.5
    mesh = build_strip_mesh(ObstacleSpec(), L=4, h=1 / 16)
    sols, constants = solve_all(mesh, with_varkappa=True)
    rep = identity_report(*sols.values(), constants)
    inside = np.array([-2.5, -1.0, 1.0, 2.5])
    for key, which in (("beta2_section_max", "beta"), ("ups2_section_max", "upsilon")):
        assert rep[key] == np.max(np.abs(section_average(sols[which], 1, inside)))
    with pytest.raises(ValueError, match="meet no triangle"):
        section_average(sols["beta"], 1, np.array([-5.0, 5.0]))


def test_shared_operator_matches_independent_solves(strip, solutions):
    # solve_all shares its strip operators between the four correctors; each
    # corrector solved alone factors its own
    from stentflow.cli import TOL_TABLE

    off_centre = build_strip_mesh(ObstacleSpec(center=(0.4, 0.3)), L=L, h=H)
    for mesh, (sols, shared) in ((strip, solutions), (off_centre, solve_all(off_centre))):
        beta, upsilon, chi = solve_beta(mesh), solve_upsilon(mesh), solve_chi(mesh)
        varkappa = solve_varkappa(mesh, chi)
        alone = extract_constants(beta, upsilon, chi, varkappa)
        for key, val in alone.as_dict().items():
            assert abs(getattr(shared, key) - val) <= 1e-12 * abs(val), key
        rep_shared = identity_report(sols["beta"], sols["upsilon"], sols["chi"],
                                     sols["varkappa"], shared)
        rep_alone = identity_report(beta, upsilon, chi, varkappa, alone)
        assert rep_shared.keys() == rep_alone.keys()
        for key in rep_alone:
            assert ((rep_shared[key] <= TOL_TABLE[key])
                    == (rep_alone[key] <= TOL_TABLE[key])), key


def test_mismatched_pattern_rejected(strip, periodic_strip):
    op = periodic_strip(strip).operator
    # natural top and bottom: the vertical velocity there is no longer fixed
    bc = {T.STRIP_TOP: BC.natural(), T.STRIP_BOTTOM: BC.natural(),
          T.STRIP_LEFT: BC.periodic(T.STRIP_RIGHT),
          T.STRIP_RIGHT: BC.periodic(T.STRIP_LEFT),
          T.GAMMA_EPS: BC.dirichlet((0.0, 0.0))}
    space = op.space.with_bc(bc)
    with pytest.raises(ConstraintMismatch, match="fixed_dofs"):
        op.with_loads(space, *assemble_loads(space))
    # the same pattern on another mesh
    other = build_strip_mesh(ObstacleSpec(), L=L, h=H)
    space = periodic_strip(other).operator.space
    with pytest.raises(ConstraintMismatch, match="mesh"):
        op.with_loads(space, *assemble_loads(space))


# ----------------------------------------------------------------------------
# the half strip: correctors of a mirror-symmetric strip solved on its left half
# ----------------------------------------------------------------------------


def _counting_splu(monkeypatch):
    import scipy.sparse.linalg as spla

    calls, splu = [], spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(a) or splu(*a, **k))
    return calls


@pytest.mark.parametrize("config", [SolverConfig(method="direct"),
                                    SolverConfig(outer_tol=1e-13)],
                         ids=["direct", "uzawa"])
def test_half_strip_matches_periodic_path(monkeypatch, periodic_strip, config, node_xy):
    # the half-strip problems are the periodic one restricted to fields of
    # one parity, so the two paths differ by rounding once the solver error
    # is below it (at the default outer_tol, varkappa1_jump differs by 4e-10)
    mesh = build_strip_mesh(ObstacleSpec(), L=4, h=1 / 16)
    calls = _counting_splu(monkeypatch)
    sols, half = solve_all(mesh, config, with_varkappa=True)
    # Uzawa factors the odd and the even velocity block, the direct solver
    # each half-strip saddle point
    assert len(calls) == (2 if config.method == "uzawa_cg" else 4)
    ref_sols, ref = periodic_strip(mesh).solve_all(config)
    for key, val in ref.as_dict().items():
        assert abs(getattr(half, key) - val) <= 1e-10 * abs(val), key
    for which, cell in ref_sols.items():
        assert abs(sols[which].grad_energy - cell.grad_energy) <= 1e-10 * cell.grad_energy
    # residuals are relative, or of unit-size fields: compared absolutely
    rep = identity_report(sols["beta"], sols["upsilon"], sols["chi"], sols["varkappa"], half)
    ref_rep = identity_report(*ref_sols.values(), ref)
    assert rep.keys() == ref_rep.keys()
    for key, val in ref_rep.items():
        assert abs(rep[key] - val) <= 1e-10, key

    # the copied-back fields: periodic pairs equal, the obstacle data exact,
    # the recorded energies the stiffness forms of the full fields
    circle = np.unique(mesh.edges_with_tag(T.GAMMA_EPS))
    for which, cell in sols.items():
        sol = cell.solution
        assert sol.space.mesh is mesh and len(sol.space.vel_pairs)
        assert all(sol.u[s] == sol.u[m] for s, m in sol.space.vel_pairs)
        assert np.array_equal(sol.p[sol.space.p_pairs[:, 0]], sol.p[sol.space.p_pairs[:, 1]])
        obstacle = -node_xy(sol.space)[circle, 1] if which == "beta" else 0.0
        assert np.abs(sol.u[circle] - obstacle).max() < 1e-13
        assert np.abs(sol.u[sol.space.n_vnode + circle]).max() < 1e-13
        ref_energy = gradient_energy(sol.space, sol.u)
        assert cell.grad_energy == pytest.approx(ref_energy, rel=1e-14), which


@pytest.mark.parametrize("obstacle, h", [(ObstacleSpec(), 1 / 40),
                                         (ObstacleSpec(center=(0.4, 0.3)), 1 / 16)],
                         ids=["h=1/40", "off-centre"])
def test_every_strip_takes_half_strip(monkeypatch, obstacle, h):
    # the odd and the even half-strip operators
    calls = _counting_splu(monkeypatch)
    solve_all(build_strip_mesh(obstacle, L=4, h=h), with_varkappa=False)
    assert len(calls) == 2


def test_strip_without_a_half_rejected():
    # one vertex moved off its mirror image
    mesh = build_strip_mesh(ObstacleSpec(), L=4, h=1 / 16)
    vertices = mesh.vertices.copy()
    k = np.argmin(np.hypot(vertices[:, 0] - 0.25, vertices[:, 1] - 2.0))
    vertices[k, 0] += 1e-3
    mesh = dataclasses.replace(mesh, vertices=vertices)
    assert mirror_half(mesh) is None
    with pytest.raises(PeriodicMismatch, match="mirror"):
        solve_all(mesh, with_varkappa=False)


def test_no_obstacle_half_strip_matches_periodic_path(monkeypatch, periodic_strip, tmp_path):
    # even chi and odd varkappa part with Dirichlet ends, as cell --no-obstacle
    # solves chi
    from stentflow.cli import main

    mesh = build_strip_mesh(None, L=4, h=1 / 16)
    calls = _counting_splu(monkeypatch)
    chi = solve_chi(mesh)
    vk = solve_varkappa(mesh, chi)
    assert len(calls) == 2
    periodic = periodic_strip(mesh)
    ref_chi = _chi(periodic, None)
    ref_vk = periodic.varkappa(ref_chi)
    for cell, ref in ((chi, ref_chi), (vk, ref_vk)):
        for name in ("u", "p"):
            a, b = getattr(cell.solution, name), getattr(ref.solution, name)
            assert np.abs(a - b).max() <= 1e-10 * max(np.abs(b).max(), 1.0), name
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"strip.h = {1 / 16}\nstrip.L = 4\noutput.dir = {tmp_path}\n")
    calls.clear()
    assert main(["cell", "--config", str(cfg), "--no-obstacle"]) == 0
    assert len(calls) == 1
    jump = float((tmp_path / "constants.txt").read_text().split("eta_jump=")[1])
    assert abs(jump - _far_field_jump(ref_chi, "p")) <= 1e-10


def test_one_strip_factorization_alive_at_a_time(monkeypatch):
    # solve_all drops the even operator, with its factor, before the odd one
    # is factored; SuperLU objects take no weak references, so the reduced
    # systems holding the factors are probed
    import weakref

    from stentflow import solvers
    from stentflow.fem import ReducedSystem

    systems, alive_with_factor = [], []
    with_loads, factorize = ReducedSystem.with_loads, solvers.factorize

    def recording(self, space, f, g):
        red = with_loads(self, space, f, g)
        systems.append(weakref.ref(red))
        return red

    def counting(M):
        alive_with_factor.append(sum(red() is not None and "A" in red().factors
                                     for red in systems))
        return factorize(M)

    monkeypatch.setattr(ReducedSystem, "with_loads", recording)
    monkeypatch.setattr(solvers, "factorize", counting)
    mesh = build_strip_mesh(ObstacleSpec(), L=4, h=1 / 16)
    assert mirror_half(mesh) is not None
    solve_all(mesh, with_varkappa=True)
    assert alive_with_factor == [0, 0]
