"""Configuration parsing and CLI subcommand behaviour."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from stentflow.cli import main
from stentflow.config import DEFAULTS, RunConfig, parse_config
from stentflow.errors import ConfigError

README = Path(__file__).resolve().parent.parent / "README.md"

# the default strip's constants, as a constants file holds them
CONSTANTS = (
    "beta1_plus=-0.377928\nbeta1_minus=-0.122114\n"
    "ups1_plus=-0.000371269\nups1_minus=0.121744\neta_jump=27.9435\n"
    "chi_grad_energy=27.9435\nbeta_grad_energy=0.1454\n"
    "ups_grad_energy=0.121744\nobstacle_area=0.1104466\n"
)


def _child_env(**values):
    """The environment for a child interpreter, with ``src`` first on
    PYTHONPATH, plus ``values``."""
    path = [str(README.parent / "src")] + ([os.environ["PYTHONPATH"]]
                                           if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **values)


class TestConfig:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.case == "collateral"
        assert cfg.eps == pytest.approx(0.125)
        assert cfg.flow().p_in == 2.0
        assert cfg.obstacle().radius == pytest.approx(3 / 16)

    def test_parse_overrides_and_comments(self):
        cfg = parse_config("""
# comment line
case = aneurysm
eps = 0.25          # inline comment
p_in = 3.5
""")
        assert cfg.case == "aneurysm"
        assert cfg.eps == 0.25
        assert cfg.flow().p_in == 3.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("nonsense = 1")
        # removed keys: the cell solves share one factored operator instead
        # of a thread pool, the velocity block has one inner solver, and
        # Uzawa is always preconditioned by the pressure mass matrix
        for key in ("threads = 1", "solver.inner_tol = 1e-12",
                    "solver.max_inner = 2000", "solver.schur_preconditioner = none"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(key)

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("p_in = fast")
        with pytest.raises(ConfigError):
            parse_config("solver.max_outer = 1.5")
        with pytest.raises(ConfigError):
            parse_config("case = wormhole")

    def test_eps_list(self):
        cfg = parse_config("eps_list = 0.5, 0.25,0.125")
        assert cfg.eps_list == [0.5, 0.25, 0.125]

    def test_digest_deterministic(self):
        a = parse_config("eps = 0.25").digest()
        b = parse_config("eps = 0.25").digest()
        c = parse_config("eps = 0.5").digest()
        assert a == b != c
        assert len(a) == 12

    def test_all_defaults_documented(self):
        # every key is typed and reachable
        cfg = RunConfig()
        assert set(cfg.values) == set(DEFAULTS)

    def test_readme_table_names_every_key(self):
        # the README's configuration table is one contiguous table: each key
        # is named in a row, and each row names only known keys
        lines = README.read_text().splitlines()
        start = lines.index("### Configuration keys and defaults")
        rows = []
        for line in lines[start + 1:]:
            if line.startswith("|"):
                rows.append(line)
            elif rows:
                break
        named = set()
        for row in rows[2:]:                      # skip header and rule
            keys = re.findall(r"`([^`]+)`", row.split("|")[1])
            assert keys, row
            assert set(keys) <= set(DEFAULTS), row
            named.update(keys)
        assert named == set(DEFAULTS)


@pytest.fixture
def workdir(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"eps = 0.25\nmesh.h = 0.12\nstrip.h = {1 / 16}\nstrip.L = 4\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    return tmp_path, cfg


class TestCli:
    def test_mesh_roundtrip_and_vtk(self, workdir):
        tmp, cfg = workdir
        assert main(["mesh", "--config", str(cfg), "--vtk"]) == 0
        out = tmp / "out"
        mesh_file = out / "macro_eps0.25.mesh"
        assert mesh_file.exists()
        assert (out / "macro_eps0.25.vtk").exists()
        from stentflow.meshio import load_mesh, save_mesh

        mesh = load_mesh(mesh_file)
        twice = out / "again.mesh"
        first_line = mesh_file.read_text().splitlines()[0]
        save_mesh(mesh, twice, header_lines=[first_line.lstrip("# ")])
        assert twice.read_bytes() == mesh_file.read_bytes()

    def test_invalid_eps_exit_2(self, workdir, capsys):
        # eps is checked before the output directory is made, also by the
        # commands that do not mesh at eps
        tmp, cfg = workdir
        cfg.write_text(cfg.read_text().replace("eps = 0.25", "eps = 0.3"))
        for command in ("mesh", "solve", "homog", "cell", "converge"):
            assert main([command, "--config", str(cfg)]) == 2
            assert "1/eps = 3.33" in capsys.readouterr().err
            assert not (tmp / "out").exists()

    def test_nonpositive_obstacle_radius_exit_2(self, workdir, capsys):
        # obstacle.r has one meaning in every subcommand: the unobstructed
        # strip is `cell --no-obstacle`, not a zero radius
        tmp, cfg = workdir
        cfg.write_text(cfg.read_text() + "obstacle.r = 0\n")
        assert main(["mesh", "--config", str(cfg)]) == 2
        assert "cell --no-obstacle" in capsys.readouterr().err
        assert not (tmp / "out").exists()

    @pytest.mark.parametrize("lines", ["obstacle.r = 0.3", "obstacle.cy = 0.1\nobstacle.r = 0.2",
                                       "strip.L = 2", "obstacle.cx = 0.747\n"
                                       "obstacle.cy = 0.693\nobstacle.r = 0.2507"])
    def test_geometry_rule_exit_2_in_every_command(self, workdir, capsys, lines):
        # the disk contract, the disk cost rule and the strip half-length
        # rule mean the same in every subcommand: `homog` ran on these disks,
        # `cell` and `converge` failed after solving, strip.L = 2 failed after
        # out/ was made, and the last disk, 0.0023 from a cell side, meshed
        # 2.8 M triangles at eps = 1/4
        tmp, cfg = workdir
        cfg.write_text(cfg.read_text().replace("strip.L = 4\n", "") + lines + "\n")
        key = lines.split("\n")[-1].split(" =")[0]
        for command in ("mesh", "solve", "homog", "cell", "converge"):
            assert main([command, "--config", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert "configuration error" in err and key in err
            assert not (tmp / "out").exists()

    def test_small_disk_on_coarse_strip_meshes(self, workdir):
        # a lattice cell spanned 2.5 chords of the disk's 16-gon and the
        # strip failed the quality check (15.4 degrees); now it spans 1.5
        tmp, cfg = workdir
        cfg.write_text(cfg.read_text().replace(f"strip.h = {1 / 16}", "strip.h = 0.125")
                       + "obstacle.cy = 0.3\nobstacle.r = 0.1\n")
        assert main(["mesh", "--config", str(cfg)]) == 0

    def test_unknown_key_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mystery = 42\n")
        assert main(["mesh", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("line", ["solver.schur_preconditioner = pressure_mas",
                                      "solver.method = lu"])
    def test_unknown_solver_setting_exit_2(self, workdir, capsys, line):
        # rejected before any meshing, naming the key
        tmp, cfg = workdir
        cfg.write_text(cfg.read_text() + line + "\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        assert line.split(" =")[0] in capsys.readouterr().err
        assert not (tmp / "out").exists()

    def test_threads_flag_exit_2(self, workdir, capsys):
        tmp, cfg = workdir
        with pytest.raises(SystemExit) as exc:
            main(["cell", "--config", str(cfg), "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    def test_solve_writes_fluxes(self, workdir, capsys):
        tmp, cfg = workdir
        assert main(["solve", "--config", str(cfg)]) == 0
        flux_file = tmp / "out" / "fluxes_eps0.25.csv"
        lines = flux_file.read_text().splitlines()
        assert lines[0].startswith("# stentflow 0.1.0 config=")
        assert lines[1] == "name,value"

    def test_cell_no_obstacle(self, workdir):
        tmp, cfg = workdir
        assert main(["cell", "--config", str(cfg), "--no-obstacle"]) == 0
        text = (tmp / "out" / "constants.txt").read_text()
        val = float(text.splitlines()[-1].split("=")[1])
        assert abs(val) < 1e-8

    def test_cell_skip_varkappa(self, workdir):
        tmp, cfg = workdir
        assert main(["cell", "--config", str(cfg), "--skip-varkappa"]) == 0
        text = (tmp / "out" / "constants.txt").read_text()
        assert "eta_jump=" in text
        assert "varkappa" not in text

    def test_cell_vtk_export(self, workdir):
        tmp, cfg = workdir
        assert main(["cell", "--config", str(cfg), "--skip-varkappa",
                     "--vtk"]) == 0
        text = (tmp / "out" / "cell_fields.vtk").read_text()
        assert "VECTORS beta_velocity double" in text
        assert "SCALARS chi_pressure double 1" in text

    def test_cell_no_obstacle_vtk_export(self, workdir):
        # the unobstructed strip writes chi's fields, as the obstructed one does
        tmp, cfg = workdir
        assert main(["cell", "--config", str(cfg), "--no-obstacle", "--vtk"]) == 0
        text = (tmp / "out" / "cell_fields.vtk").read_text()
        names = re.findall(r"^(?:VECTORS|SCALARS) (\w+)", text, flags=re.M)
        assert names == ["chi_velocity", "chi_pressure"]

    def test_homog_from_constants_file(self, workdir, capsys):
        tmp, cfg = workdir
        assert main(["cell", "--config", str(cfg), "--skip-varkappa"]) == 0
        constants = tmp / "out" / "constants.txt"
        assert main(["homog", "--config", str(cfg), "--constants",
                     str(constants)]) == 0
        out = capsys.readouterr().out
        assert "flow-rate law" in out
        interface = tmp / "out" / "interface_eps0.25.csv"
        head = interface.read_text().splitlines()[1].split(",")
        assert head[:5] == ["x1", "u_t_plus", "u_t_minus", "u_n", "p_jump"]
        rates = (tmp / "out" / "flowrate_eps0.25.csv").read_text().splitlines()
        assert rates[2].startswith("Q_formula,")

    def test_homog_eps_zero_zero_order_only(self, workdir, capsys):
        tmp, cfg = workdir
        cfg.write_text(cfg.read_text().replace("eps = 0.25", "eps = 0.0")
                       + "case = aneurysm\n")
        constants = tmp / "c.txt"
        constants.write_text(CONSTANTS)
        assert main(["homog", "--config", str(cfg), "--constants",
                     str(constants)]) == 0
        out = capsys.readouterr().out
        assert "zero-order pressure: 1" in out       # aneurysm sac constant
        assert "zero-order model only" in out

    def test_homog_eps_zero_solves_nothing(self, workdir, capsys):
        # the zero-order model needs no strip constants, so none are solved
        tmp, cfg = workdir
        cfg.write_text(cfg.read_text().replace("eps = 0.25", "eps = 0.0"))
        assert main(["homog", "--config", str(cfg)]) == 0
        out, err = capsys.readouterr()
        assert "zero-order model only" in out
        assert "converged=" not in err

    @pytest.mark.parametrize("command", ["homog", "converge"])
    def test_strip_built_and_solved_once(self, workdir, monkeypatch, command):
        import stentflow.analysis as analysis
        import stentflow.config as config

        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(config, "build_strip_mesh", counting(config.build_strip_mesh))
        monkeypatch.setattr(analysis, "solve_all", counting(analysis.solve_all))
        tmp, cfg = workdir
        assert main([command, "--config", str(cfg)]) == 0
        assert calls == ["build_strip_mesh", "solve_all"]

    def test_homog_unconverged_exit_1(self, workdir, capsys):
        tmp, cfg = workdir
        cfg.write_text(cfg.read_text() + "solver.max_outer = 3\n")
        constants = tmp / "c.txt"
        constants.write_text(CONSTANTS)
        assert main(["homog", "--config", str(cfg), "--constants",
                     str(constants)]) == 1
        out, err = capsys.readouterr()
        assert "flow-rate law" not in out
        assert "converged=False" in err
        assert "numerical failure: NonConvergence" in err
        assert not (tmp / "out" / "flowrate_eps0.25.csv").exists()

    def test_converge_dry_run(self, workdir, capsys):
        tmp, cfg = workdir
        assert main(["converge", "--config", str(cfg), "--dry-run"]) == 0
        assert capsys.readouterr().out == (
            "plan: eps=[0.25, 0.125, 0.0625], macro h=0.12, strip h=0.0625 L=4.0, "
            "first-order h=0.05\n")
        assert not (tmp / "out").exists()

    def test_converge_needs_three_eps(self, workdir):
        tmp, cfg = workdir
        cfg.write_text(cfg.read_text() + "eps_list = 0.25\n")
        assert main(["converge", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("command", ["mesh", "converge"])
    @pytest.mark.parametrize("eps_list", ["0.25,0.125", "0.25,abc",
                                          "0.25,0.3,0.0625", "0.25,0.25,0.125"])
    def test_bad_eps_list_exit_2(self, workdir, capsys, command, eps_list):
        # eps_list means the same in every subcommand: rejected when the
        # file is read, before any meshing, naming the key
        tmp, cfg = workdir
        cfg.write_text(cfg.read_text() + f"eps_list = {eps_list}\n")
        assert main([command, "--config", str(cfg)]) == 2
        assert "eps_list" in capsys.readouterr().err
        assert not (tmp / "out").exists()

    @pytest.mark.parametrize("command, line", [
        ("mesh", "mesh.h = 0"), ("solve", "mesh.h = -0.1"), ("mesh", "mesh.h = nan"),
        ("homog", "first_order.h = 0"), ("converge", "first_order.h = -1"),
        ("cell", "strip.h = 0"), ("homog", "strip.h = inf"),
        ("cell", "strip.L = 1.5"), ("mesh", "strip.L = -inf"),
        ("solve", "p_in = nan"), ("homog", "p_out1 = inf"), ("converge", "p_out2 = -inf"),
        ("solve", "obstacle.cx = nan"), ("mesh", "obstacle.r = nan"),
        ("converge", "eps_list = 1,0.5,0.25"),
        ("mesh", "mesh.obstacle_factor = 0"), ("solve", "mesh.obstacle_factor = -1"),
        ("mesh", "mesh.min_circle_segments = 0"), ("cell", "mesh.min_circle_segments = 2"),
        ("mesh", "mesh.min_angle = -1"), ("converge", "mesh.min_angle = 60"),
    ])
    def test_out_of_range_value_exit_2(self, workdir, capsys, command, line):
        # rejected when the file is read, before any output, naming the key
        tmp, cfg = workdir
        cfg.write_text(cfg.read_text() + line + "\n")
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and line.split(" =")[0] in err
        assert not (tmp / "out").exists()

    def test_value_error_in_command_is_not_a_configuration_error(self, workdir,
                                                                  capsys, monkeypatch):
        # a ValueError past parsing is a fault of the program, not of the input
        import stentflow.cli as cli

        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "triangulate", broken)
        tmp, cfg = workdir
        with pytest.raises(ValueError, match="internal fault"):
            main(["mesh", "--config", str(cfg)])
        assert "configuration error" not in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["beta1_plus -0.37\n", "beta1_plus=fast\n",
                                      "nonsense=1.0\n"])
    def test_malformed_constants_file_exit_2(self, workdir, capsys, text):
        tmp, cfg = workdir
        constants = tmp / "c.txt"
        constants.write_text(text)
        assert main(["homog", "--config", str(cfg), "--constants", str(constants)]) == 2
        assert f"constants file {constants}" in capsys.readouterr().err
        assert not (tmp / "out").exists()

    @pytest.mark.parametrize("edit, named", [
        (("eta_jump=27.9435", "eta_jump=0.0"), "eta_jump = 0"),
        (("eta_jump=27.9435", "eta_jump=-27.9435"), "eta_jump = -27.9435 is not positive"),
        (("eta_jump=27.9435", "eta_jump=nan"), "eta_jump = nan is not finite"),
        (("beta1_plus=-0.377928", "beta1_plus=inf"), "beta1_plus = inf is not finite"),
        (("obstacle_area=0.1104466", "obstacle_area=-inf"), "obstacle_area = -inf"),
        (("ups1_plus=-0.000371269", "ups1_plus=0.377928"), "beta1_plus + ups1_plus = 0"),
        (("ups1_minus=0.121744", "ups1_minus=0.122114"), "beta1_minus + ups1_minus = 0"),
    ], ids=["eta_jump-zero", "eta_jump-negative", "eta_jump-nan", "beta1_plus-inf",
            "obstacle_area-inf",
            "slip_plus-zero", "slip_minus-zero"])
    def test_degenerate_constants_file_exit_2(self, workdir, capsys, edit, named):
        # the interface data and the flow-rate law divide by eta_jump, and the
        # implicit report by each side's slip; a non-finite constant would
        # reach the solver as NaN data, and a negative eta_jump, chi's
        # gradient energy, would turn the flow-rate law's sign
        tmp, cfg = workdir
        constants = tmp / "c.txt"
        constants.write_text(CONSTANTS.replace(*edit))
        assert main(["homog", "--config", str(cfg), "--constants", str(constants)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: constants file {constants}: {named}" in err
        assert "RuntimeWarning" not in err and "converged=" not in err
        assert not (tmp / "out").exists()

    def test_homog_aneurysm_at_large_pressures(self, workdir):
        # pressures of order 1e9 leave a net interface flux of 3.5e-10 in the
        # sac's Dirichlet data from rounding alone, which an absolute 1e-10
        # threshold refused as a compatibility failure
        tmp, cfg = workdir
        cfg.write_text(cfg.read_text() + "case = aneurysm\np_in = 2.3e9\np_out1 = 3e8\n")
        assert main(["homog", "--config", str(cfg)]) == 0
        assert (tmp / "out" / "interface_eps0.25.csv").exists()

    def test_cell_fails_a_broken_identity(self, workdir, monkeypatch, capsys):
        # a pressure normalization off by a constant leaves every section
        # average of the beta pressure at that constant
        import stentflow.cell as cell

        normalize = cell._cell

        def shifted(sol, energy):
            normalized = normalize(sol, energy)
            sol.p = sol.p + 1e-3
            return normalized

        monkeypatch.setattr(cell, "_cell", shifted)
        tmp, cfg = workdir
        assert main(["cell", "--config", str(cfg)]) == 1
        assert "pi_section_max_rel" in capsys.readouterr().err
        report = (tmp / "out" / "identity_report.txt").read_text()
        assert re.search(r"^pi_section_max_rel=.* FAIL$", report, re.M)

    def test_cell_fails_a_check_without_tolerance(self, workdir, monkeypatch, capsys):
        # a report key missing from TOL_TABLE is a failure, not a pass
        import stentflow.cell as cell

        report = cell.identity_report

        def extended(*args):
            return {**report(*args), "untabled_check": 0.0}

        monkeypatch.setattr(cell, "identity_report", extended)
        tmp, cfg = workdir
        assert main(["cell", "--config", str(cfg)]) == 1
        assert "identity checks FAILED: untabled_check" in capsys.readouterr().err
        lines = (tmp / "out" / "identity_report.txt").read_text().splitlines()[1:]
        assert lines[-1] == "untabled_check=0.0 tol=None FAIL"
        assert all(line.endswith(" ok") for line in lines[:-1])

    def test_cell_short_strip_passes_every_identity(self, workdir):
        # the workdir strip has L = 4, inside which the report reads its
        # sections (+-1 and +-2.5)
        tmp, cfg = workdir
        assert main(["cell", "--config", str(cfg)]) == 0
        report = (tmp / "out" / "identity_report.txt").read_text().splitlines()[1:]
        assert len(report) == 12 and all(line.endswith(" ok") for line in report)

    def test_cell_output_bytes_pinned(self, workdir):
        # sha256 of each file below its provenance line, as written before
        # varkappa's source was evaluated between the two factorizations
        tmp, cfg = workdir
        assert main(["cell", "--config", str(cfg)]) == 0
        pinned = {
            "constants.txt": "6f17bc8c6ab9d8bfbc6e366f7d862e37db6291780c5fc137a78a6fab3e701dcd",
            "constants.csv": "d5cfc087821452c622c3dded53be1db65fe95dab3d6cd2755667d00c66bdfc3a",
            "identity_report.txt":
                "a40b09ec28cf9279a4403e0d051323e5f1c2087fbf939fcfadd34696d8035d22",
        }
        for name, digest in pinned.items():
            body = (tmp / "out" / name).read_bytes().split(b"\n", 1)[1]
            assert hashlib.sha256(body).hexdigest() == digest, name

    def test_cell_fields_bytes_pinned(self, workdir):
        # sha256 of each file without its provenance line: every corrector's
        # unfolded, normalized fields, and the unobstructed strip's chi and
        # constants, as written before the cell solutions stopped holding
        # their mesh and normalization record
        tmp, cfg = workdir
        pinned = {
            (): {"cell_fields.vtk":
                 "aeb2867778f9259dad903df4e26ce2983ba1f11e4ff9c32e5c033701c3c0f707"},
            ("--no-obstacle",): {
                "cell_fields.vtk":
                    "a6d961078a4700fd955928087fda162040c262f3cc65599df6268e9c243a696a",
                "constants.txt":
                    "ab1d9eb056f806c4083ba25d65f877b0f7da68fbeaa2ec219d553d0c4a2d4357",
            },
        }
        for flags, digests in pinned.items():
            assert main(["cell", "--config", str(cfg), "--vtk", *flags]) == 0
            for name, digest in digests.items():
                lines = (tmp / "out" / name).read_bytes().split(b"\n")
                # the provenance is a VTK file's second line, a text file's first
                del lines[1 if name.endswith(".vtk") else 0]
                assert hashlib.sha256(b"\n".join(lines)).hexdigest() == digest, (flags, name)

    def test_macro_output_bytes_pinned(self, workdir, capsys):
        # sha256 of each file below its provenance line, and the Uzawa step
        # counts, as recorded before Uzawa's outer loop moved onto scipy's
        # cg (solve and the aneurysm homog) and before the channel pair's
        # boundary table, stent-averaged pressure, slips and interface flux
        # were each given one owner (the collateral homog and converge); the
        # aneurysm sac's corrector solve has a pressure kernel
        tmp, cfg = workdir
        sac = tmp / "sac.cfg"
        sac.write_text(cfg.read_text().replace("eps = 0.25", "eps = 0.125")
                       + "case = aneurysm\n")
        pinned = [
            (cfg, "solve", {"fluxes_eps0.25.csv":
                            "dc10ec0aa5454ab039f85cd1093858440151319f8508d2e0e9c86cf6a2f66f65"},
             [19]),
            (sac, "homog", {"interface_eps0.125.csv":
                            "ce97afbca2672766c388d23474debece937fe49191b35baf844e612970bbaccc"},
             [11, 9, 9, 11, 16]),
            (cfg, "homog", {
                "interface_eps0.25.csv":
                    "3401af19c9f4612f1578bae383bf0e20a308fdc2eaea465565ec8c695a55a903",
                "flowrate_eps0.25.csv":
                    "b6b208b70e5b387073cbd88e69166cb3e480b2923c1ace1c3c3dd0a0f49c97c6",
            }, [11, 9, 9, 13, 19]),
            (cfg, "converge", {
                "errors.csv": "5ace8d660f174c85c9f2c0b42cedba28bcb2c52bb9f5974d9ee73e0dca24aed0",
                "slopes.txt": "e7df25664be83b5487f9833a16e0c0c990950a57db652c4b6c917a29b6ed208a",
            }, [11, 9, 9, 13, 19, 19, 20, 20]),
        ]
        for config, command, digests, steps in pinned:
            capsys.readouterr()
            assert main([command, "--config", str(config)]) == 0
            for name, digest in digests.items():
                body = (tmp / "out" / name).read_bytes().split(b"\n", 1)[1]
                assert hashlib.sha256(body).hexdigest() == digest, name
            err = capsys.readouterr().err
            assert [int(n) for n in re.findall(r" iters=(\d+) ", err)] == steps, command

    def test_cell_small_disk_at_coarse_h(self, tmp_path):
        # r = 0.04 at strip.h = 1/16 failed the mesh quality check (9.86
        # degrees) before the lattice was sized from the radius too
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"obstacle.r = 0.04\nstrip.h = {1 / 16}\noutput.dir = {tmp_path / 'out'}\n")
        assert main(["cell", "--config", str(cfg)]) == 0
        report = (tmp_path / "out" / "identity_report.txt").read_text().splitlines()[1:]
        assert len(report) == 12 and all(line.endswith(" ok") for line in report)

    def test_entry_point_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stentflow.cli", "--version"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"


def test_deterministic_outputs(workdir):
    tmp, cfg = workdir
    assert main(["solve", "--config", str(cfg)]) == 0
    flux = (tmp / "out" / "fluxes_eps0.25.csv").read_bytes()
    assert main(["solve", "--config", str(cfg)]) == 0
    assert (tmp / "out" / "fluxes_eps0.25.csv").read_bytes() == flux


def test_cell_outputs_independent_of_blas_threads(tmp_path):
    # the default strip: at strip.h = 1/16 a BLAS dot product happened to
    # give the same last digits with 1 and 2 threads, here it did not
    procs = {}
    for n in ("1", "2"):
        run = tmp_path / f"threads{n}"
        run.mkdir()
        (run / "run.cfg").write_text(f"output.dir = {run / 'out'}\n")
        procs[n] = subprocess.Popen(
            [sys.executable, "-m", "stentflow.cli", "cell", "--config", "run.cfg"],
            cwd=run, env=_child_env(OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    assert all(proc.wait() == 0 for proc in procs.values())
    one, two = tmp_path / "threads1" / "out", tmp_path / "threads2" / "out"
    names = sorted(f.name for f in one.iterdir())
    assert names == sorted(f.name for f in two.iterdir())
    assert {"constants.csv", "constants.txt", "identity_report.txt"} <= set(names)
    for name in names:
        # below the provenance line, whose config digest names the out dir
        a = (one / name).read_bytes().split(b"\n", 1)[1]
        b = (two / name).read_bytes().split(b"\n", 1)[1]
        assert a == b, name
