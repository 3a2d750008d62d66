"""Tests for the command-line interface."""

import os
import re

import pytest

from repro.cli import main
from repro.datasets import read_g2o


@pytest.fixture
def g2o_file(tmp_path):
    path = os.path.join(tmp_path, "mini.g2o")
    assert main(["generate", "--dataset", "M3500", "--scale", "0.01",
                 str(path)]) == 0
    return str(path)


class TestGenerate:
    def test_writes_g2o(self, g2o_file):
        values, factors = read_g2o(g2o_file)
        assert len(values) == 35
        assert len(factors) >= 34

    def test_sphere_3d(self, tmp_path):
        path = os.path.join(tmp_path, "s.g2o")
        assert main(["generate", "--dataset", "Sphere", "--scale",
                     "0.01", str(path)]) == 0
        values, _ = read_g2o(path)
        assert type(values.at(0)).__name__ == "SE3"


class TestInfo:
    def test_reports_counts(self, g2o_file, capsys):
        assert main(["info", g2o_file]) == 0
        out = capsys.readouterr().out
        assert "35 vertices" in out
        assert "SE2" in out


class TestSolve:
    @pytest.mark.parametrize("solver", ["gn", "lm", "isam2"])
    def test_solvers_run(self, g2o_file, solver, capsys, tmp_path):
        out_path = os.path.join(tmp_path, f"out_{solver}.g2o")
        assert main(["solve", g2o_file, "--solver", solver,
                     "--out", out_path]) == 0
        assert "final objective" in capsys.readouterr().out
        values, _ = read_g2o(out_path)
        assert len(values) == 35

    def test_solve_reduces_objective(self, g2o_file, capsys):
        main(["solve", g2o_file, "--solver", "lm"])
        out = capsys.readouterr().out
        objective = float(out.split("final objective")[1].split()[0])
        assert objective < 1e3

    def test_isam2_anchors_disconnected_components(self, tmp_path,
                                                   capsys):
        """A multi-robot g2o file has a second key namespace whose
        first vertex arrives with no covering factor; the incremental
        feed must anchor it instead of going singular."""
        path = os.path.join(tmp_path, "rendezvous.g2o")
        assert main(["generate", "--dataset", "Rendezvous",
                     "--scale", "0.1", path]) == 0
        assert main(["solve", path, "--solver", "isam2"]) == 0
        assert "final objective" in capsys.readouterr().out


class TestSimulate:
    def test_supernova(self, capsys):
        assert main(["simulate", "--dataset", "M3500", "--scale", "0.02",
                     "--platform", "supernova1"]) == 0
        out = capsys.readouterr().out
        assert "per-step latency" in out
        assert "misses" in out

    def test_op_block_pricing_line(self, capsys):
        assert main(["simulate", "--dataset", "Sphere", "--scale", "0.03",
                     "--platform", "supernova2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        plans = next(i for i, line in enumerate(lines)
                     if line.startswith("step plans:"))
        blocks = lines[plans + 1]
        assert re.fullmatch(
            r"op-block pricing: \d+ distinct, \d+\.\d% reused", blocks)
        distinct = int(blocks.split()[2])
        reused = float(blocks.split()[4].rstrip("%"))
        assert distinct > 0
        assert 0.0 < reused < 100.0

    def test_cpu_baseline(self, capsys):
        assert main(["simulate", "--dataset", "M3500", "--scale", "0.02",
                     "--platform", "boom"]) == 0
        out = capsys.readouterr().out
        assert "BOOM" in out
        # CPU platforms price each step in one sequential pass: no
        # op-block lookups, so no op-block line.
        assert "op-block pricing" not in out

    def test_unknown_platform_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--dataset", "M3500",
                  "--platform", "tpu"])


class TestAutotune:
    def test_tiny_grid_sweep(self, capsys):
        assert main(["autotune", "--dataset", "CAB1",
                     "--dims", "4,8", "--sets", "1,2", "--tiles", "1",
                     "--llc-kib", "4096", "--dram", "64",
                     "--top", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 configurations" in out
        assert "Pareto front" in out
        assert "8x8" in out

    def test_budget_line_and_infeasible(self, capsys):
        assert main(["autotune", "--dataset", "CAB1",
                     "--dims", "4", "--sets", "1", "--tiles", "1",
                     "--llc-kib", "4096", "--dram", "64",
                     "--max-area-um2", "1e9"]) == 0
        assert "best under requested budget" in capsys.readouterr().out
        assert main(["autotune", "--dataset", "CAB1",
                     "--dims", "4", "--sets", "1", "--tiles", "1",
                     "--llc-kib", "4096", "--dram", "64",
                     "--max-area-um2", "1.0"]) == 1
        assert "no configuration satisfies" in capsys.readouterr().out
