"""CLI contracts: subcommand behavior, exit codes, config handling, and
snapshot-based reproducibility."""

import dataclasses
import hashlib
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from specproj import fldio
from specproj.cli import _GENERATE, main
from specproj.metrics import divergence_loss, nrmse
from specproj.runconfig import load_config, parse_config_text
from specproj.solvers import KolmogorovConfig, KseConfig, SweConfig
from specproj.errors import ContractError

from raw_trunk import raw_trunk


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_cfg(path, text):
    path.write_text(text)
    return str(path)


def _with_line(src, dst, key, value):
    """``src``'s model file written to ``dst`` with its ``key`` header line
    set to ``value``; returns ``dst``."""
    raw, n = re.subn(rf"\n{key} = [^\n]*\n".encode(), f"\n{key} = {value}\n".encode(),
                     src.read_bytes(), count=1)
    assert n == 1, key
    dst.write_bytes(raw)
    return dst


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small Kolmogorov dataset plus trained models shared by CLI tests."""
    root = tmp_path_factory.mktemp("cliws")
    gen = _write_cfg(root / "gen.cfg",
                     "n = 32\ndt = 0.001\nframe_interval = 40\nt_in = 1\nt_out = 6\n")
    assert main(["--seed", "3", "--out", str(root / "ds"), "--config", gen,
                 "generate", "kolmogorov", "--count", "3"]) == 0
    tr = _write_cfg(root / "tr.cfg",
                    "epochs = 2\nbatch = 8\nwidth = 6\nmodes = 6,6\nn_layers = 1\n")
    assert main(["--seed", "1", "--out", str(root / "pcno.mdl"), "--config", tr,
                 "train", str(root / "ds"), "pcno"]) == 0
    arr = fldio.read_array(root / "ds" / "traj_0000.fld")
    fldio.write_array(root / "init.fld", arr[:, 0])
    ct = _write_cfg(root / "ct.cfg", "ct_steps = 25\nct_batch = 8\nhidden = 24\n")
    assert main(["--seed", "5", "--out", str(root / "diff.mdl"), "--config", ct,
                 "train", str(root / "ds"), "diffpcno", "--pcno", str(root / "pcno.mdl")]) == 0
    return root


class TestGenerate:
    def test_rerun_same_seed_identical_sha(self, tmp_path):
        cfg = _write_cfg(tmp_path / "g.cfg", "n = 64\nsteps = 4\nwarmup = 1\nsubsteps = 2\n")
        for d in ("a", "b"):
            assert main(["--seed", "7", "--out", str(tmp_path / d), "--config", cfg,
                         "generate", "kse", "--count", "2"]) == 0
        for name in ("traj_0000.fld", "traj_0001.fld", "manifest"):
            assert _sha(tmp_path / "a" / name) == _sha(tmp_path / "b" / name)

    def test_invalid_kind_is_usage_error(self, tmp_path):
        assert main(["--out", str(tmp_path / "x"), "generate", "maxwell"]) == 1

    def test_unknown_config_key_is_contract_error(self, tmp_path):
        cfg = _write_cfg(tmp_path / "bad.cfg", "wibble = 3\n")
        assert main(["--out", str(tmp_path / "x"), "--config", cfg,
                     "generate", "kse", "--count", "1"]) == 2

    def test_invalid_count_leaves_no_directory(self, tmp_path):
        out = tmp_path / "d"
        assert main(["--out", str(out), "generate", "kse", "--count", "0"]) == 2
        assert not out.exists()

    def test_invalid_solver_config_leaves_no_directory(self, tmp_path):
        cfg = _write_cfg(tmp_path / "odd.cfg", "n = 7\n")
        out = tmp_path / "d"
        assert main(["--out", str(out), "--config", cfg,
                     "generate", "kolmogorov", "--count", "1"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "t_in = 0\nt_out = 0\n",  # no frame to record
        "t_in = 1\nt_out = 0\n",  # one frame is no trajectory
        "t_in = -1\nt_out = 4\n",
        "form = bogus\n",
    ], ids=["no_frames", "one_frame", "negative_t_in", "bogus_form"])
    def test_bad_kolmogorov_frames_or_form_exit_2(self, tmp_path, capsys, text):
        cfg = _write_cfg(tmp_path / "k.cfg", "n = 16\nframe_interval = 2\nt_out = 2\n" + text)
        out = tmp_path / "d"
        assert main(["--out", str(out), "--config", cfg,
                     "generate", "kolmogorov", "--count", "1"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()


    @pytest.mark.parametrize("text", [
        "cell_size = 0\n", "cell_size = -10\n", "record_interval = 0\n",
        "record_interval = -5\n", "duration = -10\n", "rainfall = -1\n",
        "manning_n = -0.03\n",
    ], ids=["zero_cell", "negative_cell", "zero_interval", "negative_interval",
            "negative_duration", "negative_rain", "negative_manning"])
    def test_impossible_swe_settings_exit_2(self, tmp_path, capsys, text):
        cfg = _write_cfg(tmp_path / "s.cfg", "ny = 8\nnx = 8\nduration = 600\n" + text)
        out = tmp_path / "d"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--out", str(out), "--config", cfg, "generate", "swe", "--count", "1"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("kind,key,value,shown", [
        ("kse", "length", "0", "0.0"), ("kse", "length", "-64", "-64.0"),
        ("kse", "dt", "0", "0.0"), ("kse", "nu", "0", "0.0"), ("kse", "substeps", "0", "0"),
        ("kse", "n", "4", "4"), ("kolmogorov", "dt", "0", "0.0"),
        ("kolmogorov", "nu", "-1e-3", "-0.001"), ("kolmogorov", "frame_interval", "0", "0"),
        ("kolmogorov", "n", "7", "7"), ("kolmogorov", "init_tau", "0", "0.0"),
        ("kolmogorov", "init_scale", "-1", "-1.0"), ("swe", "nx", "2", "2"),
        ("swe", "manning_n", "1e160", "1e+160"),
    ])
    def test_impossible_solver_value_exits_2_naming_the_key(self, tmp_path, capsys, kind, key,
                                                            value, shown):
        """One line names the key and its value, before any solve starts or
        any file is written, and no floating-point warning is raised."""
        base = {"kse": "n = 32\nsteps = 2\nwarmup = 0\nsubsteps = 2\n",
                "kolmogorov": "n = 16\ndt = 0.001\nframe_interval = 2\nt_in = 1\nt_out = 1\n",
                "swe": "ny = 8\nduration = 600\n"}
        cfg = _write_cfg(tmp_path / "g.cfg", f"{base[kind]}{key} = {value}\n")
        out = tmp_path / "d"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--out", str(out), "--config", cfg, "generate", kind,
                         "--count", "1"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key} must be ")
        assert err[0].endswith(f", got {shown}")
        assert not out.exists()

    @pytest.mark.parametrize("kind,config", [("kse", KseConfig), ("kolmogorov", KolmogorovConfig),
                                             ("swe", SweConfig)])
    def test_every_solver_field_is_a_generate_row(self, kind, config):
        """A solver value that no run can set is a constant of its module,
        not a config field; ``dem``, ``fixed_dt`` and ``infiltration`` are
        the test hooks."""
        fields = {f.name for f in dataclasses.fields(config)}
        assert fields - {"dem", "fixed_dt", "infiltration"} <= {r.key for r in _GENERATE[kind]}


class TestProject:
    def test_mass_filter_divergence(self, workspace, tmp_path):
        out = tmp_path / "proj.fld"
        assert main(["--out", str(out), "project", str(workspace / "init.fld"),
                     "--selector", "mass"]) == 0
        assert divergence_loss(fldio.read_fld(out)) < 1e-10

    def test_none_selector_copies_bytes(self, workspace, tmp_path):
        out = tmp_path / "copy.fld"
        assert main(["--out", str(out), "project", str(workspace / "init.fld"),
                     "--selector", "none"]) == 0
        assert out.read_bytes() == (workspace / "init.fld").read_bytes()

    def test_single_channel_mass_rejected(self, tmp_path):
        one = tmp_path / "one.fld"
        fldio.write_array(one, np.random.default_rng(0).standard_normal((1, 8, 8)))
        assert main(["--out", str(tmp_path / "o.fld"), "project", str(one),
                     "--selector", "mass"]) == 2

    @pytest.mark.parametrize("selector", ["momentum", "both"])
    def test_momentum_without_params_exits_2(self, workspace, tmp_path, capsys, selector):
        # the momentum kernel comes from a model file; there is no default one
        out = tmp_path / "o.fld"
        assert main(["--out", str(out), "project", str(workspace / "init.fld"),
                     "--selector", selector]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--params" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("selector", ["mass", "momentum", "both"])
    def test_grid_dimension_other_than_the_model_exits_2(self, workspace, tmp_path, capsys,
                                                        selector):
        # a 2D model's kernels do not fit a trajectory's (t, x, y) grid
        cfg = _write_cfg(tmp_path / "both.cfg",
                         "epochs = 0\nwidth = 4\nmodes = 4,4\nn_layers = 1\nselector = both\n")
        model = tmp_path / "both.mdl"
        assert main(["--out", str(model), "--config", cfg,
                     "train", str(workspace / "ds"), "pcno"]) == 0
        capsys.readouterr()
        traj, out = workspace / "ds" / "traj_0000.fld", tmp_path / "o.fld"
        assert main(["--out", str(out), "project", str(traj), "--selector", selector,
                     "--params", str(model)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(traj) in err[0]
        assert "3 grid axes" in err[0] and "needs 2" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("selector", ["momentum", "both"])
    def test_model_without_a_momentum_kernel_is_named(self, workspace, tmp_path, capsys,
                                                      selector):
        # the workspace pcno is a selector = mass model: it holds no momentum kernel
        model, out = workspace / "pcno.mdl", tmp_path / "o.fld"
        assert main(["--out", str(out), "project", str(workspace / "init.fld"),
                     "--selector", selector, "--params", str(model)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {model}: ")
        assert "no momentum kernel" in err[0] and str(workspace / "init.fld") not in err[0]
        assert not out.exists()

    def test_stage_error_without_params_names_the_input(self, workspace, tmp_path, capsys):
        # a trajectory (2, T, 32, 32) is not a 2D velocity frame
        traj, out = workspace / "ds" / "traj_0000.fld", tmp_path / "o.fld"
        assert main(["--out", str(out), "project", str(traj), "--selector", "mass"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {traj}: mass projection needs")
        assert not out.exists()


class TestTrain:
    def test_zero_epochs_persists_initialized_model(self, workspace, tmp_path):
        cfg = _write_cfg(tmp_path / "z.cfg", "epochs = 0\nwidth = 4\nmodes = 4,4\n")
        out = tmp_path / "zero.mdl"
        assert main(["--seed", "2", "--out", str(out), "--config", cfg,
                     "train", str(workspace / "ds"), "fno"]) == 0
        from specproj.surrogate import load_model

        params, _ = load_model(out)
        assert params.hyper.width == 4
        curve = (tmp_path / "zero.mdl.loss.csv").read_text().splitlines()
        assert len(curve) == 1  # header only: zero steps

    def test_loss_csv_row_count_equals_steps(self, workspace):
        curve = (workspace / "pcno.mdl.loss.csv").read_text().splitlines()
        # 3 trajectories x 6 transition pairs = 18 samples; batch 8 -> 3
        # steps per epoch x 2 epochs = 6 optimizer steps
        assert curve[0] == "step,loss,lr"
        assert len(curve) - 1 == 6

    def test_diffpcno_requires_frozen_model(self, workspace, tmp_path):
        assert main(["--out", str(tmp_path / "d.mdl"), "train",
                     str(workspace / "ds"), "diffpcno"]) == 1

    @pytest.mark.parametrize("kind,key,value", [
        ("diffpcno", "emb_dim", "3"),
        ("diffpcno", "emb_dim", "-2"),
        ("diffpcno", "hidden", "-1"),
        ("pcno", "width", "-2"),
        ("pcno", "width", "0"),
        ("pcno", "n_layers", "-1"),
        ("pcno", "limit_pairs", "-1"),
        ("pcno", "t_in", "0"),
    ])
    def test_unbuildable_hyperparameters_exit_2(self, workspace, tmp_path, capsys,
                                                kind, key, value):
        base = ({"ct_steps": "2", "ct_batch": "4", "hidden": "8"} if kind == "diffpcno"
                else {"epochs": "1", "width": "4", "modes": "4,4"})
        base[key] = value
        cfg = _write_cfg(tmp_path / "h.cfg", "".join(f"{k} = {v}\n" for k, v in base.items()))
        frozen = ["--pcno", str(workspace / "pcno.mdl")] if kind == "diffpcno" else []
        assert main(["--out", str(tmp_path / "m.mdl"), "--config", cfg, "train",
                     str(workspace / "ds"), kind] + frozen) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and key in err[0].replace(" ", "_")
        assert not (tmp_path / "m.mdl").exists()


    def test_default_selector_is_read_off_the_data(self, workspace, tmp_path):
        """The mass stage needs one channel per axis, so a KSE set (one
        channel on one axis) gets momentum. The snapshot records the
        resolved selector, and a config value still wins."""
        gen = _write_cfg(tmp_path / "g.cfg", "n = 32\nsteps = 3\nwarmup = 0\nsubsteps = 1\n")
        kse = str(tmp_path / "kse")
        assert main(["--seed", "1", "--out", kse, "--config", gen,
                     "generate", "kse", "--count", "2"]) == 0
        tr = _write_cfg(tmp_path / "tr.cfg", "epochs = 1\nwidth = 4\nmodes = 4\n")
        out, again = tmp_path / "kse.mdl", tmp_path / "again.mdl"
        assert main(["--out", str(out), "--config", tr, "train", kse, "pcno"]) == 0
        assert load_config(str(out) + ".config")["selector"] == "momentum"
        assert load_config(str(out) + ".config")["momentum_padding"] == "0"
        mass_snapshot = load_config(str(workspace / "pcno.mdl.config"))
        assert mass_snapshot["selector"] == "mass" and "momentum_padding" not in mass_snapshot
        assert main(["--out", str(again), "--config", str(out) + ".config",
                     "train", kse, "pcno"]) == 0
        assert again.read_bytes() == out.read_bytes()
        mass = _write_cfg(tmp_path / "m.cfg", "epochs = 1\nmodes = 4\nselector = mass\n")
        assert main(["--out", str(tmp_path / "m.mdl"), "--config", mass,
                     "train", kse, "pcno"]) == 2

    @pytest.mark.parametrize("kind,settings,key", [
        ("pcno", "selector = momentum\nwspe_modes = 3,3\n", "wspe_modes"),
        ("fno", "wspe_modes = 3,3\n", "wspe_modes"),
        ("pcno", "selector = mass\nmomentum_padding = 2,0\n", "momentum_padding"),
        ("fno", "momentum_padding = 1,1\n", "momentum_padding"),
    ])
    def test_setting_of_a_stage_the_model_lacks_exits_2(self, workspace, tmp_path, capsys,
                                                        kind, settings, key):
        """A multiplier or a padding that no stage of the model would use is
        refused, not recorded in the snapshot and header as if it took effect."""
        cfg = _write_cfg(tmp_path / "s.cfg", "epochs = 1\nwidth = 4\nmodes = 4,4\n" + settings)
        out = tmp_path / "m.mdl"
        assert main(["--out", str(out), "--config", cfg, "train", str(workspace / "ds"),
                     kind]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key} is set")
        assert not out.exists()

    @pytest.mark.parametrize("data,settings,line", [
        ("kse", "modes = 4,4\n", "modes = 4,4 does not fit its 32 grid"),
        ("ds", "modes = 20,20\n", "modes = 20,20 does not fit its 32x32 grid"),
        ("ds", "modes = 0,4\n", "modes = 0,4 does not fit its 32x32 grid"),
        ("ds", "modes = 4,4\nselector = mass\nwspe_modes = 17,4\n",
         "wspe_modes = 17,4 does not fit its 32x32 grid"),
    ])
    def test_modes_that_do_not_fit_the_grid_exit_2(self, workspace, tmp_path, capsys,
                                                    data, settings, line):
        """A mode count per axis of the set's grid, each at least 1 and below
        its axis's Nyquist mode; the one-line error names the setting, its
        value, the dataset and its grid."""
        if data == "kse":
            gen = _write_cfg(tmp_path / "g.cfg", "n = 32\nsteps = 3\nwarmup = 0\nsubsteps = 1\n")
            assert main(["--seed", "1", "--out", str(tmp_path / "kse"), "--config", gen,
                         "generate", "kse", "--count", "2"]) == 0
        dataset = str(tmp_path / "kse" if data == "kse" else workspace / "ds")
        cfg = _write_cfg(tmp_path / "m.cfg", "epochs = 1\nwidth = 4\n" + settings)
        out = tmp_path / "m.mdl"
        assert main(["--out", str(out), "--config", cfg, "train", dataset, "pcno"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {dataset}: {line} (")
        assert not out.exists()

    def test_empty_wspe_modes_trains_without_a_multiplier(self, workspace, tmp_path):
        """An empty ``wspe_modes`` means none, as an unset one does: the model
        holds no w_spe, its header reads ``-``, and its snapshot replays the
        same bytes."""
        from specproj.surrogate import load_model

        cfg = _write_cfg(tmp_path / "e.cfg", "epochs = 1\nwidth = 4\nmodes = 4,4\n"
                                             "selector = mass\nwspe_modes =\n")
        out, again = tmp_path / "e.mdl", tmp_path / "again.mdl"
        assert main(["--out", str(out), "--config", cfg, "train", str(workspace / "ds"),
                     "pcno"]) == 0
        params, header = load_model(out)
        assert "w_spe" not in params.arrays and header["wspe_modes"] == "-"
        assert main(["--out", str(again), "--config", str(out) + ".config",
                     "train", str(workspace / "ds"), "pcno"]) == 0
        assert again.read_bytes() == out.read_bytes()

    def test_default_modes_are_read_off_the_grid(self, workspace, tmp_path):
        """Without a modes key each axis keeps min(8, (n + 1) // 2) modes, so
        an 8 x 8 set trains with 4 per axis; the snapshot records them and
        replays the same bytes. A 32 x 32 set still gets 8."""
        gen = _write_cfg(tmp_path / "g.cfg", "ny = 8\nnx = 8\nduration = 600\n"
                         "record_interval = 200\n")
        swe = str(tmp_path / "swe")
        assert main(["--seed", "1", "--out", swe, "--config", gen,
                     "generate", "swe", "--count", "2"]) == 0
        tr = _write_cfg(tmp_path / "tr.cfg", "epochs = 1\nwidth = 4\n")
        out, again = tmp_path / "swe.mdl", tmp_path / "again.mdl"
        assert main(["--out", str(out), "--config", tr, "train", swe, "pcno"]) == 0
        assert load_config(str(out) + ".config")["modes"] == "4,4"
        assert main(["--out", str(again), "--config", str(out) + ".config",
                     "train", swe, "pcno"]) == 0
        assert again.read_bytes() == out.read_bytes()
        big, zero = tmp_path / "big.mdl", _write_cfg(tmp_path / "z.cfg", "epochs = 0\n")
        assert main(["--out", str(big), "--config", zero,
                     "train", str(workspace / "ds"), "fno"]) == 0
        assert load_config(str(big) + ".config")["modes"] == "8,8"


class TestRolloutSampleUncertainty:
    def test_one_frame_rollout_is_an_init(self, workspace, tmp_path):
        """``rollout --steps 1`` writes a one-frame trajectory (C, 1, x, y);
        it is the init of a later rollout."""
        pcno, init = str(workspace / "pcno.mdl"), str(workspace / "init.fld")
        one, two, later = (tmp_path / name for name in ("one.fld", "two.fld", "later.fld"))
        assert main(["--out", str(one), "rollout", pcno, init, "--steps", "1"]) == 0
        assert fldio.read_array(one).shape == (2, 1, 32, 32)
        assert main(["--out", str(later), "rollout", pcno, str(one), "--steps", "1"]) == 0
        assert main(["--out", str(two), "rollout", pcno, init, "--steps", "2"]) == 0
        assert np.array_equal(fldio.read_array(later)[:, 0], fldio.read_array(two)[:, 1])

    def test_single_step_rollout_equals_forward(self, workspace, tmp_path):
        out = tmp_path / "r1.fld"
        assert main(["--out", str(out), "rollout", str(workspace / "pcno.mdl"),
                     str(workspace / "init.fld"), "--steps", "1"]) == 0
        from specproj.surrogate import fno_forward_batch, load_model

        params, _ = load_model(workspace / "pcno.mdl")
        init = fldio.read_fld(workspace / "init.fld")
        direct, _ = fno_forward_batch(params, init[None])
        got = fldio.read_array(out)
        assert np.array_equal(got[:, 0], direct[0])

    def test_sample_reproducible_with_seed(self, workspace, tmp_path):
        outs = []
        for name in ("s1.fld", "s2.fld"):
            out = tmp_path / name
            assert main(["--seed", "11", "--out", str(out), "sample",
                         str(workspace / "diff.mdl"), str(workspace / "init.fld"),
                         "--steps", "2"]) == 0
            outs.append(_sha(out))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["sample", "uncertainty"])
    def test_denoiser_blocks_unpacked_once(self, workspace, tmp_path, monkeypatch, command):
        # each block of the denoiser and of its frozen pcno is unpacked once,
        # as is the init
        sizes = []
        unpack = fldio.unpack_array
        monkeypatch.setattr(fldio, "unpack_array", lambda buf: sizes.append(len(buf)) or unpack(buf))
        more = ["--n-traj", "2"] if command == "uncertainty" else []
        assert main(["--out", str(tmp_path / "out"), command, str(workspace / "diff.mdl"),
                     str(workspace / "init.fld"), "--steps", "1"] + more) == 0

        def n_blocks(name):
            return int(re.search(rb"\nblocks = (\d+)\n", (workspace / name).read_bytes())[1])

        assert len(sizes) == n_blocks("diff.mdl") + n_blocks("pcno.mdl") + 1

    @pytest.mark.parametrize("command", ["sample", "uncertainty"])
    def test_surrogate_container_exits_2_naming_the_file(self, workspace, tmp_path, capsys,
                                                         command):
        """A stochastic forecast needs a denoiser container; ``rollout`` runs
        a surrogate."""
        pcno = str(workspace / "pcno.mdl")
        out = tmp_path / "out"
        assert main(["--out", str(out), command, pcno, str(workspace / "init.fld")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {pcno}: model_kind is 'fno', not 'denoiser'"]
        assert not out.exists() and not Path(str(out) + ".config").exists()

    def test_train_has_no_refiner_kind(self, workspace, tmp_path):
        out = tmp_path / "ref.mdl"
        assert main(["--out", str(out), "train", str(workspace / "ds"), "refiner",
                     "--pcno", str(workspace / "pcno.mdl")]) == 1
        assert not out.exists()

    def test_trajectory_init_starts_from_frame_0(self, workspace, tmp_path, capsys):
        """A generated trajectory (C, T, x, y) is an init file: the run is
        byte-identical to one from its frame 0."""
        traj = str(workspace / "ds" / "traj_0000.fld")
        runs = [
            ["rollout", str(workspace / "pcno.mdl")],
            ["sample", str(workspace / "diff.mdl")],
            ["uncertainty", str(workspace / "diff.mdl")],
        ]
        for cmd in runs:
            outs = []
            for tag, init in (("frame", str(workspace / "init.fld")), ("traj", traj)):
                out = tmp_path / f"{cmd[0]}_{tag}"
                assert main(["--seed", "6", "--out", str(out)] + cmd + [init, "--steps", "2"]
                            + (["--n-traj", "3"] if cmd[0] == "uncertainty" else [])) == 0
                outs.append(out / "mean.fld" if out.is_dir() else out)
            assert outs[0].read_bytes() == outs[1].read_bytes(), cmd[0]
        # a lone 2D field is neither a frame nor a trajectory of a 2D model
        flat = tmp_path / "flat.fld"
        fldio.write_array(flat, np.zeros((32, 32)))
        assert main(["--out", str(tmp_path / "r.fld"), "rollout", str(workspace / "pcno.mdl"),
                     str(flat)]) == 2
        assert "the model needs 2 (a frame) or 3 (a trajectory)" in capsys.readouterr().err

    def test_uncertainty_stochastic_model_positive_std(self, workspace, tmp_path):
        out = tmp_path / "unc2"
        assert main(["--seed", "4", "--out", str(out), "uncertainty",
                     str(workspace / "diff.mdl"), str(workspace / "init.fld"),
                     "--steps", "1", "--n-traj", "4"]) == 0
        std = fldio.read_array(out / "std.fld")
        assert std.max() > 0.0


class TestInputWindow:
    """A t_in = 2 model reads its window off a trajectory init: frames 0 and
    1, stacked oldest first as ``markov_pairs`` stacks its training inputs."""

    @pytest.fixture(scope="class")
    def models(self, workspace):
        tr = _write_cfg(workspace / "tr2.cfg",
                        "epochs = 1\nbatch = 8\nwidth = 4\nmodes = 4,4\nt_in = 2\n")
        ct = _write_cfg(workspace / "ct2.cfg",
                        "ct_steps = 5\nct_batch = 4\nhidden = 8\n")
        pcno, diff = workspace / "pcno2.mdl", workspace / "diff2.mdl"
        assert main(["--seed", "1", "--out", str(pcno), "--config", tr,
                     "train", str(workspace / "ds"), "pcno"]) == 0
        assert main(["--seed", "2", "--out", str(diff), "--config", ct,
                     "train", str(workspace / "ds"), "diffpcno", "--pcno", str(pcno)]) == 0
        return pcno, diff

    def test_rollout_replays_from_its_snapshot(self, workspace, models, tmp_path):
        traj = str(workspace / "ds" / "traj_0000.fld")
        out = tmp_path / "r.fld"
        assert main(["--seed", "3", "--out", str(out), "rollout", str(models[0]), traj,
                     "--steps", "3"]) == 0
        again = tmp_path / "again.fld"
        assert main(["--out", str(again), "--config", str(out) + ".config",
                     "rollout", str(models[0]), traj]) == 0
        assert again.read_bytes() == out.read_bytes()
        # so does sample through the corrector over the same surrogate
        samp, replay = tmp_path / "s.fld", tmp_path / "s_again.fld"
        assert main(["--seed", "3", "--out", str(samp), "sample", str(models[1]), traj,
                     "--steps", "3"]) == 0
        assert main(["--out", str(replay), "--config", str(samp) + ".config",
                     "sample", str(models[1]), traj]) == 0
        assert replay.read_bytes() == samp.read_bytes()

    def test_trajectory_shorter_than_the_window_exits_2(self, workspace, models, tmp_path,
                                                        capsys):
        one = tmp_path / "one.fld"
        fldio.write_array(one, fldio.read_array(workspace / "ds" / "traj_0000.fld")[:, :1])
        assert main(["--out", str(tmp_path / "r.fld"), "rollout", str(models[0]), str(one)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "1 frames, the model needs t_in = 2" in err[0]

    def test_corrector_reads_t_in_off_the_pcno(self, workspace, models, tmp_path):
        """ct2.cfg sets no t_in: the corrector trained on the t_in = 2 pcno's
        window, and a t_in key is not one of its settings."""
        assert "t_in" not in load_config(str(models[1]) + ".config")
        traj = str(workspace / "ds" / "traj_0000.fld")
        assert main(["--out", str(tmp_path / "s.fld"), "sample", str(models[1]), traj]) == 0
        cfg = _write_cfg(tmp_path / "t.cfg", "ct_steps = 2\nt_in = 2\n")
        assert main(["--out", str(tmp_path / "d.mdl"), "--config", cfg, "train",
                     str(workspace / "ds"), "diffpcno", "--pcno", str(models[0])]) == 2

    def test_uncertainty_replays_from_its_snapshot(self, workspace, models, tmp_path):
        traj = str(workspace / "ds" / "traj_0000.fld")
        out, again = tmp_path / "uq", tmp_path / "again"
        assert main(["--seed", "7", "--out", str(out), "uncertainty", str(models[1]), traj,
                     "--steps", "3", "--n-traj", "8"]) == 0
        assert main(["--out", str(again), "--config", str(out / "config.snapshot"),
                     "uncertainty", str(models[1]), traj]) == 0
        for name in ("mean.fld", "std.fld"):
            assert (again / name).read_bytes() == (out / name).read_bytes()
        assert fldio.read_array(out / "std.fld").min() > 0.0

    def test_sample_and_uncertainty_slide_the_window(self, workspace, models, tmp_path):
        from specproj.consistency import diffpcno_step, load_denoiser
        from specproj.rng import substream
        from specproj.surrogate import load_model

        traj = workspace / "ds" / "traj_0000.fld"
        out = tmp_path / "s.fld"
        assert main(["--seed", "9", "--out", str(out), "sample", str(models[1]), str(traj),
                     "--steps", "3"]) == 0
        assert main(["--seed", "9", "--out", str(tmp_path / "uq"), "uncertainty",
                     str(models[1]), str(traj), "--steps", "2", "--n-traj", "3"]) == 0
        assert fldio.read_array(tmp_path / "uq" / "std.fld").shape == (2, 2, 32, 32)

        pcno, _ = load_model(models[0])
        bundle, _ = load_denoiser(models[1])
        frames = fldio.read_array(traj)
        window = np.concatenate([frames[:, 0], frames[:, 1]])  # oldest first
        rng, want = substream(9, "sample/0"), []
        for _ in range(3):
            want.append(diffpcno_step(pcno, bundle, window[None], [rng])[0])
            window = np.concatenate([window[2:], want[-1]])
        assert np.array_equal(fldio.read_array(out), np.stack(want, axis=1))



class TestForecastConstraints:
    """A DiffPCNO frame is u_hat plus a draw projected onto the fields the
    frozen pcno's stages let u_hat move by: over a mass stage every frame is
    divergence-free, over a momentum stage it has u_hat's channel sums."""

    @pytest.fixture(scope="class", params=["mass", "momentum", "both"])
    def corrector(self, request, workspace):
        selector = request.param
        if selector == "mass":  # the workspace pcno resolves mass
            return selector, workspace / "pcno.mdl", workspace / "diff.mdl"
        tr = _write_cfg(workspace / f"tr_{selector}.cfg", f"epochs = 1\nbatch = 8\nwidth = 4\n"
                        f"modes = 4,4\nlimit_pairs = 9\nselector = {selector}\n")
        ct = _write_cfg(workspace / f"ct_{selector}.cfg",
                        "ct_steps = 5\nct_batch = 4\nhidden = 8\n")
        pcno, diff = workspace / f"pcno_{selector}.mdl", workspace / f"diff_{selector}.mdl"
        assert main(["--seed", "1", "--out", str(pcno), "--config", tr,
                     "train", str(workspace / "ds"), "pcno"]) == 0
        assert main(["--seed", "2", "--out", str(diff), "--config", ct,
                     "train", str(workspace / "ds"), "diffpcno", "--pcno", str(pcno)]) == 0
        return selector, pcno, diff

    def test_sample_and_ensemble_mean_keep_the_pcno_constraints(self, workspace, corrector,
                                                                tmp_path):
        from specproj.surrogate import fno_forward_batch, load_model

        selector, pcno, diff = corrector
        init = workspace / "init.fld"
        samp, uq = tmp_path / "s.fld", tmp_path / "uq"
        assert main(["--seed", "4", "--out", str(samp), "sample", str(diff), str(init),
                     "--steps", "3"]) == 0
        assert main(["--seed", "4", "--out", str(uq), "uncertainty", str(diff), str(init),
                     "--steps", "3", "--n-traj", "4"]) == 0
        frames = np.moveaxis(fldio.read_array(samp), 1, 0)  # (steps, C, x, y)
        mean = np.moveaxis(fldio.read_array(uq / "mean.fld"), 1, 0)
        if selector in ("mass", "both"):
            for frame in np.concatenate([frames, mean]):
                assert divergence_loss(frame) < 1e-10
        if selector in ("momentum", "both"):
            params, _ = load_model(pcno)
            windows = np.concatenate([fldio.read_array(init)[None], frames[:-1]])
            u_hat = fno_forward_batch(params, windows, tape=False)[0]
            for frame, u in zip(frames, u_hat):
                drift = np.abs(frame.sum(axis=(1, 2)) - u.sum(axis=(1, 2)))
                assert drift.max() <= 1e-12 * np.abs(frame).sum()

class TestEvaluate:
    def test_identical_dirs_perfect_scores(self, workspace, tmp_path):
        pred = tmp_path / "pred"
        truth = tmp_path / "truth"
        pred.mkdir()
        truth.mkdir()
        arr = fldio.read_array(workspace / "ds" / "traj_0000.fld")
        arr = np.abs(arr)  # depth-like positive values so csi has wet cells
        fldio.write_array(pred / "traj_0000.fld", arr)
        fldio.write_array(truth / "traj_0000.fld", arr)
        out = tmp_path / "report"
        assert main(["--out", str(out), "evaluate", str(pred), str(truth),
                     "--metrics", "nrmse,mse,csi", "--thresholds", "0.05,0.5"]) == 0
        parsed = parse_config_text((out / "report.txt").read_text())
        assert float(parsed["nrmse"]) == 0.0
        assert float(parsed["mse"]) == 0.0
        assert float(parsed["csi_0.05"]) == 1.0
        assert float(parsed["csi_0.5"]) == 1.0

    def test_missing_trajectory_named_in_error(self, workspace, tmp_path, capsys):
        pred = tmp_path / "pred"
        truth = tmp_path / "truth"
        pred.mkdir()
        truth.mkdir()
        arr = fldio.read_array(workspace / "ds" / "traj_0000.fld")
        fldio.write_array(truth / "traj_0000.fld", arr)
        assert main(["--out", str(tmp_path / "rep"), "evaluate",
                     str(pred), str(truth)]) == 2
        assert "traj_0000.fld" in capsys.readouterr().err

    def test_report_files_parse_back(self, workspace, tmp_path):
        pred = tmp_path / "p"
        truth = tmp_path / "t"
        pred.mkdir()
        truth.mkdir()
        arr = fldio.read_array(workspace / "ds" / "traj_0000.fld")
        fldio.write_array(pred / "traj_0000.fld", arr * 1.01)
        fldio.write_array(truth / "traj_0000.fld", arr)
        out = tmp_path / "rep"
        assert main(["--out", str(out), "evaluate", str(pred), str(truth),
                     "--metrics", "nrmse,pearson"]) == 0
        rows = (out / "report.csv").read_text().splitlines()
        assert rows[0] == "step,metric,value"
        assert len(rows) > 1
        parsed = parse_config_text((out / "report.txt").read_text())
        assert 0 < float(parsed["nrmse"]) < 0.1


    def test_validates_before_creating_output(self, workspace, tmp_path):
        pred = tmp_path / "pred"
        truth = tmp_path / "truth"
        pred.mkdir()
        truth.mkdir()
        out = tmp_path / "rep"
        # unknown metric
        assert main(["--out", str(out), "evaluate", str(pred), str(truth),
                     "--metrics", "bogus"]) == 2
        assert not out.exists()
        # a truth directory without traj_*.fld files
        assert main(["--out", str(out), "evaluate", str(pred), str(truth)]) == 2
        assert not out.exists()

    def test_malformed_thresholds_exit_2(self, workspace, tmp_path, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        cfg = _write_cfg(tmp_path / "ev.cfg", "thresholds = 0.1,abc\n")
        evaluate = ["evaluate", str(pred), str(workspace / "ds"), "--metrics", "csi"]
        assert main(["--out", str(tmp_path / "a")] + evaluate + ["--thresholds", "abc"]) == 2
        assert main(["--config", cfg, "--out", str(tmp_path / "b")] + evaluate) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and all("thresholds is not a comma list" in e for e in err)

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_csi_with_no_threshold_exits_2(self, workspace, tmp_path, capsys, source):
        ds, out = str(workspace / "ds"), tmp_path / "rep"
        cfg = _write_cfg(tmp_path / "ev.cfg", "thresholds =\n" if source == "config" else "")
        thresholds = ["--thresholds", ""] if source == "flag" else []
        assert main(["--out", str(out), "--config", cfg, "evaluate", ds, ds,
                     "--metrics", "csi"] + thresholds) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "csi" in err[0] and "threshold" in err[0]
        assert not out.exists()

    def test_repeated_threshold_is_scored_once(self, workspace, tmp_path):
        ds = str(workspace / "ds")
        n_steps = fldio.read_array(workspace / "ds" / "traj_0000.fld").shape[1]
        for name, thresholds in (("once", "0.01"), ("twice", "0.01,0.01")):
            assert main(["--out", str(tmp_path / name), "evaluate", ds, ds,
                         "--metrics", "csi", "--thresholds", thresholds]) == 0
        rows = (tmp_path / "twice" / "report.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [[str(i), "csi_0.01"] for i in range(n_steps)]
        for name in ("report.csv", "report.txt"):
            assert (tmp_path / "twice" / name).read_bytes() == \
                (tmp_path / "once" / name).read_bytes()

    def test_truth_shorter_than_prediction_scores_common_frames(self, workspace, tmp_path):
        pred = tmp_path / "pred"
        truth = tmp_path / "truth"
        pred.mkdir()
        truth.mkdir()
        arr = fldio.read_array(workspace / "ds" / "traj_0000.fld")
        fldio.write_array(pred / "traj_0000.fld", arr[:, :4])
        fldio.write_array(truth / "traj_0000.fld", arr[:, :2])
        out = tmp_path / "rep"
        assert main(["--out", str(out), "evaluate", str(pred), str(truth),
                     "--metrics", "mse"]) == 0
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert rows == ["0,mse,0.0", "1,mse,0.0"]


class TestConsistencyTargets:
    """The consistency model noises the residual targets - u_hat around the
    frozen pcno's forecast."""

    @staticmethod
    def _pairs_and_forecast(workspace):
        from specproj.solvers import load_dataset
        from specproj.surrogate import fno_forward_batch, load_model, markov_pairs

        _, _, trajs = load_dataset(workspace / "ds")
        inputs, targets = markov_pairs(trajs)
        assert inputs.shape[0] <= 64  # one batch, as the CLI forecasts in batches of 64
        params, _ = load_model(workspace / "pcno.mdl")
        u_hat, _ = fno_forward_batch(params, inputs)
        return targets, u_hat

    def test_stored_range_is_that_of_the_noised_quantity(self, workspace):
        from specproj.consistency import load_denoiser

        targets, u_hat = self._pairs_and_forecast(workspace)
        residual = targets - u_hat
        bundle, _ = load_denoiser(workspace / "diff.mdl")
        axes = (0,) + tuple(range(2, residual.ndim))
        assert np.array_equal(bundle.normalizer.r_min, residual.min(axis=axes))
        assert np.array_equal(bundle.normalizer.r_max, residual.max(axis=axes))


class TestConfigAndReproducibility:
    def test_config_parsing_comments_and_errors(self):
        raw = parse_config_text("# comment\na = 1\nb = two words # trailing\n")
        assert raw == {"a": "1", "b": "two words"}
        with pytest.raises(ContractError):
            parse_config_text("justakey\n")

    def test_config_line_without_equals_exits_2_naming_the_file_and_line(self, tmp_path,
                                                                         capsys):
        cfg = _write_cfg(tmp_path / "g.cfg", "n = 16\nsteps\n")
        out = tmp_path / "d"
        assert main(["--out", str(out), "--config", cfg, "generate", "kse", "--count", "1"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {cfg}: config line 2 has no '=': 'steps'"]
        assert not out.exists()

    @pytest.mark.parametrize("where", ["config", "positional"])
    def test_argument_with_a_line_break_exits_2_before_any_work(self, tmp_path, capsys, where):
        """The snapshot's ``args`` line records the command line: a line
        break in an argument that is no setting would split it, and the
        snapshot would not replay."""
        cfg = _write_cfg(tmp_path / "a\nb.cfg", "n = 16\nsteps = 2\nwarmup = 0\nsubsteps = 1\n")
        out = tmp_path / "d"
        argv = {"config": ["--config", cfg, "generate", "kse", "--count", "1"],
                "positional": ["train", str(tmp_path / "a\nb.cfg"), "pcno"]}[where]
        assert main(["--out", str(out)] + argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: a line break in the args")
        assert not out.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["a\nb.cfg"]

    def test_snapshot_rerun_bit_identical(self, tmp_path):
        cfg = _write_cfg(tmp_path / "g.cfg", "n = 64\nsteps = 3\nwarmup = 0\nsubsteps = 2\n")
        out1 = tmp_path / "run1"
        assert main(["--seed", "13", "--out", str(out1), "--config", cfg,
                     "generate", "kse", "--count", "2"]) == 0
        snap = out1 / "config.snapshot"
        assert snap.exists()
        out2 = tmp_path / "run2"
        assert main(["--out", str(out2), "--config", str(snap),
                     "generate", "kse"]) == 0
        for name in ("traj_0000.fld", "traj_0001.fld", "manifest"):
            assert _sha(out1 / name) == _sha(out2 / name)

    def test_threads_flag_does_not_change_bytes(self, tmp_path):
        cfg = _write_cfg(tmp_path / "g.cfg",
                         "n = 32\ndt = 0.001\nframe_interval = 20\nt_in = 1\nt_out = 3\n")
        for d, threads in (("t1", "1"), ("t2", "3")):
            assert main(["--seed", "2", "--threads", threads, "--out",
                         str(tmp_path / d), "--config", cfg,
                         "generate", "kolmogorov", "--count", "3"]) == 0
        for f in sorted((tmp_path / "t1").glob("traj_*.fld")):
            assert _sha(f) == _sha(tmp_path / "t2" / f.name)

    def test_blas_thread_count_does_not_change_bytes(self, workspace, tmp_path):
        # the denoiser trains as a batched matrix product, and the surrogate's
        # Fourier layers are DFT matrix products; the CLI pins BLAS to one
        # thread, so OPENBLAS_NUM_THREADS does not reach their rounding
        ct = _write_cfg(tmp_path / "ct.cfg", "ct_steps = 10\nct_batch = 16\nhidden = 64\n")
        tr = _write_cfg(tmp_path / "tr.cfg", "epochs = 1\nbatch = 16\nwidth = 20\n"
                        "modes = 12,12\nn_layers = 2\n")
        runs = {"d": ["--config", ct, "train", str(workspace / "ds"), "diffpcno",
                      "--pcno", str(workspace / "pcno.mdl")],
                "p": ["--config", tr, "train", str(workspace / "ds"), "pcno"]}
        src = str(Path(__file__).resolve().parents[1] / "src")
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
            for name, args in runs.items():
                subprocess.run([sys.executable, "-m", "specproj.cli", "--seed", "5", "--out",
                                str(tmp_path / f"{name}{threads}.mdl")] + args,
                               env=env, check=True, capture_output=True, timeout=300)
        for name in runs:
            one, two = (tmp_path / f"{name}{t}.mdl" for t in "12")
            assert one.read_bytes() == two.read_bytes()

    def test_allocator_policy_does_not_change_bytes(self, tmp_path):
        """The allocator policy moves memory, not arithmetic: a dataset, a
        trained model, its loss curve and the snapshots are the same bytes
        with it as with the helper replaced by a no-op."""
        gen = _write_cfg(tmp_path / "g.cfg",
                         "n = 32\ndt = 0.001\nframe_interval = 20\nt_in = 1\nt_out = 4\n")
        tr = _write_cfg(tmp_path / "t.cfg", "epochs = 1\nbatch = 8\nwidth = 8\n"
                        "modes = 6,6\nn_layers = 2\n")
        no_policy = ("import sys, specproj.cli as cli; cli._keep_freed_memory = lambda: None; "
                     "sys.exit(cli.main(sys.argv[1:]))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
        for name, entry in (("with", ["-m", "specproj.cli"]), ("without", ["-c", no_policy])):
            (tmp_path / name).mkdir()
            for args in (["--out", "ds", "--config", gen, "generate", "kolmogorov", "--count", "2"],
                         ["--out", "fno.mdl", "--config", tr, "train", "ds", "fno"]):
                subprocess.run([sys.executable] + entry + ["--seed", "4"] + args, cwd=tmp_path / name,
                               env=env, check=True, capture_output=True, timeout=300)
        made = sorted(p.relative_to(tmp_path / "with")
                      for p in (tmp_path / "with").rglob("*") if p.is_file())
        assert {"fno.mdl", "fno.mdl.loss.csv", "fno.mdl.config", "ds/config.snapshot",
                "ds/traj_0001.fld"} <= {str(p) for p in made}
        for rel in made:
            assert (tmp_path / "with" / rel).read_bytes() == (tmp_path / "without" / rel).read_bytes()

    @pytest.mark.parametrize("loader", ["no symbol", "no library"])
    def test_allocator_policy_without_mallopt_does_nothing(self, tmp_path, monkeypatch, loader):
        """Off glibc (macOS, musl) there is no ``mallopt`` to call: the helper
        returns quietly and the command runs."""
        import ctypes
        from specproj import cli

        real, asked = ctypes.CDLL, []

        def fake(name, *args, **kwargs):
            if name is not None:  # NumPy's library, for the BLAS pin
                return real(name, *args, **kwargs)
            asked.append(name)
            if loader == "no library":
                raise OSError("no C library")
            return object()  # a C library that lacks the symbol

        monkeypatch.setattr(ctypes, "CDLL", fake)
        assert cli._keep_freed_memory() is None
        cfg = _write_cfg(tmp_path / "g.cfg", "n = 32\nsteps = 2\nwarmup = 0\nsubsteps = 1\n")
        assert main(["--seed", "1", "--out", str(tmp_path / "kse"), "--config", cfg,
                     "generate", "kse", "--count", "1"]) == 0
        assert asked == [None, None] and (tmp_path / "kse" / "traj_0000.fld").is_file()

    def test_seed_out_of_range_exit_2(self, workspace, tmp_path, capsys):
        rollout = ["rollout", str(workspace / "pcno.mdl"), str(workspace / "init.fld")]
        cfg = _write_cfg(tmp_path / "s.cfg", f"seed = {2**64}\n")
        assert main(["--seed", "-1", "--out", str(tmp_path / "a.fld")] + rollout) == 2
        assert main(["--config", cfg, "--out", str(tmp_path / "b.fld")] + rollout) == 2
        assert main(["--seed", str(2**64), "--out", str(tmp_path / "c.fld"), "sample",
                     str(workspace / "diff.mdl"), str(workspace / "init.fld")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 3 and all("seed must be in [0, 2**64)" in e for e in err)
        assert not any(tmp_path.glob("*.fld"))

    def test_threads_below_one_exit_2(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "g.cfg", "n = 32\nsteps = 2\nwarmup = 0\nsubsteps = 1\n")
        generate = ["--config", cfg, "generate", "kse", "--count", "1"]
        assert main(["--threads", "0", "--out", str(tmp_path / "a")] + generate) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: threads must be >= 1: '0'"]
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("kind,key,text,need", [
        ("pcno", "epochs", "-1", ">= 0"), ("pcno", "batch", "0", ">= 1"),
        ("pcno", "lr", "0", "> 0"), ("pcno", "weight_decay", "-1", ">= 0"),
        ("diffpcno", "ct_steps", "0", ">= 1"), ("diffpcno", "ct_batch", "0", ">= 1"),
        ("diffpcno", "ct_lr", "0", "> 0"), ("diffpcno", "s0", "0", ">= 1"),
        ("pcno", "width", "0", ">= 1"), ("pcno", "n_layers", "-1", ">= 0"),
        ("diffpcno", "hidden", "0", ">= 1"), ("diffpcno", "emb_dim", "3", "even"),
    ])
    def test_train_setting_out_of_range_is_named_before_any_data_loads(self, tmp_path, capsys,
                                                                       kind, key, text, need):
        cfg = _write_cfg(tmp_path / "t.cfg", f"{key} = {text}\n")
        pcno = ["--pcno", str(tmp_path / "no.mdl")] if kind == "diffpcno" else []
        out = tmp_path / "m.mdl"
        assert main(["--out", str(out), "--config", cfg, "train", str(tmp_path / "no_such_set"),
                     kind, *pcno]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {key.replace('_', ' ')} must be {need}: {text!r}"]
        assert list(tmp_path.iterdir()) == [tmp_path / "t.cfg"]

    def test_config_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"n = 32\ncount = 1\xff\n")
        assert main(["--out", str(tmp_path / "a"), "--config", str(cfg),
                     "generate", "kse"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cfg}: not UTF-8 text")
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("out", ["run#1/r.fld", " r.fld", "r.fld ", "two\nlines/r.fld"])
    def test_setting_its_snapshot_cannot_hold_exits_2_before_any_work(self, workspace, tmp_path,
                                                                      monkeypatch, capsys, out):
        """The config reader drops a '#' and what follows, strips the value
        and reads a line break as a new line: such an --out would replay
        elsewhere, so it is refused before the command runs."""
        monkeypatch.chdir(tmp_path)
        Path(out).parent.mkdir(exist_ok=True)
        assert main(["--out", out, "rollout", str(workspace / "pcno.mdl"),
                     str(workspace / "init.fld")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: out {out!r} would not read back from its snapshot line: "
                       "a '#', a line break, or leading or trailing spaces"]
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]


class TestSettingsTables:
    """Each command's settings come from one table, which also writes the
    snapshot: replaying a run with only ``--config <its snapshot>`` and the
    positionals gives the same bytes."""

    @staticmethod
    def _outputs(out):
        files = sorted(out.iterdir()) if out.is_dir() else [
            p for p in (out, Path(str(out) + ".loss.csv")) if p.exists()]
        return {p.name: p.read_bytes() for p in files if p.name != "config.snapshot"}

    @staticmethod
    def _snapshot(out):
        return out / "config.snapshot" if out.is_dir() else Path(str(out) + ".config")

    def test_every_command_replays_from_its_snapshot(self, workspace, tmp_path):
        ds, pcno, diff = (str(workspace / n) for n in ("ds", "pcno.mdl", "diff.mdl"))
        traj, init, other = str(workspace / "ds" / "traj_0000.fld"), str(workspace / "init.fld"), \
            str(tmp_path / "pcno.mdl")
        gen = _write_cfg(tmp_path / "g.cfg", "n = 32\nsteps = 2\nwarmup = 0\nsubsteps = 1\n"
                                             "vary_nu = yes\n")
        fno_tr = _write_cfg(tmp_path / "fno.cfg", "epochs = 1\nbatch = 8\nwidth = 4\n"
                                                  "modes = 4,4\nlimit_pairs = 9\n")
        tr = _write_cfg(tmp_path / "tr.cfg", "epochs = 1\nbatch = 8\nwidth = 4\nmodes = 4,4\n"
                                             "wspe_modes = 3,3\nlimit_pairs = 9\n")
        ct = _write_cfg(tmp_path / "ct.cfg", "ct_steps = 3\nct_batch = 4\nhidden = 8\nemb_dim = 4\n")
        runs = [  # (name, global flags, positionals, command flags)
            ("gen", ["--seed", "3", "--config", gen], ["generate", "kse"], ["--count", "1"]),
            ("proj.fld", [], ["project", init], ["--selector", "mass", "--params", pcno]),
            ("fno.mdl", ["--seed", "1", "--config", fno_tr], ["train", ds, "fno"], []),
            ("pcno.mdl", ["--seed", "2", "--config", tr], ["train", ds, "pcno"], []),
            ("diff.mdl", ["--seed", "3", "--config", ct], ["train", ds, "diffpcno"], ["--pcno", pcno]),
            ("diff2.mdl", ["--seed", "4", "--config", ct], ["train", ds, "diffpcno"],
             ["--pcno", other]),
            ("r.fld", ["--seed", "5"], ["rollout", pcno, traj], ["--steps", "2"]),
            # --pcno names a surrogate other than the one diff.mdl records
            ("s.fld", ["--seed", "5"], ["sample", diff, traj],
             ["--steps", "2", "--time-points", "80.0,1.0", "--pcno", other]),
            ("uq", ["--seed", "5"], ["uncertainty", diff, traj],
             ["--steps", "2", "--n-traj", "3", "--pcno", other]),
            ("ev", [], ["evaluate", ds, ds], ["--metrics", "nrmse,csi", "--thresholds", "0.1,0.5"]),
        ]
        differ = []
        for name, flags, positionals, command_flags in runs:
            out = tmp_path / name
            assert main(flags + ["--out", str(out)] + positionals + command_flags) == 0, name
            first, snap = self._outputs(out), self._snapshot(out).read_text()
            assert main(["--config", str(self._snapshot(out))] + positionals) == 0, name
            again = self._snapshot(out).read_text()
            if self._outputs(out) != first or again.split("\n")[2:] != snap.split("\n")[2:]:
                differ.append(positionals[0])
        assert differ == []

    def test_older_snapshots_replay(self, workspace, tmp_path):
        """Snapshots with ``arg_*`` lines and ``params = -`` still load."""
        ds, init = str(workspace / "ds"), str(workspace / "init.fld")
        tr = _write_cfg(tmp_path / "tr.cfg", "epochs = 1\nbatch = 8\nwidth = 4\nmodes = 4,4\n")
        assert main(["--seed", "2", "--out", str(tmp_path / "a.mdl"), "--config", tr,
                     "train", ds, "pcno"]) == 0
        assert main(["--out", str(tmp_path / "a.fld"), "project", init]) == 0
        assert main(["--out", str(tmp_path / "a"), "evaluate", ds, ds]) == 0
        older = {
            "b.mdl": ("train pcno", f"arg_dataset = {ds}\nepochs = 1\nbatch = 8\nlr = 0.001\n"
                      "weight_decay = 0.0001\nt_in = 1\nselector = mass\nn_layers = 1\n"
                      "modes = 4,4\nwidth = 4\nmomentum_padding = 0,0\n", ["train", ds, "pcno"]),
            "b.fld": ("project", f"selector = mass\narg_input = {init}\nparams = -\n",
                      ["project", init]),
            "b": ("evaluate", f"arg_pred = {ds}\narg_truth = {ds}\nmetrics = nrmse,mse,pearson\n"
                  "thresholds = 0.05,0.5\n", ["evaluate", ds, ds]),
        }
        for name, (command, body, positionals) in older.items():
            seed = 2 if command == "train pcno" else 0
            snap = _write_cfg(tmp_path / f"{name}.old", f"command = {command}\nargs = x\n"
                              f"seed = {seed}\nthreads = 1\nout = {tmp_path / name}\n{body}")
            assert main(["--config", snap] + positionals) == 0, name
        assert (tmp_path / "b.mdl").read_bytes() == (tmp_path / "a.mdl").read_bytes()
        assert (tmp_path / "b.fld").read_bytes() == (tmp_path / "a.fld").read_bytes()
        assert (tmp_path / "b" / "report.csv").read_bytes() == \
            (tmp_path / "a" / "report.csv").read_bytes()

    def test_key_of_the_other_train_family_rejected(self, workspace, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "c.cfg", "epochs = 1\nct_steps = 5\n")
        assert main(["--out", str(tmp_path / "m.mdl"), "--config", cfg,
                     "train", str(workspace / "ds"), "pcno"]) == 2
        assert "unknown config keys: ['ct_steps']" in capsys.readouterr().err
        assert not (tmp_path / "m.mdl").exists()

    def test_flag_of_the_other_train_family_rejected(self, workspace, tmp_path, capsys):
        assert main(["--out", str(tmp_path / "m.mdl"), "train", str(workspace / "ds"), "pcno",
                     "--pcno", "no_such.mdl"]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: flags this command does not take: ['--pcno']"]
        assert not (tmp_path / "m.mdl").exists()

    def test_malformed_value_exits_2_from_flag_or_key(self, workspace, tmp_path, capsys):
        rollout = ["rollout", str(workspace / "pcno.mdl"), str(workspace / "init.fld")]
        cfg = _write_cfg(tmp_path / "s.cfg", "steps = abc\n")
        assert main(["--out", str(tmp_path / "a.fld")] + rollout + ["--steps", "abc"]) == 2
        assert main(["--out", str(tmp_path / "b.fld"), "--config", cfg] + rollout) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: steps is not an integer: 'abc'"] * 2


class TestCommandTable:
    """What every command shares: its help, and that a failed run writes
    neither outputs nor a snapshot."""

    FLAGS = {  # the setting flags of each command's tables
        "generate": {"--count"},
        "project": {"--selector", "--params"},
        "train": {"--pcno"},
        "rollout": {"--steps"},
        "sample": {"--pcno", "--steps", "--time-points"},
        "uncertainty": {"--pcno", "--steps", "--n-traj"},
        "evaluate": {"--metrics", "--thresholds"},
    }

    @pytest.mark.parametrize("command", [None, *FLAGS])
    def test_help_lists_every_flag(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"] if command is None else [command, "--help"])
        assert exit_.value.code == 0
        text = capsys.readouterr().out
        flags = set(re.findall(r"--[a-z][a-z-]*", text))
        if command is None:
            assert {"--config", "--seed", "--threads", "--out"} <= flags
            assert all(name in text for name in self.FLAGS)
        else:
            assert flags == self.FLAGS[command] | {"--help"}

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_failed_run_leaves_no_output_and_no_snapshot(self, workspace, tmp_path, command):
        pcno, diff = str(workspace / "pcno.mdl"), str(workspace / "diff.mdl")
        missing, empty = str(tmp_path / "no_such.fld"), tmp_path / "empty"
        empty.mkdir()
        argv = {  # each fails in the command's own work, after --out is checked
            "generate": ["generate", "kse", "--count", "0"],
            "project": ["project", str(workspace / "ds" / "traj_0000.fld")],
            "train": ["train", str(empty), "pcno"],
            "rollout": ["rollout", pcno, missing],
            "sample": ["sample", diff, missing],
            "uncertainty": ["uncertainty", diff, str(workspace / "init.fld"), "--n-traj", "1"],
            "evaluate": ["evaluate", str(empty), str(empty)],
        }[command]
        out = tmp_path / "out"
        assert main(["--out", str(out)] + argv) == 2
        assert not out.exists() and not Path(str(out) + ".config").exists()


class TestExitCodes:
    def test_numerical_failure_exits_3(self, tmp_path):
        # an unstable configuration trips the blow-up guard
        cfg = _write_cfg(tmp_path / "boom.cfg",
                         "n = 32\ndt = 5.0\nnu = 0.000001\nsubsteps = 1\n"
                         "steps = 50\nwarmup = 0\n")
        assert main(["--seed", "1", "--out", str(tmp_path / "ds"), "--config",
                     str(cfg), "generate", "kse", "--count", "1"]) == 3

    def test_kse_overflow_to_nan_exits_3_with_one_line(self, tmp_path, capsys):
        # dt = 5000 overflows the ETDRK2 coefficients, so the state turns NaN;
        # the blow-up guard reports it, with no floating-point warning first
        cfg = _write_cfg(tmp_path / "nan.cfg",
                         "n = 32\nwarmup = 0\nsteps = 2\nsubsteps = 1\ndt = 5000\n")
        out = tmp_path / "ds"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--out", str(out), "--config", cfg,
                         "generate", "kse", "--count", "1"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: ")
        assert not out.exists()

    def test_kolmogorov_cfl_abort_exits_3_naming_the_trajectory(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "cfl.cfg", "n = 16\ndt = 0.5\ninit_scale = 50\n"
                                               "frame_interval = 1\nt_in = 1\nt_out = 1\n")
        out = tmp_path / "ds"
        assert main(["--out", str(out), "--config", cfg,
                     "generate", "kolmogorov", "--count", "2"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert re.fullmatch(r"numerical failure: kolmogorov trajectory 0: advective CFL "
                            r"\d+\.\d{3} >= 1\.0", err[0]), err
        assert not out.exists()

    def test_overflowing_forecast_exits_3(self, workspace, tmp_path, capsys):
        from specproj.surrogate import load_model, save_model

        params, _ = load_model(workspace / "pcno.mdl")
        for name in ("lift_w", "head2_w"):
            params.arrays[name] *= 1e200
        boom = tmp_path / "boom.mdl"
        save_model(boom, params)
        init, diff = str(workspace / "init.fld"), str(workspace / "diff.mdl")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # reported once, as the exit message
            assert main(["--out", str(tmp_path / "r.fld"), "rollout", str(boom), init,
                         "--steps", "2"]) == 3
            # the corrector over the overflowing surrogate
            assert main(["--out", str(tmp_path / "unc"), "uncertainty", diff, init,
                         "--steps", "2", "--n-traj", "2", "--pcno", str(boom)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["numerical failure: forecast is not finite at step 0"] * 2
        assert not (tmp_path / "unc").exists()

    def test_missing_out_is_usage_error(self, tmp_path):
        assert main(["generate", "kse", "--count", "1"]) == 1

    def test_train_out_in_missing_directory_fails_before_training(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output path was checked")

        # where cmd_train looks them up when it runs
        monkeypatch.setattr("specproj.solvers.load_dataset", no_work)
        monkeypatch.setattr("specproj.surrogate.train", no_work)
        out = tmp_path / "missing" / "dir" / "m.mdl"
        assert main(["--out", str(out), "train", str(workspace / "ds"), "pcno"]) == 2
        err = capsys.readouterr().err
        assert "does not exist" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "missing").exists()

    def test_os_error_exits_2_with_one_line(self, workspace, tmp_path, capsys):
        # --out names an existing directory, so writing the rollout file fails
        assert main(["--out", str(tmp_path), "rollout", str(workspace / "pcno.mdl"),
                     str(workspace / "init.fld"), "--steps", "1"]) == 2
        assert main(["--out", str(tmp_path / "r.fld"), "rollout", str(workspace / "pcno.mdl"),
                     str(tmp_path / "no_such_init.fld")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and all(line.startswith("error: ") for line in err)

    @pytest.mark.parametrize("model,line,replacement", [
        ("pcno.mdl", b"width = 6\n", b""),
        ("diff.mdl", b"hidden = 24\n", b""),
        ("pcno.mdl", b"width = 6\n", b"width = abc\n"),
        ("diff.mdl", b"t_min = 0.002\n", b"t_min = abc\n"),
        ("pcno.mdl", b"\nblocks = ", b"\nblocks = x"),
        ("diff.mdl", b"\nblocks = ", b"\nblocks = x"),
        ("pcno.mdl", b"modes = 6,6\n", b"modes = 6,x\n"),
        ("pcno.mdl", b"\nblocks = ", b"\nblocks = 1"),  # more blocks than the file holds
        ("diff.mdl", b"MDL1\n", b"MDL2\n"),
    ], ids=["pcno_no_width", "diffpcno_no_hidden", "pcno_bad_width", "diffpcno_bad_t_min",
            "pcno_bad_blocks", "diffpcno_bad_blocks", "pcno_bad_modes", "pcno_short_block_table",
            "diffpcno_bad_magic"])
    def test_malformed_model_file_exits_2_with_one_line(self, workspace, tmp_path, capsys,
                                                        model, line, replacement):
        raw = (workspace / model).read_bytes()
        assert line in raw
        bad = tmp_path / model
        bad.write_bytes(raw.replace(line, replacement, 1))
        command = "rollout" if model == "pcno.mdl" else "sample"
        assert main(["--out", str(tmp_path / "f.fld"), command, str(bad),
                     str(workspace / "init.fld")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("command", ["sample", "uncertainty"])
    def test_dense_denoiser_of_an_older_version_exits_2_naming_the_file(
            self, workspace, tmp_path, capsys, command):
        """A denoiser of the dense network over flattened fields, as earlier
        versions wrote it, has no ``channels`` line and is refused in one
        line naming the file."""
        from specproj.consistency.denoiser import _FIXED_LINES

        rng = np.random.default_rng(0)
        shapes = {"w1": (4, 6 * 32 * 32 + 2), "b1": (4,), "w2": (4, 4), "b2": (4,),
                  "w3": (2 * 32 * 32, 4), "b3": (2 * 32 * 32,)}
        header = {"kind": "residual", "field_shape": "2,32,32", "cond_shape": "4,32,32",
                  "hidden": "4", "emb_dim": "2",
                  **{k: fldio.format_value(v) for k, v in _FIXED_LINES.items() if k != "kind"},
                  "time_points": "80.0,0.661", "pcno": str(workspace / "pcno.mdl")}
        arrays = {k: rng.standard_normal(v) for k, v in shapes.items()}
        old = tmp_path / "dense.mdl"
        fldio.write_model(old, "denoiser", header,
                          {**arrays, "norm_min": -np.ones(2), "norm_max": np.ones(2)})
        out = tmp_path / "f"
        assert main(["--out", str(out), command, str(old), str(workspace / "init.fld")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {old}: model header has no 'channels' line"]
        assert not out.exists()

    @pytest.mark.parametrize("model,line", [
        ("pcno.mdl", "activation = gelu"),  # the exact GELU of earlier versions
        ("pcno.mdl", "activation = relu"),
        ("diff.mdl", "activation = gelu"),
        ("diff.mdl", None),  # a denoiser written before the line was recorded
    ])
    def test_model_of_another_activation_exits_2_with_one_line(self, workspace, tmp_path,
                                                               capsys, model, line):
        """A model is run only with the activation it was trained with: a file
        that records another one, or a denoiser without the line, is refused
        with one line naming the file and the key."""
        raw = (workspace / model).read_bytes()
        edited, n = re.subn(rb"\nactivation = [^\n]*\n",
                            b"\n" if line is None else f"\n{line}\n".encode(), raw, count=1)
        assert n == 1
        bad = tmp_path / model
        bad.write_bytes(edited)
        command = "rollout" if model == "pcno.mdl" else "sample"
        out = tmp_path / "f.fld"
        assert main(["--out", str(out), command, str(bad), str(workspace / "init.fld")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: ") and "activation" in err[0]
        assert not out.exists()

    def test_model_of_unknown_selector_exits_2_naming_the_file(self, workspace, tmp_path,
                                                                capsys):
        raw = (workspace / "pcno.mdl").read_bytes()
        edited, n = re.subn(rb"\nselector = [^\n]*\n", b"\nselector = sideways\n", raw, count=1)
        assert n == 1
        bad = tmp_path / "pcno.mdl"
        bad.write_bytes(edited)
        out = tmp_path / "f.fld"
        assert main(["--out", str(out), "rollout", str(bad), str(workspace / "init.fld")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {bad}: model header line selector must be one of none, mass, "
                       f"momentum, both: 'sideways'"]
        assert not out.exists()

    @pytest.mark.parametrize("model,edit,named", [
        ("pcno.mdl", lambda h, a: a.pop("head2_b"), "head2_b"),
        ("pcno.mdl", lambda h, a: a.update({"spectral_0.re": np.real(a.pop("spectral_0"))}),
         "spectral_0.re"),  # a .re block without its .im
        ("pcno.mdl", lambda h, a: a.update(bogus=np.zeros(3)), "bogus"),
        ("diff.mdl", lambda h, a: a.pop("norm_min"), "norm_min"),
        ("diff.mdl", lambda h, a: a.pop("w2"), "w2"),
        ("pcno.mdl", lambda h, a: a.update(head1_b=np.zeros(2)), "head1_b"),
        ("diff.mdl", lambda h, a: a.update(b2=np.zeros(3)), "b2"),
        # a both model as written when its kernel was a closed half of the
        # centred 32 x 32 lattice: 17 rows of 32 per channel
        ("pcno.mdl", lambda h, a: (h.update(selector="both", momentum_lattice="32,32",
                                            momentum_padding="0,0"),
                                   a.update(momentum_free=np.ones((2, 17, 32), complex))),
         "momentum_free"),
    ], ids=["pcno_no_head2_b", "pcno_re_without_im", "pcno_extra_block",
            "diffpcno_no_norm_min", "diffpcno_no_w2", "pcno_head1_b_shape", "diffpcno_b2_shape",
            "pcno_centred_momentum_kernel"])
    def test_model_file_with_wrong_blocks_exits_2_with_one_line(
        self, workspace, tmp_path, capsys, model, edit, named
    ):
        kind = "fno" if model == "pcno.mdl" else "denoiser"
        header, arrays = fldio.read_model(workspace / model, kind)
        edit(header, arrays)
        bad = tmp_path / model
        fldio.write_model(bad, kind, header, arrays)
        command = "rollout" if model == "pcno.mdl" else "sample"
        assert main(["--out", str(tmp_path / "f.fld"), command, str(bad),
                     str(workspace / "init.fld")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: ")
        assert named in err[0]

    @pytest.mark.parametrize("command", ["sample", "uncertainty"])
    @pytest.mark.parametrize("key,value", [("t_max", "5.0"), ("sigma_data", "0.9"),
                                           ("p_mean", "0.3"), ("kind", "state")])
    def test_edited_schedule_line_exits_2_with_one_line(self, workspace, tmp_path, capsys,
                                                        command, key, value):
        """The schedule and the residual kind are fixed: a denoiser file that
        records another value is refused, not sampled with it or with the
        fixed one."""
        raw = (workspace / "diff.mdl").read_bytes()
        edited, n = re.subn(rf"\n{key} = [^\n]*\n".encode(), f"\n{key} = {value}\n".encode(),
                            raw, count=1)
        assert n == 1
        bad = tmp_path / "diff.mdl"
        bad.write_bytes(edited)
        out = tmp_path / "f"
        assert main(["--out", str(out), command, str(bad), str(workspace / "init.fld")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: ") and key in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rollout", "project"])
    @pytest.mark.parametrize("value", ["0.6,0.15,-0.05", "1.0,0.0", "-"])
    def test_edited_stencil_line_exits_2_with_one_line(self, workspace, tmp_path, capsys,
                                                       command, value):
        """Every surrogate runs the identity stencil: a file whose ``w_inv``
        line says otherwise is refused, not run with that stencil."""
        raw = (workspace / "pcno.mdl").read_bytes()
        edited, n = re.subn(rb"\nw_inv = [^\n]*\n", f"\nw_inv = {value}\n".encode(), raw,
                            count=1)
        assert n == 1
        bad = tmp_path / "pcno.mdl"
        bad.write_bytes(edited)
        out = tmp_path / "f.fld"
        argv = {"rollout": ["rollout", str(bad), str(workspace / "init.fld")],
                "project": ["project", str(workspace / "init.fld"), "--params", str(bad)]}
        assert main(["--out", str(out)] + argv[command]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: ") and "w_inv" in err[0]
        assert not out.exists()

    @staticmethod
    def _refused_naming(bad, argv, out, capsys, named=""):
        """``argv`` exits 2 with one line naming ``bad`` (and ``named``),
        and writes neither ``out`` nor a snapshot."""
        assert main(["--out", str(out)] + argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: ") and named in err[0], err
        assert not out.exists() and not Path(str(out) + ".config").exists()

    @pytest.mark.parametrize("command", ["sample", "uncertainty"])
    @pytest.mark.parametrize("value", ["nan", "80.0,nan", "80.0,inf"])
    def test_non_finite_time_point_in_a_denoiser_file_exits_2(self, workspace, tmp_path,
                                                              capsys, command, value):
        """Every comparison with NaN is false, so a NaN time point passed
        the order checks: it sampled at another time, or failed as a
        numerical fault of the forecast. It is refused at load."""
        raw = (workspace / "diff.mdl").read_bytes()
        edited, n = re.subn(rb"\ntime_points = [^\n]*\n", f"\ntime_points = {value}\n".encode(),
                            raw, count=1)
        assert n == 1
        bad = tmp_path / "diff.mdl"
        bad.write_bytes(edited)
        self._refused_naming(bad, [command, str(bad), str(workspace / "init.fld")],
                             tmp_path / "f", capsys, "finite")

    @pytest.mark.parametrize("model", ["pcno.mdl", "diff.mdl"])
    def test_model_file_with_bytes_after_its_last_block_exits_2(self, workspace, tmp_path,
                                                                capsys, model):
        bad = tmp_path / model
        bad.write_bytes((workspace / model).read_bytes() + bytes(8))
        command = "rollout" if model == "pcno.mdl" else "sample"
        self._refused_naming(bad, [command, str(bad), str(workspace / "init.fld")],
                             tmp_path / "f.fld", capsys, "after the last block")

    @pytest.mark.parametrize("key", ["momentum_padding", "fno_padding"])
    @pytest.mark.parametrize("selector", ["none", "mass", "momentum", "both"])
    def test_negative_padding_line_exits_2_naming_the_key(self, workspace, tmp_path, capsys,
                                                          key, selector):
        """A padding line is checked at load, whichever stages the selector
        runs, and the line names the file and the key."""
        raw = (workspace / "pcno.mdl").read_bytes()
        for line, value in ((key, "-1,-1"), ("selector", selector)):
            raw, n = re.subn(rf"\n{line} = [^\n]*\n".encode(), f"\n{line} = {value}\n".encode(),
                             raw, count=1)
            assert n == 1
        bad = tmp_path / "pcno.mdl"
        bad.write_bytes(raw)
        self._refused_naming(bad, ["rollout", str(bad), str(workspace / "init.fld")],
                             tmp_path / "f.fld", capsys, key)

    @pytest.mark.parametrize("model", ["pcno.mdl", "diff.mdl"])
    def test_blocks_line_that_is_no_count_exits_2_naming_the_file(self, workspace, tmp_path,
                                                                  capsys, model):
        """``blocks = -`` is refused as a count, with one line and no traceback."""
        bad = _with_line(workspace / model, tmp_path / model, "blocks", "-")
        command = "rollout" if model == "pcno.mdl" else "sample"
        self._refused_naming(bad, [command, str(bad), str(workspace / "init.fld")],
                             tmp_path / "f.fld", capsys, "blocks")

    @pytest.mark.parametrize("model,key", [
        ("pcno.mdl", "selector"), ("pcno.mdl", "activation"), ("pcno.mdl", "cond_dim"),
        ("diff.mdl", "emb_dim"), ("diff.mdl", "time_points"),
    ])
    def test_dash_line_of_a_field_with_a_value_exits_2_naming_the_key(self, workspace, tmp_path,
                                                                     capsys, model, key):
        """``-`` is how an empty tuple or None is written, so it reads back
        only on a field that can be empty, never as another field's default:
        a mass pcno with ``selector = -`` does not roll out unprojected."""
        bad = _with_line(workspace / model, tmp_path / model, key, "-")
        command = "rollout" if model == "pcno.mdl" else "sample"
        self._refused_naming(bad, [command, str(bad), str(workspace / "init.fld")],
                             tmp_path / "f.fld", capsys, key)

    @pytest.mark.parametrize("lines,named", [
        ({"in_channels": "3", "cond_dim": "-1"}, "cond_dim"),  # lift_w keeps its shape
        ({"cond_dim": "-1"}, "cond_dim"), ({"in_channels": "0"}, "in_channels"),
        ({"out_channels": "0"}, "out_channels"),
    ], ids=["in_3_cond_-1", "cond_-1", "in_0", "out_0"])
    def test_header_count_out_of_range_is_refused_at_load(self, workspace, tmp_path, capsys,
                                                          lines, named):
        """``cond_dim >= 0``, ``in_channels >= 1`` and ``out_channels >= 1``
        are checked when the file loads, before any init is read."""
        bad = tmp_path / "pcno.mdl"
        bad.write_bytes((workspace / "pcno.mdl").read_bytes())
        for key, value in lines.items():
            _with_line(bad, bad, key, value)
        self._refused_naming(bad, ["rollout", str(bad), str(workspace / "init.fld")],
                             tmp_path / "f.fld", capsys, named)

    @pytest.mark.parametrize("model", ["pcno.mdl", "diff.mdl"])
    def test_every_corrupted_header_line_or_truncation_exits_2_naming_the_file(
            self, workspace, tmp_path, capsys, monkeypatch, model):
        """Every header line (``blocks`` included) set to each value of a
        fixed list, and the file cut one byte before, at and after each
        block's line and payload: each exits 2 with one line naming the
        file, and leaves no output and no snapshot. The exception is a
        denoiser's ``pcno`` line, a path: a bad one is the I/O error of
        opening it, naming that path (exit 2), and an empty one is the usage
        error of a missing ``--pcno`` (exit 1)."""
        monkeypatch.chdir(tmp_path)  # a path such as "0" names no file
        raw = (workspace / model).read_bytes()
        end = raw.index(b"\n", raw.index(b"\nblocks = ") + 1) + 1
        lines = raw[len(b"MDL1\n"):end].decode().splitlines()
        bad, out = tmp_path / model, tmp_path / "f.fld"
        command = "rollout" if model == "pcno.mdl" else "sample"
        argv = ["--out", str(out), command, str(bad), str(workspace / "init.fld")]
        cases = [(key, value) for key, _, own in (line.partition(" = ") for line in lines)
                 for value in ("-1", "0", "nan", "inf", "abc", "99999", "-", "")
                 if value != own]
        cuts, pos = set(), end  # each block's line and payload start, and the end
        while pos < len(raw):
            line_end = raw.index(b"\n", pos)
            cuts |= {pos, line_end + 1}
            pos = line_end + 1 + int(raw[pos:line_end].rsplit(b" ", 1)[1])
        cuts.add(len(raw))
        cases += [("cut", n) for b in sorted(cuts) for n in (b - 1, b, b + 1) if n < len(raw)]
        failures = []
        for key, value in cases:
            if key == "cut":
                bad.write_bytes(raw[:value])
            else:
                _with_line(workspace / model, bad, key, value)
            try:
                code = main(argv)
            except Exception as e:  # a traceback: recorded, so every case is reported
                code = repr(e)
            err = capsys.readouterr().err.strip().splitlines()
            if key == "pcno":
                want = (1, "usage error: stochastic commands need --pcno") if value == "" \
                    else (2, "error: ")
                named = value
            else:
                want, named = (2, f"error: {bad}: "), str(bad)
            ok = (code == want[0] and len(err) == 1 and err[0].startswith(want[1])
                  and named in err[0])
            written = [f for f in (out, Path(str(out) + ".config")) if f.exists()]
            if not ok or written:
                failures.append((key, value, code, err))
            for f in written:  # so the next case starts clean
                f.unlink()
        assert not failures, failures

    @pytest.mark.parametrize("case", ["rollout_field_file", "project_field_file",
                                      "sample_pcno_no_head2_b", "sample_pcno_truncated"])
    def test_model_error_names_the_file(self, workspace, tmp_path, capsys, case):
        """Whichever container is at fault, the model given or the frozen
        --pcno, the line names it."""
        init, diff = str(workspace / "init.fld"), str(workspace / "diff.mdl")
        bad = tmp_path / "bad.mdl"
        if case.endswith("field_file"):  # an FLD1 file where a model goes
            bad.write_bytes((workspace / "init.fld").read_bytes())
        elif case == "sample_pcno_no_head2_b":
            header, arrays = fldio.read_model(workspace / "pcno.mdl", "fno")
            arrays.pop("head2_b")
            fldio.write_model(bad, "fno", header, arrays)
        else:
            bad.write_bytes((workspace / "pcno.mdl").read_bytes()[:-100])
        argv = {
            "rollout_field_file": ["rollout", str(bad), init],
            "project_field_file": ["project", init, "--params", str(bad)],
            "sample_pcno_no_head2_b": ["sample", diff, init, "--pcno", str(bad)],
            "sample_pcno_truncated": ["sample", diff, init, "--pcno", str(bad)],
        }[case]
        assert main(["--out", str(tmp_path / "f.fld")] + argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: ")
        assert not (tmp_path / "f.fld").exists()

    @pytest.mark.parametrize("case", ["kolmogorov_nu_nan", "kolmogorov_nu_inf", "pcno_lr_nan",
                                      "sample_time_point_nan", "evaluate_threshold_nan"])
    def test_non_finite_setting_exits_2_with_one_line(self, workspace, tmp_path, capsys, case):
        """No setting takes nan or +-inf: each is malformed, and the line
        names the setting."""
        init, diff, ds = str(workspace / "init.fld"), str(workspace / "diff.mdl"), \
            str(workspace / "ds")
        kol = "n = 32\ndt = 0.001\nframe_interval = 40\nt_in = 1\nt_out = 6\n"
        config, argv, named = {
            "kolmogorov_nu_nan": (kol + "nu = nan\n", ["generate", "kolmogorov"], "nu"),
            "kolmogorov_nu_inf": (kol + "nu = inf\n", ["generate", "kolmogorov"], "nu"),
            "pcno_lr_nan": ("epochs = 1\nlr = nan\n", ["train", ds, "pcno"], "lr"),
            "sample_time_point_nan": ("", ["sample", diff, init, "--time-points", "80,nan"],
                                      "time points"),
            "evaluate_threshold_nan": ("", ["evaluate", ds, ds, "--metrics", "csi",
                                            "--thresholds", "nan"], "thresholds"),
        }[case]
        cfg = _write_cfg(tmp_path / "c.cfg", config)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no floating-point warning first
            assert main(["--out", str(out), "--config", cfg] + argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {named} must be finite: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rollout", "sample", "uncertainty", "project",
                                         "evaluate", "train", "project_none"])
    def test_input_with_nan_exits_2_with_one_line(self, workspace, tmp_path, capsys, command):
        frame = fldio.read_array(workspace / "init.fld")
        for name, value in (("truth", frame[1, 3, 5]), ("nan", np.nan)):
            frame[1, 3, 5] = value
            (tmp_path / name).mkdir()
            fldio.write_array(tmp_path / name / "traj_0000.fld", frame)
        bad = tmp_path / "nan" / "traj_0000.fld"
        # a one-trajectory set of the frame, read as (C, T, x)
        (bad.parent / "manifest").write_text("kind = kolmogorov\n\nfile = traj_0000.fld\n")
        out = tmp_path / "out"
        argv = {
            "rollout": ["rollout", str(workspace / "pcno.mdl"), str(bad)],
            "sample": ["sample", str(workspace / "diff.mdl"), str(bad)],
            "uncertainty": ["uncertainty", str(workspace / "diff.mdl"), str(bad)],
            "project": ["project", str(bad), "--selector", "mass"],
            "evaluate": ["evaluate", str(bad.parent), str(tmp_path / "truth")],
            "train": ["train", str(bad.parent), "pcno"],
            "project_none": ["project", str(bad), "--selector", "none"],
        }[command]
        assert main(["--out", str(out)] + argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "non-finite" in err[0] and str(bad) in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("edit", ["drop", "outside", "no_equals"])
    def test_manifest_file_line_exits_2_with_one_line(self, workspace, tmp_path, capsys, edit):
        """Every stanza names a file in the dataset directory: one without a
        file line, or one that leads out of the directory, is refused; a line
        without '=' is refused naming the manifest and the line."""
        ds, other = tmp_path / "ds", tmp_path / "other"
        for d in (ds, other):
            d.mkdir()
            for f in (workspace / "ds").glob("traj_*.fld"):
                (d / f.name).write_bytes(f.read_bytes())
        line = "file = traj_0001.fld\n"
        manifest = (workspace / "ds" / "manifest").read_text()
        assert line in manifest
        new = {"drop": "", "outside": "file = ../other/traj_0001.fld\n",
               "no_equals": "file traj_0001.fld\n"}[edit]
        (ds / "manifest").write_text(manifest.replace(line, new))
        out = tmp_path / "m.mdl"
        assert main(["--out", str(out), "train", str(ds), "pcno"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        if edit == "no_equals":
            lineno = manifest[: manifest.index(line)].count("\n") + 1
            assert err[0] == f"error: {ds / 'manifest'}: line {lineno} has no '=': " \
                             "'file traj_0001.fld'"
        else:
            assert "stanza 1" in err[0]
        assert not out.exists()

    def test_manifest_that_is_not_utf8_exits_2_naming_it(self, workspace, tmp_path, capsys):
        ds = tmp_path / "ds"
        ds.mkdir()
        (ds / "manifest").write_bytes((workspace / "ds" / "manifest").read_bytes() + b"# \xff\n")
        out = tmp_path / "m.mdl"
        assert main(["--out", str(out), "train", str(ds), "pcno"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {ds / 'manifest'}: not UTF-8 text")
        assert not out.exists()

    @pytest.mark.parametrize("case", ["train_no_stanza", "train_grid", "train_channels",
                                      "evaluate_grids", "evaluate_pred_grid"])
    def test_mixed_shape_or_empty_input_exits_2_with_one_line(self, workspace, tmp_path, capsys,
                                                              case):
        """Every trajectory of a set, and every file evaluate reads, has the
        first truth file's channels and grid (lengths may differ); a manifest
        lists at least one trajectory."""
        arr = fldio.read_array(workspace / "ds" / "traj_0000.fld")  # (2, T, 32, 32)
        second = {"train_no_stanza": arr, "train_grid": arr[:, 1:, ::2, ::2],
                  "train_channels": arr[:1, 1:], "evaluate_grids": arr[:, :, ::2, ::2],
                  "evaluate_pred_grid": arr}[case]
        pred, truth = tmp_path / "pred", tmp_path / "truth"
        for d in (pred, truth):
            d.mkdir()
            fldio.write_array(d / "traj_0000.fld", arr)
            fldio.write_array(d / "traj_0001.fld", second)
        if case == "evaluate_pred_grid":  # the prediction's grid is not the truth's
            fldio.write_array(pred / "traj_0001.fld", arr[:, :, ::2, ::2])
        stanzas = "" if case == "train_no_stanza" else \
            "\nfile = traj_0000.fld\n\nfile = traj_0001.fld\n"
        (pred / "manifest").write_text("kind = kolmogorov\n" + stanzas)
        named = pred / ("manifest" if case == "train_no_stanza" else "traj_0001.fld")
        argv = ["train", str(pred), "pcno"] if case.startswith("train") else \
            ["evaluate", str(pred), str(truth)]
        out = tmp_path / "out"
        assert main(["--out", str(out)] + argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {named}: ")
        assert not out.exists()

    def test_uncertainty_validates_before_creating_output(self, workspace, tmp_path):
        out = tmp_path / "unc"
        assert main(["--out", str(out), "uncertainty", str(workspace / "diff.mdl"),
                     str(workspace / "init.fld"), "--n-traj", "1"]) == 2
        assert main(["--out", str(out), "uncertainty", str(workspace / "diff.mdl"),
                     str(tmp_path / "no_such_init.fld")]) == 2
        assert not out.exists()


class TestSampleTimePoints:
    def test_explicit_time_points_accepted(self, workspace, tmp_path):
        out = tmp_path / "tp.fld"
        assert main(["--seed", "2", "--out", str(out), "sample",
                     str(workspace / "diff.mdl"), str(workspace / "init.fld"),
                     "--steps", "1", "--time-points", "80.0,10.0,1.0"]) == 0
        assert out.exists()

    def test_ascending_time_points_rejected(self, workspace, tmp_path):
        assert main(["--seed", "2", "--out", str(tmp_path / "x.fld"), "sample",
                     str(workspace / "diff.mdl"), str(workspace / "init.fld"),
                     "--steps", "1", "--time-points", "80.0,90.0"]) == 2

    def test_malformed_time_points_exit_2(self, workspace, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "tp.cfg", "time_points = 80.0,x\n")
        sample = ["sample", str(workspace / "diff.mdl"), str(workspace / "init.fld")]
        assert main(["--out", str(tmp_path / "a.fld")] + sample + ["--time-points", "abc"]) == 2
        assert main(["--config", cfg, "--out", str(tmp_path / "b.fld")] + sample) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and all("time points is not a comma list" in e for e in err)


    @pytest.mark.parametrize("points,problem", [
        ("80,0.001", "below t_min"),
        ("80,1,2", "strictly descending"),
        ("40,1", "start at t_max"),
    ])
    def test_time_points_checked_before_any_model_loads(self, tmp_path, capsys, points,
                                                        problem):
        # no model file exists: the setting is refused first, naming it
        missing = str(tmp_path / "none.mdl")
        out = tmp_path / "x.fld"
        assert main(["--out", str(out), "sample", missing, missing,
                     "--time-points", points]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: time_points = ")
        assert problem in err[0]
        assert not out.exists()


class TestProjectWithModelParams:
    def test_kernel_travels_with_the_model(self, tmp_path):
        """A model trained with a momentum kernel can back a standalone
        projection of a field file."""
        from specproj.rng import substream
        from specproj.surrogate import FnoHyper, init_params, save_model

        # on an odd grid the largest corner set, modes 16 on 31, covers every mode
        hyper = FnoHyper(
            n_layers=1, modes=(16, 16), width=4, in_channels=2, out_channels=2,
            selector="both", momentum_padding=(0, 0),
        )
        params = init_params(hyper, (31, 31), substream(0, "m"))
        params.arrays["momentum_free"][...] = 1.0  # unit kernel
        model_path = tmp_path / "kern.mdl"
        save_model(model_path, params)
        init = tmp_path / "init.fld"
        fldio.write_array(init, np.random.default_rng(8).standard_normal((2, 31, 31)))
        out = tmp_path / "projboth.fld"
        assert main(["--out", str(out), "project", str(init),
                     "--selector", "both", "--params", str(model_path)]) == 0
        projected = fldio.read_array(out)
        # unit kernel + identity stencil: the momentum stage doubles the
        # field's fluctuation about its mean, and the mass stage after it
        # leaves it divergence-free
        assert divergence_loss(projected) < 1e-10

        out_mass = tmp_path / "projmass.fld"
        assert main(["--out", str(out_mass), "project", str(init),
                     "--selector", "mass", "--params", str(model_path)]) == 0
        mass = fldio.read_array(out_mass)
        mean = mass.mean(axis=(1, 2), keepdims=True)
        assert np.max(np.abs(projected - (2 * mass - mean))) < 1e-10


    def test_project_runs_the_stages_of_the_pcno(self, workspace, tmp_path):
        """``project --selector both --params`` on the plain surrogate's
        output gives the bytes of the pcno's own forward: both take the
        model's kernel, w_spe and momentum padding. Those are the bytes of
        the momentum stage under the identity stencil, then the mass stage,
        as the model file's ``w_inv`` line records."""
        from specproj.projection import IDENTITY_STENCIL, mass_project_forward, momentum_forward
        from specproj.surrogate import fno_forward_batch, load_model

        cfg = _write_cfg(tmp_path / "b.cfg", "epochs = 1\nbatch = 32\nwidth = 4\nmodes = 4,4\n"
                                             "selector = both\nwspe_modes = 3,3\n"
                                             "momentum_padding = 2,3\n")
        model = tmp_path / "both.mdl"
        assert main(["--seed", "2", "--out", str(model), "--config", cfg,
                     "train", str(workspace / "ds"), "pcno"]) == 0
        params, header = load_model(model)
        # one Adam step: neither weight is at its initial value any more
        assert np.any(params.arrays["momentum_free"] != 0.0)
        assert np.any(params.arrays["w_spe"] != 1.0)
        assert params.hyper.momentum_padding == (2, 3)
        x = fldio.read_array(workspace / "init.fld")[None]
        raw, proj, want = tmp_path / "raw.fld", tmp_path / "proj.fld", tmp_path / "want.fld"
        fldio.write_array(raw, fno_forward_batch(raw_trunk(params), x, tape=False)[0][0])
        assert main(["--out", str(proj), "project", str(raw), "--selector", "both",
                     "--params", str(model)]) == 0
        fldio.write_array(want, fno_forward_batch(params, x, tape=False)[0][0])
        assert proj.read_bytes() == want.read_bytes()
        assert header["w_inv"] == "1.0,0.0,0.0"
        y = momentum_forward(fldio.read_array(raw)[None], params.arrays["momentum_free"],
                             IDENTITY_STENCIL, (2, 3))[0]
        fldio.write_array(want, mass_project_forward(y, params.arrays["w_spe"])[0][0])
        assert proj.read_bytes() == want.read_bytes()


class TestResolutionTransfer:
    def test_both_pcno_trained_at_16_rolls_out_at_32(self, workspace, tmp_path):
        from specproj.surrogate import fno_forward_batch, load_model

        gen = _write_cfg(tmp_path / "gen.cfg",
                         "n = 16\ndt = 0.001\nframe_interval = 40\nt_in = 1\nt_out = 4\n")
        assert main(["--seed", "4", "--out", str(tmp_path / "ds16"), "--config", gen,
                     "generate", "kolmogorov", "--count", "2"]) == 0
        tr = _write_cfg(tmp_path / "tr.cfg", "epochs = 1\nbatch = 4\nwidth = 6\nmodes = 6,6\n"
                                             "n_layers = 1\nselector = both\n")
        model = tmp_path / "both.mdl"
        assert main(["--seed", "1", "--out", str(model), "--config", tr,
                     "train", str(tmp_path / "ds16"), "pcno"]) == 0
        traj32 = workspace / "ds" / "traj_0000.fld"
        roll = tmp_path / "roll32.fld"
        assert main(["--out", str(roll), "rollout", str(model), str(traj32), "--steps", "3"]) == 0
        frames = fldio.read_array(roll)  # (2, 3, 32, 32)
        assert frames.shape == (2, 3, 32, 32)
        for t in range(frames.shape[1]):
            assert divergence_loss(frames[:, t]) < 1e-10
        # the projection keeps the raw surrogate output's channel sums at 32 x 32
        params, _ = load_model(model)
        raw, _ = fno_forward_batch(raw_trunk(params), fldio.read_array(traj32)[None, :, 0])
        np.testing.assert_allclose(frames[:, 0].sum(axis=(1, 2)), raw[0].sum(axis=(1, 2)),
                                   rtol=1e-12)


    def test_diffpcno_trained_at_32_samples_at_64(self, workspace, tmp_path):
        """The corrector's weights live on corner modes, so the diffpcno of
        the workspace, trained at 32 x 32, samples and runs an ensemble from
        a 64 x 64 init; over its mass pcno every frame is divergence-free."""
        u = fldio.read_array(workspace / "init.fld")  # (2, 32, 32)
        uh = np.fft.rfft2(u)
        uh[:, 16, :] = 0.0
        uh[:, :, 16] = 0.0
        fine = np.zeros((2, 64, 33), dtype=complex)
        fine[:, :16, :16] = uh[:, :16, :16]
        fine[:, 49:, :16] = uh[:, 17:, :16]
        init = tmp_path / "init64.fld"
        fldio.write_array(init, np.fft.irfft2(fine, s=(64, 64)) * 4.0)
        samp, uq = tmp_path / "s.fld", tmp_path / "uq"
        diff = str(workspace / "diff.mdl")
        assert main(["--seed", "2", "--out", str(samp), "sample", diff, str(init),
                     "--steps", "2"]) == 0
        assert main(["--seed", "2", "--out", str(uq), "uncertainty", diff, str(init),
                     "--steps", "2", "--n-traj", "3"]) == 0
        frames = fldio.read_array(samp)
        mean, std = fldio.read_array(uq / "mean.fld"), fldio.read_array(uq / "std.fld")
        assert frames.shape == mean.shape == std.shape == (2, 2, 64, 64)
        assert std.min() >= 0.0 and std.max() > 0.0
        for t in range(2):
            assert divergence_loss(frames[:, t]) < 1e-10
            assert divergence_loss(mean[:, t]) < 1e-10


class TestForecastInputs:
    """A forecast init that the model, or the denoiser over it, cannot take
    is refused before any forecast runs, in one line that names the init
    file, the model file and the init's grid."""

    @pytest.mark.parametrize("command", ["rollout", "sample", "uncertainty"])
    def test_init_of_another_channel_count_names_the_files(self, workspace, tmp_path, capsys,
                                                           command):
        init = tmp_path / "three.fld"
        fldio.write_array(init, np.zeros((3, 32, 32)))
        pcno = str(workspace / "pcno.mdl")
        model = pcno if command == "rollout" else str(workspace / "diff.mdl")
        out = tmp_path / "f"
        assert main(["--out", str(out), command, model, str(init)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0] == (f"error: {init}: 3 channels on a 32x32 grid do not fit the model "
                          f"{pcno}: it takes 2 input channels")
        assert not out.exists()

    @pytest.mark.parametrize("command,n,owner", [
        ("rollout", 8, "the model {pcno}"),  # the pcno's 6 modes need 10 points
        ("sample", 12, "the denoiser {diff} over {pcno}"),  # its 8 modes need 14
        ("uncertainty", 12, "the denoiser {diff} over {pcno}"),
    ], ids=["rollout", "sample", "uncertainty"])
    def test_grid_the_modes_do_not_fit_names_the_files(self, workspace, tmp_path, capsys,
                                                       command, n, owner):
        pcno, diff = str(workspace / "pcno.mdl"), str(workspace / "diff.mdl")
        init = tmp_path / "small.fld"
        fldio.write_array(init, np.random.default_rng(0).standard_normal((2, n, n)))
        out = tmp_path / "f"
        assert main(["--out", str(out), command, pcno if command == "rollout" else diff,
                     str(init)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {init}: 2 channels on a {n}x{n} grid do not fit "
                                 f"{owner.format(pcno=pcno, diff=diff)}: axis 0: ")
        assert not out.exists()


class TestReadmeTour:
    def test_quick_tour_runs_verbatim(self, tmp_path, monkeypatch):
        """Every line of the README quick tour runs as written, in order;
        the final ``evaluate`` line is a template and says so."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        start = readme.index("```\n", readme.index("## CLI quick tour")) + 4
        lines = iter(readme[start : readme.index("\n```", start)].splitlines())
        commands, comment = [], ""
        for line in lines:
            if line.startswith("#"):
                comment += line
            elif line.startswith("cat > "):  # cat > NAME <<EOF ... EOF
                body = []
                for inner in lines:
                    if inner == "EOF":
                        break
                    body.append(inner)
                commands.append(("file", line.split()[2], "\n".join(body) + "\n"))
            elif line.strip():
                commands.append(("run", line, comment))
                comment = ""
        kind, template, label = commands.pop()
        assert kind == "run" and " evaluate preds/ truth/ " in template
        assert "template" in label
        monkeypatch.chdir(tmp_path)
        for kind, line, payload in commands:
            if kind == "file":
                Path(line).write_text(payload)
                continue
            argv = shlex.split(line)
            assert argv[0] == "specproj", line
            assert main(argv[1:]) == 0, line
        assert fldio.read_array("roll.fld").shape == (2, 8, 32, 32)
        assert fldio.read_array("samp.fld").shape == (2, 8, 32, 32)
        assert fldio.read_array("uq/std.fld").shape == (2, 8, 32, 32)
        # the tour's pcno resolves mass: every forecast frame is divergence-free
        for name in ("roll.fld", "samp.fld", "uq/mean.fld"):
            traj = fldio.read_array(name)
            assert max(divergence_loss(traj[:, t]) for t in range(8)) < 1e-10, name
        # and it learns: its first step is well below the zero forecast's nRMSE of 1
        step1 = nrmse(fldio.read_array("roll.fld")[None, :, 0],
                      fldio.read_array("data/kol/traj_0000.fld")[None, :, 1])
        assert step1 < 0.8, step1
