"""End-to-end command line runs, in process, exercising every subcommand
and the exit code taxonomy."""

import numpy as np
import pytest

from radiomap import io as rio
from radiomap.cli import main
from radiomap.metrics import zero_fill
from radiomap.propagation import sample_mask
from radiomap.unrolled import UnrolledModel


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def scene_dir(tmp_path):
    spec = tmp_path / "scene.cfg"
    spec.write_text("scene.h=24\nscene.w=24\nscene.k_bands=3\n"
                    "scene.n_obstructions=5\nscene.seed=5\n")
    out = tmp_path / "scene"
    assert run("gen", "--spec", spec, "--out", out) == 0
    return out


def test_gen_writes_three_tensors(scene_dir):
    truth = rio.read_tensor(scene_dir / "ground_truth.rmt")
    background = rio.read_tensor(scene_dir / "background.rmt")
    foreground = rio.read_tensor(scene_dir / "foreground.rmt")
    assert truth.shape == background.shape == foreground.shape == (24, 24, 3)
    assert np.allclose(truth, np.clip(background + foreground, 0.0, 1.0), atol=1e-12)


def test_sample_exact_count_on_64_grid(tmp_path):
    t = tmp_path / "t.rmt"
    rio.write_tensor(t, np.zeros((64, 64, 3)))
    out = tmp_path / "m.rmm"
    assert run("sample", "--tensor", t, "--percent", 10, "--seed", 3, "--out", out) == 0
    assert rio.read_mask(out).count == 410


def test_solve_eval_pipeline(scene_dir, tmp_path, capsys):
    mask_path = tmp_path / "m.rmm"
    assert run("sample", "--tensor", scene_dir / "ground_truth.rmt",
               "--percent", 30, "--seed", 1, "--out", mask_path) == 0
    for method in ("halrtc", "admm", "rbf", "ldpl"):
        est = tmp_path / f"{method}.rmt"
        assert run("solve", "--method", method, "--tensor", scene_dir / "ground_truth.rmt",
                   "--mask", mask_path, "--out", est) == 0
        assert run("eval", "--est", est, "--truth", scene_dir / "ground_truth.rmt") == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("psnr_db=") and "rmse=" in line and "outage_error=" in line


def test_solve_deterministic_output_bytes(scene_dir, tmp_path):
    mask_path = tmp_path / "m.rmm"
    run("sample", "--tensor", scene_dir / "ground_truth.rmt",
        "--percent", 20, "--seed", 2, "--out", mask_path)
    a, b = tmp_path / "a.rmt", tmp_path / "b.rmt"
    for out in (a, b):
        assert run("solve", "--method", "admm", "--tensor", scene_dir / "ground_truth.rmt",
                   "--mask", mask_path, "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_config_override(scene_dir, tmp_path):
    mask_path = tmp_path / "m.rmm"
    run("sample", "--tensor", scene_dir / "ground_truth.rmt",
        "--percent", 20, "--seed", 2, "--out", mask_path)
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("admm.max_iters=5\n")
    out = tmp_path / "est.rmt"
    assert run("solve", "--method", "admm", "--tensor", scene_dir / "ground_truth.rmt",
               "--mask", mask_path, "--config", cfg, "--out", out) == 0


def test_solve_zero_writes_zero_fill(scene_dir, tmp_path):
    truth_path = scene_dir / "ground_truth.rmt"
    mask_path = tmp_path / "m.rmm"
    run("sample", "--tensor", truth_path, "--percent", 20, "--seed", 2, "--out", mask_path)
    out = tmp_path / "est.rmt"
    assert run("solve", "--method", "zero", "--tensor", truth_path,
               "--mask", mask_path, "--out", out) == 0
    expected = zero_fill(rio.read_tensor(truth_path), rio.read_mask(mask_path))
    assert np.array_equal(rio.read_tensor(out), expected)


def test_solve_unroll_without_model_prints_notice(scene_dir, tmp_path, capsys):
    mask_path = tmp_path / "m.rmm"
    run("sample", "--tensor", scene_dir / "ground_truth.rmt",
        "--percent", 20, "--seed", 2, "--out", mask_path)
    cfg = tmp_path / "small.cfg"
    cfg.write_text("unroll.k_blocks=2\n")
    out = tmp_path / "est.rmt"
    assert run("solve", "--method", "unroll", "--tensor", scene_dir / "ground_truth.rmt",
               "--mask", mask_path, "--config", cfg, "--out", out) == 0
    assert "untrained default model" in capsys.readouterr().out
    assert rio.read_tensor(out).shape == (24, 24, 3)


def make_dataset(tmp_path, n=2, h=12, w=12, k=2):
    root = tmp_path / "data"
    root.mkdir()
    base = np.clip(np.linspace(0.1, 1, h)[:, None, None]
                   * np.linspace(1, 0.4, w)[None, :, None]
                   * np.linspace(1, 0.8, k)[None, None, :], 0, 1)
    for i in range(n):
        d = np.clip(base + 0.02 * i, 0, 1)
        rio.write_tensor(root / f"scene{i}.rmt", d)
        rio.write_mask(root / f"scene{i}.rmm", sample_mask(h, w, 30.0, seed=40 + i))
    return root

def test_train_solve_with_checkpoint(tmp_path, capsys):
    root = make_dataset(tmp_path)
    cfg = tmp_path / "train.cfg"
    cfg.write_text("unroll.k_blocks=2\ntrain.epochs=2\ntrain.lr=0.001\ntrain.seed=0\n")
    ckpt = tmp_path / "model.rmu"
    assert run("train", "--dataset", root, "--config", cfg, "--out", ckpt) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split(":")[0] for ln in lines[-3:-1]] == ["epoch 1", "epoch 2"]
    assert all(" train " in ln and " val nan best_val nan" in ln for ln in lines[-3:-1])
    assert "final train loss" in lines[-1]
    model = rio.read_checkpoint(ckpt)
    assert model.k_blocks == 2 and model.k_bands == 2

    est = tmp_path / "est.rmt"
    assert run("solve", "--method", "unroll", "--tensor", root / "scene0.rmt",
               "--mask", root / "scene0.rmm", "--model", ckpt, "--out", est) == 0
    assert rio.read_tensor(est).shape == (12, 12, 2)


def test_sweep_writes_report_csv(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("scene.h=16\nscene.w=16\nscene.n_obstructions=3\n"
                   "sweep.n_scenes=1\nsweep.methods=zero,rbf\n"
                   "sweep.sparsities=10,20\nsweep.seeds=0,1\n")
    out = tmp_path / "report.csv"
    assert run("sweep", "--config", cfg, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == rio.REPORT_HEADER
    assert len(lines) == 1 + 2 * 2 * 2 * 1
    assert {ln.split(",")[0] for ln in lines[1:]} == {"zero", "rbf"}


SWEEP_CFG = ("scene.h=16\nscene.w=16\nscene.n_obstructions=3\nsweep.n_scenes=1\n"
             "sweep.methods=zero,rbf,admm\nsweep.sparsities=20\nsweep.seeds=0\n")


def sweep_rows(tmp_path, extra):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG + extra)
    out = tmp_path / "report.csv"
    assert run("sweep", "--config", cfg, "--out", out) == 0
    # every column but the trailing runtime_ms, keyed by method
    return {ln.split(",")[0]: ln.rsplit(",", 1)[0] for ln in out.read_text().splitlines()[1:]}


def test_sweep_applies_solver_sections(tmp_path):
    plain = sweep_rows(tmp_path, "")
    tuned = sweep_rows(tmp_path, "admm.max_iters=1\nrbf.shape=1\n")
    assert tuned["zero"] == plain["zero"]
    assert tuned["admm"] != plain["admm"]
    assert tuned["rbf"] != plain["rbf"]


def test_sweep_bad_solver_config_exits_5(tmp_path, capsys):
    for line in ("admm.mu=0", "rbf.shape=-1", "ldpl.d0=0", "ldpl.d0=-2", "ldpl.d0=inf"):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG + line + "\n")
        out = tmp_path / "report.csv"
        assert run("sweep", "--config", cfg, "--out", out) == 5, line
        assert capsys.readouterr().err.startswith("config-error:")
        assert not out.exists()


def test_sweep_bad_outage_threshold_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG + "sweep.outage_threshold=1.5\n")
    out = tmp_path / "report.csv"
    assert run("sweep", "--config", cfg, "--out", out) == 2
    assert "outage threshold" in capsys.readouterr().err
    assert not out.exists()


def test_nonpositive_scene_dims_exit_2(tmp_path, capsys):
    for line in ("scene.h=0", "scene.w=-3"):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(line + "\nsweep.n_scenes=1\nsweep.methods=zero\n")
        assert run("gen", "--spec", cfg, "--out", tmp_path / "scene") == 2, line
        assert "scene dims must be positive" in capsys.readouterr().err
        assert run("sweep", "--config", cfg, "--out", tmp_path / "r.csv") == 2, line
        assert "scene dims must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command,line,code", [
    ("gen", "scene.seed=-1", 2),
    ("sample", None, 2),
    ("sweep", "sweep.seeds=-1", 2),
    ("train", "train.seed=-1", 5),
    ("train", "unroll.seed=-1", 2),
])
def test_negative_seed_exits_with_its_section_code(tmp_path, capsys, command, line, code):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("scene.h=16\nscene.w=16\nsweep.n_scenes=1\nsweep.methods=zero\n"
                   "unroll.k_blocks=1\ntrain.epochs=1\n" + (line or "") + "\n")
    out = tmp_path / "out"
    if command == "gen":
        argv = ("gen", "--spec", cfg, "--out", out)
    elif command == "sample":
        t = tmp_path / "t.rmt"
        rio.write_tensor(t, np.zeros((16, 16, 1)))
        argv = ("sample", "--tensor", t, "--percent", 10, "--seed", -1, "--out", out)
    elif command == "sweep":
        argv = ("sweep", "--config", cfg, "--out", out)
    else:
        argv = ("train", "--dataset", make_dataset(tmp_path), "--config", cfg, "--out", out)
    assert run(*argv) == code
    assert "seed must be" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_scene_setting_exits_2(tmp_path, capsys):
    cfg = tmp_path / "scene.cfg"
    cfg.write_text("scene.h=16\nscene.w=16\nscene.shadow_corr=inf\n")
    assert run("gen", "--spec", cfg, "--out", tmp_path / "scene") == 2
    assert "shadow_corr" in capsys.readouterr().err
    assert not (tmp_path / "scene").exists()


@pytest.mark.parametrize("command,out", [
    ("solve", "missing/x.rmt"),
    ("solve", "."),
    ("sample", "missing/x.rmm"),
    ("export", "missing/x.pgm"),
    ("gen", "t.rmt"),
])
def test_unwritable_out_path_exits_2(tmp_path, capsys, command, out):
    t, m = tmp_path / "t.rmt", tmp_path / "m.rmm"
    rio.write_tensor(t, np.zeros((8, 8, 1)))
    rio.write_mask(m, sample_mask(8, 8, 50.0, seed=0))
    spec = tmp_path / "scene.cfg"
    spec.write_text("scene.h=8\nscene.w=8\n")
    out = tmp_path / out
    argv = {
        "solve": ("solve", "--method", "zero", "--tensor", t, "--mask", m, "--out", out),
        "sample": ("sample", "--tensor", t, "--percent", 50, "--seed", 0, "--out", out),
        "export": ("export", "--tensor", t, "--band", 0, "--format", "pgm", "--out", out),
        "gen": ("gen", "--spec", spec, "--out", out),
    }[command]
    assert run(*argv) == 2
    assert str(out) in capsys.readouterr().err
    assert not list(tmp_path.rglob(".tmp-*.part"))


def test_export_and_import_round_trip(scene_dir, tmp_path):
    pgm = tmp_path / "band.pgm"
    assert run("export", "--tensor", scene_dir / "ground_truth.rmt",
               "--band", 0, "--format", "pgm", "--out", pgm) == 0
    assert pgm.read_bytes().startswith(b"P5\n24 24\n255\n")

    csvs = []
    for b in range(3):
        p = tmp_path / f"b{b}.csv"
        assert run("export", "--tensor", scene_dir / "ground_truth.rmt",
                   "--band", b, "--format", "csv", "--out", p) == 0
        csvs.append(p)
    joined = tmp_path / "joined.rmt"
    assert run("import", "--csv", *csvs, "--out", joined) == 0
    truth = rio.read_tensor(scene_dir / "ground_truth.rmt")
    back = rio.read_tensor(joined)
    lo, hi = truth.min(), truth.max()
    assert np.allclose(back, (truth - lo) / (hi - lo), atol=1e-12)


def test_no_command_prints_help(capsys):
    assert main([]) == 0
    assert "radiomap" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit codes

def test_exit_2_on_bad_arguments(tmp_path, capsys):
    t = tmp_path / "t.rmt"
    rio.write_tensor(t, np.zeros((8, 8, 1)))
    m = tmp_path / "m.rmm"
    rio.write_mask(m, sample_mask(6, 6, 50.0, seed=0))

    assert run("solve", "--method", "svd", "--tensor", t, "--mask", m,
               "--out", tmp_path / "x.rmt") == 2
    assert capsys.readouterr().err.startswith("invalid-argument:")

    assert run("solve", "--method", "admm", "--tensor", t, "--mask", m,
               "--out", tmp_path / "x.rmt") == 2  # grid mismatch
    ckpt = tmp_path / "two_bands.rmu"
    rio.write_checkpoint(ckpt, UnrolledModel.create(h=8, w=8, k_bands=2, k_blocks=1))
    m8 = tmp_path / "m8.rmm"
    rio.write_mask(m8, sample_mask(8, 8, 50.0, seed=0))
    assert run("solve", "--method", "unroll", "--model", ckpt, "--tensor", t, "--mask", m8,
               "--out", tmp_path / "x.rmt") == 2  # band mismatch
    assert "expects 2 bands" in capsys.readouterr().err
    assert run("export", "--tensor", t, "--band", 5, "--format", "pgm",
               "--out", tmp_path / "x.pgm") == 2
    assert run("sample", "--tensor", tmp_path / "missing.rmt", "--percent", 10,
               "--seed", 0, "--out", tmp_path / "m2.rmm") == 2
    assert run("train", "--dataset", tmp_path / "nowhere", "--out", tmp_path / "c.rmu") == 2
    data = tmp_path / "data"
    data.mkdir()
    rio.write_tensor(data / "s.rmt", np.zeros((8, 8, 1)))
    rio.write_mask(data / "s.rmm", sample_mask(6, 6, 50.0, seed=0))
    assert run("train", "--dataset", data, "--out", tmp_path / "c.rmu") == 2  # grid mismatch
    assert not (tmp_path / "c.rmu").exists()


def test_train_with_no_training_sample_exits_2(tmp_path, capsys):
    root = make_dataset(tmp_path)
    cfg = tmp_path / "split.cfg"
    cfg.write_text("unroll.k_blocks=1\ntrain.epochs=1\ntrain.val_split=0.9\n")
    assert run("train", "--dataset", root, "--config", cfg, "--out", tmp_path / "c.rmu") == 2
    assert "none to train on" in capsys.readouterr().err
    assert not (tmp_path / "c.rmu").exists()


def test_exit_3_on_corrupt_files(tmp_path, capsys):
    t = tmp_path / "t.rmt"
    rio.write_tensor(t, np.zeros((8, 8, 1)))
    bad = tmp_path / "bad.rmt"
    bad.write_bytes(b"XXXX" + t.read_bytes()[4:])
    assert run("export", "--tensor", bad, "--band", 0, "--format", "csv",
               "--out", tmp_path / "x.csv") == 3
    assert capsys.readouterr().err.startswith("format-error:")

    trunc = tmp_path / "trunc.rmt"
    trunc.write_bytes(t.read_bytes()[:-4])
    assert run("export", "--tensor", trunc, "--band", 0, "--format", "csv",
               "--out", tmp_path / "x.csv") == 3


def test_exit_4_on_divergent_training(tmp_path, capsys):
    root = make_dataset(tmp_path)
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("unroll.k_blocks=2\ntrain.epochs=60\ntrain.lr=1e6\ntrain.seed=0\n")
    with np.errstate(all="ignore"):
        code = run("train", "--dataset", root, "--config", cfg, "--out", tmp_path / "c.rmu")
    assert code == 4
    assert capsys.readouterr().err.startswith("numerical-failure:")
    assert not (tmp_path / "c.rmu").exists()


def test_exit_5_on_config_errors(tmp_path, capsys):
    t = tmp_path / "t.rmt"
    rio.write_tensor(t, np.zeros((8, 8, 1)))
    m = tmp_path / "m.rmm"
    rio.write_mask(m, sample_mask(8, 8, 50.0, seed=0))

    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus.key=1\n")
    assert run("solve", "--method", "admm", "--tensor", t, "--mask", m,
               "--config", bad, "--out", tmp_path / "x.rmt") == 5
    assert capsys.readouterr().err.startswith("config-error:")

    for method, line in (("admm", "admm.mu=-3"), ("halrtc", "halrtc.rho=0"),
                         ("halrtc", "halrtc.max_iters=0"), ("halrtc", "halrtc.tol=-1"),
                         ("halrtc", "halrtc.alpha=0.2,0.2,0.2"),
                         ("admm", "admm.alpha=nan,nan,nan"),
                         ("halrtc", "halrtc.alpha=nan,nan,nan"),
                         ("ldpl", "admm.mu=-3"), ("zero", "halrtc.rho=0"),
                         ("rbf", "rbf.shape=-1"), ("rbf", "rbf.shape=0"),
                         ("ldpl", "ldpl.d0=0"), ("admm", "ldpl.d0=-2"),
                         ("ldpl", "ldpl.d0=inf"), ("halrtc", "halrtc.rho=inf"),
                         ("rbf", "rbf.shape=inf"), ("admm", "admm.tol=inf"),
                         ("halrtc", "halrtc.tol=inf"), ("admm", "admm.rho=inf"),
                         ("admm", "admm.lambda=inf"), ("admm", "admm.delta=nan"),
                         ("admm", "admm.penalty_growth=nan"), ("admm", "admm.penalty_cap=nan")):
        domain = tmp_path / "domain.cfg"
        domain.write_text(line + "\n")
        assert run("solve", "--method", method, "--tensor", t, "--mask", m,
                   "--config", domain, "--out", tmp_path / "x.rmt") == 5, line
        assert not (tmp_path / "x.rmt").exists()


def test_sweep_unroll_without_model_is_invalid(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("sweep.methods=unroll\n")
    assert run("sweep", "--config", cfg, "--out", tmp_path / "r.csv") == 2
    assert "sweep.model" in capsys.readouterr().err
