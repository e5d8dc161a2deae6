import importlib
import inspect
import json
import os
import pathlib
import re
import shlex
import struct
import subprocess
import sys

import numpy as np
import pytest

from fednoise.bench import (
    DatasetSpec,
    ExperimentConfig,
    apply_item,
    build_datasets,
    config_items,
    load_config,
    main,
    parse_config_text,
    resolve_config,
    run_experiment,
    summary_accuracy,
)
from fednoise import coordinator, localnode, numkit
from fednoise.errors import ConfigError, TrainingDiverged
from fednoise.localnode import METHODS, local_update
from fednoise.metrics import read_csv
from fednoise.noise import apply_noise
from fednoise.datagen import partition_iid
from fednoise.seeds import STREAM_INIT, STREAM_LOCAL, STREAM_SELECT, make_rng

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLOBS_CFG = os.path.join(REPO_ROOT, "configs", "blobs.cfg")


# ------------------------------------------------------------ config parsing


def test_parse_config_text_basics():
    text = """
    # comment line
    noise.epsilon = 0.4   # trailing comment
    fed.rounds = 25

    method = ce_baseline
    """
    items = parse_config_text(text)
    assert items == {"noise.epsilon": "0.4", "fed.rounds": "25", "method": "ce_baseline"}


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError, match="line"):
        parse_config_text("just some words\n", origin="line")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2\n")


def test_apply_item_type_checking():
    cfg = ExperimentConfig()
    apply_item(cfg, "noise.epsilon", "0.4")
    assert cfg.noise.epsilon == 0.4
    apply_item(cfg, "noise.kind", "single_class")
    assert cfg.noise.kind == "single_class"
    apply_item(cfg, "hp.tau", "none")
    assert cfg.hp.tau is None
    apply_item(cfg, "hp.tau", "0.3")
    assert cfg.hp.tau == 0.3
    with pytest.raises(ConfigError, match="unknown"):
        apply_item(cfg, "noise.flavor", "sour")
    with pytest.raises(ConfigError, match="unknown"):
        apply_item(cfg, "universe.answer", "42")
    with pytest.raises(ConfigError, match="expected int"):
        apply_item(cfg, "fed.rounds", "many")
    # The single-class model is a value of noise.kind, not a key of its own.
    with pytest.raises(ConfigError, match="unknown key"):
        apply_item(cfg, "noise.per_class_mode", "true")


def test_load_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "e.cfg"
    cfg_file.write_text("noise.epsilon = 0.2\nfed.rounds = 9\nseed = 3\n")
    cfg = load_config(str(cfg_file), ["noise.epsilon=0.5", "method=ce_baseline"])
    assert cfg.noise.epsilon == 0.5  # override beats file
    assert cfg.fed.rounds == 9
    assert cfg.seed == 3
    assert cfg.method == "ce_baseline"


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.cfg")


def test_load_config_bad_override():
    with pytest.raises(ConfigError, match="key=value"):
        load_config(None, ["epsilon0.4"])


def test_resolve_config_fills_tau():
    cfg = ExperimentConfig()
    cfg.noise.epsilon = 0.35
    rcfg = resolve_config(cfg)
    assert rcfg.hp.tau == 0.35
    assert cfg.hp.tau is None  # original untouched


def test_resolve_config_rejects_bad_method():
    cfg = ExperimentConfig()
    cfg.method = "magic"
    with pytest.raises(ConfigError, match="method"):
        resolve_config(cfg)


def test_resolve_config_rejects_negative_seed():
    cfg = ExperimentConfig()
    cfg.seed = -1
    with pytest.raises(ConfigError, match="seed"):
        resolve_config(cfg)


def test_config_items_round_trip():
    cfg = ExperimentConfig()
    cfg.noise.epsilon = 0.4
    clone = ExperimentConfig()
    for key, value in config_items(cfg):
        if value == "":
            continue
        apply_item(clone, key, value)
    assert clone.noise.epsilon == 0.4
    assert clone.hp.tau is None
    assert clone.fed.rounds == cfg.fed.rounds


def test_dataset_spec_validation():
    DatasetSpec().validate()
    with pytest.raises(ConfigError):
        DatasetSpec(kind="csv").validate()
    with pytest.raises(ConfigError, match="images"):
        DatasetSpec(kind="idx").validate()
    with pytest.raises(ConfigError):
        DatasetSpec(spread=0.0).validate()


def _desk_cfg(**kw) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.dataset = DatasetSpec(train_per_class=30, test_per_class=10, classes=3, dim=4)
    cfg.noise.epsilon = 0.3
    cfg.fed.num_clients = 5
    cfg.fed.clients_per_round = 3
    cfg.fed.rounds = 6
    cfg.hp.hidden_dim = 8
    cfg.hp.batch_size = 10
    cfg.hp.local_epochs = 2
    cfg.hp.t_pl = 3
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


# -------------------------------------------------------------- experiments


def test_run_experiment_row_count_and_csv(tmp_path):
    out = str(tmp_path / "run.csv")
    cfg = _desk_cfg(output=out)
    _, records = run_experiment(cfg)
    assert len(records) == 6
    back = read_csv(out)
    assert [r.round for r in back] == [1, 2, 3, 4, 5, 6]
    assert summary_accuracy(records) == pytest.approx(
        float(np.mean([r.test_accuracy for r in records[-10:]]))
    )


def test_run_experiment_deterministic_bytes(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run_experiment(_desk_cfg(output=a))
    run_experiment(_desk_cfg(output=b))
    assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes()


def test_summary_accuracy_window():
    from fednoise.metrics import MetricsRecord

    recs = [
        MetricsRecord(t, float(t), 0, 1, 1, 1, 0, 1.0) for t in range(1, 16)
    ]
    assert summary_accuracy(recs) == pytest.approx(np.mean(range(6, 16)))
    assert np.isnan(summary_accuracy([]))


# ------------------------------------------------- baseline differential test


def reference_fedavg_ce(cfg: ExperimentConfig) -> np.ndarray:
    """Plain FedAvg with cross-entropy, written straight from the update
    equations. Returns the flattened final global weights."""
    rcfg = resolve_config(cfg)
    train, _ = build_datasets(rcfg.dataset)
    shards = partition_iid(train, rcfg.fed.num_clients, rcfg.seed)
    apply_noise(train, shards, rcfg.noise)

    hp = rcfg.hp
    rng = make_rng(rcfg.seed, STREAM_INIT)
    d_in, d_h, C = train.d_in, hp.hidden_dim, train.C
    W1 = rng.normal(0.0, 1.0, size=(d_in, d_h)) / np.sqrt(d_in)
    b1 = np.zeros(d_h)
    W2 = rng.normal(0.0, 1.0, size=(d_h, C)) / np.sqrt(d_h)
    b2 = np.zeros(C)

    for t in range(1, rcfg.fed.rounds + 1):
        sel_rng = make_rng(rcfg.seed, STREAM_SELECT, t)
        chosen = np.sort(
            sel_rng.choice(rcfg.fed.num_clients, size=rcfg.fed.clients_per_round, replace=False)
        )
        sizes = [len(shards[c]) for c in chosen]
        total = float(sum(sizes))
        acc = [np.zeros_like(W1), np.zeros_like(b1), np.zeros_like(W2), np.zeros_like(b2)]
        for cid, n_k in zip(chosen, sizes):
            rng_k = make_rng(rcfg.seed, STREAM_LOCAL, t, int(cid))
            X = train.X[shards[cid]]
            y = train.given_labels[shards[cid]]
            w1, c1, w2, c2 = W1.copy(), b1.copy(), W2.copy(), b2.copy()
            v = [np.zeros_like(w1), np.zeros_like(c1), np.zeros_like(w2), np.zeros_like(c2)]
            for _epoch in range(hp.local_epochs):
                perm = rng_k.permutation(len(y))
                for s in range(0, len(perm), hp.batch_size):
                    idx = perm[s : s + hp.batch_size]
                    Xb, yb = X[idx], y[idx]
                    B = len(idx)
                    hidden = np.tanh(Xb @ w1 + c1)
                    logits = hidden @ w2 + c2
                    shifted = logits - logits.max(axis=1, keepdims=True)
                    e = np.exp(shifted)
                    probs = e / e.sum(axis=1, keepdims=True)
                    onehot = np.zeros_like(probs)
                    onehot[np.arange(B), yb] = 1.0
                    d_logits = (probs - onehot) / B
                    gW2 = hidden.T @ d_logits
                    gb2 = d_logits.sum(axis=0)
                    d_hidden = d_logits @ w2.T + np.zeros_like(hidden)
                    dz1 = d_hidden * (1.0 - hidden**2)
                    gW1 = Xb.T @ dz1
                    gb1 = dz1.sum(axis=0)
                    v[0] = hp.momentum * v[0] + gW1 + hp.weight_decay * w1
                    v[1] = hp.momentum * v[1] + gb1
                    v[2] = hp.momentum * v[2] + gW2 + hp.weight_decay * w2
                    v[3] = hp.momentum * v[3] + gb2
                    w1 = w1 - hp.learning_rate * v[0]
                    c1 = c1 - hp.learning_rate * v[1]
                    w2 = w2 - hp.learning_rate * v[2]
                    c2 = c2 - hp.learning_rate * v[3]
            w = n_k / total
            acc[0] += w * w1
            acc[1] += w * c1
            acc[2] += w * w2
            acc[3] += w * c2
        W1, b1, W2, b2 = acc
    return np.concatenate([W1.ravel(), b1, W2.ravel(), b2])


def test_ce_baseline_bit_equals_reference_fedavg():
    cfg = _desk_cfg(method="ce_baseline")
    params, _ = run_experiment(cfg)
    expected = reference_fedavg_ce(_desk_cfg(method="ce_baseline"))
    np.testing.assert_array_equal(params.theta, expected)


# ---------------------------------------------------------------------- CLI


def _write_cfg(tmp_path) -> str:
    p = tmp_path / "t.cfg"
    p.write_text(
        "dataset.classes = 3\ndataset.dim = 4\n"
        "dataset.train_per_class = 30\ndataset.test_per_class = 10\n"
        "noise.epsilon = 0.3\n"
        "fed.num_clients = 5\nfed.clients_per_round = 3\nfed.rounds = 4\n"
        "hp.hidden_dim = 8\nhp.batch_size = 10\nhp.local_epochs = 2\nhp.t_pl = 3\n"
    )
    return str(p)


def test_cli_run_writes_csv(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "o.csv")
    code = main(["run", "--config", cfg, "--output", out])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "acc_last10=" in stdout and "rounds=4" in stdout
    assert len(read_csv(out)) == 4
    # No rounds, no accuracy: the line leaves the field out, not nan.
    code = main(["run", "--config", cfg, "--output", out, "--override", "fed.rounds=0"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "rounds=0" in stdout and "acc_last10=" not in stdout and "nan" not in stdout
    assert read_csv(out) == []


def test_cli_override_beats_flag_sugar(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    code = main(
        ["run", "--config", cfg, "--method", "proposed", "--override", "method=ce_baseline"]
    )
    assert code == 0
    assert "method=ce_baseline" in capsys.readouterr().out


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    code = main(["run", "--config", cfg, "--override", "noise.epsilon=1.5"])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def _unpicklable_error():
    class LocalError(Exception):
        """Defined in a function, so it does not pickle."""

    return LocalError("a local error")


def test_cli_runtime_error_exit_code(tmp_path, capsys, monkeypatch):
    cfg = _write_cfg(tmp_path)
    # Missing IDX files: the run itself fails, not the config.
    files = [f"dataset.{key}={tmp_path / key}" for key in ("images", "labels", "test_images", "test_labels")]
    overrides = [a for ov in ["dataset.kind=idx"] + files for a in ("--override", ov)]
    code = main(["run", "--config", cfg] + overrides)
    assert code == 2
    assert "fednoise: error:" in capsys.readouterr().err

    # A client error that is no fednoise error is a runtime error too,
    # named by its type: a ValueError in this process, and from a worker
    # the RuntimeError that carries an error the pipe cannot.
    coordinator_pid = os.getpid()
    local_update = coordinator.local_update
    for processes, make_error, name in [
        (1, lambda: ValueError("boom"), "ValueError"),
        (2, _unpicklable_error, "RuntimeError"),
    ]:
        monkeypatch.setattr(coordinator, "_process_count", lambda clients: processes)

        def fails(*args, **kwargs):
            if processes == 1 or os.getpid() != coordinator_pid:
                raise make_error()
            return local_update(*args, **kwargs)

        monkeypatch.setattr(coordinator, "local_update", fails)
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"fednoise: error: {name}: round 1, client "), err


@pytest.mark.parametrize(
    "output, error",
    [
        ("no/such/dir/o.csv", "does not exist"),
        ("", "is a directory"),
        # Linux file systems allow names of up to 255 bytes.
        ("x" * 252 + ".csv", "is longer than the file system's 255 bytes"),
    ],
    ids=["missing_directory", "directory", "name_too_long"],
)
def test_cli_run_checks_output_before_set_up(tmp_path, capsys, monkeypatch, output, error):
    # A CSV path that cannot be written is a config error before any data
    # is built or any round is trained.
    def reached(*args, **kwargs):
        raise AssertionError("the run went past its config check")

    monkeypatch.setattr("fednoise.bench.build_datasets", reached)
    monkeypatch.setattr("fednoise.bench.run_training", reached)
    code = main(["run", "--config", _write_cfg(tmp_path), "--output", str(tmp_path / output)])
    assert code == 1
    err = capsys.readouterr().err
    assert "fednoise: config error: output:" in err and error in err


_IDX_FILES = [f"dataset.{key}=unread" for key in ("images", "labels", "test_images", "test_labels")]
# The pair _write_idx writes, as both the training and the test set.
_IDX_PAIR = [f"dataset.{key}={{tmp}}/{name}" for key, name in (
    ("images", "img"), ("labels", "lab"), ("test_images", "img"), ("test_labels", "lab"))]


def _write_idx(tmp_path, n=300, side=2, stem=""):
    """An IDX image/label pair, {stem}img and {stem}lab, of n blank
    side x side images in 3 classes."""
    (tmp_path / f"{stem}img").write_bytes(
        struct.pack(">IIII", 0x803, n, side, side) + bytes(side * side * n)
    )
    (tmp_path / f"{stem}lab").write_bytes(struct.pack(">II", 0x801, n) + bytes(i % 3 for i in range(n)))


@pytest.mark.parametrize(
    "overrides, error",
    [
        (["output={tmp}/no/such/dir/o.csv"], "output: the directory of '{tmp}/no/such/dir/o.csv' does not exist"),
        (["output={tmp}"], "output: '{tmp}' is a directory"),
        # blobs.cfg fixes 4 x 500 training rows.
        (["fed.num_clients=3000"], "fed.num_clients: 3000 > 2000 training rows"),
        # 20 clients in blobs.cfg; the files are never read.
        (["dataset.kind=idx", "dataset.subset=10"] + _IDX_FILES, "fed.num_clients: 20 > 10 training rows"),
        # 300 images; the subset keeps them all. Only the headers are read.
        (
            ["dataset.kind=idx", "dataset.subset=500", "fed.num_clients=400"] + _IDX_PAIR,
            "fed.num_clients: 400 > 300 training rows",
        ),
        # Test images that training could not evaluate: 3 x 3 against
        # 2 x 2, and none at all.
        (
            ["dataset.kind=idx"] + _IDX_PAIR[:2]
            + ["dataset.test_images={tmp}/wide_img", "dataset.test_labels={tmp}/wide_lab"],
            "dataset.test_images: images of 3 x 3, not the training images' 2 x 2",
        ),
        (
            ["dataset.kind=idx"] + _IDX_PAIR[:2]
            + ["dataset.test_images={tmp}/empty_img", "dataset.test_labels={tmp}/empty_lab"],
            "dataset.test_images: no images",
        ),
        # Images of no pixels, as the training and the test set.
        (
            ["dataset.kind=idx"] + [ov.replace("}/", "}/blank_") for ov in _IDX_PAIR],
            "dataset.images: images of 0 x 0 pixels",
        ),
    ],
    ids=[
        "output_missing_directory", "output_directory", "clients_over_blob_rows",
        "clients_over_idx_subset", "clients_over_idx_images", "test_images_of_another_size",
        "no_test_images", "images_of_no_pixels",
    ],
)
def test_validate_and_run_judge_a_config_alike(tmp_path, capsys, monkeypatch, overrides, error):
    # validate-config and run reject the same configs with the same
    # message, and run does so before any data is built.
    def reached(*args, **kwargs):
        raise AssertionError("the run went past its config check")

    monkeypatch.setattr("fednoise.bench.build_datasets", reached)
    _write_idx(tmp_path)
    _write_idx(tmp_path, n=12, side=3, stem="wide_")
    _write_idx(tmp_path, n=0, stem="empty_")
    _write_idx(tmp_path, n=60, side=0, stem="blank_")
    args = [a for ov in overrides for a in ("--override", ov.format(tmp=tmp_path))]
    for command in ("validate-config", "run"):
        assert main([command, "--config", BLOBS_CFG] + args) == 1
        out, err = capsys.readouterr()
        assert "ok" not in out
        assert f"fednoise: config error: {error.format(tmp=tmp_path)}" in err


@pytest.mark.parametrize(
    "broken, error",
    [("missing", "No such file"), ("bad_magic", "bad label magic 0x00000802 at byte 0")],
    ids=["missing", "bad_magic"],
)
def test_validate_and_run_read_the_idx_headers_alike(tmp_path, capsys, monkeypatch, broken, error):
    # A missing or malformed IDX file is a runtime error (exit 2), which
    # validate-config reports as run does, before any data is built; the
    # intact pair passes.
    def reached(*args, **kwargs):
        raise AssertionError("the run went past its config check")

    monkeypatch.setattr("fednoise.bench.build_datasets", reached)
    _write_idx(tmp_path)
    args = [a for ov in ["dataset.kind=idx"] + _IDX_PAIR for a in ("--override", ov.format(tmp=tmp_path))]
    assert main(["validate-config", "--config", BLOBS_CFG] + args) == 0
    capsys.readouterr()
    if broken == "missing":
        (tmp_path / "img").unlink()
    else:
        lab = tmp_path / "lab"
        lab.write_bytes(struct.pack(">I", 0x802) + lab.read_bytes()[4:])
    for command in ("validate-config", "run"):
        assert main([command, "--config", BLOBS_CFG] + args) == 2
        out, err = capsys.readouterr()
        assert "ok" not in out
        assert err.startswith("fednoise: error: ") and error in err


def test_cli_validate_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    code = main(["validate-config", "--config", cfg])
    assert code == 0
    out = capsys.readouterr().out
    assert "ok" in out.splitlines()[-1]
    assert "hp.tau = 0.3" in out  # resolved from noise.epsilon


def test_cli_validate_rejects_unknown_key(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    for override in ("hp.warp=9", "workers=2", "hp.lambda_cen_warmup_rounds=5"):
        code = main(["validate-config", "--config", cfg, "--override", override])
        assert code == 1


def test_cli_validate_single_class_is_a_noise_kind(tmp_path, capsys):
    # single_class is a noise.kind and takes client_variance like any
    # kind; there is no key of its own to set.
    cfg = _write_cfg(tmp_path)
    overrides = ["--override", "noise.kind=single_class", "--override", "noise.client_variance=0.2"]
    assert main(["validate-config", "--config", cfg] + overrides) == 0
    assert "noise.kind = single_class" in capsys.readouterr().out
    assert main(["validate-config", "--config", cfg, "--override", "noise.per_class_mode=true"]) == 1
    assert "unknown key in section 'noise'" in capsys.readouterr().err


def test_cli_validate_checks_client_variance_against_the_kind(tmp_path, capsys):
    # Pair noise needs every client group's ratio below 0.5, not below 1.
    cfg = _write_cfg(tmp_path)
    pair = ["validate-config", "--config", cfg, "--override", "noise.kind=pair"]
    for eps, spread, code in [("0.4", "0.2", 1), ("0.3", "0.2", 1), ("0.3", "0.15", 0)]:
        overrides = [f"noise.epsilon={eps}", f"noise.client_variance={spread}"]
        assert main(pair + [arg for ov in overrides for arg in ("--override", ov)]) == code
        if code:
            assert "noise.client_variance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override",
    [
        "hp.learning_rate=nan", "hp.lambda_cen=nan", "hp.lambda_e=inf", "hp.weight_decay=nan",
        "hp.weight_decay=-1", "dataset.spread=nan", "noise.client_variance=nan", "hp.t_pl=-5",
    ],
)
def test_cli_validate_rejects_non_finite_floats_and_negative_weight_decay(
    tmp_path, capsys, override
):
    # A NaN passes every `x < bound` check, so it must be refused on its own.
    code = main(["validate-config", "--config", _write_cfg(tmp_path), "--override", override])
    assert code == 1
    assert f"config error: {override.split('=')[0]}: " in capsys.readouterr().err


def test_cli_sweep(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    outdir = str(tmp_path / "sweep")
    code = main(
        [
            "sweep", "--config", cfg, "--grid", "noise.epsilon=0.1,0.3",
            "--grid", "method=ce_baseline", "--output-dir", outdir,
        ]
    )
    assert code == 0
    assert sorted(os.listdir(outdir)) == [
        "noise.epsilon=0.1_method=ce_baseline.csv", "noise.epsilon=0.3_method=ce_baseline.csv"
    ]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines] == [
        ["noise.epsilon=0.1", "method=ce_baseline", "rounds=4"],
        ["noise.epsilon=0.3", "method=ce_baseline", "rounds=4"],
    ]
    for line in lines:
        fields = dict(item.split("=", 1) for item in line.split())
        records = read_csv(fields["csv"])
        assert fields["acc_last10"] == f"{summary_accuracy(records):.4f}"
        assert fields["acc_final"] == f"{records[-1].test_accuracy:.4f}"
        assert fields["wdiv_final"] == f"{records[-1].weight_divergence:.5f}"
    code = main(
        [
            "sweep", "--config", cfg, "--grid", "noise.epsilon=0.1", "--override", "fed.rounds=0",
            "--output-dir", str(tmp_path / "empty"),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("noise.epsilon=0.1 rounds=0 csv=")
    assert "acc_last10=" not in stdout and "nan" not in stdout


def test_cli_sweep_cell_is_a_run(tmp_path):
    cfg = _write_cfg(tmp_path)
    outdir = tmp_path / "sweep"
    grid = ["--grid", "seed,dataset.seed,noise.seed=5,6", "--grid", "noise.epsilon=0.1,0.1000001"]
    assert main(["sweep", "--config", cfg, "--output-dir", str(outdir)] + grid) == 0
    # A cell is named by each axis's first key; 0.1 and 0.1000001 are two cells.
    assert sorted(p.name for p in outdir.iterdir()) == [
        f"seed={seed}_noise.epsilon={eps}.csv" for seed in (5, 6) for eps in ("0.1", "0.1000001")
    ]
    out = tmp_path / "run.csv"
    overrides = ["seed=6", "dataset.seed=6", "noise.seed=6", "noise.epsilon=0.1000001", f"output={out}"]
    assert main(["run", "--config", cfg] + [a for ov in overrides for a in ("--override", ov)]) == 0
    assert out.read_bytes() == (outdir / "seed=6_noise.epsilon=0.1000001.csv").read_bytes()


def test_cli_sweep_escapes_a_path_in_a_cell_name(tmp_path, monkeypatch):
    # A value's % becomes %25, then its / %2F, so a grid over IDX files
    # writes every CSV into --output-dir itself, and a value that reads
    # like an escaped one is a cell of its own.
    monkeypatch.chdir(tmp_path)
    for stem, side in (("a", 2), ("b", 3)):
        (tmp_path / stem).mkdir()
        _write_idx(tmp_path / stem, side=side)
    (tmp_path / "a%2Fimg").write_bytes((tmp_path / "a" / "img").read_bytes())
    overrides = ["dataset.kind=idx", "dataset.labels=a/lab", "dataset.test_labels=a/lab", "fed.rounds=1"]
    args = ["--config", BLOBS_CFG] + [a for ov in overrides for a in ("--override", ov)]
    grid = ["--grid", "dataset.images,dataset.test_images=a/img,b/img,a%2Fimg", "--output-dir", "out"]
    assert main(["sweep"] + args + grid) == 0
    names = ["dataset.images=a%252Fimg.csv", "dataset.images=a%2Fimg.csv", "dataset.images=b%2Fimg.csv"]
    assert sorted(os.listdir("out")) == names
    csvs = [(tmp_path / "out" / name).read_bytes() for name in names]
    assert csvs[0] == csvs[1] != csvs[2]
    run = ["--override", "dataset.images=b/img", "--override", "dataset.test_images=b/img"]
    assert main(["run"] + args + run + ["--output", "run.csv"]) == 0
    assert (tmp_path / "run.csv").read_bytes() == csvs[2]


@pytest.mark.parametrize(
    "args, error",
    [
        # Pair noise needs epsilon below 0.5, so only the second cell is bad.
        (["--grid", "noise.epsilon=0.2,0.6", "--override", "noise.kind=pair"], "noise.epsilon"),
        (["--grid", "method=proposed,bogus"], "method: must be one of"),
        (["--grid", "fed.rounds=many"], "config error: fed.rounds: expected int"),
        # The second cell would overwrite the first cell's CSV.
        (["--grid", "method=proposed,proposed"], "two sweep cells would write {outdir}/method=proposed.csv"),
        (["--grid", "noise.epsilon=0.1,0.10"], "two sweep cells would write {outdir}/noise.epsilon=0.1.csv"),
        (["--grid", "method="], "config error: --grid 'method=': expected KEY[,KEY...]=V1,V2,..."),
        (["--grid", "=proposed"], "config error: --grid '=proposed': expected KEY[,KEY...]=V1,V2,..."),
        (["--grid", "method=proposed,,ce_baseline"], "--grid 'method=proposed,,ce_baseline': expected"),
        (
            ["--grid", "method=proposed", "--grid", "method=ce_baseline"],
            "--grid 'method=ce_baseline': method is already set by --grid 'method=proposed'",
        ),
        # sweep names each cell's CSV itself.
        (["--grid", "output=a.csv"], "--grid 'output=a.csv': output is already set by sweep"),
        # The last --output-dir wins: here the config file, which exists.
        (
            ["--grid", "method=proposed", "--output-dir", "{cfg}"],
            "config error: --output-dir: cannot create '{cfg}'",
        ),
        # The second value escapes to a name of 546 bytes; the blobs config
        # never reads dataset.images, so only the name is wrong.
        (
            ["--grid", "dataset.images=b/img," + "./" * 130 + "a/img"],
            "config error: output: the file name 'dataset.images=.%2F.%2F",
        ),
    ],
    ids=[
        "pair_epsilon", "unknown_method", "int_value", "same_csv_method", "same_csv_epsilon",
        "no_methods", "empty_key", "empty_value", "key_on_two_axes", "output_key", "output_dir_is_a_file",
        "name_too_long",
    ],
)
def test_cli_sweep_checks_every_cell_before_it_runs(tmp_path, capsys, args, error):
    names = {"outdir": tmp_path / "sweep", "cfg": _write_cfg(tmp_path)}
    args = [arg.format(**names) for arg in args]
    code = main(["sweep", "--config", names["cfg"], "--output-dir", str(names["outdir"])] + args)
    assert code == 1
    assert list(tmp_path.rglob("*.csv")) == []
    out, err = capsys.readouterr()
    assert out == ""
    assert error.format(**names) in err


def _readme_sweep_commands() -> list[list[str]]:
    """The arguments of every `fednoise sweep` in the README's fenced blocks."""
    text = pathlib.Path(REPO_ROOT, "README.md").read_text()
    blocks = re.findall(r"^ *```[^\n]*\n(.*?)^ *```", text, flags=re.M | re.S)
    lines = [line.strip() for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    return [shlex.split(line)[2:] for line in lines if line.startswith("fednoise sweep ")]


def test_readme_sweep_commands_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    commands = _readme_sweep_commands()
    assert len(commands) >= 3
    for args in commands:
        argv = ["sweep"] + args + ["--override", "fed.rounds=1", "--output-dir", str(tmp_path)]
        assert main(argv) == 0, (args, capsys.readouterr().err)
    # The README's sweeps can share one --output-dir: no two write the same CSV.
    csvs = [line.split("csv=")[1] for line in capsys.readouterr().out.splitlines()]
    assert len(csvs) == len(set(csvs)) == len(list(tmp_path.glob("*.csv")))


def test_cli_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_cli_entry_point_subprocess(tmp_path):
    cfg = _write_cfg(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "fednoise", "run", "--config", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "acc_last10=" in proc.stdout


@pytest.mark.parametrize("processes", [1, 3])
@pytest.mark.parametrize(
    "lr, error",
    [
        # Round 1's last SGD step turns every client's weights to inf.
        ("1e300", "round 1, client {first}: local weights became non-finite"),
        # The weights stay finite (about 1e295), but the norms inside
        # weight_divergence overflow.
        ("1e150", "round 1: weight_divergence is not finite"),
    ],
    ids=["weights_overflow", "divergence_overflows"],
)
def test_diverging_run_fails_in_the_round_it_diverges(monkeypatch, processes, lr, error):
    monkeypatch.setattr(coordinator, "_process_count", lambda clients: processes)
    cfg = load_config(BLOBS_CFG, [f"hp.learning_rate={lr}", "fed.rounds=2", "hp.local_epochs=1"])
    first = coordinator.select_clients(
        cfg.fed.num_clients, cfg.fed.clients_per_round, make_rng(cfg.seed, STREAM_SELECT, 1)
    )[0]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDiverged) as exc:
        run_experiment(cfg)
    assert str(exc.value) == error.format(first=first)


@pytest.mark.parametrize("processes", [1, 3])
@pytest.mark.parametrize("kernels", ["c", "numpy"])
def test_a_diverging_loss_names_the_round_and_the_client(monkeypatch, processes, kernels):
    # Round 1's first epoch turns the weights to inf; in the second, the
    # loss of the next batch is NaN, on the C path of the local step and
    # on its numpy lines (forked workers inherit the binding).
    monkeypatch.setattr(coordinator, "_process_count", lambda clients: processes)
    if kernels == "numpy":
        monkeypatch.setattr(localnode, "_local", None)
        monkeypatch.setattr(numkit, "_mlp", None)
    cfg = load_config(BLOBS_CFG, ["hp.learning_rate=1e300", "fed.rounds=2", "hp.local_epochs=2"])
    first = coordinator.select_clients(
        cfg.fed.num_clients, cfg.fed.clients_per_round, make_rng(cfg.seed, STREAM_SELECT, 1)
    )[0]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDiverged) as exc:
        run_experiment(cfg)
    assert str(exc.value) == f"round 1, client {first}: classification loss became non-finite"


def test_a_diverging_784d_client_names_the_round_and_the_client(monkeypatch):
    # At 784-d, too, a learning rate of 1e300 fails the first client of
    # round 1 with the same message on the C path and on numpy's lines.
    monkeypatch.setattr(coordinator, "_process_count", lambda clients: 1)
    cfg = load_config(BLOBS_CFG, [
        "dataset.dim=784", "dataset.classes=10", "dataset.train_per_class=40", "dataset.test_per_class=10",
        "hp.learning_rate=1e300", "fed.rounds=2", "hp.local_epochs=2",
    ])
    first = coordinator.select_clients(
        cfg.fed.num_clients, cfg.fed.clients_per_round, make_rng(cfg.seed, STREAM_SELECT, 1)
    )[0]
    errors = []
    for kernels in ("c", "numpy"):
        if kernels == "numpy":
            monkeypatch.setattr(localnode, "_local", None)
            monkeypatch.setattr(numkit, "_mlp", None)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDiverged) as exc:
            run_experiment(cfg)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] and errors[0].startswith(f"round 1, client {first}: ")


def test_cli_diverging_run_exits_two(tmp_path, capsys):
    out = tmp_path / "o.csv"
    args = ["hp.learning_rate=1e300", "fed.rounds=1", "hp.local_epochs=1", f"output={out}"]
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", "--config", BLOBS_CFG] + [a for ov in args for a in ("--override", ov)])
    assert code == 2
    assert "round 1, client" in capsys.readouterr().err
    assert not out.exists()


def test_cli_worker_death_exits_two(tmp_path, capsys, monkeypatch):
    # Two CPUs: each of blobs.cfg's five clients a round runs in its own
    # process, and every worker exits in its client of round 2.
    monkeypatch.setattr(coordinator, "_usable_cpus", lambda: 2)
    coordinator_pid = os.getpid()
    local_update = coordinator.local_update

    def dies(*args, **kwargs):
        if os.getpid() != coordinator_pid and args[4] == 2:
            os._exit(7)
        return local_update(*args, **kwargs)

    monkeypatch.setattr(coordinator, "local_update", dies)
    assert main(["run", "--config", _write_cfg(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert re.search(r"round 2: client worker process \d+ exited \(exit code 7\)", err), err


# blobs.cfg made MNIST-shaped: 784-d, 10 classes, 10k training points.
MNIST_SHAPED_3_ROUNDS = (
    "dataset.dim=784", "dataset.classes=10", "dataset.train_per_class=1000",
    "dataset.test_per_class=200", "fed.rounds=3",
)
MNIST_SHAPED_CE_3_ROUNDS = MNIST_SHAPED_3_ROUNDS + ("method=ce_baseline",)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cli_csv(path, overrides, env=None, preexec_fn=None) -> bytes:
    """CSV bytes of `fednoise run` on blobs.cfg with overrides, in a subprocess."""
    cmd = [sys.executable, "-m", "fednoise", "run", "--config", BLOBS_CFG, "--output", str(path)]
    for ov in overrides:
        cmd += ["--override", ov]
    subprocess.run(cmd, check=True, env=env, capture_output=True, cwd=REPO_ROOT,
                   preexec_fn=preexec_fn)
    return path.read_bytes()


def test_blas_thread_count_does_not_change_csv(tmp_path):
    # 784-d products are large enough for OpenBLAS to split them across
    # threads, which changes float rounding unless the package pins BLAS.
    blobs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        blobs.append(_cli_csv(tmp_path / f"blas{threads}.csv", MNIST_SHAPED_CE_3_ROUNDS, env))
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize(
    "overrides",
    # 32 rounds reach the pseudo-label phase (hp.t_pl = 30) and the end of
    # the keep-fraction decay (hp.t_horizon = 10).
    # The MNIST-shaped proposed run reaches pseudo-labels in round 2, so
    # 784-d centroids go out to the workers and their masks come back.
    [("fed.rounds=32", f"method={m}") for m in METHODS]
    + [MNIST_SHAPED_CE_3_ROUNDS, MNIST_SHAPED_3_ROUNDS + ("method=proposed", "hp.t_pl=2")],
    ids=list(METHODS) + ["mnist_shaped_ce_baseline", "mnist_shaped_proposed"],
)
def test_csv_bytes_do_not_depend_on_processes(tmp_path, monkeypatch, overrides):
    # One CPU means one process; every CPU means one per selected client
    # (at most four per CPU); three forced processes deal blobs.cfg's five
    # clients a round as 2 + 2 + 1.
    cpu = min(os.sched_getaffinity(0))
    one_cpu = _cli_csv(
        tmp_path / "one_cpu.csv", overrides, preexec_fn=lambda: os.sched_setaffinity(0, {cpu})
    )
    every_cpu = _cli_csv(tmp_path / "every_cpu.csv", overrides)
    monkeypatch.setattr(coordinator, "_process_count", lambda clients: 3)
    three = tmp_path / "three.csv"
    run_experiment(load_config(BLOBS_CFG, list(overrides) + [f"output={three}"]))
    assert one_cpu == every_cpu == three.read_bytes()


@pytest.mark.parametrize(
    "code, preset, warns",
    [
        ("import numpy; import fednoise", None, True),
        ("import fednoise; import numpy", None, False),
        ("import numpy; import fednoise", "1", False),
    ],
    ids=["numpy_first", "fednoise_first", "numpy_first_pinned_by_env"],
)
def test_blas_pin_warns_when_numpy_came_first(code, preset, warns):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if preset is not None:
        env.update({v: preset for v in BLAS_THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-c", code],
        env=env, capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert ("RuntimeWarning" in proc.stderr and "one thread" in proc.stderr) == warns, proc.stderr


def test_csv_digests_match_the_reference():
    # The nine reference runs of scripts/csv_digests.py, about 8 s on 2 CPUs.
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "scripts", "csv_digests.py"), "--check"],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    if proc.returncode == 2 and proc.stdout.startswith("no reference digests"):
        pytest.skip(proc.stdout.strip())
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "check passed" in proc.stdout


# Runs scripts/csv_digests.py --check with run_experiment replaced by a
# stub that writes one fixed CSV and counts its calls, and with reference
# versions and digests that make the check pass, fail or not apply.
_DIGESTS_STUB = """
import hashlib, sys
sys.path.insert(0, sys.argv.pop(1))
case = sys.argv.pop(1)
import csv_digests
pkg = csv_digests.perfbench.import_fednoise()
runs = []
def stub(cfg):
    runs.append(cfg)
    with open(cfg.output, "w") as fh:
        fh.write("stub")
pkg.bench.run_experiment = stub
env = csv_digests.perfbench.environment()
csv_digests.REFERENCE_NUMPY = "0" if case == "unknown" else env["numpy"]
csv_digests.REFERENCE_BLAS = env["blas"]
digest = "0" if case == "differ" else hashlib.sha256(b"stub").hexdigest()
csv_digests.REFERENCE_DIGESTS = dict.fromkeys(csv_digests.REFERENCE_DIGESTS, digest)
code = csv_digests.main()
print(f"runs {len(runs)}", file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("case, code, runs", [("pass", 0, 9), ("differ", 1, 9), ("unknown", 2, 0)])
def test_csv_digests_without_a_reader_still_checks_every_run(case, code, runs):
    # Standard output is a pipe with no reader, as under `| head -1` once
    # head has exited: the script prints nothing more, raises nothing, and
    # still runs every run and exits with the check's status.
    take, give = os.pipe()
    os.close(take)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _DIGESTS_STUB, os.path.join(REPO_ROOT, "scripts"), case, "--check"],
            stdout=give, stderr=subprocess.PIPE, text=True, cwd=REPO_ROOT,
        )
    finally:
        os.close(give)
    assert (proc.returncode, proc.stderr) == (code, f"runs {runs}\n")


def test_benchmark_tracer_self_checks_pass():
    # The tracer wraps functions by name and expects rounds from
    # select_clients to fedavg with local_update on the main thread; renaming
    # one of them, or moving local_update off that thread, fails its
    # self-checks. About 8 s on 2 CPUs.
    proc = subprocess.run(
        [
            sys.executable, os.path.join(REPO_ROOT, "perfbench", "run.py"),
            "--workload", "mnist784-proposed-pool2", "--seed", "3", "--seconds", "1",
            "--trace", "1",
        ],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout + proc.stderr


def test_benchmark_names_functions_of_the_package(monkeypatch):
    # The tracer times functions by name and drops a metric whose function
    # is gone without failing its self-checks, so every hooked name, the
    # run entry point and the function behind each metric of seconds (`_s`)
    # or calls (`_calls`) must be a function its layer defines. Three spans
    # are derived, not functions.
    monkeypatch.syspath_prepend(os.path.join(REPO_ROOT, "perfbench"))
    import run as perfbench
    import spans

    derived = {"localnode.local_update_self", "coordinator.client_phase", "coordinator.round_self"}
    timed = {
        metric.rsplit("_", 1)[0]
        for metric, unit in perfbench.PER_LAYER_UNITS.items()
        if metric.endswith("_s") and unit == "s" or metric.endswith("_calls")
    }
    for name in sorted(set(spans.HOOKS) | {"coordinator.run_training"} | timed - derived):
        layer, function = name.split(".")
        module = importlib.import_module(f"fednoise.{layer}")
        obj = getattr(module, function, None)
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, name


def test_benchmark_hooks_read_local_update_arguments_by_position():
    # The tracer's local_update hooks, and a test that stops a worker in
    # round 2, read global_params, global_centroids and round_t as
    # args[2], args[3] and args[4]. A reorder would misattribute rounds
    # and exchanged bytes without failing the tracer's self-checks.
    first = list(inspect.signature(local_update).parameters)[:5]
    assert first == ["dataset", "rows", "global_params", "global_centroids", "round_t"]
