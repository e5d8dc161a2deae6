"""Experiment harness: config files, CLI, CSV emission.

Config files are flat `key = value` lines with dotted section prefixes
(`noise.epsilon = 0.4`); `#` starts a comment. Every key can be
overridden on the command line with `--override key=value`, so a single
checked-in config plus a short command line fully determines a run.

`sweep` runs the product of its `--grid KEY[,KEY...]=V1,V2,...` axes:
each value is set on every key its axis names, by the typed path of
`--override`, and each cell's CSV is named by its axes' first keys.

Exit codes: 0 ok, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import itertools
import math
import os
import sys
import typing
from dataclasses import dataclass, field

from .coordinator import FederationConfig, run_training
from .datagen import Dataset, idx_header, load_idx, make_blob_split, partition_iid
from .errors import ConfigError, FednoiseError
from .localnode import HyperParams, METHODS
from .metrics import MetricsRecord, write_csv
from .noise import NoiseSpec, apply_noise
from .numkit import ModelParams

DATASET_KINDS = ("blobs", "idx")

SUMMARY_WINDOW = 10  # rounds averaged for the headline accuracy


@dataclass
class DatasetSpec:
    """Where training data comes from: synthetic blobs or IDX files."""

    kind: str = "blobs"
    # blobs
    classes: int = 4
    dim: int = 10
    train_per_class: int = 500
    test_per_class: int = 125
    spread: float = 0.7
    seed: int = 0
    # idx
    images: str = ""
    labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    subset: int = 0  # keep only the first n training examples (0 = all)

    def validate(self) -> None:
        if self.kind not in DATASET_KINDS:
            raise ConfigError(f"dataset.kind: must be one of {DATASET_KINDS}, got {self.kind!r}")
        if self.kind == "blobs":
            if self.classes < 2:
                raise ConfigError("dataset.classes: need at least 2")
            if self.dim < 1 or self.train_per_class < 1 or self.test_per_class < 1:
                raise ConfigError("dataset: dim and per-class sizes must be positive")
            if self.spread <= 0:
                raise ConfigError("dataset.spread: must be positive")
            if self.seed < 0:
                raise ConfigError("dataset.seed: must be >= 0")
        else:
            for key in ("images", "labels", "test_images", "test_labels"):
                if not getattr(self, key):
                    raise ConfigError(f"dataset.{key}: required when dataset.kind = idx")
            if self.subset < 0:
                raise ConfigError("dataset.subset: must be >= 0")


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    fed: FederationConfig = field(default_factory=FederationConfig)
    hp: HyperParams = field(default_factory=HyperParams)
    method: str = "proposed"
    seed: int = 0
    output: str = ""


def _config_keys(cls: type = ExperimentConfig, prefix: str = "") -> dict[str, type]:
    """The type of every config key, from the dataclass fields' types."""
    keys = {}
    for name, kind in typing.get_type_hints(cls).items():
        if dataclasses.is_dataclass(kind):
            keys.update(_config_keys(kind, f"{prefix}{name}."))
        else:
            keys[prefix + name] = kind
    return keys


# Top-level keys first, then each section's, in field order.
_CONFIG_KEYS = dict(sorted(_config_keys().items(), key=lambda item: "." in item[0]))


def _parse_value(raw: str, kind, key: str):
    """raw as a value of type kind: int, finite float, str, or one of
    those or None."""
    if type(None) in typing.get_args(kind):
        if raw.lower() in ("none", "null"):
            return None
        (kind,) = [k for k in typing.get_args(kind) if k is not type(None)]
    try:
        if kind in (int, float, str):
            value = kind(raw)
            if kind is float and not math.isfinite(value):
                raise ConfigError(f"{key}: must be finite, got {raw!r}")
            return value
    except ValueError:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {raw!r}") from None
    raise ConfigError(f"{key}: unsupported value type {kind!r}")


def _holder(cfg: ExperimentConfig, key: str) -> tuple[object, str]:
    """The object that holds a config key's value, and its field name there."""
    section, dot, name = key.partition(".")
    return (getattr(cfg, section), name) if dot else (cfg, key)


def apply_item(cfg: ExperimentConfig, key: str, raw: str) -> None:
    """Set one dotted config key, with type checking against the schema."""
    if key not in _CONFIG_KEYS:
        section, dot, _ = key.partition(".")
        if not dot:
            raise ConfigError(f"{key}: unknown top-level key")
        if not any(k.startswith(f"{section}.") for k in _CONFIG_KEYS):
            raise ConfigError(f"{key}: unknown section {section!r}")
        raise ConfigError(f"{key}: unknown key in section {section!r}")
    setattr(*_holder(cfg, key), _parse_value(raw, _CONFIG_KEYS[key], key))


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    items: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not eq or not key or not value:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw_line.strip()!r}")
        if key in items:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        items[key] = value
    return items


def load_config(path: str | None = None, overrides: list[str] = ()) -> ExperimentConfig:
    """Defaults, then config file, then `key=value` overrides, in that order."""
    cfg = ExperimentConfig()
    if path:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from e
        for key, value in parse_config_text(text, origin=path).items():
            apply_item(cfg, key, value)
    for ov in overrides:
        key, eq, value = ov.partition("=")
        if not eq or not key.strip():
            raise ConfigError(f"--override: expected key=value, got {ov!r}")
        apply_item(cfg, key.strip(), value.strip())
    return cfg


def resolve_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """The one judge of a config: a validated deep copy with tau filled in.
    Across sections, no more clients than the training rows (the blobs,
    the IDX subset, then the IDX training images), and an output that is
    not a directory, in one that exists, with a file name no longer than
    that directory's file system allows. The headers of the IDX files are
    read last (idx_header), so a missing or malformed file raises OSError
    or FormatError only once the config itself passes; the images must
    then have pixels, and the test images be at least one, of the
    training images' size."""
    out = copy.deepcopy(cfg)
    out.dataset.validate()
    out.noise.validate()
    out.fed.validate()
    spec = out.dataset
    rows = spec.classes * spec.train_per_class if spec.kind == "blobs" else spec.subset
    if rows and out.fed.num_clients > rows:
        raise ConfigError(f"fed.num_clients: {out.fed.num_clients} > {rows} training rows")
    if out.hp.tau is None:
        out.hp.tau = out.noise.epsilon
    out.hp.validate()
    if out.method not in METHODS:
        raise ConfigError(f"method: must be one of {METHODS}, got {out.method!r}")
    if out.seed < 0:
        raise ConfigError("seed: must be >= 0")
    if out.output:
        directory, name = os.path.split(out.output)
        if os.path.isdir(out.output):
            raise ConfigError(f"output: {out.output!r} is a directory")
        if not os.path.isdir(directory or "."):
            raise ConfigError(f"output: the directory of {out.output!r} does not exist")
        limit = os.pathconf(directory or ".", "PC_NAME_MAX") if hasattr(os, "pathconf") else 0
        if 0 < limit < len(os.fsencode(name)):
            raise ConfigError(f"output: the file name {name!r} is longer than the file system's {limit} bytes")
    if spec.kind == "idx":
        rows, *size = idx_header(spec.images, spec.labels)
        test_rows, *test_size = idx_header(spec.test_images, spec.test_labels)
        if out.fed.num_clients > rows:
            raise ConfigError(f"fed.num_clients: {out.fed.num_clients} > {rows} training rows")
        if not all(size):
            raise ConfigError(f"dataset.images: images of {size[0]} x {size[1]} pixels")
        if not test_rows:
            raise ConfigError("dataset.test_images: no images")
        if test_size != size:
            raise ConfigError(
                f"dataset.test_images: images of {test_size[0]} x {test_size[1]}, "
                f"not the training images' {size[0]} x {size[1]}"
            )
    return out


def _format_value(cfg: ExperimentConfig, key: str) -> str:
    value = getattr(*_holder(cfg, key))
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_items(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    """All config keys with their current values, in stable order."""
    return [(key, _format_value(cfg, key)) for key in _CONFIG_KEYS]


def build_datasets(spec: DatasetSpec) -> tuple[Dataset, Dataset]:
    """(train, test) pair per the validated dataset spec, each array
    written once; given labels still clean."""
    spec.validate()
    if spec.kind == "blobs":
        return make_blob_split(
            C=spec.classes,
            train_per_class=spec.train_per_class,
            test_per_class=spec.test_per_class,
            d_in=spec.dim,
            spread=spec.spread,
            seed=spec.seed,
        )
    train = load_idx(spec.images, spec.labels, keep=spec.subset)
    test = load_idx(spec.test_images, spec.test_labels)
    C = max(train.C, test.C)
    train.C = C
    test.C = C
    return train, test


def run_experiment(cfg: ExperimentConfig) -> tuple[ModelParams, list[MetricsRecord]]:
    """Wire data generation, corruption, and training; write the CSV if
    asked. Only wiring: resolve_config judges the config before set-up."""
    rcfg = resolve_config(cfg)
    train, test = build_datasets(rcfg.dataset)
    shards = partition_iid(train, rcfg.fed.num_clients, rcfg.seed)
    apply_noise(train, shards, rcfg.noise)
    params, records = run_training(
        train, test, shards, rcfg.fed, rcfg.hp, rcfg.seed, method=rcfg.method
    )
    if rcfg.output:
        write_csv(rcfg.output, records)
    return params, records


def summary_accuracy(records: list[MetricsRecord]) -> float:
    """Mean test accuracy over the last SUMMARY_WINDOW rounds (all, if fewer)."""
    if not records:
        return math.nan
    tail = records[-SUMMARY_WINDOW:]
    return sum(r.test_accuracy for r in tail) / len(tail)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to the config-error code."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fednoise", description="Federated noisy-label training bench.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("--config", help="config file of key = value lines")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="set one config key; repeatable, applied after the file",
        )

    p_run = sub.add_parser("run", help="run one experiment")
    add_common(p_run)
    p_run.add_argument("--method", choices=METHODS, help="shortcut for --override method=...")
    p_run.add_argument("--seed", type=int, help="shortcut for --override seed=...")
    p_run.add_argument("--output", help="shortcut for --override output=...")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="one run per cell of a grid over config keys")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--grid", action="append", required=True, help="an axis KEY[,KEY...]=V1,V2,...; repeatable"
    )
    p_sweep.add_argument("--output-dir", default=".", help="directory for per-cell CSVs")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate-config", help="parse, validate, and echo the config")
    add_common(p_val)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def _run_and_report(cfg: ExperimentConfig, keys: list[str]) -> None:
    """Run cfg, then print the keys, the rounds, the numbers if any, the CSV."""
    _, records = run_experiment(cfg)
    line = " ".join(f"{key}={_format_value(cfg, key)}" for key in keys) + f" rounds={len(records)}"
    if records:
        line += (
            f" acc_last10={summary_accuracy(records):.4f} acc_final={records[-1].test_accuracy:.4f}"
            f" wdiv_final={records[-1].weight_divergence:.5f}"
        )
    print(f"{line} csv={cfg.output}" if cfg.output else line)


def _cmd_run(args) -> int:
    sugar = {"method": args.method, "seed": args.seed, "output": args.output}
    extra = [f"{key}={value}" for key, value in sugar.items() if value is not None]
    _run_and_report(load_config(args.config, extra + list(args.override)), ["method"])
    return 0


def _cmd_sweep(args) -> int:
    axes, set_by = [], {"output": "sweep"}  # each --grid's (keys, values)
    for item in args.grid:
        names, eq, raw = item.partition("=")
        keys, values = names.split(","), raw.split(",")
        if not eq or "" in keys + values:
            raise ConfigError(f"--grid {item!r}: expected KEY[,KEY...]=V1,V2,..., none empty")
        for key in keys:
            if key in set_by:
                raise ConfigError(f"--grid {item!r}: {key} is already set by {set_by[key]}")
            set_by[key] = f"--grid {item!r}"
        axes.append((keys, values))
    base = load_config(args.config, list(args.override))
    # With the directory made, every cell (its CSV path too) is checked as
    # run checks it before the first runs; no two cells may share a CSV.
    try:
        os.makedirs(args.output_dir, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"--output-dir: cannot create {args.output_dir!r}: {e.strerror}") from e
    shown = [keys[0] for keys, _ in axes]
    cells = {}
    for cell in itertools.product(*(values for _, values in axes)):
        for (keys, _), value in zip(axes, cell):
            for key in keys:
                apply_item(base, key, value)
        # % and / in a value become %25 and %2F: each cell's CSV lies in --output-dir.
        escaped = [_format_value(base, key).replace("%", "%25").replace("/", "%2F") for key in shown]
        name = "_".join(f"{key}={value}" for key, value in zip(shown, escaped))
        base.output = os.path.join(args.output_dir, f"{name}.csv")
        if base.output in cells:
            raise ConfigError(f"two sweep cells would write {base.output}")
        cells[base.output] = resolve_config(base)  # a checked deep copy
    for cfg in cells.values():
        _run_and_report(cfg, shown)
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config, list(args.override))
    resolved = resolve_config(cfg)
    for key, value in config_items(resolved):
        print(f"{key} = {value}")
    print("ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"fednoise: config error: {e}", file=sys.stderr)
        return 1
    except (FednoiseError, OSError) as e:
        print(f"fednoise: error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"fednoise: error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
