"""Command-line interface: prepare datasets, train, evaluate, report.

Exit codes: 0 success, 2 configuration or parse error, 3 I/O error,
4 numerical failure. `train` prints a parse-stable metric line
`avg_acc=<float> bwt=<float|null>` on success.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys

import numpy as np

from . import __version__, dataset, evaluation
from .container import ContainerError, atomic_open
from .dataset import FeatureTableError, IdxFormatError
from .trainer import MODES, ConfigError, Model, RunConfig, config_field_types, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

PROTOCOL_RE = re.compile(r"^(?P<kind>[ps])(?P<base>[a-z0-9]+)-(?P<c>[1-9]\d*)x(?P<v>[1-9]\d*)$")
IDX_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}
MODE_ALIASES = {m.split("_")[0]: m for m in MODES}
REPORT_KEYS = ("protocol.name", "config.mode", "metrics.avg_acc", "metrics.bwt")
BOOL_WORDS = {"true": True, "1": True, "false": False, "0": False}


def cache_root() -> str:
    return os.environ.get("MVCIL_CACHE_DIR", ".")


def _metric_line(avg: float, bwt_value: float | None) -> str:
    bwt_str = "null" if bwt_value is None else f"{bwt_value:.6f}"
    return f"avg_acc={avg:.6f} bwt={bwt_str}"


def parse_overrides(pairs: list[str]) -> dict:
    """Parse --set key=value pairs against the config schema; raises
    ConfigError before any work starts."""
    types = config_field_types()
    out: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not key=value")
        key, _, raw = pair.partition("=")
        key = key.strip()
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        typ = types[key]
        try:
            value = BOOL_WORDS[raw.lower()] if typ is bool else typ(raw)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"cannot parse {raw!r} as {typ.__name__} for {key!r}") from exc
        out[key] = value
    return out


def build_config(config_path: str | None, overrides: list[str],
                 mode: str | None = None, seed: int | None = None) -> RunConfig:
    raw: dict = {}
    if config_path:
        with open(config_path) as f:
            raw = json.load(f)
        if not isinstance(raw, dict):
            raise ConfigError(f"{config_path!r} must contain a JSON object")
    flat = parse_overrides(overrides)
    if mode is not None:
        flat["mode"] = MODE_ALIASES.get(mode, mode)
    if seed is not None:
        flat["seed"] = seed
    for key, value in flat.items():
        section, _, name = key.rpartition(".")
        target = raw.setdefault(section, {}) if section else raw
        if not isinstance(target, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        target[name] = value
    return RunConfig.from_dict(raw)


def parse_heldout(spec: str | None) -> dict[int, list[int]] | None:
    if not spec:
        return None
    held: dict[int, list[int]] = {}
    for item in spec.split(","):
        if ":" not in item:
            raise ConfigError(f"held-out entry {item!r} is not class:view")
        cls, _, view = item.partition(":")
        try:
            held.setdefault(int(cls), []).append(int(view))
        except ValueError as exc:
            raise ConfigError(f"held-out entry {item!r} is not numeric") from exc
    return held


def cmd_prepare(args: argparse.Namespace) -> int:
    config = build_config(args.config, args.set)
    heldout = parse_heldout(args.heldout)
    name = args.protocol
    if args.features:
        if not args.labels_file:
            raise ConfigError("--features requires --labels-file")
        data = dataset.load_feature_views(args.features, args.labels_file,
                                          train_fraction=args.train_fraction,
                                          seed=args.seed)
    else:
        m = PROTOCOL_RE.match(args.protocol)
        if not m:
            raise ConfigError(
                f"protocol {args.protocol!r} does not match (p|s)<base>-<classes>x<views>"
            )
        if not args.source_dir:
            raise ConfigError(f"protocol {args.protocol!r} requires --source-dir")
        num_classes, num_views = int(m.group("c")), int(m.group("v"))
        paths = {k: os.path.join(args.source_dir, v) for k, v in IDX_FILES.items()}
        for p in paths.values():
            if not os.path.exists(p):
                raise FileNotFoundError(p)
        train_X, train_y = dataset.load_idx(paths["train_images"], paths["train_labels"])
        test_X, test_y = dataset.load_idx(paths["test_images"], paths["test_labels"])
        base = dataset.split_by_class(
            train_X, train_y, test_X, test_y, num_classes,
            max_train_per_class=args.max_train_per_class,
            max_test_per_class=args.max_test_per_class,
        )
        if m.group("kind") == "p":
            data = dataset.make_permuted_views(base, num_views, args.seed)
        else:
            data = dataset.make_synthesized_views(base, num_views, config.encoder, args.seed)
    if args.zscore:
        data = dataset.zscore_views(data)
    protocol = dataset.make_protocol(name, data.num_classes, data.views_per_class, args.seed,
                                     heldout_views=heldout)
    out = args.out or f"{name}-seed{args.seed}.mvcl"
    if not os.path.isabs(out) and os.sep not in out:
        out = os.path.join(cache_root(), out)
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    dataset.save_split(out, data, protocol)
    sha = hashlib.sha256()
    with open(out, "rb") as f:
        # 1 MiB chunks: the cache is never held whole just to hash it
        while chunk := f.read(1 << 20):
            sha.update(chunk)
    digest = sha.hexdigest()
    with atomic_open(out + ".sha256") as f:
        f.write(f"{digest}  {os.path.basename(out)}\n")
    print(f"cache={out} sha256={digest}")
    return EXIT_OK


def _resolve_cache(path: str) -> str:
    if os.path.exists(path):
        return path
    candidate = os.path.join(cache_root(), path)
    if os.path.exists(candidate):
        return candidate
    raise FileNotFoundError(path)


def cmd_train(args: argparse.Namespace) -> int:
    config = build_config(args.config, args.set, mode=args.mode, seed=args.seed)
    data, protocol, _ = dataset.load_split(_resolve_cache(args.cache))
    if protocol is None:
        raise ConfigError(f"cache {args.cache!r} does not embed a protocol")
    result = run(config, data, protocol, out_dir=args.out)
    print(_metric_line(result.avg_acc, result.bwt))
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    if not (args.run or args.checkpoint):
        raise ConfigError("eval needs --run or --checkpoint")
    checkpoint = args.checkpoint or os.path.join(args.run, "checkpoint.mvcl")
    model = Model.load_checkpoint(checkpoint)
    data, _, _ = dataset.load_split(_resolve_cache(args.cache))
    row = evaluation.evaluate_classes(model, data.test, model.slot_to_class)
    untested = [c for c, acc in zip(model.slot_to_class, row) if np.isnan(acc)]
    if untested:
        raise ConfigError(f"cache {args.cache!r} has no test samples for classes {untested}")
    avg = float(np.mean(row))
    bwt_value = None
    report_path = args.run and os.path.join(args.run, "report.csv")
    if report_path and os.path.exists(report_path):
        matrix = evaluation.parse_report(report_path)
        if np.all(np.diag(matrix.mask)):
            # score the fresh row against the report's just-learned diagonal
            for c, acc in enumerate(row[: matrix.num_classes]):
                matrix.set_cell(matrix.num_classes - 1, c, acc)
            bwt_value = evaluation.bwt(matrix)
    print(_metric_line(avg, bwt_value))
    return EXIT_OK


def _report_fields(path: str) -> list:
    """What `report` prints of a run manifest: protocol name, mode, avg_acc
    and bwt, in that order."""
    with open(path) as f:
        manifest = json.load(f)
    fields = []
    for key in REPORT_KEYS:
        value = manifest
        for part in key.split("."):
            if not isinstance(value, dict) or part not in value:
                raise ConfigError(f"manifest {path!r} has no {key}")
            value = value[part]
        fields.append(value)
    for key, value in zip(REPORT_KEYS[2:], fields[2:]):
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not numeric and not (key == "metrics.bwt" and value is None):
            raise ConfigError(f"manifest {path!r} has a non-numeric {key}: {value!r}")
    return fields


def cmd_report(args: argparse.Namespace) -> int:
    rows = [_report_fields(os.path.join(run_dir, "manifest.json")) for run_dir in args.runs]
    protocols = {protocol for protocol, *_ in rows}
    if len(protocols) > 1:
        raise ConfigError(
            f"refusing to aggregate mixed protocols: {sorted(protocols)}"
        )
    groups: dict[str, list[tuple]] = {}
    for _, mode, avg, bwt_value in rows:
        groups.setdefault(mode, []).append((avg, bwt_value))
    header = f"{'mode':<16} {'runs':>4} {'avg_acc':>16} {'bwt':>16}"
    print(f"protocol: {protocols.pop()}")
    print(header)
    print("-" * len(header))
    csv_lines = ["mode,runs,avg_acc_mean,avg_acc_std,bwt_mean,bwt_std"]
    for mode in sorted(groups):
        accs = np.array([avg for avg, _ in groups[mode]])
        bwts = [b for _, b in groups[mode] if b is not None]
        acc_m, acc_s = float(accs.mean()), float(accs.std())
        if bwts:
            bwt_m, bwt_s = float(np.mean(bwts)), float(np.std(bwts))
            bwt_cell = f"{bwt_m:+.4f}±{bwt_s:.4f}"
            bwt_csv = f"{bwt_m:.6f},{bwt_s:.6f}"
        else:
            bwt_cell, bwt_csv = "null", ","
        print(f"{mode:<16} {len(accs):>4} {acc_m:>9.4f}±{acc_s:.4f} {bwt_cell:>16}")
        csv_lines.append(f"{mode},{len(accs)},{acc_m:.6f},{acc_s:.6f},{bwt_csv}")
    if args.csv:
        with atomic_open(args.csv) as f:
            f.write("\n".join(csv_lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvcil",
                                     description="Multi-view class-incremental learning")
    parser.add_argument("--version", action="version", version=f"mvcil {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="build a view-protocol dataset cache")
    p.add_argument("--protocol", required=True,
                   help="name like pmnist-10x3 (p=permuted, s=synthesized) or free-form "
                        "with --features")
    p.add_argument("--source-dir", help="directory with the four IDX files")
    p.add_argument("--features", nargs="+", help="per-view feature table files")
    p.add_argument("--labels-file", help="labels for --features tables")
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-train-per-class", type=int)
    p.add_argument("--max-test-per-class", type=int)
    p.add_argument("--zscore", action="store_true", help="per-view z-score normalization")
    p.add_argument("--heldout", help="held-out (class:view) pairs, e.g. '0:2,4:1'")
    p.add_argument("--config", help="JSON config (encoder section used for synthesis)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--out", help="cache path (default under MVCIL_CACHE_DIR)")
    p.set_defaults(func=cmd_prepare)

    t = sub.add_parser("train", help="run the stream and print final metrics")
    t.add_argument("--cache", required=True, help="dataset cache from prepare")
    t.add_argument("--out", help="run directory for manifest/checkpoint/report")
    t.add_argument("--config", help="JSON run config")
    t.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    t.add_argument("--mode", choices=sorted(set(MODE_ALIASES) | set(MODE_ALIASES.values())))
    t.add_argument("--seed", type=int)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="re-evaluate a checkpoint on a cache")
    e.add_argument("--run", help="run directory (checkpoint.mvcl inside)")
    e.add_argument("--checkpoint", help="explicit checkpoint path")
    e.add_argument("--cache", required=True)
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("report", help="aggregate mean±std across run directories")
    r.add_argument("runs", nargs="+", help="run directories with manifest.json")
    r.add_argument("--csv", help="also write the aggregate table as CSV")
    r.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, IdxFormatError, FeatureTableError, ContainerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
