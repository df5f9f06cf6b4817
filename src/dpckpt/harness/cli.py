"""Command-line entry point.

Each subcommand runs one family of tasks from a config file:

    dpckpt train      --config cfg --out dir     single training run
    dpckpt aggregate  --config cfg --out dir     aggregate_eval | pds_eval
    dpckpt uq         --config cfg --out dir     uq_compare
    dpckpt dpld-bias  --config cfg --out dir     dpld_bias
    dpckpt sweep      --config cfg --out dir     ema_sweep | k_sweep
    dpckpt report     --config cfg --out dir     risk_compare

Exit codes: 0 success, 2 config error, 3 numeric divergence, 4 I/O error.
"""

import argparse
import os
import sys

from ..errors import ConfigError, NumericDivergenceError
from .config import ConfigView, load_config
from .experiments import normalize_task, run_experiment

# the subcommand that runs each task
_SUBCOMMAND = {
    "train": "train",
    "aggregate_eval": "aggregate",
    "pds_eval": "aggregate",
    "uq_compare": "uq",
    "dpld_bias": "dpld-bias",
    "ema_sweep": "sweep",
    "k_sweep": "sweep",
    "risk_compare": "report",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpckpt",
        description="Differentially private training, checkpoint aggregation, "
        "and uncertainty experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in dict.fromkeys(_SUBCOMMAND.values()):
        tasks = [task for task, command in _SUBCOMMAND.items() if command == name]
        p = sub.add_parser(name, help=f"run a {' or '.join(tasks)} task")
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--out", default=None, help="output directory (overrides out_dir)")
        p.add_argument("--seed", type=int, default=0, help="master seed for derived run seeds")
        p.add_argument("--workers", type=int, default=None, help="parallel seed workers")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        view = ConfigView(load_config(args.config))
        # only the train subcommand may leave the task implied
        raw_task = view.raw("task", "train") if args.command == "train" else view.raw("task")
        task = normalize_task(raw_task)
        if task is None:
            raise ConfigError(f"unknown task {raw_task!r}", key="task")
        command = _SUBCOMMAND[task]
        if command != args.command:
            raise ConfigError(
                f"task {task!r} belongs to subcommand {command!r}, not {args.command!r}",
                key="task",
            )
        out_dir = args.out or view.get_str("out_dir", None)
        if not out_dir:
            raise ConfigError("no output directory: pass --out or set out_dir", key="out_dir")
        table = run_experiment(
            view, out_dir, master_seed=args.seed, workers=args.workers, task=task
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericDivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {len(table.rows)} rows to {os.path.join(out_dir, 'table.csv')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
