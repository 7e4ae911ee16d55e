"""Command-line interface: train, eval, benchmark and tune verbs over
LIBSVM-format data files.

Exit codes: 0 success, 1 data error, 2 usage error, 3 training divergence.
Flags override values from an optional key=value config file (--config),
whose entries are parsed as flags of the verb.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys

from . import bench
from .baselines import ALGORITHMS, unknown_algorithm_message
# the benchmark probe times the train verb's fit under the name cli.train
from .baselines import run_algorithm as train
from .data import BINARIZE_RULES, BinarizeRule, ParseError, load_libsvm
from .metrics import auc
from .objective import dataset_kappa
from .regularizers import PENALTIES, Regularizer
from .schedules import (SCHEDULES, FastRateSchedule, PracticalSchedule,
                        clamp_for_theory, fast_rate_t1, theory_cap)
from .trainer import (AVERAGES, DivergenceError, TrainConfig, describe_config,
                      load_model, save_model)

EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3

_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _algorithm(name: str) -> str:
    if name not in ALGORITHMS:
        raise argparse.ArgumentTypeError(unknown_algorithm_message(name))
    return name


def _algorithms(text: str) -> list[str]:
    return [_algorithm(a.strip()) for a in text.split(",") if a.strip()]


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None,
                   help="key=value file supplying flag defaults")
    p.add_argument("--data", required=True, help="LIBSVM-format data file")
    p.add_argument("--binarize", choices=BINARIZE_RULES,
                   default="identity", help="label binarization rule")
    p.add_argument("--threshold-label", type=int, default=None,
                   help="k for the threshold rule: label <= k maps to +1")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--reg", choices=PENALTIES, default="none")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="penalty weight for l2/l1 (refused with --reg none)")
    p.add_argument("--schedule", choices=list(SCHEDULES), default="practical")
    p.add_argument("--mu", type=float, default=None, help="practical schedule parameter")
    p.add_argument("--eta1", type=float, default=None, help="initial step size")
    p.add_argument("--theta", type=float, default=None, help="poly decay exponent in (1/2, 1]")
    p.add_argument("--beta", type=float, default=None, help="logdamped exponent > 2")
    p.add_argument("--sigma-phi", type=float, default=None,
                   help="quadratic growth modulus for the fastrate schedule")
    p.add_argument("--sigma-f", type=float, default=None,
                   help="growth not owed to the penalty; default sigma_phi - sigma_omega")
    p.add_argument("--t1", type=float, default=None,
                   help="fastrate warm-start offset; default planned from the horizon")
    p.add_argument("--clamp-theory", action="store_true",
                   help="cap the first step size at the theoretical bound")
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--average", choices=AVERAGES, default="last")
    p.add_argument("--eval-every", type=int, default=1000)


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="aucstream",
        description="Streaming AUC maximization with stochastic proximal methods")
    parser.add_argument("--config", default=None,
                        help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write traces")
    _add_data_flags(p_train)
    _add_train_flags(p_train)
    p_train.add_argument("--test", default=None, help="held-out LIBSVM file for trace AUC")
    p_train.add_argument("--out", default=None, help="model output path (JSON)")
    p_train.add_argument("--trace", default=None, help="trace CSV output path")
    p_train.add_argument("--trace-objective", action="store_true",
                         help="record the pairwise objective on a capped subsample")

    p_eval = sub.add_parser("eval", help="print the AUC of a saved model on a dataset")
    _add_data_flags(p_eval)
    p_eval.add_argument("--model", required=True)

    p_bench = sub.add_parser("benchmark", help="AUC-versus-time comparison with repeats")
    _add_data_flags(p_bench)
    p_bench.add_argument("--algos", type=_algorithms, default="spauc,spam,solam",
                         help="comma-separated algorithm names")
    p_bench.add_argument("--repeats", type=int, default=20)
    p_bench.add_argument("--epochs", type=int, default=15)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--reg", choices=PENALTIES, default="none")
    p_bench.add_argument("--lambda", dest="lam", type=float, default=None,
                         help="fixed penalty weight for l2/l1 (refused with --tune "
                              "or --reg none)")
    p_bench.add_argument("--mu", type=float, default=None,
                         help="fixed step parameter (refused with --tune)")
    p_bench.add_argument("--radius", type=float, default=TrainConfig.radius,
                         help="l2-ball radius for solam")
    p_bench.add_argument("--tune", action="store_true",
                         help="cross-validate parameters per repeat")
    p_bench.add_argument("--pairs", type=int, default=15,
                         help="grid points sampled without replacement when tuning")
    p_bench.add_argument("--folds", type=int, default=5)
    p_bench.add_argument("--test-fraction", type=float, default=0.2)
    p_bench.add_argument("--eval-every", type=int, default=1000)
    p_bench.add_argument("--outdir", default=None, help="directory for trace/report CSVs")

    p_tune = sub.add_parser("tune", help="cross-validated random grid search")
    _add_data_flags(p_tune)
    p_tune.add_argument("--algo", type=_algorithm, default="spauc")
    p_tune.add_argument("--reg", choices=PENALTIES, default="none")
    p_tune.add_argument("--pairs", type=int, default=15)
    p_tune.add_argument("--folds", type=int, default=5)
    p_tune.add_argument("--epochs", type=int, default=5)
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument("--out", default=None, help="CV table CSV output path")

    return parser, sub.choices  # verb -> its parser


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"config line is not key=value: {raw.strip()!r}")
            values[key.strip()] = value.strip()
    return values


def _with_config(argv: list[str], parser, commands) -> list[str]:
    """argv with each config-file entry made a flag of the verb, inserted
    right after the verb so explicit flags still win; argparse then checks
    the values. A key no verb defines is a usage error; a key only another
    verb defines is ignored."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, rest = pre.parse_known_args(argv)
    verb = next((i for i, a in enumerate(rest) if not a.startswith("-")), None)
    if known.config is None or verb is None or rest[verb] not in commands:
        return argv
    values = _load_config_file(known.config)
    # argparse has no public lookup of a parser's flags
    actions = commands[rest[verb]]._option_string_actions
    flags = []
    for key, text in values.items():
        flag = "--" + key.replace("_", "-")
        action = actions.get(flag)
        if action is None:
            if not any(flag in p._option_string_actions for p in commands.values()):
                parser.error(f"config key {key!r} is not a flag of any command")
        elif action.nargs != 0:
            flags.append(f"{flag}={text}")
        elif text.lower() in _TRUE:
            flags.append(flag)
        elif text.lower() not in _FALSE:
            parser.error(f"config key {key!r} takes true or false, got {text!r}")
    return rest[:verb + 1] + flags + rest[verb + 1:]


def _usage(parser, build, *args, **kwargs):
    """build(*args, **kwargs); the ValueError of a value the library refuses
    is a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _check_output(path: str | None, is_dir: bool = False) -> None:
    """Refuse, before any data is loaded, an output path (or output
    directory) whose directory does not exist: the write would fail only
    after the whole fit. An OSError, so exit 1, as for a missing input."""
    if path is None:
        return
    folder = path if is_dir else os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise FileNotFoundError(errno.ENOENT, "no such directory for output", path)


def _rule_from_args(args, parser) -> BinarizeRule:
    if args.binarize == "threshold" and args.threshold_label is None:
        parser.error("--binarize threshold requires --threshold-label")
    return BinarizeRule(args.binarize, args.threshold_label or 0)


def _check_lambda(args, parser) -> None:
    """Refuse --lambda without a penalty to weigh: it would be dropped."""
    if args.reg == "none" and args.lam is not None:
        parser.error("--lambda cannot be given with --reg none, which has no penalty")


def _reg_from_args(args, parser) -> Regularizer:
    _check_lambda(args, parser)
    if args.reg != "none" and args.lam is None:
        parser.error(f"--reg {args.reg} requires --lambda")
    return _usage(parser, Regularizer, args.reg, 0.0 if args.reg == "none" else args.lam)


def _schedule_from_args(args, parser, reg: Regularizer, data):
    """The schedule named by --schedule, built from the flags named after its
    fields; kappa, a pass over the data, is computed only when it is read."""
    cls = SCHEDULES[args.schedule]
    fields = dataclasses.fields(cls)
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    if any(getattr(args, name) is None for name in required):
        parser.error(f"--schedule {args.schedule} requires " + " and ".join(
            "--" + name.replace("_", "-") for name in required))
    params = {f.name: getattr(args, f.name) for f in fields}
    fastrate_t1 = cls is FastRateSchedule and args.t1 is None
    kappa = dataset_kappa(data) if fastrate_t1 or args.clamp_theory else None
    if cls is FastRateSchedule and args.sigma_f is None:
        params["sigma_f"] = max(args.sigma_phi - reg.sigma_omega, 0.0)
    if fastrate_t1:
        c1 = 1.0 / (2.0 * theory_cap(reg.a1, kappa))
        params["t1"] = _usage(parser, fast_rate_t1, c1, args.sigma_phi,
                              horizon=args.epochs * len(data))
    sched = _usage(parser, cls, **params)
    if args.clamp_theory:
        sched = clamp_for_theory(sched, reg.a1, kappa)
    return sched


def cmd_train(args, parser) -> int:
    rule = _rule_from_args(args, parser)
    reg = _reg_from_args(args, parser)
    # the run settings are checked before the load, under a stand-in
    # schedule: the real one may need the data's kappa
    config = _usage(parser, TrainConfig, regularizer=reg, schedule=PracticalSchedule(1.0),
                    epochs=args.epochs, seed=args.seed, average=args.average,
                    eval_every=args.eval_every)
    _check_output(args.out)
    _check_output(args.trace)
    data = load_libsvm(args.data, rule)
    test_data = load_libsvm(args.test, rule) if args.test else None
    config = dataclasses.replace(config, schedule=_schedule_from_args(args, parser, reg, data))
    objective_data = bench.objective_subsample(data, args.seed) \
        if args.trace_objective else None
    w, trace = train("spauc", data, config, test_data=test_data,
                     objective_data=objective_data)
    if args.out:
        save_model(args.out, w, describe_config(config))
    if args.trace:
        bench.write_trace(args.trace, trace)
    if test_data is not None:
        print(f"test AUC: {trace[-1].test_auc:.4f}")
    return 0


def cmd_eval(args, parser) -> int:
    rule = _rule_from_args(args, parser)
    w, _ = load_model(args.model)
    data = load_libsvm(args.data, rule)
    if data.dim > len(w):
        raise ValueError(
            f"data dimension {data.dim} exceeds model dimension {len(w)}")
    print(f"{auc(data.scores(w), data.labels):.4f}")
    return 0


def _practical_config(args, parser, params: dict, **fields) -> TrainConfig:
    """The config of a benchmark or tune run at the point `params` of the
    practical schedule: its mu, and its lambda unless --reg is none."""
    def build():
        lam = 0.0 if args.reg == "none" else params["lambda"]
        return TrainConfig(Regularizer(args.reg, lam), PracticalSchedule(params["mu"]),
                           epochs=args.epochs, seed=args.seed, **fields)
    return _usage(parser, build)


def cmd_benchmark(args, parser) -> int:
    rule = _rule_from_args(args, parser)
    for flag, value in (("--mu", args.mu), ("--lambda", args.lam)):
        if args.tune and value is not None:
            parser.error(f"{flag} cannot be given with --tune, which picks it per repeat")
    _check_lambda(args, parser)
    if args.reg != "none" and args.lam is None and not args.tune:
        parser.error(f"--reg {args.reg} requires --lambda (or --tune)")
    if not args.tune and args.mu is None:
        parser.error("benchmark needs either --mu or --tune")
    _usage(parser, bench.check_benchmark, args.algos, args.repeats, args.test_fraction)
    tune_grid = _usage(parser, bench.protocol_grid, args.reg, args.pairs, args.folds) \
        if args.tune else None
    params = tune_grid.points()[0] if args.tune else {"mu": args.mu, "lambda": args.lam}
    config = _practical_config(args, parser, params, eval_every=args.eval_every,
                               radius=args.radius)
    _check_output(args.outdir, is_dir=True)
    data = load_libsvm(args.data, rule)
    dataset_name = args.data.rsplit("/", 1)[-1].rsplit(".", 1)[0]

    rows, _ = bench.benchmark(data, dataset_name, args.algos, args.repeats, config,
                              tune_grid=tune_grid, test_fraction=args.test_fraction,
                              outdir=args.outdir)
    print(",".join(bench.REPORT_HEADER))
    for r in rows:
        print(f"{r.algo},{r.dataset},{r.auc_mean:.4f},{r.auc_std:.4f},"
              f"{r.time_per_pass_mean:.4f},{r.time_per_pass_std:.4f}")
    return 0


def cmd_tune(args, parser) -> int:
    rule = _rule_from_args(args, parser)
    # solam's radius is searched too, so no fixed radius is needed
    grid = _usage(parser, bench.protocol_grid, args.reg, args.pairs, args.folds,
                  tune_radius=args.algo == "solam")
    config = _practical_config(args, parser, grid.points()[0])
    _check_output(args.out)
    data = load_libsvm(args.data, rule)
    best, table = bench.tune(data, args.algo, grid, [config])[0]
    if args.out:
        bench.write_tune_table(args.out, table)
    print(" ".join(f"{k}={v!r}" for k, v in best.items()))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    try:
        # usage errors, from argparse or the handlers, exit through SystemExit
        args = parser.parse_args(_with_config(argv, parser, commands))
        handler = {"train": cmd_train, "eval": cmd_eval,
                   "benchmark": cmd_benchmark, "tune": cmd_tune}[args.command]
        return handler(args, parser)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
