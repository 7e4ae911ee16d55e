"""Command-line interface: train, eval, benchmark and tune verbs over
LIBSVM-format data files.

Exit codes: 0 success, 1 data error, 2 usage error, 3 training divergence.
Flags override values from an optional key=value config file (--config).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench
from .baselines import ALGORITHMS
from .data import BinarizeRule, ParseError, load_libsvm
from .metrics import auc
from .objective import dataset_kappa
from .regularizers import Regularizer, l1, l2, none_reg
from .schedules import (FastRateSchedule, LogDampedSchedule, PolySchedule,
                        PracticalSchedule, clamp_for_theory, fast_rate_t1,
                        theory_cap)
from .trainer import (DivergenceError, TrainConfig, describe_config,
                      load_model, save_model, train)

EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None,
                   help="key=value file supplying flag defaults")
    p.add_argument("--data", required=True, help="LIBSVM-format data file")
    p.add_argument("--binarize", choices=["identity", "zero_one", "threshold"],
                   default="identity", help="label binarization rule")
    p.add_argument("--threshold-label", type=int, default=None,
                   help="k for the threshold rule: label <= k maps to +1")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--reg", choices=["none", "l2", "l1"], default="none")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="penalty weight for l2/l1")
    p.add_argument("--schedule", choices=["poly", "logdamped", "fastrate", "practical"],
                   default="practical")
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
    p.add_argument("--average", choices=["last", "avg1", "avg2"], default="last")
    p.add_argument("--eval-every", type=int, default=1000)


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="aucstream",
        description="Streaming AUC maximization with stochastic proximal methods")
    parser.add_argument("--config", default=None,
                        help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p_train = sub.add_parser("train", help="train a model and write traces")
    _add_data_flags(p_train)
    _add_train_flags(p_train)
    p_train.add_argument("--test", default=None, help="held-out LIBSVM file for trace AUC")
    p_train.add_argument("--out", default=None, help="model output path (JSON)")
    p_train.add_argument("--trace", default=None, help="trace CSV output path")
    p_train.add_argument("--trace-objective", action="store_true",
                         help="record the pairwise objective on a capped subsample")
    commands["train"] = p_train

    p_eval = sub.add_parser("eval", help="print the AUC of a saved model on a dataset")
    _add_data_flags(p_eval)
    p_eval.add_argument("--model", required=True)
    commands["eval"] = p_eval

    p_bench = sub.add_parser("benchmark", help="AUC-versus-time comparison with repeats")
    _add_data_flags(p_bench)
    p_bench.add_argument("--algos", default="spauc,spam,solam",
                         help="comma-separated algorithm names")
    p_bench.add_argument("--repeats", type=int, default=20)
    p_bench.add_argument("--epochs", type=int, default=15)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--reg", choices=["none", "l2", "l1"], default="none")
    p_bench.add_argument("--lambda", dest="lam", type=float, default=None)
    p_bench.add_argument("--mu", type=float, default=None,
                         help="fixed step parameter (omit with --tune)")
    p_bench.add_argument("--radius", type=float, default=100.0,
                         help="l2-ball radius for solam")
    p_bench.add_argument("--tune", action="store_true",
                         help="cross-validate parameters per repeat")
    p_bench.add_argument("--pairs", type=int, default=15,
                         help="grid points sampled without replacement when tuning")
    p_bench.add_argument("--folds", type=int, default=5)
    p_bench.add_argument("--test-fraction", type=float, default=0.2)
    p_bench.add_argument("--eval-every", type=int, default=1000)
    p_bench.add_argument("--outdir", default=None, help="directory for trace/report CSVs")
    commands["benchmark"] = p_bench

    p_tune = sub.add_parser("tune", help="cross-validated random grid search")
    _add_data_flags(p_tune)
    p_tune.add_argument("--algo", default="spauc")
    p_tune.add_argument("--reg", choices=["none", "l2", "l1"], default="none")
    p_tune.add_argument("--pairs", type=int, default=15)
    p_tune.add_argument("--folds", type=int, default=5)
    p_tune.add_argument("--epochs", type=int, default=5)
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument("--radius", type=float, default=100.0)
    p_tune.add_argument("--out", default=None, help="CV table CSV output path")
    commands["tune"] = p_tune

    return parser, commands


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
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config_defaults(argv, parser, commands) -> None:
    """Push config-file values in as subcommand defaults so explicit flags win."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, rest = pre.parse_known_args(argv)
    if known.config is None:
        return
    values = _load_config_file(known.config)
    command = next((a for a in rest if not a.startswith("-")), None)
    if command not in commands:
        return
    sub = commands[command]
    dests = {action.dest: action for action in sub._actions}
    typed = {}
    for key, text in values.items():
        if key == "lambda":
            key = "lam"
        if key not in dests:
            continue
        action = dests[key]
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            typed[key] = text.lower() in ("1", "true", "yes", "on")
        elif action.type is not None:
            typed[key] = action.type(text)
        else:
            typed[key] = text
    sub.set_defaults(**typed)


def _rule_from_args(args, parser) -> BinarizeRule:
    if args.binarize == "threshold":
        if args.threshold_label is None:
            parser.error("--binarize threshold requires --threshold-label")
        return BinarizeRule.threshold(args.threshold_label)
    if args.binarize == "zero_one":
        return BinarizeRule.zero_one()
    return BinarizeRule.identity()


def _reg_from_args(args, parser) -> Regularizer:
    if args.reg == "none":
        return none_reg()
    if args.lam is None:
        parser.error(f"--reg {args.reg} requires --lambda")
    return l2(args.lam) if args.reg == "l2" else l1(args.lam)


def _schedule_from_args(args, parser, reg: Regularizer, n_train: int, kappa: float):
    if args.schedule == "practical":
        if args.mu is None:
            parser.error("--schedule practical requires --mu")
        sched = PracticalSchedule(mu=args.mu)
    elif args.schedule == "poly":
        if args.eta1 is None or args.theta is None:
            parser.error("--schedule poly requires --eta1 and --theta")
        sched = PolySchedule(eta1=args.eta1, theta=args.theta)
    elif args.schedule == "logdamped":
        if args.eta1 is None or args.beta is None:
            parser.error("--schedule logdamped requires --eta1 and --beta")
        sched = LogDampedSchedule(eta1=args.eta1, beta=args.beta)
    else:
        if args.sigma_phi is None:
            parser.error("--schedule fastrate requires --sigma-phi")
        sigma_f = args.sigma_f
        if sigma_f is None:
            sigma_f = max(args.sigma_phi - reg.sigma_omega, 0.0)
        t1 = args.t1
        if t1 is None:
            c1 = 1.0 / (2.0 * theory_cap(reg.a1, kappa))
            t1 = fast_rate_t1(c1, args.sigma_phi, horizon=args.epochs * n_train)
        sched = FastRateSchedule(sigma_phi=args.sigma_phi, sigma_f=sigma_f, t1=t1)
    if args.clamp_theory:
        sched = clamp_for_theory(sched, reg.a1, kappa)
    return sched


def cmd_train(args, parser) -> int:
    rule = _rule_from_args(args, parser)
    reg = _reg_from_args(args, parser)
    data = load_libsvm(args.data, rule)
    test_data = load_libsvm(args.test, rule) if args.test else None
    schedule = _schedule_from_args(args, parser, reg, len(data), dataset_kappa(data))
    config = TrainConfig(regularizer=reg, schedule=schedule, epochs=args.epochs,
                         seed=args.seed, average=args.average,
                         eval_every=args.eval_every)
    objective_data = bench.objective_subsample(data, args.seed) \
        if args.trace_objective else None
    w, trace = train(data, config, test_data=test_data, objective_data=objective_data)
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


def cmd_benchmark(args, parser) -> int:
    rule = _rule_from_args(args, parser)
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for a in algos:
        if a not in ALGORITHMS:
            from .baselines import unknown_algorithm_message
            parser.error(unknown_algorithm_message(a))
    if args.reg != "none" and args.lam is None and not args.tune:
        parser.error(f"--reg {args.reg} requires --lambda (or --tune)")
    if not args.tune and args.mu is None:
        parser.error("benchmark needs either --mu or --tune")
    data = load_libsvm(args.data, rule)
    dataset_name = args.data.rsplit("/", 1)[-1].rsplit(".", 1)[0]

    tune_grid = None
    fixed_params = None
    if args.tune:
        params = {"mu": list(bench.DEFAULT_MU_GRID)}
        if args.reg != "none":
            params["lambda"] = list(bench.DEFAULT_LAMBDA_GRID)
        size = int(np.prod([len(v) for v in params.values()]))
        tune_grid = bench.TuneGrid(params=params,
                                   pair_sample_size=min(args.pairs, size),
                                   folds=args.folds)
    else:
        fixed_params = {"mu": args.mu}
        if args.reg != "none":
            fixed_params["lambda"] = args.lam

    rows, _ = bench.benchmark(
        data, dataset_name, algos, repeats=args.repeats, base_seed=args.seed,
        epochs=args.epochs, reg_kind=args.reg,
        fixed_params=fixed_params, tune_grid=tune_grid,
        test_fraction=args.test_fraction, eval_every=args.eval_every,
        radius=args.radius, outdir=args.outdir)
    print(",".join(bench.REPORT_HEADER))
    for r in rows:
        print(f"{r.algo},{r.dataset},{r.auc_mean:.4f},{r.auc_std:.4f},"
              f"{r.time_per_pass_mean:.4f},{r.time_per_pass_std:.4f}")
    return 0


def cmd_tune(args, parser) -> int:
    rule = _rule_from_args(args, parser)
    if args.algo not in ALGORITHMS:
        from .baselines import unknown_algorithm_message
        parser.error(unknown_algorithm_message(args.algo))
    data = load_libsvm(args.data, rule)
    params = {"mu": list(bench.DEFAULT_MU_GRID)}
    if args.reg != "none":
        params["lambda"] = list(bench.DEFAULT_LAMBDA_GRID)
    if args.algo == "solam":
        params["radius"] = list(bench.DEFAULT_RADIUS_GRID)
    size = int(np.prod([len(v) for v in params.values()]))
    grid = bench.TuneGrid(params=params, pair_sample_size=min(args.pairs, size),
                          folds=args.folds)
    best, table = bench.tune(data, args.algo, grid, args.reg, args.seed,
                             args.epochs, radius=args.radius)
    if args.out:
        bench.write_tune_table(args.out, table)
    print(" ".join(f"{k}={v!r}" for k, v in best.items()))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    try:
        _apply_config_defaults(argv, parser, commands)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    args = parser.parse_args(argv)
    handler = {"train": cmd_train, "eval": cmd_eval,
               "benchmark": cmd_benchmark, "tune": cmd_tune}[args.command]
    try:
        return handler(args, parser)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
