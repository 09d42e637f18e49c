"""Command line interface.

Machine-readable JSON goes to stdout, human diagnostics to stderr. Exit codes:
0 success, 1 domain error (well-formed input, inadmissible computation),
2 usage or input error. Errors are reported as a single-line JSON object
{"error": {"kind": ..., "message": ...}} on stdout. All randomness flows from
explicit --seed flags; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path as FsPath

from . import __version__
from .cohort import (
    check_draw,
    default_profile,
    feature_columns,
    generate_cohort,
    load_cohort_csv,
    load_profile,
    planted_profile,
    report_to_dict,
    summarize,
    write_cohort_csv,
)
from .errors import InputError, ToolError
from .feedback import load_metrics, save_history
from .graph import load_graph, weighted_centrality
from .jsonio import dumps
from .markov import build_transition_matrix, load_counts, stationary_distribution, step_distribution
from .prepare import apply_stats, preprocess
from .scenario import allocation_stage, feedback_stage, path_stage, run_scenario, validate_stage
from .search import GridSpec, grid_search_cv, save_cv_table
from .tree import feature_importance, load_model, predict_many, save_model


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors as the machine-readable object.

    A token that float() reads, such as -1e5 or -inf, is a value, never an
    option: argparse alone takes a token that starts with '-' for a value only
    when it is digits with at most one point, so -1e5 would be a usage error
    while -100000.0 reached the command's own checks.
    """

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None

    def error(self, message):
        _emit_error("UsageError", message)
        self.print_usage(sys.stderr)
        raise SystemExit(2)


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": {"kind": kind, "message": message}}))
    print(f"error [{kind}]: {message}", file=sys.stderr)


def _emit(payload) -> None:
    """Print a command's result: a dict through the writer, or a command's
    already encoded text as it is."""
    sys.stdout.write(payload if isinstance(payload, str) else dumps(payload) + "\n")


def _predictions_text(accuracy, n: int, student_ids, predictions) -> str:
    """The predict result as _emit would print it, each row of the fixed
    shape {"prediction": int, "student_id": str} formatted directly: the
    text up to the id, one string per distinct prediction, then the id."""
    head = dumps({"accuracy": accuracy, "n": n})[: -len("\n}")]
    prefix = {p: f'\n    {{\n      "prediction": {int(p)},\n      "student_id": ' for p in set(predictions)}
    rows = "\n    },".join(
        map(str.__add__, map(prefix.__getitem__, predictions), map(encode_basestring_ascii, student_ids))
    )
    body = f"[{rows}\n    }}\n  ]" if rows else "[]"
    return f'{head},\n  "predictions": {body}\n}}\n'


# the most values one LO:HI grid flag may name; checked before the range is built
MAX_RANGE_VALUES = 1000
# the most configurations a train grid may name (the default grid names 260);
# checked before any configuration is built or any data is read
MAX_GRID_CONFIGS = 10_000


def _parse_range(text: str, flag: str) -> tuple[int, ...]:
    """'3:15' -> 3..15 inclusive, '7' -> (7,)."""
    try:
        if ":" in text:
            lo_text, hi_text = text.split(":", 1)
            lo, hi = int(lo_text), int(hi_text)
            if lo > hi:
                raise ValueError
        else:
            lo = hi = int(text)
    except ValueError:
        raise InputError(f"{flag} expects N or LO:HI, got {text!r}") from None
    if hi - lo + 1 > MAX_RANGE_VALUES:
        raise InputError(
            f"{flag} {text!r} names {hi - lo + 1} values, more than the cap of {MAX_RANGE_VALUES}"
        )
    return tuple(range(lo, hi + 1))


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise InputError(f"--seed must be >= 0, got {seed}")


def _parse_criteria(text: str) -> tuple[str, ...]:
    names = tuple(dict.fromkeys(part.strip() for part in text.split(",") if part.strip()))  # repeats dropped
    for name in names:
        if name not in ("gini", "entropy"):
            raise InputError(f"--criteria entries must be gini or entropy, got {name!r}")
    if not names:
        raise InputError("--criteria must list at least one criterion")
    return names


# -- commands --------------------------------------------------------------------


def cmd_validate(args) -> dict:
    return {"acyclic": True, **validate_stage(load_graph(args.graph))}


def cmd_centrality(args) -> dict:
    graph = load_graph(args.graph)
    return {"centrality": weighted_centrality(graph)}


def cmd_allocate(args) -> dict:
    return allocation_stage(load_graph(args.graph), args.budget, args.mode)


def cmd_path(args) -> dict:
    return path_stage(load_graph(args.graph), {"from": args.src, "to": args.dst, "tau": args.tau})


def cmd_feedback(args) -> dict:
    graph = load_graph(args.graph)
    metrics = load_metrics(args.metrics)
    iterations = len(metrics) if args.iters is None else args.iters
    block = {"eta": args.eta, "iterations": iterations}
    history, payload = feedback_stage(graph, metrics, args.budget, block)
    if args.out:
        save_history(history, args.out)
    return payload


def cmd_markov(args) -> dict:
    states, counts = load_counts(args.counts)
    tm = build_transition_matrix(states, counts)
    payload = {
        "states": list(tm.states),
        "matrix": tm.matrix.tolist(),
        "stationary": stationary_distribution(tm),
    }
    if args.iters is not None:
        uniform = {s: 1.0 / len(tm.states) for s in tm.states}
        payload["after_steps"] = {
            "steps": args.iters,
            "distribution": step_distribution(tm, uniform, args.iters),
        }
    return payload


def cmd_cohort_gen(args) -> dict:
    _check_seed(args.seed)
    if args.planted and args.profile:
        raise InputError("--planted and --profile are mutually exclusive")
    if args.planted:
        profile = planted_profile()
    elif args.profile:
        profile = load_profile(args.profile)
    else:
        profile = default_profile()
    check_draw(args.n, profile)
    if args.out:
        open(args.out, "a").close()  # an --out that cannot be written fails here, not after the draw
    table = generate_cohort(args.n, args.seed, profile)
    if args.out:
        write_cohort_csv(table, args.out)
    payload = report_to_dict(summarize(table))
    payload["seed"] = args.seed
    payload["out"] = str(args.out) if args.out else None
    return payload


def cmd_cohort_summarize(args) -> dict:
    return report_to_dict(summarize(load_cohort_csv(args.data)))


def cmd_train(args) -> dict:
    _check_seed(args.seed)
    if args.folds < 2:
        raise InputError(f"--folds must be at least 2, got {args.folds}")
    grid = GridSpec(
        max_depths=_parse_range(args.grid_depth, "--grid-depth"),
        min_samples_leaves=_parse_range(args.grid_leaf, "--grid-leaf"),
        criteria=_parse_criteria(args.criteria),
    )
    count = len(grid.max_depths) * len(grid.min_samples_leaves) * len(grid.criteria)
    if count > MAX_GRID_CONFIGS:
        raise InputError(
            f"--grid-depth x --grid-leaf x --criteria names {count} configs, "
            f"more than the cap of {MAX_GRID_CONFIGS}"
        )
    columns, labels = feature_columns(load_cohort_csv(args.data))
    data = preprocess(columns, labels)
    result = grid_search_cv(data, grid, folds=args.folds, seed=args.seed)

    artifacts = {}
    if args.out:
        out = FsPath(args.out)
        out.mkdir(parents=True, exist_ok=True)
        save_model(out / "model.json", result.model, data.stats)
        save_cv_table(result.cv_table, out / "cv_results.csv")
        artifacts = {"model": "model.json", "cv_results": "cv_results.csv"}

    best = result.best_params
    return {
        "best_params": {
            "max_depth": best.max_depth,
            "min_samples_leaf": best.min_samples_leaf,
            "criterion": best.criterion,
        },
        "test_accuracy": result.test_accuracy,
        "train_size": result.train_size,
        "test_size": result.test_size,
        "configs_evaluated": len(result.cv_table),
        "feature_importance": feature_importance(result.model),
        "artifacts": artifacts,
    }


def cmd_predict(args) -> str:
    tree, stats = load_model(args.model)
    table = load_cohort_csv(args.data)
    columns, labels = feature_columns(table)
    predictions = predict_many(tree, apply_stats(columns, stats))
    correct = sum(map(operator.eq, predictions, labels))
    n = len(table)
    return _predictions_text(correct / n if n else None, n, table.student_id, predictions)


def cmd_run(args) -> str:
    return run_scenario(args.scenario, args.out)


# -- wiring ----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="skillsgraph", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("validate", help="check a graph file and print its topological order")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("centrality", help="weighted out-degree centrality per node")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_centrality)

    p = sub.add_parser("allocate", help="budgeted allocation over nodes")
    p.add_argument("--graph", required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--mode", choices=("select", "fractional"), default="fractional")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("path", help="cheapest path, optionally consumption-capped")
    p.add_argument("--graph", required=True)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--tau", type=float, default=None)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("feedback", help="run metric-driven weight updates")
    p.add_argument("--graph", required=True)
    p.add_argument("--metrics", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--iters", type=int, default=None, help="default: one per metrics entry")
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--out", default=None, help="write history JSON lines here")
    p.set_defaults(func=cmd_feedback)

    p = sub.add_parser("markov", help="transition matrix and stationary distribution from counts")
    p.add_argument("--counts", required=True)
    p.add_argument("--iters", type=int, default=None, help="also report the uniform start stepped this many times")
    p.set_defaults(func=cmd_markov)

    cohort = sub.add_parser("cohort", help="generate or summarize cohorts")
    cohort_sub = cohort.add_subparsers(dest="cohort_command", metavar="subcommand")

    p = cohort_sub.add_parser("gen", help="draw a synthetic cohort")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", default=None, help="profile JSON (default: calibrated profile)")
    p.add_argument("--planted", action="store_true", help="use the planted-signal profile")
    p.add_argument("--out", default=None, help="write the cohort CSV here")
    p.set_defaults(func=cmd_cohort_gen)

    p = cohort_sub.add_parser("summarize", help="marginals of a cohort CSV")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_cohort_summarize)

    p = sub.add_parser("train", help="grid-search a decision tree on a cohort CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-depth", default="3:15")
    p.add_argument("--grid-leaf", default="1:10")
    p.add_argument("--criteria", default="gini,entropy")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--out", default=None, help="directory for model.json and cv_results.csv")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify cohort rows with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("run", help="execute a scenario file end to end")
    p.add_argument("scenario")
    p.add_argument("--out", required=True, help="output directory for report and artifacts")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2
    try:
        payload = args.func(args)
    except ToolError as exc:
        _emit_error(exc.kind, str(exc))
        return exc.exit_code
    except FileNotFoundError as exc:
        _emit_error("FileNotFound", str(exc))
        return 2
    except OSError as exc:
        _emit_error("IOError", str(exc))
        return 2
    _emit(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
