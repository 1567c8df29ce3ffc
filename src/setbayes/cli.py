"""Command line interface.

Subcommands cover the full pipeline: ``synth`` writes a synthetic dataset,
``fit`` fits the Gaussian category model, ``classify`` reports optimal
sets for new observations under a reward specification, ``tune`` runs the
leave-one-out cost selection, and ``conformal`` calibrates the cost whose
sets miss the truth a prescribed fraction of the time.

Exit codes: 0 on success, 2 for malformed inputs (bad file schemas or
unparseable values), 3 for incompatible dimensions, out-of-range
arguments or an output path that cannot be written, 4 for violated
cross-validation preconditions.  All sampling is driven by explicit
``--seed`` values and repeated runs write byte identical outputs on one
CPU and numpy/BLAS build.  Across BLAS kernels and numpy's SIMD
dispatch, ``tune``'s rates and threshold costs and ``classify``'s chosen
sets stayed the same where measured, while ``classify``'s posteriors and
the minimum rule's costs moved by at most 2.1e-14 relative.

Reports appear only complete, and their paths are checked before any
input is read: every command first opens its reports through
``dataset.open_reports``, which writes them to temporary files beside
their paths and renames them into place once all are written, so a run
that fails leaves each report path as it was.  ``classify`` streams its
query file in blocks of ``_BLOCK_ELEMENTS // categories`` rows, each
read, scored, decided and written before the next is read, so its memory
is set by the block, not by the rows.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from .classifiers import check_exhaustive, exhaustive_sets, optimal_sets
from .classifiers import optimal_set  # unused here, but bench/tracing.py wraps cli.optimal_set
from .core import JSON_TYPES, json_fields
from .core import PosteriorVector  # unused here, but bench/tracing.py wraps cli.PosteriorVector
from .dataset import (
    format_float,
    generate_rows,
    load_dataset,
    observation_blocks,
    open_reports,
    parse_generator_spec,
    write_curve,
    write_dataset,
    write_sets,
)
from .errors import (
    AllZeroMass,
    CategoryTooSmall,
    EmptyCategory,
    NoFeasibleB,
    OutOfRange,
    SchemaError,
    SetBayesError,
)
from .gaussian import (
    MAX_DRAWS,
    MAX_SAMPLES,
    GaussianCategoryModel,
    calibrate_conformal_cost,
    check_audit_samples,
    check_prior,
    conformal_coverage,
    fit,
    model_from_json,
    model_to_json,
    posterior_matrix,
)
from .rewards import BinaryReward, reward_spec_from_json
from .tuning import (
    CVConfig,
    evaluate_curves,
    loocv_posteriors,
    make_weights,
    select_b_minimize,
    select_b_threshold,
)


#: Posterior elements, rows times categories, in one block of ``classify``:
#: 4,096 rows at 8 categories.  Smaller blocks cost more calls per row, and
#: larger ones hold more at once.
_BLOCK_ELEMENTS = 2**15


def _err(message) -> None:
    print(f"error: {message}", file=sys.stderr)


def _write_json(fh, obj) -> None:
    json.dump(obj, fh, sort_keys=True, indent=2)
    fh.write("\n")


def _read_json(path) -> dict:
    """The JSON value in the UTF-8 file ``path``; a byte that is not UTF-8
    is refused as a ``SchemaError`` naming the file and its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise SchemaError(f"{path}: line {line}: "
                          f"byte 0x{data[exc.start]:02x} is not UTF-8") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from None


def _parse_reward(text: str):
    """(specification, raw JSON object) from a literal or an @file reference."""
    if text.startswith("@"):
        obj = _read_json(text[1:])
    else:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid reward JSON: {exc}") from None
    return reward_spec_from_json(obj), obj


def _number_list(text: str, expected: str) -> list:
    """The values of a JSON list of numbers, as parsed, so that reports
    record them as given; ``expected`` says what the option accepts when
    ``text`` is anything else."""
    try:
        values = json.loads(text)
    except json.JSONDecodeError:
        values = None
    if not JSON_TYPES[list[float]][1](values):
        raise SchemaError(f"{expected}, got {text!r}")
    return values


def _resolve_prior(text: str, counts) -> np.ndarray:
    """Prior weights from 'flat', 'prop', or an explicit JSON list.

    A list is checked as a prior over the categories but returned as
    given, not divided by its sum, so that outputs keep their bits."""
    n = len(counts)
    if text == "flat":
        return np.full(n, 1.0 / n)
    if text == "prop":
        total = sum(counts)
        return np.asarray(counts, dtype=float) / total
    values = _number_list(text, "prior must be 'flat', 'prop' or a JSON list of numbers")
    arr = np.asarray(values, dtype=float)
    check_prior(arr, n)
    return arr


class _ModelFile:
    """The on-disk bundle: fitted model plus label bookkeeping."""

    def __init__(self, obj: dict):
        if not isinstance(obj, dict) or obj.get("format") != "setbayes-model-file":
            raise SchemaError("not a setbayes model file")
        _, model, self.labels, _, self.feature_names, self.counts, _ = json_fields(
            obj, "model file", (
                ("format", str), ("model", dict), ("labels", list[str]),
                ("block_names", list[str] | None, None), ("feature_names", list[str]),
                ("counts", list[int]), ("config", dict),
            ))
        self.model: GaussianCategoryModel = model_from_json(model)
        if len(self.labels) != self.model.n_categories:
            raise SchemaError("label list does not match the model's categories")
        if len(self.counts) != self.model.n_categories:
            raise SchemaError("'counts' does not match the model's categories")
        if len(self.feature_names) != self.model.dim:
            raise SchemaError("'feature_names' does not match the model's dimension")


def _cmd_synth(args) -> int:
    with open_reports(args.out) as (fh,):
        categories, feature_names = parse_generator_spec(_read_json(args.spec))
        rows, labels, blocks = generate_rows(categories, args.seed)
        metadata = {
            "command": "synth",
            "seed": args.seed,
            "categories": [
                {"label": c.label, "block": c.block, "count": c.count}
                for c in categories
            ],
        }
        write_dataset(fh, feature_names, rows, labels, blocks, metadata)
    print(f"wrote {rows.shape[0]} rows x {rows.shape[1]} features to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    with open_reports(args.out) as (fh,):
        loaded = load_dataset(args.data)
        model = fit(loaded.data, None, args.draws, args.seed, loaded.space)
        _write_json(fh, {
            "format": "setbayes-model-file",
            "model": model_to_json(model),
            "labels": list(loaded.labels),
            "block_names": list(loaded.block_names) if loaded.block_names else None,
            "feature_names": list(loaded.feature_names),
            "counts": list(loaded.counts),
            "config": {"command": "fit", "draws": args.draws, "seed": args.seed},
        })
    print(f"{'category':>8}  {'label':<20}  {'block':<12}  {'count':>6}")
    for i, label in enumerate(loaded.labels, start=1):
        block = (
            loaded.block_names[loaded.space.block_of(i) - 1]
            if loaded.block_names
            else "-"
        )
        print(f"{i:>8}  {label:<20}  {block:<12}  {loaded.counts[i - 1]:>6}")
    print(f"model written to {args.out}")
    return 0


def _cmd_classify(args) -> int:
    with open_reports(args.out) as (fh,):
        bundle = _ModelFile(_read_json(args.model))
        model = bundle.model
        spec, reward_obj = _parse_reward(args.reward)
        prior = _resolve_prior(args.prior, bundle.counts)
        if args.oracle:
            check_exhaustive(model.space)
        spec.check(model.space)
        metadata = {
            "command": "classify",
            "reward": reward_obj,
            "prior": args.prior,
            "model_seed": model.seed,
            "model_draws": model.n_draws,
        }

        def decided(blocks):
            """Each block's posteriors, sets, values and oracle values or None."""
            done = 0
            for points in blocks:
                try:
                    post = posterior_matrix(model, prior, points)
                except AllZeroMass as exc:
                    raise AllZeroMass(done + exc.row) from None  # the row in the file
                members, values = optimal_sets(spec, post, model.space)
                oracle = exhaustive_sets(spec, post, model.space)[1] if args.oracle else None
                yield post, members, values, oracle
                done += points.shape[0]

        rows = max(1, _BLOCK_ELEMENTS // model.n_categories)
        blocks = observation_blocks(args.data, bundle.feature_names, rows)
        with contextlib.closing(blocks):
            done = write_sets(fh, bundle.labels, metadata, decided(blocks), args.oracle)
    print(f"classified {done} observations -> {args.out}")
    return 0


def _cmd_tune(args) -> int:
    if args.threads < 1:
        raise OutOfRange(f"need at least one thread, got {args.threads}")
    with open_reports(args.out_curve, args.out_selection) as (curve, selection):
        loaded = load_dataset(args.data)
        prior = _resolve_prior(args.prior, loaded.counts)
        real_prior = None
        if args.real_prior is not None:
            real_prior = _number_list(args.real_prior, "real prior must be a JSON list of numbers")
        weights = make_weights(args.weights, loaded.counts, real_prior)
        config = CVConfig(args.epsilon, args.delta, args.grid_lo, args.grid_hi, args.grid_step)
        held = loocv_posteriors(loaded.data, loaded.space, prior, None, args.draws, args.seed)
        report = evaluate_curves(config, held, weights)
        metadata = {
            "command": "tune",
            "epsilon": args.epsilon,
            "delta": args.delta,
            "weights": args.weights,
            "real_prior": real_prior or None,
            "prior": args.prior,
            "grid": [args.grid_lo, args.grid_hi, args.grid_step],
            "draws": args.draws,
            "seed": args.seed,
            "labels": list(loaded.labels),
            "block_names": list(loaded.block_names) if loaded.block_names else None,
            "counts": list(loaded.counts),
        }
        selections: dict[str, dict] = {"threshold": {}, "minimize": {}}
        for name in ("R3", "R4"):
            try:
                sel = select_b_threshold(report, BinaryReward(name))
                selections["threshold"][name] = {
                    "selected_b": sel.cost,
                    "within_cost": args.epsilon * sel.cost,
                    "non_reward_rate": sel.non_reward_rate,
                    "at_grid_top": sel.at_grid_top,
                    "display": sel.display(),
                }
                print(f"{name} threshold rule: b = {sel.display()} "
                      f"(non-reward {sel.non_reward_rate:.4f})")
            except NoFeasibleB as exc:
                selections["threshold"][name] = {"selected_b": None, "note": str(exc)}
                print(f"{name} threshold rule: no feasible cost ({exc})")
        for name in ("R1", "R2"):
            sel = select_b_minimize(report, BinaryReward(name))
            selections["minimize"][name] = {
                "selected_b": sel.cost,
                "within_cost": args.epsilon * sel.cost,
                "non_reward_rate": sel.non_reward_rate,
            }
            print(f"{name} minimum rule:   b = {sel.cost:.4f} "
                  f"(non-reward {sel.non_reward_rate:.4f})")
        write_curve(curve, metadata, report.rate_rows())
        _write_json(selection, {"config": metadata, "selection": selections})
    print(f"curve -> {args.out_curve}\nselection -> {args.out_selection}")
    return 0


def _cmd_conformal(args) -> int:
    if args.audit:
        check_audit_samples(args.audit_samples)
    with open_reports(*[args.out] if args.out else []) as handles:
        bundle = _ModelFile(_read_json(args.model))
        prior = _resolve_prior(args.prior, bundle.counts)
        cost = calibrate_conformal_cost(
            bundle.model, prior, args.delta, args.samples, args.seed
        )
        print(f"conformal cost: {format_float(cost)}")
        report = {
            "config": {
                "command": "conformal",
                "delta": args.delta,
                "samples": args.samples,
                "seed": args.seed,
                "prior": args.prior,
                "model_seed": bundle.model.seed,
                "model_draws": bundle.model.n_draws,
            },
            "cost": cost,
        }
        if args.audit:
            coverage = conformal_coverage(
                bundle.model, prior, cost, args.audit_samples, args.seed
            )
            print(f"fresh-sample coverage: {format_float(coverage)}")
            report["config"]["audit_samples"] = args.audit_samples
            report["coverage"] = coverage
        for fh in handles:
            _write_json(fh, report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setbayes",
        description="Set-valued Bayes classification with partial reject options.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prior_help = "'flat', 'prop' (training counts), or a JSON list"

    def add(name, **kwargs):
        return sub.add_parser(name, formatter_class=argparse.ArgumentDefaultsHelpFormatter,
                              **kwargs)

    p = add("synth", help="generate a synthetic Gaussian dataset CSV")
    p.add_argument("--spec", required=True, help="generator spec JSON file")
    p.add_argument("--out", required=True, help="output dataset CSV")
    p.add_argument("--seed", type=int, default=0, help="random seed, non-negative")
    p.set_defaults(func=_cmd_synth)

    p = add("fit", help="fit the Gaussian category model to a dataset")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--out", required=True, help="output model JSON")
    p.add_argument("--draws", type=int, default=1000,
                   help=f"Monte Carlo draws per category, at most {MAX_DRAWS}")
    p.add_argument("--seed", type=int, default=0, help="random seed, non-negative")
    p.set_defaults(func=_cmd_fit)

    p = add("classify", help="optimal sets for new observations")
    p.add_argument("--model", required=True, help="model JSON from fit")
    p.add_argument("--data", required=True, help="observations CSV")
    p.add_argument("--reward", required=True,
                   help="reward spec JSON literal or @file")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--prior", default="prop", help=prior_help)
    p.add_argument("--oracle", action="store_true",
                   help="add the exhaustive-search value column")
    p.set_defaults(func=_cmd_classify)

    p = add("tune", help="leave-one-out tuning of the cost parameters")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--out-curve", required=True, help="output rate-curve CSV")
    p.add_argument("--out-selection", required=True, help="output selection JSON")
    p.add_argument("--epsilon", type=float, default=1.0,
                   help="within cost as a multiple of the cross cost")
    p.add_argument("--delta", type=float, default=0.05,
                   help="non-reward bound for the threshold rule")
    p.add_argument("--weights", default="per_observation",
                   choices=["per_observation", "per_category", "rarity"],
                   help="weight of each held-out observation in the rates")
    p.add_argument("--real-prior", default=None,
                   help="JSON list of real-world frequencies (rarity weights)")
    p.add_argument("--prior", default="prop", help=prior_help)
    p.add_argument("--grid-lo", type=float, default=0.05, help="lowest cost of the grid")
    p.add_argument("--grid-hi", type=float, default=5.0, help="highest cost of the grid")
    p.add_argument("--grid-step", type=float, default=0.05, help="step of the cost grid")
    p.add_argument("--draws", type=int, default=200,
                   help=f"Monte Carlo draws per fold, at most {MAX_DRAWS}")
    p.add_argument("--seed", type=int, default=0, help="random seed, non-negative")
    p.add_argument("--threads", type=int, default=1,
                   help="at least 1; accepted for compatibility, it changes nothing: "
                        "the leave-one-out categories, each with its full-fit "
                        "densities and its folds, run on one worker per CPU the "
                        "process may use (taskset -c 0 gives one)")
    p.set_defaults(func=_cmd_tune)

    p = add("conformal", help="calibrate the coverage-controlling cost")
    p.add_argument("--model", required=True, help="model JSON from fit")
    p.add_argument("--delta", type=float, required=True,
                   help="target miss probability in (0, 1)")
    p.add_argument("--prior", default="prop", help=prior_help)
    p.add_argument("--samples", type=int, default=10000,
                   help=f"calibration samples, 100 to {MAX_SAMPLES}")
    p.add_argument("--seed", type=int, default=0, help="random seed, non-negative")
    p.add_argument("--audit", action="store_true",
                   help="estimate coverage on a fresh sample")
    p.add_argument("--audit-samples", type=int, default=10000,
                   help=f"audit samples with --audit, 1 to {MAX_SAMPLES}")
    p.add_argument("--out", default=None, help="optional JSON report")
    p.set_defaults(func=_cmd_conformal)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "seed", 0) < 0:
            raise OutOfRange(f"--seed must be non-negative, got {args.seed}")
        if getattr(args, "draws", 0) > MAX_DRAWS:
            raise OutOfRange(f"--draws must be at most {MAX_DRAWS}, got {args.draws}")
        return args.func(args)
    except ValueError as exc:  # SchemaError among them
        _err(exc)
        return 2
    except (CategoryTooSmall, EmptyCategory) as exc:
        _err(exc)
        return 4
    except (OSError, SetBayesError) as exc:
        _err(exc)
        return 3


def entry_point() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry_point()
