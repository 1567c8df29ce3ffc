"""The benchmark's workloads: seeded inputs, the timed CLI stage, output checks.

Every input is derived from the workload seed, and the program sees only
the generated files.  ``build`` runs in a fresh process (that is the
benchmark's set-up); ``argv`` is the one CLI stage the benchmark times;
``check`` inspects the stage's output files outside the timed region and
returns a list of problems, empty when every check passes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from setbayes.classifiers import brute_force_optimal
from setbayes.cli import main as cli_main
from setbayes.core import PosteriorVector
from setbayes.gaussian import model_from_json
from setbayes.rewards import reward_spec_from_json

#: Largest gap allowed between a reported value and the exhaustive oracle's.
VALUE_TOL = 1e-12
#: Largest gap allowed between a posterior row's sum and 1.
SUM_TOL = 1e-12
#: Largest absolute gap allowed between a reported posterior probability and
#: the benchmark's own per-draw recomputation.  Both sides sum the same
#: Gaussian log densities, only in another order, so agreement is expected
#: to about 1e-14; 1e-9 leaves room for that and nothing else.
POSTERIOR_TOL = 1e-9
#: Slack for the pointwise ordering and monotonicity of the tuning curves,
#: the same slack ``select_b_threshold`` allows.
CURVE_TOL = 1e-12
#: The acceptance suite's coverage band at delta = 0.1.
COVERAGE_BAND = (0.88, 0.92)

_LOG_2PI = math.log(2.0 * math.pi)

# The acceptance suite's two generator specs, repeated here so that the
# benchmark does not depend on the test files.
TWO_GAUSSIAN_SPEC = {
    "feature_names": ["z"],
    "categories": [
        {"label": "left", "count": 400, "mean": [-2.0], "cov": [[1.0]]},
        {"label": "right", "count": 400, "mean": [2.0], "cov": [[1.0]]},
    ],
}

WARBLER_LIKE_SPEC = {
    "feature_names": ["wing", "notch", "position"],
    "categories": [
        {"label": "common_a", "block": "common", "count": 409,
         "mean": [0.0, 0.0, 0.0],
         "cov": [[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]]},
        {"label": "common_b", "block": "common", "count": 414,
         "mean": [1.6, 0.8, 0.4],
         "cov": [[1.0, 0.0, 0.2], [0.0, 1.0, 0.0], [0.2, 0.0, 1.0]]},
        {"label": "scarce", "block": "scarce", "count": 41,
         "mean": [3.2, 2.4, 1.5],
         "cov": [[1.2, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.8]]},
        {"label": "vagrant", "block": "vagrant", "count": 18,
         "mean": [5.0, 4.2, 2.5],
         "cov": [[1.4, 0.3, 0.0], [0.3, 1.2, 0.0], [0.0, 0.0, 1.0]]},
    ],
}

#: The larger synthetic training spec: 8 categories in blocks of 3/3/2, d=3.
_BLOCKS = ("b1", "b1", "b1", "b2", "b2", "b2", "b3", "b3")
_FEATURES = ["x1", "x2", "x3"]


def derived_seeds(seed: int, salt: int, count: int) -> list[int]:
    """``count`` program seeds derived from the workload seed."""
    rng = np.random.default_rng([int(seed), salt])
    return [int(v) for v in rng.integers(0, 2**31 - 1, size=count)]


def _run_cli(argv: list[str]) -> None:
    rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"setbayes {argv[0]} exited with code {rc}")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


class Classify:
    """``classify`` on 8 seeded categories, queried at rows drawn from N(2·1, 2²·I)."""

    stage = "classify"
    outputs = ("sets.csv",)

    def __init__(self, name, per_category, draws, queries, reward):
        self.name = name
        self.per_category = per_category
        self.draws = draws
        self.queries = queries
        self.reward = reward

    @property
    def items(self) -> int:
        return self.queries

    def build(self, directory: Path, seed: int) -> None:
        # Both classify workloads share the training spec of a seed; only
        # the draw count and the query rows differ.
        rng = np.random.default_rng([int(seed), 0])
        means = rng.uniform(0.0, 4.0, size=(len(_BLOCKS), 3))
        synth_seed, fit_seed, query_seed = derived_seeds(seed, 1, 3)
        spec = {
            "feature_names": _FEATURES,
            "categories": [
                {"label": f"c{i + 1}", "block": block, "count": self.per_category,
                 "mean": means[i].tolist(), "cov": np.eye(3).tolist()}
                for i, block in enumerate(_BLOCKS)
            ],
        }
        _write_json(directory / "gen.json", spec)
        _run_cli(["synth", "--spec", str(directory / "gen.json"),
                  "--out", str(directory / "train.csv"), "--seed", str(synth_seed)])
        _run_cli(["fit", "--data", str(directory / "train.csv"),
                  "--out", str(directory / "model.json"),
                  "--draws", str(self.draws), "--seed", str(fit_seed)])
        points = 2.0 + 2.0 * np.random.default_rng(query_seed).standard_normal(
            (self.queries, 3)
        )
        with open(directory / "queries.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_FEATURES)
            writer.writerows([repr(float(v)) for v in row] for row in points)

    def argv(self, directory: Path, seed: int) -> list[str]:
        return [
            "classify", "--model", str(directory / "model.json"),
            "--data", str(directory / "queries.csv"),
            "--reward", json.dumps(self.reward, sort_keys=True),
            "--prior", "prop", "--out", str(directory / "sets.csv"),
        ]

    def check(self, directory: Path) -> list[str]:
        bundle = json.loads((directory / "model.json").read_text(encoding="utf-8"))
        model = model_from_json(bundle["model"])
        labels = bundle["labels"]
        counts = np.asarray(bundle["counts"], dtype=float)
        prior = counts / counts.sum()
        spec = reward_spec_from_json(self.reward)

        with open(directory / "sets.csv", newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        header, body = rows[0], rows[1:]
        prob_cols = [header.index(f"p_{label}") for label in labels]
        value_col = header.index("value")
        problems = []
        if len(body) != self.queries:
            return [f"sets.csv has {len(body)} rows, expected {self.queries}"]
        post = np.array([[float(r[c]) for c in prob_cols] for r in body])
        values = np.array([float(r[value_col]) for r in body])

        worst_sum = float(np.max(np.abs(post.sum(axis=1) - 1.0)))
        if worst_sum > SUM_TOL:
            problems.append(f"a posterior row sums to 1 +- {worst_sum:.3g} > {SUM_TOL}")

        worst_value = max(
            abs(brute_force_optimal(spec, PosteriorVector(p, model.space)).value - v)
            for p, v in zip(post, values)
        )
        if worst_value > VALUE_TOL:
            problems.append(f"reported value is {worst_value:.3g} from the oracle's")

        with open(directory / "queries.csv", newline="", encoding="utf-8") as fh:
            qrows = list(csv.reader(fh))[1:]
        points = np.array([[float(v) for v in r] for r in qrows])
        worst_post = float(np.max(np.abs(direct_posterior(model, prior, points) - post)))
        if worst_post > POSTERIOR_TOL:
            problems.append(
                f"posterior is {worst_post:.3g} from the per-draw recomputation"
            )
        return problems


def direct_posterior(model, prior: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Posterior matrix recomputed draw by draw from means and Cholesky factors.

    Independent of ``CategoryDraws.log_density``: each draw's Gaussian log
    density comes from a triangular solve against its own Cholesky factor.
    """
    n, d = points.shape
    logf = np.empty((n, model.n_categories))
    for i, draws in enumerate(model.draws):
        n_draws = draws.means.shape[0]
        per_draw = np.empty((n, n_draws))
        for j in range(n_draws):
            chol = draws.chols[j]
            y = solve_triangular(chol, (points - draws.means[j]).T, lower=True)
            logdet = 2.0 * np.log(np.diag(chol)).sum()
            per_draw[:, j] = -0.5 * (d * _LOG_2PI + logdet + (y * y).sum(axis=0))
        logf[:, i] = logsumexp(per_draw, axis=1) - math.log(n_draws)
    logpost = logf + np.log(prior)[None, :]
    logpost -= logsumexp(logpost, axis=1, keepdims=True)
    return np.exp(logpost)


class Tune:
    """``tune`` on the warbler-like spec: one LOO fold per training row."""

    stage = "tune"
    outputs = ("curve.csv", "selection.json")
    delta = 0.05

    def __init__(self, name, counts, draws, grid_step):
        self.name = name
        self.counts = counts
        self.draws = draws
        self.grid_step = grid_step

    @property
    def items(self) -> int:
        return sum(self.counts)

    def build(self, directory: Path, seed: int) -> None:
        synth_seed, _ = derived_seeds(seed, 2, 2)
        spec = json.loads(json.dumps(WARBLER_LIKE_SPEC))
        for cat, count in zip(spec["categories"], self.counts):
            cat["count"] = count
        _write_json(directory / "gen.json", spec)
        _run_cli(["synth", "--spec", str(directory / "gen.json"),
                  "--out", str(directory / "train.csv"), "--seed", str(synth_seed)])

    def argv(self, directory: Path, seed: int) -> list[str]:
        _, tune_seed = derived_seeds(seed, 2, 2)
        return [
            "tune", "--data", str(directory / "train.csv"),
            "--out-curve", str(directory / "curve.csv"),
            "--out-selection", str(directory / "selection.json"),
            "--epsilon", "0.5", "--delta", str(self.delta),
            "--grid-lo", "0.05", "--grid-hi", "5.0", "--grid-step", str(self.grid_step),
            "--draws", str(self.draws), "--seed", str(tune_seed), "--threads", "1",
        ]

    def check(self, directory: Path) -> list[str]:
        with open(directory / "curve.csv", newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        header, body = rows[0], rows[1:]
        cols = {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}
        b = cols["b"]
        r1, r2, r3, r4 = (cols[f"rate_R{k}"] for k in range(1, 5))
        problems = []
        if not (np.all(r1 <= r2 + CURVE_TOL) and np.all(r2 <= r3 + CURVE_TOL)
                and np.all(r3 <= r4 + CURVE_TOL)):
            problems.append("rates are not nested R1 <= R2 <= R3 <= R4")
        for name, rate in (("R3", r3), ("R4", r4)):
            if np.any(np.diff(rate) > CURVE_TOL):
                problems.append(f"{name} rate increases along the cost grid")

        selection = json.loads((directory / "selection.json").read_text(encoding="utf-8"))
        for name, rate in (("R3", r3), ("R4", r4)):
            feasible = np.flatnonzero(1.0 - rate <= self.delta)
            expected = float(b[feasible[-1]]) if feasible.size else None
            got = selection["selection"]["threshold"][name]["selected_b"]
            if got != expected:
                problems.append(f"{name} threshold picked b={got}, expected {expected}")
        return problems


class Conformal:
    """``conformal`` with an audit on the two-Gaussian spec (d=1, N=2)."""

    stage = "conformal"
    outputs = ("report.json",)

    def __init__(self, name, draws, samples):
        self.name = name
        self.draws = draws
        self.samples = samples

    @property
    def items(self) -> int:
        return 2 * self.samples

    def build(self, directory: Path, seed: int) -> None:
        synth_seed, fit_seed, _ = derived_seeds(seed, 3, 3)
        _write_json(directory / "gen.json", TWO_GAUSSIAN_SPEC)
        _run_cli(["synth", "--spec", str(directory / "gen.json"),
                  "--out", str(directory / "train.csv"), "--seed", str(synth_seed)])
        _run_cli(["fit", "--data", str(directory / "train.csv"),
                  "--out", str(directory / "model.json"),
                  "--draws", str(self.draws), "--seed", str(fit_seed)])

    def argv(self, directory: Path, seed: int) -> list[str]:
        _, _, conformal_seed = derived_seeds(seed, 3, 3)
        return [
            "conformal", "--model", str(directory / "model.json"),
            "--delta", "0.1", "--prior", "flat",
            "--samples", str(self.samples), "--seed", str(conformal_seed),
            "--audit", "--audit-samples", str(self.samples),
            "--out", str(directory / "report.json"),
        ]

    def check(self, directory: Path) -> list[str]:
        report = json.loads((directory / "report.json").read_text(encoding="utf-8"))
        lo, hi = COVERAGE_BAND
        coverage = report.get("coverage")
        if coverage is None or not lo <= coverage <= hi:
            return [f"audited coverage {coverage} outside [{lo}, {hi}]"]
        return []


def workloads(tiny: bool = False) -> dict:
    """Every workload by name; ``tiny`` shrinks each for the harness self-check."""
    items = [
        Classify(
            "classify-dense",
            per_category=10 if tiny else 60,
            draws=50 if tiny else 1000,
            queries=100 if tiny else 2000,
            reward={"kind": "proportion", "c": 0.2},
        ),
        Classify(
            "classify-decide",
            per_category=10 if tiny else 60,
            draws=5 if tiny else 20,
            queries=400 if tiny else 20000,
            reward={"kind": "composite", "a": 0.1, "b": 0.3},
        ),
        Tune(
            "tune-warbler",
            counts=(40, 41, 6, 4) if tiny else (409, 414, 41, 18),
            draws=20 if tiny else 200,
            grid_step=0.25 if tiny else 0.05,
        ),
        Conformal(
            "conformal-two",
            draws=200 if tiny else 1000,
            samples=5000 if tiny else 10000,
        ),
    ]
    return {w.name: w for w in items}
