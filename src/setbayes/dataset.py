"""CSV dataset files and synthetic data generation.

A dataset file is a plain CSV with one or more numeric feature columns, a
``label`` column, and an optional ``block`` column.  Labels may appear in
any order; ingestion numbers them 1..N so that each block occupies a
contiguous index range (blocks ordered by first appearance, labels within
a block likewise), because the classifiers expect contiguous blocks.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import CategorySpace
from .errors import SchemaError
from .gaussian import TrainingData


@dataclass(frozen=True)
class LoadedDataset:
    """A parsed dataset file with its category numbering."""

    data: TrainingData
    space: CategorySpace
    labels: tuple[str, ...]
    block_names: tuple[str, ...] | None
    feature_names: tuple[str, ...]

    @property
    def counts(self) -> tuple[int, ...]:
        return self.data.counts


def check_unique_columns(names: list[str]) -> None:
    """Raise ``SchemaError`` naming every column that ``names`` holds twice."""
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise SchemaError(f"duplicate header column(s): {', '.join(dupes)}")


def _parse_header(header: list[str]) -> tuple[tuple[str, ...], int, int | None]:
    names = [h.strip() for h in header]
    check_unique_columns(names)
    if "label" not in names:
        raise SchemaError("missing required column 'label'")
    label_col = names.index("label")
    block_col = names.index("block") if "block" in names else None
    features = tuple(
        n for idx, n in enumerate(names) if idx not in (label_col, block_col)
    )
    if not features:
        raise SchemaError("need at least one feature column besides label/block")
    return features, label_col, block_col


def read_header(reader) -> list[str]:
    """The first row of a ``csv.reader`` that is not a ``#`` comment line.

    Raises
    ------
    SchemaError
        If the reader ends first.
    """
    header = next(
        (row for row in reader if not (row and row[0].lstrip().startswith("#"))), None
    )
    if header is None:
        raise SchemaError("empty file; expected a header row")
    return header


def read_csv_rows(path, numeric_columns):
    """``csv_rows`` of the CSV file at ``path``."""
    with open(path, newline="", encoding="utf-8") as fh:
        yield from csv_rows(fh, numeric_columns)


def csv_rows(fh, numeric_columns):
    """Yield ``(line number, fields, values)`` for each data row of a CSV
    text file opened with ``newline=""``.

    Comment lines starting with ``#`` before the header are skipped, and so
    are blank rows.  ``numeric_columns(header)`` checks the header row and
    returns the indices of the columns read as numbers; ``values`` holds
    those columns as floats, in that order.

    Raises
    ------
    SchemaError
        On an empty file, a row whose field count differs from the
        header's, or a value that is not a finite number, with the
        offending line number.
    """
    reader = csv.reader(fh)
    header = read_header(reader)
    cols = numeric_columns(header)
    for row in reader:
        lineno = reader.line_num
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise SchemaError(
                f"line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            values = [float(row[c]) for c in cols]
        except ValueError as exc:
            raise SchemaError(f"line {lineno}: {exc}") from None
        if not all(math.isfinite(v) for v in values):
            raise SchemaError(f"line {lineno}: feature values must be finite")
        yield lineno, row, values


def load_dataset(path) -> LoadedDataset:
    """Read a dataset CSV and relabel categories to contiguous blocks.

    Comment lines starting with ``#`` before the header are skipped, so
    files written by this package (which embed their configuration there)
    read back without ceremony.

    Raises
    ------
    SchemaError
        On any malformed content, with the offending line number.
    """
    features = label_col = block_col = None

    def feature_columns(header):
        nonlocal features, label_col, block_col
        features, label_col, block_col = _parse_header(header)
        return [idx for idx in range(len(header)) if idx not in (label_col, block_col)]

    rows_by_label: dict[str, list[list[float]]] = {}
    block_of_label: dict[str, str] = {}
    block_order: list[str] = []
    for lineno, row, values in read_csv_rows(path, feature_columns):
        label = row[label_col].strip()
        if not label:
            raise SchemaError(f"line {lineno}: empty label")
        block = row[block_col].strip() if block_col is not None else ""
        if block_col is not None and not block:
            raise SchemaError(f"line {lineno}: empty block")
        if label in block_of_label:
            if block_of_label[label] != block:
                raise SchemaError(
                    f"line {lineno}: label {label!r} appears in blocks "
                    f"{block_of_label[label]!r} and {block!r}"
                )
        else:
            block_of_label[label] = block
            if block not in block_order:
                block_order.append(block)
            rows_by_label[label] = []
        rows_by_label[label].append(values)
    if not rows_by_label:
        raise SchemaError("no data rows")

    label_order = [
        label for block in block_order
        for label in rows_by_label if block_of_label[label] == block
    ]
    groups = [np.asarray(rows_by_label[label]) for label in label_order]
    block_sizes = tuple(
        sum(1 for label in label_order if block_of_label[label] == block)
        for block in block_order
    )
    space = CategorySpace(len(label_order), block_sizes)
    return LoadedDataset(
        TrainingData(groups),
        space,
        tuple(label_order),
        tuple(block_order) if block_col is not None else None,
        features,
    )


def format_float(x: float) -> str:
    """Shortest exact decimal form, so files round-trip bit for bit."""
    return repr(float(x))


def write_dataset(path, feature_names, rows, labels, blocks=None, metadata=None) -> None:
    """Write a dataset CSV in the format ``load_dataset`` reads.

    ``metadata``, if given, is embedded as a leading ``#`` comment line
    holding a canonical JSON dump of the dictionary.
    """
    rows = np.asarray(rows, dtype=float)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if metadata is not None:
            fh.write("# " + json.dumps(metadata, sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        header = list(feature_names) + ["label"] + (["block"] if blocks is not None else [])
        writer.writerow(header)
        for idx in range(rows.shape[0]):
            record = [format_float(v) for v in rows[idx]] + [labels[idx]]
            if blocks is not None:
                record.append(blocks[idx])
            writer.writerow(record)


@dataclass(frozen=True)
class GeneratorCategory:
    label: str
    block: str | None
    count: int
    mean: np.ndarray
    cov: np.ndarray


def parse_generator_spec(obj: dict) -> tuple[list[GeneratorCategory], tuple[str, ...]]:
    """Validate a synthetic-data specification.

    The JSON object carries a ``categories`` list; each entry has a label,
    an optional block, a count, a mean vector, and a covariance matrix
    that must be symmetric positive definite.  An optional top-level
    ``feature_names`` list names the columns (default f1..fd).  Returns
    the categories and the feature names.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("categories"), list):
        raise SchemaError("generator spec must be an object with a 'categories' list")
    unknown = set(obj) - {"categories", "feature_names"}
    if unknown:
        raise SchemaError(f"unknown generator spec key(s): {', '.join(sorted(unknown))}")
    cats = []
    dim = None
    blocks_seen = []
    for pos, entry in enumerate(obj["categories"], start=1):
        if not isinstance(entry, dict):
            raise SchemaError(f"category {pos}: expected an object")
        try:
            label = str(entry["label"])
            count = int(entry["count"])
            mean = np.asarray(entry["mean"], dtype=float)
            cov = np.asarray(entry["cov"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"category {pos}: {exc}") from None
        block = str(entry["block"]) if "block" in entry else None
        if count < 0:
            raise SchemaError(f"category {pos}: negative count {count}")
        if mean.ndim != 1:
            raise SchemaError(f"category {pos}: mean must be a vector")
        if dim is None:
            dim = mean.size
        if mean.size != dim or cov.shape != (dim, dim):
            raise SchemaError(
                f"category {pos}: dimensions disagree with earlier categories"
            )
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise SchemaError(f"category {pos}: covariance is not symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise SchemaError(
                f"category {pos}: covariance is not positive definite"
            ) from None
        blocks_seen.append(block is not None)
        cats.append(GeneratorCategory(label, block, count, mean, cov))
    if not cats:
        raise SchemaError("generator spec has no categories")
    if any(blocks_seen) and not all(blocks_seen):
        raise SchemaError("either every category has a block or none does")
    labels = [c.label for c in cats]
    if len(set(labels)) != len(labels):
        raise SchemaError("duplicate category labels in generator spec")
    names = obj.get("feature_names")
    if names is None:
        feature_names = tuple(f"f{idx}" for idx in range(1, dim + 1))
    else:
        feature_names = tuple(str(n) for n in names)
        if len(feature_names) != dim:
            raise SchemaError(
                f"{len(feature_names)} feature names for dimension {dim}"
            )
        if len(set(feature_names)) != dim or {"label", "block"} & set(feature_names):
            raise SchemaError("feature names must be unique and not 'label'/'block'")
    return cats, feature_names


def generate_rows(
    categories: list[GeneratorCategory], seed: int
) -> tuple[np.ndarray, list[str], list[str] | None]:
    """Draw Gaussian observations for every category of a generator spec.

    Category number i uses its own random stream keyed by (seed, i), so
    editing one category's count never changes another category's rows.
    Zero-count categories are skipped with a warning on stderr.
    """
    all_rows = []
    labels: list[str] = []
    blocks: list[str] | None = [] if categories[0].block is not None else None
    for idx, cat in enumerate(categories, start=1):
        if cat.count == 0:
            print(
                f"warning: category {cat.label!r} has count 0 and is omitted",
                file=sys.stderr,
            )
            continue
        rng = np.random.default_rng([int(seed), idx])
        chol = np.linalg.cholesky(cat.cov)
        eps = rng.standard_normal((cat.count, cat.mean.size))
        all_rows.append(cat.mean + eps @ chol.T)
        labels.extend([cat.label] * cat.count)
        if blocks is not None:
            blocks.extend([cat.block] * cat.count)
    if not all_rows:
        raise SchemaError("every category has count 0; nothing to write")
    return np.vstack(all_rows), labels, blocks


def load_generator_spec(path) -> tuple[list[GeneratorCategory], tuple[str, ...]]:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from None
    return parse_generator_spec(obj)
