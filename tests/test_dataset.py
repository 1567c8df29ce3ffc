import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setbayes import dataset, load_dataset, write_dataset
from setbayes.dataset import (
    FILL,
    format_float,
    format_floats,
    generate_rows,
    parse_generator_spec,
)
from setbayes.errors import SchemaError


def write_text(path, text):
    path.write_text(text, encoding="utf-8")


class TestLoadDataset:
    def test_basic_file(self, tmp_path):
        f = tmp_path / "d.csv"
        write_text(f, "x,y,label\n1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
        loaded = load_dataset(f)
        assert loaded.labels == ("a", "b")
        assert loaded.feature_names == ("x", "y")
        assert loaded.block_names is None
        assert loaded.counts == (2, 1)
        assert loaded.space.block_sizes == (2,)
        np.testing.assert_array_equal(
            loaded.data.groups[0], [[1.0, 2.0], [5.0, 6.0]]
        )

    def test_blocks_relabel_contiguously(self, tmp_path):
        """Interleaved labels come back grouped: blocks in order of first
        appearance, labels within each block likewise."""
        f = tmp_path / "d.csv"
        write_text(
            f,
            "v,label,block\n"
            "1,north,cold\n"
            "2,south,warm\n"
            "3,east,cold\n"
            "4,south,warm\n"
            "5,north,cold\n",
        )
        loaded = load_dataset(f)
        assert loaded.block_names == ("cold", "warm")
        assert loaded.labels == ("north", "east", "south")
        assert loaded.space.block_sizes == (2, 1)
        assert loaded.counts == (2, 1, 2)

    def test_label_column_position_is_free(self, tmp_path):
        f = tmp_path / "d.csv"
        write_text(f, "label,x\na,1.0\nb,2.0\n")
        loaded = load_dataset(f)
        assert loaded.feature_names == ("x",)
        assert loaded.data.groups[0][0, 0] == 1.0

    def test_comment_lines_skipped(self, tmp_path):
        f = tmp_path / "d.csv"
        write_text(f, '# {"seed": 3}\nx,label\n1.0,a\n2.0,a\n')
        assert load_dataset(f).counts == (2,)

    def test_missing_label_column(self, tmp_path):
        f = tmp_path / "d.csv"
        write_text(f, "x,y\n1,2\n")
        with pytest.raises(SchemaError, match="label"):
            load_dataset(f)

    def test_duplicate_columns(self, tmp_path):
        f = tmp_path / "d.csv"
        write_text(f, "x,x,label\n1,2,a\n")
        with pytest.raises(SchemaError, match="duplicate"):
            load_dataset(f)

    def test_no_feature_columns(self, tmp_path):
        f = tmp_path / "d.csv"
        write_text(f, "label,block\na,b1\n")
        with pytest.raises(SchemaError, match="feature"):
            load_dataset(f)

    def test_label_cannot_switch_blocks(self, tmp_path):
        f = tmp_path / "d.csv"
        write_text(f, "x,label,block\n1,a,b1\n2,a,b2\n")
        with pytest.raises(SchemaError, match="blocks"):
            load_dataset(f)

    def test_bad_number_reports_line(self, tmp_path):
        f = tmp_path / "d.csv"
        for value, message in (("oops", "line 3"),
                               ("nan", "line 3: feature values must be finite"),
                               ("inf", "line 3: feature values must be finite")):
            write_text(f, f"x,label\n1.0,a\n{value},a\n")
            with pytest.raises(SchemaError, match=message):
                load_dataset(f)

    def test_ragged_row(self, tmp_path):
        f = tmp_path / "d.csv"
        write_text(f, "x,y,label\n1.0,2.0,a\n1.0,a\n")
        with pytest.raises(SchemaError, match="expected 3 fields"):
            load_dataset(f)

    def test_empty_file_and_headers_only(self, tmp_path):
        f = tmp_path / "d.csv"
        write_text(f, "")
        with pytest.raises(SchemaError, match="empty"):
            load_dataset(f)
        write_text(f, "x,label\n")
        with pytest.raises(SchemaError, match="no data rows"):
            load_dataset(f)


class TestWriteDataset:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((6, 2))
        labels = ["a", "a", "b", "b", "c", "c"]
        blocks = ["b1", "b1", "b1", "b1", "b2", "b2"]
        f = tmp_path / "d.csv"
        with dataset.open_reports(f) as (fh,):
            write_dataset(fh, ("u", "v"), rows, labels, blocks, metadata={"seed": 1})
        loaded = load_dataset(f)
        assert loaded.labels == ("a", "b", "c")
        assert loaded.block_names == ("b1", "b2")
        np.testing.assert_array_equal(np.vstack(loaded.data.groups), rows)
        assert f.read_text().startswith('# {"seed": 1}\n')

    def test_format_float_is_shortest_exact(self):
        for v in (0.1, 1 / 3, 2.0, 1e-17, 123456.789):
            assert float(format_float(v)) == v


def formatted(values) -> list[str]:
    """The text of each row of ``format_floats(values)``."""
    return [bytes(row).replace(FILL, b"").decode("ascii") for row in format_floats(values)]


def assert_matches_format_float(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    want = [format_float(v) for v in values.tolist()]
    got = formatted(values)
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert not wrong, f"{len(wrong)} of {len(want)} differ, first: {wrong[:5]}"


def with_negatives(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


class TestFormatFloats:
    """``format_floats`` against ``format_float``, which is ``repr``."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20).integers(0, 2**64, size=200_000, dtype=np.uint64)
        assert_matches_format_float(bits.view(np.float64))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_bit_patterns(self, patterns):
        assert_matches_format_float(np.array(patterns, dtype=np.uint64).view(np.float64))

    def test_powers_of_two_and_neighbours(self):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        assert_matches_format_float(with_negatives(np.concatenate([
            powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf),
        ])))

    def test_powers_of_ten(self):
        assert_matches_format_float(with_negatives([float(f"1e{k}") for k in range(-323, 309)]))

    def test_integers(self):
        around = [float(2**53 + i) for i in range(-300, 301)]
        small = [float(i) for i in range(1, 2001)]
        assert_matches_format_float(with_negatives(around + small))

    def test_layout_switch_points_and_special_values(self):
        smallest_normal = np.finfo(np.float64).tiny
        values = [
            1e-05, 0.0001, 9999999999999998.0, 1e16,
            0.0, 5e-324, float(np.nextafter(smallest_normal, 0.0)), smallest_normal,
            np.finfo(np.float64).max, np.inf, np.nan,
        ]
        assert formatted(with_negatives(values)) == [repr(v) for v in with_negatives(values).tolist()]
        assert formatted([1e-05, 0.0001, 9999999999999998.0, 1e16, -0.0, 5e-324]) == [
            "1e-05", "0.0001", "9999999999999998.0", "1e+16", "-0.0", "5e-324",
        ]

    def test_chunks_and_shapes(self, monkeypatch):
        """Chunk boundaries do not show, and any shape is read in C order."""
        values = np.random.default_rng(21).standard_normal((7, 5)) * 1e3
        whole = formatted(values)
        monkeypatch.setattr(dataset, "_FORMAT_CHUNK", 3)
        assert formatted(values) == whole == [repr(v) for v in values.ravel().tolist()]
        assert formatted(np.asfortranarray(values)) == whole
        assert format_floats([]).shape == (0, dataset.FLOAT_COLUMNS)

    def test_tables_are_built_on_first_use(self):
        src = str(Path(dataset.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import setbayes, setbayes.cli\n"
            "from setbayes import dataset\n"
            "tables = (dataset._schubfach_table, dataset._hidden, dataset._exponents)\n"
            "print([t.cache_info().currsize for t in tables])\n"
            "dataset.format_floats([0.5])\n"
            "print([t.cache_info().currsize for t in tables])\n"
            "print(dataset._schubfach_table()[0].size)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.split("\n")[:3] == ["[0, 0, 0]", "[1, 1, 1]", "617"]

    def test_integer_logarithms_are_exact(self):
        """The kernel's integer forms of floor(log10(2**q)),
        floor(log10(3/4 * 2**q)) and floor(log2(10**e)) against exact
        rational arithmetic over every exponent a float64 reaches."""
        def floor_log(base, x):
            e = math.floor(math.log(x.numerator, base) - math.log(x.denominator, base))
            while Fraction(base) ** (e + 1) <= x:
                e += 1
            while Fraction(base) ** e > x:
                e -= 1
            return e

        q = np.arange(-1074, 972)
        for quarter, scale in ((False, Fraction(1)), (True, Fraction(3, 4))):
            want = [floor_log(10, scale * Fraction(2) ** int(v)) for v in q]
            assert dataset._floor_log10_pow2(q, quarter).tolist() == want
        e = np.arange(-292, 325)
        want = [floor_log(2, Fraction(10) ** int(v)) for v in e]
        assert dataset._floor_log2_pow10(e).tolist() == want
        # the table covers every decimal exponent of a normal float64
        ks = np.concatenate([dataset._floor_log10_pow2(q, False), dataset._floor_log10_pow2(q[1:], True)])
        assert (ks.min(), ks.max()) == (dataset._K_MIN, dataset._K_MIN + 616)


BASE_SPEC = {
    "feature_names": ["x", "y"],
    "categories": [
        {"label": "a", "block": "left", "count": 5,
         "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        {"label": "b", "block": "right", "count": 4,
         "mean": [3.0, 3.0], "cov": [[1.0, 0.2], [0.2, 1.0]]},
    ],
}


def spec_with(**overrides):
    spec = {k: [dict(c) for c in v] if k == "categories" else list(v)
            for k, v in BASE_SPEC.items()}
    spec.update(overrides)
    return spec


class TestGeneratorSpec:
    def test_parses(self):
        cats, names = parse_generator_spec(BASE_SPEC)
        assert names == ("x", "y")
        assert [c.label for c in cats] == ["a", "b"]
        assert cats[1].count == 4

    def test_default_feature_names(self):
        spec = spec_with()
        del spec["feature_names"]
        _, names = parse_generator_spec(spec)
        assert names == ("f1", "f2")

    def test_rejects_unknown_keys(self):
        with pytest.raises(SchemaError, match="unknown"):
            parse_generator_spec(spec_with(features=["x", "y"]))

    def test_rejects_bad_covariance(self):
        spec = spec_with()
        spec["categories"][0]["cov"] = [[1.0, 2.0], [2.0, 1.0]]  # not PD
        with pytest.raises(SchemaError, match="positive definite"):
            parse_generator_spec(spec)
        spec["categories"][0]["cov"] = [[1.0, 0.5], [0.4, 1.0]]
        with pytest.raises(SchemaError, match="symmetric"):
            parse_generator_spec(spec)

    def test_blocks_all_or_none(self):
        spec = spec_with()
        del spec["categories"][0]["block"]
        with pytest.raises(SchemaError, match="block"):
            parse_generator_spec(spec)

    def test_duplicate_labels(self):
        spec = spec_with()
        spec["categories"][1]["label"] = "a"
        with pytest.raises(SchemaError, match="duplicate"):
            parse_generator_spec(spec)

    def test_dimension_agreement(self):
        spec = spec_with()
        spec["categories"][1]["mean"] = [0.0, 0.0, 0.0]
        with pytest.raises(SchemaError, match="dimension"):
            parse_generator_spec(spec)

    def test_feature_name_constraints(self):
        with pytest.raises(SchemaError):
            parse_generator_spec(spec_with(feature_names=["x", "x"]))
        with pytest.raises(SchemaError):
            parse_generator_spec(spec_with(feature_names=["x", "label"]))
        with pytest.raises(SchemaError):
            parse_generator_spec(spec_with(feature_names=["x"]))


class TestGenerateRows:
    def test_deterministic(self):
        cats, _ = parse_generator_spec(BASE_SPEC)
        r1 = generate_rows(cats, seed=5)
        r2 = generate_rows(cats, seed=5)
        np.testing.assert_array_equal(r1[0], r2[0])
        assert r1[1] == r2[1]
        assert r1[2] == r2[2]

    def test_per_category_streams(self):
        """Growing one category's count must not move another's rows."""
        cats, _ = parse_generator_spec(BASE_SPEC)
        bigger = spec_with()
        bigger["categories"][0]["count"] = 9
        cats_big, _ = parse_generator_spec(bigger)
        rows, labels, _ = generate_rows(cats, seed=5)
        rows_big, labels_big, _ = generate_rows(cats_big, seed=5)
        b_rows = rows[np.array(labels) == "b"]
        b_rows_big = rows_big[np.array(labels_big) == "b"]
        np.testing.assert_array_equal(b_rows, b_rows_big)

    def test_zero_count_skipped_with_warning(self, capsys):
        spec = spec_with()
        spec["categories"][0]["count"] = 0
        cats, _ = parse_generator_spec(spec)
        rows, labels, blocks = generate_rows(cats, seed=1)
        assert set(labels) == {"b"}
        assert "a" in capsys.readouterr().err

    def test_all_zero_counts_rejected(self):
        spec = spec_with()
        for c in spec["categories"]:
            c["count"] = 0
        cats, _ = parse_generator_spec(spec)
        with pytest.raises(SchemaError):
            generate_rows(cats, seed=1)
