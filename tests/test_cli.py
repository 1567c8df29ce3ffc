import csv
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from setbayes import classifiers, cli, dataset, gaussian
from setbayes.cli import main
from setbayes.core import PosteriorVector
from setbayes.dataset import format_float
from setbayes.errors import SchemaError


#: The child of ``run_switched``.  It prints, as its first line of
#: output, what the environment can switch: the kernel numpy's bundled
#: OpenBLAS picked (None where that library or its name query is
#: missing) and the SIMD targets numpy dispatches to; then it runs the
#: CLI calls given as JSON.
SWITCHES_CHILD = """\
import ctypes, glob, json, os, sys
import numpy
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from setbayes.cli import main
kernel = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
for path in glob.glob(libs):
    name = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
    if name is not None:
        name.restype = ctypes.c_char_p
        kernel = name().decode()
simd = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
print(json.dumps({"kernel": kernel, "simd": simd}), flush=True)
sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))
"""

#: Each switch that ``SWITCHES_CHILD`` reports, and the environment that
#: flips it: another OpenBLAS kernel, or numpy's AVX-512 loops off.
SWITCHES = [
    ("kernel", {"OPENBLAS_CORETYPE": "Prescott"}),
    ("simd", {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL AVX512_SKX AVX512F AVX512CD X86_V4"}),
]


def run_switched(switch, env, argv):
    """Run the CLI call ``argv(tag)`` in a ``SWITCHES_CHILD`` child without
    ``env``, tag ``"default"``, and in one with it, tag ``switch``.  Skips
    where the two children report the same ``switch``, or none: there the
    environment changes nothing to compare."""
    src = str(Path(cli.__file__).resolve().parents[1])
    switched = []
    for tag, extra in (("default", {}), (switch, env)):
        child_env = {k: v for k, v in os.environ.items() if k not in env}
        child_env.update(extra, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", SWITCHES_CHILD, json.dumps([argv(tag)])],
                              env=child_env, check=True, capture_output=True, text=True, timeout=300)
        switched.append(json.loads(done.stdout.splitlines()[0])[switch])
    if None in switched or switched[0] == switched[1]:
        pytest.skip(f"{env} leaves the {switch} at {switched[0]!r}: nothing to compare")


def must_not_run(name):
    def stub(*args, **kwargs):
        pytest.fail(f"{name} ran before the settings were checked")
    return stub


SPEC = {
    "feature_names": ["x1", "x2"],
    "categories": [
        {"label": "near", "block": "low", "count": 30,
         "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        {"label": "mid", "block": "low", "count": 14,
         "mean": [2.0, 1.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        {"label": "far", "block": "high", "count": 22,
         "mean": [5.0, 4.0], "cov": [[1.0, 0.3], [0.3, 1.0]]},
    ],
}


@pytest.fixture()
def workspace(tmp_path):
    spec = tmp_path / "gen.json"
    spec.write_text(json.dumps(SPEC))
    data = tmp_path / "data.csv"
    assert main(["synth", "--spec", str(spec), "--out", str(data), "--seed", "4"]) == 0
    model = tmp_path / "model.json"
    assert main(["fit", "--data", str(data), "--out", str(model),
                 "--draws", "80", "--seed", "2"]) == 0
    return tmp_path, spec, data, model


def reference_write_sets(fh, labels, post, members, values, oracle=None):
    """``classify``'s rows written one at a time through ``csv.writer``:
    the reference for ``write_sets``."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(
        ["row"] + [f"p_{label}" for label in labels] + ["set", "set_size", "value"]
        + (["oracle_value"] if oracle is not None else [])
    )
    for r, (row, mask, value) in enumerate(zip(post, members, values)):
        chosen = np.flatnonzero(mask)
        record = (
            [str(r + 1)]
            + [format_float(v) for v in row.tolist()]
            + [";".join(labels[i] for i in chosen), str(chosen.size), format_float(value)]
        )
        if oracle is not None:
            record.append(format_float(oracle[r]))
        writer.writerow(record)


def write_sets(fh, labels, post, members, values, oracle=None):
    """``classify``'s header and rows through ``dataset``'s writer, the
    rows in one block and no metadata line."""
    block = (post, members, values, oracle)
    assert dataset.write_sets(fh, labels, None, [block], oracle is not None) == len(post)


def written(write, *args):
    buf = io.StringIO(newline="")
    write(buf, *args)
    return buf.getvalue()


def read_csv_rows(path):
    with open(path, newline="") as fh:
        lines = [l for l in fh if not l.startswith("#")]
    return list(csv.DictReader(lines))


#: Block lengths, in rows, at which the query reader is checked: one row,
#: blocks that split a small file, and ``classify``'s blocks at 8 categories.
BLOCK_ROWS = (1, 2, 3, cli._BLOCK_ELEMENTS // 8)


def read_observations(path, feature_names, rows=BLOCK_ROWS[-1]):
    """The blocks of ``dataset.observation_blocks`` stacked into one matrix;
    each block has at least one row and at most ``rows``."""
    blocks = list(dataset.observation_blocks(path, feature_names, rows))
    assert all(1 <= block.shape[0] <= rows for block in blocks)
    return np.concatenate(blocks)


def reference_read_observations(path, feature_names):
    """The query matrix read row by row through ``load_dataset``'s header
    and row parsers, from the file opened as ``load_dataset`` opens it: the
    reference for ``read_observations``."""

    def feature_columns(header):
        names = [h.strip() for h in header]
        missing = sorted(set(feature_names) - set(names))
        if missing:
            raise SchemaError(f"missing feature column(s): {', '.join(missing)}")
        return [names.index(name) for name in feature_names]

    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        header = dataset.read_header(reader)
        parsed = dataset._data_rows(reader, len(header), feature_columns(header))
        rows = [values for _, _, values in parsed]
    if not rows:
        raise SchemaError("no observation rows")
    return np.asarray(rows, dtype=float)


def read_outcome(read, path, feature_names=("x1", "x2"), *args):
    """The matrix's shape and bytes, or the error's type and message."""
    try:
        points = read(path, feature_names, *args)
    except Exception as exc:  # the same failure, whatever it is
        return type(exc), str(exc)
    return points.shape, points.dtype, points.tobytes()


def run_pinned_and_free(argvs):
    """Run the CLI calls ``argvs("pinned")`` in a child process pinned to
    one CPU, so the density kernel and the leave-one-out categories run
    in one thread, then ``argvs("free")`` in an unpinned child, which runs
    one worker per CPU.  Skips where the affinity cannot be set, or on
    one CPU, where the unpinned child would run one worker too."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("the CPU affinity cannot be set on this platform")
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("one CPU: the unpinned child would run one worker too")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = ("import json, os, sys\n"
             "if sys.argv[1]:\n"
             "    os.sched_setaffinity(0, {int(sys.argv[1])})\n"
             "from setbayes.cli import main\n"
             "sys.exit(max(main(argv) for argv in json.loads(sys.argv[2])))\n")
    for tag, pin in (("pinned", str(cpus[0])), ("free", "")):
        try:
            subprocess.run([sys.executable, "-c", child, pin, json.dumps(argvs(tag))],
                           env=env, check=True, capture_output=True, timeout=300)
        except subprocess.CalledProcessError as exc:
            if pin and b"sched_setaffinity" in exc.stderr:
                pytest.skip("the CPU affinity cannot be set here")
            raise


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        spec = tmp_path / "gen.json"
        spec.write_text(json.dumps(SPEC))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", "--spec", str(spec), "--out", str(a), "--seed", "4"])
        main(["synth", "--spec", str(spec), "--out", str(b), "--seed", "4"])
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.csv"
        main(["synth", "--spec", str(spec), "--out", str(c), "--seed", "5"])
        assert a.read_bytes() != c.read_bytes()

    def test_bad_spec_exits_2(self, tmp_path):
        spec = tmp_path / "gen.json"
        spec.write_text('{"categories": "nope"}')
        out = tmp_path / "d.csv"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        spec.write_text("{invalid json")
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2

    #: Edits of ``SPEC``, of its second category or its top level, each
    #: refused with what the message names.
    SPEC_EDITS = {
        "count 2.7": (lambda s: s["categories"][1].update(count=2.7), "'count'"),
        "count true": (lambda s: s["categories"][1].update(count=True), "'count'"),
        "count '3'": (lambda s: s["categories"][1].update(count="3"), "'count'"),
        "null label": (lambda s: s["categories"][1].update(label=None), "'label'"),
        "null block": (lambda s: s["categories"][1].update(block=None), "'block'"),
        "feature_names 'xy'": (lambda s: s.update(feature_names="xy"), "'feature_names'"),
        "colour": (lambda s: s["categories"][1].update(colour="red"), "'colour'"),
        "cuont": (lambda s: s["categories"][1].update(cuont=s["categories"][1].pop("count")),
                  "'cuont'"),
        "NaN mean": (lambda s: s["categories"][1].update(mean=[float("nan"), 0.0]),
                     "category 2: mean and covariance must be finite"),
        "NaN cov": (lambda s: s["categories"][1].update(cov=[[1.0, float("nan")], [float("nan"), 1.0]]),
                    "category 2: mean and covariance must be finite"),
        "infinite mean": (lambda s: s["categories"][1].update(mean=[0.0, float("inf")]),
                          "category 2: mean and covariance must be finite"),
        "negative count": (lambda s: s["categories"][1].update(count=-1),
                           "category 2: negative count -1"),
        "count 10**15": (lambda s: s["categories"][1].update(count=10**15),
                         f"category 2: count {10**15} above 1000000"),
        "no categories": (lambda s: s.update(categories=[]), "generator spec has no categories"),
    }

    @pytest.mark.parametrize("edit", SPEC_EDITS)
    def test_bad_spec_field_exits_2_naming_it(self, tmp_path, capsys, edit):
        """A field of the wrong JSON type, an unknown field or a value that
        is not finite is malformed input, named in the message, and writes
        no dataset."""
        change, named = self.SPEC_EDITS[edit]
        obj = json.loads(json.dumps(SPEC))
        change(obj)
        spec, out = tmp_path / "gen.json", tmp_path / "d.csv"
        spec.write_text(json.dumps(obj))
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestFit:
    def test_draws_no_sample(self, workspace, monkeypatch, capsys):
        """The model file holds the hyperparameters, ``n_draws`` and the
        seed, so ``fit`` draws no sample, and still refuses ``--draws 0``."""
        tmp_path, _, data, model = workspace
        monkeypatch.setattr(gaussian, "draw_category_sample", must_not_run("draw_category_sample"))
        again = tmp_path / "again.json"
        assert main(["fit", "--data", str(data), "--out", str(again),
                     "--draws", "80", "--seed", "2"]) == 0
        assert again.read_bytes() == model.read_bytes()
        capsys.readouterr()
        assert main(["fit", "--data", str(data), "--out", str(again), "--draws", "0"]) == 3
        assert capsys.readouterr().err == "error: need at least one draw, got 0\n"

    def test_prints_category_table(self, workspace, capsys):
        tmp_path, spec, data, model = workspace
        main(["fit", "--data", str(data), "--out", str(model),
              "--draws", "80", "--seed", "2"])
        out = capsys.readouterr().out
        for label in ("near", "mid", "far"):
            assert label in out
        assert "30" in out

    def test_model_file_shape(self, workspace):
        _, _, _, model = workspace
        obj = json.loads(model.read_text())
        assert obj["format"] == "setbayes-model-file"
        assert obj["labels"] == ["near", "mid", "far"]
        assert obj["block_names"] == ["low", "high"]
        assert obj["counts"] == [30, 14, 22]

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["fit", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "m.json")]) == 3

    def test_non_finite_value_names_its_line(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x,label\n0.0,a\nnan,a\n1.0,b\n2.0,b\n")
        assert main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 2
        assert "line 3: feature values must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, message", [
        (b"1.5, ,q", "empty label"), (b"1.5,b, ", "empty block"),
        (b"\xff1.5,b,q", "byte 0xff is not UTF-8"),
    ], ids=["empty label", "empty block", "not UTF-8"])
    def test_malformed_row_past_8_kb_names_its_line(self, tmp_path, capsys, bad, message):
        """An empty label or block, or a byte that is not UTF-8, on line 701
        of a dataset, past the first 8 KB that Python decodes at once, is
        malformed input named with its line."""
        lines = [b"x,label,block"] + [f"{i + 0.123456789!r},{'ab'[i % 2]},q".encode()
                                      for i in range(800)]
        lines[700] = bad
        assert len(b"\n".join(lines[:700])) > 8192
        data = tmp_path / "d.csv"
        data.write_bytes(b"\n".join(lines) + b"\n")
        assert main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 2
        assert f"line 701: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("line, text", [
        (1, "x," + "l" * 200_000), (3, "0.5," + "a" * 200_000),
    ], ids=["header", "label"])
    def test_oversized_field_names_its_line(self, tmp_path, capsys, line, text):
        """A field longer than the csv module's limit of 131,072 characters,
        in the header or a label, is malformed input, not a traceback."""
        lines = ["x,label", "0.0,a", "1.0,b", "2.0,b"]
        lines[line - 1] = text
        data = tmp_path / "d.csv"
        data.write_text("\n".join(lines) + "\n")
        assert main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 2
        assert f"line {line}: field larger than field limit (131072)" in capsys.readouterr().err


class TestClassify:
    def probes(self, tmp_path):
        f = tmp_path / "probe.csv"
        f.write_text("x1,x2\n0.0,0.1\n2.2,1.1\n4.8,4.0\n")
        return f

    def test_output_columns(self, workspace):
        tmp_path, _, _, model = workspace
        out = tmp_path / "sets.csv"
        rc = main(["classify", "--model", str(model), "--data", str(self.probes(tmp_path)),
                   "--reward", '{"kind": "proportion", "c": 0.3}', "--out", str(out)])
        assert rc == 0
        rows = read_csv_rows(out)
        assert len(rows) == 3
        for row in rows:
            total = sum(float(row[f"p_{s}"]) for s in ("near", "mid", "far"))
            assert total == pytest.approx(1.0, abs=1e-9)
            assert int(row["set_size"]) == len(row["set"].split(";"))
        # the far probe point should clearly classify as far
        assert rows[2]["set"] == "far"

    def test_oracle_column_matches_value(self, workspace):
        tmp_path, _, _, model = workspace
        out = tmp_path / "sets.csv"
        main(["classify", "--model", str(model), "--data", str(self.probes(tmp_path)),
              "--reward", '{"kind": "map"}', "--out", str(out), "--oracle"])
        for row in read_csv_rows(out):
            assert float(row["value"]) == pytest.approx(
                float(row["oracle_value"]), abs=1e-12
            )

    def test_oracle_searches_the_indifference_zone(self, workspace):
        """The zone category is the model's last, ``far``: the far probe
        gets the empty set, the others a singleton, and the exhaustive
        search writes each row's value bytes."""
        tmp_path, _, _, model = workspace
        out = tmp_path / "sets.csv"
        assert main(["classify", "--model", str(model), "--data", str(self.probes(tmp_path)),
                     "--reward", '{"kind": "indifference_zone", "r": 0.5}', "--out", str(out),
                     "--oracle"]) == 0
        rows = read_csv_rows(out)
        assert [row["set_size"] for row in rows] == ["1", "1", "0"]
        assert [row["oracle_value"] for row in rows] == [row["value"] for row in rows]

    def test_reward_from_file(self, workspace):
        tmp_path, _, _, model = workspace
        rw = tmp_path / "reward.json"
        rw.write_text('{"kind": "composite", "a": 0.1, "b": 0.4}')
        out = tmp_path / "sets.csv"
        rc = main(["classify", "--model", str(model), "--data", str(self.probes(tmp_path)),
                   "--reward", f"@{rw}", "--out", str(out)])
        assert rc == 0
        # metadata embeds the parsed reward, never the file path
        first = out.read_text().splitlines()[0]
        assert str(rw) not in first
        assert '"kind": "composite"' in first

    def test_explicit_prior(self, workspace):
        tmp_path, _, _, model = workspace
        out = tmp_path / "sets.csv"
        rc = main(["classify", "--model", str(model), "--data", str(self.probes(tmp_path)),
                   "--reward", '{"kind": "map"}', "--prior", "[0.2, 0.3, 0.5]",
                   "--out", str(out)])
        assert rc == 0

    def test_error_exit_codes(self, workspace, capsys):
        tmp_path, _, _, model = workspace
        probe = self.probes(tmp_path)
        out = tmp_path / "sets.csv"
        base = ["classify", "--model", str(model), "--data", str(probe), "--out", str(out)]
        assert main(base + ["--reward", "{bad"]) == 2
        assert main(base + ["--reward", '{"kind": "nope"}']) == 2
        for malformed in ('{"kind": "proportion", "c": [1]}',
                          '{"kind": "penalty", "g": 5}',
                          '{"kind": "ripley", "r": null}',
                          '{"kind": "penalty", "g": [0, 0, 1, 1], "convex": "no"}',
                          '{"kind": "proportion", "c": 0.2, "cc": 9}',
                          '{"kind": "penalty", "g": [0, 0, 0.5, 1], "convx": true}'):
            assert main(base + ["--reward", malformed]) == 2
        assert main(base + ["--reward", '{"kind": "map"}', "--prior", "[0.5, 0.5]"]) == 3
        capsys.readouterr()
        assert main(base + ["--reward", '{"kind": "map"}', "--prior", "[0.7, 0.7, 0.7, 0.7]"]) == 3
        assert main(base + ["--reward", '{"kind": "map"}', "--prior", "[0.7, 0.7, 0.7]"]) == 3
        assert capsys.readouterr().err == (
            "error: prior has shape (4,), expected (3,)\n"
            "error: prior sums to 2.0999999999999996, expected 1\n"
        )
        for malformed in ("notjson", '{"a": 1}', "[[0.5, 0.5]]", "[null, 1, 1]",
                          "[true, false, true]", '"flat"'):
            assert main(base + ["--reward", '{"kind": "map"}', "--prior", malformed]) == 2
        bad_probe = tmp_path / "bad.csv"
        bad_probe.write_text("z1,z2\n0,0\n")
        assert main(["classify", "--model", str(model), "--data", str(bad_probe),
                     "--reward", '{"kind": "map"}', "--out", str(out)]) == 2

    @pytest.mark.parametrize("value, code, where", [
        ("nan", 2, "line 3:"), ("inf", 2, "line 3:"), ("-inf", 2, "line 3:"),
        ("1e200", 3, "row 2"),
    ])
    def test_unusable_query_values_name_their_row(self, workspace, capsys, value, code, where):
        tmp_path, _, _, model = workspace
        probe = tmp_path / "probe.csv"
        probe.write_text(f"x1,x2\n0.0,0.1\n{value},1.0\n4.8,4.0\n")
        rc = main(["classify", "--model", str(model), "--data", str(probe),
                   "--reward", '{"kind": "map"}', "--out", str(tmp_path / "sets.csv")])
        assert rc == code
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["x1,x1,x2", "x2,x1, x1"])
    def test_query_header_naming_a_feature_twice_is_refused(self, workspace, capsys, header):
        tmp_path, _, _, model = workspace
        probe = tmp_path / "probe.csv"
        probe.write_text(f"{header}\n0.0,0.1,0.2\n")
        out = tmp_path / "sets.csv"
        rc = main(["classify", "--model", str(model), "--data", str(probe),
                   "--reward", '{"kind": "map"}', "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: duplicate header column(s): x1\n"
        assert not out.exists()

    def test_query_header_may_repeat_a_column_it_does_not_read(self, workspace):
        tmp_path, _, _, model = workspace
        probe = tmp_path / "probe.csv"
        probe.write_text("note,x1,x2,note\na,0.0,0.1,b\n")
        assert main(["classify", "--model", str(model), "--data", str(probe),
                     "--reward", '{"kind": "map"}', "--out", str(tmp_path / "sets.csv")]) == 0

    def test_blas_thread_count_leaves_the_csv_unchanged(self, workspace):
        """``classify`` run in child processes with one and with two BLAS
        threads writes the same bytes.  The chunks (262 rows of 2000
        draws) are large enough for the BLAS to split their products
        across threads."""
        tmp_path, _, data, _ = workspace
        model = tmp_path / "big.json"
        assert main(["fit", "--data", str(data), "--out", str(model),
                     "--draws", "2000", "--seed", "2"]) == 0
        points = 2.0 + 2.0 * np.random.default_rng(5).standard_normal((501, 2))
        probe = tmp_path / "many.csv"
        probe.write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in points.tolist()))
        src = str(Path(cli.__file__).resolve().parents[1])
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"sets{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run(
                [sys.executable, "-m", "setbayes.cli", "classify", "--model", str(model),
                 "--data", str(probe), "--reward", '{"kind": "proportion", "c": 0.2}',
                 "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            written.append(out.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("switch, env", SWITCHES)
    def test_blas_kernel_and_simd_dispatch_keep_the_sets(self, workspace, switch, env):
        """``classify`` run in a child under another OpenBLAS kernel, or
        with numpy's AVX-512 loops off, chooses the sets of a child
        without the switch.  Its posteriors and values rest on the density
        GEMM's and numpy's ``exp`` bits, so they may move in the last
        digits: by at most 2.1e-14 relative on the classify benchmarks'
        seed-101 inputs under four kernels, the bound here.  Skips where
        the switch changes nothing."""
        tmp_path, _, _, model = workspace
        points = 2.0 + 2.0 * np.random.default_rng(8).standard_normal((300, 2))
        probe = tmp_path / "probe.csv"
        probe.write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in points.tolist()))
        run_switched(switch, env, lambda tag: [
            "classify", "--model", str(model), "--data", str(probe),
            "--reward", '{"kind": "proportion", "c": 0.2}', "--out", str(tmp_path / f"{tag}.csv")])
        base, other = (read_csv_rows(tmp_path / f"{tag}.csv") for tag in ("default", switch))
        assert [(r["set"], r["set_size"]) for r in other] == [(r["set"], r["set_size"]) for r in base]
        columns = [f"p_{label}" for label in ("near", "mid", "far")] + ["value"]
        for row, moved in zip(base, other):
            assert [float(moved[c]) for c in columns] == pytest.approx(
                [float(row[c]) for c in columns], rel=2.1e-14, abs=0)

    def test_one_row_query_gets_its_batch_line(self, workspace):
        """Each row of a 40-row query file, classified from a file of its
        own, gets the line it gets in the whole file, after the row
        number."""
        tmp_path, _, _, model = workspace
        points = 2.0 + 2.0 * np.random.default_rng(11).standard_normal((40, 2))
        rows = [f"{a!r},{b!r}\n" for a, b in points.tolist()]

        def classify(name, rows):
            query, out = tmp_path / f"{name}.csv", tmp_path / f"{name}-sets.csv"
            query.write_text("x1,x2\n" + "".join(rows))
            assert main(["classify", "--model", str(model), "--data", str(query),
                         "--reward", '{"kind": "proportion", "c": 0.2}', "--out", str(out)]) == 0
            lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
            return [line.split(",", 1)[1] for line in lines[1:]]

        batch = classify("all", rows)
        assert len(batch) == 40
        for i, row in enumerate(rows):
            assert classify(f"row{i + 1}", [row]) == [batch[i]], f"row {i + 1}"

    def test_bad_prior_fails_before_any_density(self, workspace, monkeypatch):
        tmp_path, _, _, model = workspace
        monkeypatch.setattr(cli, "posterior_matrix", must_not_run("posterior_matrix"))
        assert main(["classify", "--model", str(model), "--data", str(self.probes(tmp_path)),
                     "--reward", '{"kind": "map"}', "--prior", "[0.2, 0.3, 0.6]",
                     "--out", str(tmp_path / "sets.csv")]) == 3

    @pytest.mark.parametrize("reward, limit, message", [
        ('{"kind": "map"}', 2, "3 categories exceed the enumeration limit 2"),
    ])
    def test_oracle_refusal_fails_before_any_density(self, workspace, monkeypatch, capsys,
                                                     reward, limit, message):
        tmp_path, _, _, model = workspace
        monkeypatch.setattr(classifiers, "BRUTE_FORCE_LIMIT", limit)
        monkeypatch.setattr(cli, "posterior_matrix", must_not_run("posterior_matrix"))
        out = tmp_path / "sets.csv"
        assert main(["classify", "--model", str(model), "--data", str(self.probes(tmp_path)),
                     "--reward", reward, "--out", str(out), "--oracle"]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_penalty_of_wrong_length_fails_before_any_density(self, workspace, monkeypatch,
                                                              capsys):
        tmp_path, _, _, model = workspace
        monkeypatch.setattr(cli, "posterior_matrix", must_not_run("posterior_matrix"))
        out = tmp_path / "sets.csv"
        assert main(["classify", "--model", str(model), "--data", str(self.probes(tmp_path)),
                     "--reward", '{"kind": "penalty", "g": [0, 0.5]}', "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: penalty covers sizes 0..1, need 0..3\n"
        assert not out.exists()

    def test_importing_the_cli_loads_no_scipy(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import setbayes.cli, sys; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            env=env, check=True, capture_output=True, text=True, timeout=120,
        ).stdout
        assert loaded == "[]\n"

    def test_rejects_wrong_model_format(self, workspace):
        tmp_path, _, _, _ = workspace
        fake = tmp_path / "fake.json"
        fake.write_text('{"format": "other"}')
        out = tmp_path / "sets.csv"
        assert main(["classify", "--model", str(fake), "--data", str(self.probes(tmp_path)),
                     "--reward", '{"kind": "map"}', "--out", str(out)]) == 2

    def test_oversized_query_field_names_its_line(self, workspace, capsys):
        """A 200,000-digit value, longer than the csv module's field limit,
        fails loadtxt's checks, and the row reader then names its line: a
        malformed input that writes no file."""
        tmp_path, _, _, model = workspace
        queries, out = tmp_path / "q.csv", tmp_path / "sets.csv"
        queries.write_text("x1,x2\n1.0,2.0\n" + "1" * 200_000 + ",2.0\n")
        assert main(["classify", "--model", str(model), "--data", str(queries),
                     "--reward", '{"kind": "map"}', "--out", str(out)]) == 2
        assert "line 3: field larger than field limit (131072)" in capsys.readouterr().err
        assert not out.exists()


    def test_byte_not_utf8_past_8_kb_names_its_line(self, workspace, monkeypatch, capsys):
        """A byte that is not UTF-8 on line 701 of a query file, past the
        first 8 KB that Python decodes at once, is malformed input named
        with its line, whether loadtxt's blocks or the row reader meet it,
        and writes no file."""
        tmp_path, _, _, model = workspace
        points = 2.0 + 2.0 * np.random.default_rng(7).standard_normal((800, 2))
        lines = [b"x1,x2"] + [f"{a!r},{b!r}".encode() for a, b in points.tolist()]
        lines[700] = b"\xff" + lines[700]
        assert len(b"\n".join(lines[:700])) > 8192
        queries, out = tmp_path / "q.csv", tmp_path / "sets.csv"
        queries.write_bytes(b"\n".join(lines) + b"\n")
        for budget in (3, cli._BLOCK_ELEMENTS):  # one row a block, or the whole file
            monkeypatch.setattr(cli, "_BLOCK_ELEMENTS", budget)
            assert main(["classify", "--model", str(model), "--data", str(queries),
                         "--reward", '{"kind": "map"}', "--out", str(out)]) == 2
            assert "line 701: byte 0xff is not UTF-8" in capsys.readouterr().err
            assert not out.exists()


class TestClassifyBlocks:
    """``classify`` reads, scores, decides and writes its query file in
    blocks of ``cli._BLOCK_ELEMENTS // categories`` rows, and its report
    appears only once the last block is written."""

    REWARD = '{"kind": "proportion", "c": 0.2}'

    def queries(self, tmp_path, kind, rows=40, seed=17):
        """A query file of ``rows`` points: plain numbers, or the same
        numbers beside label and block columns, which the row reader
        reads, or with row 17's second value a quoted record over two
        lines."""
        points = (2.0 + 2.0 * np.random.default_rng(seed).standard_normal((rows, 2))).tolist()
        header, lines = "x1,x2", [f"{a!r},{b!r}" for a, b in points]
        if kind == "label and block columns":
            header = "x1,label,x2,block"
            lines = [f"{a!r},c{i % 3},{b!r},b{i % 2}" for i, (a, b) in enumerate(points)]
        elif kind == "quoted record":
            lines[16] = f'{points[16][0]!r},"{points[16][1]!r}\n"'
        path = tmp_path / f"{kind.replace(' ', '-')}-{rows}.csv"
        path.write_text("\n".join([header, *lines]) + "\n")
        return path

    def classify(self, model, queries, out, *extra):
        return main(["classify", "--model", str(model), "--data", str(queries),
                     "--reward", self.REWARD, "--out", str(out), *extra])

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["sets", "oracle"])
    def test_bytes_do_not_depend_on_the_block(self, workspace, monkeypatch, oracle):
        """Blocks of one row, of 7 rows and the default give one report,
        whichever reader reads the rows, also where a quoted record spans
        two blocks."""
        tmp_path, _, _, model = workspace
        out = tmp_path / "sets.csv"
        assert self.classify(model, self.queries(tmp_path, "numbers"), out, *oracle) == 0
        expected = out.read_bytes()
        assert expected.count(b"\n") == 42
        for budget in (3, 21, cli._BLOCK_ELEMENTS):
            monkeypatch.setattr(cli, "_BLOCK_ELEMENTS", budget)
            for kind in ("numbers", "label and block columns", "quoted record"):
                out.unlink()
                assert self.classify(model, self.queries(tmp_path, kind), out, *oracle) == 0
                assert out.read_bytes() == expected, (budget, kind)

    def test_memory_is_set_by_the_block(self, workspace, monkeypatch):
        """With blocks of 64 rows, the peak of a whole call under
        ``tracemalloc`` grows by at most 16 bytes a row from 1,000 query
        rows to 4,000 (it shrank in the runs seen); reading every row
        before scoring one grows by several hundred bytes a row."""
        tmp_path, _, _, model = workspace
        monkeypatch.setattr(cli, "_BLOCK_ELEMENTS", 3 * 64)
        peaks = []
        for rows in (1000, 4000):
            queries, out = self.queries(tmp_path, "numbers", rows), tmp_path / f"sets-{rows}.csv"
            assert self.classify(model, queries, out) == 0  # the float tables are built on first use
            tracemalloc.start()
            try:
                assert self.classify(model, queries, out) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 16 * 3000

    @pytest.mark.parametrize("last, code, message", [
        ("0.5,x", 2, "line 42: could not convert string to float: 'x'"),
        ("1e200,1.0", 3, "every category has zero posterior mass at row 41"),
    ], ids=["malformed", "no mass"])
    @pytest.mark.parametrize("earlier", [False, True], ids=["new", "existing"])
    def test_error_in_the_last_row_leaves_the_report_path_as_it_was(
        self, workspace, monkeypatch, capsys, last, code, message, earlier
    ):
        """An error in the last of 41 rows keeps its exit code and names
        its line or row in the file, in any block, and leaves no report
        and no temporary file: a new ``--out`` is not created, an existing
        one keeps its bytes."""
        tmp_path, _, _, model = workspace
        queries = self.queries(tmp_path, "numbers")
        queries.write_text(queries.read_text() + last + "\n")
        out = tmp_path / "sets.csv"
        if earlier:
            out.write_bytes(b"earlier report\n")
        before = sorted(tmp_path.iterdir())
        for budget in (3, 21, cli._BLOCK_ELEMENTS):
            monkeypatch.setattr(cli, "_BLOCK_ELEMENTS", budget)
            capsys.readouterr()
            assert self.classify(model, queries, out) == code
            assert capsys.readouterr().err == f"error: {message}\n"
            assert sorted(tmp_path.iterdir()) == before
            assert out.read_bytes() == b"earlier report\n" if earlier else not out.exists()

    def test_out_may_name_the_query_file(self, workspace, monkeypatch):
        """The report replaces the query file only after its last block was
        read, also when the blocks are single rows."""
        tmp_path, _, _, model = workspace
        queries = self.queries(tmp_path, "numbers")
        assert self.classify(model, queries, tmp_path / "sets.csv") == 0
        monkeypatch.setattr(cli, "_BLOCK_ELEMENTS", 3)
        assert self.classify(model, queries, queries) == 0
        assert queries.read_bytes() == (tmp_path / "sets.csv").read_bytes()


class TestReportsAppearComplete:
    """Every command writes its reports through ``dataset.open_reports``: a
    write that fails half-way leaves each report path as it was and no
    temporary file, and exits 3 as any failed write does."""

    @pytest.mark.parametrize("command", ["synth", "fit", "classify", "tune", "conformal"])
    def test_failed_write_leaves_the_earlier_reports(self, workspace, monkeypatch, capsys,
                                                     command):
        tmp_path, spec, data, model = workspace
        out, curve, selection = tmp_path / "out", tmp_path / "curve.csv", tmp_path / "sel.json"
        argv = TestUnwritableOutput().argvs(workspace, curve, selection, out)[command]
        for path in (out, curve, selection):
            path.write_bytes(b"earlier " + path.name.encode())
        before = sorted(tmp_path.iterdir())
        calls = []

        def half_written(write):
            def failing(*args, **kwargs):
                calls.append(1)
                if len(calls) == 2:
                    raise OSError("No space left on device")
                return write(*args, **kwargs)
            return failing

        if command == "synth":  # one call per value: fails in the first row
            monkeypatch.setattr(dataset, "format_float", half_written(dataset.format_float))
        elif command == "classify":  # one call per block of one row, after the first is written
            monkeypatch.setattr(cli, "_BLOCK_ELEMENTS", 3)
            monkeypatch.setattr(dataset, "set_cells", half_written(dataset.set_cells))
        else:
            # the second JSON report; tune writes its curve, then its selection
            def dump(obj, fh, **kwargs):
                fh.write(json.dumps(obj, **kwargs)[:40])
                raise OSError("No space left on device")
            monkeypatch.setattr(json, "dump", dump)
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: No space left on device\n"
        assert sorted(tmp_path.iterdir()) == before
        for path in (out, curve, selection):
            assert path.read_bytes() == b"earlier " + path.name.encode()

    def test_reports_replace_earlier_files(self, workspace):
        """A second run of each command replaces its reports with the same
        bytes as the first wrote, and leaves no other file."""
        tmp_path, spec, data, model = workspace
        out, curve, selection = tmp_path / "out", tmp_path / "curve.csv", tmp_path / "sel.json"
        for command, argv in TestUnwritableOutput().argvs(workspace, curve, selection, out).items():
            assert main(argv) == 0
            paths = (curve, selection) if command == "tune" else (out,)
            first = [path.read_bytes() for path in paths]
            before = sorted(tmp_path.iterdir())
            assert main(argv) == 0
            assert [path.read_bytes() for path in paths] == first
            assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_is_written_in_place(self, tmp_path):
        """A path that is not a regular file, such as a pipe, cannot be
        replaced, so it is written directly."""
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        with dataset.open_reports(fifo) as (fh,):
            fh.write("report\n")
        reader.join(timeout=30)
        assert got == [b"report\n"]
        assert sorted(tmp_path.iterdir()) == [fifo]

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    @pytest.mark.parametrize("command", ["classify", "conformal"])
    def test_dev_null_is_written_in_place(self, workspace, command):
        tmp_path = workspace[0]
        argv = TestUnwritableOutput().argvs(workspace, None, None, "/dev/null")[command]
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 0
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_stdout_pipe_is_written_in_place(self, workspace):
        """``--out /dev/stdout`` writes into the pipe that stdout is, whose
        link target is no path a file could be staged beside."""
        tmp_path = workspace[0]
        argv = TestUnwritableOutput().argvs(workspace, None, None, "/dev/stdout")["classify"]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "setbayes.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300, cwd=tmp_path)
        assert (done.returncode, done.stderr) == (0, "")
        assert main([*argv[:-1], str(tmp_path / "sets.csv")]) == 0
        report = (tmp_path / "sets.csv").read_text()
        rows = len(report.splitlines()) - 2  # after the metadata and header lines
        assert done.stdout == report + f"classified {rows} observations -> /dev/stdout\n"

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    @pytest.mark.parametrize("command", ["classify", "conformal"])
    def test_stdout_redirected_to_a_file_keeps_the_printed_lines(self, workspace, command):
        """``--out /dev/stdout`` with stdout sent to a file, as a shell's
        ``>`` sends it, writes the report in place through stdout's own
        file offset: the file keeps its inode and holds the report whole
        and the lines the command prints, before the report or after it
        as stdout's buffering decides."""
        tmp_path = workspace[0]
        argvs = TestUnwritableOutput().argvs
        argv = argvs(workspace, None, None, "/dev/stdout")[command]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        redirected = tmp_path / "redirected.txt"
        redirected.write_text("earlier\n")
        inode = redirected.stat().st_ino
        with open(redirected, "w") as stdout:
            done = subprocess.run([sys.executable, "-m", "setbayes.cli", *argv], env=env,
                                  stdout=stdout, stderr=subprocess.PIPE, text=True,
                                  timeout=300, cwd=tmp_path)
        assert (done.returncode, done.stderr) == (0, "")
        assert redirected.stat().st_ino == inode
        report = tmp_path / "report"
        again = subprocess.run([sys.executable, "-m", "setbayes.cli",
                                *argvs(workspace, None, None, report)[command]],
                               env=env, capture_output=True, text=True, timeout=300,
                               cwd=tmp_path, check=True)
        printed = again.stdout.replace(str(report), "/dev/stdout")
        assert printed
        report = report.read_text()
        assert redirected.read_text() in (report + printed, printed + report)

    def test_a_link_stays_a_link(self, tmp_path):
        target, link = tmp_path / "report.json", tmp_path / "link.json"
        target.write_text("earlier\n")
        link.symlink_to(target)
        with dataset.open_reports(link) as (fh,):
            fh.write("new\n")
        assert link.is_symlink() and target.read_text() == "new\n"
        assert sorted(tmp_path.iterdir()) == [link, target]


#: Query files, as bytes, that the two readers must read alike.
QUERY_FILES = {
    "lf": b"x1,x2\n1.5,2\n-3e-2,4\n",
    "crlf": b"x1,x2\r\n1.5,2\r\n-3e-2,4\r\n",
    "cr": b"x1,x2\r1.5,2\r-3e-2,4\r",
    "mixed endings": b"x1,x2\r\n1,2\r3,4\n5,6",
    "blank rows": b"x1,x2\n\n1,2\n\n\n3,4\n\n",
    "whitespace-only rows": b"x1,x2\n1,2\n   \n\t\n3,4\n",
    "comments before the header": b"# {\"seed\": 1}\n  # more\nx1,x2\n1,2\n",
    "comment after the header": b"x1,x2\n# note\n1,2\n",
    "comment after a row": b"x1,x2\n1,2\n# note\n",
    "quoted numbers": b'x1,x2\n"1.5","2"\n3,"4"\n',
    "quoted header": b'"x1","x2"\n1,2\n',
    "underscores": b"x1,x2\n1_0,2\n",
    "non-ASCII digits": "x1,x2\n\u0661\u0662,2\n".encode(),
    "non-ASCII whitespace": "x1,x2\n\u00a01,2\u3000\n".encode(),
    "ASCII separator before": b"x1,x2\n\x1c1,2\n",
    "ASCII separator after": b"x1,x2\n1,2\x1f\n",
    "spaces around values": b" x1 , x2 \n 1 , 2 \n\t3\t,\v4\f\n",
    "number forms": b"x1,x2\n+1.5,-.5e-3\n1E5,5.\n0.1,0.30000000000000004\n",
    "hex": b"x1,x2\n0x10,1\n",
    "nan": b"x1,x2\n1,2\nnan,2\n",
    "inf": b"x1,x2\n1,2\n3,inf\n",
    "-Infinity": b"x1,x2\n-Infinity,2\n",
    "1e400": b"x1,x2\n1e400,2\n",
    "nan outside the features": b"x1,x2,w\n1,2,nan\n",
    "ragged short": b"x1,x2\n1,2\n3\n",
    "ragged long": b"x1,x2\n1,2\n3,4,5\n",
    "every row wider than the header": b"x1,x2\n1,2,3\n4,5,6\n",
    "every row narrower than the header": b"x1,x2,x3\n1,2\n4,5\n",
    "trailing comma": b"x1,x2\n1,2,\n",
    "trailing comma in the header too": b"x1,x2,\n1,2,\n3,4,\n",
    "empty field": b"x1,x2\n,2\n",
    "label column": b"x1,label,x2\n1,a,2\n3,b,4\n",
    "numeric label column": b"x1,label,x2\n1,7,2\n3,8,4\n",
    "reordered columns": b"x2,x1\n1,2\n3,4\n",
    "header only": b"x1,x2\n",
    "header and blank rows": b"x1,x2\n\n\r\n",
    "single row": b"x1,x2\n1,2\n",
    "no final line end": b"x1,x2\n1,2\n3,4",
    "one column": b"x1\n1\n\n2.5\n",
    "empty file": b"",
    "comments only": b"# a\n# b\n",
    "missing column": b"x1,x3\n1,2\n",
    "invalid UTF-8 in a row": b"x1,x2\n1,2\n\xff,3\n",
    "NUL in a row": b"x1,x2\n1\x00,2\n",
}

#: The feature columns read from a file of ``QUERY_FILES``, where not x1 and x2.
QUERY_FEATURES = {"one column": ("x1",)}

#: Fields and extra lines the generated query files are made of.
FIELDS = ["1", "-2.5", "3e-3", " 4 ", "+.5", "1e400", "nan", "-inf", "1_0", '"5"', "",
          "a", "\u0661", "\x1c6", "\u00a07", "0x1"]
EXTRA_LINES = ["", "  ", "\t", "# note"]


@st.composite
def query_files(draw):
    """A small query file: a comment line or none, a header with at most
    one extra column, then rows of mostly numbers, with any line ending."""
    header = draw(st.sampled_from([["x1", "x2"], ["x2", "x1"], ["x1", "x2", "label"],
                                   ["w", "x1", "x2"]]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    numbers = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    lines = ["# note"] * draw(st.integers(0, 1)) + [",".join(header)]
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(EXTRA_LINES)))
            continue
        width = len(header) if draw(st.integers(0, 7)) else draw(st.integers(1, 4))
        field = st.one_of(numbers, st.sampled_from(FIELDS)) if draw(st.booleans()) else numbers
        lines.append(",".join(draw(field) for _ in range(width)))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return text.encode()


class TestReadObservations:
    """``dataset.observation_blocks`` reads every file as the row reader
    does, in blocks of any length: the same matrix bytes, or the same
    error."""

    @pytest.mark.parametrize("name", QUERY_FILES)
    def test_matches_the_row_reader(self, tmp_path, name):
        path = tmp_path / "queries.csv"
        path.write_bytes(QUERY_FILES[name])
        names = QUERY_FEATURES.get(name, ("x1", "x2"))
        expected = read_outcome(reference_read_observations, path, names)
        for rows in BLOCK_ROWS:
            assert read_outcome(read_observations, path, names, rows) == expected, rows

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(query_files())
    def test_generated_files_match_the_row_reader(self, tmp_path, data):
        path = tmp_path / "queries.csv"
        path.write_bytes(data)
        expected = read_outcome(reference_read_observations, path)
        for rows in BLOCK_ROWS:
            assert read_outcome(read_observations, path, ("x1", "x2"), rows) == expected, rows

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("name", ["lf", "quoted numbers", "ragged short"])
    def test_a_pipe_is_read_once(self, tmp_path, name):
        """A named pipe yields its bytes once, so the row reader must parse
        what the fast path read rather than open the path again."""
        regular, fifo = tmp_path / "queries.csv", tmp_path / "queries.fifo"
        regular.write_bytes(QUERY_FILES[name])
        os.mkfifo(fifo)
        got = {}
        threads = [
            threading.Thread(target=fifo.write_bytes, args=(QUERY_FILES[name],), daemon=True),
            threading.Thread(daemon=True, target=lambda: got.update(
                outcome=read_outcome(read_observations, fifo, ("x1", "x2"), 1))),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        # a second open of the pipe waits for a writer that never comes
        assert not threads[1].is_alive(), "the pipe was opened twice"
        assert got["outcome"] == read_outcome(reference_read_observations, regular)

    def test_benchmark_shaped_file_never_reaches_the_row_reader(self, tmp_path, monkeypatch):
        """Every block of a file that loadtxt parses, whole blocks and the
        last short one, is C-ordered and read without the row reader."""
        points = 2.0 + 2.0 * np.random.default_rng(7).standard_normal((3000, 3))
        path = tmp_path / "queries.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x1", "x2", "x3"])
            writer.writerows([repr(float(v)) for v in row] for row in points)
        names = ("x1", "x2", "x3")
        expected = reference_read_observations(path, names)

        def row_reader(*args):
            pytest.fail("the row reader read a file that loadtxt parses")

        monkeypatch.setattr(dataset, "_data_rows", row_reader)
        for rows in (7, 3000, 4096):
            blocks = list(dataset.observation_blocks(path, names, rows))
            sizes = [rows] * (3000 // rows) + ([3000 % rows] if 3000 % rows else [])
            assert [b.shape[0] for b in blocks] == sizes
            assert all(b.flags.c_contiguous and b.shape[1] == 3 for b in blocks)
            got = np.concatenate(blocks)
            assert got.tobytes() == expected.tobytes() == points.tobytes()

    def test_fallback_counts_lines_from_the_start_of_the_file(self, tmp_path):
        """The row reader takes over at the first block loadtxt refuses, and
        its errors name lines of the file, also where a comment and a
        quoted record that spans two lines come before the error."""
        lines = ["# queries", '"x1","x2"'] + [f"{i}.5,{i}" for i in range(12)]
        lines += ['7,"8', '"', "1,2", "3,x"]
        path = tmp_path / "queries.csv"
        path.write_text("\n".join(lines) + "\n")
        for rows in BLOCK_ROWS:
            with pytest.raises(SchemaError, match="^line 18: could not convert string to float: 'x'$"):
                read_observations(path, ("x1", "x2"), rows)
        path.write_text("\n".join(lines[:-1]) + "\n")
        for rows in BLOCK_ROWS:
            got = read_observations(path, ("x1", "x2"), rows)
            assert got.tobytes() == reference_read_observations(path, ("x1", "x2")).tobytes()
            assert got[-2:].tolist() == [[7.0, 8.0], [1.0, 2.0]]


class TestByteOrderMark:
    """A UTF-8 byte-order mark, which spreadsheets write at the start of
    "CSV UTF-8" files, is not part of the first column's name."""

    BOM = b"\xef\xbb\xbf"

    def test_training_file(self, workspace):
        tmp_path, _, data, model = workspace
        text = data.read_bytes()
        assert text.startswith(b"# ")
        uncommented = text.split(b"\n", 1)[1]
        for name, content in [("commented", text), ("uncommented", uncommented)]:
            path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            path.write_bytes(self.BOM + content)
            assert main(["fit", "--data", str(path), "--out", str(out),
                         "--draws", "80", "--seed", "2"]) == 0
            assert out.read_bytes() == model.read_bytes()

    @pytest.mark.parametrize("comment", [False, True])
    @pytest.mark.parametrize("quoted", [False, True], ids=["loadtxt", "row-reader"])
    def test_query_file(self, workspace, comment, quoted):
        tmp_path, _, _, model = workspace
        points = np.random.default_rng(5).uniform(-1.0, 6.0, size=(30, 2)).tolist()
        q = '"' if quoted else ""  # loadtxt refuses a quoted number
        lines = ["# queries"] * comment + ["x1,x2"] + [f"{q}{a!r}{q},{b!r}" for a, b in points]
        text = "\n".join(lines).encode() + b"\n"
        written_sets = []
        for name, content in [("plain", text), ("marked", self.BOM + text)]:
            path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}-sets.csv"
            path.write_bytes(content)
            assert main(["classify", "--model", str(model), "--data", str(path),
                         "--reward", '{"kind": "proportion", "c": 0.3}', "--out", str(out)]) == 0
            written_sets.append(out.read_bytes())
        assert written_sets[0] == written_sets[1]
        assert written_sets[0].count(b"\n") == 32


class TestSetsWriter:
    LABELS = ("plain", 'say "hi"', "a,b", "naïve β")
    SUBNORMALS = (5e-324, 2.225073858507201e-308)

    def inputs(self, rows, seed=0):
        """Rows 2-5 hold exact zeros and ones, subnormals and ``repr``'s
        layout switch points; the rest are random."""
        rng = np.random.default_rng(seed)
        post = rng.dirichlet(np.ones(len(self.LABELS)), size=rows)
        post[2] = [1.0, 0.0, 0.0, 0.0]
        post[3] = [0.0, *self.SUBNORMALS, 1.0]
        post[4] = [1e-05, 0.0001, 0.2, 0.79989]
        members = rng.random(post.shape) < 0.4
        members[0] = False
        members[1] = True
        members[3] = [False, False, False, True]
        values = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, size=rows)
        values[2:6] = [0.0, 1.0, self.SUBNORMALS[0], 9999999999999998.0]
        return post, members, values

    @pytest.mark.parametrize("oracle", [False, True])
    def test_matches_per_row_reference(self, oracle):
        post, members, values = self.inputs(50)
        extra = (values[::-1],) if oracle else ()
        args = (self.LABELS, post, members, values, *extra)
        text = written(write_sets, *args)
        assert text == written(reference_write_sets, *args)
        assert '"say ""hi""' in text and '"a,b' in text
        assert ",,0," in text  # row 1's empty set is an empty field
        assert "\n4,0.0,5e-324,2.225073858507201e-308,1.0,naïve β,1,1.0" in text

    def test_negative_oracle_column(self):
        post, members, values = self.inputs(40, seed=2)
        oracle = -np.abs(values)
        oracle[:3] = [-0.0, -self.SUBNORMALS[1], -1e16]
        args = (self.LABELS, post, members, values, oracle)
        text = written(write_sets, *args)
        assert text == written(reference_write_sets, *args)
        assert ",-0.0\n" in text and ",-2.225073858507201e-308\n" in text and ",-1e+16\n" in text

    def test_rows_cross_block_boundaries(self, monkeypatch):
        """A block is ``_FORMAT_CHUNK // floats per row`` rows and at least
        one: one-row blocks, blocks that split the 10 rows, and one block
        exactly as long as the rows.  The oracle column, a sixth float per
        row beside the four posteriors and the value, changes the block.
        No rows give the header alone."""
        post, members, values = self.inputs(10, seed=1)
        passes = []
        format_floats = dataset.format_floats

        def recorded(floats):
            passes.append(floats.size)
            return format_floats(floats)

        monkeypatch.setattr(dataset, "format_floats", recorded)
        for chunk, oracle, expected in [
            (3, False, [5] * 10),
            (6, True, [6] * 10),
            (15, False, [15, 15, 15, 5]),
            (15, True, [12] * 5),
            (50, False, [50]),
            (60, True, [60]),
            (61, True, [60]),
        ]:
            monkeypatch.setattr(dataset, "_FORMAT_CHUNK", chunk)
            args = (self.LABELS, post, members, values) + ((values[::-1],) if oracle else ())
            passes.clear()
            assert written(write_sets, *args) == written(reference_write_sets, *args)
            assert passes == expected, (chunk, oracle)
        empty = (self.LABELS, post[:0], members[:0], values[:0])
        assert written(write_sets, *empty) == written(reference_write_sets, *empty)

    def test_rows_are_numbered_across_blocks(self):
        """One call writes the metadata line, the header and every block's
        rows, numbered on from the block before, also where the numbers
        grow a digit within or between blocks and where a block is empty,
        and returns the row count: the text of one block of every row."""
        post, members, values = self.inputs(120, seed=4)
        oracle = values[::-1]
        metadata = {"command": "classify", "note": "naïve"}
        buf = io.StringIO(newline="")
        bounds = [0, 5, 9, 9, 10, 98, 101, 120]
        blocks = [(post[a:b], members[a:b], values[a:b], oracle[a:b])
                  for a, b in zip(bounds, bounds[1:])]
        assert dataset.write_sets(buf, self.LABELS, metadata, blocks, True) == 120
        first, rest = buf.getvalue().split("\n", 1)
        assert first == "# " + json.dumps(metadata, sort_keys=True)
        assert rest == written(reference_write_sets, self.LABELS, post, members, values, oracle)

    def test_memory_is_set_by_the_chunk(self, monkeypatch):
        """With the chunk at 2**8 floats, the writer's peak under
        ``tracemalloc`` grows by at most 64 bytes a row from 1,000 rows to
        4,000 (about 19 measured): the grouping of rows by set, not the
        text.  One block for every row would grow by about 2,300."""
        monkeypatch.setattr(dataset, "_FORMAT_CHUNK", 2**8)
        peaks = []
        with open(os.devnull, "w", encoding="utf-8") as sink:
            for rows in (1000, 4000):
                post, members, values = self.inputs(rows, seed=3)
                args = (sink, self.LABELS, None, [(post, members, values, values[::-1])], True)
                dataset.write_sets(*args)  # the float tables are built on first use
                tracemalloc.start()
                try:
                    dataset.write_sets(*args)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 64 * 3000

    @pytest.mark.parametrize("n_labels", [3, 8, 9, 70])
    def test_sets_are_grouped_as_unique_groups_them(self, n_labels):
        """``set_cells`` numbers the distinct sets as ``np.unique`` over
        the packed rows does, with one cell row per set, whether the
        membership rows pack into one byte or nine, also where sets share
        every byte but the last."""
        rng = np.random.default_rng(n_labels)
        pool = rng.random((12, n_labels)) < 0.3
        pool[0], pool[1] = False, True
        pool[6:] = pool[:6]
        pool[6:, -1] ^= True  # pairs of sets that differ in their last byte alone
        members = pool[rng.integers(0, len(pool), size=500)]
        packed = np.packbits(members, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, which = np.unique(keys, return_index=True, return_inverse=True)
        labels = [f"c{i}" for i in range(n_labels)]
        cells, got = dataset.set_cells(members, labels)
        assert np.array_equal(got, which.ravel())
        assert cells.shape[0] == len(first)
        for k, r in enumerate(first):
            text = cells[k].tobytes().replace(dataset.FILL, b"").decode()
            chosen = np.flatnonzero(members[r])
            assert text == f",{';'.join(labels[i] for i in chosen)},{chosen.size}"

    def test_classify_file_matches_reference(self, tmp_path):
        spec = {
            "feature_names": ["x1", "x2"],
            "categories": [
                {"label": label, "block": "all", "count": 12,
                 "mean": [2.0 * i, 0.5 * i], "cov": [[1.0, 0.0], [0.0, 1.0]]}
                for i, label in enumerate(self.LABELS)
            ],
        }
        (tmp_path / "gen.json").write_text(json.dumps(spec))
        data, model, out = tmp_path / "data.csv", tmp_path / "model.json", tmp_path / "sets.csv"
        assert main(["synth", "--spec", str(tmp_path / "gen.json"), "--out", str(data)]) == 0
        assert main(["fit", "--data", str(data), "--out", str(model), "--draws", "30"]) == 0
        points = np.random.default_rng(3).uniform(-1.0, 7.0, size=(40, 2))
        probe = tmp_path / "probe.csv"
        probe.write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in points.tolist()))
        # a convex penalty of 0.6 per member: rows whose top probability is
        # below 0.6 get the empty set
        reward = {"kind": "penalty", "g": [0.0, 0.6, 1.2, 1.8, 2.4], "convex": True}
        assert main(["classify", "--model", str(model), "--data", str(probe),
                     "--reward", json.dumps(reward), "--prior", "flat",
                     "--out", str(out), "--oracle"]) == 0

        bundle = cli._ModelFile(json.loads(model.read_text()))
        post = gaussian.posterior_matrix(bundle.model, np.full(4, 0.25), points)
        rspec = cli.reward_spec_from_json(reward)
        members, values = classifiers.optimal_sets(rspec, post, bundle.model.space)
        oracle = [classifiers.brute_force_optimal(rspec, PosteriorVector(p, bundle.model.space)).value
                  for p in post]
        assert bundle.labels == list(self.LABELS)
        assert (~members.any(axis=1)).any()
        _, rows = out.read_text(encoding="utf-8").split("\n", 1)
        assert rows == written(reference_write_sets, bundle.labels, post, members, values, oracle)


class TestTune:
    def tune_args(self, data, curve, selection, seed="3"):
        return ["tune", "--data", str(data), "--out-curve", str(curve),
                "--out-selection", str(selection), "--epsilon", "1.0",
                "--delta", "0.1", "--grid-lo", "0.1", "--grid-hi", "1.5",
                "--grid-step", "0.1", "--draws", "60", "--seed", seed]

    def test_outputs(self, workspace):
        tmp_path, _, data, _ = workspace
        curve = tmp_path / "curve.csv"
        selection = tmp_path / "sel.json"
        assert main(self.tune_args(data, curve, selection)) == 0
        rows = read_csv_rows(curve)
        assert len(rows) == 15
        assert list(rows[0].keys()) == ["b", "rate_R1", "rate_R2", "rate_R3", "rate_R4"]
        for row in rows:
            rates = [float(row[k]) for k in ("rate_R1", "rate_R2", "rate_R3", "rate_R4")]
            assert all(a <= b for a, b in zip(rates, rates[1:]))
        sel = json.loads(selection.read_text())
        assert set(sel["selection"]["threshold"]) == {"R3", "R4"}
        assert set(sel["selection"]["minimize"]) == {"R1", "R2"}

    def test_no_feasible_cost_is_recorded(self, tmp_path, capsys):
        """An outlier of category a inside category b's cloud, a alone in
        its block, holds a held-out posterior for a far below every grid
        cost, so its set misses a's block at every cost.  Its non-reward
        is 1/41 of the rate, above ``--delta``, so both threshold rules
        find no feasible cost: stdout says so and the selection records
        a null cost with the reason."""
        rng = np.random.default_rng(5)
        rows = [(x, "a", "left") for x in rng.normal(0.0, 1.0, 20).tolist()]
        rows += [(x, "b", "right") for x in rng.normal(12.0, 1.0, 20).tolist()]
        rows.append((12.0, "a", "left"))
        data, curve, selection = tmp_path / "d.csv", tmp_path / "c.csv", tmp_path / "s.json"
        data.write_text("x,label,block\n" + "".join(f"{x!r},{a},{b}\n" for x, a, b in rows))
        assert main(self.tune_args(data, curve, selection) + ["--delta", "0.01"]) == 0
        printed = capsys.readouterr().out
        threshold = json.loads(selection.read_text())["selection"]["threshold"]
        for name in ("R3", "R4"):
            assert f"{name} threshold rule: no feasible cost" in printed
            assert threshold[name] == {
                "selected_b": None,
                "note": "no grid cost keeps the non-reward rate within 0.01",
            }

    def test_rerun_into_fresh_directory_is_byte_identical(self, workspace):
        tmp_path, _, data, _ = workspace
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        d1.mkdir(), d2.mkdir()
        main(self.tune_args(data, d1 / "c.csv", d1 / "s.json"))
        main(self.tune_args(data, d2 / "c.csv", d2 / "s.json"))
        assert (d1 / "c.csv").read_bytes() == (d2 / "c.csv").read_bytes()
        assert (d1 / "s.json").read_bytes() == (d2 / "s.json").read_bytes()

    def test_blas_thread_count_leaves_the_outputs_unchanged(self, workspace):
        """``tune`` run in child processes with one and with two BLAS
        threads writes the same curve and selection bytes.  At 2000 draws
        the full fit's density product (66 rows by 2000 draws) is large
        enough for the BLAS to split it across threads."""
        tmp_path, _, data, _ = workspace
        src = str(Path(cli.__file__).resolve().parents[1])
        written = []
        for threads in ("1", "2"):
            curve, selection = tmp_path / f"c{threads}.csv", tmp_path / f"s{threads}.json"
            args = self.tune_args(data, curve, selection)
            args[args.index("--draws") + 1] = "2000"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "setbayes.cli", *args],
                           env=env, check=True, capture_output=True, timeout=300)
            written.append((curve.read_bytes(), selection.read_bytes()))
        assert written[0] == written[1]

    def test_cpu_affinity_leaves_the_outputs_unchanged(self, workspace):
        """``tune`` run in a child process pinned to one CPU, so its three
        categories' folds run in one thread, writes the same curve and
        selection bytes as in an unpinned child, whose folds run on one
        worker per CPU, up to one per category."""
        tmp_path, _, data, _ = workspace
        run_pinned_and_free(lambda tag: [
            self.tune_args(data, tmp_path / f"c-{tag}.csv", tmp_path / f"s-{tag}.json")
        ])
        for name in ("c-{}.csv", "s-{}.json"):
            assert ((tmp_path / name.format("pinned")).read_bytes()
                    == (tmp_path / name.format("free")).read_bytes())

    @pytest.mark.parametrize("switch, env", SWITCHES)
    def test_blas_kernel_and_simd_dispatch_keep_the_rates(self, workspace, switch, env):
        """``tune`` run in a child under another OpenBLAS kernel, or with
        numpy's AVX-512 loops off, writes the curve bytes, the threshold
        selections and the non-reward rates of a child without the switch.
        The minimum rule's cost is the float just above a fold's interval
        end, and that end rests on the density GEMM's posterior bits, so it
        may move in the last digits: by at most 2.1e-15 relative on the
        tune-warbler benchmark's seeds 101-110 under four kernels, here
        bounded by 1e-12.  Skips where the switch changes nothing."""
        tmp_path, _, data, _ = workspace
        run_switched(switch, env, lambda tag: self.tune_args(
            data, tmp_path / f"c-{tag}.csv", tmp_path / f"s-{tag}.json"))
        assert (tmp_path / "c-default.csv").read_bytes() == (tmp_path / f"c-{switch}.csv").read_bytes()
        base, other = (json.loads((tmp_path / f"s-{tag}.json").read_text())["selection"]
                       for tag in ("default", switch))
        assert base["threshold"] == other["threshold"]
        for name, sel in base["minimize"].items():
            moved = other["minimize"][name]
            assert sel["non_reward_rate"] == moved["non_reward_rate"]
            for key in ("selected_b", "within_cost"):
                assert moved[key] == pytest.approx(sel[key], rel=1e-12, abs=0)

    def test_tiny_category_exits_4(self, tmp_path):
        data = tmp_path / "tiny.csv"
        data.write_text("x,label\n0.0,a\n1.0,a\n0.5,b\n")
        assert main(self.tune_args(data, tmp_path / "c.csv", tmp_path / "s.json")) == 4

    def test_rarity_without_frequencies_exits_3(self, workspace):
        tmp_path, _, data, _ = workspace
        args = self.tune_args(data, tmp_path / "c.csv", tmp_path / "s.json")
        assert main(args + ["--weights", "rarity"]) == 3

    @pytest.mark.parametrize("extra", [
        ["--threads", "0"], ["--threads", "-1"], ["--prior", "[0.7, 0.7, 0.7]"],
        ["--prior", "[1.2, -0.1, -0.1]"],
        ["--weights", "rarity", "--real-prior", "[0.5, 0.5]"],
        ["--weights", "rarity", "--real-prior", "[0.5, -0.5, 1.0]"],
    ])
    def test_bad_threads_or_prior_exits_3(self, workspace, extra):
        tmp_path, _, data, _ = workspace
        args = self.tune_args(data, tmp_path / "c.csv", tmp_path / "s.json")
        assert main(args + extra) == 3

    @pytest.mark.parametrize("extra", [
        ["--delta", "0"], ["--grid-step", "0"], ["--grid-lo", "0"], ["--epsilon", "-1"],
        ["--grid-hi", "inf"], ["--grid-step", "nan"],
        ["--prior", "[0.7, 0.7, 0.7]"],
        ["--weights", "per_category", "--real-prior", "[0.2, 0.3, 0.5]"],
        ["--grid-hi", "1e9", "--grid-step", "1e-9"],
        ["--threads", "0"], ["--threads", "-1"], ["--seed", "-1"],
    ])
    def test_bad_setting_fails_before_any_fold(self, workspace, monkeypatch, extra):
        tmp_path, _, data, _ = workspace
        monkeypatch.setattr(cli, "loocv_posteriors", must_not_run("loocv_posteriors"))
        args = self.tune_args(data, tmp_path / "c.csv", tmp_path / "s.json")
        assert main(args + extra) == 3

    def test_overflowing_within_cost_exits_3_before_any_fold(self, workspace, monkeypatch, capsys):
        """An epsilon whose product with the grid's top is not finite is a
        bad value, refused before any fold, with no warning and no file;
        such a within cost is not a JSON number."""
        tmp_path, _, data, _ = workspace
        monkeypatch.setattr(cli, "loocv_posteriors", must_not_run("loocv_posteriors"))
        curve, selection = tmp_path / "c.csv", tmp_path / "s.json"
        args = self.tune_args(data, curve, selection)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(args + ["--epsilon", "1e308", "--grid-lo", "2", "--grid-hi", "4"])
        assert rc == 3 and caught == []
        assert "epsilon 1e+308 times the grid's top 4.0 overflows" in capsys.readouterr().err
        assert not curve.exists() and not selection.exists()

    @pytest.mark.parametrize("extra", [
        ["--real-prior", "5"], ["--real-prior", "[null, 1]"], ["--real-prior", "notjson"],
        ["--prior", '{"a": 1}'], ["--prior", "[[0.5, 0.5]]"], ["--prior", "uniform"],
    ])
    def test_malformed_prior_lists_exit_2(self, workspace, extra):
        tmp_path, _, data, _ = workspace
        args = self.tune_args(data, tmp_path / "c.csv", tmp_path / "s.json")
        assert main(args + extra) == 2


class TestConformal:
    def test_report_and_rerun(self, workspace, capsys):
        tmp_path, _, _, model = workspace
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["conformal", "--model", str(model), "--delta", "0.1",
                "--samples", "2000", "--seed", "9", "--audit",
                "--audit-samples", "2000"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert 0.0 <= report["cost"] <= 1.0
        assert 0.8 <= report["coverage"] <= 1.0
        printed = capsys.readouterr().out
        assert "conformal cost" in printed

    def test_prior_without_mass_on_two_categories(self, workspace):
        """A prior of zero on two of the three categories samples neither:
        every calibration and audit draw comes from the first, whose
        posterior is then 1, so the cost and the coverage are 1."""
        tmp_path, _, _, model = workspace
        out = tmp_path / "r.json"
        assert main(["conformal", "--model", str(model), "--delta", "0.1", "--prior", "[1, 0, 0]",
                     "--samples", "500", "--audit", "--audit-samples", "500", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert (report["cost"], report["coverage"]) == (1.0, 1.0)

    def test_cpu_affinity_leaves_the_outputs_unchanged(self, workspace):
        """``conformal`` and ``classify`` run in a child process pinned to
        one CPU, so the density kernel runs in one thread, write the same
        bytes as in an unpinned child, whose kernel runs one worker per
        CPU (up to the budget's shares).  Both commands' density calls
        span five chunks of up to 819 rows at 80 draws, enough for two
        workers."""
        tmp_path, _, _, model = workspace
        points = 2.0 + 2.0 * np.random.default_rng(7).standard_normal((4000, 2))
        probe = tmp_path / "many.csv"
        probe.write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in points.tolist()))
        run_pinned_and_free(lambda tag: [
            ["conformal", "--model", str(model), "--delta", "0.1", "--samples", "4000",
             "--seed", "9", "--audit", "--audit-samples", "4000",
             "--out", str(tmp_path / f"report-{tag}.json")],
            ["classify", "--model", str(model), "--data", str(probe),
             "--reward", '{"kind": "proportion", "c": 0.2}',
             "--out", str(tmp_path / f"sets-{tag}.csv")],
        ])
        for name in ("report-{}.json", "sets-{}.csv"):
            assert ((tmp_path / name.format("pinned")).read_bytes()
                    == (tmp_path / name.format("free")).read_bytes())

    def test_delta_out_of_range_exits_3(self, workspace):
        tmp_path, _, _, model = workspace
        base = ["conformal", "--model", str(model), "--samples", "2000"]
        assert main(base + ["--delta", "1.5"]) == 3
        for audit_samples in ("0", "-1"):
            assert main(base + ["--delta", "0.1", "--audit",
                                "--audit-samples", audit_samples]) == 3

    @pytest.mark.parametrize("delta", ["1.5", "0", "nan"])
    def test_bad_delta_fails_before_sampling(self, workspace, monkeypatch, capsys, delta):
        tmp_path, _, _, model = workspace
        monkeypatch.setattr(gaussian, "sample_mixture", must_not_run("sample_mixture"))
        assert main(["conformal", "--model", str(model), "--delta", delta,
                     "--samples", "200000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: delta {float(delta)} outside (0, 1)\n"

    @pytest.mark.parametrize("audit_samples", ["0", "-1"])
    def test_bad_audit_samples_fail_before_calibration(
        self, workspace, monkeypatch, capsys, audit_samples
    ):
        tmp_path, _, _, model = workspace
        monkeypatch.setattr(cli, "calibrate_conformal_cost", must_not_run("calibration"))
        assert main(["conformal", "--model", str(model), "--delta", "0.1", "--audit",
                     "--audit-samples", audit_samples]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: need at least one audit sample, got {audit_samples}\n"

    @pytest.mark.parametrize("option, samples", [("--samples", "calibration"),
                                                 ("--audit-samples", "audit")])
    def test_too_many_samples_exit_3_before_sampling(self, workspace, monkeypatch, capsys,
                                                     option, samples):
        tmp_path, _, _, model = workspace
        out = tmp_path / "report.json"
        monkeypatch.setattr(gaussian, "sample_mixture", must_not_run("sample_mixture"))
        assert main(["conformal", "--model", str(model), "--delta", "0.1", "--audit",
                     option, str(10**15), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: need at most 1000000 {samples} samples, got {10**15}\n"
        assert not out.exists()


class TestJsonInputs:
    @pytest.mark.parametrize("option", ["--spec", "--model", "--reward @file"])
    def test_byte_not_utf8_names_file_and_line(self, workspace, capsys, option):
        """A byte that is not UTF-8 in a JSON input is malformed input, with
        the file and the byte's line named, and writes no report."""
        tmp_path, spec, data, model = workspace
        reward = tmp_path / "reward.json"
        reward.write_text('{\n  "kind": "map"\n}\n')
        path = {"--spec": spec, "--model": model, "--reward @file": reward}[option]
        lines = json.dumps(json.loads(path.read_text()), indent=2).encode().split(b"\n")
        lines[1] = lines[1].replace(b'"', b'"\xff', 1)
        path.write_bytes(b"\n".join(lines))
        out = tmp_path / "out.csv"
        argv = {
            "--spec": ["synth", "--spec", str(spec), "--out", str(out)],
            "--model": ["classify", "--model", str(model), "--data", str(data),
                        "--reward", '{"kind": "map"}', "--out", str(out)],
            "--reward @file": ["classify", "--model", str(model), "--data", str(data),
                               "--reward", f"@{reward}", "--out", str(out)],
        }[option]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: line 2: byte 0xff is not UTF-8\n"
        assert not out.exists()


class TestModelFileFields:
    @pytest.mark.parametrize("field, value", [
        ("n_draws", 2.7), ("n_draws", True), ("n_draws", "80"), ("n_draws", 0),
        ("n_draws", gaussian.MAX_DRAWS + 1), ("n_draws", None),
        ("seed", -1), ("seed", 2.0), ("seed", False), ("seed", None),
        ("dim", 7), ("dim", 2.0), ("dim", None),
    ])
    def test_bad_field_exits_2_before_any_draw(self, workspace, monkeypatch, capsys,
                                               field, value):
        """A hand-edited model file is refused with the field named (a
        ``None`` value drops the field), before any draw is made."""
        def change(bundle):
            bundle["model"].pop(field)
            if value is not None:
                bundle["model"][field] = value
        self.refused_before_any_draw(workspace, monkeypatch, capsys, change, f"'{field}'")

    #: Edits of a model file's first category and of the bundle around the
    #: model, each refused with what the message names.
    EDITS = {
        "mean '12'": (lambda b: b["model"]["categories"][0].update(mean="12"), "'mean'"),
        "kappa true": (lambda b: b["model"]["categories"][0].update(kappa=True), "'kappa'"),
        "kapa": (lambda b: b["model"]["categories"][0].update(kapa=1.0), "'kapa'"),
        "labels 'ab'": (lambda b: b.update(labels="ab"), "'labels'"),
        "unknown key": (lambda b: b.update(note="edited"), "'note'"),
        "two labels": (lambda b: b.update(labels=["near", "mid"]),
                       "label list does not match the model's categories"),
        "block sizes": (lambda b: b["model"].update(block_sizes=[2, 2]),
                        "model categories do not match the block sizes"),
        "extra count": (lambda b: b["counts"].append(5), "'counts'"),
        "extra feature name": (lambda b: b["feature_names"].append("z"), "'feature_names'"),
    }

    @pytest.mark.parametrize("edit", EDITS)
    def test_bad_category_or_bundle_field_exits_2_before_any_draw(
        self, workspace, monkeypatch, capsys, edit
    ):
        self.refused_before_any_draw(workspace, monkeypatch, capsys, *self.EDITS[edit])

    @pytest.mark.parametrize("field, value", [
        ("mean", [float("nan"), 0.0]), ("kappa", float("nan")), ("kappa", float("inf")),
        ("dof", float("nan")), ("dof", float("inf")), ("dof", float("-inf")),
    ])
    def test_non_finite_hyperparameter_exits_3_before_any_draw(
        self, workspace, monkeypatch, capsys, field, value
    ):
        """Python's ``json`` reads ``NaN`` and ``Infinity``, which
        ``json.dumps`` writes here; a category holding one is refused as
        out of range, before any draw, rather than giving the category
        zero posterior on every row (a NaN ``kappa``) or a zero-mass error
        (an infinite ``dof``)."""
        self.refused_before_any_draw(
            workspace, monkeypatch, capsys,
            lambda b: b["model"]["categories"][0].update({field: value}),
            "hyperparameters must be finite", code=3,
        )

    def refused_before_any_draw(self, workspace, monkeypatch, capsys, change, named, code=2):
        """``classify`` and ``conformal`` exit ``code`` on the model file as
        ``change`` edits it, naming ``named``, before any draw is made."""
        tmp_path, _, data, model = workspace
        bundle = json.loads(model.read_text())
        change(bundle)
        model.write_text(json.dumps(bundle))
        monkeypatch.setattr(gaussian, "draw_category_sample", must_not_run("draw_category_sample"))
        capsys.readouterr()
        for argv in (
            ["classify", "--model", str(model), "--data", str(data),
             "--reward", '{"kind": "map"}', "--out", str(tmp_path / "sets.csv")],
            ["conformal", "--model", str(model), "--delta", "0.1"],
        ):
            assert main(argv) == code
            assert named in capsys.readouterr().err


class TestUnwritableOutput:
    """Every output path is checked before any input is read: a missing
    directory, a symbolic link into one, or a path naming a directory,
    exits 3 with the path named, and no output file is created."""

    def argvs(self, workspace, curve, selection, out):
        tmp_path, spec, data, model = workspace
        return {
            "synth": ["synth", "--spec", str(spec), "--out", str(out)],
            "fit": ["fit", "--data", str(data), "--out", str(out)],
            "classify": ["classify", "--model", str(model), "--data", str(data),
                         "--reward", '{"kind": "map"}', "--out", str(out)],
            "tune": ["tune", "--data", str(data), "--out-curve", str(curve),
                     "--out-selection", str(selection), "--draws", "20"],
            "conformal": ["conformal", "--model", str(model), "--delta", "0.1",
                          "--samples", "200", "--out", str(out)],
        }

    @pytest.mark.parametrize("command, bad", [
        ("synth", "out"), ("fit", "out"), ("classify", "out"),
        ("tune", "curve"), ("tune", "selection"), ("conformal", "out"),
    ])
    @pytest.mark.parametrize("where", ["missing directory", "a directory",
                                       "link into a missing directory"])
    def test_exits_3_before_any_input(self, workspace, monkeypatch, capsys,
                                      command, bad, where):
        tmp_path = workspace[0]
        paths = {name: tmp_path / f"new-{name}" for name in ("curve", "selection", "out")}
        paths[bad], reason = {
            "missing directory": (tmp_path / "missing" / "file", "No such file or directory"),
            "a directory": (tmp_path, "Is a directory"),
            "link into a missing directory": (tmp_path / "link", "No such file or directory"),
        }[where]
        if where == "link into a missing directory":
            paths[bad].symlink_to(tmp_path / "missing" / "file")
        argv = self.argvs(workspace, **paths)[command]
        for name in ("load_dataset", "_read_json", "posterior_matrix", "loocv_posteriors",
                     "calibrate_conformal_cost"):
            monkeypatch.setattr(cli, name, must_not_run(name))
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {paths[bad]}: {reason}\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_conformal_without_out_checks_nothing(self, workspace, capsys):
        model = workspace[3]
        assert main(["conformal", "--model", str(model), "--delta", "0.1",
                     "--samples", "200"]) == 0
        assert "conformal cost" in capsys.readouterr().out


class TestArgparseBehavior:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["synth", "fit", "conformal"])
    def test_negative_seed_exits_3_before_any_input(self, workspace, monkeypatch, capsys,
                                                    command):
        tmp_path, spec, data, model = workspace
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", "--spec", str(spec)],
            "fit": ["fit", "--data", str(data)],
            "conformal": ["conformal", "--model", str(model), "--delta", "0.1"],
        }[command]
        for name in ("load_dataset", "_read_json"):
            monkeypatch.setattr(cli, name, must_not_run(name))
        assert main(argv + ["--out", str(out), "--seed", "-1"]) == 3
        assert not out.exists()
        assert capsys.readouterr().err == "error: --seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("command", ["fit", "tune"])
    def test_too_many_draws_exit_3_before_any_input(self, workspace, monkeypatch, capsys,
                                                    command):
        """``--draws`` above ``MAX_DRAWS`` (patched down to 50 here) exits 3
        before the data is read; ``MAX_DRAWS`` itself is accepted."""
        tmp_path, _, data, _ = workspace
        argv = {
            "fit": ["fit", "--data", str(data), "--out", str(tmp_path / "out.json")],
            "tune": ["tune", "--data", str(data), "--out-curve", str(tmp_path / "curve.csv"),
                     "--out-selection", str(tmp_path / "selection.json"), "--grid-step", "0.5"],
        }[command]
        monkeypatch.setattr(cli, "MAX_DRAWS", 50)
        assert main(argv + ["--draws", "50"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "load_dataset", must_not_run("load_dataset"))
        assert main(argv + ["--draws", "51"]) == 3
        assert capsys.readouterr().err == "error: --draws must be at most 50, got 51\n"

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "synth" in capsys.readouterr().out

    def test_command_help_shows_the_defaults(self, capsys):
        assert main(["tune", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())  # unwrapped
        assert f"--draws DRAWS Monte Carlo draws per fold, at most {gaussian.MAX_DRAWS} " \
               "(default: 200)" in text
