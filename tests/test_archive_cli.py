import contextlib
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerlab import cli
from wignerlab import localwindow as lw
from wignerlab import orthopoly as op
from wignerlab.archive import MAGIC, Archive, ArchiveFormatError, load_archive, save_archive
from wignerlab.cli import main
from wignerlab.ensemble import EnsembleConfig, ou_evolve, sample_gue, sample_stream, sample_wigner
from wignerlab.generate import generate_archive
from wignerlab.spectral import eigenvalues


# (file name, bytes) of archives that load_archive must reject
MALFORMED = [
    ("nan.csv", b"3,2,gue\n-1,nan,1\n-1,0,1\n"),
    ("tie.csv", b"3,2,gue\n-1,0,0\n-1,0,1\n"),
    ("inf.csv", b"3,2,gue\n-inf,0,1\n-1,0,1\n"),
    ("short.bin", b"WLAB1\x01\x00"),
    ("text.csv", b"2,1,x\na,b\n"),
    ("emptycell.csv", b"3,1,x\n1,,2\n"),
    ("latin1.csv", b"2,1,caf\xe9\n0,1\n"),
    ("odd.bin", MAGIC + struct.pack("<QQ", 1, 1) + b"\x00" * 7),
    ("empty.bin", MAGIC + struct.pack("<QQ", 0, 5)),
    ("huge.bin", MAGIC + struct.pack("<QQ", 0, 2**64 - 1)),
    ("norows.csv", b"3,0,x\n"),
]

# (file name, bytes, loaded data or error message) of CSV inputs that the
# loadtxt parse and the row loop must treat alike
CSV_PARITY = [
    ("comment.csv", b"2,1,x\n# note\n0,1\n", "line 2: non-numeric value"),
    ("blank.csv", b"2,2,x\n0,1\n   \n2,3\n", np.array([[0.0, 1.0], [2.0, 3.0]])),
    ("crlf.csv", b"2,2,x\r\n0,1\r\n2,3\r\n", np.array([[0.0, 1.0], [2.0, 3.0]])),
    ("underscore.csv", b"2,1,x\n1_0,2_0\n", np.array([[10.0, 20.0]])),
    ("trailing.csv", b"2,1,x\n0,1,\n", "line 2: non-numeric value"),
    ("single.csv", b"1,3,x\n0.1\n0.2\n-0.05\n", np.array([[0.1], [0.2], [-0.05]])),
    ("promise.csv", b"2,3,x\n0,1\n2,3\n", "header promised 3 samples, file has 2"),
]

# arbitrary bytes, CSV-like text, and .bin headers with small or arbitrary dimensions
dimension = st.one_of(st.integers(0, 3), st.integers(0, 2**64 - 1))
fuzz_bytes = st.one_of(
    st.binary(max_size=64),
    st.text(alphabet="0123456789,.-+einfa \n\r\x00\xe9", max_size=64).map(lambda t: t.encode("utf-8")),
    st.builds(lambda n, s, body: MAGIC + struct.pack("<QQ", n, s) + body,
              dimension, dimension, st.binary(max_size=48)),
)


def sorted_rows(samples, n):
    return (
        st.lists(
            st.lists(st.floats(-1e3, 1e3, allow_nan=False, width=64), min_size=n, max_size=n, unique=True),
            min_size=samples,
            max_size=samples,
        )
        .map(lambda rows: np.sort(np.asarray(rows, dtype=float), axis=1))
    )


class TestArchiveIO:
    @settings(max_examples=25, deadline=None)
    @given(data=sorted_rows(3, 5), label=st.text(st.characters(min_codepoint=32, max_codepoint=126)))
    def test_csv_roundtrip(self, tmp_path_factory, data, label):
        path = tmp_path_factory.mktemp("arc") / "a.csv"
        arc = Archive(N=5, label=label, data=data)
        save_archive(arc, str(path))
        back = load_archive(str(path))
        assert back.N == 5 and back.label == label
        assert np.array_equal(back.data, arc.data)

    def test_sample_label_with_comma_roundtrips(self, tmp_path):
        out = tmp_path / "a.csv"
        assert main(["sample", "--N", "5", "--samples", "2", "--seed", "1", "--label", "a,b",
                     "-o", str(out)]) == 0
        assert load_archive(str(out)).label == "a,b"

    def test_label_with_line_break_rejected(self):
        for label in ("a\nb", "a\rb"):
            with pytest.raises(ArchiveFormatError, match="label"):
                Archive(N=2, label=label, data=np.array([[0.0, 1.0]]))

    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        data = np.sort(rng.standard_normal((4, 7)), axis=1)
        path = tmp_path / "a.bin"
        save_archive(Archive(N=7, label="bin", data=data), str(path))
        back = load_archive(str(path))
        assert back.data.tobytes() == data.tobytes()

    def test_binary_load_holds_one_copy(self, tmp_path):
        rng = np.random.default_rng(3)
        data = np.sort(rng.standard_normal((2000, 200)), axis=1)
        path = tmp_path / "a.bin"
        save_archive(Archive(N=200, label="a", data=data), str(path))
        tracemalloc.start()
        try:
            back = load_archive(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.data.tobytes() == data.tobytes()
        assert peak <= 1.25 * data.nbytes

    def test_csv_load_holds_one_copy(self, tmp_path):
        rng = np.random.default_rng(3)
        data = np.sort(rng.standard_normal((2000, 200)), axis=1)
        path = tmp_path / "a.csv"
        save_archive(Archive(N=200, label="a", data=data), str(path))
        tracemalloc.start()
        try:
            back = load_archive(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.data.tobytes() == data.tobytes()
        assert peak <= 1.25 * data.nbytes

    def test_csv_text_is_the_per_value_format(self, tmp_path):
        rng = np.random.default_rng(4)
        wide = rng.choice([-1.0, 1.0], (200, 2000)) * 10.0 ** rng.uniform(-300, 300, (200, 2000))
        for data in (np.sort(wide, axis=1), np.array([[0.25]]), np.sort(rng.standard_normal((5, 7)), axis=1)):
            path = tmp_path / "a.csv"
            save_archive(Archive(N=data.shape[1], label="x", data=data), str(path))
            rows = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in data)
            assert path.read_text() == f"{data.shape[1]},{data.shape[0]},x\n" + rows

    @pytest.mark.parametrize("name, content, expected", CSV_PARITY, ids=[case[0] for case in CSV_PARITY])
    def test_csv_parity(self, tmp_path, monkeypatch, capsys, name, content, expected):
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_bytes(content)
        if isinstance(expected, str):
            with pytest.raises(ArchiveFormatError) as err:
                load_archive(name)
            assert str(err.value) == expected
            assert main(["sine", "--archive", name, "-o", "sine.json"]) == 1
            assert capsys.readouterr().err == f"error: {expected}\n"
        else:
            arc = load_archive(name)
            assert (arc.N, arc.label) == (expected.shape[1], "x")
            assert arc.data.tobytes() == expected.tobytes()

    def test_header_row_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("3,1,x\n1.0,2.0\n")
        with pytest.raises(ArchiveFormatError, match="line 2"):
            load_archive(str(path))

    def test_sample_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,3,x\n1.0,2.0\n")
        with pytest.raises(ArchiveFormatError, match="promised"):
            load_archive(str(path))

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nonsense\n")
        with pytest.raises(ArchiveFormatError, match="header"):
            load_archive(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WRONG" + b"\x00" * 16)
        with pytest.raises(ArchiveFormatError, match="magic"):
            load_archive(str(path))

    def test_truncated_binary_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"WLAB1\x01\x00")
        with pytest.raises(ArchiveFormatError, match="truncated"):
            load_archive(str(path))

    def test_shape_validation(self):
        with pytest.raises(ArchiveFormatError):
            Archive(N=3, label="x", data=np.zeros((2, 4)))

    def test_empty_archive_rejected(self):
        for N, data in ((0, np.zeros((2, 0))), (3, np.zeros((0, 3)))):
            with pytest.raises(ArchiveFormatError, match="at least one"):
                Archive(N=N, label="x", data=data)

    @pytest.mark.parametrize("name, content", MALFORMED)
    def test_malformed_archive_raises_format_error(self, tmp_path, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(ArchiveFormatError):
            load_archive(str(path))

    @settings(max_examples=300, deadline=None)
    @given(content=fuzz_bytes, suffix=st.sampled_from([".csv", ".bin"]))
    def test_load_arbitrary_bytes_fails_closed(self, tmp_path_factory, content, suffix):
        path = tmp_path_factory.mktemp("fuzz") / ("a" + suffix)
        path.write_bytes(content)
        try:
            arc = load_archive(str(path))
        except ArchiveFormatError:
            return
        assert arc.N >= 1 and arc.samples >= 1 and arc.data.shape == (arc.samples, arc.N)


class TestGenerate:
    @pytest.mark.parametrize("kind, kwargs", [
        ("gue", {}),
        ("wigner", {"entry_law": "uniform"}),
        ("wigner", {"entry_law": "rademacher-smoothed", "evolve_time": 0.1}),
    ], ids=["gue", "wigner-uniform", "evolve"])
    def test_row_i_is_drawn_from_stream_i(self, kind, kwargs):
        seed, N = 11, 12
        arc = generate_archive(kind, N, 4, seed, **kwargs)
        config = EnsembleConfig(N=N, entry_law=kwargs.get("entry_law", "gaussian"))
        for i in range(4):
            stream = sample_stream(seed, i)
            h = sample_gue(N, stream) if kind == "gue" else sample_wigner(config, stream)
            if "evolve_time" in kwargs:
                h = ou_evolve(h, kwargs["evolve_time"], stream)
            assert np.array_equal(arc.data[i], eigenvalues(h))
        assert np.array_equal(generate_archive(kind, N, 2, seed, **kwargs).data, arc.data[:2])

    def test_poisson_rows_do_not_depend_on_row_count(self):
        # each point's quantile inversion stops on its own, not with the batch
        many = generate_archive("poisson", 400, 2000, 3)
        assert np.array_equal(generate_archive("poisson", 400, 2, 3).data, many.data[:2])


class TestCli:
    def test_sample_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["sample", "--N", "40", "--samples", "4", "--seed", "7", "-o", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_digests(self, tmp_path):
        out = tmp_path / "a.csv"
        assert main(["sample", "--N", "30", "--samples", "2", "--seed", "1", "-o", str(out)]) == 0
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert manifest["outputs"][str(out)] == digest
        assert manifest["command"] == "sample"

    def test_unknown_flag_is_validation_error(self, capsys):
        assert main(["sample", "--nonsense", "1"]) == 1

    def test_invalid_config_is_validation_error(self, tmp_path):
        # beta makes s^2 > 1
        out = tmp_path / "a.csv"
        code = main(["sample", "--N", "100", "--samples", "1", "--kind", "wigner",
                     "--beta", "1.0", "-o", str(out)])
        assert code == 1

    @pytest.mark.parametrize("name, content", MALFORMED)
    def test_malformed_archive_is_validation_error(self, tmp_path, capsys, name, content):
        arc = tmp_path / name
        arc.write_bytes(content)
        assert main(["sine", "--archive", str(arc), "-o", str(tmp_path / "sine.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_sine_on_single_eigenvalue_archive_is_validation_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.csv").write_bytes(b"1,3,x\n0.1\n0.2\n-0.05\n")
        assert main(["sine", "--archive", "a.csv", "-o", "sine.json"]) == 1
        assert capsys.readouterr().err == "error: spectra must hold at least two eigenvalues\n"
        assert not (tmp_path / "sine.json").exists()

    @settings(max_examples=150, deadline=None)
    @given(content=fuzz_bytes, suffix=st.sampled_from([".csv", ".bin"]))
    def test_sine_on_arbitrary_bytes_fails_closed(self, tmp_path_factory, content, suffix):
        d = tmp_path_factory.mktemp("fuzz")
        path = d / ("a" + suffix)
        path.write_bytes(content)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["sine", "--archive", str(path), "-o", str(d / "sine.json")])
        assert code in (0, 1)
        if code == 1:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ["--kind", "poisson", "--N", "10", "--samples", "0"],
        ["--kind", "poisson", "--N", "0", "--samples", "2"],
        ["--kind", "gue", "--N", "10", "--samples", "0"],
    ], ids=["poisson-no-samples", "poisson-N0", "gue-no-samples"])
    def test_empty_archive_is_validation_error(self, tmp_path, capsys, flags):
        out = tmp_path / "e.csv"
        assert main(["sample", *flags, "--seed", "1", "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_numerical_failure_exit_code(self, monkeypatch):
        def boom(args, started):
            raise FloatingPointError("synthetic")

        monkeypatch.setitem(cli.COMMANDS, "report", boom)
        assert main(["report"]) == 2

    def test_config_file_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 30\nsamples = 2\nseed = 5\n")
        out1 = tmp_path / "c1.csv"
        assert main(["sample", "--config", str(cfg), "-o", str(out1)]) == 0
        assert load_archive(str(out1)).N == 30
        out2 = tmp_path / "c2.csv"
        assert main(["sample", "--config", str(cfg), "--N", "40", "-o", str(out2)]) == 0
        assert load_archive(str(out2)).N == 40  # flag wins

    @pytest.mark.parametrize("argv, content", [
        (["sample", "--samples", "1"], "N = ten\n"),
        (["sample", "--kind", "wigner", "--N", "10", "--samples", "1"], "beta = x\n"),
        (["oplocal"], "profile = equispaced\n"),
    ], ids=["N-ten", "beta-x", "profile-key"])
    def test_bad_config_value_is_validation_error(self, tmp_path, capsys, argv, content):
        # a config value goes through its flag's type, and profile is no option
        cfg = tmp_path / "run.cfg"
        cfg.write_text(content, encoding="utf-8")
        out = tmp_path / "c.json"
        assert main([*argv, "--config", str(cfg), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert content.split()[0] in err and not out.exists()

    @pytest.mark.parametrize("key", ["sed", "threads"])
    def test_unknown_config_key_is_validation_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"N = 30\nsamples = 2\n{key} = 5\n")
        out = tmp_path / "c.csv"
        assert main(["sample", "--config", str(cfg), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and key in err
        assert not out.exists()

    def test_missing_required_option(self):
        assert main(["sample", "--N", "10"]) == 1  # no samples/out

    def test_poisson_kind(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["sample", "--kind", "poisson", "--N", "50", "--samples", "3",
                     "--seed", "2", "-o", str(out)]) == 0
        arc = load_archive(str(out))
        assert np.all(np.diff(arc.data, axis=1) > 0)

    def test_evolve_command(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["evolve", "--N", "30", "--samples", "2", "--seed", "3",
                     "--t", "0.5", "--kind", "wigner", "--entry-law", "uniform",
                     "-o", str(out)]) == 0
        assert load_archive(str(out)).samples == 2

    @pytest.mark.parametrize("t", ["-1", "nan"])
    def test_evolve_bad_time_fails_closed(self, tmp_path, monkeypatch, capsys, t):
        monkeypatch.chdir(tmp_path)
        assert main(["evolve", "--N", "10", "--samples", "2", "--seed", "1", "--t", t, "-o", "e.csv"]) == 1
        assert capsys.readouterr().err == "error: time must be finite and nonnegative\n"
        assert list(tmp_path.iterdir()) == []

    def test_evolve_manifest_names_evolve(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["evolve", "--N", "10", "--samples", "1", "--t", "0.1", "-o", str(out)]) == 0
        manifest = json.loads((tmp_path / "e.csv.manifest.json").read_text())
        assert manifest["command"] == manifest["config"]["command"] == "evolve"

    def test_semicircle_and_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        arc = tmp_path / "a.csv"
        assert main(["sample", "--N", "200", "--samples", "3", "--seed", "4", "-o", str(arc)]) == 0
        out = tmp_path / "semi.json"
        assert main(["semicircle", "--archive", str(arc), "-o", str(out)]) == 0
        records = json.loads(out.read_text())
        assert {r["statistic"] for r in records} == {
            "local_density_sup_dev_pass_fraction",
            "counting_function_sup_dev_pass_fraction",
        }
        for r in records:
            assert set(r) == {"statistic", "N", "samples", "value", "threshold", "pass"}
        assert main(["report", "--dir", str(tmp_path), "-o", str(tmp_path / "report.json")]) == 0
        summary = json.loads((tmp_path / "report.json").read_text())
        assert summary["files"] >= 1 and summary["checks"] >= 2

    def test_window_dump_schema(self, tmp_path):
        arc = tmp_path / "a.csv"
        assert main(["sample", "--N", "120", "--samples", "1", "--seed", "6", "-o", str(arc)]) == 0
        out = tmp_path / "w.json"
        assert main(["window", "--archive", str(arc), "--L", "55", "--n", "9",
                     "--B", "2", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"L", "n", "B", "center", "half_width", "internal", "external_rescaled",
                                "tail_split", "profile_deviation", "assumptions"}
        assert len(payload["internal"]) == 9
        # the diagnostics are the library's, on the same window at the same B
        win = lw.extract_window(load_archive(str(arc)).data[0], 55, 9)
        res = lw.rescale(win, 2.0)
        sup, ratio = lw.tail_split_check(win, res)
        assert payload["tail_split"] == {"sup_v2_prime": sup, "density_ratio_dev": ratio}
        assert payload["profile_deviation"] == lw.window_profile_deviation(win, res)
        assert payload["assumptions"] == {"density": 0.5, **lw.assumption_checks(res, lambda x: 0.5)}

    def test_window_without_profile_roots_reports_null(self, tmp_path, two_row_archive):
        # B = 0 keeps only the two bounding points, so no profile is compared
        out = tmp_path / "w.json"
        assert main(["window", "--archive", str(two_row_archive), "--L", "3", "--n", "3",
                     "--B", "0", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["profile_deviation"] is None

    def test_oplocal_small_profile(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "op.json"
        code = main(["oplocal", "--n", "8", "--B", "1.5",
                     "--scan-points", "5", "-o", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["gram_residual"] < 1e-8
        assert (tmp_path / "recurrence.csv").exists()
        assert (tmp_path / "kernel_scan.csv").exists()
        header = (tmp_path / "recurrence.csv").read_text().splitlines()[0]
        assert header == "j,alpha_j,beta_j"

    def test_oplocal_weighs_rule_nodes_once(self, tmp_path, monkeypatch):
        # the recurrence keeps log w on its nodes for the Gram check
        monkeypatch.chdir(tmp_path)
        points, recs = [], []
        log_weight, recurrence = lw.WeightSpec.log_weight, op.stieltjes_recurrence

        def counting_log_weight(self, x):
            points.append(np.array(x, dtype=float))
            return log_weight(self, x)

        def keeping_recurrence(*args):
            recs.append(recurrence(*args))
            return recs[-1]

        monkeypatch.setattr(lw.WeightSpec, "log_weight", counting_log_weight)
        monkeypatch.setattr(op, "stieltjes_recurrence", keeping_recurrence)
        assert main(["oplocal", "--n", "8", "--B", "1.5", "--scan-points", "5", "-o", str(tmp_path / "op.json")]) == 0
        nodes = recs[0].quad.nodes
        assert sum(x.shape == nodes.shape and np.array_equal(x, nodes) for x in points) == 1

    def test_equilibrium_small_profile(self, tmp_path):
        out = tmp_path / "eq.json"
        code = main(["equilibrium", "--n", "16", "--B", "2",
                     "--J-half-width", "0.7", "-o", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"a", "b", "residuals", "ll_conditions"}
        assert set(payload["ll_conditions"]) == {"a", "b", "c", "d"}

    @pytest.mark.parametrize("command", ["oplocal", "equilibrium"])
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_nonpositive_window_size_is_validation_error(self, tmp_path, monkeypatch, capsys, command, n):
        monkeypatch.chdir(tmp_path)
        assert main([command, "--n", n]) == 1
        err = capsys.readouterr().err
        assert err == "error: window size must be positive\n"
        assert list(tmp_path.iterdir()) == []

    def test_equilibrium_vanishing_density_is_validation_error(self, tmp_path, monkeypatch, capsys):
        # at --n 4 condition (d) reaches +-1, where rho_n is 0
        monkeypatch.chdir(tmp_path)
        assert main(["equilibrium", "--n", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rho_n vanishes") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_root_cap_applies_to_archive_window(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        arc = tmp_path / "a.csv"
        assert main(["sample", "--N", "40", "--samples", "1", "--seed", "2", "-o", str(arc)]) == 0
        out = tmp_path / "op.json"
        assert main(["oplocal", "--archive", str(arc), "--L", "15", "--n", "4", "--root-cap", "5",
                     "--scan-points", "3", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["roots"] == 10

    @pytest.mark.parametrize("command", ["oplocal", "equilibrium"])
    def test_negative_root_cap_fails_closed_on_equispaced_weight(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        assert main([command, "--n", "8", "--root-cap", "-1"]) == 1
        assert capsys.readouterr().err == "error: root_cap must be nonnegative\n"
        assert list(tmp_path.iterdir()) == []

    def test_sine_command(self, tmp_path):
        arc = tmp_path / "a.csv"
        assert main(["sample", "--N", "200", "--samples", "40", "--seed", "8", "-o", str(arc)]) == 0
        out = tmp_path / "sine.json"
        assert main(["sine", "--archive", str(arc), "--E0", "0", "--delta", "0.2", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["samples"] == 40
        assert payload["reference"] > 0

    def test_repulsion_command(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        arc = tmp_path / "p.csv"
        assert main(["sample", "--kind", "poisson", "--N", "100", "--samples", "4000",
                     "--seed", "9", "-o", str(arc)]) == 0
        out = tmp_path / "rep.json"
        assert main(["repulsion", "--archive", str(arc), "--E", "0",
                     "--eps-grid", "0.4,0.7,1.2", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert 1.2 <= payload["fitted_exponent"] <= 2.8
        assert (tmp_path / "repulsion_curve.csv").exists()

    def test_wegner_slope_null_on_zero_mean_count(self, tmp_path, monkeypatch):
        # at eps = 0.5 no row of this archive has an eigenvalue in the window
        monkeypatch.chdir(tmp_path)
        assert main(["sample", "--N", "200", "--samples", "20", "--seed", "5", "-o", "a.csv"]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["repulsion", "--archive", "a.csv", "-o", "rep.json"]) == 0
        wegner = json.loads((tmp_path / "rep.json").read_text())["wegner"]
        assert 0.0 in wegner["mean_counts"] and wegner["log_slope"] is None

    def test_vandermonde_command(self, tmp_path):
        arc = tmp_path / "g.csv"
        assert main(["sample", "--N", "100", "--samples", "3", "--seed", "1", "-o", str(arc)]) == 0
        out = tmp_path / "v.json"
        assert main(["vandermonde", "--archive", str(arc), "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert (payload["N"], payload["samples"]) == (100, 3)
        assert payload["x2_moment"] == pytest.approx(1.0, abs=1e-6)
        assert payload["log_energy"] == pytest.approx(-0.25, abs=1e-6)

    def test_vandermonde_has_no_label(self, tmp_path, capsys, two_row_archive):
        out = tmp_path / "v.json"
        assert main(["vandermonde", "--archive", str(two_row_archive), "--label", "x", "-o", str(out)]) == 1
        assert "--label" in capsys.readouterr().err and not out.exists()


# Each subcommand's option defaults. A minimal invocation must resolve to
# exactly these values and types, so that no default moves silently.
DEFAULTS = [
    (["sample", "--N", "5", "--samples", "1", "-o", "a.csv"],
     {"kind": "gue", "seed": 0, "beta": 0.5, "entry_law": "gaussian", "label": None}),
    (["evolve", "--N", "5", "--samples", "1", "--t", "0.1", "-o", "a.csv"],
     {"kind": "wigner", "seed": 0, "beta": 0.5, "entry_law": "gaussian", "label": None}),
    (["semicircle", "--archive", "a.csv"],
     {"eta_star": 0.01, "density_tol": 0.05, "count_tol": 0.02, "out": "semicircle.json"}),
    (["rigidity", "--archive", "a.csv"], {"kappa": 0.1, "location_tol": 0.05, "out": "rigidity.json"}),
    (["window", "--archive", "a.csv", "--L", "3", "--n", "3"],
     {"B": 2.0, "sample_index": 0, "out": "window.json"}),
    (["oplocal"],
     {"B": 2.0, "root_cap": 2000, "energy": 0.0, "scan_points": 21, "sample_index": 0,
      "out": "oplocal.json", "recurrence_csv": "recurrence.csv", "kernel_csv": "kernel_scan.csv"}),
    (["equilibrium"],
     {"B": 2.0, "root_cap": 2000, "J_half_width": 0.8, "sample_index": 0, "out": "equilibrium.json"}),
    (["sine", "--archive", "a.csv"], {"E0": 0.0, "delta": 0.2, "radius": 3.0, "out": "sine.json"}),
    (["repulsion", "--archive", "a.csv"],
     {"E": 0.0, "eps_grid": "0.9,1.3,1.9,2.6", "wegner_eps": "0.5,1.0,2.0", "K_grid": "1,2,4,8",
      "out": "repulsion.json", "curve_csv": "repulsion_curve.csv"}),
    (["vandermonde", "--archive", "a.csv"], {"eta": None, "out": "vandermonde.json"}),
    (["report"], {"dir": ".", "out": "report.json"}),
]


# (subcommand and flags, error line) of parameters that must fail closed,
# every command but sample on an archive: exit 1, that one line, and no
# file written
BAD_PARAMETERS = [
    (["sine", "--radius=0"], "radius must be finite and positive"),
    (["sine", "--radius=-1"], "radius must be finite and positive"),
    (["sine", "--radius=nan"], "radius must be finite and positive"),
    (["semicircle", "--eta-star=0"], "eta_star must be finite and positive"),
    (["semicircle", "--eta-star=-0.01"], "eta_star must be finite and positive"),
    (["semicircle", "--eta-star=nan"], "eta_star must be finite and positive"),
    (["repulsion", "--eps-grid=-1,1"], "eps must be finite and positive"),
    (["repulsion", "--wegner-eps=0,1"], "eps must be finite and positive"),
    (["repulsion", "--K-grid=nan"], "K must be finite"),
    (["vandermonde", "--eta=nan"], "eta must be finite and nonnegative"),
    (["sine", "--delta=nan"], "delta must be finite and positive"),
    (["semicircle", "--density-tol=nan"], "density_tol must be finite and nonnegative"),
    (["semicircle", "--count-tol=nan"], "count_tol must be finite and nonnegative"),
    (["rigidity", "--location-tol=nan"], "location_tol must be finite and nonnegative"),
    (["oplocal", "--L=3", "--n=8", "--energy=nan"], "energy must lie in [-1, 1]"),
    (["window", "--L=3", "--n=3", "--B=1000"], "cutoff n^B overflows at n = 3, B = 1000"),
    (["oplocal", "--L=3", "--n=3", "--B=1000"], "cutoff n^B overflows at n = 3, B = 1000"),
    (["equilibrium", "--L=3", "--n=3", "--B=1000"], "cutoff n^B overflows at n = 3, B = 1000"),
    (["window", "--L=3", "--n=3", "--B=-1"], "cutoff n^B is below 1 at n = 3, B = -1"),
    (["oplocal", "--L=3", "--n=3", "--B=-1"], "cutoff n^B is below 1 at n = 3, B = -1"),
    (["equilibrium", "--L=3", "--n=3", "--B=-1"], "cutoff n^B is below 1 at n = 3, B = -1"),
    (["oplocal", "--L=3", "--n=3", "--root-cap=-1"], "root_cap must be nonnegative"),
    (["oplocal", "--L=3", "--n=3", "--root-cap=-2000"], "root_cap must be nonnegative"),
    (["equilibrium", "--L=3", "--n=3", "--root-cap=-1"], "root_cap must be nonnegative"),
    (["oplocal", "--L=3", "--n=3", "--scan-points=0"], "--scan-points must be at least 1"),
    (["oplocal", "--L=3", "--n=3", "--energy=1"], "rho_n vanishes at E = 1: the weight has double roots at +-1"),
    (["oplocal", "--L=3", "--n=3", "--energy=-1"], "rho_n vanishes at E = -1: the weight has double roots at +-1"),
    (["sample", "--kind=gue", "--beta=nan", "--N=5", "--samples=1", "-o", "a.csv"], "beta exponent must be finite"),
]


# A minimal valid run of every subcommand, "{archive}" standing for the
# two-row archive. The NaN guard sets each float option that build_parser
# declares on top of it, so a new float option is covered without a new row.
MINIMAL_RUNS = {
    "sample": ["--N", "5", "--samples", "1", "-o", "a.csv"],
    "evolve": ["--N", "5", "--samples", "1", "--t", "0.1", "-o", "a.csv"],
    "semicircle": ["--archive", "{archive}"],
    "rigidity": ["--archive", "{archive}"],
    "window": ["--archive", "{archive}", "--L", "3", "--n", "3"],
    "oplocal": ["--n", "4", "--scan-points", "3"],
    "equilibrium": ["--n", "16"],
    "sine": ["--archive", "{archive}"],
    "repulsion": ["--archive", "{archive}"],
    "vandermonde": ["--archive", "{archive}"],
    "report": [],
}
FLOAT_OPTIONS = [(name, action.option_strings[0]) for name, sub in cli.build_parser().commands.items()
                 for action in sub._actions if action.type is float]


def minimal_run(command, archive, *extra):
    return [command, *(a.replace("{archive}", str(archive)) for a in MINIMAL_RUNS[command]), *extra]


@pytest.fixture(scope="module")
def two_row_archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("two") / "a.csv"
    save_archive(generate_archive("gue", 20, 2, 0), str(path))
    return path


class TestOptions:
    @pytest.mark.parametrize("argv, table", DEFAULTS, ids=[a[0] for a, _ in DEFAULTS])
    def test_defaults_survive(self, argv, table):
        args = cli.parse_args(argv)
        resolved = {k: getattr(args, k) for k in table}
        assert resolved == table
        assert all(type(resolved[k]) is type(v) for k, v in table.items())
        if argv[0] in ("oplocal", "equilibrium"):  # --n is 64 without --archive
            assert cli._weight(args).n == 64

    @pytest.mark.parametrize("command", ["window", "oplocal", "equilibrium"])
    @pytest.mark.parametrize("index", ["2", "5", "-1"])
    def test_sample_index_out_of_range(self, tmp_path, capsys, two_row_archive, command, index):
        out = tmp_path / "w.json"
        assert main([command, "--archive", str(two_row_archive), "--L", "3", "--n", "3",
                     "--sample-index", index, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --sample-index {index} is outside 0..1\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", BAD_PARAMETERS, ids=[" ".join(a) for a, _ in BAD_PARAMETERS])
    def test_bad_statistic_parameter_fails_closed(self, tmp_path, monkeypatch, capsys, two_row_archive,
                                                  argv, message):
        monkeypatch.chdir(tmp_path)
        archive = [] if argv[0] == "sample" else ["--archive", str(two_row_archive)]
        assert main([argv[0], *archive, *argv[1:]]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=60, deadline=None)
    @given(index=st.integers())
    def test_window_any_sample_index_fails_closed(self, tmp_path_factory, two_row_archive, index):
        out = tmp_path_factory.mktemp("win") / "w.json"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["window", "--archive", str(two_row_archive), "--L", "3", "--n", "3",
                         "--sample-index", str(index), "-o", str(out)])
        assert code == (0 if 0 <= index < 2 else 1)
        if code == 1:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

    def test_manifest_records_resolved_config(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["sample", "--kind", "wigner", "--N", "20", "--samples", "2", "-o", str(out)]) == 0
        config = json.loads((tmp_path / "w.csv.manifest.json").read_text())["config"]
        assert config["seed"] == 0 and config["beta"] == 0.5 and config["entry_law"] == "gaussian"
        dests = vars(cli.parse_args(["sample", "--N", "1", "--samples", "1", "-o", "x"]))
        assert set(config) == set(dests) - {"config"}
        # the recorded config, written back as a config file, reproduces the archive
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items() if v is not None and k != "command"),
                       encoding="utf-8")
        again = tmp_path / "again.csv"
        assert main(["sample", "--config", str(cfg), "-o", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()
        replay = json.loads((tmp_path / "again.csv.manifest.json").read_text())["config"]
        assert replay == {**config, "out": str(again)}

    def test_manifest_names_both_seed_schemes(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["sample", "--kind", "poisson", "--N", "5", "--samples", "2", "-o", str(out)]) == 0
        scheme = json.loads((tmp_path / "p.csv.manifest.json").read_text())["seed_scheme"]
        assert "Philox" in scheme and "poisson: rows in order from one PCG64 stream" in scheme

    def test_manifest_environment_keys(self, tmp_path):
        out = tmp_path / "a.csv"
        assert main(["sample", "--N", "5", "--samples", "1", "-o", str(out)]) == 0
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert set(manifest) == {"command", "config", "environment", "code_version", "wall_time_s",
                                 "seed_scheme", "outputs"}
        env = manifest["environment"]
        assert set(env) == {"python", "numpy", "blas", "cpu_count", "thread_variables"}
        assert set(env["blas"]) == {"name", "version"}
        assert set(env["thread_variables"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert env["numpy"] == np.__version__


class TestNanGuard:
    def test_every_subcommand_has_a_minimal_run(self):
        assert set(MINIMAL_RUNS) == set(cli.build_parser().commands)

    @pytest.mark.parametrize("command", sorted(MINIMAL_RUNS))
    def test_minimal_run_succeeds(self, tmp_path, monkeypatch, capsys, two_row_archive, command):
        monkeypatch.chdir(tmp_path)
        assert main(minimal_run(command, two_row_archive)) == 0
        assert capsys.readouterr().err == ""

    def test_every_subcommand_runs_without_scipy(self, tmp_path, two_row_archive):
        # numpy is the only runtime dependency: with scipy unimportable, every
        # minimal run succeeds in one process that loads no scipy module
        code = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from wignerlab.cli import main\n"
            "codes = {c: main(argv) for c, argv in json.loads(sys.argv[1]).items()}\n"
            "loaded = sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod is not None)\n"
            "print(json.dumps([codes, loaded]))\n"
        )
        runs = {c: minimal_run(c, two_row_archive) for c in MINIMAL_RUNS}
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.dirname(os.path.dirname(cli.__file__)),
                                                            os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], cwd=tmp_path, env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        codes, loaded = json.loads(out.stdout.splitlines()[-1])
        assert codes == {c: 0 for c in MINIMAL_RUNS} and loaded == []

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command, flag", FLOAT_OPTIONS, ids=[f"{c} {f}" for c, f in FLOAT_OPTIONS])
    def test_non_finite_float_option_fails_closed(self, tmp_path, monkeypatch, capsys, two_row_archive,
                                           command, flag, value):
        monkeypatch.chdir(tmp_path)
        assert main(minimal_run(command, two_row_archive, f"{flag}={value}")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []
