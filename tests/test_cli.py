import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

import disksampling as ds
from disksampling import cli, undersampled

import oracle
from conftest import random_disk_points


def run_cli(*argv):
    return cli.main(list(argv))


CONSOLE_SCRIPT = "import sys; from disksampling.__main__ import main; sys.exit(main())"


def process_env(**env):
    """The environment of a child process that imports the package this
    process imported, with ``PYTHONUNBUFFERED`` and ``OPENBLAS_NUM_THREADS``
    unset unless given in ``env``."""
    package_root = str(pathlib.Path(ds.__file__).resolve().parent.parent)
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONUNBUFFERED", "OPENBLAS_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**base, **env}


def run_process(argv, entry="module", **env):
    """A command as its own process, the way a user starts it, with stdout
    and stderr as pipes: ``entry`` is ``"module"`` for ``python -m
    disksampling`` or ``"script"`` for the console script's function."""
    launch = ["-m", "disksampling"] if entry == "module" else ["-c", CONSOLE_SCRIPT]
    return subprocess.run(
        [sys.executable, *launch, *argv], capture_output=True, env=process_env(**env)
    )


def run_in_process(argv):
    """(exit code, stdout bytes, stderr bytes) of ``cli.main`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def write_signal(path, twice_s, coefficients):
    payload = {
        "twice_s": twice_s,
        "coefficients": [[c.real, c.imag] for c in np.asarray(coefficients, complex)],
    }
    path.write_text(json.dumps(payload))
    return path


def write_samples(path, samples):
    values = np.asarray(samples, complex)
    lines = ["k,re,im"] + [f"{k},{v.real!r},{v.imag!r}" for k, v in enumerate(values.tolist())]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_points(path, points):
    lines = ["re,im"] + [
        f"{float(z.real)!r},{float(z.imag)!r}" for z in np.asarray(points, complex)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def sample_setup(tmp_path):
    signal_path = write_signal(tmp_path / "signal.json", 2, [1.0 + 0j])
    samples_path = tmp_path / "samples.csv"
    assert run_cli(
        "synthesize", "--r", "0.5", "--n", "2",
        "--input", str(signal_path), "--output", str(samples_path),
    ) == 0
    return signal_path, samples_path


class TestGrid:
    def test_fourth_roots(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run_cli("grid", "--r", "0.5", "--n", "4", "--output", str(out)) == 0
        header, rows = read_csv(out)
        assert header == ["k", "re", "im"]
        values = [complex(float(r[1]), float(r[2])) for r in rows]
        assert np.allclose(values, [0.5, 0.5j, -0.5, -0.5j], atol=1e-15)

    def test_single_point(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run_cli("grid", "--r", "0.25", "--n", "1", "--output", str(out)) == 0
        _, rows = read_csv(out)
        assert rows == [["0", "0.25", "0"]]

    def test_unit_radius_rejected(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run_cli("grid", "--r", "1.0", "--n", "2", "--output", str(out)) == 2
        assert not out.exists()

    def test_json_format(self, tmp_path):
        out = tmp_path / "grid.json"
        assert run_cli(
            "grid", "--r", "0.5", "--n", "2", "--output", str(out), "--format", "json"
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["k", "re", "im"]
        assert payload["rows"][0] == [0, 0.5, 0.0]


class TestSynthesize:
    def test_constant_mode_rows(self, sample_setup):
        _, samples_path = sample_setup
        header, rows = read_csv(samples_path)
        assert header == ["k", "re", "im"]
        assert rows == [["0", "0.75", "0"], ["1", "0.75", "0"]]

    def test_empty_coefficients_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"twice_s": 2, "coefficients": []}))
        assert run_cli("synthesize", "--r", "0.5", "--n", "2", "--input", str(bad)) == 2

    def test_twice_s_mismatch_rejected(self, tmp_path):
        signal_path = write_signal(tmp_path / "sig.json", 4, [1.0])
        assert run_cli(
            "synthesize", "--twice-s", "2", "--r", "0.5", "--n", "2",
            "--input", str(signal_path),
        ) == 2

    def test_malformed_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("synthesize", "--r", "0.5", "--n", "2", "--input", str(bad)) == 2

    @pytest.mark.parametrize(
        "payload", [{"coefficients": [[1.0, 0.0]]}, {"twice_s": 2}],
        ids=["no twice_s", "no coefficients"],
    )
    def test_signal_file_without_a_field_is_named(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run_cli("synthesize", "--r", "0.5", "--n", "2", "--input", str(bad)) == 2
        assert f"signal file {bad} must hold twice_s and [re, im] pairs" in capsys.readouterr().err

    def test_output_naming_a_directory_leaves_no_temporary_file(self, tmp_path, capsys):
        signal_path = write_signal(tmp_path / "sig.json", 2, [1.0])
        target = tmp_path / "out"
        target.mkdir()
        assert run_cli(
            "synthesize", "--r", "0.5", "--n", "2",
            "--input", str(signal_path), "--output", str(target),
        ) == 2
        assert "error:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "sig.json"]
        assert not list(target.iterdir())

    def test_a_cleanup_that_fails_keeps_the_write_error(self, tmp_path, monkeypatch):
        # the replace onto a directory fails, and so does the unlink of the
        # temporary file: the replace's error is raised, and the file is left
        target = tmp_path / "out"
        target.mkdir()

        def refuse(path):
            raise PermissionError(f"cannot unlink {path}")

        monkeypatch.setattr(cli.os, "unlink", refuse)
        with pytest.raises(IsADirectoryError):
            cli._write_output(str(target), "text")
        left = [p for p in tmp_path.iterdir() if p.name != "out"]
        assert [p.name[:5] for p in left] == [".out."] and left[0].read_text() == "text"

    def test_sample_beyond_the_double_range_exits_three_and_names_it(self, tmp_path, capsys):
        # each coefficient fits a double, their sample at r = 0.5 does not
        signal_path = write_signal(tmp_path / "sig.json", 2, [1.7e308] * 4)
        out = tmp_path / "samples.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(
                "synthesize", "--r", "0.5", "--n", "1",
                "--input", str(signal_path), "--output", str(out),
            ) == 3
        assert "numerical failure: sample_0 beyond the double range" in capsys.readouterr().err
        assert not out.exists()


class TestReconstruct:
    def test_bandlimited_round_trip(self, tmp_path):
        rng = np.random.default_rng(70)
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        signal_path = write_signal(tmp_path / "sig.json", 3, coeffs)
        samples_path = tmp_path / "samples.csv"
        assert run_cli(
            "synthesize", "--r", "0.6", "--n", "7",
            "--input", str(signal_path), "--output", str(samples_path),
        ) == 0
        points = random_disk_points(rng, 10)
        points_path = write_points(tmp_path / "pts.csv", points)
        out = tmp_path / "values.csv"
        assert run_cli(
            "reconstruct", "--twice-s", "3", "--r", "0.6", "--n", "7",
            "--mode", "bandlimited", "--band-limit", "2",
            "--input", str(samples_path), "--points", str(points_path),
            "--output", str(out),
        ) == 0
        _, rows = read_csv(out)
        got = np.array([complex(float(r[1]), float(r[2])) for r in rows])
        expected = ds.evaluate_signal(ds.DiskSignal(3, coeffs), points)
        assert np.max(np.abs(got - expected)) < 1e-9 * np.max(np.abs(expected))

    def test_undersampled_interpolates_at_grid(self, tmp_path, sample_setup):
        _, samples_path = sample_setup
        grid_points = ds.SamplingGrid(0.5, 2).points
        points_path = write_points(tmp_path / "pts.csv", grid_points)
        out = tmp_path / "values.csv"
        assert run_cli(
            "reconstruct", "--twice-s", "2", "--r", "0.5", "--n", "2",
            "--mode", "undersampled",
            "--input", str(samples_path), "--points", str(points_path),
            "--output", str(out),
        ) == 0
        _, rows = read_csv(out)
        got = np.array([complex(float(r[1]), float(r[2])) for r in rows])
        assert np.max(np.abs(got - 0.75)) < 1e-10

    def test_undersampled_emits_alias_coefficients(self, tmp_path, sample_setup):
        _, samples_path = sample_setup
        points_path = write_points(tmp_path / "pts.csv", [0.1 + 0.1j])
        out = tmp_path / "values.csv"
        assert run_cli(
            "reconstruct", "--twice-s", "2", "--r", "0.5", "--n", "2",
            "--mode", "undersampled", "--n-max", "2",
            "--input", str(samples_path), "--points", str(points_path),
            "--output", str(out),
        ) == 0
        sibling = tmp_path / "values.csv.ahat.csv"
        header, rows = read_csv(sibling)
        assert header == ["n", "re", "im"]
        assert float(rows[0][1]) == pytest.approx(1.125 / 1.36, rel=1e-12)

    def test_alias_coefficients_of_samples_of_overflowing_modulus_answer(self, tmp_path):
        # d_0 = 1.5e308 (1 + i) has parts within the double range, its modulus not
        samples_path = write_samples(tmp_path / "samples.csv", np.full(4, 1.5e308 + 1.5e308j))
        points_path = write_points(tmp_path / "pts.csv", [0.1])
        out = tmp_path / "values.csv"
        assert run_cli(
            "reconstruct", "--twice-s", "2", "--r", "0.1", "--n", "4",
            "--mode", "undersampled", "--n-max", "340",
            "--input", str(samples_path), "--points", str(points_path),
            "--output", str(out),
        ) == 0
        _, rows = read_csv(tmp_path / "values.csv.ahat.csv")
        assert rows[312][0] == "312"
        assert [float(part) for part in rows[312][1:]] == pytest.approx(
            [0.0026805765346003042] * 2, rel=1e-13)

    def test_undersampled_rim_kernel_answers(self, tmp_path):
        # exited 3 ("implementation fault") while the eigenvalue check summed
        # each class from q = 0, whose first terms underflow at this radius
        grid = ds.SamplingGrid(0.999, 16)
        signal = ds.DiskSignal(200, np.array([1.0, 0.5j, -0.25]))
        samples = ds.sample_signal(signal, grid)
        samples_path = tmp_path / "samples.csv"
        samples_path.write_text(cli._complex_table("k", samples, "csv"))
        points = np.array([0.3, 0.5j, -0.2 + 0.1j])
        points_path = write_points(tmp_path / "pts.csv", points)
        out = tmp_path / "values.csv"
        assert run_cli(
            "reconstruct", "--twice-s", "200", "--r", "0.999", "--n", "16",
            "--mode", "undersampled", "--input", str(samples_path),
            "--points", str(points_path), "--output", str(out),
        ) == 0
        _, rows = read_csv(out)
        values = np.array([complex(float(re), float(im)) for _, re, im in rows])
        expected = ds.partial_reconstruct(ds.overlap_kernel(200, grid), samples, points)
        assert np.all(np.isfinite(values)) and np.array_equal(values, expected)

    @pytest.mark.parametrize(
        "radius, n, samples, entry",
        [
            # d_7/lhat_7 = 1e306/0.0022 at condition number 2048
            (0.5, 8, 1e306 * np.exp(-2j * np.pi * 7 * np.arange(8) / 8), "d/lhat_7"),
            (0.9, 3300, np.eye(1, 3300)[0] * 1e300, "d/lhat_176"),
        ],
        ids=["one class", "one sample"],
    )
    def test_undersampled_result_beyond_the_double_range_exits_three_and_names_it(
        self, tmp_path, capsys, radius, n, samples, entry
    ):
        samples_path = write_samples(tmp_path / "samples.csv", samples)
        points_path = write_points(tmp_path / "pts.csv", [0.1, -0.2j, 0.0])
        out = tmp_path / "values.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(
                "reconstruct", "--twice-s", "2", "--r", str(radius), "--n", str(n),
                "--mode", "undersampled", "--n-max", "15", "--input", str(samples_path),
                "--points", str(points_path), "--output", str(out),
            ) == 3
        err = capsys.readouterr().err
        assert f"numerical failure: {entry} beyond the double range" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pts.csv", "samples.csv"]

    def test_n_max_without_output_is_refused_before_any_file_is_read(self, tmp_path, capsys):
        points_path = write_points(tmp_path / "pts.csv", [0.1])
        assert run_cli(
            "reconstruct", "--twice-s", "2", "--r", "0.5", "--n", "2",
            "--mode", "undersampled", "--n-max", "2",
            "--input", str(tmp_path / "missing.csv"), "--points", str(points_path),
        ) == 2
        err = capsys.readouterr().err
        assert "--n-max requires --output" in err and "missing.csv" not in err

    def test_band_limit_too_large_leaves_no_output(self, tmp_path, sample_setup):
        _, samples_path = sample_setup
        points_path = write_points(tmp_path / "pts.csv", [0.1])
        out = tmp_path / "values.csv"
        assert run_cli(
            "reconstruct", "--twice-s", "2", "--r", "0.5", "--n", "2",
            "--mode", "bandlimited", "--band-limit", "2",
            "--input", str(samples_path), "--points", str(points_path),
            "--output", str(out),
        ) == 2
        assert not out.exists()
        assert not list(tmp_path.glob(".values.csv.*"))

    def test_query_outside_disk_rejected(self, tmp_path, sample_setup):
        _, samples_path = sample_setup
        points_path = tmp_path / "pts.csv"
        points_path.write_text("re,im\n1.5,0.0\n")
        assert run_cli(
            "reconstruct", "--twice-s", "2", "--r", "0.5", "--n", "2",
            "--mode", "bandlimited", "--band-limit", "0",
            "--input", str(samples_path), "--points", str(points_path),
        ) == 2


class TestDft:
    def test_bandlimited_fixture(self, tmp_path, sample_setup):
        _, samples_path = sample_setup
        out = tmp_path / "coeffs.csv"
        assert run_cli(
            "dft", "--twice-s", "2", "--r", "0.5", "--n", "2",
            "--mode", "bandlimited", "--band-limit", "0",
            "--input", str(samples_path), "--output", str(out),
        ) == 0
        header, rows = read_csv(out)
        assert header == ["m", "re", "im"]
        assert float(rows[0][1]) == pytest.approx(1.0, rel=1e-12)

    def test_undersampled_fixture(self, tmp_path, sample_setup):
        _, samples_path = sample_setup
        out = tmp_path / "coeffs.csv"
        assert run_cli(
            "dft", "--twice-s", "2", "--r", "0.5", "--n", "2",
            "--mode", "undersampled",
            "--input", str(samples_path), "--output", str(out),
        ) == 0
        header, rows = read_csv(out)
        assert header == ["n", "re", "im", "re_rescaled", "im_rescaled"]
        assert float(rows[0][1]) == pytest.approx(1.125 / 1.36, rel=1e-12)
        assert float(rows[0][3]) == pytest.approx(1.0, rel=1e-12)

    def test_zero_samples_give_zero_coefficients(self, tmp_path):
        samples_path = tmp_path / "zeros.csv"
        samples_path.write_text("k,re,im\n0,0,0\n1,0,0\n")
        out = tmp_path / "coeffs.csv"
        assert run_cli(
            "dft", "--twice-s", "2", "--r", "0.5", "--n", "2",
            "--mode", "bandlimited", "--band-limit", "1",
            "--input", str(samples_path), "--output", str(out),
        ) == 0
        _, rows = read_csv(out)
        assert all(row[1] == "0" and row[2] == "0" for row in rows)

    @pytest.mark.parametrize("command", ["dft", "reconstruct"])
    def test_bandlimited_coefficient_beyond_the_double_range_exits_three(
        self, tmp_path, capsys, command
    ):
        # (N lambda_m)^(-1/2) leaves the double range at r = 0.1, N = 701
        samples_path = tmp_path / "samples.csv"
        samples_path.write_text("k,re,im\n" + "".join(f"{k},1,0\n" for k in range(701)))
        points = ["--points", str(write_points(tmp_path / "pts.csv", [0.1]))]
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(
                command, "--twice-s", "2", "--r", "0.1", "--n", "701",
                "--mode", "bandlimited", "--band-limit", "700",
                "--input", str(samples_path), "--output", str(out),
                *(points if command == "reconstruct" else []),
            ) == 3
        assert "numerical failure: a_327 beyond the double range" in capsys.readouterr().err
        assert not out.exists()

    def test_bandlimited_coefficient_of_subnormal_samples_answers(self, tmp_path):
        # the samples of e_240 on the ring (0.05, 600) are about 8.8e-312
        grid = ds.SamplingGrid(0.05, 600)
        samples = ds.sample_signal(ds.DiskSignal(2, np.eye(241)[240]), grid)
        samples_path = write_samples(tmp_path / "samples.csv", samples)
        out = tmp_path / "coeffs.csv"
        assert run_cli(
            "dft", "--twice-s", "2", "--r", "0.05", "--n", "600",
            "--mode", "bandlimited", "--band-limit", "240",
            "--input", str(samples_path), "--output", str(out),
        ) == 0
        _, rows = read_csv(out)
        assert float(rows[240][1]) == pytest.approx(1.0, rel=1e-12) and rows[240][2] == "0"
        assert all(float(row[1]) == float(row[2]) == 0 for row in rows[:240])

    def test_undersampled_rescaled_columns_in_one_exponent(self, tmp_path, capsys):
        # lambda_n^(-1/2) is 1e179 at n = 600 and passes the double range from
        # n = 1031, while lhat_0 / lambda_600 alone is 1e358
        samples_path = tmp_path / "samples.csv"
        samples_path.write_text("k,re,im\n" + "".join(f"{k},1,0.5\n" for k in range(8)))
        out = tmp_path / "coeffs.csv"

        def dft(n_max, samples=samples_path):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return run_cli(
                    "dft", "--twice-s", "2", "--r", "0.5", "--n", "8", "--mode", "undersampled",
                    "--n-max", str(n_max), "--input", str(samples), "--output", str(out),
                )

        assert dft(1000) == 0
        _, rows = read_csv(out)
        with mp.workdps(30):
            for n in (600, 1000):
                lam = 8 * (n + 1) * mp.mpf(0.75) ** 2 / 4**n
                want = mp.sqrt(8) * mp.mpc(1, 0.5) / mp.sqrt(lam)
                got = complex(float(rows[n][3]), float(rows[n][4]))
                assert got == pytest.approx(complex(want), rel=1e-12)
        # constant samples have a zero DFT off residue 0, which stays 0 at
        # n = 1100 (residue 4), where lambda_n^(-1/2) is beyond the range
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("k,re,im\n" + "".join(f"{k},1e-100,5e-101\n" for k in range(8)))
        assert dft(1100, tiny) == 0
        _, rows = read_csv(out)
        assert rows[1100][3:] == ["0", "0"] and float(rows[1096][3]) > 1e228
        # at n = 1032 (residue 0) the value itself is beyond the range
        assert dft(1200) == 3
        assert "rescaled ahat_1032 beyond the double range" in capsys.readouterr().err

    @pytest.mark.parametrize("twice_s, radius", [(2, 0.5), (7, 0.3), (40, 0.8)])
    def test_rescaled_columns_print_the_bandlimited_coefficients(
        self, tmp_path, twice_s, radius
    ):
        # at n_max = band limit = N - 1 both modes print one ring transform
        rng = np.random.default_rng(twice_s)
        samples = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        samples_path = tmp_path / "samples.csv"
        samples_path.write_text(
            "k,re,im\n"
            + "".join(f"{k},{v.real!r},{v.imag!r}\n" for k, v in enumerate(samples.tolist()))
        )
        common = ["--twice-s", str(twice_s), "--r", str(radius), "--n", "12",
                  "--input", str(samples_path)]
        bandlimited, undersampled_ = tmp_path / "bl.csv", tmp_path / "us.csv"
        assert run_cli("dft", *common, "--mode", "bandlimited", "--band-limit", "11",
                       "--output", str(bandlimited)) == 0
        assert run_cli("dft", *common, "--mode", "undersampled", "--n-max", "11",
                       "--output", str(undersampled_)) == 0
        _, rows = read_csv(bandlimited)
        _, alias_rows = read_csv(undersampled_)
        assert [row[1:] for row in rows] == [row[3:] for row in alias_rows]

    @pytest.mark.parametrize("command", ["dft", "reconstruct"])
    @pytest.mark.parametrize(
        "mode, flag", [("bandlimited", "--n-max"), ("undersampled", "--band-limit")]
    )
    def test_flag_of_the_other_mode_is_refused_before_any_file_is_read(
        self, tmp_path, capsys, command, mode, flag
    ):
        argv = [command, "--twice-s", "2", "--r", "0.5", "--n", "4", "--mode", mode,
                flag, "3", "--input", str(tmp_path / "missing.csv")]
        if mode == "bandlimited":
            argv += ["--band-limit", "1"]
        if command == "reconstruct":
            argv += ["--points", str(tmp_path / "missing_points.csv"),
                     "--output", str(tmp_path / "out.csv")]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert f"{flag} does not apply to --mode {mode}" in err and "missing" not in err


    @pytest.mark.parametrize("command", ["dft", "reconstruct"])
    def test_bandlimited_mode_without_a_band_limit_is_refused(self, tmp_path, capsys, command):
        argv = [command, "--twice-s", "2", "--r", "0.5", "--n", "4", "--mode", "bandlimited",
                "--input", str(tmp_path / "missing.csv")]
        if command == "reconstruct":
            argv += ["--points", str(tmp_path / "missing_points.csv")]
        assert run_cli(*argv) == 2
        assert "bandlimited mode requires --band-limit" in capsys.readouterr().err


class TestErrorAnalysis:
    def test_sweep_rows_satisfy_bound(self, tmp_path):
        signal_path = tmp_path / "sig.json"
        rng = np.random.default_rng(71)
        coeffs = 0.6 ** np.arange(40) * np.exp(1j * rng.uniform(0, 2 * np.pi, 40))
        write_signal(signal_path, 2, coeffs)
        out = tmp_path / "table.csv"
        assert run_cli(
            "error-analysis", "--input", str(signal_path),
            "--sweep-r", "0.5,0.3,0.1,0.05", "--sweep-n", "4,8",
            "--output", str(out),
        ) == 0
        header, rows = read_csv(out)
        assert header == [
            "r", "n", "epsilon_m", "exact_normalized_sq", "bound",
            "leading_bound", "bound_satisfied",
        ]
        assert len(rows) == 8
        for row in rows:
            assert row[6] == "1"
            assert float(row[3]) <= float(row[4])

    def test_small_radius_rows_approach_tail_energy(self, tmp_path):
        signal_path = tmp_path / "sig.json"
        coeffs = 0.5 ** np.arange(40)
        write_signal(signal_path, 2, coeffs)
        out = tmp_path / "table.csv"
        assert run_cli(
            "error-analysis", "--input", str(signal_path),
            "--sweep-r", "1e-3", "--n", "8", "--output", str(out),
        ) == 0
        _, rows = read_csv(out)
        eps_m, exact, bound = float(rows[0][2]), float(rows[0][3]), float(rows[0][4])
        assert abs(exact - eps_m**2) < 1e-6
        assert abs(bound - eps_m**2) < 1e-6

    @pytest.mark.parametrize(
        "coefficients, row",
        [([1e-320, 1e-320], "0.5,2,0,0.14694393382352947,0.17279411764705888,0,1"),
         ([1.5e308 + 1.5e308j, 1.0], "0.5,2,0,0.17279411764705888,0.17279411764705888,0,1")],
        ids=["subnormal", "modulus-overflows"],
    )
    def test_a_signal_of_any_finite_size_answers(self, tmp_path, coefficients, row):
        # the subnormal signal's row is, to 2 ulps, that of [1, 1]: exactly
        # 1279/8704 and 188/1088; the other's is that of its leading
        # coefficient alone, whose error equals the bound
        signal_path = write_signal(tmp_path / "sig.json", 2, coefficients)
        code, out, err = run_in_process(["synthesize", "--r", "0.5", "--n", "4",
                                         "--input", str(signal_path)])
        assert (code, err) == (0, b"")
        code, out, err = run_in_process(["error-analysis", "--input", str(signal_path),
                                         "--r", "0.5", "--n", "2"])
        assert (code, err) == (0, b"")
        assert out.decode().splitlines()[1] == row

    @pytest.mark.parametrize(
        "a0, flags, rows",
        [(1.0 + 1.0j, ["--sweep-r", "0.5,0.3", "--n", "2"],
          ["0.5,2,0,0.17279411764705888,0.17279411764705888,0,1",
           "0.29999999999999999,2,0,0.024039668683662328,0.024039668683662328,0,1"]),
         (1e-300, ["--sweep-r", "0.97,0.986", "--n", "1"],
          ["0.96999999999999997,1,0,0.99650718999999999,0.9965071900000001,0,1",
           "0.98599999999999999,1,0,0.99922693758399994,0.99922693758399972,0,1"])],
        ids=["small-eps_0", "large-eps_0"],
    )
    def test_a_tie_reads_as_met(self, tmp_path, a0, flags, rows):
        # the exact error of a_0 alone is the bound, eps_0/(1+eps_0), whose
        # two printed values may differ in their last digits
        signal_path = write_signal(tmp_path / "sig.json", 2, [a0])
        code, out, err = run_in_process(["error-analysis", "--input", str(signal_path), *flags])
        assert (code, err) == (0, b"")
        assert out.decode().splitlines()[1:] == rows

    def test_bandlimited_signal_reduces_to_excess_term(self, tmp_path):
        signal_path = write_signal(tmp_path / "sig.json", 2, np.ones(4))
        out = tmp_path / "table.csv"
        assert run_cli(
            "error-analysis", "--input", str(signal_path),
            "--r", "0.5", "--n", "4", "--output", str(out),
        ) == 0
        _, rows = read_csv(out)
        assert float(rows[0][2]) == 0.0
        kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.5, 4))
        eps0 = ds.tail_excess(kernel.spectrum, 0)
        assert float(rows[0][4]) == pytest.approx(eps0 / (1 + eps0), rel=1e-12)

    def test_bound_variant_changes_leading_column(self, tmp_path):
        signal_path = write_signal(
            tmp_path / "sig.json", 2, 0.5 ** np.arange(40)
        )
        outs = {}
        for variant in ("printed", "derived"):
            out = tmp_path / f"table-{variant}.csv"
            assert run_cli(
                "error-analysis", "--input", str(signal_path),
                "--r", "0.4", "--n", "4", "--bound-variant", variant,
                "--output", str(out),
            ) == 0
            _, rows = read_csv(out)
            outs[variant] = float(rows[0][5])
        assert outs["printed"] != outs["derived"]

    def test_numerical_failure_exits_three(self, tmp_path):
        # at r = 1 - 1e-6, N = 3 the kernel's class tails exceed their budget
        samples_path = tmp_path / "samples.csv"
        samples_path.write_text("k,re,im\n" + "".join(f"{k},1,0\n" for k in range(3)))
        assert run_cli(
            "dft", "--twice-s", "2", "--r", "0.999999", "--n", "3", "--mode", "undersampled",
            "--input", str(samples_path),
        ) == 3

    def test_kernel_past_the_floor_of_the_double_range_answers(self, tmp_path, capsys):
        # lhat_55..lhat_59 of (2, 1e-3, 60) are below the smallest double; the
        # kernel is checked in logs, and the samples of [1] give back [1]
        signal_path = write_signal(tmp_path / "sig.json", 2, [1.0])
        samples_path, out = tmp_path / "samples.csv", tmp_path / "coeffs.csv"
        assert run_cli("synthesize", "--r", "1e-3", "--n", "60", "--input", str(signal_path),
                       "--output", str(samples_path)) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(
                "dft", "--twice-s", "2", "--r", "1e-3", "--n", "60", "--mode", "undersampled",
                "--input", str(samples_path), "--output", str(out),
            ) == 0
        assert capsys.readouterr().err.count("condition number") == 1
        _, rows = read_csv(out)
        assert rows[0][0] == "0" and abs(float(rows[0][3]) - 1.0) <= 1e-15

    def test_series_beyond_its_budget_exits_three_and_names_it(self, tmp_path, capsys):
        # at r = 1 - 1e-6, N = 3 a class tail needs over 6 million terms
        signal_path = write_signal(tmp_path / "sig.json", 2, [1.0, 0.5, 0.25, 0.1])
        assert run_cli(
            "error-analysis", "--input", str(signal_path), "--r", "0.999999", "--n", "3",
        ) == 3
        assert capsys.readouterr().err == (
            "disksampling: numerical failure: lambda tail series needs more than its "
            "budget of 1600000 terms\n"
        )

    def test_a_class_tail_that_reaches_index_2_to_the_52_exits_three(self, tmp_path, capsys):
        # r = 1 - 2^-53 puts the mode near 2^52, where float64 stops holding
        # every integer index: a limit of the summation, not a bad argument
        signal_path = write_signal(tmp_path / "sig.json", 2, [1.0, 0.5, 0.25, 0.1])
        assert run_cli(
            "error-analysis", "--input", str(signal_path), "--r", "0.9999999999999999",
            "--n", "3",
        ) == 3
        assert capsys.readouterr().err == (
            "disksampling: numerical failure: lambda tail series needs more than its "
            "budget of 1600000 terms\n"
        )

    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_coefficients_of_any_finite_size(self, tmp_path, scale):
        # their squares leave the double range; the table does not depend on
        # the scale
        coefficients = np.array([1.0, 0.5, 0.25, 0.1])
        tables = []
        for factor in (1.0, scale):
            signal_path = write_signal(tmp_path / "sig.json", 2, factor * coefficients)
            out = tmp_path / "table.csv"
            assert run_cli(
                "error-analysis", "--input", str(signal_path), "--r", "0.5", "--n", "3",
                "--output", str(out),
            ) == 0
            tables.append(np.array(read_csv(out)[1], dtype=float))
        assert np.allclose(tables[1], tables[0], rtol=1e-14, atol=0.0)

    def test_builds_no_kernel(self, tmp_path, monkeypatch):
        def refuse(twice_s, grid):
            raise AssertionError("error-analysis built a kernel")

        monkeypatch.setattr(undersampled, "overlap_kernel", refuse)
        signal_path = write_signal(tmp_path / "sig.json", 2, 0.5 ** np.arange(40))
        out = tmp_path / "table.csv"
        assert run_cli(
            "error-analysis", "--input", str(signal_path),
            "--r", "1e-3", "--n", "60", "--output", str(out),
        ) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1 and np.isfinite(float(rows[0][3]))

    def test_small_radius_sweep_answers_every_row(self, tmp_path):
        # at r = 0.3 and 0.1 the lambda mass of most residue classes mod 256
        # is far below the smallest double
        rng = np.random.default_rng(2048)
        coeffs = 0.97 ** np.arange(2048) * (
            rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
        )
        signal_path = write_signal(tmp_path / "sig.json", 2, coeffs)
        out = tmp_path / "table.csv"
        assert run_cli(
            "error-analysis", "--input", str(signal_path),
            "--sweep-r", "0.5,0.3,0.1", "--sweep-n", "4,64,256", "--output", str(out),
        ) == 0
        _, rows = read_csv(out)
        assert len(rows) == 9
        assert all(0.0 < float(row[3]) < 1.0 for row in rows)

    def test_single_sample_row_answers_for_a_long_signal(self, tmp_path):
        # at N = 1 all 4096 coefficients form one residue class
        rng = np.random.default_rng(4096)
        coeffs = 0.999 ** np.arange(4096) * (
            rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        )
        signal_path = write_signal(tmp_path / "sig.json", 2, coeffs)
        out = tmp_path / "table.csv"
        assert run_cli(
            "error-analysis", "--input", str(signal_path),
            "--r", "0.5", "--n", "1", "--output", str(out),
        ) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1 and rows[0][6] == "1"
        signal = ds.DiskSignal(2, coeffs)
        spectrum = ds.ResolutionSpectrum(2, ds.SamplingGrid(0.5, 1))
        exact = ds.alias_error(spectrum, signal) ** 2 / signal.norm_squared
        assert float(rows[0][3]) == pytest.approx(exact, rel=1e-15)

    def test_large_spin_rim_row_answers(self, tmp_path):
        # eps_0 is about exp(782) at 2s = 200, r = 0.99, N = 4
        signal_path = write_signal(tmp_path / "sig.json", 200, 0.9 ** np.arange(8))
        out = tmp_path / "table.csv"
        assert run_cli(
            "error-analysis", "--input", str(signal_path),
            "--sweep-r", "0.99", "--sweep-n", "4", "--output", str(out),
        ) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        exact, bound = float(rows[0][3]), float(rows[0][4])
        assert 0.0 < exact <= 1.0 and bound == 1.0
        assert rows[0][6] == "1"

    # at (2000, 0.8, 2000) eps_M = 0: the cross term is 0, not 0 times its factor e^864
    @pytest.mark.parametrize(
        "twice_s, radius, n", [(400, 0.99, 4), (2000, 0.9, 64), (2000, 0.8, 2000)]
    )
    def test_rim_rows_beyond_the_spectrum_mode_match_extended_precision(
        self, tmp_path, twice_s, radius, n
    ):
        coeffs = 0.9 ** np.arange(8)
        signal_path = write_signal(tmp_path / "sig.json", twice_s, coeffs)
        out = tmp_path / "table.csv"
        assert run_cli(
            "error-analysis", "--input", str(signal_path),
            "--sweep-r", str(radius), "--sweep-n", str(n), "--output", str(out),
        ) == 0
        _, rows = read_csv(out)
        bound, exact, _ = oracle.bound_and_exact(
            ds.DiskSignal(twice_s, coeffs), ds.SamplingGrid(radius, n), 30
        )
        assert float(rows[0][3]) == pytest.approx(exact, rel=1e-12)
        assert float(rows[0][4]) == pytest.approx(bound, rel=1e-12)
        assert rows[0][6] == "1"

    @pytest.mark.parametrize(
        "flags, message",
        [(["--sweep-r", ","], "--sweep-r must contain at least one value"),
         (["--n", "4"], "one of the arguments --r --sweep-r is required"),
         (["--r", "0.5", "--sweep-r", "0.3"], "argument --sweep-r: not allowed with argument --r"),
         (["--sweep-r", "0.3", "--sweep-n", "4"],
          "argument --sweep-n: not allowed with argument --n")],
        ids=["empty sweep", "no radius", "radius and its sweep", "count and its sweep"],
    )
    def test_missing_radii_are_refused(self, tmp_path, flags, message):
        signal_path = write_signal(tmp_path / "sig.json", 2, 0.5 ** np.arange(8))
        argv = ["error-analysis", "--input", str(signal_path), "--n", "4", *flags]
        code, _, err = run_in_process(argv)
        assert code == 2
        assert message in err.decode()

    def test_flag_pairs_are_refused_before_the_signal_file_is_read(self, tmp_path):
        argv = ["error-analysis", "--input", str(tmp_path / "absent.json"), "--n", "4",
                "--r", "0.5", "--sweep-r", "0.3"]
        code, _, err = run_in_process(argv)
        assert code == 2
        assert b"not allowed with argument --r" in err and b"absent.json" not in err

    def test_bad_sample_count_is_named(self, tmp_path, capsys):
        signal_path = write_signal(tmp_path / "sig.json", 2, 0.5 ** np.arange(40))
        assert run_cli(
            "error-analysis", "--input", str(signal_path),
            "--sweep-r", "0.5,0.3", "--sweep-n", "4,0",
        ) == 2
        assert "n_samples must be a positive integer, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["3.9", "inf", "4,x"])
@pytest.mark.parametrize("command", ["error-analysis", "critical-radius"])
def test_non_integer_list_entry_exits_two_and_names_the_flag(tmp_path, capsys, command, entry):
    # a fractional entry is not truncated, and inf is invalid input, not a numerical failure
    if command == "error-analysis":
        signal_path = write_signal(tmp_path / "sig.json", 2, 0.5 ** np.arange(8))
        argv, flag = ["--input", str(signal_path), "--r", "0.5", "--sweep-n", entry], "--sweep-n"
    else:
        argv, flag = ["--twice-s", "2", "--r-count", "3", "--m-list", entry], "--m-list"
    assert run_cli(command, *argv) == 2
    assert f"{flag} expects a comma-separated list of integers" in capsys.readouterr().err


class TestCriticalRadius:
    def test_nan_radius_exits_two(self, capsys):
        assert run_cli(
            "critical-radius", "--twice-s", "2", "--m-list", "3", "--r-count", "3", "--r-max", "nan",
        ) == 2
        assert "radius must lie in [0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "3"])
    @pytest.mark.parametrize("r_max", ["1.5", "-0.5", "1.0"])
    def test_r_max_outside_the_disk_is_refused_by_name(self, capsys, count, r_max):
        # before the grid is built, so also where it has no radius
        assert run_cli(
            "critical-radius", "--twice-s", "4", "--m-list", "3", "--r-count", count,
            "--r-max", r_max,
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--r-max: the largest radius must lie in [0, 1), got {r_max}" in captured.err

    @pytest.mark.parametrize(
        "count, code, text",
        [("-1", 2, "--r-count must be a nonnegative integer"), ("0", 0, "m,r,p,r_critical\n")],
        ids=["negative", "zero"],
    )
    def test_r_count_is_checked_by_name(self, capsys, count, code, text):
        # a count of zero radii gives the header alone
        assert run_cli(
            "critical-radius", "--twice-s", "2", "--m-list", "3", "--r-count", count,
        ) == code
        captured = capsys.readouterr()
        assert text in captured.err if code else captured.out == text

    def test_columns_and_values(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run_cli(
            "critical-radius", "--twice-s", "2", "--m-list", "1",
            "--r-count", "5", "--output", str(out),
        ) == 0
        header, rows = read_csv(out)
        assert header == ["m", "r", "p", "r_critical"]
        assert float(rows[0][2]) == 1.0
        assert float(rows[0][3]) == pytest.approx(2**-0.5, rel=1e-12)


def _per_value_table(columns, rows, fmt):
    """Tables as the CLI rendered them before its bulk writer: each value
    formatted on its own, its type read per value."""

    def cell(value):
        if isinstance(value, (bool, np.bool_)):
            return "1" if value else "0"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return format(float(value), ".17g")

    if fmt == "csv":
        lines = [",".join(columns)] + [",".join(cell(v) for v in row) for row in rows]
        return "".join(line + "\n" for line in lines)
    payload = {
        "columns": columns,
        "rows": [
            [int(v) if isinstance(v, (bool, int, np.bool_, np.integer)) else float(v) for v in row]
            for row in rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


class TestTableIO:
    VALUES = np.array(
        [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1 + 0.2, 3.0, -7.0, 0.0, 2.0**53,
         -1.5e-300, np.inf, np.nan]
    )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("size", [0, 1, 12])
    def test_bulk_writer_matches_per_value_rendering(self, fmt, size):
        values = np.empty(size, dtype=np.complex128)
        values.real = self.VALUES[:size]
        values.imag = -self.VALUES[::-1][:size]
        flags = values.real > 0.0
        rows = [(k, v.real, v.imag, flag) for k, (v, flag) in enumerate(zip(values, flags))]
        columns = ["k", "re", "im", "flag"]
        data = [np.arange(size), values.real, values.imag, flags.astype(np.int64)]
        assert cli._render_table(columns, data, fmt) == _per_value_table(columns, rows, fmt)
        complex_rows = [(k, v.real, v.imag) for k, v in enumerate(values)]
        assert cli._complex_table("k", values, fmt) == _per_value_table(
            ["k", "re", "im"], complex_rows, fmt
        )

    def test_json_writer_matches_json_dumps_on_many_rows(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)
        values[::37] = [-0.0, 5e-324, 1e308, -np.inf, np.inf, np.nan, 0.1, -1.0,
                        2.0**-1074, -2.2250738585072014e-308, 1e22, 1e16, 1.5e-7, 123456789.0]
        data = [np.arange(500), values, values[::-1], rng.integers(-2**62, 2**62, 500)]
        rows = [[int(k), float(a), float(b), int(c)] for k, a, b, c in zip(*data)]
        columns = ["n", "re", "im", "count"]
        expected = json.dumps({"columns": columns, "rows": rows}, indent=2) + "\n"
        assert cli._render_table(columns, data, "json") == expected

    @pytest.mark.parametrize(
        "body, line",
        [("k,re,im\n0,1,2\n1,3\n", 3), ("k,re,im\n0,1,2\n\n1,abc,2\n", 4),
         ("\n\nk,re,im\n\n0,1,2\n1,2,3\n\n1.5,0,0\n", 8),
         ("k,re,im\n0,abc,2\n1,3,4\n2,5,6\n", 2)],
        ids=["short row", "bad field after a blank line", "leading blank lines",
             "bad row in the first half"],
    )
    def test_malformed_row_names_the_line_of_the_file(self, tmp_path, capsys, body, line):
        samples_path = tmp_path / "samples.csv"
        samples_path.write_text(body)
        assert run_cli(
            "dft", "--twice-s", "2", "--r", "0.5", "--n", "2",
            "--mode", "bandlimited", "--band-limit", "0", "--input", str(samples_path),
        ) == 2
        _, reason = capsys.readouterr().err.split(f"{samples_path}, line {line}: ")
        assert "row" not in reason

    @pytest.mark.parametrize(
        "body", ["0.25,abc\n", "0.25\n", "0.25,\n", "  \n"],
        ids=["non-number", "short row", "empty field", "blank-looking row"],
    )
    def test_malformed_points_file_is_named(self, tmp_path, sample_setup, capsys, body):
        _, samples_path = sample_setup
        points_path = tmp_path / "pts.csv"
        points_path.write_text("re,im\n0.1,0.2\n" + body)
        assert run_cli(
            "reconstruct", "--twice-s", "2", "--r", "0.5", "--n", "2",
            "--mode", "bandlimited", "--band-limit", "0",
            "--input", str(samples_path), "--points", str(points_path),
        ) == 2
        assert str(points_path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body", ["1,abc,0\n", "1,0.5\n", "1.0,0.5,0\n"],
        ids=["non-number", "short row", "non-integer index"],
    )
    def test_malformed_samples_file_is_named(self, tmp_path, capsys, body):
        samples_path = tmp_path / "samples.csv"
        samples_path.write_text("k,re,im\n0,0.5,0\n" + body)
        assert run_cli(
            "dft", "--twice-s", "2", "--r", "0.5", "--n", "2",
            "--mode", "bandlimited", "--band-limit", "0", "--input", str(samples_path),
        ) == 2
        assert str(samples_path) in capsys.readouterr().err

    def test_duplicate_sample_index_is_named(self, tmp_path, capsys):
        samples_path = tmp_path / "samples.csv"
        samples_path.write_text("k,re,im\n0,1,0\n1,2,0\n1,5,0\n")
        assert run_cli(
            "dft", "--twice-s", "2", "--r", "0.5", "--n", "2",
            "--mode", "bandlimited", "--band-limit", "0", "--input", str(samples_path),
        ) == 2
        err = capsys.readouterr().err
        assert f"sample file {samples_path} lists index 1 twice" in err

    @pytest.mark.parametrize(
        "body, message",
        [("k,re,im\n0,1,0\n2,2,0\n", "sample index 2 outside 0..1"),
         ("k,re,im\n1,2,0\n", "sample file {} is missing indices for n=2"),
         ("k,re,im\n", "sample file {} is missing indices for n=2"),
         ("\n\n", "{} is empty"),
         ("k,re\n0,1\n1,2\n", "sample file {} needs columns k, re, im")],
        ids=["index outside", "missing index", "header only", "empty file",
             "missing column"],
    )
    def test_sample_file_errors_are_named(self, tmp_path, capsys, body, message):
        samples_path = tmp_path / "samples.csv"
        samples_path.write_text(body)
        assert run_cli(
            "dft", "--twice-s", "2", "--r", "0.5", "--n", "2",
            "--mode", "bandlimited", "--band-limit", "0", "--input", str(samples_path),
        ) == 2
        assert message.format(samples_path) in capsys.readouterr().err

    def test_blank_lines_and_padded_fields_are_read(self, tmp_path):
        tidy = {"samples": "k,re,im\n0,0.75,0\n1,0.5,-0.25\n", "pts": "re,im\n0.25,-0.5\n0.1,0\n"}
        loose = {
            "samples": "\nk , re,im\n\n 0, 0.75 ,0\n1 ,0.5,  -0.25\n\n",
            "pts": "re, im\n\n  0.25,-0.5 \n0.1 ,0\n\n\n",
        }
        outputs = []
        for name, files in (("tidy", tidy), ("loose", loose)):
            samples_path = tmp_path / f"{name}-samples.csv"
            points_path = tmp_path / f"{name}-pts.csv"
            samples_path.write_text(files["samples"])
            points_path.write_text(files["pts"])
            out = tmp_path / f"{name}.csv"
            assert run_cli(
                "reconstruct", "--twice-s", "2", "--r", "0.5", "--n", "2",
                "--mode", "bandlimited", "--band-limit", "1",
                "--input", str(samples_path), "--points", str(points_path),
                "--output", str(out),
            ) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestDiagnosticsAndDeterminism:
    def test_conditioning_warning_still_succeeds(self, tmp_path, capsys):
        samples_path = tmp_path / "s.csv"
        samples_path.write_text(
            "k,re,im\n" + "".join(f"{k},1,0\n" for k in range(14))
        )
        points_path = write_points(tmp_path / "p.csv", [0.05 + 0j])
        assert run_cli(
            "reconstruct", "--twice-s", "2", "--r", "0.1", "--n", "14",
            "--mode", "bandlimited", "--band-limit", "13",
            "--input", str(samples_path), "--points", str(points_path),
        ) == 0
        assert "condition number" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        signal_path = write_signal(tmp_path / "sig.json", 2, [1.0, 0.5 + 0.25j])
        samples_path = tmp_path / "samples.csv"
        run_cli("synthesize", "--r", "0.5", "--n", "4",
                "--input", str(signal_path), "--output", str(samples_path))
        points_path = write_points(tmp_path / "pts.csv", [0.3 + 0.1j, -0.2j])
        commands = {
            "grid": ["grid", "--r", "0.5", "--n", "4"],
            "synthesize": ["synthesize", "--r", "0.5", "--n", "4",
                           "--input", str(signal_path)],
            "reconstruct-band": [
                "reconstruct", "--twice-s", "2", "--r", "0.5", "--n", "4",
                "--mode", "bandlimited", "--band-limit", "1",
                "--input", str(samples_path), "--points", str(points_path)],
            "reconstruct-under": [
                "reconstruct", "--twice-s", "2", "--r", "0.5", "--n", "4",
                "--mode", "undersampled",
                "--input", str(samples_path), "--points", str(points_path)],
            "dft-band": ["dft", "--twice-s", "2", "--r", "0.5", "--n", "4",
                         "--mode", "bandlimited", "--band-limit", "1",
                         "--input", str(samples_path)],
            "dft-under": ["dft", "--twice-s", "2", "--r", "0.5", "--n", "4",
                          "--mode", "undersampled", "--input", str(samples_path)],
            "error-analysis": ["error-analysis", "--input", str(signal_path),
                               "--sweep-r", "0.4,0.2", "--n", "4"],
            "critical-radius": ["critical-radius", "--twice-s", "2",
                                "--m-list", "1,5", "--r-count", "20"],
        }
        for name, argv in commands.items():
            first = tmp_path / f"{name}-1.out"
            second = tmp_path / f"{name}-2.out"
            assert run_cli(*argv, "--output", str(first)) == 0, name
            assert run_cli(*argv, "--output", str(second)) == 0, name
            assert first.read_bytes() == second.read_bytes(), name

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask 022", "umask 077"])
    def test_output_files_take_the_mode_the_umask_gives(self, tmp_path, sample_setup,
                                                        umask, mode):
        # the mode open(path, "w") gives a new file, not the temporary file's 0600
        import stat

        _, samples_path = sample_setup
        points_path = write_points(tmp_path / "pts.csv", [0.1 + 0.1j])
        grid, values = tmp_path / "grid.csv", tmp_path / "values.csv"
        previous = os.umask(umask)
        try:
            assert run_cli("grid", "--r", "0.5", "--n", "3", "--output", str(grid)) == 0
            assert run_cli(
                "reconstruct", "--twice-s", "2", "--r", "0.5", "--n", "2",
                "--mode", "undersampled", "--n-max", "2",
                "--input", str(samples_path), "--points", str(points_path),
                "--output", str(values),
            ) == 0
        finally:
            os.umask(previous)
        for path in (grid, values, tmp_path / "values.csv.ahat.csv"):
            assert stat.S_IMODE(path.stat().st_mode) == mode, path.name

    def test_output_files_take_the_umask_without_setting_it(self, tmp_path, monkeypatch):
        # setting the process-wide umask, even for a moment, would change the
        # mode of a file another thread creates in that moment
        import stat

        def refuse(mask):
            raise AssertionError("set the umask")

        out = tmp_path / "grid.csv"
        previous = os.umask(0o022)
        try:
            monkeypatch.setattr(os, "umask", refuse)
            assert run_cli("grid", "--r", "0.5", "--n", "3", "--output", str(out)) == 0
        finally:
            monkeypatch.undo()
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == 0o644
        assert [path.name for path in tmp_path.iterdir()] == ["grid.csv"]

    def test_subprocess_entry_point(self, tmp_path):
        results = []
        for _ in range(2):
            proc = run_process(["grid", "--r", "0.5", "--n", "3"])
            assert proc.returncode == 0
            results.append(proc.stdout)
        assert results[0] == results[1]

    def test_import_loads_neither_scipy_nor_mpmath(self):
        # the FFT resolves every eigenvalue of the first kernel (spread 16);
        # the second (spread 1.2e13) also runs the finite-sum check
        package_root = str(pathlib.Path(ds.__file__).resolve().parent.parent)
        script = (
            "import sys\n"
            "import disksampling as ds\n"
            "def loaded(name):\n"
            "    return sorted(m for m in sys.modules if m == name or m.startswith(name + '.'))\n"
            "before = loaded('scipy') + loaded('mpmath')\n"
            "ds.overlap_kernel(2, ds.SamplingGrid(0.5, 4))\n"
            "ds.overlap_kernel(2, ds.SamplingGrid(0.1, 8))\n"
            "print(before, loaded('scipy'), 'mpmath' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": package_root}, check=True,
        )
        assert proc.stdout.split() == ["[]", "[]", "False"]

    def test_bad_flag_exits_two(self):
        proc = run_process(["grid", "--r", "0.5"])
        assert proc.returncode == 2


class TestCommandProcess:
    def test_import_loads_no_numpy_and_resolves_every_public_name(self):
        script = (
            "import importlib, json, sys\n"
            "import disksampling as ds\n"
            "report = {'numpy': 'numpy' in sys.modules}\n"
            "report['missing_from_dir'] = sorted(set(ds.__all__) - set(dir(ds)))\n"
            "names = [n for n in ds.__all__ if n != '__version__']\n"
            "report['count'] = len(names)\n"
            "report['not_identical'] = [\n"
            "    n for n in names\n"
            "    if getattr(ds, n) is not getattr(importlib.import_module(getattr(ds, n).__module__), n)\n"
            "    or not getattr(ds, n).__module__.startswith('disksampling.')]\n"
            "try:\n"
            "    ds.no_such_name\n"
            "except AttributeError as exc:\n"
            "    report['unknown'] = str(exc)\n"
            "print(json.dumps(report))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              check=True, env=process_env())
        report = json.loads(proc.stdout)
        assert report == {
            "numpy": False, "missing_from_dir": [], "count": 36, "not_identical": [],
            "unknown": "module 'disksampling' has no attribute 'no_such_name'",
        }

    def test_the_cli_module_run_as_a_script_is_refused(self):
        # python -m disksampling is the one entry point; this form runs no command
        proc = subprocess.run(
            [sys.executable, "-m", "disksampling.cli", "grid", "--r", "0.5", "--n", "2"],
            capture_output=True, env=process_env(),
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.decode().splitlines() == [
            "disksampling: error: run commands as python -m disksampling <command>"
        ]

    def test_grid_loads_neither_kernel_modules_nor_mpmath(self):
        proc = run_process(["grid", "--r", "0.5", "--n", "3"], PYTHONPROFILEIMPORTTIME="1")
        assert proc.returncode == 0
        loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.decode().splitlines()
                  if line.startswith("import time:")}
        assert "disksampling.cli" in loaded
        assert not loaded & {"disksampling.undersampled", "disksampling.bandlimited", "mpmath"}

    @pytest.mark.parametrize(
        "mode, flags, other",
        [("bandlimited", ["--band-limit", "3"], "disksampling.undersampled"),
         ("undersampled", [], "disksampling.bandlimited")],
    )
    def test_a_mode_loads_only_its_own_module(self, tmp_path, mode, flags, other):
        samples = tmp_path / "samples.csv"
        samples.write_text("k,re,im\n" + "".join(f"{k},1,0\n" for k in range(8)))
        points = write_points(tmp_path / "points.csv", [0.05 + 0j])
        common = ["--twice-s", "2", "--r", "0.5", "--n", "8", "--mode", mode, *flags,
                  "--input", str(samples)]
        for argv in (["reconstruct", *common, "--points", str(points)], ["dft", *common]):
            proc = run_process(argv, PYTHONPROFILEIMPORTTIME="1")
            assert proc.returncode == 0, argv
            loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.decode().splitlines()
                      if line.startswith("import time:")}
            assert f"disksampling.{mode}" in loaded and other not in loaded, argv

    def test_no_command_loads_mpmath(self, tmp_path):
        # kernel spreads of 1.4 and 1.2e13: the FFT resolves every eigenvalue
        # of the first, and the second also runs the finite-sum check
        samples = tmp_path / "samples.csv"
        samples.write_text("k,re,im\n" + "".join(f"{k},1,0\n" for k in range(8)))
        points = write_points(tmp_path / "points.csv", [0.05 + 0j])
        signal = write_signal(tmp_path / "signal.json", 2, [1.0, 0.5])
        commands = [
            ["dft", "--twice-s", "2", "--r", radius, "--n", "8", "--mode", "undersampled",
             "--input", str(samples)] for radius in ("0.9", "0.1")
        ] + [
            ["reconstruct", "--twice-s", "2", "--r", "0.1", "--n", "8", "--mode", "undersampled",
             "--input", str(samples), "--points", str(points)],
            ["error-analysis", "--input", str(signal), "--sweep-r", "0.4,0.2", "--n", "4"],
            ["critical-radius", "--twice-s", "2", "--m-list", "1,5", "--r-count", "20"],
        ]
        for argv in commands:
            proc = run_process(argv, PYTHONPROFILEIMPORTTIME="1")
            assert proc.returncode == 0, argv
            modules = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.decode().splitlines()
                       if line.startswith("import time:")}
            assert "disksampling.cli" in modules and "mpmath" not in modules, argv

    def test_kernel_condition_beyond_the_double_range_warns_once(self, tmp_path):
        # the spread of (2, 0.7, 1024) leaves the double range: the kernel
        # reports inf, and numpy's overflow warning stays out of stderr
        samples = tmp_path / "samples.csv"
        samples.write_text("k,re,im\n" + "".join(f"{k},1,0\n" for k in range(1024)))
        proc = run_process(["dft", "--twice-s", "2", "--r", "0.7", "--n", "1024",
                            "--mode", "undersampled", "--input", str(samples)])
        assert proc.returncode == 0
        err = proc.stderr.decode()
        assert "warning: condition number inf exceeds" in err and "RuntimeWarning" not in err

    def test_ill_conditioned_reconstruction_reports_the_condition_once(self, tmp_path):
        # partial_reconstruct warns as a library call; the command prints its
        # own line and silences the library's warning
        samples = tmp_path / "samples.csv"
        samples.write_text("k,re,im\n" + "".join(f"{k},1,0\n" for k in range(14)))
        points = write_points(tmp_path / "pts.csv", [0.05 + 0j])
        proc = run_process(["reconstruct", "--twice-s", "2", "--r", "0.1", "--n", "14",
                            "--mode", "undersampled", "--input", str(samples),
                            "--points", str(points)])
        assert proc.returncode == 0
        lines = proc.stderr.decode().splitlines()
        assert sum("condition number" in line for line in lines) == 1
        assert not any("ConditioningWarning" in line for line in lines)

    @pytest.mark.parametrize("entry", ["module", "script"])
    def test_exit_codes_and_stream_bytes_match_the_in_process_command(self, tmp_path, entry):
        samples_path = tmp_path / "samples.csv"
        samples_path.write_text("k,re,im\n" + "".join(f"{k},1,0\n" for k in range(3)))
        out = tmp_path / "grid.json"
        cases = [
            (["grid", "--r", "0.5", "--n", "3"], 0),  # stdout still in its buffer at the end
            (["grid", "--r", "0.5", "--n", "5000"], 0),  # stdout well past a pipe's buffer
            (["grid", "--r", "0.5", "--n", "3", "--format", "json", "--output", str(out)], 0),
            (["grid", "--r", "0.5"], 2),  # argparse exits
            (["grid", "--r", "1.5", "--n", "3"], 2),
            (["dft", "--twice-s", "2", "--r", "0.999999", "--n", "3", "--mode", "undersampled",
              "--input", str(samples_path)], 3),
        ]
        for argv, code in cases:
            out.unlink(missing_ok=True)
            expected = run_in_process(argv)
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            proc = run_process(argv, entry=entry)
            assert (proc.returncode, proc.stdout, proc.stderr) == expected, argv
            assert expected[0] == code
            assert (out.read_bytes() if out.exists() else None) == written

    def test_output_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path, sample_setup):
        _, samples_path = sample_setup
        points_path = write_points(tmp_path / "pts.csv", [0.3 + 0.1j, -0.2j, 0.0])
        commands = [
            ["reconstruct", "--twice-s", "2", "--r", "0.5", "--n", "2", "--mode", "bandlimited",
             "--band-limit", "1", "--input", str(samples_path), "--points", str(points_path)],
            ["dft", "--twice-s", "2", "--r", "0.5", "--n", "2", "--mode", "undersampled",
             "--n-max", "7", "--input", str(samples_path), "--format", "json"],
        ]
        for argv in commands:
            runs = [run_process(argv, **threads) for threads in
                    ({}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"})]
            assert runs[0].returncode == 0
            assert {(p.returncode, p.stdout, p.stderr) for p in runs} == {
                (0, runs[0].stdout, runs[0].stderr)
            }

    @pytest.mark.parametrize("entry", ["module", "script"])
    def test_a_blas_thread_count_the_user_set_is_kept(self, entry):
        # the command reports the variable as it runs, in place of its work
        report = (
            "import os, disksampling.cli as cli; "
            "cli.main = lambda argv=None: print(os.environ.get('OPENBLAS_NUM_THREADS')) or 0; "
        )
        launch = "import runpy; runpy.run_module('disksampling', run_name='__main__')"
        script = report + (launch if entry == "module" else CONSOLE_SCRIPT)
        seen = [
            subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, env=process_env(**threads)).stdout
            for threads in ({}, {"OPENBLAS_NUM_THREADS": "2"})
        ]
        assert seen == ["1\n", "2\n"]


COMMITTED_REFERENCE = pathlib.Path(__file__).parent / "fixtures" / "oracle_reference.json"


def _one_ulp_up(value):
    if np.iscomplexobj(value):
        return np.nextafter(value.real, np.inf) + 1j * np.nextafter(value.imag, np.inf)
    return np.nextafter(value, np.inf)


def _off_by_one_ulp(function):
    def perturbed(*args, **kwargs):
        result = function(*args, **kwargs)
        if isinstance(result, tuple):
            return tuple(_one_ulp_up(part) for part in result)
        return _one_ulp_up(result)

    return perturbed


class TestFixturesCommand:
    """The reference file is written by the test oracle, not by the CLI."""

    def test_cli_has_no_fixtures_command(self):
        with pytest.raises(SystemExit) as info:
            run_cli("fixtures")
        assert info.value.code == 2

    def test_regenerates_committed_reference(self):
        text = oracle.reference_text()
        generated = json.loads(text)
        committed = json.loads(COMMITTED_REFERENCE.read_text())
        assert sorted(generated) == sorted(committed)
        for key in committed:
            assert generated[key] == committed[key], key
        assert text.encode() == COMMITTED_REFERENCE.read_bytes()

    def test_reference_independent_of_numpy_rounding(self, monkeypatch):
        # numpy's vectorised libm and LAPACK differ between builds and CPU
        # dispatch paths in the last ulp; the stored values must not notice.
        for name in ("exp", "log", "log1p"):
            monkeypatch.setattr(np, name, _off_by_one_ulp(getattr(np, name)))
        legendre = np.polynomial.legendre
        monkeypatch.setattr(legendre, "leggauss", _off_by_one_ulp(legendre.leggauss))
        assert np.exp(0.0) != 1.0
        assert oracle.reference_text().encode() == COMMITTED_REFERENCE.read_bytes()

    def test_matches_live_oracle(self):
        payload = json.loads(oracle.reference_text())
        assert payload["dense_projector_00"] == pytest.approx(1.125 / 1.36, abs=1e-9)
        assert payload["dense_projector_02"] == pytest.approx(
            np.sqrt(1.125 * 0.2109375) / 1.36, abs=1e-9
        )
        for key, value in payload["quadrature_norms"].items():
            assert value == pytest.approx(1.0, abs=1e-8), key
