import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import disksampling as ds
from disksampling import cli, undersampled

import oracle
from conftest import random_disk_points


def run_cli(*argv):
    return cli.main(list(argv))


def run_module(*argv):
    """Run ``python -m disksampling`` on the package this process imported."""
    package_root = str(pathlib.Path(ds.__file__).resolve().parent.parent)
    search_path = [package_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search_path))}
    return subprocess.run(
        [sys.executable, "-m", "disksampling", *argv], capture_output=True, env=env
    )


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
        # the smallest kernel eigenvalue underflows at r = 1e-3, N = 60
        samples_path = tmp_path / "samples.csv"
        samples_path.write_text("k,re,im\n" + "".join(f"{k},1,0\n" for k in range(60)))
        assert run_cli(
            "dft", "--twice-s", "2", "--r", "1e-3", "--n", "60", "--mode", "undersampled",
            "--input", str(samples_path),
        ) == 3

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

    @pytest.mark.parametrize("twice_s, radius, n", [(400, 0.99, 4), (2000, 0.9, 64)])
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

    def test_bad_sample_count_is_named(self, tmp_path, capsys):
        signal_path = write_signal(tmp_path / "sig.json", 2, 0.5 ** np.arange(40))
        assert run_cli(
            "error-analysis", "--input", str(signal_path),
            "--sweep-r", "0.5,0.3", "--sweep-n", "4,0",
        ) == 2
        assert "n_samples must be a positive integer, got 0" in capsys.readouterr().err


class TestCriticalRadius:
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
    def test_tolerance_echo(self, capsys):
        run_cli("grid", "--r", "0.5", "--n", "1")
        err = capsys.readouterr().err
        assert "series truncation tolerance = 1e-16" in err

    def test_tolerance_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DISKSAMPLING_SERIES_TOL", "1e-14")
        out = tmp_path / "grid.csv"
        assert run_cli("grid", "--r", "0.5", "--n", "2", "--output", str(out)) == 0
        err = capsys.readouterr().err
        assert "tolerance = 1e-14" in err and "DISKSAMPLING_SERIES_TOL=1e-14" in err

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

    def test_subprocess_entry_point(self, tmp_path):
        results = []
        for _ in range(2):
            proc = run_module("grid", "--r", "0.5", "--n", "3")
            assert proc.returncode == 0
            results.append(proc.stdout)
        assert results[0] == results[1]

    def test_import_loads_neither_scipy_nor_mpmath(self):
        # mpmath is loaded by the first kernel only; scipy not at all
        package_root = str(pathlib.Path(ds.__file__).resolve().parent.parent)
        script = (
            "import sys\n"
            "import disksampling as ds\n"
            "def loaded(name):\n"
            "    return sorted(m for m in sys.modules if m == name or m.startswith(name + '.'))\n"
            "before = loaded('scipy') + loaded('mpmath')\n"
            "ds.overlap_kernel(2, ds.SamplingGrid(0.5, 4))\n"
            "print(before, loaded('scipy'), 'mpmath' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": package_root}, check=True,
        )
        assert proc.stdout.split() == ["[]", "[]", "True"]

    def test_bad_flag_exits_two(self):
        proc = run_module("grid", "--r", "0.5")
        assert proc.returncode == 2


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
