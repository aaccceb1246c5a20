"""Command-line behavior: exit codes, output shapes, config handling."""

import json
import math

import numpy as np
import pytest

from colebrook import cli, core, evaluation, kernels

LAM_STAR_1E5 = 0.01851249948164709


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestExitCodes:
    def test_ok(self, capsys):
        rc, _, _ = run(capsys, "solve", "--re", "1e5", "--rough", "1e-4")
        assert rc == 0

    def test_usage_error_missing_argument(self, capsys):
        rc, _, err = run(capsys, "solve", "--re", "1e5")
        assert rc == 1
        assert "required" in err

    def test_usage_error_unknown_scheme(self, capsys):
        rc, _, err = run(capsys, "scan", "--scheme", "eq99")
        assert rc == 1
        assert "invalid choice" in err

    def test_usage_error_unknown_command(self, capsys):
        rc, _, _ = run(capsys, "frobnicate")
        assert rc == 1

    def test_domain_error_negative_roughness(self, capsys):
        rc, _, err = run(capsys, "solve", "--re", "1e5", "--rough=-1e-4")
        assert rc == 2
        assert "domain error" in err

    def test_nonconvergence(self, capsys):
        rc, _, err = run(capsys, "solve", "--re", "0.001", "--rough", "1e-4")
        assert rc == 3
        assert "non-convergence" in err

    def test_io_error_missing_config(self, capsys):
        rc, _, err = run(capsys, "grid", "--config", "/nonexistent/x.cfg")
        assert rc == 4
        assert "i/o error" in err

    def test_help_exits_zero(self, capsys):
        rc, out, _ = run(capsys, "--help")
        assert rc == 0
        assert "solve" in out


# a small run of each subcommand; scan's kernel sine has a stderr audit
# in text mode
EVERY_COMMAND = [
    ("solve", "--re", "1e5", "--rough", "1e-4", "--scheme", "colebrook", "--scheme", "eq2a2"),
    ("scan", "--scheme", "eq6a", "--grid", "6x5", "--sin", "pade"),
    ("table1", "--grid", "4x3"),
    ("bench", "--scheme", "eq2a2", "--batch", "64", "--reps", "3"),
    ("kernels", "--check", "ln-pade", "--sweep", "101"),
    ("grid", "--grid", "5x4"),
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
class TestOneOutputPath:
    def test_json_is_one_object_on_one_line(self, capsys, argv):
        rc, out, err = run(capsys, *argv, "--json")
        assert (rc, err) == (0, "")
        (line,) = out.splitlines()
        assert out == line + "\n"
        assert isinstance(json.loads(line), dict)

    def test_text_is_not_json(self, capsys, argv):
        rc, out, _ = run(capsys, *argv)
        assert rc == 0 and out.strip()
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_subcommand_returns_record_and_lines_and_prints_neither(self, capsys, argv):
        args = cli.build_parser().parse_args([*argv, "--json"])
        record, lines = args.func(args, cli._resolve_settings(args))
        assert capsys.readouterr() == ("", "")
        assert isinstance(record, dict) and lines and all(isinstance(x, str) for x in lines)


class TestSolve:
    def test_reference_solver_output(self, capsys):
        rc, out, _ = run(capsys, "solve", "--re", "1e5", "--rough", "1e-4", "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["in_domain"] is True
        (res,) = doc["results"]
        assert res["scheme"] == "colebrook"
        assert res["lambda"] == pytest.approx(LAM_STAR_1E5, rel=1e-10)
        assert res["rel_err_pct"] == 0.0

    def test_reference_row_reports_vector_oracle(self, capsys):
        rc, out, _ = run(capsys, "solve", "--re", "1e5", "--rough", "1e-4", "--json")
        assert rc == 0
        (res,) = json.loads(out)["results"]
        x, its, _, conv = core.solve_colebrook_raw(1e5, 1e-4, core.oracle_start_raw(1e5, 1e-4))
        assert conv
        assert res["x"] == float(x)
        assert res["steps"] == int(its)

    def test_multiple_schemes(self, capsys):
        rc, out, _ = run(capsys, "solve", "--re", "1e5", "--rough", "1e-4",
                         "--scheme", "eq2a2", "--scheme", "eq2a2-pade", "--json")
        assert rc == 0
        doc = json.loads(out)
        ids = [r["scheme"] for r in doc["results"]]
        assert ids == ["eq2a2", "eq2a2-pade"]
        a, b = doc["results"]
        assert a["steps"] == b["steps"] == 2
        assert a["lambda"] == pytest.approx(b["lambda"], rel=1e-10)
        assert 0.0 < a["rel_err_pct"] < 0.5

    def test_kernel_sine_variant_has_its_own_id(self, capsys):
        rc, out, _ = run(capsys, "solve", "--re", "1e5", "--rough", "1e-4",
                         "--scheme", "eq6a", "--scheme", "eq2a2", "--scheme", "colebrook",
                         "--sin", "pade", "--json")
        assert rc == 0
        ids = [r["scheme"] for r in json.loads(out)["results"]]
        assert ids == ["eq6a-sinpade", "eq2a2", "colebrook"]
        rc, out, _ = run(capsys, "solve", "--re", "1e5", "--rough", "1e-4",
                         "--scheme", "eq6a", "--json")
        assert rc == 0
        assert [r["scheme"] for r in json.loads(out)["results"]] == ["eq6a"]

    def test_text_output_blocks(self, capsys):
        rc, out, _ = run(capsys, "solve", "--re", "1e5", "--rough", "1e-4",
                         "--scheme", "eq6a")
        assert rc == 0
        assert "scheme       eq6a" in out
        assert "lambda" in out and "oracle" in out

    def test_out_of_domain_warning(self, capsys):
        rc, out, _ = run(capsys, "solve", "--re", "2000", "--rough", "1e-4",
                         "--scheme", "eq2")
        assert rc == 0
        assert "outside the validated domain" in out

    def test_out_of_domain_flag_in_json(self, capsys):
        rc, out, _ = run(capsys, "solve", "--re", "2000", "--rough", "1e-4",
                         "--scheme", "eq2", "--json")
        assert rc == 0
        assert json.loads(out)["in_domain"] is False

    def test_constants_flag_changes_transformed_result(self, capsys):
        _, out_pub, _ = run(capsys, "solve", "--re", "1e5", "--rough", "1e-4",
                            "--scheme", "eq2a1-t", "--json")
        _, out_exact, _ = run(capsys, "solve", "--re", "1e5", "--rough", "1e-4",
                              "--scheme", "eq2a1-t", "--constants", "exact", "--json")
        x_pub = json.loads(out_pub)["results"][0]["x"]
        x_exact = json.loads(out_exact)["results"][0]["x"]
        assert x_pub != x_exact
        assert x_pub == pytest.approx(x_exact, rel=1e-4)

    def test_exact_constants_variant_has_its_own_id(self, capsys):
        rc, out, _ = run(capsys, "solve", "--re", "1e5", "--rough", "1e-4",
                         "--scheme", "eq2a1-t", "--scheme", "eq2a1",
                         "--constants", "exact", "--json")
        assert rc == 0
        ids = [r["scheme"] for r in json.loads(out)["results"]]
        assert ids == ["eq2a1-t-exact", "eq2a1"]


class TestScan:
    def test_summary_line(self, capsys):
        rc, out, _ = run(capsys, "scan", "--scheme", "eq2a2", "--grid", "12x10")
        assert rc == 0
        tokens = out.split()
        assert tokens[0] == "eq2a2"
        max_pct, argmax_re, argmax_rough, mean_pct, p99 = map(float, tokens[1:6])
        assert 0 < mean_pct < max_pct
        assert mean_pct <= p99 <= max_pct
        assert 4000.0 <= argmax_re <= 1e8

    def test_json_fields(self, capsys):
        rc, out, _ = run(capsys, "scan", "--scheme", "eq2a2", "--grid", "12x10", "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["scheme"] == "eq2a2"
        assert doc["points"] == 120
        assert doc["max_pct"] > doc["mean_pct"] > 0
        assert doc["csv"] is None and doc["heatmap"] is None

    def test_writes_artifacts(self, capsys, tmp_path):
        csv = tmp_path / "m.csv"
        pgm = tmp_path / "m.pgm"
        rc, _, _ = run(capsys, "scan", "--scheme", "eq2a2", "--grid", "9x7",
                       "--out", str(csv), "--heatmap", str(pgm))
        assert rc == 0
        header = csv.read_text().splitlines()[0]
        assert header == "re,rel_rough,lambda_ref,lambda_approx,rel_err_pct"
        assert pgm.read_bytes().startswith(b"P2\n9 7\n255\n")

    def test_heatmap_of_non_finite_errors_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        relative_error = core.relative_error_pct_raw

        def first_error_inf(lambda_accurate, lambda_approx, out=None):
            out = relative_error(lambda_accurate, lambda_approx, out=out)
            out[0] = math.inf
            return out

        monkeypatch.setattr(core, "relative_error_pct_raw", first_error_inf)
        pgm = tmp_path / "m.pgm"
        rc, _, err = run(capsys, "scan", "--scheme", "eq2a2", "--grid", "6x5",
                         "--heatmap", str(pgm))
        assert rc == 1
        assert "1 of 30 points are inf or NaN" in err
        assert not pgm.exists()

    def test_artifacts_equal_those_of_a_map_given_its_mesh(self, capsys, tmp_path):
        # the scan's map derives its coordinates from the grid; a map given
        # the flat mesh, as scans once built one, writes the same bytes
        csv, pgm = tmp_path / "m.csv", tmp_path / "m.pgm"
        rc, out, _ = run(capsys, "scan", "--scheme", "eq2a2", "--grid", "40x30", "--workers", "2",
                         "--out", str(csv), "--heatmap", str(pgm), "--json")
        assert rc == 0
        grid = evaluation.GridSpec(n_re=40, n_rough=30)
        em, _ = evaluation.scan_errors("eq2a2", grid=grid)
        re_axis, rough_axis = evaluation.grid_axes(grid)
        rough_m, re_m = np.meshgrid(rough_axis, re_axis, indexing="ij")
        given = evaluation.ErrorMap(grid, re_m.ravel(), rough_m.ravel(), em.lambda_ref,
                                    em.lambda_approx, None, em.sine_fallbacks)
        evaluation.export_csv(given, tmp_path / "given.csv")
        evaluation.export_heatmap(given, tmp_path / "given.pgm")
        assert csv.read_bytes() == (tmp_path / "given.csv").read_bytes()
        assert pgm.read_bytes() == (tmp_path / "given.pgm").read_bytes()
        st = evaluation.stats_of(given)
        assert json.loads(out) == {
            "scheme": "eq2a2", "max_pct": st.max_pct, "argmax_re": st.argmax_re,
            "argmax_rough": st.argmax_rough, "mean_pct": st.mean_pct, "p99_pct": st.p99_pct,
            "points": 1200, "sine_fallbacks": 0, "csv": str(csv), "heatmap": str(pgm),
        }

    def test_artifacts_reproducible_across_worker_counts(self, capsys, tmp_path):
        paths = []
        for name, workers in (("a", "1"), ("b", "6")):
            p = tmp_path / f"{name}.csv"
            rc, _, _ = run(capsys, "scan", "--scheme", "eq6a", "--grid", "11x9",
                           "--workers", workers, "--out", str(p))
            assert rc == 0
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_kernel_sine_variant_has_its_own_id(self, capsys):
        for sin, want in ((None, "eq6a"), ("exact", "eq6a"), ("pade", "eq6a-sinpade"),
                          ("quintic", "eq6a-sinquintic")):
            flags = () if sin is None else ("--sin", sin)
            rc, out, _ = run(capsys, "scan", "--scheme", "eq6a", "--grid", "6x5",
                             *flags, "--json")
            assert rc == 0
            assert json.loads(out)["scheme"] == want
        # a starter without a sine keeps its id
        rc, out, _ = run(capsys, "scan", "--scheme", "eq2a2", "--grid", "6x5",
                         "--sin", "pade", "--json")
        assert rc == 0
        assert json.loads(out)["scheme"] == "eq2a2"

    def test_exact_constants_variant_has_its_own_id(self, capsys):
        for constants, want in (("published", "eq2a1-t"), ("exact", "eq2a1-t-exact")):
            rc, out, _ = run(capsys, "scan", "--scheme", "eq2a1-t", "--grid", "6x5",
                             "--constants", constants, "--json")
            assert rc == 0
            assert json.loads(out)["scheme"] == want

    def test_sine_fallback_audit_on_stderr(self, capsys):
        rc, out, err = run(capsys, "scan", "--scheme", "eq6a", "--grid", "8x8",
                           "--sin", "pade")
        assert rc == 0
        assert "sine fallbacks:" in err
        assert "sine fallbacks" not in out

    def test_custom_bounds(self, capsys):
        rc, out, _ = run(capsys, "scan", "--scheme", "eq2", "--grid", "6x5",
                         "--re-min", "1e4", "--rough-min", "1e-5", "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["argmax_re"] >= 1e4

    def test_bad_grid_string(self, capsys):
        rc, _, err = run(capsys, "scan", "--scheme", "eq2", "--grid", "banana")
        assert rc == 1
        assert "NxM" in err


class TestConfig:
    def test_config_sets_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# mesh for quick runs\nn_re = 7\nn_rough = 5\n")
        rc, out, _ = run(capsys, "grid", "--config", str(cfg), "--json")
        assert rc == 0
        assert json.loads(out)["points"] == 35

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_re = 7\nn_rough = 5\nre_min = 5000\n")
        rc, out, _ = run(capsys, "grid", "--config", str(cfg), "--grid", "4x3",
                         "--re-min", "6000", "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["points"] == 12
        assert doc["re_min"] == 6000.0

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp_factor = 9\n")
        rc, _, err = run(capsys, "grid", "--config", str(cfg))
        assert rc == 1
        assert "unknown key" in err

    def test_bad_value_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_re = many\n")
        rc, _, err = run(capsys, "grid", "--config", str(cfg))
        assert rc == 1
        assert "bad value" in err

    @pytest.mark.parametrize("line", ["constants = bogus", "sin_strategy = nonsense"])
    def test_bad_enumerated_value_rejected(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        rc, _, err = run(capsys, "scan", "--scheme", "eq2a2", "--grid", "5x5",
                         "--config", str(cfg), "--json")
        assert rc == 1
        assert "bad value" in err

    def test_defaults_keep_their_cast_types(self):
        # load_config casts a value with the type of its default
        types = {k: type(v) for k, v in cli.DEFAULT_SETTINGS.items()}
        assert types["re_min"] is types["rough_max"] is float
        assert types["n_re"] is types["n_rough"] is int
        assert types["re_spacing"] is types["constants"] is str

    @pytest.mark.parametrize("command", ["solve", "scan", "bench"])
    def test_variant_flags_beat_config_beat_defaults(self, capsys, tmp_path, command):
        argv = {
            "solve": ("solve", "--re", "1e5", "--rough", "1e-4", "--scheme", "eq6a-t"),
            "scan": ("scan", "--scheme", "eq6a-t", "--grid", "5x4"),
            "bench": ("bench", "--scheme", "eq6a-t", "--batch", "64", "--reps", "3"),
        }[command]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sin_strategy = pade\nconstants = exact\n")

        def scheme_id(*extra):
            rc, out, _ = run(capsys, *argv, *extra, "--json")
            assert rc == 0
            doc = json.loads(out)
            return doc["scheme"] if command == "scan" else doc["results"][0]["scheme"]

        assert scheme_id() == "eq6a-t"
        assert scheme_id("--config", str(cfg)) == "eq6a-t-sinpade-exact"
        assert scheme_id("--config", str(cfg), "--sin", "quintic",
                         "--constants", "published") == "eq6a-t-sinquintic"

    def test_out_dir_prefixes_relative_outputs(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out_dir = {tmp_path}\n")
        rc, _, _ = run(capsys, "scan", "--scheme", "eq2", "--grid", "4x3",
                       "--config", str(cfg), "--out", "rel.csv")
        assert rc == 0
        assert (tmp_path / "rel.csv").exists()


class TestKernelsCommand:
    def test_ln_pade_passes(self, capsys):
        rc, out, _ = run(capsys, "kernels", "--check", "ln-pade", "--sweep", "5001")
        assert rc == 0
        assert out.strip().endswith("PASS")

    def test_quintic_passes(self, capsys):
        rc, out, _ = run(capsys, "kernels", "--check", "sin-quintic", "--sweep", "20001")
        assert rc == 0
        assert out.strip().endswith("PASS")

    def test_pade_sin_passes_at_printed_precision(self, capsys):
        # the window maximum of the exact [3/2] Pade form is 0.068805%;
        # the published 0.068% is that figure cut to three decimals
        rc, out, _ = run(capsys, "kernels", "--check", "sin-pade", "--sweep", "100001",
                         "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PASS"
        assert doc["bound_pct"] == 0.068
        assert 0.068 < doc["max_rel_err_pct"] < 0.069

    def test_pade_sin_check_fails_a_perturbed_kernel(self, capsys, monkeypatch):
        exact = kernels.pade_sin
        monkeypatch.setattr(kernels, "pade_sin", lambda x: 1.001 * exact(x))
        rc, out, _ = run(capsys, "kernels", "--check", "sin-pade", "--sweep", "100001",
                         "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"] == "FAIL"
        assert doc["max_rel_err_pct"] >= 0.069

    def test_rejects_tiny_sweep(self, capsys):
        rc, _, _ = run(capsys, "kernels", "--check", "ln-pade", "--sweep", "1")
        assert rc == 1


class TestTable1:
    def test_json_rows(self, capsys):
        rc, out, _ = run(capsys, "table1", "--grid", "10x8", "--json")
        assert rc == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 8
        assert rows[0]["scheme"] == "eq2a2"
        assert {"scheme", "n_log", "measured_max_pct", "published_max_pct"} <= set(rows[0])

    def test_text_and_csv(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        rc, out, _ = run(capsys, "table1", "--grid", "10x8", "--csv", str(path))
        assert rc == 0
        assert out.splitlines()[0].split()[0] == "scheme"
        lines = path.read_text().splitlines()
        assert lines[0] == "scheme,n_log,measured_max_pct,published_max_pct"
        assert len(lines) == 9

    def test_rejects_a_kernel_sine(self, capsys, tmp_path):
        # the rows are the published schemes, which use the exact sine
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sin_strategy = pade\n")
        rc, out, err = run(capsys, "table1", "--grid", "4x3", "--config", str(cfg))
        assert rc == 1
        assert out == ""
        assert "sin_strategy" in err


class TestBench:
    def test_json_smoke(self, capsys):
        rc, out, _ = run(capsys, "bench", "--scheme", "eq2a2", "--scheme", "eq2a2-pade",
                         "--batch", "64", "--reps", "3", "--json")
        assert rc == 0
        doc = json.loads(out)
        assert [r["scheme"] for r in doc["results"]] == ["eq2a2", "eq2a2-pade"]
        assert all(r["median_ns"] > 0 for r in doc["results"])
        assert isinstance(doc["pade_one_log_faster"], bool)

    def test_text_smoke(self, capsys):
        rc, out, _ = run(capsys, "bench", "--scheme", "eq6a", "--batch", "64",
                         "--reps", "3")
        assert rc == 0
        assert out.splitlines()[1].split()[0] == "eq6a"

    def test_config_sine_strategy_is_applied(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sin_strategy = pade\n")
        rc, out, _ = run(capsys, "bench", "--scheme", "eq6a", "--config", str(cfg),
                         "--batch", "64", "--reps", "3", "--json")
        assert rc == 0
        (res,) = json.loads(out)["results"]
        assert (res["scheme"], res["n_sin"], res["n_div"]) == ("eq6a-sinpade", 0, 3)


class TestGridCommand:
    def test_text(self, capsys):
        rc, out, _ = run(capsys, "grid", "--grid", "5x4")
        assert rc == 0
        assert "points  20" in out

    def test_json_endpoints(self, capsys):
        rc, out, _ = run(capsys, "grid", "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["points"] == 90000
        assert doc["re_first"] == 4000.0 and doc["re_last"] == 1e8
        assert doc["rough_first"] == 1e-6 and doc["rough_last"] == 0.05
