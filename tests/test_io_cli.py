import argparse
import gc
import hashlib
import json
import os
import string
import subprocess
import sys
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import gaugeport
from gaugeport import PricePanel, ProcessSpec, TimeGrid, simulate
from gaugeport import cli, discounting, pricer, sim
from gaugeport.cli import EXIT_COMPUTE, EXIT_OK, EXIT_USAGE, main
from gaugeport.io import (
    _DEFAULT_CONFIG,
    PanelFormatError,
    RunConfig,
    export_panel,
    ingest,
    load_config,
    read_report,
    write_report,
)
from test_sim import assert_same_bits


def write_csv(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


GOOD_CSV = (
    "date,Stock,Bond#cash\n"
    "2020-01-01,100.0,1.0\n"
    "2020-01-02,101.5,1.0001\n"
    "2020-01-03,99.75,1.0002\n"
)


class TestIngest:
    def test_round_trip_preserves_prices(self, fixture_panel, fixture_csv):
        panel = ingest(fixture_csv)
        assert panel.asset_ids == fixture_panel.asset_ids
        assert np.array_equal(panel.prices, fixture_panel.prices)

    def test_basic_parse(self, tmp_path):
        panel = ingest(write_csv(tmp_path, GOOD_CSV))
        assert panel.n_assets == 2
        assert panel.grid.steps == 2
        assert panel.prices[1, 0] == 101.5

    def test_normalize_rescales_to_inception(self, tmp_path):
        panel = ingest(write_csv(tmp_path, GOOD_CSV), normalize=True)
        np.testing.assert_allclose(panel.prices[0], 1.0)
        assert panel.prices[1, 0] == pytest.approx(1.015)

    def test_prices_equal_float_of_each_cell(self, tmp_path):
        rng = np.random.default_rng(4)
        formats = [
            lambda v: repr(float(v)), "{:.17g}".format, "{:.6e}".format, " {:.3f}\t".format,
            "{:.25f}".format,
        ]
        values = rng.uniform(0.01, 500.0, (8, len(formats))) * 10.0 ** rng.integers(-3, 4, (8, 1))
        cells = [[fmt(v) for fmt, v in zip(formats, row)] for row in values]
        cells[0] = ["7", "+2.5", "1e-3", "1E2", "0.1"]
        lines = ["date," + ",".join(f"A{c}" for c in range(len(formats)))]
        lines += [f"2020-01-{r + 1:02d}," + ",".join(row) for r, row in enumerate(cells)]
        panel = ingest(write_csv(tmp_path, "\n".join(lines) + "\n"))
        expected = np.array([[float(c) for c in row] for row in cells])
        assert np.array_equal(panel.prices.view(np.int64), expected.view(np.int64))

    def test_quoted_cells_and_crlf_parse_as_float(self, tmp_path):
        cells = [['"2.5"', '" 0.1"', "1e-3"], ["7", '"+1E2"', repr(1 / 3)]]
        lines = ["date,A,B,C"] + [f"2020-01-0{r + 1}," + ",".join(row) for r, row in enumerate(cells)]
        expected = np.array([[float(c.strip('"')) for c in row] for row in cells])
        for newline in ("\n", "\r\n"):
            panel = ingest(write_csv(tmp_path, newline.join(lines) + newline))
            assert np.array_equal(panel.prices.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662"])
    def test_cells_outside_the_number_syntax_are_rejected(self, cell, tmp_path):
        text = f"date,A,B\n2020-01-01,1.0,2.0\n2020-01-02,3.0,{cell}\n"
        with pytest.raises(PanelFormatError, match=f"row 2, column 'B': not a number: '{cell}'"):
            ingest(write_csv(tmp_path, text))

    def test_quote_left_open_at_a_line_end_is_rejected(self, tmp_path):
        text = 'date,A,B\n2020-01-01,1.0,"2.0\n2020-01-02,3.0,4.0\n2020-01-03,5.0,6.0\n'
        with pytest.raises(PanelFormatError, match="quoted price runs past the end of its row"):
            ingest(write_csv(tmp_path, text))

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
    @pytest.mark.parametrize("last_line_end", [True, False], ids=["ended", "unended"])
    def test_quote_left_open_in_the_last_row_is_rejected(self, newline, last_line_end, tmp_path):
        # np.loadtxt closes a quote left open at the end of its input
        lines = ["date,A", "2020-01-01,1.0", '2020-01-02,"4']
        text = newline.join(lines) + (newline if last_line_end else "")
        with pytest.raises(PanelFormatError, match="^.*: a quoted price runs past the end of its row$"):
            ingest(write_csv(tmp_path, text))
        # closed, the same quote reads as the number
        closed = ingest(write_csv(tmp_path, text.replace('"4', '"4"')))
        assert closed.prices[:, 0].tolist() == [1.0, 4.0]

    @pytest.mark.parametrize(
        "cell,message",
        [("x", "not a number: "), ("", "not a number: "), ("0", "nonpositive price "),
         ("nan", "nonpositive price ")],
    )
    @pytest.mark.parametrize(
        "row,col", [(1, 0), (316, 64), (158, 127)], ids=["first-row", "last-row", "last-column"]
    )
    def test_bad_field_in_a_wide_panel_is_named(self, row, col, cell, message, tmp_path):
        # the size of the benchmark panel: 316 rows of 128 prices
        prices = np.random.default_rng(3).uniform(0.5, 2.0, (316, 128))
        cells = [[repr(float(p)) for p in line] for line in prices]
        cells[row - 1][col] = cell
        labels = [f"asset{c:03d}" for c in range(128)]
        lines = ["date," + ",".join(labels)]
        lines += [f"{date(2001, 1, 1) + timedelta(days=r)}," + ",".join(line) for r, line in enumerate(cells)]
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(PanelFormatError, match=f": row {row}, column '{labels[col]}': {message}'{cell}'"):
            ingest(path)

    def test_ragged_row_reports_coordinates(self, tmp_path):
        bad = GOOD_CSV.replace("2020-01-02,101.5,1.0001", "2020-01-02,101.5")
        with pytest.raises(PanelFormatError, match="row 2"):
            ingest(write_csv(tmp_path, bad))

    def test_row_without_prices_is_ragged(self, tmp_path):
        bad = GOOD_CSV.replace("2020-01-02,101.5,1.0001", "2020-01-02")
        with pytest.raises(PanelFormatError, match="ragged row 2: expected 3 fields, got 1"):
            ingest(write_csv(tmp_path, bad))

    def test_bad_number_reports_row_and_column(self, tmp_path):
        bad = GOOD_CSV.replace("99.75", "ninety")
        with pytest.raises(PanelFormatError, match="row 3.*'Stock'"):
            ingest(write_csv(tmp_path, bad))

    def test_nonpositive_price_rejected(self, tmp_path):
        bad = GOOD_CSV.replace("99.75", "-1.0")
        with pytest.raises(PanelFormatError, match="nonpositive"):
            ingest(write_csv(tmp_path, bad))

    def test_bad_date_rejected(self, tmp_path):
        bad = GOOD_CSV.replace("2020-01-02", "02/01/2020")
        with pytest.raises(PanelFormatError, match="bad date"):
            ingest(write_csv(tmp_path, bad))

    def test_dates_must_increase(self, tmp_path):
        bad = GOOD_CSV.replace("2020-01-03", "2020-01-02")
        with pytest.raises(PanelFormatError, match="not after"):
            ingest(write_csv(tmp_path, bad))

    def test_at_most_one_cash_column(self, tmp_path):
        bad = GOOD_CSV.replace("Stock", "Stock#cash")
        with pytest.raises(PanelFormatError, match="#cash"):
            ingest(write_csv(tmp_path, bad))

    def test_needs_two_data_rows(self, tmp_path):
        bad = "date,A\n2020-01-01,1.0\n"
        with pytest.raises(PanelFormatError, match="two data rows"):
            ingest(write_csv(tmp_path, bad))

    def test_export_requires_labels(self, tmp_path):
        panel = PricePanel(grid=TimeGrid(0.5, 1), prices=np.ones((2, 1)))
        with pytest.raises(ValueError, match="labels"):
            export_panel(panel, tmp_path / "out.csv")

    def test_export_rejects_steps_shorter_than_a_day(self, tmp_path):
        # dt = 1/1000 year: grid points 0 and 1 both round to 2005-07-01,
        # and ingest would reject the repeated date
        panel = PricePanel(grid=TimeGrid(1e-3, 4), prices=np.ones((5, 1)), asset_ids=("A",))
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="grid points 0 and 1 both fall on 2005-07-01"):
            export_panel(panel, out)
        assert not out.exists()

    def test_export_at_a_day_per_step_round_trips(self, tmp_path):
        panel = PricePanel(
            grid=TimeGrid(1.0 / 365.25, 3), prices=np.arange(1.0, 5.0)[:, None], asset_ids=("A",)
        )
        export_panel(panel, tmp_path / "out.csv")
        np.testing.assert_array_equal(ingest(tmp_path / "out.csv").prices, panel.prices)


class TestRunConfig:
    def test_defaults_when_no_file(self):
        config = load_config(None)
        assert config.section("simulate")["n_assets"] == 8
        assert config.section("pde")["strike"] == 100.0

    @pytest.mark.parametrize("text", ["", "# no sections\n", "---\n"])
    def test_empty_file_means_defaults(self, text, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(text)
        assert load_config(path).effective() == load_config(None).effective()

    def test_yaml_overrides_merge_with_defaults(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"simulate": {"n_paths": 5}}))
        config = load_config(path)
        section = config.section("simulate")
        assert section["n_paths"] == 5
        assert section["noise"] == "normal"  # default retained

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"simulte": {"n_paths": 5}}))
        with pytest.raises(ValueError, match="unknown config sections"):
            load_config(path)

    @pytest.mark.parametrize(
        "section,key,value,message",
        [
            ("simulate", "process", "garch", "unknown process"),
            ("simulate", "noise", "levy", "unknown noise"),
            ("simulate", "dt", -0.1, "dt must be positive"),
            ("riskfree", "sizes", [16, 64.5, 256, 1024], "riskfree.sizes"),
            ("riskfree", "sizes", [0, 16, 64, 256], "riskfree.sizes"),
            ("riskfree", "sizes", [16, 64, 256], "riskfree.sizes"),
            ("riskfree", "n_paths", -3, "riskfree.n_paths"),
            ("pde", "payoff", "digital", "unknown payoff"),
            ("pde", "n_s", 4, "too coarse"),
            ("sensitivity", "n_factors", 99, "n_factors"),
        ],
    )
    def test_value_validation(self, tmp_path, section, key, value, message):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({section: {key: value}}))
        with pytest.raises(ValueError, match=message):
            load_config(path)

    def test_sha256_tracks_content(self):
        # the hash is of the effective config: seed 1 is the default
        a = RunConfig({"simulate": {"seed": 1}})
        b = RunConfig({"simulate": {"seed": 2}})
        assert a.sha256() == RunConfig({}).sha256()
        assert a.sha256() != b.sha256()

    @pytest.mark.parametrize(
        "text, plain",
        [
            (yaml.safe_dump(_DEFAULT_CONFIG), ""),
            ("simulate: {horizon: 1, xi: 0, process_params: {mu: 0.05}}\npde: {strike: 100}\n", ""),
            (
                "simulate: {process: affine, process_params: {mu0: 0, sigma0: 0.2}}\n",
                "simulate: {process: affine}\n",
            ),
            # restates sigma and leaves mu to the family's default, the default run's 0.05
            ("simulate: {process_params: {sigma: 0.2}}\n", ""),
        ],
        ids=["every-default", "ints-and-family-defaults", "affine-defaults", "restated-sigma"],
    )
    def test_restated_defaults_hash_like_no_config(self, text, plain, tmp_path):
        (tmp_path / "a.yaml").write_text(text)
        (tmp_path / "b.yaml").write_text(plain)
        restated = load_config(tmp_path / "a.yaml").sha256()
        assert restated == load_config(tmp_path / "b.yaml").sha256()
        if not plain:
            assert restated == load_config(None).sha256()
        # the same hash runs the same config: the reports match byte for byte
        for name in ("a", "b"):
            argv = ["simulate", "--config", str(tmp_path / f"{name}.yaml"), "--no-timestamp"]
            assert main([*argv, "--out", str(tmp_path / f"{name}-report.yaml")]) == EXIT_OK
        assert (tmp_path / "a-report.yaml").read_bytes() == (tmp_path / "b-report.yaml").read_bytes()

    def test_changing_any_default_changes_the_hash(self):
        base = RunConfig({}).sha256()
        other = {"process": "affine", "noise": "uniform", "payoff": "put"}
        for name, section in _DEFAULT_CONFIG.items():
            for key, value in section.items():
                if isinstance(value, str):
                    changed = other[key]
                elif isinstance(value, list):
                    changed = value + [2 * value[-1]]
                elif isinstance(value, dict):
                    changed = {**value, "sigma": 0.3}
                else:
                    changed = value + 1
                assert RunConfig({name: {key: changed}}).sha256() != base, (name, key)


def plain_document(command, body, seed=None):
    """The canonical report document with numpy values as plain Python ones."""

    def plain(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, (np.floating, np.integer)):
            return value.item()
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [plain(v) for v in value]
        return value

    # no config file runs the defaults, whose effective config is the default table
    default_sha256 = hashlib.sha256(json.dumps(_DEFAULT_CONFIG, sort_keys=True).encode())
    provenance = {
        "command": command,
        "config_sha256": default_sha256.hexdigest(),
        "seed": seed,
        "version": gaugeport.__version__,
    }
    return {"provenance": provenance, "report": plain(body)}


def same_values(a, b):
    """Equal documents, with nan equal to nan and 0.0 told from -0.0."""
    if isinstance(a, float) and isinstance(b, float):
        if np.isnan(a) or np.isnan(b):
            return bool(np.isnan(a) and np.isnan(b))
        return a == b and np.signbit(a) == np.signbit(b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_values(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(same_values, a, b))
    return type(a) is type(b) and a == b


# floats that take each branch of the float format: nan, the infinities,
# signed zeros, subnormals, integer values and bare exponents (1e+16 -> 1.0e+16)
EDGE_FLOATS = [
    np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308, 3.0,
    -7.0, 2.0**53, 1e16, -1e16, 1e-5, 1.5e-7, 1e300, 1.7976931348623157e308, 0.1,
]


@st.composite
def report_bodies(draw):
    floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
    float_arrays = arrays(
        np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4), elements=floats
    )
    leaves = st.one_of(
        float_arrays,
        float_arrays,
        arrays(np.int64, array_shapes(max_dims=2, max_side=3)),
        floats,
        floats.map(np.float64),
        st.integers(),
        st.booleans(),
        st.none(),
        st.text(alphabet=string.ascii_letters + string.digits + " #:-'\n", max_size=12),
        st.just([]),
    )
    # a key this long is written in the explicit "? key" form
    keys = st.text(alphabet="ab_-#AZ0 ", min_size=1, max_size=6) | st.just("long" * 40)
    values = st.one_of(
        leaves,
        st.lists(float_arrays, max_size=3),
        st.dictionaries(keys, leaves, max_size=3),
        st.lists(st.dictionaries(keys, float_arrays, max_size=2), max_size=2),
    )
    return draw(st.dictionaries(keys, values, max_size=5))


class TestReports:
    def test_provenance_block(self, tmp_path):
        path = tmp_path / "report.yaml"
        write_report(path, "simulate", {"x": np.float64(1.5)}, RunConfig({}), seed=3)
        doc = read_report(path)
        prov = doc["provenance"]
        assert prov["command"] == "simulate"
        assert prov["seed"] == 3
        assert len(prov["config_sha256"]) == 64
        assert "generated_at" in prov
        assert doc["report"]["x"] == 1.5

    def test_canonical_form_drops_timestamp(self, tmp_path):
        path = tmp_path / "report.yaml"
        write_report(path, "price", {}, RunConfig({}), timestamp=False)
        assert "generated_at" not in read_report(path)["provenance"]

    @pytest.mark.parametrize("command", ["gauge", "discount"])
    def test_emitted_bytes_match_safe_dump(self, command, fixture_csv, tmp_path):
        args = argparse.Namespace(panel=str(fixture_csv), normalize=True)
        outcome = getattr(cli, f"cmd_{command}")(args, RunConfig({}))
        path = tmp_path / f"{command}.yaml"
        write_report(path, command, outcome["body"], RunConfig({}), timestamp=False)
        document = plain_document(command, outcome["body"])
        expected = yaml.safe_dump(document, sort_keys=True, default_flow_style=False)
        assert path.read_bytes() == expected.encode("utf-8")
        assert read_report(path) == document

    @settings(max_examples=200, deadline=None)
    @given(body=report_bodies())
    def test_float_arrays_written_as_safe_dump_writes_them(self, body, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "property.yaml"
        write_report(path, "simulate", body, RunConfig({}), seed=5, timestamp=False)
        document = plain_document("simulate", body, seed=5)
        expected = yaml.safe_dump(document, sort_keys=True, default_flow_style=False)
        assert path.read_bytes() == expected.encode("utf-8")
        assert same_values(read_report(path), document)

    @pytest.mark.parametrize(
        "command", ["simulate", "gauge", "riskfree", "price", "discount", "sensitivity"]
    )
    def test_report_bytes_do_not_depend_on_libyaml(self, command, fixture_csv, tmp_path, monkeypatch):
        # without libyaml, PyYAML has no CSafeDumper and write_report falls
        # back to the pure-Python SafeDumper: the bytes must not change
        if not hasattr(yaml, "CSafeDumper"):
            pytest.skip("PyYAML is built without libyaml")
        config = tmp_path / "small.yaml"
        config.write_text(
            "simulate: {n_paths: 64}\n"
            "riskfree: {sizes: [16, 32, 64, 128], n_paths: 64}\n"
            "pde: {n_s: 100, n_t: 100}\n"
            "sensitivity: {n_assets: 16}\n"
        )
        argv = [command, "--config", str(config), "--no-timestamp"]
        if command in ("gauge", "discount"):
            argv += ["--panel", str(fixture_csv), "--normalize"]
        assert main(argv + ["--out", str(tmp_path / "libyaml.yaml")]) == EXIT_OK
        monkeypatch.delattr(yaml, "CSafeDumper")
        assert main(argv + ["--out", str(tmp_path / "python.yaml")]) == EXIT_OK
        assert (tmp_path / "python.yaml").read_bytes() == (tmp_path / "libyaml.yaml").read_bytes()

    def test_writer_keeps_no_reference_to_the_body(self, tmp_path):
        # a report slice is often a view of a large array, such as a price surface
        array = np.arange(4.0)
        refs = sys.getrefcount(array)
        gc.disable()
        try:
            write_report(tmp_path / "r.yaml", "price", {"x": [array]}, RunConfig({}))
            assert sys.getrefcount(array) == refs
        finally:
            gc.enable()

    def test_missing_provenance_rejected(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text(yaml.safe_dump({"report": {}}))
        with pytest.raises(ValueError, match="provenance"):
            read_report(path)

    @pytest.mark.parametrize("text", ["", "[]\n", "- 1\n", "3\n", "report\n"])
    def test_empty_or_non_mapping_report_rejected(self, text, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match="missing its provenance block"):
            read_report(path)


class TestCli:
    def test_simulate_writes_report(self, tmp_path):
        out = tmp_path / "sim.yaml"
        assert main(["simulate", "--out", str(out)]) == EXIT_OK
        doc = read_report(out)
        assert doc["provenance"]["seed"] == 1
        assert len(doc["report"]["terminal_mean"]) == 8

    def test_simulate_is_deterministic(self, tmp_path):
        out1 = tmp_path / "a.yaml"
        out2 = tmp_path / "b.yaml"
        assert main(["simulate", "--out", str(out1), "--no-timestamp"]) == EXIT_OK
        assert main(["simulate", "--out", str(out2), "--no-timestamp"]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_gauge_requires_panel(self, tmp_path):
        assert main(["gauge", "--out", str(tmp_path / "g.yaml")]) == EXIT_USAGE

    def test_gauge_on_flat_panel_finds_zero_field(self, tmp_path):
        rows = ["date,A,B"]
        for day in range(1, 21):
            rows.append(f"2020-01-{day:02d},1.0,1.0")
        path = write_csv(tmp_path, "\n".join(rows) + "\n")
        out = tmp_path / "g.yaml"
        assert main(["gauge", "--panel", str(path), "--out", str(out)]) == EXIT_OK
        doc = read_report(out)
        np.testing.assert_allclose(doc["report"]["a_field"], 0.0, atol=1e-12)

    def test_gauge_on_fixture_panel(self, fixture_csv, tmp_path):
        out = tmp_path / "g.yaml"
        assert main(["gauge", "--panel", str(fixture_csv), "--out", str(out)]) == EXIT_OK
        doc = read_report(out)
        assert len(doc["report"]["asset_ids"]) == 12
        assert doc["report"]["portfolio_value"][0] == 1.0

    def test_gauge_command_memory_is_a_few_steps_by_n_arrays(self, tmp_path):
        # 401 dates x 256 assets: a dense [steps, N, N] B_N alone would be
        # 210 MB, and the body as lists of Python floats about 4 arrays'
        # worth.  The bound covers the whole command: ingest, extraction,
        # the report body and the report writer.
        grid = TimeGrid(dt=1.0 / 365.25, steps=400)
        n = 256
        paths = simulate(ProcessSpec(n, 0.05, 0.2), grid, 1, 8)
        labels = tuple(f"a{i:03d}" for i in range(n))
        csv_path = tmp_path / "wide.csv"
        export_panel(PricePanel(grid=grid, prices=paths.paths[0], asset_ids=labels), csv_path)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = str(tmp_path / "g.yaml")
            assert main(["gauge", "--panel", str(csv_path), "--normalize", "--out", out]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8 * grid.steps * n * 8

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_simulate_command_memory_does_not_grow_with_steps(self, threads, tmp_path, monkeypatch):
        # 1024 paths x 64 assets at 256 and 512 steps: the paths alone would
        # be 135 and 269 MB.  The command holds a one-path noise chunk per
        # worker and numpy's ufunc buffers, the terminal rows of a few
        # 16-path blocks, and [1, N] kernel terms: not the 0.5 MB of terminal
        # prices beside a chunk, nor [steps, N] terms (0.13 MB a term at 256
        # steps, twice that at 512)
        monkeypatch.setenv("GAUGEPORT_THREADS", threads)
        peaks = []
        for horizon in (1.0, 2.0):
            config = tmp_path / "run.yaml"
            config.write_text(
                f"simulate: {{n_paths: 1024, n_assets: 64, dt: 0.00390625, horizon: {horizon}}}\n"
            )
            argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "s.yaml")]
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert main(argv) == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert max(peaks) <= int(threads) * 1.5 * sim.CHUNK_CELLS * 8
        assert peaks[1] < 1.1 * peaks[0]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_simulate_report_adds_no_terminal_sized_arrays(self, threads, tmp_path, monkeypatch):
        # 4096 paths x 8 steps x 512 assets: the terminal prices would be
        # 16.8 MB and a key block of noise 2 MiB.  The command holds a 0.5 MiB
        # noise chunk per worker and the terminal rows (0.25 MiB) of the
        # blocks in flight and in the fold, whatever the number of paths
        monkeypatch.setenv("GAUGEPORT_THREADS", threads)
        config = tmp_path / "run.yaml"
        config.write_text("simulate: {n_paths: 4096, n_assets: 512, dt: 0.125, horizon: 1.0}\n")
        argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "s.yaml")]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8 * sim.CHUNK_CELLS * 8 < 4096 * 512 * 8

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 7), (5000, 1), (3, 2), (1000, 3), (700, 513), (4096, 64), (9, 1000)]
    )
    def test_simulate_std_is_numpy_std(self, shape):
        # the fold of simulate's report over row blocks: per-block moments
        # merged by Chan-Golub-LeVeque match numpy's two-pass std to
        # rounding, and with more than one column the means add the rows in
        # numpy's order
        x = np.exp(0.3 * np.random.default_rng(7).standard_normal(shape))
        rows = sim.block_paths(8, shape[1])
        blocks = (x[i : i + rows].copy() for i in range(0, len(x), rows))
        stats = sim._fold_terminal(blocks, shape[1])
        np.testing.assert_allclose(stats.std, x.std(axis=0), rtol=1e-13, atol=0.0)
        if shape[1] > 1:
            assert_same_bits(stats.mean, x.mean(axis=0))
            assert_same_bits(stats.log_mean, np.log(x).mean(axis=0))

    def test_simulate_zero_prices_are_a_one_line_compute_error(self, tmp_path, capsys):
        # at sigma = 1000 the drift -sigma^2/2 dt underflows every gross ratio to 0
        config = tmp_path / "run.yaml"
        config.write_text("simulate: {process_params: {sigma: 1000.0}}\n")
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "s.yaml")])
        assert code == EXIT_COMPUTE
        err = capsys.readouterr().err
        assert err == "error: ValueError: paths must be finite and strictly positive\n"

    def test_failed_allocation_is_a_one_line_compute_error(self, tmp_path, capsys, monkeypatch):
        # what numpy raises for pde: {n_s: 100000000000}, without allocating
        def fail(problem):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(gaugeport.pricer, "solve_today", fail)
        out = tmp_path / "p.yaml"
        assert main(["price", "--out", str(out)]) == EXIT_COMPUTE
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 745. GiB for an array\n"
        assert not out.exists()

    def test_malformed_panel_is_compute_error(self, tmp_path):
        path = write_csv(tmp_path, GOOD_CSV.replace("99.75", "broken"))
        code = main(["gauge", "--panel", str(path), "--out", str(tmp_path / "g.yaml")])
        assert code == EXIT_COMPUTE

    def test_price_matches_oracle(self, tmp_path):
        from gaugeport import bs_closed_form

        out = tmp_path / "p.yaml"
        assert main(["price", "--out", str(out)]) == EXIT_OK
        doc = read_report(out)
        exact = bs_closed_form(100, 100, 0.2, 1.0)
        assert doc["report"]["at_the_money_value"] == pytest.approx(exact, rel=1e-3)

    def test_price_with_zero_sigma(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text("pde: {sigma: 0}\n")
        out = tmp_path / "p.yaml"
        assert main(["price", "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert read_report(out)["report"]["at_the_money_value"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "pde", ["{}", "{payoff: put, sigma: 0.1, a: -0.05, b: 0.02}", "{sigma: 0, n_t: 2}"]
    )
    def test_price_report_is_row_zero_of_the_surface(self, pde, tmp_path):
        # the report's values are solve_today's, bit for bit
        config = tmp_path / "run.yaml"
        config.write_text(f"pde: {pde}\n")
        out = tmp_path / "p.yaml"
        assert main(["price", "--config", str(config), "--out", str(out)]) == EXIT_OK
        p = load_config(str(config)).section("pde")
        today = gaugeport.solve_today(gaugeport.vanilla_problem(
            p["payoff"], p["strike"], p["sigma"], p["tau"], a_field=p["a"], b_scalar=p["b"],
            n_s=p["n_s"], n_t=p["n_t"],
        ))
        stride = today.s_grid.size // 32
        report = read_report(out)["report"]
        assert report["at_the_money_value"] == today.value_at(p["strike"])
        assert report["at_the_money_delta"] == today.delta_at(p["strike"])
        assert report["s_slice"] == today.s_grid[::stride].tolist()
        assert report["value_slice"] == today.values[::stride].tolist()

    def test_price_command_holds_rows_not_the_surface(self, tmp_path):
        # at 1600 x 1600 the surface alone would be 20.5 MB
        config = tmp_path / "run.yaml"
        config.write_text("pde: {n_s: 1600, n_t: 1600}\n")
        argv = ["price", "--config", str(config), "--out", str(tmp_path / "p.yaml")]
        assert main(argv) == EXIT_OK  # binds LAPACK outside the traced run
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2e6

    def test_wide_price_report_is_unchanged(self, tmp_path):
        # 8 sigma sqrt(tau) >= ln 8 keeps the [K/8, 8K] grid: the digest is of
        # the report body of the one-solve Crank-Nicolson step (at_the_money_value
        # 15.850481309993402; the two-operator step gave 15.850481309992178)
        config = tmp_path / "run.yaml"
        config.write_text("pde: {sigma: 0.4}\n")
        out = tmp_path / "p.yaml"
        assert main(["price", "--config", str(config), "--out", str(out)]) == EXIT_OK
        body = json.dumps(read_report(out)["report"], sort_keys=True).encode()
        assert hashlib.sha256(body).hexdigest() == (
            "d40136bd8458040291e41972626200590490ac723f345f353bb78e946c601372"
        )

    def test_riskfree_report_is_unchanged(self, tmp_path):
        # the digest is of the report body written since the noise blocks
        # draw from SFC64 streams seeded by SeedSequence, which resampled
        # every draw
        config = tmp_path / "run.yaml"
        config.write_text("riskfree: {sizes: [16, 32, 64, 128], n_paths: 64}\n")
        out = tmp_path / "r.yaml"
        assert main(["riskfree", "--config", str(config), "--out", str(out)]) == EXIT_OK
        body = json.dumps(read_report(out)["report"], sort_keys=True).encode()
        assert hashlib.sha256(body).hexdigest() == (
            "a6dbbbf04edca6582d18ee7fce48e9d3d250d833f62f4cb24f9997612f661ae4"
        )

    AFFINE = "process: affine, process_params: {mu0: 0.05, mu1: 0.1, sigma0: 0.2, sigma1: 0.3}"

    @pytest.mark.parametrize(
        "command, text, digest",
        [
            (
                "simulate",
                "simulate: {n_assets: 3, n_paths: 200, noise: uniform, "
                "process_params: {mu: [0.01, 0.05, -0.02], sigma: [0.1, 0.2, 0.3]}}\n",
                "a040cd7fa7416217a48d75cdd935cc2d71938e50a8acc35fe47f338237002328",
            ),
            # 0.2 + 0.3 * -0.9 < 0: the affine volatility is clamped at 0
            ("simulate", f"simulate: {{n_paths: 200, xi: -0.9, {AFFINE}}}\n", "5acdd22c2f1d3aa2bc39ef19c7996c21ed6a767948c40b2a68119c7ae7622f3b"),
            ("simulate", f"simulate: {{n_paths: 200, xi: 0.7, {AFFINE}}}\n", "a0330ca5987f9e718f7a53fd668dc7c6923bfa4b186bb92fd60fc050cd9a8240"),
            (
                "simulate",
                "simulate: {n_paths: 200, noise: two-point, process: sector-block, process_params: "
                "{mu_sectors: [0.0, 0.05, 0.1], sigma_sectors: [0.1, 0.2, 0.3]}}\n",
                "45800642dca1d64687a27eef1d0d671f98ceb22c54ab59cb7715edb445c6e231",
            ),
            (
                "riskfree",
                f"simulate: {{xi: 0.7, {AFFINE}}}\nriskfree: {{sizes: [16, 32, 64, 128], n_paths: 64}}\n",
                "fb5e5068c262d4f16a3370e4460276003a0fa1cae9115bb2e05928d4acdb4aa3",
            ),
        ],
        ids=["constant-list-uniform", "affine-clamped", "affine", "sector-block-two-point", "riskfree-affine"],
    )
    def test_process_family_report_is_unchanged(self, command, text, digest, tmp_path):
        # the digests are of the report bodies written while the process
        # model was a pair of functions of the environment factors xi
        config = tmp_path / "run.yaml"
        config.write_text(text)
        out = tmp_path / "r.yaml"
        assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_OK
        body = json.dumps(read_report(out)["report"], sort_keys=True).encode()
        assert hashlib.sha256(body).hexdigest() == digest

    @pytest.mark.parametrize(
        "command, digest",
        [
            ("gauge", "2e25ed628088de2b3ff082f52ac4480f781af8491332a21e660cbcdc3744a60d"),
            ("discount", "477efb017aeddde8d80a1aa9b2237f04daef9f29509bc880c84523eeffa08569"),
        ],
        ids=["gauge", "discount"],
    )
    def test_panel_report_is_unchanged(self, command, digest, fixture_csv, tmp_path):
        # the digests are of the report bodies written since the value path
        # is one cumulative product of the weighted gross returns; the
        # per-step loop gave the same arrays to 5.2e-14 of their largest entry
        out = tmp_path / "r.yaml"
        assert main([command, "--panel", str(fixture_csv), "--normalize", "--out", str(out)]) == EXIT_OK
        body = json.dumps(read_report(out)["report"], sort_keys=True).encode()
        assert hashlib.sha256(body).hexdigest() == digest

    @pytest.mark.parametrize(
        "text",
        [
            "simulate: {process: affine}\n",
            "simulate: {process: sector-block, process_params: {mu_sectors: 0.1}}\n",
            f"simulate: {{seed: {2**63 - 1}}}\n",
        ],
        ids=["family-without-params", "scalar-sectors", "largest-seed"],
    )
    def test_simulate_config_accepted(self, text, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(text)
        out = tmp_path / "s.yaml"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK

    def test_discount_pipeline(self, fixture_csv, tmp_path):
        out = tmp_path / "d.yaml"
        assert main(["discount", "--panel", str(fixture_csv), "--out", str(out)]) == EXIT_OK
        doc = read_report(out)
        report = doc["report"]
        assert report["asset_ids"][-1] == "risk-free portfolio"
        assert report["final_values"][-1] == 1.0
        assert sorted(report) == [
            "asset_ids", "cash_series_label", "cash_series_times", "cash_series_values",
            "final_values", "metadata",
        ]

    def test_discount_needs_a_non_cash_column(self, tmp_path, capsys):
        path = write_csv(tmp_path, "date,USD#cash\n2020-01-01,1.0\n2020-01-02,1.0001\n2020-01-03,1.0002\n")
        out = tmp_path / "d.yaml"
        assert main(["discount", "--panel", str(path), "--normalize", "--out", str(out)]) == EXIT_COMPUTE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-cash column" in err
        assert not out.exists()

    def test_discount_extracts_the_gauge_once(self, fixture_csv, tmp_path, monkeypatch):
        # the risk-free portfolio is built once, and its value path gives A
        calls = []
        build = discounting.rebalanced_values
        monkeypatch.setattr(discounting, "rebalanced_values", lambda *a: calls.append(1) or build(*a))
        out = tmp_path / "d.yaml"
        assert main(["discount", "--panel", str(fixture_csv), "--out", str(out)]) == EXIT_OK
        assert len(calls) == 1
        # cash prices over the value of the equal-weight portfolio of the
        # other columns, rebalanced every step
        prices = ingest(fixture_csv).prices
        gross = np.mean(prices[1:, :-1] / prices[:-1, :-1], axis=1)
        riskfree = np.concatenate([[1.0], np.cumprod(gross)])
        report = read_report(out)["report"]
        assert report["cash_series_label"] == "USD#cash (risk-free units)"
        np.testing.assert_allclose(report["cash_series_values"], prices[:, -1] / riskfree, rtol=1e-12)

    def test_cli_import_loads_no_scipy(self, tmp_path):
        script = (
            "import sys\n"
            "import gaugeport.cli as cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            f"print(cli.main(['price', '--out', {str(tmp_path / 'p.yaml')!r}]))\n"
        )
        src = str(Path(gaugeport.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        modules, _wrote, code = proc.stdout.splitlines()
        assert modules == "[]"
        assert code == str(EXIT_OK)
        assert read_report(tmp_path / "p.yaml")["report"]["at_the_money_value"] > 0

    @pytest.mark.parametrize(
        "command, config",
        [pytest.param(command, None, id=command) for command in sorted(cli._COMMANDS)]
        + [pytest.param("price", "pde: {n_s: 1600, n_t: 1600}\n", id="price-1600x1600")],
    )
    def test_command_runs_without_scipy(self, command, config, fixture_csv, tmp_path):
        # scipy is a test dependency only: with every scipy import made to
        # fail, a command loads no scipy module and writes a normal run's bytes
        argv = [command, "--no-timestamp"]
        if command in ("gauge", "discount"):
            argv += ["--panel", str(fixture_csv)]
        if config is not None:
            (tmp_path / "run.yaml").write_text(config)
            argv += ["--config", str(tmp_path / "run.yaml")]
        normal, blocked = tmp_path / "normal.yaml", tmp_path / "blocked.yaml"
        assert main([*argv, "--out", str(normal)]) == EXIT_OK
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from gaugeport.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "assert [m for m in sys.modules if m.startswith('scipy')] == ['scipy']\n"
            "raise SystemExit(code)\n"
        )
        src = str(Path(gaugeport.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv, "--out", str(blocked)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert blocked.read_bytes() == normal.read_bytes()

    def test_lapack_without_the_symbols_is_a_one_line_error(self, monkeypatch, tmp_path, capsys):
        # a library whose dependencies hold no LAPACK stands in for a numpy
        # whose LAPACK the binding cannot find
        import _ctypes

        monkeypatch.setattr(pricer, "_lapack_libraries", lambda: [_ctypes.__file__])
        pricer._lapack.cache_clear()
        try:
            code = main(["price", "--out", str(tmp_path / "p.yaml")])
        finally:
            pricer._lapack.cache_clear()
        err = capsys.readouterr().err
        assert code == EXIT_COMPUTE
        assert err.count("\n") == 1 and err.startswith("error: OSError: ")
        assert "dgttrf_" in err and "dgttrs_" in err
        assert not (tmp_path / "p.yaml").exists()

    def test_sensitivity_command(self, tmp_path):
        # the default problem, 64 assets x 3 factors at cap 4/N, has a neutral optimum
        out = tmp_path / "s.yaml"
        assert main(["sensitivity", "--out", str(out)]) == EXIT_OK
        report = read_report(out)["report"]
        assert report["residual"] <= 1e-13
        assert report["residual"] < report["equal_weight_residual"]
        assert 0 < report["iterations"] <= 2000 and report["active_set_steps"] >= 0
        assert abs(report["duality_gap"]) < 1e-8
        assert report["stop_reason"] == "optimal"

    @pytest.mark.parametrize(
        "n, k, cap_c, seed, residual, max_solve",
        [
            (64, 32, 2.0, 2, 0.17771805631513, 100),  # the benchmark's fixed problem
            # ran to 2000 iterations with a gap above 1e-6 * residual before
            (512, 128, 1.5, 5, 0.0238930520751, 2000),
        ],
        ids=["64x32", "512x128"],
    )
    def test_sensitivity_certifies_a_non_neutral_optimum(
        self, tmp_path, n, k, cap_c, seed, residual, max_solve
    ):
        config = tmp_path / "run.yaml"
        config.write_text(
            f"sensitivity: {{n_assets: {n}, n_factors: {k}, cap_c: {cap_c}, seed: {seed}}}\n"
        )
        out = tmp_path / "s.yaml"
        assert main(["sensitivity", "--config", str(config), "--out", str(out)]) == EXIT_OK
        report = read_report(out)["report"]
        assert report["stop_reason"] == "optimal" and report["exact"] is False
        assert 0 < report["iterations"] + report["active_set_steps"] <= max_solve
        g = np.random.Generator(np.random.Philox(key=[seed, 0])).standard_normal((n, k))
        grad = 2.0 * g @ (g.T @ np.array(report["weights"]))
        # at the optimum the gap may round to just below 0
        floor = -1e-15 * max(1.0, np.abs(grad).max())
        assert floor <= report["duality_gap"] <= 1e-10 * report["residual"]
        assert report["residual"] <= residual

    def test_sensitivity_at_cap_c_one_holds_equal_weights(self, tmp_path):
        # cap_c = 1 caps every weight at 1/N: the equal weights are the only feasible point
        config = tmp_path / "run.yaml"
        config.write_text("sensitivity: {n_assets: 16, cap_c: 1.0}\n")
        out = tmp_path / "s.yaml"
        assert main(["sensitivity", "--config", str(config), "--out", str(out)]) == EXIT_OK
        report = read_report(out)["report"]
        np.testing.assert_allclose(report["weights"], 1.0 / 16, rtol=1e-12)
        assert (report["active_set_steps"], report["stop_reason"]) == (0, "optimal")

    def test_riskfree_command(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(
            yaml.safe_dump(
                {
                    "simulate": {"n_assets": 64, "dt": 1.0 / 64, "horizon": 0.125},
                    "riskfree": {"sizes": [8, 16, 32, 64], "n_paths": 500},
                }
            )
        )
        out = tmp_path / "r.yaml"
        code = main(["riskfree", "--config", str(config), "--out", str(out)])
        assert code == EXIT_OK
        doc = read_report(out)
        assert -0.7 < doc["report"]["slope"] < -0.3
        assert doc["report"]["analytic_slope"] == pytest.approx(-0.5, abs=1e-9)

    # int() takes all of the last four: an underscore, a blank, a sign and an Arabic-Indic three
    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1_0", " 2", "+3", "\u0663"])
    def test_bad_thread_count_is_usage_error(self, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GAUGEPORT_THREADS", value)
        for command in ("simulate", "riskfree"):
            assert main([command, "--out", str(tmp_path / "r.yaml")]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "GAUGEPORT_THREADS" in err and repr(value) in err

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "command, message",
        [
            ("simulate", "paths must be finite"),
            ("riskfree", "degenerate fit"),
            ("price", "non-finite option values"),
        ],
    )
    def test_overflow_is_a_one_line_error(self, command, message, threads, tmp_path):
        # exp overflows in the Monte Carlo tasks, an affine drift overflows in
        # the process function before them, a large B overflows the factor
        # exp(int B dtau) on the values, and a large A (through the strike it
        # shifts), sigma or tau the ends of the price grid, or a sigma
        # whose drift outruns it; an affine sigma clamped to 0 leaves riskfree
        # no slope to fit; no numpy warning may reach stderr ahead of the
        # error, whichever thread formed the values
        riskfree = "riskfree: {sizes: [16, 32, 64, 128], n_paths: 64}\n"
        span = "price grid [K/span, K*span] is not finite"
        drift = "the drift of ln s outruns the price grid"
        monte_carlo = [
            ("simulate: {process_params: {mu: 100000.0}}\n" + riskfree, message),
            ("simulate: {xi: 1.0e+308, process: affine, process_params: {mu1: 10.0}}\n" + riskfree, message),
        ]
        clamp = "simulate: {process: affine, xi: -0.9, process_params: {mu0: 0.05, sigma0: 0.2, sigma1: 0.3}}\n"
        texts = {
            "price": [
                ("pde: {b: 1.0e+10}\n", message),
                ("pde: {a: 1.0e+300}\n", span),
                ("pde: {sigma: 1.0e+10}\n", span),
                ("pde: {tau: 1.0e+300}\n", span),
                ("pde: {sigma: 20.0}\n", drift),
                ("pde: {sigma: 100.0}\n", drift),
            ],
            "riskfree": monte_carlo + [(clamp + riskfree, "zero volatility")],
        }.get(command, monte_carlo)
        src = str(Path(gaugeport.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env.update(GAUGEPORT_THREADS=threads, PYTHONPATH=src)
        config = tmp_path / "run.yaml"
        for text, expected in texts:
            config.write_text(text)
            argv = [command, "--config", str(config), "--out", str(tmp_path / "r.yaml")]
            proc = subprocess.run(
                [sys.executable, "-m", "gaugeport.cli", *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == EXIT_COMPUTE, text
            assert proc.stderr.count("\n") == 1 and expected in proc.stderr, (text, proc.stderr)
            assert not (tmp_path / "r.yaml").exists()

    def test_riskfree_report_does_not_depend_on_threads(self, tmp_path, monkeypatch):
        config = tmp_path / "run.yaml"
        config.write_text(
            yaml.safe_dump(
                {
                    "simulate": {"n_assets": 32, "dt": 1.0 / 64, "horizon": 0.125},
                    "riskfree": {"sizes": [4, 8, 16, 32], "n_paths": 1100},
                }
            )
        )
        reports = []
        for threads in ("1", "2"):
            monkeypatch.setenv("GAUGEPORT_THREADS", threads)
            out = tmp_path / f"r{threads}.yaml"
            argv = ["riskfree", "--config", str(config), "--out", str(out), "--no-timestamp"]
            assert main(argv) == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_riskfree_draws_each_cell_once(self, tmp_path, monkeypatch):
        # both studies reduce one draw of the largest universe
        config = tmp_path / "run.yaml"
        config.write_text(
            yaml.safe_dump(
                {
                    "simulate": {"n_assets": 4, "dt": 1.0 / 64, "horizon": 0.125},
                    "riskfree": {"sizes": [4, 8, 16, 48], "n_paths": 600},
                }
            )
        )
        cells = []
        draw = sim.noise_block

        def counted(gen, noise, out):
            cells.append(out.size)
            return draw(gen, noise, out)

        monkeypatch.setattr(sim, "noise_block", counted)
        monkeypatch.setenv("GAUGEPORT_THREADS", "2")
        assert main(["riskfree", "--config", str(config), "--out", str(tmp_path / "r.yaml")]) == EXIT_OK
        assert sum(cells) == 600 * 8 * 48

    @pytest.mark.parametrize(
        "riskfree_section,message",
        [
            ({"n_paths": 0}, "riskfree.n_paths must be >= 1"),
            ({"sizes": [16, 16, 64, 256]}, "riskfree.sizes must be at least 4 strictly increasing"),
        ],
    )
    def test_bad_riskfree_config_is_usage_error(self, riskfree_section, message, tmp_path, capsys):
        config = tmp_path / "run.yaml"
        config.write_text(yaml.safe_dump({"riskfree": riskfree_section}))
        assert main(["riskfree", "--config", str(config), "--out", str(tmp_path / "r.yaml")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_bad_config_is_usage_error(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(yaml.safe_dump({"simulate": {"noise": "levy"}}))
        assert main(["simulate", "--config", str(config)]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "command,text,message",
        [
            ("simulate", "simulate: {n_assets: 4\n", "not valid YAML at line 2"),
            ("simulate", "simulate: 3\n", "section simulate must be a mapping"),
            ("simulate", "simulate: {n_assets: [1, 2]}\n", "simulate.n_assets must be an integer"),
            ("simulate", "simulate: {n_asets: 4}\n", "unknown keys in section simulate: ['n_asets']"),
            ("discount", "discount: {window: 2.7}\n", "discount.window must be an integer, got 2.7"),
            ("price", "pde: {n_s: 401}\n", "pde.n_s must be even"),
            ("simulate", "simulate: {horizon: 1.0, dt: 0.3}\n", "not a whole number of dt"),
            ("simulate", "simulate: {seed: -1}\n", "simulate.seed must be in [0, 2^63), got -1"),
            ("riskfree", f"simulate: {{seed: {2**64 - 1}}}\n", "simulate.seed must be in [0, 2^63)"),
            ("sensitivity", "sensitivity: {seed: -2}\n", "sensitivity.seed must be in [0, 2^63)"),
            ("sensitivity", "sensitivity: {cap_c: 0.5}\n", "sensitivity.cap_c must be >= 1, got 0.5"),
            (
                "simulate", "simulate: {process: affine, process_params: {mu0: [1, 2]}}\n",
                "simulate.process_params.mu0 must be a finite number, got [1, 2]",
            ),
            (
                "simulate", "simulate: {process_params: {sigma: abc}}\n",
                "simulate.process_params.sigma must be a finite number or a nonempty list",
            ),
            (
                "simulate", "simulate: {process_params: {sgima: 0.3}}\n",
                "unknown process_params for process constant: ['sgima']",
            ),
            (
                "simulate", "simulate: {process_params: {sigma: [0.1, 0.2]}}\n",
                "simulate.process_params.sigma has 2 values, not 1 or one per asset of the run (8)",
            ),
            (
                "riskfree", "simulate: {n_assets: 2, process_params: {mu: [0.1, 0.2]}}\n",
                "simulate.process_params.mu has 2 values, not 1 or one per asset of the run (1024)",
            ),
            (
                "simulate",
                "simulate: {process: sector-block, process_params: {mu_sectors: [0.1, 0.2]}}\n",
                "mu_sectors and sigma_sectors must have equal length, got 2 and 1",
            ),
            (
                "simulate", "simulate: {process_params: {sigma: -0.2}}\n",
                "simulate.process_params.sigma must be >= 0, got -0.2",
            ),
            (
                "simulate", "simulate: {n_assets: 2, process_params: {sigma: [0.1, -0.2]}}\n",
                "simulate.process_params.sigma must be >= 0, got [0.1, -0.2]",
            ),
            (
                "riskfree", "simulate: {process_params: {sigma: -0.2}}\n",
                "simulate.process_params.sigma must be >= 0, got -0.2",
            ),
            (
                "simulate",
                "simulate: {process: sector-block, process_params: "
                "{mu_sectors: [0.0, 0.1], sigma_sectors: [0.2, -0.1]}}\n",
                "simulate.process_params.sigma_sectors must be >= 0, got [0.2, -0.1]",
            ),
            # falsy documents that are not mappings are errors, not defaults
            ("price", "[]\n", "config must be a mapping of sections"),
            ("price", "false\n", "config must be a mapping of sections"),
            ("price", "0\n", "config must be a mapping of sections"),
            ("price", "''\n", "config must be a mapping of sections"),
        ],
        ids=[
            "yaml-syntax", "section-type", "int-type", "unknown-key", "float-for-int", "odd-n_s",
            "horizon-steps", "negative-seed", "seed-2^64-1", "sensitivity-seed", "cap_c-below-one",
            "param-list",
            "param-string", "param-typo", "param-length", "param-length-riskfree",
            "sector-lengths", "negative-sigma", "negative-sigma-list", "negative-sigma-riskfree",
            "negative-sector-sigma",
            "empty-list", "false", "zero", "empty-string",
        ],
    )
    def test_config_error_is_one_line(self, command, text, message, fixture_csv, tmp_path, capsys):
        config = tmp_path / "run.yaml"
        config.write_text(text)
        out = tmp_path / "r.yaml"
        argv = [command, "--config", str(config), "--out", str(out)]
        if command in cli._PANEL_COMMANDS:
            argv += ["--panel", str(fixture_csv)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--panel", "missing.csv"], ["--normalize"]], ids=["panel", "normalize"])
    @pytest.mark.parametrize("command", sorted(set(cli._COMMANDS) - set(cli._PANEL_COMMANDS)))
    def test_panel_flags_are_rejected_where_unread(self, command, flags, tmp_path, capsys):
        # these commands read no panel: the flags were silently ignored
        out = tmp_path / "r.yaml"
        assert main([command, *flags, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: {command} does not read {flags[0]}\n"
        assert not out.exists()

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.yaml"
        assert main(["price", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(out) in err
