"""Telemetry and metrics serialization tests."""

import json
import tracemalloc

import numpy as np
import pytest

import aerowrench.config as cfgm
import aerowrench.simulation as sim
import aerowrench.telemetry as tlm


@pytest.fixture(scope="module")
def short_run():
    return sim.run_scenario(duration=0.5, seed=3)


class TestColumns:
    def test_quaternion_order_and_leading_columns(self):
        cols = tlm.telemetry_columns(["qukf", "ekf"])
        assert cols[0:5] == ["t_s", "q_w", "q_x", "q_y", "q_z"]
        assert cols[-1] == "saturated"
        assert "qukf_q_w" in cols and "ekf_nis" in cols
        i = cols.index("qukf_q_w")
        assert cols[i:i + 4] == ["qukf_q_w", "qukf_q_x", "qukf_q_y", "qukf_q_z"]

    def test_layout_matches_flatten(self, short_run):
        cols, data = tlm.flatten_run(short_run)
        assert data.shape == (short_run.t.shape[0], len(cols))
        assert np.array_equal(data[:, 0], short_run.t)
        assert np.array_equal(data[:, 1:14], short_run.truth)


class TestCsv:
    def test_single_record_is_header_plus_row(self, tmp_path):
        one_step = sim.run_scenario(duration=0.01, seed=3)
        path = tmp_path / "one.csv"
        tlm.write_telemetry(one_step, path, format="csv")
        lines = path.read_text().splitlines()
        content = [ln for ln in lines if not ln.startswith("#")]
        assert len(content) == 2
        assert lines[0].startswith("#")  # units comment

    def test_round_trip_exact(self, tmp_path, short_run):
        path = tmp_path / "t.csv"
        tlm.write_telemetry(short_run, path, format="csv")
        cols, data = tlm.read_telemetry(path)
        ref_cols, ref = tlm.flatten_run(short_run)
        assert cols == ref_cols
        assert np.array_equal(data, ref)


class TestJsonl:
    def test_round_trip_exact(self, tmp_path, short_run):
        path = tmp_path / "t.jsonl"
        tlm.write_telemetry(short_run, path, format="jsonl")
        cols, data = tlm.read_telemetry(path)
        ref_cols, ref = tlm.flatten_run(short_run)
        assert cols == ref_cols
        assert np.array_equal(data, ref)

    def test_one_object_per_line(self, tmp_path, short_run):
        path = tmp_path / "t.jsonl"
        tlm.write_telemetry(short_run, path, format="jsonl")
        lines = [ln for ln in path.read_text().splitlines()
                 if not ln.startswith("#")]
        assert len(lines) == short_run.t.shape[0]
        obj = json.loads(lines[0])
        assert obj["t_s"] == short_run.t[0]

    def test_random_values_survive(self, tmp_path):
        # extreme exponents and signs must survive the text round trip
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((4, 6)) * np.logspace(-300, 300, 6)
        run = sim.run_scenario(duration=0.05, seed=0)
        run.wrench_true[:4, :] = vals[:4, :]
        for fmt in ("csv", "jsonl"):
            path = tmp_path / ("x." + fmt)
            tlm.write_telemetry(run, path, format=fmt)
            _, data = tlm.read_telemetry(path)
            _, ref = tlm.flatten_run(run)
            assert np.array_equal(data, ref)

    def test_bad_format_rejected(self, tmp_path, short_run):
        path = tmp_path / "x.bin"
        path.write_bytes(b"kept")
        with pytest.raises(ValueError, match="format"):
            tlm.write_telemetry(short_run, path, format="bin")
        assert path.read_bytes() == b"kept"


class TestStreaming:
    """Rows are written and read one at a time: neither direction holds the
    whole text, nor one Python float per value."""

    @pytest.fixture(scope="class")
    def long_run(self):
        return sim.run_scenario(duration=20.0, seed=0)

    @staticmethod
    def traced_peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            out = fn(*args, **kwargs)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_peak_memory(self, tmp_path, long_run, fmt):
        path = tmp_path / ("t." + fmt)
        _, write_peak = self.traced_peak(tlm.write_telemetry, long_run, path,
                                         format=fmt)
        assert write_peak < path.stat().st_size
        (cols, data), read_peak = self.traced_peak(tlm.read_telemetry, path)
        assert np.array_equal(data, tlm.flatten_run(long_run)[1])
        assert read_peak < 3 * data.nbytes

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# a\n\na,b\n# b\n1.5,-0.0\n\n2.0,3e-300\n")
        cols, data = tlm.read_telemetry(path)
        assert cols == ["a", "b"]
        assert data.tobytes() == np.array([[1.5, -0.0], [2.0, 3e-300]]).tobytes()

    def test_no_content_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(tlm.UNITS_COMMENT + "\n\n")
        with pytest.raises(ValueError, match="no telemetry content"):
            tlm.read_telemetry(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="1 values for 2 columns"):
            tlm.read_telemetry(path)

    def test_jsonl_missing_key_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1.0, "b": 2.0}\n{"a": 3.0}\n')
        with pytest.raises(ValueError, match=r"t\.jsonl: record 2 has keys "
                                             r"\['b'\] missing and \[\] extra"):
            tlm.read_telemetry(path)

    def test_jsonl_extra_key_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1.0, "b": 2.0}\n{"a": 3.0, "b": 4.0, "c": 5.0}\n')
        with pytest.raises(ValueError, match=r"t\.jsonl: record 2 has keys "
                                             r"\[\] missing and \['c'\] extra"):
            tlm.read_telemetry(path)


class TestMetricsDocument:
    def test_build_write_read(self, tmp_path, short_run):
        report = sim.compute_metrics(short_run, window=0.1)
        digest = cfgm.config_digest(cfgm.ScenarioConfig())
        doc = tlm.build_metrics_document(report, digest, seed=3)
        path = tmp_path / "m.json"
        tlm.write_metrics_document(doc, path)
        back = tlm.read_metrics_document(path)
        assert back["config_digest"] == digest
        assert back["code_version"] == doc["code_version"]
        assert back["rmse"]["qukf"]["att_rad"] == report.rmse["qukf"]["att_rad"]
        assert back["seed"] == 3

    def test_identical_runs_identical_documents(self, tmp_path):
        out = []
        for name in ("a.json", "b.json"):
            run = sim.run_scenario(duration=0.3, seed=7)
            report = sim.compute_metrics(run, window=0.1)
            doc = tlm.build_metrics_document(report, "d" * 64, seed=7)
            path = tmp_path / name
            tlm.write_metrics_document(doc, path)
            out.append(path.read_text())
        assert out[0] == out[1]
