import csv
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikestag.data import (
    SeriesDataset,
    _neighbor_groups,
    _neighbor_mean,
    _synth_edges,
    covariate_indices,
    load_csv,
    make_windows,
    metric_r2,
    metric_rse,
    synth_coupling_pairs,
    synth_generate,
)
from spikestag.errors import ContractError, IngestionError, UndefinedMetricError


def write_csv(tmp_path, rows, header="timestamp,a,b"):
    path = tmp_path / "data.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def save_csv(ds: SeriesDataset, path) -> None:
    """Write a dataset in the loader's schema, each value as repr(float(v))."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp"] + list(ds.node_names))
        for t, row in zip(ds.timestamps, ds.values):
            iso = str(np.datetime_as_string(t, unit="s")) + "+00:00"
            writer.writerow([iso] + [repr(float(v)) for v in row])


class TestLoadCsv:
    def test_wellformed(self, tmp_path):
        path = write_csv(tmp_path, [
            "2024-01-01T00:00:00+00:00,1.0,2.0",
            "2024-01-01T01:00:00+00:00,3.0,4.0",
            "2024-01-01T02:00:00+00:00,5.0,6.0",
        ])
        ds = load_csv(path)
        assert ds.values.shape == (3, 2)
        assert ds.sample_rate_s == 3600
        assert ds.node_names == ["a", "b"]

    def test_gap_names_row(self, tmp_path):
        path = write_csv(tmp_path, [
            "2024-01-01T00:00:00+00:00,1,2",
            "2024-01-01T01:00:00+00:00,3,4",
            "2024-01-01T03:00:00+00:00,5,6",  # skips 02:00, row 4
            "2024-01-01T04:00:00+00:00,7,8",
        ])
        with pytest.raises(IngestionError) as exc:
            load_csv(path)
        assert "row 4" in str(exc.value)

    def test_non_numeric_cell(self, tmp_path):
        path = write_csv(tmp_path, [
            "2024-01-01T00:00:00+00:00,1,2",
            "2024-01-01T01:00:00+00:00,x,4",
        ])
        with pytest.raises(IngestionError) as exc:
            load_csv(path)
        assert "row 3" in str(exc.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        path = write_csv(tmp_path, [
            "2024-01-01T00:00:00+00:00,1,2",
            "2024-01-01T01:00:00+00:00,3,4",
            f"2024-01-01T02:00:00+00:00,5,{cell}",
        ])
        with pytest.raises(IngestionError, match=r"row 4: non-finite .* column 'b'"):
            load_csv(path)

    @pytest.mark.parametrize("header, message", [
        ("timestamp,a,a", "header column 3: duplicate node name 'a'"),
        ("timestamp,,b", "header column 2: empty node name"),
        ("timestamp,a, ", "header column 3: empty node name"),
    ])
    def test_header_names_each_node_once(self, tmp_path, header, message):
        path = write_csv(tmp_path, [
            "2024-01-01T00:00:00+00:00,1,2",
            "2024-01-01T01:00:00+00:00,3,4",
        ], header=header)
        with pytest.raises(IngestionError, match=f"^{message}$"):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = write_csv(tmp_path, [
            "2024-01-01T00:00:00+00:00,1,2",
            "2024-01-01T01:00:00+00:00,3",
        ])
        with pytest.raises(IngestionError):
            load_csv(path)

    def test_solar_schema_width(self, tmp_path):
        names = ",".join(f"s{i}" for i in range(137))
        rows = [f"2024-01-01T00:{m:02d}:00+00:00," + ",".join(["1.5"] * 137)
                for m in range(0, 30, 10)]
        path = write_csv(tmp_path, rows, header="timestamp," + names)
        ds = load_csv(path)
        assert ds.n_nodes == 137
        assert ds.sample_rate_s == 600

    def test_roundtrip_identical_values(self, tmp_path):
        ds = synth_generate(4, 50, seed=3)
        path = tmp_path / "round.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.values, ds.values)
        assert np.array_equal(back.timestamps, ds.timestamps)
        assert back.node_names == ds.node_names


class TestWindows:
    def _ds(self, n_steps, n_nodes=2):
        times = (np.datetime64("2024-01-01T00:00:00", "s")
                 + np.arange(n_steps).astype("timedelta64[s]") * 3600)
        vals = np.arange(n_steps * n_nodes, dtype=np.float32).reshape(n_steps, n_nodes)
        return SeriesDataset(times, vals, 3600, [f"n{i}" for i in range(n_nodes)])

    def test_window_count_formula(self):
        sw = make_windows(self._ds(10), 3, 1, fractions=(1.0, 0.0, 0.0))
        assert len(sw.train_starts) == 7

    def test_stride_non_overlapping(self):
        sw = make_windows(self._ds(20), 3, 1, stride=4, fractions=(1.0, 0.0, 0.0))
        starts = sw.train_starts
        assert all(b - a == 4 for a, b in zip(starts, starts[1:]))

    def test_validation_starts_after_last_train_target(self):
        sw = make_windows(self._ds(200), 10, 2)
        last_train_target = sw.train_starts[-1] + 10 + 2 - 1
        assert sw.val_starts[0] > last_train_target
        last_val_target = sw.val_starts[-1] + 10 + 2 - 1
        assert sw.test_starts[0] > last_val_target

    def test_window_too_long_rejected(self):
        with pytest.raises(ContractError):
            make_windows(self._ds(5), 10, 2)

    def test_batch_shapes(self):
        sw = make_windows(self._ds(100), 8, 3)
        batch = sw.batch(sw.train_starts[:4])
        assert batch.inputs.shape == (4, 8, 2)
        assert batch.targets.shape == (4, 3, 2)
        assert batch.input_times.shape == (4, 8)

    def test_stats_from_train_region_only(self):
        ds = self._ds(100)
        sw1 = make_windows(ds, 8, 3)
        ds2 = SeriesDataset(ds.timestamps, ds.values.copy(), 3600, ds.node_names)
        ds2.values[90:] += 1000.0  # test region only
        sw2 = make_windows(ds2, 8, 3)
        assert np.array_equal(sw1.mean, sw2.mean)
        assert np.array_equal(sw1.std, sw2.std)

    def test_zscore_roundtrip_and_constant_clamp(self):
        ds = self._ds(50)
        ds.values[:, 1] = 7.0  # constant node
        sw = make_windows(ds, 5, 2)
        assert sw.std[1] == 1.0
        batch = sw.batch(sw.train_starts[:3])
        z = batch.normalized_inputs()
        assert np.allclose(z[:, :, 1], 0.0)
        back = batch.denormalize(batch.normalized_targets())
        np.testing.assert_allclose(back, batch.targets, atol=1e-5)


class TestMetrics:
    def test_perfect_forecast(self):
        y = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert metric_rse(y, y) == 0.0
        assert metric_r2(y, y) == 1.0

    def test_mean_predictor(self):
        target = np.array([1.0, 2.0, 3.0, 6.0])
        pred = np.full(4, target.mean())
        assert metric_rse(pred, target) == pytest.approx(1.0)
        assert metric_r2(pred, target) == pytest.approx(0.0)

    def test_hand_case(self):
        pred = np.array([1.0, 2.0, 3.0, 4.0])
        target = np.array([2.0, 2.0, 4.0, 4.0])
        # sq err = 1+0+1+0 = 2; target deviation energy = 1+1+1+1 = 4
        assert metric_rse(pred, target) == pytest.approx(np.sqrt(2.0 / 4.0))
        assert metric_r2(pred, target) == pytest.approx(1.0 - 2.0 / 4.0)

    def test_constant_target_rejected(self):
        with pytest.raises(UndefinedMetricError):
            metric_rse(np.array([1.0, 2.0]), np.array([3.0, 3.0]))
        with pytest.raises(UndefinedMetricError):
            metric_r2(np.array([1.0, 2.0]), np.array([3.0, 3.0]))

    @given(st.floats(1e-6, 1e6))
    @settings(max_examples=40)
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(0)
        target = rng.standard_normal(40)
        pred = target + rng.standard_normal(40) * 0.3
        assert metric_rse(pred * c, target * c) == pytest.approx(
            metric_rse(pred, target), abs=1e-9)
        assert metric_r2(pred * c, target * c) == pytest.approx(
            metric_r2(pred, target), abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            metric_rse(np.zeros(3), np.zeros(4))


class TestCovariates:
    def test_monday_midnight_origin(self):
        minute, hour, dow = covariate_indices(np.array([np.datetime64("2024-01-01T00:00:00")]))
        assert (minute[0], hour[0], dow[0]) == (0, 0, 0)  # 2024-01-01 is a Monday

    def test_hour_increments_mod_24(self):
        times = np.array([np.datetime64("2024-01-01T23:00:00"),
                          np.datetime64("2024-01-02T00:00:00")])
        _, hour, dow = covariate_indices(times)
        assert hour.tolist() == [23, 0]
        assert dow.tolist() == [0, 1]

    def test_minute_of_hour(self):
        minute, hour, _ = covariate_indices(np.array([np.datetime64("2024-01-05T00:30:00")]))
        assert minute[0] == 30 and hour[0] == 0


class TestSynth:
    def test_deterministic(self):
        a = synth_generate(6, 100, seed=9)
        b = synth_generate(6, 100, seed=9)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.timestamps, b.timestamps)

    def test_noiseless_uncoupled_is_pure_sinusoid(self):
        ds = synth_generate(4, 72, seed=5, noise_sigma=0.0, coupling=0.0)
        _, hour, dow = covariate_indices(ds.timestamps)
        # reconstruct: per-node phase and per-dow amplitude from the generator seed
        rng = np.random.default_rng(5)
        for _ in range(4 // 2):
            rng.integers(0, 4, size=2)
        phase = rng.uniform(-0.8, 0.8, size=4)
        dow_amp = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, size=7)
        expected = np.sin(2 * np.pi * hour[:, None] / 24.0 + phase[None, :]) * dow_amp[dow][:, None]
        np.testing.assert_array_equal(ds.values, expected.astype(np.float32))

    def test_hourly_monday_start(self):
        ds = synth_generate(3, 10, seed=1)
        assert ds.sample_rate_s == 3600
        _, hour, dow = covariate_indices(ds.timestamps[:1])
        assert hour[0] == 0 and dow[0] == 0

    def test_rejects_single_node(self):
        with pytest.raises(ContractError):
            synth_generate(1, 10, seed=0)

    @pytest.mark.parametrize("kwargs,name", [
        ({"steps": 0}, "steps"),
        ({"steps": -3}, "steps"),
        ({"coupling": float("nan")}, "coupling"),
        ({"coupling": float("inf")}, "coupling"),
        ({"noise_sigma": -1.0}, "noise_sigma"),
        ({"noise_sigma": float("nan")}, "noise_sigma"),
        ({"noise_sigma": float("inf")}, "noise_sigma"),
    ])
    def test_refuses_what_it_cannot_make(self, kwargs, name):
        with pytest.raises(ContractError, match=name):
            synth_generate(4, seed=0, **{"steps": 10, **kwargs})

    # 5,000 steps at coupling 3 also leave float64's range (inf, then NaN);
    # RuntimeWarnings are errors here, so none may escape either way
    @pytest.mark.parametrize("coupling,steps,step", [(-1.7, 500, 169), (1.5, 500, 219),
                                                     (3.0, 5000, 83)])
    def test_refuses_a_diverging_series(self, coupling, steps, step):
        with pytest.raises(ContractError, match=f"coupling={coupling} .* step {step} "):
            synth_generate(8, steps, seed=1, coupling=coupling)

    @pytest.mark.parametrize("coupling", [-0.99, 0.99])
    def test_coupling_below_one_stays_finite(self, coupling):
        assert np.isfinite(synth_generate(8, 2000, seed=1, coupling=coupling).values).all()

    def test_single_step(self):
        assert synth_generate(4, 1, seed=0).values.shape == (1, 4)

    # sha256 of synth_generate(...).values: every R² measured on this series
    # rests on these bits, so a change to them must be made on purpose.
    SERIES_DIGESTS = {
        (2, 1, 1000): "6566ee378b0871b9aaacd3d3b37dd4a2aa5e4794e86af4ee4fa83849d8897799",
        (2, 1, 2000): "6a0e5cc9f546c00b641b9af87046696a9d4ba4c0e91992a4e8ea71306436693a",
        (2, 2, 1000): "3fbcf65aee108ced3f2f346aa524883cc0c9641a2d04209a7c9906956bf88f9a",
        (2, 2, 2000): "55df3db2d0741f65a9a71a1ac40fa3f751342b24e4f7f6101b6aaf4262a02999",
        (3, 1, 1000): "195e4325b5dca35f4e3e3bab4d3d15cc9597cc7d416380428d83c5524a7a7fa4",
        (3, 1, 2000): "b5870e7c36c5cd08e52c429596384cad647a7cf6e3b88a0b9e039f8b0c5bc31b",
        (3, 2, 1000): "7bd6d90c9d1a05af7292f9e855f7a6f359e26bfe7fa106e17cb89f6401a7d722",
        (3, 2, 2000): "dd1cd96e0492652302a5a38f4157b106ea2dd3847b04d6cc0ffe49d68b3174e3",
        (8, 1, 1000): "e2610e5dc0abc09fdbd6a75b1001686f9211ee5bc4031411f393bd7d29f8b9f0",
        (8, 1, 2000): "f2fe2539335771a4bead9fc39b4cb32ea1d43488d05154a7711b1d07af910d56",
        (8, 2, 1000): "8d973aa8579733dce20ac56eeea56a7b3ea102f2ce90340ddc428ac88b87bb2f",
        (8, 2, 2000): "5b14110d5d5e1106ab15f5af870308c3c9cab6049d055b20788ad4401f92ebae",
        (32, 1, 1000): "6dd3caa5bf4e3e3542fde5bcb7fc1aa76fd2e6e071009b99418b343a83923731",
        (32, 1, 2000): "aafb448ef0a7b80db95756d11dc6927313bfb1624e0383548a74a171e9f93e32",
        (32, 2, 1000): "0783ac85c80b334e59de180826068080119ba4aa00f9e4f29a3e12b8e19fc72e",
        (32, 2, 2000): "82a107d3a00a3c91da7ee1e6cd8eaeb054fd53bbe4dad4fdac22ca03079beb61",
        (64, 1, 1000): "cf29be893074ffee6eb6597583a138cfc389e1337f606315dde6a347e53db9c6",
        (64, 1, 2000): "61d76d800ea1f094b72d77ef1cf1f2d47601aaa30af725e76c8bf401bfe316de",
        (64, 2, 1000): "16e7fdb9b61d54fe41d3e9fa14b759f58e36146ea6570c0bfa7f17d386395f41",
        (64, 2, 2000): "b2e60e97e6aa2215f55b9ad232085d4f2e25449a437a9d6e01356419fbf8ced7",
        (321, 1, 1000): "3846bc2d50f056ac61e4ba9e33288ae13fb2e1739c6982f618838dec54983482",
        (321, 1, 2000): "362745a0e648f0fb8babcc7af8a32817c0ab8c24d0bf44bec656c74df41491b9",
        (321, 2, 1000): "8119f98df4f8a4769391f788a2a9a14a4e7857edd029c1b9564fa9f03428a28e",
        (321, 2, 2000): "52b4c3bf243e5fb03d1a63c4f6be847c7ab58113dada85076f6d42186ae35c21",
        (8, 1, 1000, "coupling", 0.0):
            "be0e477c6902cb188822864951fc022e6dcd2c9161f2aa6973f41c7a3600e070",
        (8, 1, 1000, "noise_sigma", 0.0):
            "a203d20a49cd32a0adf5a75e65bb50e77674e6c2fae3bd680d59ec36b33a1417",
    }

    @pytest.mark.parametrize("case", list(SERIES_DIGESTS),
                             ids=lambda case: "-".join(map(str, case)))
    def test_series_bits_are_pinned(self, case):
        n_nodes, seed, steps, *option = case
        kwargs = {option[0]: option[1]} if option else {}
        values = synth_generate(n_nodes, steps, seed, **kwargs).values
        assert values.dtype == np.float32 and values.shape == (steps, n_nodes)
        assert hashlib.sha256(values.tobytes()).hexdigest() == self.SERIES_DIGESTS[case]

    @pytest.mark.parametrize("n_nodes,seed,noise_sigma,coupling", [
        (2, 1, 0.05, 0.3), (5, 3, 0.0, -0.8), (16, 2, 0.2, 0.9), (16, 4, 0.05, 0.0),
    ])
    def test_matches_the_per_node_loop(self, n_nodes, seed, noise_sigma, coupling):
        steps = 200
        rng = np.random.default_rng(seed)
        edges = _synth_edges(n_nodes, rng)
        neighbors = [[j for (a, j) in edges if a == i] for i in range(n_nodes)]
        phase = rng.uniform(-0.8, 0.8, size=n_nodes)
        dow_amp = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, size=7)
        noise = (rng.normal(0.0, noise_sigma, size=(steps, n_nodes)) if noise_sigma > 0
                 else np.zeros((steps, n_nodes)))
        ds = synth_generate(n_nodes, steps, seed, noise_sigma=noise_sigma, coupling=coupling)
        _, hour, dow = covariate_indices(ds.timestamps)
        x = np.zeros((steps, n_nodes))
        for t in range(steps):
            base = np.sin(2.0 * np.pi * hour[t] / 24.0 + phase) * dow_amp[dow[t]]
            if t > 0 and coupling != 0.0:
                base = base + coupling * np.array([x[t - 1, nb].mean() for nb in neighbors])
            x[t] = base + noise[t]
        assert ds.values.tobytes() == x.astype(np.float32).tobytes()

    def test_grouped_mean_equals_ndarray_mean_at_any_degree(self):
        # the generator's graphs stay at degree <= 8; degrees 9 and up take
        # numpy's unrolled pairwise sum, so they are built here by hand
        rng = np.random.default_rng(0)
        prev = rng.normal(size=40) * 10.0 ** rng.integers(-6, 7, size=40)
        degrees = [1, 2, 8, 9, 12, 17, 9, 2, 17, 1]
        neighbors = [rng.integers(0, 40, size=d).tolist() for d in degrees]
        got = _neighbor_mean(prev, _neighbor_groups(neighbors), np.full(len(neighbors), np.nan))
        expected = np.array([prev[nb].mean() for nb in neighbors])
        assert got.tobytes() == expected.tobytes()

    def test_coupled_pairs_more_lag_correlated(self):
        ds = synth_generate(8, 2000, seed=2)
        coupled, uncoupled = synth_coupling_pairs(8, seed=2)
        x = ds.values.astype(np.float64)

        def lag_corr(i, j):
            a, b = x[:-1, i], x[1:, j]
            num = ((a - a.mean()) * (b - b.mean())).mean()
            return num / (a.std() * b.std())

        coupled_mean = np.mean([max(lag_corr(i, j), lag_corr(j, i)) for i, j in coupled])
        uncoupled_mean = np.mean([max(lag_corr(i, j), lag_corr(j, i)) for i, j in uncoupled])
        assert coupled_mean > uncoupled_mean
