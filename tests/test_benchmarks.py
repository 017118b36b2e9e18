"""Bundled synthetic benchmark presets."""

import numpy as np
import pytest

from rarepred.anomaly import DEFAULT_AUTOENCODER_FEATURES
from rarepred.benchmarks import (
    BENCHMARKS,
    anomaly_spec,
    benchmark_spec,
    interaction_spec,
    patent_marginals,
    rare_linear_spec,
)
from rarepred.dataset import DatasetError, synth_generate


class TestPresets:
    def test_registry_contents(self):
        assert set(BENCHMARKS) == {"rare_linear", "interaction", "anomaly"}

    def test_lookup_matches_makers(self):
        assert benchmark_spec("rare_linear", seed=3) == rare_linear_spec(seed=3)
        assert benchmark_spec("interaction", seed=3) == interaction_spec(seed=3)
        assert benchmark_spec("anomaly", seed=3) == anomaly_spec(seed=3)

    def test_unknown_name(self):
        with pytest.raises(DatasetError):
            benchmark_spec("nope")

    def test_n_override(self):
        spec = benchmark_spec("interaction", n=1234, seed=1)
        assert spec.n == 1234
        assert benchmark_spec("interaction", seed=1).n == 50_000

    def test_rates(self):
        assert rare_linear_spec().positive_rate == 0.006
        assert anomaly_spec().positive_rate == 0.006
        assert interaction_spec().positive_rate == 0.175

    def test_marginals_cover_default_autoencoder_features(self):
        names = {m.name for m in patent_marginals()}
        assert set(DEFAULT_AUTOENCODER_FEATURES) <= names
        assert "many_field" in names

    def test_default_autoencoder_features_are_the_continuous_metrics(self):
        # the stock 11-9-4-4-11 architecture reads these, in this order
        assert DEFAULT_AUTOENCODER_FEATURES == (
            "sim.past", "sim.present", "patent_scope", "family_size", "bwd_cits", "npl_cits",
            "claims_bwd", "originality", "radicalness", "nb_applicants", "nb_inventors",
        )

    def test_anomaly_shift_targets_continuous_features(self):
        spec = anomaly_spec()
        kinds = {m.name: m.kind for m in spec.feature_marginals}
        for name in spec.anomaly_shift:
            assert kinds[name] == "continuous"

    def test_label_name(self):
        for name in BENCHMARKS:
            assert benchmark_spec(name).label_name == "outcome"


class TestGeneration:
    def test_small_draws_land_near_rates(self):
        ds = synth_generate(benchmark_spec("interaction", n=4000, seed=5))
        rate = ds.label("outcome").mean()
        assert 0.14 < rate < 0.21

    def test_rare_preset_is_rare(self):
        ds = synth_generate(benchmark_spec("rare_linear", n=20_000, seed=5))
        positives = int(ds.label("outcome").sum())
        assert 0 < positives < 400

    def test_anomaly_preset_shifts_positives(self):
        ds = synth_generate(benchmark_spec("anomaly", n=20_000, seed=5))
        y = ds.label("outcome")
        col = ds.column("bwd_cits")
        assert col[y == 1].mean() > col[y == 0].mean() + 10.0

    def test_same_seed_same_data(self):
        a = synth_generate(benchmark_spec("interaction", n=500, seed=9))
        b = synth_generate(benchmark_spec("interaction", n=500, seed=9))
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.label("outcome"), b.label("outcome"))
