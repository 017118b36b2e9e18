"""Bundled synthetic benchmark recipes.

Three seeded generator presets exercise the regimes the package is built
for, over a shared schema of patent-style numeric metrics:

- ``rare_linear``: a 0.6% outcome with a faint additive signal. Threshold
  classifiers should flatline (never predict positive at 0.5) while
  ranking metrics stay informative.
- ``interaction``: a 17.5% outcome driven almost entirely by pairwise
  products, so axis-aligned recursive partitioning beats any additive fit.
- ``anomaly``: a 0.6% outcome whose positives drift in several
  coordinates, label-independent otherwise; reconstruction-based scoring
  should separate them without ever training on one.
"""

from __future__ import annotations

from .dataset import DatasetError, MarginalTarget, Signal, SynthSpec

__all__ = [
    "patent_marginals",
    "rare_linear_spec",
    "interaction_spec",
    "anomaly_spec",
    "BENCHMARKS",
    "benchmark_spec",
]


def patent_marginals() -> tuple[MarginalTarget, ...]:
    """Marginal targets mimicking observed patent-metric distributions."""
    return (
        MarginalTarget("sim.past", mean=0.088, sd=0.185, min=0.0, max=1.0),
        MarginalTarget("sim.present", mean=0.153, sd=0.262, min=0.0, max=1.0),
        MarginalTarget("patent_scope", mean=1.854, sd=1.162, min=1.0, max=31.0),
        MarginalTarget("family_size", mean=4.251, sd=3.906, min=1.0, max=100.0),
        MarginalTarget("bwd_cits", mean=15.15, sd=25.64, min=0.0, max=600.0),
        MarginalTarget("npl_cits", mean=3.328, sd=12.69, min=0.0, max=300.0),
        MarginalTarget("claims_bwd", mean=1.673, sd=3.378, min=0.0, max=100.0),
        MarginalTarget("originality", mean=0.707, sd=0.248, min=0.0, max=1.0),
        MarginalTarget("radicalness", mean=0.382, sd=0.288, min=0.0, max=1.0),
        MarginalTarget("nb_applicants", mean=1.849, sd=1.705, min=1.0, max=50.0),
        MarginalTarget("nb_inventors", mean=2.666, sd=1.925, min=1.0, max=50.0),
        MarginalTarget("many_field", kind="binary", mean=0.398),
    )


def rare_linear_spec(n: int = 100_000, seed: int = 0) -> SynthSpec:
    """0.6% positives, weak additive signal only.

    Coefficients are small enough that no row's latent probability gets
    anywhere near 0.5, which is the regime where accuracy saturates at the
    base rate and sensitivity at the default threshold collapses to zero.
    """
    return SynthSpec(
        n=n,
        positive_rate=0.006,
        feature_marginals=patent_marginals(),
        signal=Signal(
            linear={
                "originality": 0.25,
                "family_size": 0.20,
                "npl_cits": 0.15,
                "sim.present": 0.20,
            },
            interactions=(("originality", "radicalness", 0.0),),
        ),
        seed=seed,
    )


def interaction_spec(n: int = 50_000, seed: int = 0) -> SynthSpec:
    """17.5% positives driven by pairwise products plus a faint linear part.

    Additive fits top out early on this recipe; partitioning learners that
    can express "both large or both small" keep going.
    """
    return SynthSpec(
        n=n,
        positive_rate=0.175,
        feature_marginals=patent_marginals(),
        signal=Signal(
            linear={"patent_scope": 0.30},
            interactions=(
                ("family_size", "npl_cits", 1.60),
                ("originality", "radicalness", 1.20),
            ),
        ),
        seed=seed,
    )


def anomaly_spec(n: int = 100_000, seed: int = 0) -> SynthSpec:
    """0.6% positives displaced in several coordinates, no latent signal.

    The label is drawn independently of the features, then positive rows
    drift upward in five metrics by roughly one marginal sd each. Detectors
    trained to reconstruct the majority class should find them.
    """
    return SynthSpec(
        n=n,
        positive_rate=0.006,
        feature_marginals=patent_marginals(),
        signal=Signal(interactions=(("originality", "radicalness", 0.0),)),
        anomaly_shift={
            "bwd_cits": 25.0,
            "npl_cits": 15.0,
            "claims_bwd": 4.0,
            "sim.past": 0.25,
            "radicalness": 0.30,
        },
        seed=seed,
    )


BENCHMARKS = {
    "rare_linear": rare_linear_spec,
    "interaction": interaction_spec,
    "anomaly": anomaly_spec,
}


def benchmark_spec(name: str, n: int | None = None, seed: int = 0) -> SynthSpec:
    """Look up a preset by name, optionally overriding its row count."""
    if name not in BENCHMARKS:
        raise DatasetError(
            f"unknown benchmark {name!r} (have {', '.join(sorted(BENCHMARKS))})"
        )
    maker = BENCHMARKS[name]
    return maker(seed=seed) if n is None else maker(n=n, seed=seed)
