"""Working-set guards for the rare-outcome path, measured with tracemalloc.

Each model guard traces one call on 20k ``rare_linear`` rows and bounds the
peak of the bytes it allocates by a multiple of its input's bytes. Inference
keeps one layer's activation at a time and IRLS weights the design one block
at a time, so neither holds a copy per layer or a weighted copy of the design.
The ``split`` guard reads data.csv in blocks as it gathers, so the step's peak
is about that of parsing the file.
"""

import tracemalloc

import numpy as np
import pytest

from rarepred import cli
from rarepred.anomaly import score_dataset, train_autoencoder
from rarepred.benchmarks import rare_linear_spec
from rarepred.config import load_config
from rarepred.dataset import load_csv, load_schema, synth_generate
from rarepred.linear import fit_logit
from rarepred.neural import forward


@pytest.fixture(scope="module")
def rare():
    ds = synth_generate(rare_linear_spec(n=20_000, seed=3))
    return ds, train_autoencoder(ds, label="outcome", epochs=1, seed=3)


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes allocated by ``fn(*args, **kwargs)`` beyond what was live before it."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not outer:
            tracemalloc.stop()


def test_forward_holds_one_layer_at_a_time(rare):
    ds, ae = rare
    X = ds.columns(ae.feature_names)[1]
    assert traced_peak(forward, ae.net, X) <= 3 * X.nbytes


def test_score_dataset_peak(rare):
    ds, ae = rare
    X = ds.columns(ae.feature_names)[1]
    assert traced_peak(score_dataset, ae, ds) <= 4 * X.nbytes


def test_fit_logit_weights_the_design_by_blocks(rare):
    ds, _ = rare
    design_bytes = ds.rows * (len(ds.feature_names) + 1) * np.dtype(np.float64).itemsize
    assert traced_peak(fit_logit, ds, "outcome") <= 4 * design_bytes


SPLIT_CFG = """
[run]
seed = 3
out_dir = {out}
label = outcome

[data]
synth = rare_linear
n = 100000

[model:logit]
"""


def test_split_peak_is_the_parse(tmp_path):
    # neither data.csv's 16 MB of bytes nor the whole parse is held beside the split sets
    (tmp_path / "run.ini").write_text(SPLIT_CFG.format(out=tmp_path / "out"))
    cfg = load_config(str(tmp_path / "run.ini"))
    ws = cli.Workspace(cfg.out_dir)
    cli.cmd_generate(cfg, ws)
    schema = load_schema(ws.path("schema.txt"))
    parse = traced_peak(load_csv, ws.path("data.csv"), schema)
    assert traced_peak(cli.cmd_split, cfg, ws) <= 1.2 * parse
