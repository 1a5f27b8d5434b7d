"""emit_csv writes the same bytes as a per-cell f"{v:.9g}" writer."""

import hashlib
import os
import tempfile
from dataclasses import replace
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dot_window import DotWindow
from dubinsim import heol, mfpc
from dubinsim.harness import CSV_COLUMNS, SERIES, emit_csv, run_scenario
from dubinsim.presets import nominal_tracking, safety_scenario
from dubinsim.scenario import HeolConfig, ScenarioConfig, ScenarioResult

RESULT_SERIES = SERIES[:len(CSV_COLUMNS)]

SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-310,
            -1.5e-315, 1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308)


def per_cell_csv(result, path):
    """Reference writer: one f"{v:.9g}" per cell, straight off the columns;
    MFPC's auxiliary controls are written empty."""
    aux = ("nu1", "nu2") if result.config.controller == "mfpc" else ()
    columns = [repeat(None) if name in aux else getattr(result, name) for name in RESULT_SERIES]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(CSV_COLUMNS) + "\n")
        for row in zip(*columns):
            f.write(",".join("" if v is None else f"{v:.9g}" for v in row) + "\n")


def hard_values():
    """Values where a digit-by-digit formatter goes wrong, each with its two
    neighbouring doubles and its negation: decimal ties (k + 0.5) * 10**(e-8),
    as near as a double gets, across the fixed range and past it; exact
    binary ties k + 0.5; powers of ten; carries across a decade; and the
    1e-4 and 1e9 edges of fixed notation."""
    rng = np.random.default_rng(5)
    k = rng.integers(10**8, 10**9, 40).astype(float)
    ties = np.concatenate([(k + 0.5) * 10.0 ** (e - 8) for e in range(-6, 11)])
    powers = [10.0 ** j for j in range(-6, 11)] + [float(f"1e{j}") for j in range(-6, 11)]
    carries = [9.9999999995, 999999999.5, 0.000099999999995, 99999999.95, 0.99999999995]
    edges = [1e-4, 9.99999999e-5, 9.999999995e-5, 1e9, 999999999.4999999]
    base = np.concatenate((ties, k + 0.5, powers, carries, edges))
    near = np.concatenate((base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf)))
    return np.concatenate((near, -near))


HARD = hard_values()


def random_result(n_rows, mfpc, seed, special_frac, draw="normal", nan_from=None):
    """A result whose values are normal floats over 24 decades, the hard
    cases, or raw float64 bit patterns, with SPECIALS mixed in; rows from
    nan_from on are NaN, as in an aborted run, and so are the auxiliary
    controls of an MFPC run."""
    rng = np.random.default_rng(seed)
    shape = (n_rows, len(SERIES))
    if draw == "normal":
        table = rng.standard_normal(shape) * 10.0 ** rng.uniform(-12, 12, shape)
    elif draw == "hard":
        table = rng.choice(HARD, size=shape)
    else:
        table = rng.integers(0, 2**64, shape, dtype=np.uint64).view(np.float64)
    mask = rng.random(table.shape) < special_frac
    table[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
    if nan_from is not None:
        table[int(nan_from * n_rows):] = np.nan
    if mfpc:
        table[:, [SERIES.index("nu1"), SERIES.index("nu2")]] = np.nan
    config = ScenarioConfig(controller="mfpc" if mfpc else "heol")
    return ScenarioResult(config=config, record=table, events=[], metrics={})


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n_rows=st.sampled_from((1, 255, 256, 257, 513, 2001)),
       mfpc=st.booleans(),
       seed=st.integers(0, 2**32 - 1),
       special_frac=st.sampled_from((0.0, 0.01, 0.3, 1.0)),
       draw=st.sampled_from(("normal", "hard", "bits")),
       nan_from=st.none() | st.sampled_from((0.0, 0.5, 0.9)))
def test_block_writer_matches_per_cell_writer(n_rows, mfpc, seed, special_frac, draw,
                                              nan_from):
    result = random_result(n_rows, mfpc, seed, special_frac, draw, nan_from)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        emit_csv(result, got)
        per_cell_csv(result, want)
        with open(got, "rb") as a, open(want, "rb") as b:
            assert a.read() == b.read()


def sha256_of_csv(result, path):
    emit_csv(result, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of each CSV (x86-64 Linux), recorded with the moment-form FWindow
# re-summing its moments every RESUM_LAPS-th lap; the test below ties these
# runs to the dot-product engine's bytes.  The runs' floats follow the
# platform's libm, so a mismatch elsewhere may come from the simulation; the
# property above checks the writer alone.
@pytest.mark.parametrize("cfg, digest", [
    (safety_scenario("heol", seed=9),
     "6e569aed369aa5672902b2530be61991a729a811a4903752c27098a74c735f21"),
    (nominal_tracking("mfpc", "line"),
     "32fb136e1f688665f3e0bfd27b2cf3971d6293decb9b68c5d646c99b42b191bb"),
    # aborts at t=0.11, where its state leaves the world
    (replace(nominal_tracking("heol", "line"), heol=HeolConfig(kx=1e6, ky=1e6)),
     "80090a18fe7e89c1a92b664a96e28f78dc484b9a63150fa6238a61278017c95d"),
], ids=["safety-heol-9", "line-mfpc", "heol-kx-1e6-aborts"])
def test_real_csvs_keep_their_bytes(tmp_path, cfg, digest):
    assert sha256_of_csv(run_scenario(cfg), tmp_path / "run.csv") == digest


# The runs above with the dot-product window swapped in for FWindow: their
# bytes are those the dot-product engine wrote (its pins until the moment
# form replaced it), and the moment form must keep each outcome.
@pytest.mark.parametrize("cfg, dot_digest", [
    (safety_scenario("heol", seed=9),
     "6e569aed369aa5672902b2530be61991a729a811a4903752c27098a74c735f21"),
    (nominal_tracking("mfpc", "line"),
     "bad4acf533d985b471cb46c09394ef3c339bca784198429922f6d2c6367e597c"),
], ids=["safety-heol-9", "line-mfpc"])
def test_moment_window_keeps_the_dot_product_runs(monkeypatch, tmp_path, cfg, dot_digest):
    moment = run_scenario(cfg)
    with monkeypatch.context() as m:
        m.setattr(heol, "FWindow", DotWindow)
        m.setattr(mfpc, "FWindow", DotWindow)
        dot = run_scenario(cfg)
    assert sha256_of_csv(dot, tmp_path / "dot.csv") == dot_digest
    assert moment.aborted == dot.aborted and moment.abort_reason == dot.abort_reason
    sides = [[e["side"] for e in r.events if e["kind"] == "bypass_start"] for r in (moment, dot)]
    assert sides[0] == sides[1]
    assert moment.metrics["rms_tracking"] == pytest.approx(dot.metrics["rms_tracking"], rel=1e-9)
    assert moment.metrics["min_clearance"] == pytest.approx(dot.metrics["min_clearance"],
                                                            rel=1e-9)
