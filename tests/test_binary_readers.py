"""Byte-level fuzzing of the three binary readers and of every run artifact.

A small valid cohort, tensor cache or checkpoint is truncated at a random
offset or has one random byte flipped. The reader must either return or
raise its own error type, never anything else, and its traced memory must
stay within a small multiple of the file size: a length field is checked
against the bytes left before anything is allocated from it. The same
damage to any file of a trained run's prep and run directories, binary or
text, must end `evaluate` in a documented exit code, never in a traceback.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import run_inprocess
from hemocult.cohort import CohortConfig, generate_cohort, read_cohort, write_cohort
from hemocult.errors import CheckpointError, FormatError, TensorCacheError
from hemocult.lstm import init_params, load_params, save_params
from hemocult.prep import SampleTensor, read_tensors, write_tensors


def _cohort(path):
    # stays of a few minutes keep the file small, so length fields are a large share of it
    config = CohortConfig(n_admissions=3, n_positive=1, seed=4, horizon_hours=(0.05, 0.1))
    write_cohort(generate_cohort(config), path)


def _tensors(path):
    rng = np.random.default_rng(2)
    write_tensors([SampleTensor(values=rng.normal(size=(72, 9)), label=i % 2,
                                admission_id=f"adm{i:05d}") for i in range(3)], path)


def _checkpoint(path):
    save_params(init_params(1, 3), path)


READERS = {
    "cohort": (_cohort, read_cohort, FormatError),
    "tensors": (_tensors, read_tensors, TensorCacheError),
    "checkpoint": (_checkpoint, load_params, CheckpointError),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("readers")
    blobs = {}
    for name, (write, _, _) in READERS.items():
        write(root / name)
        blobs[name] = (root / name).read_bytes()
    return root, blobs


def _mutate(blob, data):
    """blob truncated at a drawn offset, or with the byte there xor-ed with a drawn mask."""
    offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        return blob[:offset]
    mask = data.draw(st.integers(1, 255), label="xor mask")
    return blob[:offset] + bytes([blob[offset] ^ mask]) + blob[offset + 1:]


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_file_returns_or_raises_own_error(valid_files, name, data):
    root, blobs = valid_files
    _, read, own_error = READERS[name]
    blob = blobs[name]
    mutated = _mutate(blob, data)
    path = root / f"mutated_{name}"
    path.write_bytes(mutated)
    tracemalloc.start()
    try:
        read(path)
    except own_error:
        pass
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak <= 3 * len(blob) + 64 * 1024, f"peak {peak} bytes for a {len(mutated)}-byte file"


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A tiny generate -> preprocess -> train chain whose files the CLI fuzz damages."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    steps = [
        ("generate", "--out", root / "cohort.bin", "--seed", 7, "--n", 24, "--positives", 8,
         "--horizon", "6:12"),
        ("preprocess", "--cohort", root / "cohort.bin", "--out-dir", root / "prep", "--seed", 7,
         "--test-fraction", 0.25),
        ("train", "--tensors", root / "prep", "--run-dir", root / "run", "--seed", 7,
         "--hidden", 1, "--max-epochs", 1, "--folds", 2),
        ("evaluate", "--tensors", root / "prep", "--run-dir", root / "run",
         "--out-dir", root / "eval"),
    ]
    for argv in steps:
        assert run_inprocess(*argv)[0] == 0, argv
    return root


@pytest.mark.parametrize("artifact", ["prep/tensors.bin", "run/ensemble_fold1.ckpt",
                                      "prep/split.tsv", "prep/stats.tsv",
                                      "run/config.txt", "run/manifest.txt"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_evaluate_on_mutated_artifact_exits_with_documented_code(trained_run, artifact, data):
    path = trained_run / artifact
    blob = path.read_bytes()
    try:
        path.write_bytes(_mutate(blob, data))
        code, _, err = run_inprocess("evaluate", "--tensors", trained_run / "prep",
                                     "--run-dir", trained_run / "run",
                                     "--out-dir", trained_run / "eval")
    finally:
        path.write_bytes(blob)
    assert code in (0, 3, 6)
    assert code == 0 or err.startswith("error:")
