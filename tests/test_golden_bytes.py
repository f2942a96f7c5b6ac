"""The three binary formats pinned byte for byte.

Each file is written from literal arrays, so its bytes depend on the writer
alone: no random draw, no transcendental function and no BLAS call goes
into it. A change to any encoder that alters one byte changes the digest.
"""

import hashlib

import numpy as np

from hemocult.cohort import PatientSeries, write_cohort
from hemocult.lstm import CellParams, ModelParams, save_params
from hemocult.prep import SampleTensor, write_tensors
from hemocult.variables import VARIABLE_NAMES

COHORT_SHA256 = "80a083ae75481f57a63690f6dcbbf58c30f3b2baf1eece31a5600338955cecc9"
TENSORS_SHA256 = "f346db3c5ba086a61305431a3d064231ba8ab2f8869e589de3bcbf631c2e2884"
CHECKPOINT_SHA256 = "2f6d3c4e8962f1007c82309c25cfdb469e95efcab803a421c56d693d94b27164"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _channels(first_value, empty):
    channels = {}
    for k, name in enumerate(VARIABLE_NAMES):
        if name == empty:
            channels[name] = (np.array([], dtype=np.int64), np.array([]))
        else:
            channels[name] = (np.array([60 * k, 60 * k + 3600, 60 * k + 7200], dtype=np.int64),
                              np.array([first_value + k, first_value - 0.25 * k, -1.5]))
    return channels


def test_cohort_bytes(tmp_path):
    cohort = [PatientSeries("adm00000", 1, 7260, _channels(36.5, empty="crp")),
              PatientSeries("négatif", 0, None, _channels(120.0, empty=None))]
    write_cohort(cohort, tmp_path / "cohort.bin")
    assert _sha256(tmp_path / "cohort.bin") == COHORT_SHA256


def test_tensor_cache_bytes(tmp_path):
    grid = np.arange(72 * 9, dtype=float).reshape(72, 9)
    write_tensors([SampleTensor(grid / 64.0, 1, "adm00000"),
                   SampleTensor(-grid / 8.0 + 0.5, 0, "adm00001")], tmp_path / "tensors.bin")
    assert _sha256(tmp_path / "tensors.bin") == TENSORS_SHA256


def test_checkpoint_bytes(tmp_path):
    def cell(sign):
        return CellParams(sign * np.arange(36, dtype=float).reshape(4, 9) / 32.0,
                          sign * np.array([[0.5], [-0.25], [0.125], [1.0]]),
                          np.array([0.0, 1.0, 0.0, -0.5]))

    p = ModelParams(cell(1.0), cell(-1.0), np.array([0.75, -2.0]), np.array([0.0625]))
    save_params(p, tmp_path / "model.ckpt")
    assert _sha256(tmp_path / "model.ckpt") == CHECKPOINT_SHA256
