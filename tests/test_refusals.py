"""Every library refusal that no experiment reaches raises its documented error."""

import json

import numpy as np
import pytest

from latticeccr import (
    ConfigError,
    Hopping,
    LatticeSpec,
    OperatorMatrix,
    Potential,
    StateVector,
    ToleranceError,
    ccr_defect,
    discrete_derivative,
    emit_dataset,
    harmonic_sweep,
    parse_config,
    threshold_estimate,
)
from latticeccr import spectral

SPEC = LatticeSpec(4, 1.0)


def _spectrum_to(path):
    """A spectrum config whose dataset is written to path."""
    return json.dumps({"experiment": "spectrum", "lattice": {"M": 3}, "output": {"path": path}})


def _taken(path):
    """path as a string, after making it a directory that no file can replace."""
    path.mkdir()
    return str(path)


# name: (call with a scratch directory, error type, message pattern)
REFUSALS = {
    "operator-not-square": (lambda d: OperatorMatrix(np.zeros((2, 3))), ValueError, "square"),
    "state-not-1d": (lambda d: StateVector(np.zeros((2, 2))), ValueError, "1-D"),
    "normalize-zero-state": (lambda d: StateVector(np.zeros(3)).normalize(), ValueError, "zero"),
    "hopping-kind": (lambda d: Hopping("nearest"), ValueError, "unknown hopping kind"),
    "potential-kind": (lambda d: Potential("cubic"), ValueError, "unknown potential kind"),
    "custom-potential-nan": (lambda d: Potential.custom([0.0, np.nan]), ValueError, "finite"),
    "ccr-window-size": (
        lambda d: ccr_defect(StateVector(np.ones(3)), SPEC),
        ValueError,
        "sizes differ",
    ),
    # a residual of 0 with vectors of norm 2: only the orthonormality bound fails
    "orthonormality": (
        lambda d: spectral._check_contract(np.zeros((2, 2)), np.zeros(2), 2 * np.eye(2), 1e-10),
        ToleranceError,
        "orthonormality",
    ),
    "threshold-curvature": (lambda d: threshold_estimate(1.0, 0.0), ValueError, "positive"),
    "sweep-curvature": (lambda d: harmonic_sweep(0.0, [1.0]), ValueError, "positive"),
    "derivative-j_max": (
        lambda d: discrete_derivative(StateVector(np.ones(9)), SPEC, 0, j_max=0),
        ValueError,
        "j_max",
    ),
    "config-not-object": (lambda d: parse_config("[1]"), ConfigError, "JSON object"),
    "config-block-not-object": (
        lambda d: parse_config('{"experiment": "spectrum", "lattice": 5}'),
        ConfigError,
        "^config key 'lattice' must be an object$",
    ),
    # a dataset path must stay inside the output directory
    "output-path-absolute": (
        lambda d: parse_config(_spectrum_to(str(d / "x.csv"))),
        ConfigError,
        "'output.path' must name a file inside",
    ),
    "output-path-outside": (
        lambda d: parse_config(_spectrum_to("sub/../../x.csv")),
        ConfigError,
        "'output.path' must name a file inside",
    ),
    "dataset-format": (
        lambda d: emit_dataset([], ["a"], str(d / "x.xml"), fmt="xml"),
        ValueError,
        "'xml'",
    ),
    "dataset-write": (
        lambda d: emit_dataset([], ["a"], str(d / "missing" / "x.csv")),
        OSError,
        "failed writing",
    ),
    # a cell that is not ASCII is refused before the temp file is opened
    "dataset-not-ascii": (
        lambda d: emit_dataset([["\u00e9"]], ["x"], str(d / "d.csv")),
        ValueError,
        "'ascii' codec",
    ),
    # the temp file is written, then cannot replace the directory; it is removed
    "dataset-write-onto-directory": (
        lambda d: emit_dataset([], ["a"], _taken(d / "x.csv")),
        OSError,
        "failed writing",
    ),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_raises_its_error(name, tmp_path):
    call, error, pattern = REFUSALS[name]
    with pytest.raises(error, match=pattern):
        call(tmp_path)
    # a failed write leaves no dataset and no temp file
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]
