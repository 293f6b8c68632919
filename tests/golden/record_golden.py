"""Record the golden-output fixtures that ``tests/test_golden.py`` checks.

For each zoo model: a simulated dataset (n1 = n2 = 120, d_z = 2, fixed
seed) drawn from the model itself, then

* at the generating parameter: loglik, score, the per-record influence
  rows ``psi``, ``psi_pt`` and ``psi_qz``, the score Jacobian ``A`` and
  the sandwich covariance ``sigma``;
* after ``fit``: the estimate ``theta_hat`` and its standard errors, or
  the name of the error ``fit`` raised (``fit_error``).

The dataset itself is stored, so the check does not depend on the sampler.
Run from the repository root:

    PYTHONPATH=src python tests/golden/record_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import lssurv as ls
from lssurv.errors import LssurvError
from lssurv.likelihood import LikelihoodContext
from lssurv.models import get_model
from lssurv.variance import asymptotic_variance

HERE = Path(__file__).resolve().parent
SEED = 20250627
N = 120
TRUTH = {
    "ph-weibull": [0.5, -0.3, 1.2, 0.8],
    "po-loglogistic": [0.4, -0.6, -0.5, 0.7],
    "aft-lognormal": [0.7, -0.2, 0.3, 0.9],
    "aft-exponential": [0.5, -0.5, 1.4],
    "ah-weibull": [0.4, -0.3, 1.1, 1.8],
}


def fixture_path(name: str) -> Path:
    return HERE / f"{name}.json"


def record(name: str) -> dict:
    model = get_model(name)
    cfg = ls.SimConfig(model=name, theta_true=tuple(TRUTH[name]), n1=N, n2=N)
    ds = ls.generate_dataset(cfg, np.random.default_rng(SEED))
    theta = np.array(TRUTH[name], dtype=float)

    ctx = LikelihoodContext(model, ds)
    loglik, score = ctx.value_and_score(theta)
    sigma, parts = asymptotic_variance(ctx, theta)
    try:
        fr = ls.fit(name, ds)
        fitted = {"theta_hat": fr.theta_hat, "se": fr.se, "fit_error": None}
    except LssurvError as exc:
        fitted = {"theta_hat": None, "se": None, "fit_error": type(exc).__name__}
    return {
        "model": name,
        "x": ds.x, "delta": ds.delta, "z_source": ds.z_source, "z_target": ds.z_target,
        "theta": theta,
        "loglik": loglik, "score": score,
        "psi": parts.psi_per_source, "psi_pt": parts.psi_pT_per_source,
        "psi_qz": parts.psi_qZ_per_target,
        "a_matrix": parts.a_matrix, "sigma": sigma,
        **fitted,
    }


def write(doc: dict, path: Path) -> None:
    # one key per line; floats keep their shortest round-trip repr
    lines = [
        f"  {json.dumps(k)}: {json.dumps(np.asarray(v).tolist() if isinstance(v, np.ndarray) else v)}"
        for k, v in doc.items()
    ]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main(names) -> int:
    for name in names or list(TRUTH):
        write(record(name), fixture_path(name))
        print(f"wrote {fixture_path(name)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
