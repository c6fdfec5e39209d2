"""Integrate Dyson Brownian motion paths with ``wignerlab.ensemble.dbm_integrate``.

The program has no CLI command for the eigenvalue SDE, so this script is the
user of that function. Usage:

    python3 bench/dbm_paths.py INIT.npy OUT.json DT STEPS STREAM_SEED

INIT.npy holds one initial spectrum per path; path i draws its noise from
``sample_stream(STREAM_SEED, i)``. OUT.json records, per path, the initial
and final sum of squares and the smallest gap over every snapshot, so the
benchmark can check ordering and the closed-form second moment.
"""

import json
import sys

import numpy as np

from wignerlab import ensemble as en


def run(init_path, out_path, dt, steps, stream_seed):
    init = np.load(init_path)
    rows = []
    for i, lam0 in enumerate(init):
        path = en.dbm_integrate(lam0, dt, steps, en.sample_stream(stream_seed, i))
        traj = path.trajectory
        rows.append({
            "N": int(traj.shape[1]),
            "snapshots": int(traj.shape[0]),
            "finite": bool(np.all(np.isfinite(traj))),
            "min_gap": float(np.min(np.diff(traj, axis=1))),
            "S0": float(np.sum(traj[0] ** 2)),
            "ST": float(np.sum(traj[-1] ** 2)),
        })
    with open(out_path, "w") as fh:
        json.dump({"dt": dt, "steps": steps, "paths": rows}, fh, indent=1)
    return 0


def main(argv):
    init_path, out_path, dt, steps, stream_seed = argv
    return run(init_path, out_path, float(dt), int(steps), int(stream_seed))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
