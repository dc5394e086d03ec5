"""Generate, check and cache one workload's inputs for one seed.

Run as its own process before the timed process starts, so that neither
generation nor the HiGHS reference solves count in the timed process's
peak memory:

    python3 perfbench/prepare.py --workload NAME --seed N --out DIR

DIR receives one ``NNN.npz`` per instance, ``model.mps`` for workloads
read from MPS, and ``meta.json`` with the reference objectives and the
MPS size.  The MPS file is parsed back once and must reproduce the
generated arrays bit for bit, and ``meta.json`` records the
``workloads.inputs_digest`` the files were made for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import scipy.optimize
import scipy.sparse as sp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, inputs_digest  # noqa: E402


def highs_objective(inst) -> float:
    """Optimal value from scipy's HiGHS, as an independent reference."""
    A = sp.csr_matrix(inst.A)
    eq = inst.l_con == inst.u_con
    up = ~eq & np.isfinite(inst.u_con)
    lo = ~eq & np.isfinite(inst.l_con)
    A_ub = sp.vstack([A[up], -A[lo]]).tocsr()
    b_ub = np.concatenate([inst.u_con[up], -inst.l_con[lo]])
    bounds = [(None if np.isinf(a) else a, None if np.isinf(b) else b)
              for a, b in zip(inst.l_var, inst.u_var)]
    out = scipy.optimize.linprog(
        inst.c, A_ub=A_ub if b_ub.size else None, b_ub=b_ub if b_ub.size else None,
        A_eq=A[eq] if eq.any() else None, b_eq=inst.l_con[eq] if eq.any() else None,
        bounds=bounds, method="highs",
    )
    if out.status != 0:
        raise RuntimeError(f"{inst.name}: HiGHS ended with status {out.status}: {out.message}")
    return float(out.fun)


def check_round_trip(inst, path):
    """parse_mps + build_problem must give back exactly the generated arrays."""
    from hprlp import build_problem, parse_mps

    prob = build_problem(parse_mps(path))
    got = prob.A.to_csc()
    pairs = [("A.indptr", got.indptr, inst.A.indptr),
             ("A.indices", got.indices, inst.A.indices),
             ("A.data", got.data, inst.A.data)]
    pairs += [(k, getattr(prob, k), getattr(inst, k))
              for k in ("c", "l_con", "u_con", "l_var", "u_var")]
    for label, a, b in pairs:
        if not np.array_equal(a, b):
            raise RuntimeError(f"{path}: {label} does not round-trip through MPS")


def prepare(workload, seed, out: Path):
    import generate

    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    tmp.mkdir(parents=True)
    try:
        insts = workload.instances(seed)
        meta = {"digest": inputs_digest(workload), "references": None,
                "mps_lines": 0, "mps_bytes": 0}
        for k, inst in enumerate(insts):
            inst.to_npz(tmp / f"{k:03d}.npz")
        if workload.from_mps:
            (inst,) = insts
            with open(tmp / "model.mps", "w") as fh:
                meta["mps_lines"] = generate.write_mps(inst, fh)
            meta["mps_bytes"] = (tmp / "model.mps").stat().st_size
            check_round_trip(inst, tmp / "model.mps")
        if workload.highs_reference:
            meta["references"] = [highs_objective(inst) for inst in insts]
        (tmp / "meta.json").write_text(json.dumps(meta))
        os.replace(tmp, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    prepare(WORKLOADS[args.workload], args.seed, args.out)


if __name__ == "__main__":
    main()
