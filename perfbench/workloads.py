"""The benchmark's workloads: which instances, which solver settings.

Every workload draws its base instances from the one seed ``BASE_SEED``.
The run's ``--seed`` picks an equivalent presentation of them (``generate.present``
negates a random half of the columns, or rows): the bytes differ from
seed to seed, the arithmetic of the solve does not, so every seed runs
the same trajectory and the spread between seeds is the program's.

Measured on a 2-core Xeon (Python 3.11, numpy 2.4, scipy 1.17), that is
needed because the iteration count is chaotic in the inputs' rounding:

- independently drawn instances of one family differ up to 5x
  (equality-normal: 8,085 to 44,800 iterations over five seeds);
- merely permuting the rows and columns of one instance moves
  mps-sparse-1e5 from 2,100 to 7,600 iterations at tol 1e-4 and from
  27,400 to 36,100 at tol 1e-6, and small-corpus from 55,579 to 59,861;
- under negation every seed gives the same count, bit for bit the same
  objective: 2,300 at tol 1e-4 and 17,200 at 1e-6 (mps-sparse-1e5),
  56,021 (small-corpus), and 5,500 at 1e-6 and 10,500 at 1e-8
  (equality-normal) iterations for base seed 0.

So a seed does not sample the trajectory: a change that reorders the
floating-point work of a solve can move the iteration count as much as
another base instance would.  ``run.py`` therefore reports ``iterations``
next to ``solve_s``; the two are read together.

Each run needs several passes for its medians to shed the host's slow
spells, so the single-instance workloads stop at the looser tolerances
the paper also reports: mps-sparse-1e5 at 1e-4 (at 1e-6 one solve takes
26 s, one sample per run, and its solve_s spread over ten seeds,
interquartile range over median, was 0.165) and equality-normal at 1e-6
(at 1e-8, two passes per run gave spreads of 0.16-0.20).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import generate

BASE_SEED = 0
HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    name: str
    tol: float
    time_limit: float  # per solve; unsolved solves are charged this in sgm10
    from_mps: bool  # read through parse_mps -> build_problem
    normal_equations: bool  # EngineConfig(lambda_A=None, t1_zero_path=True)
    highs_reference: bool  # compare objectives with scipy's HiGHS (check.py)

    def instances(self, seed: int):
        """The base instances presented by ``seed``."""
        if self.name == "mps-sparse-1e5":
            base = [generate.mps_sparse(BASE_SEED)]
        elif self.name == "small-corpus":
            base = generate.small_corpus(BASE_SEED)
        else:
            base = [generate.equality_normal(BASE_SEED)]
        seeds = np.random.SeedSequence(seed).generate_state(len(base))
        # standard form keeps x >= 0, so its rows are negated instead
        return [generate.present(inst, int(s), rows=self.normal_equations)
                for inst, s in zip(base, seeds)]


WORKLOADS = {
    w.name: w
    for w in (
        # the 1e5-nonzero reference size on the `hprlp solve model.mps` path
        Workload("mps-sparse-1e5", tol=1e-4, time_limit=100.0,
                 from_mps=True, normal_equations=False, highs_reference=False),
        # per-call Python/scipy overhead, restarts and checkpoints dominate;
        # the bypass workload for kernel or bandwidth changes
        Workload("small-corpus", tol=1e-8, time_limit=10.0,
                 from_mps=False, normal_equations=False, highs_reference=True),
        # the only workload on which NormalEquationSolver runs
        Workload("equality-normal", tol=1e-6, time_limit=60.0,
                 from_mps=False, normal_equations=True, highs_reference=True),
    )
}


def inputs_digest(workload) -> str:
    """Hash of everything the prepared files depend on: the workload's
    settings, this module, the generator and prepare.py, and the hprlp sources whose
    parse_mps/build_problem the MPS round trip is checked against."""
    h = hashlib.sha256(repr((workload, BASE_SEED)).encode())
    sources = [HERE / f for f in ("generate.py", "workloads.py", "prepare.py")]
    sources += sorted((HERE.parent / "src" / "hprlp").glob("*.py"))
    for path in sources:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]
