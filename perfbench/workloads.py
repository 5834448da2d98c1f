"""Benchmark workloads: which sweep each one runs, drawn from a seed.

Every workload is one serial `pdwell sweep` run in a closed loop (the next
sweep starts when the previous one exits). The seed draws the workload's h
values inside a band where the automatic grid rule (`N = auto`) always picks
the same N, so every seed does the same amount of work; seed 0 reproduces the
h list the repository ships for that experiment.
"""

import random
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    eps: float | None   # ModelB coupling; None for ModelA
    band: tuple         # (lowest h, highest h) the seed may draw
    count: int          # number of h values per sweep
    default: tuple      # h list of seed 0
    N: int              # grid size the automatic rule picks inside the band

    def h_list(self, seed: int) -> tuple:
        """Strictly decreasing h values for this seed, 4 significant digits."""
        if seed == DEFAULT_SEED:
            return self.default
        rng = random.Random(f"{self.name}/{seed}")
        lo, hi = self.band
        while True:
            hs = sorted({float(f"{rng.uniform(lo, hi):.4g}") for _ in range(self.count)},
                        reverse=True)
            if len(hs) == self.count and all(lo <= h <= hi for h in hs):
                return tuple(hs)

    def config_text(self, seed: int, out_dir: str) -> str:
        """INI config of one sweep, in the format of configs/modela.ini."""
        eps = f"eps = {self.eps!r}\n" if self.eps is not None else ""
        hs = " ".join(repr(h) for h in self.h_list(seed))
        return (f"[model]\nname = {self.model}\n{eps}\n"
                "[grid]\nL = 8.0\nN = auto\nxi_min = 3.0\n\n"
                "[seal]\neta = 0.4\nheight = auto\n\n"
                f"[sweep]\nh_list = {hs}\n\n"
                f"[output]\ndir = {out_dir}\n\n"
                "[checks]\ndiagnostics = localization wkb tunneling\n")


# Why these three (perfbench/README.md has the measurements): the desk sweep
# is the reference experiment and shows the per-row redundancy; ModelB is the
# only user of the anti-diagonal weyl_matrix path; the deep sweep is
# dominated by the N=1024 eigensolve, where two BLAS threads beat one.
WORKLOADS = {w.name: w for w in (
    Workload("modela-desk", "ModelA", None, (0.04, 0.09), 6,
             (0.09, 0.08, 0.07, 0.06, 0.05, 0.04), 512),
    Workload("modelb-coupled", "ModelB", 0.2, (0.05, 0.09), 3,
             (0.09, 0.07, 0.05), 512),
    Workload("modela-deep", "ModelA", None, (0.0075, 0.0149), 2,
             (0.012, 0.010), 1024),
)}
