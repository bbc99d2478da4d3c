"""The benchmark's workloads: seeded inputs, op command lines and checks.

Every workload cycles through a fixed number of inputs made from the run's
seed. An op is one ``tvacov`` command line; ``check`` validates its output
directory and ``replay`` gives the command that must reproduce it from its
manifest.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks


def _child_seed(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint32)[0])


@dataclass(frozen=True)
class EstimateWorkload:
    """``tvacov estimate`` on CSV series of the given models and length.

    ``fixed`` pins every tuning value; None leaves them all to the program
    (lag scan, GCV bandwidths, minimum volatility).
    """

    name: str
    why: str
    models: tuple[str, ...]
    n: int
    inputs: int
    fixed: dict | None = None

    series_per_op = 1
    outputs = ("gamma0_band.csv", "gamma1_band.csv", "manifest.txt")

    def make_inputs(self, seed: int, work: Path) -> list[Path]:
        from tvacov.procgen import generate, model_preset

        paths = []
        for j in range(self.inputs):
            model = self.models[j % len(self.models)]
            mean, err = model_preset(model)
            y = generate(mean, err, self.n, _child_seed(seed, j))
            path = work / f"input{j}_{model}_n{self.n}.csv"
            path.write_text("y\n" + "".join(f"{float(v)!r}\n" for v in y.values))
            paths.append(path)
        return paths

    def argv(self, inp: Path, out: Path) -> list[str]:
        args = ["estimate", "--input", str(inp), "--lags", "0,1"]
        if self.fixed is not None:
            f = self.fixed
            args += ["--h", str(f["h"]), "--b-h", str(f["b_h"]),
                     "--b-k", str(f["b_k"]), "--m", str(f["m"]),
                     "--tau", str(f["tau"]), "--draws", str(f["draws"])]
        return args + ["--threads", "1", "--out", str(out)]

    def check(self, inp: Path, out: Path) -> list[str]:
        return checks.check_estimate(inp, out, self.fixed)

    def replay(self, out: Path, dest: Path) -> list[str]:
        return ["estimate", "--config", str(out / "manifest.txt"),
                "--out", str(dest)]


@dataclass(frozen=True)
class StudyWorkload:
    """``tvacov study`` with the calibrated StudyConfig tuning defaults."""

    name: str
    why: str
    model: str
    n: int
    reps: int
    draws: int
    inputs: int

    # StudyConfig defaults the manifest must echo
    fixed = {"h": 3, "b_h": 0.2, "b_k": 0.2, "m": 3, "tau": 0.2}
    outputs = ("study_report.txt", "manifest.txt")

    @property
    def series_per_op(self) -> int:
        return self.reps

    def make_inputs(self, seed: int, work: Path) -> list[int]:
        # the study draws its own series; its input is the study seed
        return [_child_seed(seed, j) for j in range(self.inputs)]

    def argv(self, inp: int, out: Path) -> list[str]:
        return ["study", "--model", self.model, "--n", str(self.n),
                "--reps", str(self.reps), "--draws", str(self.draws),
                "--threads", "1", "--seed", str(inp), "--out", str(out)]

    def check(self, inp: int, out: Path) -> list[str]:
        return checks.check_study(out, self.reps, self.fixed)

    def replay(self, out: Path, dest: Path) -> list[str]:
        return ["study", "--config", str(out / "manifest.txt"),
                "--threads", "1", "--out", str(dest)]


WORKLOADS = {
    w.name: w
    for w in (
        EstimateWorkload(
            name="auto-n800",
            why="fully auto-tuned estimate at n=800 (model1 and model3): the "
                "dense smoother inside GCV and the lag scan dominates",
            models=("model1", "model3"),
            n=800,
            inputs=2,
        ),
        EstimateWorkload(
            name="fixed-n4000",
            why="fixed-tuning estimate at n=4000 with 10000 draws: the "
                "bootstrap and its dense weight matrix dominate time and memory",
            models=("model1",),
            n=4000,
            # one input keeps a run to one op plus its replay, ~16 s each
            inputs=1,
            fixed={"h": 3, "b_h": 0.2, "b_k": 0.2, "m": 16, "tau": 0.2,
                   "draws": 10000},
        ),
        StudyWorkload(
            name="study-n400",
            why="200-replication model1 study at n=400: many small fits, "
                "one shared bootstrap quantile",
            model="model1",
            n=400,
            reps=200,
            draws=2000,
            inputs=2,
        ),
    )
}
