"""The benchmark's workloads: data shape and the CLI stages each one times.

Why each workload exists is in README.md next to this file. Every stage runs
serially (``--workers 1``); only the ratings file generated from the seed
reaches the program.
"""

from __future__ import annotations

from dataclasses import dataclass

# Model settings shared by the timed stages and the output checks.
K = 20
FACTORS = 8
ITERS = 40
L = 10
# Set-up is short, so each repetition runs ``ingest`` this many times and
# reports the median; the stages then read the last one's output.
INGEST_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    n_users: int
    n_items: int
    density: float
    half_stars: bool
    algo: str               # model the timed stages use
    loo: bool               # runs leave-one-out influence
    top_k: tuple[int, ...] = ()

    def ingest(self, inp: str, out: str) -> list[str]:
        return ["ingest", "--input", f"{inp}/ratings.csv", "--format", "csv",
                "--out-dir", out]

    def stages(self, inp: str, out: str) -> list[list[str]]:
        """The timed CLI invocations, in order."""
        dataset = ["--dataset", f"{out}/dataset.tsv"]
        model = ["--algo", self.algo, "--l", str(L), "--out-dir", out]
        if self.algo == "knn":
            model += ["--k", str(K)]
        else:
            model += ["--factors", str(FACTORS), "--iters", str(ITERS)]
        if self.loo:
            top_k = ",".join(str(k) for k in self.top_k)
            return [["influence", *dataset, *model, "--top-k", top_k,
                     "--workers", "1"]]
        influence = ["--influence", f"{inp}/influence.csv"]
        return [["features", *dataset, *model],
                ["fit-tree", "--features", f"{out}/features.csv",
                 *influence, "--out-dir", out],
                ["mds", *dataset, *influence, "--refine-iters", "50",
                 "--out-dir", out],
                ["report", "--out-dir", out]]

    @property
    def n_stages(self) -> int:
        """CLI invocations per repetition: the ingests and the stages."""
        return INGEST_REPEATS + len(self.stages("", ""))

    @property
    def removals(self) -> int:
        """Single-user removals one run of the stages attempts."""
        if not self.loo:
            return 0
        return self.n_users + sum(min(k, self.n_users) for k in self.top_k)


WORKLOADS = {w.name: w for w in (
    Workload("knn-loo", 120, 240, 0.05, False, "knn", True, (10, 50)),
    Workload("nmf-loo", 100, 200, 0.05, False, "nmf", True, (10, 50)),
    Workload("profile-analysis", 300, 600, 0.04, True, "knn", False),
)}
