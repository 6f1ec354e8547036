"""The benchmark's workloads: CLI arguments, expected output grid and the
computed (not measured) kernel work of each run.

Every workload uses the paper's desk-scale system N=64, M=400, P=3,
alpha=0.2 and, unless its grid says otherwise, sigma_n2=0.5.  README.md in
this directory records why each workload exists and which layers it
stresses or bypasses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

GAIN = 64  # spreading gain N
SYMBOLS = 400  # coherence block M
TAPS = 3  # channel order P
ALPHA = 0.2  # training fraction
ESTIMATORS = ("training", "mm", "subspace")

F64, C128 = 8, 16  # bytes per float64 / complex128 element


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # sweep | predict
    beta: tuple[float, ...]
    sigma_n2: tuple[float, ...]
    estimator: str  # training | mm | subspace | all
    sos_mode: str = "identity"
    trials: int = 1  # Monte Carlo trials per cell (sweep only)
    draws: int = 200  # analytic channel draws per cell

    @property
    def estimators(self) -> tuple[str, ...]:
        return ESTIMATORS if self.estimator == "all" else (self.estimator,)

    @property
    def cells(self) -> list[tuple[float, float, int, float]]:
        """Grid points (beta, sigma_n2, P, alpha) in the CLI's output order."""
        return [(b, s2, TAPS, ALPHA) for b, s2 in product(self.beta, self.sigma_n2)]

    @property
    def rows_expected(self) -> int:
        return len(self.cells) * len(self.estimators)

    def smoke(self) -> "Workload":
        """The same grid with one trial and five draws, for the benchmark's tests."""
        return replace(self, trials=1, draws=5)

    def argv(self, seed: int, out: str) -> list[str]:
        """Arguments for ``semiblind.cli.main``."""
        args = [
            self.command,
            "--N", str(GAIN), "--M", str(SYMBOLS), "--P", str(TAPS),
            "--alpha", str(ALPHA),
            "--beta", ",".join(map(str, self.beta)),
            "--sigma-n2", ",".join(map(str, self.sigma_n2)),
            "--estimator", self.estimator,
            "--draws", str(self.draws),
            "--seed", str(seed), "--workers", "1", "--out", out,
        ]
        if self.command == "sweep":
            args += ["--trials", str(self.trials), "--sos-mode", self.sos_mode]
        return args

    def kernel_counts(self) -> dict[str, float]:
        """Computed work of one run, from K, M, N, P and the float64/complex128
        dtypes of the arrays the current implementation materializes."""
        counts = {
            "model.sample_codes.bytes": 0.0,
            "sos.build_normal_equations.flops": 0.0,
            "sos.build_normal_equations.bytes": 0.0,
            "sos.build_normal_equations.gram_flops": 0.0,
            "sos.build_normal_equations.gram_bytes": 0.0,
        }
        if self.command != "sweep":
            return counts
        semiblind = any(e in self.estimators for e in ("mm", "subspace"))
        gram = semiblind and self.sos_mode != "identity"
        n, m, p = GAIN, SYMBOLS, TAPS
        mi, nw = m - round(ALPHA * m), n - p + 1  # information symbols, window
        for beta, _, _, _ in self.cells:
            k = max(1, round(beta * n))
            calls = self.trials
            # chips (K, M, N) float64
            counts["model.sample_codes.bytes"] += calls * k * m * n * F64
            if not semiblind:
                continue
            # rhs: correlator a = S^T r (real x complex MACs, 4 flops),
            # moments a a^H (complex MACs, 8 flops), self-Gram C^T C (2 flops)
            rhs_flops = mi * k * p * (4 * nw + 8 * p + 2 * nw * p)
            # chips read, window stack copied (write + read), windows r read, y written
            rhs_bytes = (
                k * mi * n * F64 + 2 * mi * nw * k * p * F64 + mi * nw * C128 + k * p * p * C128
            )
            flops, nbytes = rhs_flops, rhs_bytes
            if gram:
                kp = k * p
                # per-symbol S^T S, then the per-user-pair products
                gram_flops = 2 * mi * (kp * kp * nw + k * k * p**4)
                # S^T S and its pair-major copy (each write + read), acc and T
                gram_bytes = 4 * mi * kp * kp * F64 + 2 * (k * p * p) ** 2 * F64
                counts["sos.build_normal_equations.gram_flops"] += calls * gram_flops
                counts["sos.build_normal_equations.gram_bytes"] += calls * gram_bytes
                flops += gram_flops
                nbytes += gram_bytes
            counts["sos.build_normal_equations.flops"] += calls * flops
            counts["sos.build_normal_equations.bytes"] += calls * nbytes
        return counts


# Trial counts put one sweep repetition near 5 s on one core, so that a
# 50 s run holds nine or more fresh-process repetitions; predict keeps the
# CLI's default 200 draws.  predict-fig1 is not in BENCHMARK.json (see
# README.md): its wall time follows the host's speed phases too closely.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-identity", command="sweep", beta=(0.25, 1.0), sigma_n2=(0.5,),
            estimator="all", sos_mode="identity", trials=12,
        ),
        Workload(
            name="sweep-solve", command="sweep", beta=(0.25, 1.0), sigma_n2=(0.5,),
            estimator="subspace", sos_mode="solve", trials=10,
        ),
        Workload(
            name="predict-fig1", command="predict", beta=(0.25, 0.5, 0.75, 1.0),
            sigma_n2=(0.1, 0.5, 1.0, 2.0, 4.0), estimator="all",
        ),
    )
}
