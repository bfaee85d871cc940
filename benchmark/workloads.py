"""The benchmark's workloads: which CLI verifications one run makes.

A workload run is a closed loop of one client in one process: its commands
run one after another through ``fermigauss.cli.run``, and the next run
starts only when the previous one has written every report. Each run takes
its seed from the workload seed, and the number of runs depends only on
``--seconds``, so the same seed and seconds give the same inputs, the same
verifications and the same verdicts however fast the machine is.
"""

import random
from dataclasses import dataclass

#: Seed of the set-up calls. They measure start-up cost only, at sizes too
#: small for the Monte Carlo gate to mean anything, so their verdicts are not
#: checked; this seed makes none of them raise at the seed commit.
SETUP_SEED = 0

#: Fewest timed runs (or traced pairs) in one benchmark invocation.
MIN_RUNS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Argument lists of one run, without --seed and --out.
    commands: tuple[tuple[str, ...], ...]
    #: The first, smallest call of each command: what a fresh process pays
    #: before its first verdict (imports, per-mode caches, MCMC burn-in).
    setup: tuple[tuple[str, ...], ...]
    #: Seconds one run takes, unscaled and with its gauge readings, on the
    #: 2-vCPU Intel Xeon virtual machine the benchmark was built on, in the
    #: slow speed state it spends most of its time in. It sets how many runs
    #: fill ``--seconds``.
    run_s: float

    def runs(self, seconds: float, per_run: int = 1) -> int:
        """Number of runs (or of groups of ``per_run`` runs) that fill ``seconds``."""
        return max(MIN_RUNS, round(seconds / (per_run * self.run_s)))

    def run_seeds(self, seed: int):
        """Endless stream of per-run seeds drawn from the workload seed."""
        rng = random.Random(seed)
        while True:
            yield rng.randrange(2**31)

    @property
    def workers(self) -> int:
        counts = [int(c[c.index("--workers") + 1]) for c in self.commands if "--workers" in c]
        return max(counts, default=1)


MC_M6 = ("resolution", "--mode", "mc", "--modes", "6", "-p", "1", "--workers", "1")
NC_MODIFIED = ("number-conserving", "--variant", "modified", "--modes", "2", "-p", "1")
MC_M3_W2 = ("resolution", "--mode", "mc", "--modes", "3", "--workers", "2")
CANONICAL_W2 = ("canonical", "--modes", "2", "--workers", "2")
IDENTITIES = ("identities", "--modes", "3")
OTHER_CHECKS = (
    ("resolution", "--mode", "quad", "--modes", "2", "--weight", "determinant", "-p", "2"),
    ("resolution", "--mode", "quad", "--modes", "2", "--weight", "gaussian", "-p", "1"),
    ("number-conserving", "--variant", "failure"),
    ("selberg", "--consistency"),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_m6",
            "Monte Carlo resolution of unity at the 6-mode Fock cap: batch Fock assembly and the "
            "normalized-exponential kernel do nearly all the work",
            commands=(MC_M6 + ("--samples", "400"),),
            setup=(MC_M6 + ("--samples", "16"),),
            run_s=1.7,
        ),
        Workload(
            "nc_modified",
            "number-conserving modified weight at 2 modes: the Metropolis radial sampler dominates "
            "and class-D Fock assembly is bypassed",
            commands=(NC_MODIFIED + ("--samples", "25000"),),
            setup=(NC_MODIFIED + ("--samples", "16"),),
            run_s=1.55,
        ),
        Workload(
            "mc_small_w2",
            "3-mode Monte Carlo and 2-mode canonical sweep on 2 worker threads: the only thread "
            "fan-out and canonical rebuild, in the small-matrix regime",
            commands=(MC_M3_W2 + ("--samples", "200000"), CANONICAL_W2 + ("--samples", "200000")),
            setup=(MC_M3_W2 + ("--samples", "16"), CANONICAL_W2 + ("--samples", "16")),
            run_s=4.0,
        ),
        Workload(
            "checks",
            "identity suite, quadrature sweeps, even-weight failure and Selberg checks: one matrix "
            "at a time through the scalar paths, plus per-report cost",
            commands=(IDENTITIES,) + OTHER_CHECKS,
            setup=(IDENTITIES + ("--trials", "1"),) + OTHER_CHECKS,
            run_s=1.0,
        ),
    )
}
