"""The benchmark's workloads: which programs each one runs, under which CLI
settings, and the exit code each command must return.

Expected exit codes are known answers written here by hand from what the
repository's tests assert, never copied from a run of the code under test:

* the dgemm pipeline is always valid at every size (the dgemm regression in
  the acceptance tests, and the exact route up to M = 16), so every dgemm
  command exits 0 and its verification passes;
* in the corpus, the only non-zero exit is 06_interchange_blocker.loop under
  `--safety default` with `--verify`: the interchange is invalid, default
  mode applies it anyway, and verification reports the mismatch with exit 2
  (the CLI test of the invalid interchange under default safety).
"""

from __future__ import annotations

from dataclasses import dataclass

# The paper's blocked matrix-multiply pipeline at size M.
DGEMM = """param M = {m};
array C[{m},{m}] init random;
array A[{m},{m}] init random;
array B[{m},{m}] init random;

#pragma xform loop(i2) unrollingandjam factor(2)
#pragma xform loop(j2) unrollingandjam factor(4)
#pragma xform loop(i1,j1,k1,i2,j2) interchange permutation(j1,k1,i1,j2,i2)
#pragma xform loop(i,j,k) tile sizes(4,4,4) floor_ids(i1,j1,k1) tile_ids(i2,j2,k2) peel(rectangular)
for (i = 0; i < M; i += 1)
  for (j = 0; j < M; j += 1)
    for (k = 0; k < M; k += 1)
      C[i,j] += A[i,k] * B[k,j];
"""

# Every corpus program except 05_dgemm.loop, which dgemm-exact covers and
# which would take 95% of this workload's time.
CORPUS = (
    "01_stripmine12.loop", "02_stripemine12.loop", "03_tile2d.loop",
    "04_tile3d_heat.loop", "06_interchange_blocker.loop",
    "07_interchange_free.loop", "08_unroll_full4.loop",
    "09_unroll_partial7.loop", "10_peel_first3.loop", "11_peel_last2.loop",
    "12_peel_multiple4.loop", "13_collapse34.loop",
    "14_distribute_hmmer.loop", "15_distribute_valid.loop",
    "16_distribute_invalid.loop", "17_fuse_pair.loop",
    "18_fuse_invalid.loop", "19_reverse_free.loop", "20_reverse_dep.loop",
    "21_parallel_indep.loop", "22_parallel_reduction.loop",
    "23_rtc_alias.loop", "24_while_reverse.loop", "25_simd_a.loop",
    "26_simd_b.loop", "27_opaque_stencil.loop", "28_uaj2d.loop",
    "29_stride_chain.loop",
)

CORPUS_SETTINGS = {
    "default": ["--safety", "default"],
    "fallback": ["--safety", "fallback"],
    "force": ["--safety", "force"],
    "fallback-enum1": ["--safety", "fallback", "--max-enum", "1"],
}

# (program, setting) -> exit code of the verified command; every other
# command expects 0.
VERIFIED_EXIT = {("06_interchange_blocker.loop", "default"): 2}


@dataclass(frozen=True)
class Program:
    """One input program: its path, its text, and for a generated dgemm
    program its size M (0 for a corpus program)."""
    name: str
    text: str
    size: int = 0

    @property
    def pragmas(self) -> int:
        return sum(1 for line in self.text.splitlines()
                   if line.lstrip().startswith("#pragma xform"))


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json says why each was chosen."""
    name: str
    dgemm_sizes: tuple[int, ...]  # generated dgemm programs, or () for the corpus
    settings: dict[str, list[str]]
    verify_trials: int
    trace_on_verify: bool  # the verified command also passes --trace

    def expected_exit(self, program: str, setting: str, verified: bool) -> int:
        return VERIFIED_EXIT.get((program, setting), 0) if verified else 0


WORKLOADS = {
    w.name: w for w in (
        Workload("dgemm-exact", (8, 12, 16), {"fallback": ["--safety", "fallback"]}, 3, False),
        Workload("dgemm-large", (17, 24, 32), {"fallback": ["--safety", "fallback"]}, 3, True),
        Workload("corpus", (), CORPUS_SETTINGS, 20, False),
    )
}
