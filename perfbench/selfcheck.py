"""Self-check of the benchmark's own reference code against hand-computed
values, and of BENCHMARK.json against the names the benchmark emits.

    python3 perfbench/selfcheck.py

Stdlib only; it does not import the package.  Exit code 0 when every check
holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import reference as ref
import tracing
import workloads

HERE = Path(__file__).resolve().parent
FAILURES = []


def check(ok: bool, what: str) -> None:
    if not ok:
        FAILURES.append(what)


def hook_content():
    # s_lam(1,1,1): s_1 = 3, s_2 = 6, s_11 = 3, s_21 = 8, s_111 = 1, s_22 = 6
    for lam, value in (((1,), 3), ((2,), 6), ((1, 1), 3), ((2, 1), 8), ((1, 1, 1), 1),
                       ((2, 2), 6), ((3, 1, 0), 15)):
        check(ref.schur_at_ones(lam, 3) == value, f"s_{lam}(1,1,1) != {value}")
    # s_21(1,1) = 2 and s_11(1,1) = 1: the GL(2) dimensions nu_1 - nu_2 + 1
    check(ref.schur_at_ones((2, 1), 2) == 2 and ref.schur_at_ones((1, 1), 2) == 1, "GL(2) dims")
    for lam, value in (((2, 1), 2), ((3, 2), 5), ((2, 2), 2), ((3, 1, 1), 6), ((4,), 1)):
        check(ref.dim_standard(lam) == value, f"dim {lam} != {value}")
    # c_21 = s_21(1,1,1) dim(21) / 3! = 8 * 2 / 6
    check(ref.schur_plancherel_coeff((2, 1, 0), 3) == F(8, 3), "c_21")
    check(ref.schur_plancherel_coeff((2, 0, 0), 3, F(1, 2)) == F(3, 4), "c_2 at a = 1/2")
    law = ref.schur_top_law(3, 1.0, 30)
    check(abs(sum(law.values()) - 1) < 1e-12, "top law mass")
    check(abs(law[(0, 0, 0)] - math.exp(-3)) < 1e-15, "P(empty top row) = e^-3")


def shell_sums():
    check(ref.shell_sum((1, 1, 1), 2) == F(9, 2), "(1+1+1)^2 / 2!")
    check(ref.shell_sum((F(1, 2), F(1, 3)), 3) == F(125, 1296), "(5/6)^3 / 3!")
    # the hook-content law satisfies the shell-sum identity shell by shell
    for size in range(7):
        total = sum(ref.schur_plancherel_coeff(lam, 3) for lam in ref.partitions(size, 3))
        check(total == ref.shell_sum((1, 1, 1), size), f"shell {size} of the Schur law")
    check(sorted(ref.partitions(4, 2)) == [(2, 2), (3, 1), (4, 0)], "partitions of 4 in 2 parts")


def poisson():
    check(abs(ref.poisson_pmf(1.0, 0) - 0.36787944117144233) < 1e-15, "Poisson(1) at 0")
    check(abs(ref.poisson_pmf(3.0, 2) - 4.5 * math.exp(-3)) < 1e-15, "Poisson(3) at 2")
    check(abs(sum(ref.poisson_pmf(18.0, m) for m in range(120)) - 1) < 1e-12, "Poisson(18) mass")
    # chi-square survival: the 5 % critical values of 1, 2 and 10 degrees of freedom
    for stat, dof in ((3.841458820694124, 1), (5.991464547107979, 2), (18.307038053275146, 10)):
        check(abs(ref.chi2_sf(stat, dof) - 0.05) < 1e-9, f"chi2 sf({stat}, {dof})")
    check(abs(ref.chi2_sf(2.0, 2) - math.exp(-1)) < 1e-12, "chi2 sf(2, 2) = e^-1")
    counts = {0: 30, 1: 40, 2: 30}
    stat, dof = ref.chi_square(counts, {0: 0.3, 1: 0.4, 2: 0.3}, 100)
    check(stat == 0 and dof == 2, "chi-square of an exact fit")
    check(abs(ref.tv_distance({0: 50, 1: 50}, {0: 0.3, 1: 0.7}, 100) - 0.2) < 1e-12, "TV distance")


def schensted():
    # 3 1 2: 3; 1 bumps 3; 2 joins row 1
    check(ref.schensted((3, 1, 2)) == (((1, 2), (3,)), ((1, 3), (2,))), "Schensted 312")
    # 1 2 1: the second 1 bumps the 2
    check(ref.schensted((1, 2, 1)) == (((1, 1), (2,)), ((1, 2), (3,))), "Schensted 121")
    check(ref.schensted((2, 2, 1, 1)) == (((1, 1), (2, 2)), ((1, 2), (3, 4))), "Schensted 2211")
    check(ref.schensted((4, 3, 2, 1)) == (((1,), (2,), (3,), (4,)), ((1,), (2,), (3,), (4,))),
          "Schensted 4321")
    check(ref.is_semistandard(((1, 1, 2), (2, 3)), 3), "semistandard")
    check(not ref.is_semistandard(((1, 2), (2, 1)), 3), "columns must increase")
    check(ref.is_standard(((1, 3), (2,)), 3) and not ref.is_standard(((1, 2), (2,)), 3), "standard")
    check(ref.parse_array("2;1,3") == ((2,), (3, 1)), "array text")
    check(ref.interlaces((2,), (3, 1)) and not ref.interlaces((4,), (3, 1)), "interlacing")


def benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer"]]
    check(names == tracing.per_layer_names(), "BENCHMARK.json per_layer != tracing.per_layer_names()")
    check(all(m["unit"] == tracing.unit_of(m["name"]) for m in bench["per_layer"]), "per_layer units")
    check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS), "workload names")
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    check(end_to_end == {"setup_s", "ops_per_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb"},
          "end_to_end names")


def main() -> int:
    for part in (hook_content, shell_sums, poisson, schensted, benchmark_json):
        part()
    for what in FAILURES:
        print(f"FAIL {what}")
    print("selfcheck:", "ok" if not FAILURES else f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
