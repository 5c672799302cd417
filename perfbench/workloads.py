"""The four workloads.  Each builds its inputs from the seed, runs closed-loop
ops through the package's public API or its in-process CLI, and checks every
output against `reference` or against properties the method must have.

An op is (kind, prepare, run, check): `prepare` and `check` are untimed,
`run` is the timed call into the package.  Ops come in whole rounds of a
fixed make-up, so every run attempts the same mix whatever its length.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

import reference as ref

FAMILY_ALPHA = 1e-4  # false-alarm budget of all statistical tests of one run


class OpFailed(Exception):
    """The package refused an op (a nonzero CLI exit code)."""


@dataclass
class Op:
    kind: str
    run: Callable
    check: Callable
    prepare: Callable = lambda: None


def clear_package_caches() -> None:
    """Empty the package caches, as in a fresh process, where they exist."""
    for name in ("macdyn.simulator", "macdyn.macdonald"):
        clear = getattr(sys.modules.get(name), "clear_caches", None)
        if clear is not None:
            clear()


def _cli(argv) -> None:
    rc = sys.modules["macdyn.cli"].main(argv)
    if rc != 0:
        raise OpFailed(f"exit code {rc}: macdyn {' '.join(argv)}")


class Workload:
    name = ""

    def __init__(self, seed: int, outdir):
        self.seed = seed % 2**63  # a Philox key word
        self.outdir = outdir
        self.errors = 0
        self.messages: list[str] = []
        self.output_bytes = 0
        self.count = 0

    def fail(self, message: str) -> None:
        self.errors += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(message)
        return ok

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> list[Op]:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks over the whole run, after the timed loop."""

    def _poisson_test(self, label: str, counts: Counter, mean: float, alpha: float) -> None:
        n = sum(counts.values())
        probs = {m: ref.poisson_pmf(mean, m) for m in range(int(mean * 4 + 40))}
        stat, dof = ref.chi_square(counts, probs, n)
        p = ref.chi2_sf(stat, dof)
        self.expect(p > alpha, f"{label}: size law differs from Poisson({mean}): "
                               f"chi2={stat:.1f} dof={dof} p={p:.2e} n={n}")


# --- schur-ensemble -------------------------------------------------------------

SCHUR_DYNAMICS = (
    [("pb", None)]
    + [("rsk", h) for h in itertools.product((1,), (1, 2), (1, 2, 3))]
    + [("r", h) for h in itertools.product((1,), (1, 2))]
    + [("l", h) for h in itertools.product((1,), (1, 2))]
    + [("qrow", None)]
)


class SchurEnsemble(Workload):
    """run_ensemble batches at q = t = 0, N = 3, a = (1,1,1), tau = 1, warm."""

    name = "schur-ensemble"
    N = 3
    TAU = 1.0
    BATCH = 50
    WARM = 200
    LAW_CUTOFF = 24
    MIN_TOP_COUNT = 100  # tops seen fewer times are left out of the Gibbs test

    def setup(self):
        from macdyn import simulator as sim
        from macdyn.macdonald import MacParams

        self.sim = sim
        clear_package_caches()
        self.specs = [
            sim.DynamicsSpec(params=MacParams(0.0, 0.0), a=(1.0,) * self.N, depth=self.N,
                             recipe=recipe, h=h)
            for recipe, h in SCHUR_DYNAMICS
        ]
        for idx, spec in enumerate(self.specs):
            sim.run_ensemble(spec, self.TAU, self.WARM, seed=(self.seed, 2**62 + idx))
        self.top_law = ref.schur_top_law(self.N, self.TAU, self.LAW_CUTOFF)
        self.pairs = [Counter() for _ in SCHUR_DYNAMICS]
        self.sizes = [[Counter() for _ in range(self.N)] for _ in SCHUR_DYNAMICS]
        self.count = 0

    def round(self):
        ops = []
        for idx, spec in enumerate(self.specs):
            key = (self.seed, self.count)
            self.count += 1
            ops.append(Op(
                kind=spec.recipe,
                run=lambda spec=spec, key=key: self.sim.run_ensemble(
                    spec, self.TAU, self.BATCH, seed=key),
                check=lambda finals, idx=idx: self._check(idx, finals),
            ))
        return ops

    def _check(self, idx, finals):
        if not self.expect(len(finals) == self.BATCH, f"batch of {len(finals)} arrays"):
            return
        pairs, sizes = self.pairs[idx], self.sizes[idx]
        for arr in finals:
            rows = arr.levels
            ok = all(ref.interlaces(rows[k - 1], rows[k]) for k in range(1, self.N))
            if not self.expect(ok and min(rows[-1]) >= 0, f"bad final array {rows}"):
                continue
            pairs[(rows[-2], rows[-1])] += 1
            for k in range(self.N):
                sizes[k][sum(rows[k])] += 1

    def finish(self):
        tests = len(SCHUR_DYNAMICS) * (3 + self.N)
        alpha = FAMILY_ALPHA / tests
        for idx, (recipe, h) in enumerate(SCHUR_DYNAMICS):
            label = recipe + ("" if h is None else "".join(map(str, h)))
            tops = Counter()
            for (_, top), cnt in self.pairs[idx].items():
                tops[top] += cnt
            n = sum(tops.values())
            if not self.expect(n > 0, f"{label}: no samples"):
                continue
            tv = ref.tv_distance(tops, self.top_law, n)
            bound = ref.tv_bound(self.top_law, n, alpha)
            self.expect(tv <= bound, f"{label}: top-row TV {tv:.4f} > {bound:.4f} (n={n})")
            stat, dof = ref.chi_square(tops, self.top_law, n)
            p = ref.chi2_sf(stat, dof)
            self.expect(p > alpha, f"{label}: top-row chi2={stat:.1f} dof={dof} p={p:.2e}")
            self._gibbs_test(label, tops, self.pairs[idx], alpha)
            for k in range(self.N):
                self._poisson_test(f"{label} level {k + 1}", self.sizes[idx][k],
                                   (k + 1) * self.TAU, alpha)

    def _gibbs_test(self, label, tops, pairs, alpha):
        """Row 2 given row 3: weights s_nu(1,1) = nu_1 - nu_2 + 1 over the
        rows nu interlacing the top row."""
        stat = 0.0
        dof = 0
        for top, n in tops.items():
            if n < self.MIN_TOP_COUNT:
                continue
            nus = list(itertools.product(range(top[1], top[0] + 1), range(top[2], top[1] + 1)))
            weights = {nu: nu[0] - nu[1] + 1 for nu in nus}
            total = sum(weights.values())
            probs = {nu: w / total for nu, w in weights.items()}
            counts = {nu: pairs.get((nu, top), 0) for nu in nus}
            if len(probs) < 2:
                continue
            s, d = ref.chi_square(counts, probs, n)
            stat += s
            dof += d
        if dof:
            p = ref.chi2_sf(stat, dof)
            self.expect(p > alpha, f"{label}: row 2 given row 3 chi2={stat:.1f} dof={dof} p={p:.2e}")


# --- general-cli ----------------------------------------------------------------

CAUSES = {"short_push", "long_push", "pull", "donated"}


class GeneralCli(Workload):
    """In-process `macdyn simulate` at (q, t) = (0.5, 0.3), N = 6, tau = 3,
    event logs as JSONL, cold caches for every op."""

    name = "general-cli"
    N = 6
    TAU = 3.0
    DYNAMICS = ("pb", "qrow")
    SAMPLES = 1  # trajectories per op
    RERUN_EVERY = 25  # ops re-run with warm caches; the bytes must not change

    def setup(self):
        self.out = self.outdir / "general-cli.jsonl"
        self.rerun_out = self.outdir / "general-cli-rerun.jsonl"
        self.sizes = {dyn: [Counter() for _ in range(self.N)] for dyn in self.DYNAMICS}
        self.count = 0
        for dyn in self.DYNAMICS:  # first-call work of the CLI path, then cold again
            _cli(self._argv(dyn, 2**62, self.out))
        clear_package_caches()

    def _argv(self, dyn, seed, out):
        return [
            "simulate", "--dynamics", dyn, "--N", str(self.N), "--q", "0.5", "--t", "0.3",
            "--a", ",".join(["1"] * self.N), "--tau", "3", "--samples", str(self.SAMPLES),
            "--seed", str(seed), "--out", str(out),
        ]

    def round(self):
        ops = []
        for dyn in self.DYNAMICS:
            argv = self._argv(dyn, self.seed * 2**32 + self.count, self.out)
            rerun = self.count % self.RERUN_EVERY == 0
            self.count += 1
            ops.append(Op(
                kind=dyn,
                prepare=clear_package_caches,
                run=lambda argv=argv: _cli(argv),
                check=lambda _, dyn=dyn, argv=argv, rerun=rerun: self._check(dyn, argv, rerun),
            ))
        return ops

    def _check(self, dyn, argv, rerun):
        data = self.out.read_bytes()
        self.output_bytes += len(data)
        lines = data.decode().splitlines()
        if not self.expect(len(lines) == self.SAMPLES, f"{dyn}: {len(lines)} lines"):
            return
        for i, line in enumerate(lines):
            rec = json.loads(line)
            self.expect(rec["trajectory"] == i, f"{dyn}: trajectory index {rec['trajectory']}")
            final = ref.parse_array(rec["final"])
            if self._replay(dyn, rec["events"], final):
                for k in range(self.N):
                    self.sizes[dyn][k][sum(final[k])] += 1
        if rerun:
            _cli(argv[:-1] + [str(self.rerun_out)])
            self.expect(self.rerun_out.read_bytes() == data, f"{dyn}: re-run changed the output")

    def _replay(self, dyn, events, final) -> bool:
        """Replay the event log from the zero array; it must stay interlaced
        and end at the printed final array."""
        rows = [[0] * k for k in range(1, self.N + 1)]
        last = 0.0
        for ev in events:
            t = ev["time"]
            cascade = ev["cascade"]
            if not self.expect(last < t <= self.TAU, f"{dyn}: event time {t} after {last}"):
                return False
            last = t
            start = cascade[0]["level"] if cascade else 0
            ok = bool(cascade) and cascade[0]["cause"] == "jump"
            for step, move in enumerate(cascade):
                lvl, idx = move["level"], move["index"]
                ok = ok and lvl == start + step and 1 <= idx <= lvl
                ok = ok and (step == 0 or move["cause"] in CAUSES)
                if not ok:
                    break
                rows[lvl - 1][idx - 1] += 1
            ok = ok and all(ref.interlaces(rows[k - 1], rows[k]) for k in range(1, self.N))
            if not self.expect(ok, f"{dyn}: bad event {ev} on {rows}"):
                return False
        return self.expect(tuple(map(tuple, rows)) == final, f"{dyn}: replay {rows} != {final}")

    def finish(self):
        alpha = FAMILY_ALPHA / (len(self.DYNAMICS) * self.N)
        for dyn, per_level in self.sizes.items():
            for k in range(self.N):
                self._poisson_test(f"{dyn} level {k + 1}", per_level[k], (k + 1) * self.TAU, alpha)


# --- exact-oracles --------------------------------------------------------------

TRANSIENT_POINTS = (  # name, (q, t), cutoff
    ("general", (F(1, 2), F(1, 3)), 5),
    ("q-whittaker", (F(1, 2), F(0)), 5),
    ("schur", (F(0), F(0)), 7),
)
CLASSIFY_POINTS = (("1/2", "1/3"), ("1/2", "0"))
CLASSIFY_BASES = ("r-l-pb", "rsk-r", "rsk-l")
HONEST_AT_QW = ("pb", "rsk(1)", "r(1)")


class ExactOracles(Workload):
    """Exact rational work: in-process `macdyn classify` on seeded slices and
    `exact_transient` from empty caches, in a fixed seeded order.

    A round holds one classify op per (level, point, basis) and as many
    transient ops, eight per point; only the slices, the drift vectors and
    the order are drawn from the seed, so every run does the same mix."""

    name = "exact-oracles"
    LEVELS = (3, 4, 5, 6)
    COORD = 4
    TRANSIENT_LEVEL = 3

    def setup(self):
        from macdyn import oracle
        from macdyn.macdonald import MacParams

        self.oracle = oracle
        self.MacParams = MacParams
        self.out = self.outdir / "classify.json"
        rnd = random.Random(self.seed)
        classify = [("classify", spec) for spec in itertools.product(
            self.LEVELS, CLASSIFY_POINTS, CLASSIFY_BASES)]
        transient = [("transient", point) for point in TRANSIENT_POINTS] * (len(classify) // 3)
        self.pattern = classify + transient
        rnd.shuffle(self.pattern)
        self.rnd = random.Random(self.seed + 1)
        self.shapes = {  # every partition the transient table must cover
            cutoff: {lam for size in range(cutoff + 1)
                     for lam in ref.partitions(size, self.TRANSIENT_LEVEL)}
            for _, _, cutoff in TRANSIENT_POINTS
        }
        for op in (  # first-call work, on fixed inputs
            self._classify_op(3, ("1/2", "1/3"), "r-l-pb", lam=(5, 3, 0), nb=(4, 1)),
            self._transient_op(TRANSIENT_POINTS[0], a=(F(1),) * self.TRANSIENT_LEVEL),
        ):
            op.prepare()
            op.check(op.run())

    def round(self):
        return [self._classify_op(*spec) if kind == "classify" else self._transient_op(spec)
                for kind, spec in self.pattern]

    def _classify_op(self, k, point, basis, lam=None, nb=None):
        rnd = self.rnd
        if lam is None:
            lam = tuple(sorted((rnd.randint(-self.COORD, self.COORD) for _ in range(k)),
                               reverse=True))
            nb = tuple(rnd.randint(lam[j + 1], lam[j]) for j in range(k - 1))
        q, t = point
        argv = [
            "classify", "--nu-bar=" + ",".join(map(str, reversed(nb))),
            "--lam=" + ",".join(map(str, reversed(lam))),
            "--q", q, "--t", t, "--basis", basis, "--out", str(self.out),
        ]
        return Op(
            kind="classify",
            prepare=clear_package_caches,
            run=lambda: _cli(argv),
            check=lambda _: self._check_classify(nb, lam, t == "0", basis),
        )

    def _transient_op(self, point, a=None):
        name, (q, t), cutoff = point
        x = None
        if a is None and name == "schur":
            x = F(self.rnd.randint(1, 4), self.rnd.randint(1, 3))
            a = (x,) * self.TRANSIENT_LEVEL
        elif a is None:
            a = tuple(F(self.rnd.randint(1, 4), self.rnd.randint(1, 4))
                      for _ in range(self.TRANSIENT_LEVEL))
        params = self.MacParams(q, t)
        return Op(
            kind="transient",
            prepare=clear_package_caches,
            run=lambda: self.oracle.exact_transient(a, params, cutoff),
            check=lambda table: self._check_transient(table, a, cutoff, x),
        )

    def _check_classify(self, nb, lam, t_zero, basis):
        data = self.out.read_bytes()
        self.output_bytes += len(data)
        rec = json.loads(data)
        where = f"classify nu_bar={nb} lam={lam} t=0:{t_zero} {basis}"
        k = len(lam)
        free = [1] + [m for m in range(2, k + 1) if lam[m - 1] < nb[m - 2]]
        pushers = [m - 1 for m in free if m >= 2]
        ok = rec["nu_bar"] == list(reversed(nb)) and rec["lam"] == list(reversed(lam))
        if not self.expect(ok and rec["free_indices"] == free, f"{where}: header {rec}"):
            return
        T = {int(i): F(v) for i, v in rec["T"].items()}
        S = {int(j): F(v) for j, v in rec["S"].items()}
        ok = sorted(S) == list(range(1, k + 1)) and sorted(T) == list(range(1, k))
        ok = ok and all((S[j] != 0) == (j in free) for j in S)
        ok = ok and all((T[i] != 0) == (i + 1 in free) for i in T)
        if not self.expect(ok, f"{where}: T/S zero pattern {T} {S}"):
            return
        self.expect(1 + sum(T.values()) == sum(S.values()), f"{where}: 1 + sum T != sum S")
        names = {"pb"} | {f"rsk({h})" for h in range(1, k + 1)}
        names |= {f"{tag}({h})" for tag in ("r", "l") for h in range(1, k)}
        sols = rec["solutions"]
        if not self.expect(set(sols) == names, f"{where}: solutions {sorted(sols)}"):
            return
        parsed = {}
        for name, entry in sols.items():
            w = {int(m): F(v) for m, v in entry["w"].items()}
            c = {int(j): F(v) for j, v in entry["c"].items()}
            r = {int(j): F(v) for j, v in entry["r"].items()}
            parsed[name] = (w, c, r)
            if not self.expect(sorted(w) == free and sorted(c) == pushers == sorted(r),
                               f"{where}: {name} keys"):
                continue
            for pos, m in enumerate(free):
                lhs = w[m]
                if pos >= 1:
                    lhs += (c[m - 1] - r[m - 1]) * T[m - 1]
                if pos + 1 < len(free):
                    j = free[pos + 1] - 1
                    lhs += r[j] * T[j]
                self.expect(lhs == S[m], f"{where}: {name} equation at {m}: {lhs} != {S[m]}")
            honest = all(v >= 0 for v in w.values()) and all(
                0 <= r[j] <= c[j] <= 1 for j in c)
            self.expect(entry["honest"] is honest, f"{where}: {name} honest flag")
            if t_zero and name in HONEST_AT_QW:
                self.expect(honest, f"{where}: {name} dishonest at t = 0")
        for name, entry in sols.items():
            dec = entry["decomposition"]
            if "error" in dec:
                self.expect(basis != "r-l-pb" and len(free) < 3, f"{where}: {name}: {dec}")
                continue
            thetas = {kind: F(v) for kind, v in dec.items()}
            self.expect(sum(thetas.values()) == 1, f"{where}: {name} weights sum to {sum(thetas.values())}")
            for part in range(3):
                target = parsed[name][part]
                for key in target:
                    val = sum(th * parsed[kind][part][key] for kind, th in thetas.items())
                    self.expect(val == target[key], f"{where}: {name} does not recombine")

    def _check_transient(self, table, a, cutoff, x):
        where = f"transient a={a} cutoff={cutoff}"
        coeffs = table.coeffs
        if not self.expect(set(coeffs) == self.shapes[cutoff], f"{where}: states {sorted(coeffs)}"):
            return
        shells = defaultdict(F)
        for lam, c in coeffs.items():
            self.expect(isinstance(c, F) and c >= 0, f"{where}: c{lam} = {c}")
            shells[sum(lam)] += c
            if x is not None:
                self.expect(c == ref.schur_plancherel_coeff(lam, len(a), x),
                            f"{where}: c{lam} = {c} differs from the hook-content value")
        for size in range(cutoff + 1):
            self.expect(shells[size] == ref.shell_sum(a, size), f"{where}: shell {size}")


# --- insertion-roundtrip --------------------------------------------------------

H_VECTORS = list(itertools.product((1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)))
ROW_INSERTION = (1, 1, 1, 1)
WORDS3 = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
PAPER_TABLES = {  # f_h images of WORDS3, as published
    (1, 1, 2): [(1, 3, 2), (3, 1, 2), (2, 1, 3), (3, 2, 1), (1, 2, 3), (2, 3, 1)],
    (1, 2, 3): [(3, 2, 1), (2, 1, 3), (1, 3, 2), (3, 1, 2), (2, 3, 1), (1, 2, 3)],
}


class InsertionRoundtrip(Workload):
    """h_rs_forward then h_rs_inverse on seeded words of length 8 over {1..4},
    h cycling through all 24 h-vectors of N = 4."""

    name = "insertion-roundtrip"
    N = 4
    LENGTH = 8
    POOL_ROUNDS = 100

    def setup(self):
        from macdyn import insertions

        self.ins = insertions
        rnd = random.Random(self.seed)
        self.words = [
            tuple(rnd.randint(1, self.N) for _ in range(self.LENGTH))
            for _ in range(self.POOL_ROUNDS * len(H_VECTORS))
        ]
        j = H_VECTORS.index(ROW_INSERTION)
        self.schensted = {
            w: ref.schensted(w) for w in self.words[j::len(H_VECTORS)]
        }
        self.count = 0

    def round(self):
        base = (self.count // len(H_VECTORS)) % self.POOL_ROUNDS * len(H_VECTORS)
        ops = []
        for j, h in enumerate(H_VECTORS):
            word = self.words[base + j]
            self.count += 1
            ops.append(Op(
                kind="h-rs",
                run=lambda word=word, h=h: self._roundtrip(word, h),
                check=lambda out, word=word, h=h: self._check(word, h, *out),
            ))
        return ops

    def _roundtrip(self, word, h):
        pair = self.ins.h_rs_forward(word, h)
        return pair, self.ins.h_rs_inverse(pair, h)

    def _check(self, word, h, pair, back):
        where = f"h={h} word={word}"
        self.expect(back == word, f"{where}: inverse gave {back}")
        p, q = pair.p_rows, pair.q_rows
        self.expect(ref.is_semistandard(p, self.N), f"{where}: P={p} not semistandard")
        self.expect(ref.is_standard(q, self.LENGTH), f"{where}: Q={q} not standard")
        self.expect([len(r) for r in p] == [len(r) for r in q], f"{where}: shapes differ")
        self.expect(Counter(x for row in p for x in row) == Counter(word), f"{where}: P content")
        if h == ROW_INSERTION:
            self.expect((p, q) == self.schensted[word], f"{where}: differs from Schensted")

    def finish(self):
        for h, images in PAPER_TABLES.items():
            got = [self.ins.f_h(w, h) for w in WORDS3]
            self.expect(got == images, f"f_h table for h={h}: {got}")


WORKLOADS = {
    cls.name: cls for cls in (SchurEnsemble, GeneralCli, ExactOracles, InsertionRoundtrip)
}
