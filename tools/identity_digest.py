"""One SHA-256 over the package's outputs on a fixed grid, to show that two
source trees compute the same results: exact values equal, floats
bit-identical, the same exceptions raised.

    python tools/identity_digest.py [--src DIR] [--dump FILE]

It imports `macdyn` from DIR (default: `src/` beside this directory), so the
same script can digest any checkout.  The grid:

- every slice at levels 2-5 with coordinates in [0, 4] ([0, 3] at level 5),
  at the float points (0, 0), (1/2, 0.3), (1/2, 0), (1/4, 3/4) and the exact
  points (1/2, 1/3), (1/2, 0), (1/3, 1/9): S_j and T_i at every index, every
  fundamental solution, its `check_system` result, `solve_r` on its (w, c)
  and its `decompose` result on every basis;
- the same lines for 150 seeded slices per level at levels 6 and 7 with
  coordinates in [0, 12], at the float points (1/2, 0.3) and (1/4, 1/2)
  (where q = t^2): the deep slices with large coordinates that a
  general-point simulation visits;
- fixed-seed `simulate` event logs for pb, qrow, rsk, det-insertion, a
  constant-weight mixing, a mixing whose weights depend on the slice and
  (at the t = 0 points) oconnell-pei, at N = 4 and five parameter points,
  two of them exact, hashed three times: on fresh specs, whose tables
  start empty, again on the same specs with the tables the first pass
  filled, and again on newly built specs;
- the final arrays of a 300-trajectory `run_ensemble` for every spec of the
  simulate grid, hashed on newly built specs and again on the same specs
  with the tables the first pass filled;
- `macdyn classify` and `macdyn simulate` output bytes for a few inputs,
  one of them with `--no-events` from a non-zero initial array;
- the exact oracles: `exact_transient` coefficients for three drift vectors
  at every point of the slice grid (Fraction drifts at the exact points,
  float drifts at the float ones), `gibbs_check` on a fixed list of
  (second-top row, top row) pairs at three points, and an `identity_suite`
  report with small bounds;
- `macdyn verify --suite transient` and `--suite gibbs` report bytes and
  exit codes at a fixed seed;
- `skew_P` and `skew_Q` at the exact points for every lam with |lam| <= 4
  and every partition mu below it, with mu's columns padded to len(lam)
  and unpadded, on 0-3 fixed rational variables;
- `enumerate_arrays` for every top with |lam| <= 4, with and without a
  trailing zero, at depths 0-4: every array in order, or the exception;
- the h-RS correspondence: `h_rs_forward` pairs under every h-vector on
  every word of length <= 5 over {1, 2, 3} and <= 4 over {1..4}, plus 100
  seeded length-8 words over {1..4}; `h_rs_inverse` of each pair (under
  every h-vector at N = 3; under its own, row and column insertion at
  N = 4); a few malformed pairs; `f_h_table(3)`,
  `f_h_table(4)` and `group_order(4)`; and `macdyn rsk` output bytes
  (forward, `--inverse`, `--f-map`, `--table --N 3`).

`--dump` writes every hashed line, for diffing two trees whose digests
differ.  This script is not part of the test suite; it runs in well under
a minute on one core.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

FLOAT_POINTS = ((0.0, 0.0), (0.5, 0.3), (0.5, 0.0), (0.25, 0.75))
EXACT_POINTS = ((F(1, 2), F(1, 3)), (F(1, 2), F(0)), (F(1, 3), F(1, 9)))
LEVELS = {2: 4, 3: 4, 4: 4, 5: 3}  # level -> largest coordinate
SEEDED_POINTS = ((0.5, 0.3), (0.25, 0.5))
SEEDED_LEVELS = (6, 7)
SEEDED_SLICES = 150  # per point and level
SEEDED_COORD = 12
SIM_POINTS = ((0.0, 0.0), (0.5, 0.0), (0.5, 0.3), (F(1, 2), F(1, 3)), (F(1, 3), F(0)))
SIM_DEPTH = 4
SIM_SEEDS = range(4)
ENSEMBLE_SAMPLES = 300
ENSEMBLE_SEED = 7
TRANSIENT_DRIFTS = ((1, 1), (1, F(1, 2), 2), (1, 2, F(1, 3)))
TRANSIENT_CUTOFF = 6
GIBBS_POINTS = ((0.0, 0.0), (F(1, 2), F(1, 3)), (0.5, 0.0))
GIBBS_DRIFTS = (F(1), F(1, 2), F(2))
GIBBS_TOPS = ((1, 0, 0), (2, 0, 0), (1, 1, 0), (3, 1, 0), (2, 1, 1), (4, 2, 0), (3, 3, 1))
SKEW_SIZE = 4  # largest |lam| of the skew and enumeration grids
SKEW_XS = (F(1, 2), F(3, 7), F(5, 3))
ARRAY_DEPTHS = range(5)


def enc(value) -> str:
    """Exact text of a value: Fractions as p/q, floats by their bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(enc(v) for v in value) + ")"
    return f"{type(value).__name__}:{value}"


def attempt(fn, *args):
    """fn(*args), or the name of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the exception type is part of the output
        return f"raises {type(exc).__name__}"


def one_slice_lines(cl, point, params, nb, lam):
    k = len(lam)
    kinds = [cl.pb()] + [cl.rsk(h) for h in range(1, k + 1)]
    kinds += [make(h) for make in (cl.right_push, cl.left_pull) for h in range(1, k)]
    ctx = cl.SliceContext(nb, lam, params)
    head = f"{enc(point)} {nb} {lam}"
    yield head + " S " + enc([attempt(cl.S_quant, ctx, j) for j in range(1, k + 1)])
    yield head + " T " + enc([attempt(cl.T_quant, ctx, i) for i in range(1, k + 1)])
    for kind in kinds:
        sol = attempt(cl.fundamental, kind, ctx)
        if isinstance(sol, str):
            yield f"{head} {kind} {sol}"
            continue
        yield f"{head} {kind} sol {enc(sol.as_rows())}"
        yield f"{head} {kind} check {enc(attempt(cl.check_system, ctx, sol))}"
        solved = attempt(cl.solve_r, ctx, sol.w, sol.c)
        yield f"{head} {kind} solve_r " + (
            solved if isinstance(solved, str) else enc(sorted(solved.r.items())))
        for basis in cl.BASES:
            dec = attempt(cl.decompose, ctx, sol, basis)
            if not isinstance(dec, str):
                dec = enc(sorted((str(kk), v) for kk, v in dec.items()))
            yield f"{head} {kind} {basis} {dec}"


def slice_lines(cl, MacParams):
    for point in FLOAT_POINTS + EXACT_POINTS:
        params = MacParams(*point)
        for k, top in LEVELS.items():
            for nb, lam in cl.iter_slices(k, top):
                yield from one_slice_lines(cl, point, params, nb, lam)


def seeded_slice_lines(cl, MacParams):
    """The slice lines of seeded deep slices with large coordinates, as a
    general-point simulation visits them, beyond the grid's reach."""
    for point in SEEDED_POINTS:
        params = MacParams(*point)
        rnd = random.Random(f"{point}")
        for k in SEEDED_LEVELS:
            for _ in range(SEEDED_SLICES):
                lam = tuple(sorted((rnd.randint(0, SEEDED_COORD) for _ in range(k)),
                                   reverse=True))
                nb = tuple(rnd.randint(lam[j + 1], lam[j]) for j in range(k - 1))
                yield from one_slice_lines(cl, point, params, nb, lam)


def parity_weights(k, nu_bar, lam):
    """Mixing weights that depend on the slice: on the parity of |lam|."""
    return (0.25, 0.75) if sum(lam) % 2 == 0 else (0.6, 0.4)


def simulate_specs(sim, MacParams):
    """[(point, name, spec)] of the simulate grid, as newly built specs."""
    n = SIM_DEPTH
    out = []
    for point in SIM_POINTS:
        params = MacParams(*point)
        a = tuple(1.0 + 0.25 * i for i in range(n))

        def spec(recipe, **kw):
            return sim.DynamicsSpec(params=params, a=a, depth=n, recipe=recipe, **kw)

        specs = {
            "pb": spec("pb"),
            "qrow": spec("qrow"),
            "rsk": spec("rsk", h=(1, 2, 1, 3)),
            "det-insertion": spec("det-insertion", h=(1, 1, 2, 4)),
            "mixing": spec("mixing", components=(spec("pb"), spec("rsk", h=(1, 1, 1, 1))),
                           weights=(0.5, 0.5)),
            "mixing-callable": spec("mixing",
                                    components=(spec("pb"), spec("rsk", h=(1, 1, 1, 1))),
                                    weights=parity_weights),
        }
        if params.t == 0:
            specs["oconnell-pei"] = spec("oconnell-pei")
        out += [(point, name, dyn) for name, dyn in specs.items()]
    return out


def simulate_lines(sim, specs):
    for point, name, dyn in specs:
        for seed in SIM_SEEDS:
            out = attempt(sim.simulate, dyn, 2.0, seed)
            if isinstance(out, str):
                yield f"{enc(point)} {name} {seed} {out}"
                continue
            final, events = out
            log = ";".join(f"{ev.time.hex()}{ev.cascade}" for ev in events)
            yield f"{enc(point)} {name} {seed} {final.to_text()} {log}"


def ensemble_lines(sim, specs):
    for point, name, dyn in specs:
        out = attempt(sim.run_ensemble, dyn, 2.0, ENSEMBLE_SAMPLES, ENSEMBLE_SEED)
        if not isinstance(out, str):
            out = ";".join(final.to_text() for final in out)
        yield f"{enc(point)} {name} {out}"


CLI_RUNS = (
    ["classify", "--nu-bar", "1,4", "--lam", "0,3,5", "--q", "1/2", "--t", "1/3",
     "--basis", "r-l-pb"],
    ["classify", "--nu-bar", "1,2,4", "--lam", "0,2,3,5", "--q", "1/2", "--t", "1/3",
     "--basis", "rsk-r"],
    ["classify", "--nu-bar", "1,2,4", "--lam", "0,2,3,5", "--q", "0.5", "--t", "0.3",
     "--basis", "rsk-l"],
    ["classify", "--nu-bar", "0,1,3,3", "--lam", "0,1,2,3,4", "--q", "1/3", "--t", "1/9",
     "--basis", "const-c"],
    ["classify", "--nu-bar", "1,1,2,4,4", "--lam", "0,1,2,3,4,5", "--q", "1/2", "--t", "0",
     "--basis", "rsk-r"],
    ["simulate", "--dynamics", "pb", "--N", "5", "--q", "0.5", "--t", "0.3",
     "--a", "1,1.5,1,2,1", "--tau", "2", "--samples", "4", "--seed", "11"],
    ["simulate", "--dynamics", "qrow", "--N", "5", "--q", "0.5", "--t", "0.3",
     "--a", "1,1.5,1,2,1", "--tau", "2", "--samples", "4", "--seed", "11"],
    ["simulate", "--dynamics", "rsk", "--h", "1,2,1,3", "--N", "4", "--q", "0",
     "--t", "0", "--a", "1,1,1,1", "--tau", "2", "--samples", "4", "--seed", "11"],
    ["simulate", "--dynamics", "oconnell-pei", "--N", "5", "--q", "0.5", "--t", "0",
     "--a", "1,1.5,1,2,1", "--tau", "2", "--samples", "4", "--seed", "11"],
    ["simulate", "--dynamics", "pb", "--N", "4", "--q", "0.5", "--t", "0.3",
     "--a", "1,1.5,1,2", "--tau", "2", "--samples", "6", "--seed", "11",
     "--initial", "1;0,2;0,1,3;-1,0,2,3", "--no-events"],
)


def cli_lines(cli):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for argv in CLI_RUNS:
            code = cli.main(argv + ["--out", str(out)])
            data = out.read_bytes() if out.exists() else b""
            out.unlink(missing_ok=True)
            yield f"{' '.join(argv)} exit {code} sha256 {hashlib.sha256(data).hexdigest()}"


VERIFY_RUNS = (
    ["verify", "--suite", "transient", "--samples", "2000", "--seed", "3"],
    ["verify", "--suite", "gibbs", "--samples", "4000", "--seed", "5"],
)


def oracle_lines(orc, arrays, MacParams):
    for point in FLOAT_POINTS + EXACT_POINTS:
        params = MacParams(*point)
        cast = float if isinstance(point[0], float) else F
        for drift in TRANSIENT_DRIFTS:
            a = tuple(cast(v) for v in drift)
            table = attempt(orc.exact_transient, a, params, TRANSIENT_CUTOFF)
            if not isinstance(table, str):
                table = enc(sorted(table.coeffs.items()))
            yield f"{enc(point)} transient {enc(a)} {table}"
    pairs = []
    for i, lam in enumerate(GIBBS_TOPS):
        for j, nb in enumerate(arrays.interlacing_predecessors(lam)):
            pairs += [(nb, lam)] * (60 + (7 * i + 13 * j) % 90)
    for point in GIBBS_POINTS:
        params = MacParams(*point)
        stats = attempt(orc.gibbs_check, pairs, GIBBS_DRIFTS, params)
        if not isinstance(stats, str):
            stats = enc(sorted(stats.items()))
        yield f"{enc(point)} gibbs {stats}"
    bounds = orc.SuiteBounds(max_level=3, max_coord=5, samples_per_level=5, exhaustive_coord=2)
    report = orc.identity_suite(bounds=bounds).to_json_dict()
    yield "identity_suite " + json.dumps(report, sort_keys=True, default=str)


def verify_lines(cli):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report"
        for argv in VERIFY_RUNS:
            code = cli.main(argv + ["--report", str(out)])
            data = out.read_bytes() if out.exists() else b""
            out.unlink(missing_ok=True)
            yield f"{' '.join(argv)} exit {code} sha256 {hashlib.sha256(data).hexdigest()}"


def partitions(size):
    """Every partition with at most size boxes, without trailing zeros."""
    out = [()]
    for lam in out:  # grows while it is read
        last = lam[-1] if lam else size
        out += [lam + (part,) for part in range(1, min(last, size - sum(lam)) + 1)]
    return out


def skew_lines(md, MacParams):
    for point in EXACT_POINTS:
        params = MacParams(*point)
        for lam in partitions(SKEW_SIZE):
            for mu in itertools.product(*(range(c + 1) for c in lam)):
                if any(a < b for a, b in zip(mu, mu[1:])):
                    continue  # not a partition
                for mu_c in (mu, tuple(c for c in mu if c)):
                    for m in range(len(SKEW_XS) + 1):
                        for skew in (md.skew_P, md.skew_Q):
                            value = attempt(skew, lam, mu_c, SKEW_XS[:m], params)
                            yield f"{enc(point)} {skew.__name__} {lam} {mu_c} {m} {enc(value)}"


def array_lines(arrays):
    for lam in partitions(SKEW_SIZE):
        for top in (lam, lam + (0,)):
            for depth in ARRAY_DEPTHS:
                out = attempt(lambda: " ".join(
                    arr.to_text() for arr in arrays.enumerate_arrays(top, depth)))
                yield f"enumerate {top} {depth} {out}"


HRS_SEEDED = 100  # seeded length-8 words over {1..4}
HRS_MALFORMED = (
    (((1, 4),), ((1, 2),), (1, 2, 3)),
    (((2, 1),), ((1, 2),), (1, 2)),
    (((1, 2, 1),), ((1, 2, 3),), (1, 2)),
    (((1, 2), (1,)), ((1, 2), (3,)), (1, 2, 3)),
    (((1,), (2,), (2,)), ((1,), (2,), (3,)), (1, 2)),
    (((1,), (2, 3)), ((1,), (2, 3)), (1, 2, 3)),
    (((1, 3),), ((1, 2),), (1, 2)),
)
RSK_RUNS = (
    ["rsk", "--word", "3241", "--h", "1,2,1,3"],
    ["rsk", "--word", "112332", "--h", "1,2,3"],
    ["rsk", "--inverse", "--p", "1,1,2;2,3", "--q-tab", "1,3,5;2,4", "--h", "1,2,2"],
    ["rsk", "--inverse", "--p", "1,3", "--q-tab", "1,2", "--h", "1,2"],
    ["rsk", "--word", "2413", "--h", "1,1,2,4", "--f-map"],
    ["rsk", "--table", "--N", "3"],
)


def hrs_lines(ins, cli):
    rnd = random.Random(4)
    grids = {
        3: [w for n in range(6) for w in itertools.product((1, 2, 3), repeat=n)],
        4: [w for n in range(5) for w in itertools.product((1, 2, 3, 4), repeat=n)]
        + [tuple(rnd.choices((1, 2, 3, 4), k=8)) for _ in range(HRS_SEEDED)],
    }
    for n, grid in grids.items():
        hs = list(itertools.product(*(range(1, k + 1) for k in range(1, n + 1))))
        for h in hs:
            # unwind each pair under every h-vector at N = 3, and under h, row
            # and column insertion at N = 4
            inverses = hs if n == 3 else [h, hs[0], hs[-1]]
            for word in grid:
                pair = ins.h_rs_forward(word, h)
                back = [attempt(ins.h_rs_inverse, pair, g) for g in inverses]
                yield f"{h} {word} {pair.p_rows} {pair.q_rows} {back}"
    for p, q, h in HRS_MALFORMED:
        yield f"malformed {p} {q} {h} {attempt(ins.h_rs_inverse, ins.TableauPair(p, q), h)}"
    for n in (3, 4):
        yield f"f_h_table({n}) {sorted(ins.f_h_table(n).items())}"
    yield f"group_order(4) {ins.group_order(4)}"
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
        out = Path(tmp) / "out"
        for argv in RSK_RUNS:  # one is refused; its error line is not hashed
            code = cli.main(argv + ["--out", str(out)])
            data = out.read_bytes() if out.exists() else b""
            out.unlink(missing_ok=True)
            yield f"{' '.join(argv)} exit {code} sha256 {hashlib.sha256(data).hexdigest()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--dump", type=Path, help="write every hashed line to this file")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from macdyn import arrays
    from macdyn import classifier as cl
    from macdyn import cli
    from macdyn import insertions as ins
    from macdyn import macdonald as md
    from macdyn import oracle as orc
    from macdyn import simulator as sim
    from macdyn.macdonald import MacParams

    digest = hashlib.sha256()
    counts = {}
    dump = args.dump.open("w", encoding="utf-8") if args.dump else None
    specs = simulate_specs(sim, MacParams)
    ensemble_specs = simulate_specs(sim, MacParams)
    for part, lines in (
        ("slices", slice_lines(cl, MacParams)),
        ("seeded-slices", seeded_slice_lines(cl, MacParams)),
        ("simulate", simulate_lines(sim, specs)),
        ("simulate-warm", simulate_lines(sim, specs)),
        ("simulate-fresh", simulate_lines(sim, simulate_specs(sim, MacParams))),
        ("ensemble", ensemble_lines(sim, ensemble_specs)),
        ("ensemble-warm", ensemble_lines(sim, ensemble_specs)),
        ("cli", cli_lines(cli)),
        ("oracles", oracle_lines(orc, arrays, MacParams)),
        ("verify", verify_lines(cli)),
        ("skew", skew_lines(md, MacParams)),
        ("arrays", array_lines(arrays)),
        ("h-rs", hrs_lines(ins, cli)),
    ):
        for line in lines:
            digest.update(line.encode() + b"\n")
            counts[part] = counts.get(part, 0) + 1
            if dump:
                dump.write(line + "\n")
    if dump:
        dump.close()
    print(" ".join(f"{part}={n}" for part, n in counts.items()), digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
