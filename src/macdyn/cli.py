"""Command-line front end: simulate, classify, rsk, group, verify.

All randomness derives from --seed; identical invocations produce byte-identical
output.  Exit codes: 0 success, 1 validation error, 2 invariant or verification
failure or a computation refused by its size limit (reported as "refused: ...").
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from fractions import Fraction
from functools import cache

from . import classifier as cl
from . import insertions as ins
from . import oracle as orc
from . import simulator as sim
from .arrays import InterlacingArray
from .errors import Infeasible, InvalidInput, InvariantViolation, ResourceLimit
from .macdonald import MacParams, SCHUR


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as "-2,3" (a signature with a negative coordinate) is a
        # value, not an option: argparse only knows lone negative numbers
        self._negative_number_matcher = re.compile(r"^-\d*\.\d+$|^-\d[\d,;-]*$")

    def error(self, message):
        raise _CliError(message)


def _scalar(text: str):
    """Parse '1/2' as an exact rational, anything else as a float (ints stay exact)."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    if text.lstrip("+-").isdigit():
        return Fraction(int(text))
    return float(text)


def _scalar_list(text: str):
    return tuple(_scalar(tok) for tok in text.split(",") if tok.strip())

def _int_list(text: str):
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _signature_arg(text: str) -> tuple[int, ...]:
    """Signatures on the command line list coordinates left to right
    (increasing), matching the canonical array text form."""
    coords = _int_list(text)
    return tuple(reversed(coords))


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def build_parser() -> _Parser:
    parser = _Parser(prog="macdyn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run trajectories of a multivariate dynamics")
    p_sim.add_argument("--dynamics", required=True, choices=sim.RECIPES)
    p_sim.add_argument("--N", type=int, required=True)
    p_sim.add_argument("--q", type=_scalar, default=0)
    p_sim.add_argument("--t", type=_scalar, default=0)
    p_sim.add_argument("--a", type=_scalar_list, required=True)
    p_sim.add_argument("--h", type=_int_list, default=None)
    p_sim.add_argument("--tau", type=float, required=True)
    p_sim.add_argument("--samples", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--initial", default=None, help="canonical array text; default all zeros")
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--no-events", action="store_true")

    p_cls = sub.add_parser("classify", help="slice solutions and decompositions")
    p_cls.add_argument("--nu-bar", required=True, help="lower row, increasing coordinates")
    p_cls.add_argument("--lam", required=True, help="upper row, increasing coordinates")
    p_cls.add_argument("--q", type=_scalar, required=True)
    p_cls.add_argument("--t", type=_scalar, required=True)
    p_cls.add_argument("--basis", choices=cl.BASES, default=None)
    p_cls.add_argument("--out", default=None)

    p_rsk = sub.add_parser("rsk", help="insertion correspondences on words")
    p_rsk.add_argument("--word", type=_digits, default=None)
    p_rsk.add_argument("--h", type=_int_list, default=None)
    p_rsk.add_argument("--f-map", action="store_true")
    p_rsk.add_argument("--inverse", action="store_true")
    p_rsk.add_argument("--p", type=_parse_rows, default=None, help="P rows, e.g. '1,1;2'")
    p_rsk.add_argument("--q-tab", type=_parse_rows, default=None, help="Q rows, e.g. '1,2;3'")
    p_rsk.add_argument("--table", action="store_true", help="CSV of all f_h images")
    p_rsk.add_argument("--N", type=int, default=None)
    p_rsk.add_argument("--out", default=None)

    p_grp = sub.add_parser("group", help="order of the group generated by the f_h maps")
    p_grp.add_argument("--N", type=int, required=True)
    p_grp.add_argument("--limit", type=int, default=4)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument(
        "--suite",
        required=True,
        choices=("identities", "transient", "tasep-marginal", "gibbs", "positivity"),
    )
    p_ver.add_argument("--samples", type=int, default=20000)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--report", default=None)
    p_ver.add_argument("--quick", action="store_true")
    return parser


@cache
def _parser() -> _Parser:
    """The parser main uses, built on first use and kept for the process."""
    return build_parser()


def _write(lines, path):
    text = "\n".join(lines) + ("\n" if lines else "")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _default_seed(args_seed):
    if args_seed is not None:
        return args_seed
    env = os.environ.get("MACDYN_SEED")
    return int(env) if env else 0


def _cmd_simulate(args) -> int:
    params = MacParams(float(args.q), float(args.t))
    a = tuple(float(v) for v in args.a)
    spec = sim.DynamicsSpec(
        params=params, a=a, depth=args.N, recipe=args.dynamics, h=args.h
    )
    initial = InterlacingArray.from_text(args.initial) if args.initial else None
    seed = _default_seed(args.seed)
    log = not args.no_events
    lines = []
    for i, rng in enumerate(sim.trajectory_rngs(seed, args.samples)):
        final, events = sim.simulate(spec, args.tau, initial=initial, rng=rng, log_events=log)
        record = {"trajectory": i, "final": final.to_text()}
        if log:
            record["events"] = [ev.to_json_dict() for ev in events]
        lines.append(_json_line(record))
    _write(lines, args.out)
    return 0


def _solution_json(sol: cl.SliceSolution) -> dict:
    return {
        "w": {str(m): _fmt(v) for m, v in sorted(sol.w.items())},
        "c": {str(j): _fmt(v) for j, v in sorted(sol.c.items())},
        "r": {str(j): _fmt(v) for j, v in sorted(sol.r.items())},
    }


def _cmd_classify(args) -> int:
    params = MacParams(args.q, args.t)
    ctx = cl.SliceContext(_signature_arg(args.nu_bar), _signature_arg(args.lam), params)
    k = ctx.k
    record = {
        "nu_bar": list(reversed(ctx.nu_bar)),
        "lam": list(reversed(ctx.lam)),
        "free_indices": list(ctx.free),
        "T": {str(i): _fmt(ctx.T[i - 1]) for i in range(1, k)},
        "S": {str(j): _fmt(ctx.S[j - 1]) for j in range(1, k + 1)},
        "solutions": {},
    }
    for kind in cl.fundamental_kinds(k):
        sol = cl.fundamental(kind, ctx)
        entry = _solution_json(sol)
        entry["honest"] = sol.is_honest()
        if args.basis:
            try:
                thetas = cl.decompose(ctx, sol, args.basis)
                entry["decomposition"] = {str(kk): _fmt(v) for kk, v in sorted(
                    thetas.items(), key=lambda kv: str(kv[0])
                )}
            except (cl.UnsupportedBasis, Infeasible) as exc:
                entry["decomposition"] = {"error": str(exc)}
        record["solutions"][str(kind)] = entry
    _write([_json_line(record)], args.out)
    return 0


def _parse_rows(text: str):
    return tuple(_int_list(chunk) for chunk in text.split(";"))


def _digits(text: str):
    return tuple(int(ch) for ch in text)


def _cmd_rsk(args) -> int:
    if args.table:
        if args.N is None or args.N < 1:
            raise _CliError("--table needs --N >= 1")
        words = ins.permutation_words(args.N)
        table = ins.f_h_table(args.N)
        lines = ["word," + ",".join("h=" + "".join(map(str, h)) for h in table)]
        for i, w in enumerate(words):
            images = [table[h][i] for h in table]
            lines.append(
                "".join(map(str, w)) + "," + ",".join("".join(map(str, im)) for im in images)
            )
        _write(lines, args.out)
        return 0
    if args.inverse:
        if not (args.p and args.q_tab and args.h):
            raise _CliError("--inverse needs --p, --q-tab, and --h")
        pair = ins.TableauPair(args.p, args.q_tab)
        word = ins.h_rs_inverse(pair, args.h)
        _write(["".join(map(str, word))], args.out)
        return 0
    if args.word is None or args.h is None:
        raise _CliError("rsk needs --word and --h (or --table/--inverse)")
    if args.f_map:
        image = ins.f_h(args.word, args.h)
        _write([" ".join(map(str, image))], args.out)
        return 0
    pair = ins.h_rs_forward(args.word, args.h)
    record = {
        "P": [list(r) for r in pair.p_rows],
        "Q": [list(r) for r in pair.q_rows],
        "shape": list(pair.shape),
    }
    _write([_json_line(record)], args.out)
    return 0


def _cmd_group(args) -> int:
    order = ins.group_order(args.N, limit=args.limit)
    _write([str(order)], None)
    return 0


def _cmd_verify(args) -> int:
    seed = _default_seed(args.seed)
    suite = args.suite
    report: dict = {"suite": suite}
    ok = True
    if suite == "identities":
        bounds = orc.SuiteBounds(samples_per_level=20 if args.quick else 60)
        rep = orc.identity_suite(bounds=bounds)
        report.update(rep.to_json_dict())
        ok = rep.ok
    elif suite == "positivity":
        q = Fraction(1, 2)
        max_level, coord = (3, 6) if args.quick else (4, 10)
        scan = cl.positivity_scan(MacParams(q, 0), max_level, coord)
        clean = {name for name, _ in scan.clean_kinds()}
        expected_clean = {"pb", "rsk(1)", "r(1)"}
        ok = clean == expected_clean
        schur_scan = cl.positivity_scan(MacParams(q, q), max_level, coord)
        ok = ok and not schur_scan.violating_kinds()
        report["clean"] = sorted(clean)
        report["witnesses"] = {
            f"{name}@k={k}": wit for (name, k), wit in scan.results.items() if wit
        }
        report["schur_violations"] = [
            f"{name}@k={k}" for name, k in schur_scan.violating_kinds()
        ]
        report = json.loads(_json_line(_stringify(report)))
    elif suite == "transient":
        table = orc.exact_transient((Fraction(1),) * 3, SCHUR, 12)
        spec = sim.DynamicsSpec(params=MacParams(0.0, 0.0), a=(1.0,) * 3, depth=3, recipe="pb")
        tops = Counter(
            sim.run_ensemble(spec, 1.0, args.samples, seed, collect=lambda arr: arr.top)
        )
        stats = orc.compare_distributions(tops, table, 1.0)
        report["stats"] = stats
        # the 0.02 bound is stated at 1e5 samples; rescale by the noise rate
        tv_bound = 0.02 * max(1.0, (100_000 / args.samples) ** 0.5)
        ok = stats["tv"] < tv_bound and stats["pvalue"] > 0.001
    elif suite == "tasep-marginal":
        n = args.samples
        q = 0.5
        spec = sim.DynamicsSpec(params=MacParams(q, 0.0), a=(1.0,) * 4, depth=4, recipe="pb")
        left = Counter(
            sim.run_ensemble(spec, 1.0, n, seed, collect=sim.leftmost_coordinates)
        )
        standalone = Counter()
        for rng in sim.trajectory_rngs((seed, 1), n):
            line = sim.QTasep(q=q, a=(1.0,) * 4)
            line.simulate(1.0, rng)
            standalone[tuple(line.x[kk] + (kk + 1) for kk in range(4))] += 1
        stats = orc.two_sample_chi_square(left, standalone)
        report["qtasep"] = stats
        ok = stats["pvalue"] > 0.001
        specr = sim.DynamicsSpec(params=MacParams(q, 0.0), a=(1.0,) * 4, depth=4, recipe="qrow")
        right = Counter(
            sim.run_ensemble(specr, 1.0, n, (seed, 2), collect=sim.rightmost_coordinates)
        )
        standalone = Counter()
        for rng in sim.trajectory_rngs((seed, 3), n):
            line = sim.QPushTasep(q=q, a=(1.0,) * 4)
            line.simulate(1.0, rng)
            standalone[tuple(line.x[kk] - (kk + 1) for kk in range(4))] += 1
        stats2 = orc.two_sample_chi_square(right, standalone)
        report["qpushtasep"] = stats2
        ok = ok and stats2["pvalue"] > 0.001
    elif suite == "gibbs":
        spec = sim.DynamicsSpec(params=MacParams(0.0, 0.0), a=(1.0,) * 3, depth=3, recipe="pb")
        pairs = sim.run_ensemble(
            spec, 1.0, args.samples, seed, collect=lambda arr: (arr.row(2), arr.top)
        )
        stats = orc.gibbs_check(pairs, (Fraction(1),) * 3, SCHUR)
        report["stats"] = stats
        # a report that compared no top row has checked nothing
        ok = not stats["vacuous"] and stats["pvalue"] > 0.001
    report["ok"] = ok
    line = _json_line(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
    else:
        sys.stdout.write(line + "\n")
    return 0 if ok else 2


def _stringify(obj):
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if isinstance(obj, Fraction):
        return _fmt(obj)
    return obj


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if getattr(args, "samples", 1) < 1:  # simulate and verify
            raise _CliError(f"--samples must be at least 1, got {args.samples}")
        handler = {
            "simulate": _cmd_simulate,
            "classify": _cmd_classify,
            "rsk": _cmd_rsk,
            "group": _cmd_group,
            "verify": _cmd_verify,
        }[args.command]
        return handler(args)
    except (_CliError, InvalidInput, Infeasible) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except ResourceLimit as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
