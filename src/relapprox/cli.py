"""Command-line interface.

Exit codes: 0 success / verification passed, 1 verification failure,
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .chaining import build_chain, write_chain_summary
from .errors import RelApproxError, RetriesExhausted
from .halving import _certify, write_trace_json
from .packing import greedy_maximal_packing
from .sampling import (
    ApproxParams,
    find_constants,
    formula_size,
    relative_error,
    uniform_sample,
    write_sample_json,
    read_sample_json,
)
from .set_system import read_json, write_json


def _cmd_generate(args) -> int:
    # the generate options are named like the descriptor keys
    system = harness.system_from_descriptor(vars(args))
    write_json(system, args.out)
    print(f"wrote {args.family} system: n={system.n}, |F|={len(system)} -> {args.out}")
    return 0


def _cmd_verify(args) -> int:
    system = read_json(args.system)
    sample = read_sample_json(args.sample)
    report = relative_error(system, sample, args.eps)
    doc = report.to_json_dict()
    doc["delta"] = args.delta
    doc["passes"] = report.passes(args.delta)
    print(json.dumps(doc))
    return 0 if doc["passes"] else 1


def _cmd_sample(args) -> int:
    system = read_json(args.system)
    params = ApproxParams(args.eps, args.delta, args.gamma)
    constants = find_constants(args.constants)
    t = formula_size(args.formula, params, args.d, system, constants, args.mode)
    sample = uniform_sample(system.n, t, args.seed, mode=args.mode)
    write_sample_json(sample, args.out)
    print(f"wrote {args.formula}-sized sample: t={sample.t} -> {args.out}")
    return 0


def _cmd_halve(args) -> int:
    system = read_json(args.system)
    params = ApproxParams(args.eps, args.delta, args.gamma)
    try:
        attempts, sample, trace, report = _certify(
            system, params, args.seed, args.max_retries, args.mode
        )
    except RetriesExhausted as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.trace:
        write_trace_json(trace, args.trace)
    doc = {"t": sample.t, "attempts": attempts, "worst_ratio": report.worst_ratio}
    if args.out:
        write_sample_json(sample, args.out)
        doc["out"] = args.out
    else:
        doc["members"] = list(sample.support)
        if sample.multiplicity is not None:
            doc["counts"] = list(sample.multiplicity)
    print(json.dumps(doc))
    return 0


def _cmd_packing(args) -> int:
    system = read_json(args.system)
    packing = greedy_maximal_packing(system, args.alpha)
    with open(args.out, "w") as fh:
        json.dump(packing.to_json_dict(), fh)
        fh.write("\n")
    print(f"packing at alpha={args.alpha}: {packing.size} members -> {args.out}")
    return 0


def _cmd_chain(args) -> int:
    system = read_json(args.system)
    chain = build_chain(system, args.eps, args.delta)
    write_chain_summary(chain, args.out)
    sizes = [lv.packing.size for lv in chain.levels]
    print(f"chain with k={chain.k}, packing sizes {sizes} -> {args.out}")
    return 0


def _cmd_montecarlo(args) -> int:
    spec = harness.ExperimentSpec.from_json(args.spec)
    rows = harness.run_sweep(spec)
    harness.write_sweep_csv(rows, args.out)
    print(f"wrote {len(rows)} cells -> {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    cases, trials, master_seed = harness.load_suite(args.suite)
    constants, provenance = harness.calibrate_constants(
        cases, trials, master_seed, workers=args.workers
    )
    harness.write_constants_json(constants, provenance, args.out)
    print(f"calibrated c={constants.c} c1={constants.c1} c2={constants.c2} -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relapprox",
        description="Relative (eps, delta)-approximations of finite set systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a set system as JSON")
    p.add_argument("--family", required=True,
                   choices=["intervals", "power_set", "random", "halfplanes", "rectangles"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("verify", help="exact relative-approximation check")
    p.add_argument("--system", required=True)
    p.add_argument("--sample", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sample", help="draw a formula-sized uniform sample")
    p.add_argument("--system", required=True)
    p.add_argument("--formula", required=True, choices=["basic", "main", "halving", "chaining"])
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--constants", default=None)
    p.add_argument("--mode", choices=["without", "with"], default="without")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("halve", help="iterated-halving construction, verified")
    p.add_argument("--system", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--mode", choices=["without", "with"], default="without")
    p.add_argument("--max-retries", type=int, default=5)
    p.set_defaults(fn=_cmd_halve)

    p = sub.add_parser("packing", help="greedy maximal packing")
    p.add_argument("--system", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_packing)

    p = sub.add_parser("chain", help="chaining decomposition summary")
    p.add_argument("--system", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_chain)

    p = sub.add_parser("montecarlo", help="run an experiment sweep to CSV")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_montecarlo)

    p = sub.add_parser("calibrate", help="calibrate formula constants")
    p.add_argument("--suite", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (RelApproxError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
