"""Command-line frontend.

Subcommands compute divergences and protocol bounds from state files and
drive the verification suites.  Reports are deterministic functions of
(inputs, seed, config): timing goes to stderr only, never into the payload.

Exit codes: 0 success, 1 validation error, 2 infeasible parameters,
3 assertion failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import asdict

import numpy as np

from . import suites
from .divergences import d_alpha, d_hypothesis, d_max, d_min, d_tilde_max, d_umegaki
from .induced import ParentDivergence, induced
from .linalg import ValidationError
from .protocols import InfeasibleError, brute_force_tc, distill_lower_bound, eqsr_cost_bound
from .states import load_channel, load_state

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_ASSERTION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map usage problems onto the validation exit code
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        else:
            h.update(part)
        h.update(b"\x00")
    return h.hexdigest()


def _file_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _emit(report: dict, fmt: str, out_path: str | None, text_lines, csv_rows=None) -> None:
    if fmt == "json":
        payload = json.dumps(_jsonable(report), sort_keys=True, separators=(",", ":")) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "assertion", "instance", "seed", "lhs", "rhs", "margin", "pass"])
        for row in csv_rows or []:
            writer.writerow(
                [
                    row.suite,
                    row.assertion,
                    row.instance,
                    row.seed,
                    repr(row.lhs),
                    repr(row.rhs),
                    repr(row.margin),
                    int(row.passed),
                ]
            )
        payload = buf.getvalue()
    else:
        payload = "\n".join(text_lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _value_str(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _alpha(args, option: str) -> float:
    """The --alpha value that ``option`` needs: a number, or inf/infinity."""
    if args.alpha is None:
        raise ValidationError(f"--alpha is required for {option}")
    try:
        return float(args.alpha)
    except ValueError as exc:
        raise ValidationError(f"--alpha must be a number or inf, got {args.alpha!r}") from exc


_PLAIN_KINDS = {"min": d_min, "max": d_max, "umegaki": d_umegaki}


def _cmd_divergence(args) -> int:
    rho = load_state(args.rho).state
    sigma = load_state(args.sigma).state
    kind = args.kind
    results: dict = {"kind": kind}
    reads_eps = kind in ("hypothesis", "ispec")
    if kind != "renyi" and args.alpha is not None:
        raise ValidationError(f"--alpha does not apply to --kind {kind}")
    if reads_eps and args.eps is None:
        raise ValidationError(f"--eps is required for --kind {kind}")
    if not reads_eps and args.eps is not None:
        raise ValidationError(f"--eps does not apply to --kind {kind}")
    if kind == "renyi":
        alpha = _alpha(args, "--kind renyi")
        dv = d_alpha(rho, sigma, alpha)
        results.update(alpha=alpha, value=dv.value, support_case=dv.support_case)
    elif kind in _PLAIN_KINDS:
        dv = _PLAIN_KINDS[kind](rho, sigma)
        results.update(value=dv.value, support_case=dv.support_case)
    elif kind == "hypothesis":
        dv, test = d_hypothesis(rho, sigma, args.eps)
        results.update(
            eps=args.eps,
            value=dv.value,
            support_case=dv.support_case,
            mu=test.mu,
            alpha_err=test.alpha_err,
            beta=test.beta,
        )
    else:  # ispec; argparse restricts the choices
        dv = d_tilde_max(rho, sigma, args.eps)
        results.update(eps=args.eps, value=dv.value, support_case=dv.support_case)

    report = _base_report("divergence", args, [args.rho, args.sigma], results)
    lines = [f"{kind}: {_value_str(dv.value)}", f"case: {dv.support_case}"]
    _emit(report, args.format, args.out, lines)
    return EXIT_OK


_PARENTS = {
    "umegaki": ParentDivergence.umegaki,
    "min": ParentDivergence.min_,
    "max": ParentDivergence.max_,
}


def _cmd_induced(args) -> int:
    rho = load_state(args.rho).state
    sigma = load_state(args.sigma).state
    if args.parent == "renyi":
        parent = ParentDivergence.renyi(_alpha(args, "--parent renyi"))
    elif args.alpha is not None:
        raise ValidationError(f"--alpha does not apply to --parent {args.parent}")
    else:
        parent = _PARENTS[args.parent]()
    res = induced(parent, rho, sigma, args.eps)
    results = {
        "parent": args.parent,
        "alpha": parent.alpha,
        "eps": args.eps,
        "lambda_star": res.lambda_star,
        "t_star": res.t_star,
        "raw": res.raw,
        "normalized": res.normalized,
        "residual": res.residual,
    }
    report = _base_report("induced", args, [args.rho, args.sigma], results)
    primary = res.normalized if args.normalized else res.raw
    lines = [
        f"value: {_value_str(primary)}",
        f"lambda_star: {_value_str(res.lambda_star)}",
        f"t_star: {_value_str(res.t_star)}",
        f"raw: {_value_str(res.raw)}",
        f"normalized: {_value_str(res.normalized)}",
    ]
    _emit(report, args.format, args.out, lines)
    return EXIT_OK


def _baseline_rows(path: str) -> dict:
    """The rows of a ``qdiv verify --format json`` report, by (suite, assertion, instance, seed).

    Each is (lhs, rhs, margin, passed); a file without them is refused.
    """
    try:
        rows = json.loads(_file_bytes(path))["results"]["rows"]
        return {
            (r["suite"], r["assertion"], r["instance"], r["seed"]): (
                float(r["lhs"]), float(r["rhs"]), float(r["margin"]), bool(r["passed"])
            )
            for r in rows
        }
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"{path} is not a qdiv verify JSON report: {exc!r}") from exc


def _moved_rows(baseline: dict, rows) -> list[str]:
    """A line per row whose lhs, rhs, margin or pass flag differs from its baseline row (popped): old -> new, |d|."""
    lines = []
    for row in rows:
        name = f"{row.suite}:{row.assertion} instance={row.instance} seed={row.seed}"
        old = baseline.pop((row.suite, row.assertion, row.instance, row.seed), None)
        if old is None:
            lines.append(f"{name}: not in the baseline")
            continue
        new = (float(row.lhs), float(row.rhs), float(row.margin), row.passed)
        moves = [
            f"{field} {a!r} -> {b!r}" + ("" if field == "passed" else f" |d|={abs(b - a)!r}")
            for field, a, b in zip(("lhs", "rhs", "margin", "passed"), old, new)
            if a != b and not (a != a and b != b)
        ]
        if moves:
            lines.append(f"{name}: " + "; ".join(moves))
    lines += [f"{s}:{a} instance={i} seed={sd}: only in the baseline" for s, a, i, sd in baseline]
    return lines


def _cmd_verify(args) -> int:
    if args.instances <= 0:
        raise ValidationError("instance count must be positive")
    baseline = None if args.baseline is None else _baseline_rows(args.baseline)
    rows = suites.run_suite(args.suite, args.instances, args.seed)
    if baseline is not None:
        moved = _moved_rows(baseline, rows)
        print(f"baseline {args.baseline}: {len(moved)} of {len(rows)} rows moved", file=sys.stderr)
        for line in moved:
            print(f"  {line}", file=sys.stderr)
    counts: dict[str, dict[str, int]] = {}
    for row in rows:
        slot = counts.setdefault(f"{row.suite}:{row.assertion}", {"pass": 0, "fail": 0})
        slot["pass" if row.passed else "fail"] += 1
    failures = [row for row in rows if not row.passed]
    results = {
        "suite": args.suite,
        "instances": args.instances,
        "rows": [asdict(row) for row in rows],
        "counts": counts,
        "failures": len(failures),
    }
    report = _base_report("verify", args, [], results)
    lines = [f"suite {args.suite}: {len(rows) - len(failures)}/{len(rows)} assertions passed"]
    for key in sorted(counts):
        c = counts[key]
        lines.append(f"  {key}: pass={c['pass']} fail={c['fail']}")
    lines.append("OK" if not failures else "FAIL")
    _emit(report, args.format, args.out, lines, csv_rows=rows)
    if failures:
        repro = {
            "suite": args.suite,
            "seed": args.seed,
            "instances": args.instances,
            "failing": [asdict(row) for row in failures],
        }
        repro_path = args.repro_out or "qdiv-repro.json"
        with open(repro_path, "w", encoding="utf-8") as fh:
            json.dump(_jsonable(repro), fh, sort_keys=True, indent=2)
        print(f"repro written to {repro_path}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def _cmd_comm(args) -> int:
    if args.brute_force and args.m is None:
        raise ValidationError("--m is required with --brute-force")
    if not args.brute_force and args.m is not None:
        raise ValidationError("--m does not apply without --brute-force")
    chan = load_channel(args.channel)
    bound = distill_lower_bound(chan, args.eps, seed=args.seed)
    if not bound.converged:
        print(
            "warning: the input ascent at the channel value stopped without converging (Frank-Wolfe gap "
            "above 1e-7); induced_value is still attained by best_p, a lower bound that may be loose",
            file=sys.stderr,
        )
    results = {
        "eps": args.eps,
        "best_p": list(bound.best_p),
        "induced_value": bound.induced_value,
        "bound_bits": bound.bound_bits,
        "floor_bits": bound.floor_bits,
        "floor_m": bound.floor_m,
        "tc_upper_curve": [[m, v] for m, v in bound.tc_upper_curve],
    }
    lines = [
        f"induced_value: {_value_str(bound.induced_value)}",
        f"bound_bits: {_value_str(bound.bound_bits)}",
        f"floor_bits: {_value_str(bound.floor_bits)} (m={bound.floor_m})",
    ]
    if args.brute_force:
        tc = brute_force_tc(chan, args.m)
        results["brute_force"] = {"m": args.m, "tc": tc}
        lines.append(f"brute_force_tc(m={args.m}): {_value_str(tc)}")
    report = _base_report("comm", args, [args.channel], results)
    _emit(report, args.format, args.out, lines)
    return EXIT_OK


def _cmd_qsr(args) -> int:
    record = load_state(args.state)
    if len(record.dims) != 3:
        raise ValidationError(f"qsr needs a tripartite state file, got dims {list(record.dims)}")
    bound = eqsr_cost_bound(record.state, tuple(record.dims), args.eps, args.delta0, args.delta1)
    detail = bound.cond_mi.induced_detail
    if not detail.converged:
        print(
            f"warning: the induced I_2 term stopped at {detail.iterations} mirror-descent "
            f"iterations without converging (Frank-Wolfe gap {detail.gradient_residual:.2g}); "
            "q_bound subtracts its certified lower bound, which may be loose",
            file=sys.stderr,
        )
    smoothed = bound.cond_mi.smoothed_term
    if not smoothed.converged:
        print(
            f"warning: the smoothed I_2 term's descent ({smoothed.candidate}) stopped at "
            f"{smoothed.iterations} mirror-descent iterations without converging (Frank-Wolfe gap "
            f"{smoothed.gradient_residual:.2g}); q_bound adds its value there, an upper bound that may be loose",
            file=sys.stderr,
        )
    results = {
        "eps": args.eps,
        "delta0": bound.delta0,
        "delta1": bound.delta1,
        "delta_prime": bound.delta_prime,
        "smoothed_term": bound.cond_mi.smoothed_term.value,
        "smoothed_candidate": bound.cond_mi.smoothed_term.candidate,
        "smoothed_distance": bound.cond_mi.smoothed_term.distance_used,
        "induced_term": bound.cond_mi.induced_term,
        "cond_mutual_info": bound.cond_mi.value,
        "q_bound": bound.q_bound,
    }
    report = _base_report("qsr", args, [args.state], results)
    lines = [
        f"delta_prime: {_value_str(bound.delta_prime)}",
        f"cond_mutual_info: {_value_str(bound.cond_mi.value)}",
        f"q_bound: {_value_str(bound.q_bound)}",
    ]
    _emit(report, args.format, args.out, lines)
    return EXIT_OK


def _base_report(command: str, args, input_paths, results: dict) -> dict:
    digest_parts = [command, str(getattr(args, "seed", 0))]
    for path in input_paths:
        digest_parts.append(_file_bytes(path))
    return {
        "command": command,
        "seed": getattr(args, "seed", 0),
        "inputs_digest": _digest(digest_parts),
        "results": results,
    }


def build_parser() -> _Parser:
    parser = _Parser(prog="qdiv", description="quantum divergence toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("divergence", help="evaluate a parent divergence on two state files")
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--kind", required=True, choices=("renyi", "min", "max", "umegaki", "hypothesis", "ispec"))
    p.add_argument("--alpha", default=None)
    p.add_argument("--eps", type=float, default=None)
    common(p)
    p.set_defaults(fn=_cmd_divergence)

    p = sub.add_parser("induced", help="evaluate the induced divergence")
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--parent", required=True, choices=("renyi", "umegaki", "min", "max"))
    p.add_argument("--alpha", default=None)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--normalized", action="store_true")
    common(p)
    p.set_defaults(fn=_cmd_induced)

    p = sub.add_parser("verify", help="run a property suite on seeded instances")
    p.add_argument("--suite", required=True, choices=suites.SUITE_NAMES)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--repro-out", default=None)
    p.add_argument(
        "--baseline",
        default=None,
        help="a --format json verify report: print each row whose lhs, rhs, margin or pass flag differs from it",
    )
    common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("comm", help="one-shot distillable-communication bound")
    p.add_argument("--channel", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("--m", type=int, default=None)
    common(p)
    p.set_defaults(fn=_cmd_comm)

    p = sub.add_parser("qsr", help="state-redistribution cost bound")
    p.add_argument("--state", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta0", type=float, required=True)
    p.add_argument("--delta1", type=float, required=True)
    common(p)
    p.set_defaults(fn=_cmd_qsr)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code = args.fn(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        elapsed = time.monotonic() - start
        print(f"wall_time_s={elapsed:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
