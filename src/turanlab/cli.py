"""Command-line front end; emits CSV or JSON for every operation.

Exit codes: 0 success, 1 domain error (one-line diagnostic on stderr),
2 usage error (argparse).  Floating values in CSV are printed with 17
significant digits so round-trips are lossless; JSON output is emitted
with sorted keys so identical invocations are byte-identical.  The parser
is built from two tables: _OPTIONS holds each option's argparse keywords,
and _COMMANDS each subcommand's handler, default --format, help line and
option names in --help order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import bounds as _bounds
from . import constructions as _constructions
from . import levelsets as _levelsets
from . import search as _search
from .classes import ClassSpec, sample
from .errors import TuranLabError
from .poly import Interval, from_payload, to_payload
from .search import SearchConfig


def _csv_cell(v) -> str:
    if isinstance(v, (dict, list, tuple)):
        return json.dumps(v, sort_keys=True)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _print(record, args) -> None:
    """Print a command's record to --out or stdout: a dict as a JSON object
    or as one CSV row with sorted columns, a (JSON object, CSV header, CSV
    rows) triple as either part, and a string to stdout as it is."""
    if isinstance(record, str):
        sys.stdout.write(record)
        return
    if isinstance(record, dict):
        keys = sorted(record)
        record = record, keys, [[record[k] for k in keys]]
    obj, header, rows = record
    if args.format == "json":
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows([_csv_cell(v) for v in row] for row in rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_poly(args):
    if args.poly:
        with open(args.poly) as fh:
            return from_payload(json.load(fh))
    raise ValueError("a polynomial file is required (--poly)")


def _interval(args) -> Interval:
    return Interval(*args.interval) if args.interval else Interval()


def _search_config(args) -> SearchConfig:
    return SearchConfig(budget=args.budget, restarts=args.restarts,
                        seed=args.seed)


def _cmd_ratio(args):
    cv = _bounds.turan_ratio(_load_poly(args), _interval(args))
    return ({"ratio": cv.value, "err": cv.err, "method": cv.method},
            ["ratio", "err", "method"], [[cv.value, cv.err, cv.method]])


def _cmd_verdict(args):
    spec = ClassSpec(args.n, args.k, pin_interval_zero=args.pin)
    v = _bounds.evaluate_verdict(_load_poly(args), spec)
    checks = list(zip(v.brackets, v.passes))
    return ({"ratio": v.ratio.value, "err": v.ratio.err,
             "brackets": [{"source": b.source, "lower": b.lower, "pass": ok}
                          for b, ok in checks]},
            ["n", "k", "ratio", "err", "bound_source", "bound_value", "pass"],
            [[args.n, args.k, v.ratio.value, v.ratio.err, b.source, b.lower, ok]
             for b, ok in checks])


def _cmd_sample(args):
    spec = ClassSpec(args.n, args.k, pin_interval_zero=args.pin)
    return to_payload(sample(spec, seed=args.seed))


def _cmd_lemma31(args):
    Q = _load_poly(args)
    return _levelsets.small_logderiv_measure(Q, args.delta, _interval(args)).to_payload()


def _cmd_lemma32(args):
    if args.zeros is not None:
        R = from_payload({"leading": [1, 0], "zeros": json.loads(args.zeros)})
    else:
        R = _load_poly(args)
    if args.deg is not None and args.deg != R.degree:
        raise ValueError(f"--deg {args.deg} does not match {R.degree} zeros")
    return _levelsets.large_logderiv_measure(R, args.alpha, _interval(args)).to_payload()


def _cmd_decay(args):
    check = (_levelsets.incomplete_decay_check if args.mode == "incomplete"
             else _levelsets.flipped_decay_check)
    return check(_load_poly(args), args.n, args.k).to_payload()


def _cmd_search(args):
    spec = ClassSpec(args.n, args.k, pin_interval_zero=args.pin)
    res = _search.minimize_ratio(spec, _search_config(args))
    return {
        "n": args.n, "k": args.k,
        "ratio": res.ratio.value, "err": res.ratio.err,
        "lower": res.bracket.lower,
        "within_bracket": res.within_bracket,
        "evals": res.evals, "restarts": args.restarts,
        "best": to_payload(res.best),
    }


def _cmd_sweep(args):
    ns = [int(s) for s in args.n_values.split(",") if s.strip()]
    ks = [int(s) for s in args.k_values.split(",") if s.strip()]
    table = _search.frontier_sweep(ns, ks, _search_config(args), pin=args.pin)
    rows = []
    for r in table.rows:
        res = r.result
        rows.append([r.n, r.k, "", "", "", "", "failed", 0, 0] if res is None else
                    [r.n, r.k, res.ratio.value, res.ratio.err, res.bracket.lower,
                     "" if res.warm_best is None else res.warm_best,
                     res.within_bracket, args.restarts, res.evals])
    return ({"slope": table.slope,
             "monotone_in_n": {str(k): v for k, v in table.monotone_in_n.items()},
             "monotone_in_k": {str(n): v for n, v in table.monotone_in_k.items()},
             "cells": [{"n": r.n, "k": r.k, "error": r.error,
                        "ratio": None if r.result is None else r.result.ratio.value}
                       for r in table.rows]},
            ["n", "k", "ratio", "err", "lower_bound", "upper_construction",
             "within_bracket", "restarts_used", "evals"], rows)


def _cmd_construct(args):
    """The record; with --out, the chain files written instead, and the
    line that names them."""
    rep = _constructions.thm24_construct(args.n, args.k, _search_config(args))
    chain = {name: to_payload(rep.intermediate.get(name, rep.P)) for name in "QRP"}
    if args.out:
        for name, payload in chain.items():
            with open(f"{args.out}_{name}.json", "w") as fh:
                json.dump(payload, fh, sort_keys=True, indent=2)
        return json.dumps({"written": [f"{args.out}_{s}.json" for s in "QRP"]},
                          sort_keys=True) + "\n"
    return {"ratio": rep.ratio.value, "err": rep.ratio.err,
            "member": rep.class_check.ok, "details": rep.details, **chain}


def _cmd_remark(args):
    rep = _constructions.remark_family(args.epsilon, args.n)
    return {
        "epsilon": args.epsilon, "n": args.n,
        "m": rep.details["m"],
        "ratio": rep.ratio.value, "err": rep.ratio.err,
        "bound": rep.predicted_bound,
        "norm": rep.details["norm"],
        "argmax": rep.details["derivative_argmax"],
        "argmax_power": rep.details["argmax_power"],
        "closed_form": rep.details["closed_form_argmax_power"],
    }


_OPTIONS = {
    "n": dict(type=int, required=True),
    "k": dict(type=int, required=True),
    "pin": dict(action="store_true", help="require a zero on [-1,1]"),
    "seed": dict(type=int, default=0),
    "budget": dict(type=int, default=4000),
    "restarts": dict(type=int, default=8),
    "poly": dict(help="polynomial JSON file"),
    "interval": dict(nargs=2, type=float, metavar=("LO", "HI")),
    "out": dict(help="write output to this path"),
    "format": dict(choices=("csv", "json")),
    "delta": dict(type=float, required=True),
    "alpha": dict(type=float, required=True),
    "zeros": dict(help="JSON [[re,im],...] as an inline alternative to --poly"),
    "deg": dict(type=int, help="expected degree (validated)"),
    "mode": dict(choices=("incomplete", "flipped"), default="incomplete"),
    "n-values": dict(required=True, help="comma list, e.g. 2,4,8"),
    "k-values": dict(required=True, help="comma list, e.g. 0,1"),
    "epsilon": dict(type=float, required=True),
}

_COMMANDS = {
    "ratio": (_cmd_ratio, "json", "certified ||P'||/||P|| on an interval",
              "poly interval out format"),
    "verdict": (_cmd_verdict, "csv", "ratio vs every applicable bound",
                "n k pin poly out format"),
    "sample": (_cmd_sample, "json", "random class member (JSON polynomial)",
               "n k pin seed out format"),
    "lemma31": (_cmd_lemma31, "json", "measure of {|Q'/Q| <= n*delta}",
                "poly interval out format delta"),
    "lemma32": (_cmd_lemma32, "json", "measure of {|R'/R| >= alpha}",
                "poly interval out format alpha zeros deg"),
    "decay": (_cmd_decay, "json", "pointwise decay checks",
              "n k poly out format mode"),
    "search": (_cmd_search, "json", "minimize the ratio over a class",
               "n k pin seed budget restarts out format"),
    "sweep": (_cmd_sweep, "csv", "grid of searches + scaling summary",
              "pin seed budget restarts out format n-values k-values"),
    "construct": (_cmd_construct, "json", "squared-argument pipeline Q->R->P",
                  "n k seed budget restarts out format"),
    "remark": (_cmd_remark, "json", "roots-of-unity family (z^m-1)^n",
               "n out format epsilon"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="turanlab",
        description="Derivative sup-norm ratios for polynomials with "
                    "restricted zeros: certified norms, level-set measures, "
                    "bound verdicts, extremal search, constructions.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, fmt, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for option in options.split():
            p.add_argument("--" + option, **_OPTIONS[option])
        p.set_defaults(fn=fn, format=fmt)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _print(args.fn(args), args)
        return 0
    except (TuranLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
