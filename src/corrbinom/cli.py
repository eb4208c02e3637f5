"""Command-line front end: fit, simulate, pmf, sample, plot.

Observation files are plain text integers separated by whitespace and/or
newlines; a line whose first non-blank character is ``#`` is a comment.
Estimate files are one finite real per line under the same comment rule.
Input files must be UTF-8 text.  JSON reports share the envelope
{command, schema_version, params, seed, results} so downstream tooling
can rely on the keys.

Exit statuses: 0 success/converged, 1 usage error, 2 data error,
3 fit stopped at the iteration cap.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .boxpct import build_quantile_polygon, render_svg, write_polygon_csv
from .em import EMConfig, em_fit
from .gridsearch import GridSpec, grid_mle
from .model import CBParams, Dataset, pmf_table, sample
from .simulate import Scenario, run_scenario

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NO_CONVERGENCE = 3

SCHEMA_VERSION = 1


class DataFormatError(ValueError):
    """An input file exists but its contents cannot be used."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="corrbinom",
                     description="Correlated binomial fitting, simulation, and plotting.")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit CB(n, p, rho) to an observation file")
    fit.add_argument("--input", required=True, help="observation file")
    fit.add_argument("--n", type=int, required=True, help="trials per observation")
    _add_em_options(fit)
    fit.add_argument("--oracle", action="store_true",
                     help="cross-check the fit against the grid-search maximizer")
    _add_output_options(fit)

    sim = sub.add_parser("simulate", help="replicate sampling + fitting, report bias/RMSE")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--p", type=float, required=True)
    sim.add_argument("--rho", type=float, required=True)
    sim.add_argument("--k", type=int, required=True, help="observations per replication")
    sim.add_argument("--reps", type=int, required=True, help="number of replications")
    sim.add_argument("--seed", type=int, default=None,
                     help="master seed (generated and reported when omitted)")
    sim.add_argument("--plot", metavar="DIR", default=None,
                     help="also write box-percentile SVG + CSV into DIR")
    _add_em_options(sim)
    _add_output_options(sim)

    pmf = sub.add_parser("pmf", help="print the CB probability table")
    pmf.add_argument("--n", type=int, required=True)
    pmf.add_argument("--p", type=float, required=True)
    pmf.add_argument("--rho", type=float, required=True)
    _add_output_options(pmf)

    samp = sub.add_parser("sample", help="draw a dataset and write it to a file")
    samp.add_argument("--n", type=int, required=True)
    samp.add_argument("--p", type=float, required=True)
    samp.add_argument("--rho", type=float, required=True)
    samp.add_argument("--k", type=int, required=True)
    samp.add_argument("--seed", type=int, default=None,
                      help="sampling seed (generated and reported when omitted)")
    samp.add_argument("--output", required=True, help="destination file")
    samp.add_argument("--format", choices=["text", "json"], default="text")

    plot = sub.add_parser("plot", help="box-percentile SVG + CSV from an estimates file")
    plot.add_argument("--input", required=True, help="estimates file, one real per line")
    plot.add_argument("--output", required=True, help="destination directory")
    plot.add_argument("--name", default=None, help="parameter label (default: input stem)")
    plot.add_argument("--resolution", type=int, default=201,
                      help="quantile levels per glyph (odd, default 201)")
    plot.add_argument("--format", choices=["text", "json"], default="text")

    return parser


def _add_em_options(sub) -> None:
    sub.add_argument("--start-p", type=float, default=0.5, help="EM start value for p")
    sub.add_argument("--start-rho", type=float, default=0.5, help="EM start value for rho")
    sub.add_argument("--maxits", type=int, default=1000, help="EM iteration cap")
    sub.add_argument("--eps", type=float, default=1e-15, help="EM convergence tolerance")


def _add_output_options(sub) -> None:
    sub.add_argument("--format", choices=["text", "json"], default="text")
    sub.add_argument("--output", default=None, help="write the report here instead of stdout")


def read_observations(path) -> list[int]:
    """Integers from a whitespace-separated observation file."""
    return _read_values(path, int, "an integer")


def read_estimates(path) -> list[float]:
    """Finite reals from an estimates file, one value per whitespace token."""
    return _read_values(path, _finite_float, "a finite number")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


def _read_values(path, convert, label):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise DataFormatError(f"{path}: not UTF-8 text") from None
    values = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        for token in stripped.split():
            try:
                values.append(convert(token))
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {lineno}: cannot parse {token!r} as {label}") from None
    if not values:
        raise DataFormatError(f"{path}: no values found")
    return values


def _emit(args, params: dict, seed, results: dict, text_lines: list[str],
          destination=None) -> None:
    """Write the report, as the JSON envelope or as text, to ``destination``
    or, when that is None, to stdout."""
    if args.format == "json":
        report = {
            "command": args.command,
            "schema_version": SCHEMA_VERSION,
            "params": params,
            "seed": seed,
            "results": results,
        }
        payload = json.dumps(report, indent=2) + "\n"
    else:
        payload = "\n".join(text_lines) + "\n"
    if destination:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _pick_seed(args) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise ValueError(f"--seed must be an integer >= 0, got {args.seed}")
        return args.seed
    return int.from_bytes(os.urandom(8), "big") >> 1


def cmd_fit(args) -> int:
    if args.n < 1:
        raise ValueError(f"n must be an integer >= 1, got {args.n!r}")
    values = read_observations(args.input)
    try:
        data = Dataset(n=args.n, observations=values)
    except ValueError as exc:
        # with n valid and the values parsed as integers, the one complaint
        # left is an observation outside [0, n]: a fault of the file
        raise DataFormatError(f"{args.input}: {exc}") from None
    config = EMConfig(start_p=args.start_p, start_rho=args.start_rho,
                      max_iterations=args.maxits, epsilon=args.eps)
    result = em_fit(data, config)

    results = {
        "p_hat": result.p_hat,
        "rho_hat": result.rho_hat,
        "iterations": result.iterations,
        "converged_p": result.converged_p,
        "converged_rho": result.converged_rho,
        "converged": result.converged,
        "log_likelihood": result.log_likelihood,
        "oracle": None,
    }
    lines = [
        f"p_hat          {result.p_hat:.10g}",
        f"rho_hat        {result.rho_hat:.10g}",
        f"iterations     {result.iterations}",
        f"converged_p    {str(result.converged_p).lower()}",
        f"converged_rho  {str(result.converged_rho).lower()}",
        f"converged      {str(result.converged).lower()}",
        f"log_likelihood {result.log_likelihood:.8f}",
    ]
    if args.oracle:
        grid = grid_mle(data, GridSpec())
        results["oracle"] = {
            "p": grid.p,
            "rho": grid.rho,
            "log_likelihood": grid.log_likelihood,
            "log_likelihood_gap": result.log_likelihood - grid.log_likelihood,
        }
        lines += [
            f"oracle_p       {grid.p:.10g}",
            f"oracle_rho     {grid.rho:.10g}",
            f"oracle_loglik  {grid.log_likelihood:.8f}",
            f"oracle_gap     {result.log_likelihood - grid.log_likelihood:.3e}",
        ]
    params = {"input": str(args.input), "n": args.n, "start_p": args.start_p,
              "start_rho": args.start_rho, "maxits": args.maxits, "eps": args.eps}
    _emit(args, params, None, results, lines, args.output)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_simulate(args) -> int:
    seed = _pick_seed(args)
    scenario = Scenario(
        params=CBParams(n=args.n, p=args.p, rho=args.rho),
        sample_size=args.k,
        replications=args.reps,
        seed=seed,
        em_config=EMConfig(start_p=args.start_p, start_rho=args.start_rho,
                           max_iterations=args.maxits, epsilon=args.eps),
    )
    report = run_scenario(scenario)

    def summary_dict(s):
        return {key: getattr(s, key)
                for key in ("truth", "bias", "rmse", "interval_low", "interval_high")}

    params = {"n": args.n, "p": args.p, "rho": args.rho,
              "k": args.k, "reps": args.reps,
              "start_p": args.start_p, "start_rho": args.start_rho,
              "maxits": args.maxits, "eps": args.eps}
    results = {
        "p": summary_dict(report.p),
        "rho": summary_dict(report.rho),
        "degenerate_count": report.degenerate_count,
    }
    lines = [
        f"seed {seed}",
        "parameter  truth  bias           rmse          interval_low  interval_high",
        f"p          {report.p.truth:<6g} {report.p.bias:<14.6e} {report.p.rmse:<13.6e} "
        f"{report.p.interval_low:<13.7f} {report.p.interval_high:.7f}",
        f"rho        {report.rho.truth:<6g} {report.rho.bias:<14.6e} {report.rho.rmse:<13.6e} "
        f"{report.rho.interval_low:<13.7f} {report.rho.interval_high:.7f}",
        f"degenerate_count {report.degenerate_count}",
    ]
    _emit(args, params, seed, results, lines, args.output)

    if args.plot:
        out_dir = Path(args.plot)
        out_dir.mkdir(parents=True, exist_ok=True)
        polygons = [
            build_quantile_polygon(report.p.estimates, 201, name="p"),
            build_quantile_polygon(report.rho.estimates, 201, name="rho"),
        ]
        render_svg(polygons, out_dir / "estimates.svg")
        write_polygon_csv(polygons, out_dir / "estimates.csv")
    return EXIT_OK


def cmd_pmf(args) -> int:
    params = CBParams(n=args.n, p=args.p, rho=args.rho)
    probs = pmf_table(params).tolist()
    total = sum(probs)
    lines = ["y  probability"]
    lines += [f"{y}  {prob:.12g}" for y, prob in enumerate(probs)]
    lines.append(f"sum  {total:.12g}")
    _emit(args, {"n": args.n, "p": args.p, "rho": args.rho}, None,
          {"pmf": probs, "sum": total}, lines, args.output)
    return EXIT_OK


def cmd_sample(args) -> int:
    seed = _pick_seed(args)
    params = CBParams(n=args.n, p=args.p, rho=args.rho)
    data = sample(params, args.k, seed)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(f"# CB(n={args.n}, p={args.p}, rho={args.rho}) "
                     f"k={args.k} seed={seed}\n")
        handle.write("\n".join(str(y) for y in data.observations.tolist()) + "\n")
    # --output names the data file, so the report always goes to stdout
    _emit(args, {"n": args.n, "p": args.p, "rho": args.rho, "k": args.k,
                 "output": str(args.output)}, seed,
          {"count": args.k, "path": str(args.output)},
          [f"seed {seed}", f"wrote {args.k} observations to {args.output}"])
    return EXIT_OK


def cmd_plot(args) -> int:
    estimates = read_estimates(args.input)
    name = args.name if args.name is not None else Path(args.input).stem
    polygon = build_quantile_polygon(estimates, args.resolution, name=name)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    svg_path = out_dir / f"{name}.svg"
    csv_path = out_dir / f"{name}.csv"
    render_svg([polygon], svg_path)
    write_polygon_csv([polygon], csv_path)
    # --output names the figure directory, so the report always goes to stdout
    _emit(args, {"input": str(args.input), "resolution": args.resolution, "name": name}, None,
          {"svg": str(svg_path), "csv": str(csv_path),
           "count": len(estimates), "median": polygon.median},
          [f"wrote {svg_path}", f"wrote {csv_path}"])
    return EXIT_OK


_COMMANDS = {
    "fit": cmd_fit,
    "simulate": cmd_simulate,
    "pmf": cmd_pmf,
    "sample": cmd_sample,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DataFormatError, OSError) as exc:
        print(f"corrbinom: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"corrbinom: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
