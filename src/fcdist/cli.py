"""Command-line interface.

Subcommands: ``simulate`` (seeded experiment grid), ``normative``
(stored cross-spectra), ``gen-sources`` / ``gen-leadfield`` (emit matrix
files), ``summarize`` (distribution statistics of a stored connectivity
matrix). Exit codes: 0 success, 1 usage error, 2 data error,
3 experiment failed.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import forward, matrix_io, pipeline, weight_stats
from .errors import ExperimentFailed, FcdistError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_EXPERIMENT = 3


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    data errors, so remap usage problems to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    defaults = pipeline.ExperimentConfig()
    parser = _Parser(prog="fcdist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the seeded simulation grid")
    p.add_argument("--config", type=Path, help="JSON config file (ExperimentConfig fields)")
    p.add_argument("--out", type=Path, default=Path("results"), help="output directory")
    p.add_argument("--seed", type=int, help="override master_seed")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--trials", type=int, help="override trial count")
    p.add_argument("--montages", help="comma list, e.g. 19,64")
    p.add_argument("--metrics", help="comma list, e.g. COH,PLV")
    p.add_argument("--bands", help="comma list of names or name=lo-hi")

    p = sub.add_parser("normative", help="analyze stored cross-spectrum files")
    p.add_argument("--input", required=True, help="glob of cross-spectrum CSV files")
    p.add_argument("--bands", default="delta,theta,alpha,beta",
                   help="comma list of names or name=lo-hi")
    p.add_argument("--out", type=Path, default=Path("results"))
    p.add_argument("--bins", type=int, default=defaults.n_bins)

    p = sub.add_parser("gen-sources", help="generate a synthetic source library")
    p.add_argument("--n", type=int, default=defaults.n_active, help="number of source rows")
    p.add_argument("--samples", type=int, default=defaults.n_samples)
    p.add_argument("--fs", type=float, default=defaults.fs)
    p.add_argument("--alpha-hz", type=float, default=defaults.alpha_hz)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True, help="output CSV path")

    p = sub.add_parser("gen-leadfield", help="generate a synthetic lead field")
    p.add_argument("--montage", default="std19",
                   help="std19 | egi32 | egi64 | egi128 or channel count")
    p.add_argument("--n-sources", type=int, default=defaults.n_sources)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True, help="output CSV path")

    p = sub.add_parser("summarize",
                       help="distribution statistics of a stored connectivity matrix")
    p.add_argument("--input", type=Path, required=True, help="matrix CSV path")
    p.add_argument("--bins", type=int, default=defaults.n_bins)
    return parser


def _tokens(spec: str) -> list[str]:
    """The non-empty, stripped items of a comma list."""
    return [tok.strip() for tok in spec.split(",") if tok.strip()]


def _cmd_simulate(args) -> int:
    raw = {}
    if args.config is not None:
        with open(args.config) as f:
            raw = json.load(f)
        if not isinstance(raw, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
    for key, value in (("master_seed", args.seed), ("trials", args.trials)):
        if value is not None:
            raw[key] = value
    for key in ("montages", "metrics", "bands"):
        if getattr(args, key):
            raw[key] = _tokens(getattr(args, key))
    result = pipeline.run_simulation_experiment(pipeline.config_from_dict(raw),
                                                jobs=max(args.jobs, 1))
    written = pipeline.write_results(result, args.out)
    print(f"wrote {len(written)} files to {args.out}")
    return EXIT_OK


def _cmd_normative(args) -> int:
    paths = sorted(glob.glob(args.input))
    if not paths:
        print(f"no files match {args.input!r}", file=sys.stderr)
        return EXIT_DATA
    bands = tuple(map(pipeline.band_from_spec, _tokens(args.bands)))
    result = pipeline.run_normative_analysis(paths, bands, args.bins)
    written = pipeline.write_results(result, args.out)
    print(f"analyzed {result.config['subjects_used']} subject(s); "
          f"wrote {len(written)} files to {args.out}")
    return EXIT_OK


def _cmd_gen_sources(args) -> int:
    lib = forward.generate_synthetic_sources(
        args.n, args.samples, args.fs, args.alpha_hz, args.seed
    )
    matrix_io.write_source_library(args.out, lib)
    print(f"wrote {lib.n_library} x {lib.n_samples} source library to {args.out}")
    return EXIT_OK


def _cmd_gen_leadfield(args) -> int:
    montage = int(args.montage) if args.montage.isdigit() else args.montage
    lf = forward.generate_synthetic_leadfield(montage, args.n_sources, args.seed)
    matrix_io.write_leadfield(args.out, lf)
    print(f"wrote {lf.n_channels} x {lf.n_sources} lead field to {args.out}")
    return EXIT_OK


def _cmd_summarize(args) -> int:
    data, _meta = matrix_io.read_matrix(args.input)
    summary = weight_stats.summarize(
        weight_stats.upper_triangle_weights(data), args.bins
    )
    print(json.dumps(asdict(summary), indent=2))
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "normative": _cmd_normative,
    "gen-sources": _cmd_gen_sources,
    "gen-leadfield": _cmd_gen_leadfield,
    "summarize": _cmd_summarize,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ExperimentFailed as err:
        print(f"experiment failed: {err}", file=sys.stderr)
        return EXIT_EXPERIMENT
    except (FcdistError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
