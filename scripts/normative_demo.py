#!/usr/bin/env python3
"""End-to-end demo of the stored-cross-spectrum analysis mode.

Simulates a handful of 19-channel scalp records (the trials of the
desk-scale grid's 19-channel cells), writes their Bartlett cross-spectra
in the interchange format, then runs the normative analysis over the files
and prints the per-band medians.

    python scripts/normative_demo.py --subjects 8 --out results/normative_demo
"""

import argparse
import json
import sys
import warnings
from pathlib import Path

from fcdist import matrix_io
from fcdist.errors import FewSegmentsWarning
from fcdist.pipeline import cell_record, desk_scale_config, run_normative_analysis, write_results
from fcdist.spectral import DEFAULT_BANDS, bartlett_cross_spectrum


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--subjects", type=int, default=8)
    parser.add_argument("--out", default="results/normative_demo")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = Path(args.out)
    spectra_dir = out / "spectra"
    spectra_dir.mkdir(parents=True, exist_ok=True)

    cfg = desk_scale_config((19,), trials=args.subjects, master_seed=args.seed)
    for subject in range(args.subjects):
        rec = cell_record(cfg, 19, subject)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FewSegmentsWarning)
            cs = bartlett_cross_spectrum(rec, cfg.segment_samples)
        matrix_io.write_cross_spectrum(
            spectra_dir / f"subject{subject:03d}.csv", cs, list(rec.channel_names)
        )
    print(f"wrote {args.subjects} cross-spectrum files to {spectra_dir}")

    result = run_normative_analysis(
        sorted(spectra_dir.glob("subject*.csv")), bands=DEFAULT_BANDS
    )
    write_results(result, out)
    summary = json.loads((out / "summary.json").read_text())
    for key, agg in summary["aggregates"].items():
        print(f"{key}: median MCW {agg['median_mcw']:.3f}, "
              f"median SE {agg['median_entropy']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
