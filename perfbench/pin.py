"""Record the pinned outputs the benchmark checks its runs against.

    python3 perfbench/pin.py --seeds 1-10

For each seed this draws ``PAIR_CATALOGUE_PER_SEED`` census pairs of the
pair-200 size into the catalogue pair-200 runs choose their inputs from,
pinning each one's decision ledger hash once the repository's python
reference scoring path has decided it identically.  It also pins the
in-RAM decision ledger hash of each country of the country-sharded pool
(which the sharded driver must match), the from-scratch analysis ledger
hash of every series-arrival state, and the served graph_version of
service-query, and merges all of it into ``perfbench/pins.json``.
Re-pin only when a change is meant to alter linkage decisions, and say
so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from common import WORK_ROOT, require_program  # noqa: E402


def seeds_of(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 7")
    args = parser.parse_args(argv)
    require_program()
    from repro.checkpoint import decision_ledger_hash
    from repro.core.config import LinkageConfig
    from repro.core.pipeline import link_datasets

    pins = run.load_pins()
    for seed in seeds_of(args.seeds):
        workdir = WORK_ROOT / f"pin-{seed}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            for index in range(run.PAIR_CATALOGUE_PER_SEED):
                member, (old, new) = run.draw_pair(seed, index)
                pinned = decision_ledger_hash(
                    link_datasets(old, new, LinkageConfig())
                )
                reference = decision_ledger_hash(link_datasets(
                    old, new, LinkageConfig(scoring_backend="python")
                ))
                if pinned != reference:
                    raise SystemExit(
                        f"pair-200 population {member}: the default path "
                        f"decides {pinned[:12]}, the python reference "
                        f"{reference[:12]}; refusing to pin"
                    )
                pins.setdefault("pair-200", {})[str(member)] = pinned
            for country in run.country_fixtures(seed, workdir)["countries"]:
                pins.setdefault("country-sharded", {})[
                    str(country["country_seed"])
                ] = run.country_oracle(country["country"])
            pins.setdefault("series-arrival", {})[str(seed)] = (
                run.series_oracle(run.series_fixtures(seed, workdir))
            )
            pins.setdefault("service-query", {})[str(seed)] = (
                run.service_fixtures(seed, workdir)[1]
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"pinned seed {seed}", flush=True)
    with open(run.PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
