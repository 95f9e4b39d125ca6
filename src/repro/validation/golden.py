"""Golden-run regression fixtures: canonical JSON of seeded runs.

A *golden* pins the complete observable outcome of one seeded
end-to-end run — datagen seed + configuration fingerprint → record and
group mappings, per-iteration statistics and evaluation metrics — as a
canonical, sorted JSON document.  Committed goldens turn "the refactor
did not change behaviour" from a hope into a diff: any drift in
mappings, round structure or quality shows up as a named field change.

Canonical form rules:

* every mapping is serialized through the sorted
  :meth:`~repro.model.mappings.RecordMapping.as_jsonable` order;
* keys are sorted, floats rounded to :data:`FLOAT_DIGITS` digits;
* wall-clock fields (``seconds``) are excluded — goldens must be stable
  across machines and Python versions.

``repro golden --record`` / ``--check`` (see :mod:`repro.cli`) and the
tier-1 replay test (``tests/test_validation_golden.py``, refreshable via
``pytest --update-goldens``) both run over :data:`DEFAULT_SPECS`.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.config import OMEGA1, LinkageConfig
from ..core.pipeline import LinkageResult, link_datasets
from ..datagen.generator import generate_pair
from ..evaluation.metrics import evaluate_mapping
from ..ioutil import atomic_write_text

PathLike = Union[str, Path]

#: Golden document schema version (bump on incompatible layout changes).
#: Schema 2 dropped ``pairs_scored`` / ``cache_hits`` / ``cache_misses``
#: from the per-iteration statistics: those are *effort* diagnostics that
#: legitimately change with the candidate-pruning engine (and any future
#: caching strategy), while a golden pins the observable *outcome*.
SCHEMA_VERSION = 2

#: Decimal digits kept for floats in canonical JSON.
FLOAT_DIGITS = 10

#: Default location of the committed fixtures, relative to the repo root.
DEFAULT_GOLDEN_DIR = Path("tests") / "goldens"


@dataclass(frozen=True)
class GoldenSpec:
    """One pinned run: a datagen seed, workload size and config overrides.

    ``resume_at_round`` (optional) turns the spec into a *resumed* run:
    the pipeline is killed right after checkpointing that δ round (via
    the crash-injection store of :mod:`repro.checkpoint.faults`) and
    then resumed from the checkpoint directory.  Such a spec pins the
    checkpoint subsystem's core guarantee — its fixture must be
    result-identical to the uninterrupted spec with the same seed,
    workload and configuration.

    ``incremental_snapshots`` (optional) turns the spec into a rolling
    *series* run: the seeded series has that many snapshots, the first
    ``n - 1`` are analysed into a fresh series-state directory, and then
    the full series is re-analysed against the warm store — the final
    snapshot *arrives incrementally*.  The fixture pins the analysis
    ledger (decisions only, :func:`repro.checkpoint.analysis_ledger`)
    instead of a single pair result.
    """

    name: str
    seed: int
    households: int
    config_overrides: Tuple[Tuple[str, object], ...] = ()
    resume_at_round: Optional[int] = None
    incremental_snapshots: Optional[int] = None

    def build_config(self) -> LinkageConfig:
        overrides = dict(self.config_overrides)
        weights = overrides.pop("weights", None)
        if weights is not None:
            # JSON round-trips weight specs as lists; normalise to tuples.
            overrides["weights"] = tuple(
                (attr, comparator, float(weight))
                for attr, comparator, weight in weights
            )
        return LinkageConfig(**overrides)

    def generate(self):
        """The seeded series (pair, or ``incremental_snapshots`` long)."""
        if self.incremental_snapshots is not None:
            from ..datagen.generator import GeneratorConfig, generate_series

            return generate_series(GeneratorConfig(
                seed=self.seed,
                num_snapshots=self.incremental_snapshots,
                initial_households=self.households,
            ))
        return generate_pair(seed=self.seed, initial_households=self.households)


#: Two seeds × two configurations: the paper's default (ω2, connected
#: components) and a contrasting variant (ω1 weights, center clustering).
_VARIANT = (
    ("weights", tuple((a, c, w) for a, c, w in OMEGA1)),
    ("clustering", "center"),
)
DEFAULT_SPECS: Tuple[GoldenSpec, ...] = (
    GoldenSpec("seed7-default", seed=7, households=30),
    GoldenSpec("seed7-omega1-center", seed=7, households=30,
               config_overrides=_VARIANT),
    # Same workload as seed7-default with the candidate-pruning engine
    # off: its "result" section must stay identical to the default's —
    # the committed proof that filtering is lossless.
    GoldenSpec("seed7-no-filtering", seed=7, households=30,
               config_overrides=(("filtering", False),)),
    # Lazy-invalidation selection (trim + re-score + requeue stale queue
    # entries, §3.4) changes results by design; this spec pins exactly
    # what it produces so drift in the requeue engine is a named diff.
    # 100 households + singleton subgraphs is the smallest seeded
    # workload where stale entries genuinely survive trimming and win
    # after a requeue (the run's mapping differs from the reject policy).
    GoldenSpec("seed7-requeue", seed=7, households=100,
               config_overrides=(("selection_requeue", True),
                                 ("allow_singleton_subgraphs", True))),
    GoldenSpec("seed20170321-default", seed=20170321, households=30),
    GoldenSpec("seed20170321-omega1-center", seed=20170321, households=30,
               config_overrides=_VARIANT),
    # Same workload and configuration as seed7-default, but the run is
    # killed after checkpointing round 2 and resumed: the committed
    # proof that resume is deterministic.  The "result" section (and
    # the config fingerprint) must stay identical to seed7-default's —
    # tests/test_validation_golden.py asserts the cross-fixture hash.
    GoldenSpec("seed7-resumed-round2", seed=7, households=30,
               resume_at_round=2),
    # Alternative group-matching backends (repro.core.backends) produce
    # different results by design; these specs pin each backend's full
    # outcome on the seed7-default workload so drift in either engine is
    # a named, reviewable diff — refreshable via --update-goldens like
    # every other fixture.
    GoldenSpec("seed7-rgl", seed=7, households=30,
               config_overrides=(("group_backend", "rgl"),)),
    GoldenSpec("seed7-hausdorff", seed=7, households=30,
               config_overrides=(("group_backend", "hausdorff"),)),
    # A rolling 3-snapshot series where the third snapshot arrives
    # against a warm series-state store (repro.checkpoint.series): the
    # committed proof that incremental re-linkage pins the exact
    # decisions of a from-scratch analysis — the fixture's ledger hash
    # is, by the incremental_vs_scratch equivalence, the hash a cold
    # run produces too.
    GoldenSpec("seed7-incremental-append", seed=7, households=30,
               incremental_snapshots=3),
)


# -- canonical serialization -------------------------------------------------


def _rounded(value):
    """Recursively round floats and sort-normalise containers."""
    if isinstance(value, float):
        return round(value, FLOAT_DIGITS)
    if isinstance(value, dict):
        return {str(key): _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def canonical_json(document: Mapping) -> str:
    """Sorted-key, float-rounded JSON with a trailing newline."""
    return json.dumps(_rounded(document), sort_keys=True, indent=2) + "\n"


def config_jsonable(config: LinkageConfig) -> Dict[str, object]:
    """A JSON-safe snapshot of every config field (for fingerprinting)."""
    return config.as_jsonable()


def config_fingerprint(config: LinkageConfig) -> str:
    """Short stable hash of the full configuration.

    Delegates to :meth:`LinkageConfig.fingerprint` — goldens and the
    checkpoint subsystem must agree on what "the same configuration"
    means, so there is exactly one fingerprint definition.
    """
    return config.fingerprint()


def result_jsonable(
    result: LinkageResult, reference=None
) -> Dict[str, object]:
    """The golden-relevant, machine-independent view of a result.

    ``reference`` (optional ground-truth record mapping) adds evaluation
    metrics.  Timers and profile internals are omitted on
    purpose: a golden must not change when only the machine does.
    """
    document: Dict[str, object] = {
        "record_mapping": result.record_mapping.as_jsonable(),
        "group_mapping": result.group_mapping.as_jsonable(),
        "num_record_links": result.num_record_links,
        "num_group_links": result.num_group_links,
        "subgraph_record_links": result.subgraph_record_links,
        "remaining_record_links": result.remaining_record_links,
        "iterations": [
            {
                "iteration": stats.iteration,
                "delta": stats.delta,
                "candidate_subgraphs": stats.candidate_subgraphs,
                "accepted_group_links": stats.accepted_group_links,
                "new_record_links": stats.new_record_links,
                "remaining_old": stats.remaining_old,
                "remaining_new": stats.remaining_new,
            }
            for stats in result.iterations
        ],
    }
    if reference is not None:
        quality = evaluate_mapping(result.record_mapping, reference)
        document["evaluation"] = {
            "true_positives": quality.true_positives,
            "false_positives": quality.false_positives,
            "false_negatives": quality.false_negatives,
            "precision": quality.precision,
            "recall": quality.recall,
            "f_measure": quality.f_measure,
        }
    return document


def analysis_jsonable(analysis) -> Dict[str, object]:
    """The golden-relevant view of an :class:`EvolutionAnalysis`.

    Pins the decisions-only analysis ledger (every per-pair mapping and
    pattern, no effort counters — see
    :func:`repro.checkpoint.analysis_ledger`) plus its hash and the
    per-pair pattern frequency table, so series goldens are stable
    across machines and warm-vs-cold series state.
    """
    from ..checkpoint import analysis_ledger, analysis_ledger_hash

    return {
        "ledger": analysis_ledger(analysis),
        "ledger_hash": analysis_ledger_hash(analysis),
        "pattern_frequency": {
            f"{old_year}-{new_year}": dict(sorted(counts.items()))
            for (old_year, new_year), counts in sorted(
                analysis.pattern_frequency_table().items()
            )
        },
    }


# -- record / check / diff ---------------------------------------------------


def _run_resumed(
    old_dataset, new_dataset, config: LinkageConfig, crash_after_round: int
) -> LinkageResult:
    """Run, crash right after checkpointing ``crash_after_round``, resume."""
    from ..checkpoint.faults import CrashingStore, SimulatedCrash

    with tempfile.TemporaryDirectory(prefix="golden-ckpt-") as tmp:
        store = CrashingStore(tmp, crash_after_round=crash_after_round)
        try:
            link_datasets(
                old_dataset, new_dataset, config, checkpoint_dir=store
            )
        except SimulatedCrash:
            pass
        else:
            raise RuntimeError(
                f"golden resume spec never reached round "
                f"{crash_after_round}; nothing was interrupted"
            )
        return link_datasets(
            old_dataset, new_dataset, config, checkpoint_dir=tmp, resume=True
        )


def _run_incremental_append(datasets, config: LinkageConfig):
    """Warm a series store on all but the last snapshot, then let the
    last snapshot arrive against it."""
    from ..evolution.analysis import analyse_series

    with tempfile.TemporaryDirectory(prefix="golden-series-") as tmp:
        analyse_series(datasets[:-1], config=config, series_state=tmp)
        return analyse_series(datasets, config=config, series_state=tmp)


def run_golden(spec: GoldenSpec) -> Dict[str, object]:
    """Execute a spec's seeded run and build its golden document."""
    series = spec.generate()
    config = spec.build_config()
    if spec.incremental_snapshots is not None:
        analysis = _run_incremental_append(list(series.datasets), config)
        return {
            "schema": SCHEMA_VERSION,
            "name": spec.name,
            "seed": spec.seed,
            "households": spec.households,
            "config_overrides": [list(item) for item in spec.config_overrides],
            "incremental_snapshots": spec.incremental_snapshots,
            "config_fingerprint": config_fingerprint(config),
            "analysis": analysis_jsonable(analysis),
        }
    old_dataset, new_dataset = series.datasets
    if spec.resume_at_round is not None:
        result = _run_resumed(
            old_dataset, new_dataset, config, spec.resume_at_round
        )
    else:
        result = link_datasets(old_dataset, new_dataset, config)
    reference = series.ground_truth.record_mapping(
        old_dataset.year, new_dataset.year
    )
    return {
        "schema": SCHEMA_VERSION,
        "name": spec.name,
        "seed": spec.seed,
        "households": spec.households,
        "config_overrides": [list(item) for item in spec.config_overrides],
        "resume_at_round": spec.resume_at_round,
        "config_fingerprint": config_fingerprint(config),
        "result": result_jsonable(result, reference=reference),
    }


def golden_path(directory: PathLike, spec: GoldenSpec) -> Path:
    return Path(directory) / f"{spec.name}.json"


def record_golden(spec: GoldenSpec, directory: PathLike) -> Path:
    """Run the spec and (over)write its committed fixture.

    Written through the shared :func:`repro.ioutil.atomic_write_text`
    helper (same discipline as checkpoints): an interrupted recording
    never leaves a truncated fixture behind.
    """
    return atomic_write_text(
        golden_path(directory, spec), canonical_json(run_golden(spec))
    )


def load_golden(path: PathLike) -> Dict[str, object]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


@dataclass
class GoldenCheck:
    """Outcome of replaying one golden spec against its fixture."""

    name: str
    ok: bool
    diff: List[str]
    path: Path

    def report(self) -> str:
        if self.ok:
            return f"golden {self.name}: ok"
        lines = [f"golden {self.name}: MISMATCH against {self.path}"]
        lines.extend(f"  {line}" for line in self.diff)
        return "\n".join(lines)


def _diff_pair_lists(
    label: str, expected: List, actual: List, lines: List[str]
) -> None:
    expected_set = {tuple(pair) for pair in expected}
    actual_set = {tuple(pair) for pair in actual}
    for old_id, new_id in sorted(expected_set - actual_set):
        lines.append(f"{label}: missing pair {old_id}->{new_id}")
    for old_id, new_id in sorted(actual_set - expected_set):
        lines.append(f"{label}: unexpected pair {old_id}->{new_id}")


def diff_documents(
    expected: Mapping, actual: Mapping, limit: int = 40
) -> List[str]:
    """Human-readable field-level differences between two golden docs."""
    lines: List[str] = []
    truncated = [False]
    expected = _rounded(dict(expected))
    actual = _rounded(dict(actual))

    def walk(prefix: str, left, right) -> None:
        if len(lines) >= limit:
            truncated[0] = True
            return
        if isinstance(left, dict) and isinstance(right, dict):
            for key in sorted(set(left) | set(right)):
                path = f"{prefix}.{key}" if prefix else str(key)
                if key not in left:
                    lines.append(f"{path}: only in actual ({right[key]!r})")
                elif key not in right:
                    lines.append(f"{path}: only in expected ({left[key]!r})")
                else:
                    walk(path, left[key], right[key])
            return
        if (
            isinstance(left, list)
            and isinstance(right, list)
            and prefix.endswith("_mapping")
        ):
            _diff_pair_lists(prefix, left, right, lines)
            return
        if left != right:
            lines.append(f"{prefix}: expected {left!r}, got {right!r}")

    walk("", expected, actual)
    if len(lines) > limit or truncated[0]:
        overflow = len(lines) - limit
        del lines[limit:]
        suffix = f"{overflow} more" if overflow > 0 else "more"
        lines.append(f"... {suffix} difference(s)")
    return lines


def check_golden(spec: GoldenSpec, directory: PathLike) -> GoldenCheck:
    """Replay a spec and compare it against the committed fixture."""
    path = golden_path(directory, spec)
    if not path.exists():
        return GoldenCheck(
            name=spec.name,
            ok=False,
            diff=[f"fixture missing: {path} (run `repro golden --record`)"],
            path=path,
        )
    expected = load_golden(path)
    actual = run_golden(spec)
    diff = diff_documents(expected, actual)
    return GoldenCheck(name=spec.name, ok=not diff, diff=diff, path=path)


def specs_by_name(names: Optional[Sequence[str]] = None) -> List[GoldenSpec]:
    """Resolve a name subset (or all defaults when ``names`` is empty)."""
    if not names:
        return list(DEFAULT_SPECS)
    by_name = {spec.name: spec for spec in DEFAULT_SPECS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise KeyError(
            f"unknown golden spec(s) {unknown}; available: {sorted(by_name)}"
        )
    return [by_name[name] for name in names]
