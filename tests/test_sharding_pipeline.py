"""Tests for the sharded out-of-core linkage driver
(:mod:`repro.sharding.planner` / :mod:`repro.sharding.pipeline`).

The identity contract under test: a sharded run makes **exactly** the
decisions of the in-RAM run — same mappings, same per-round ledgers
(:func:`repro.checkpoint.decision_ledger_hash`) — for any shard count,
either record-source backing, and across any mid-round crash/resume
boundary.
"""

import dataclasses
import shutil

import pytest

from repro.blocking import RegionBlocker, StandardBlocker
from repro.checkpoint import CheckpointMismatch, decision_ledger_hash
from repro.checkpoint.shard import ShardStateStore
from repro.cli import main
from repro.core.config import LinkageConfig
from repro.core.pipeline import link_datasets
from repro.datagen import generate_pair
from repro.datagen.country import CountryConfig, generate_country
from repro.sharding import (
    ShardStore,
    ShardedRecordSource,
    link_datasets_sharded,
    plan_shards,
)
from repro.validation.differential import sharded_vs_unsharded


@pytest.fixture(scope="module")
def town_pair():
    series = generate_pair(seed=21, initial_households=40)
    return series.successive_pairs()[0]


@pytest.fixture(scope="module")
def country_pair():
    country = generate_country(
        CountryConfig(seed=13, regions=3, households_per_region=18)
    )
    return country.successive_pairs()[0]


class TestPlanner:
    def test_partition_is_exact(self, town_pair):
        old, new = town_pair
        plan = plan_shards(
            old.iter_records(), new.iter_records(), StandardBlocker(), 4
        )
        old_ids = [i for shard in plan.shards for i in shard.old_ids]
        new_ids = [i for shard in plan.shards for i in shard.new_ids]
        assert sorted(old_ids) == sorted(old.record_ids)
        assert sorted(new_ids) == sorted(new.record_ids)
        assert len(set(old_ids)) == len(old_ids)
        assert len(set(new_ids)) == len(new_ids)

    def test_candidate_pairs_never_cross_shards(self, town_pair):
        old, new = town_pair
        blocker = StandardBlocker()
        plan = plan_shards(
            old.iter_records(), new.iter_records(), blocker, 5
        )
        shard_of = {}
        for shard in plan.shards:
            for record_id in shard.old_ids:
                shard_of[("o", record_id)] = shard.index
            for record_id in shard.new_ids:
                shard_of[("n", record_id)] = shard.index
        pairs = blocker.candidate_pairs(
            list(old.iter_records()), list(new.iter_records())
        )
        for old_id, new_id in pairs:
            assert shard_of[("o", old_id)] == shard_of[("n", new_id)]

    def test_households_never_cross_shards(self, town_pair):
        old, new = town_pair
        plan = plan_shards(
            old.iter_records(), new.iter_records(), StandardBlocker(), 5
        )
        for dataset, ids_of in (
            (old, lambda s: s.old_ids), (new, lambda s: s.new_ids)
        ):
            household_shard = {}
            for shard in plan.shards:
                for record_id in ids_of(shard):
                    household = dataset.records[record_id].household_id
                    assert household_shard.setdefault(
                        household, shard.index
                    ) == shard.index

    def test_region_blocking_shards_by_region(self, country_pair):
        old, new = country_pair
        plan = plan_shards(
            old.iter_records(), new.iter_records(), RegionBlocker(), 3
        )
        # Region blocking makes regions independent, so no shard may mix
        # records whose candidate pairs could interact across regions —
        # and with 3 regions over 3 shards each shard holds whole regions.
        for shard in plan.shards:
            assert shard.old_ids or shard.new_ids

    def test_fingerprint_tracks_assignment(self, town_pair):
        old, new = town_pair
        plan_a = plan_shards(
            old.iter_records(), new.iter_records(), StandardBlocker(), 4
        )
        plan_b = plan_shards(
            old.iter_records(), new.iter_records(), StandardBlocker(), 4
        )
        plan_c = plan_shards(
            old.iter_records(), new.iter_records(), StandardBlocker(), 2
        )
        assert plan_a.fingerprint() == plan_b.fingerprint()
        assert plan_a.fingerprint() != plan_c.fingerprint()

    def test_describe_rows(self, town_pair):
        old, new = town_pair
        plan = plan_shards(
            old.iter_records(), new.iter_records(), StandardBlocker(), 2
        )
        rows = plan.describe()
        assert len(rows) == 2
        assert {"shard", "old_records", "new_records", "components",
                "cost"} <= set(rows[0])

    def test_unsupported_blocker_rejected(self, town_pair):
        old, new = town_pair
        config = LinkageConfig(blocking="standard+qgram")
        with pytest.raises(TypeError, match="partition"):
            plan_shards(
                old.iter_records(), new.iter_records(),
                config.build_blocker(), 2,
            )


class TestDecisionIdentity:
    def test_differential_suite(self, town_pair):
        old, new = town_pair
        outcomes = sharded_vs_unsharded(old, new, shards=(1, 4))
        assert [outcome.ok for outcome in outcomes] == [True] * 2

    def test_region_blocked_country(self, country_pair):
        old, new = country_pair
        config = LinkageConfig(blocking="region")
        base = link_datasets(old, new, config)
        sharded = link_datasets(
            old, new, dataclasses.replace(config, shards=3)
        )
        assert decision_ledger_hash(sharded) == decision_ledger_hash(base)

    def test_store_backed_source(self, tmp_path, country_pair):
        old, new = country_pair
        store = ShardStore(tmp_path / "store")
        store.write_datasets([old, new])
        config = LinkageConfig(blocking="region", shards=3)
        base = link_datasets(
            old, new, dataclasses.replace(config, shards=0)
        )
        result = link_datasets_sharded(
            ShardedRecordSource.from_store(store, old.year),
            ShardedRecordSource.from_store(store, new.year),
            config,
        )
        assert decision_ledger_hash(result) == decision_ledger_hash(base)

    def test_validation_inline(self, town_pair):
        old, new = town_pair
        result = link_datasets(
            old, new, LinkageConfig(shards=3, validate=True)
        )
        assert result.provenance is not None
        assert len(result.provenance) == result.num_record_links

    def test_more_shards_than_components_ok(self, town_pair):
        old, new = town_pair
        base = link_datasets(old, new, LinkageConfig())
        result = link_datasets(old, new, LinkageConfig(shards=500))
        assert decision_ledger_hash(result) == decision_ledger_hash(base)

    def test_cache_seed_and_keep_cache_rejected(self, town_pair):
        old, new = town_pair
        with pytest.raises(ValueError, match="in-RAM"):
            link_datasets(
                old, new, LinkageConfig(shards=2), keep_cache=True
            )


class TestCrashResume:
    """Mid-round shard-boundary recovery: every checkpoint prefix of a
    completed run must resume to the identical decision ledger."""

    @pytest.fixture()
    def completed(self, tmp_path, country_pair):
        old, new = country_pair
        config = LinkageConfig(blocking="region", shards=3)
        ckpt = tmp_path / "ckpt"
        result = link_datasets(old, new, config, checkpoint_dir=ckpt)
        return old, new, config, ckpt, decision_ledger_hash(result)

    def test_resume_from_every_prefix(self, tmp_path, completed):
        old, new, config, ckpt, expected = completed
        names = sorted(
            path.name for path in ckpt.iterdir()
            if path.name != "shard_final.json"
        )
        assert len(names) >= 4  # several shard boundaries to crash at
        for cut in range(1, len(names) + 1):
            trunc = tmp_path / f"cut{cut}"
            trunc.mkdir()
            for name in names[:cut]:
                shutil.copy(ckpt / name, trunc / name)
            resumed = link_datasets(
                old, new, config, checkpoint_dir=trunc, resume=True
            )
            assert decision_ledger_hash(resumed) == expected, (
                f"diverged resuming after {names[cut - 1]}"
            )

    def test_resume_from_final_short_circuits(self, completed):
        old, new, config, ckpt, expected = completed
        resumed = link_datasets(
            old, new, config, checkpoint_dir=ckpt, resume=True
        )
        assert decision_ledger_hash(resumed) == expected

    def test_corrupt_state_skipped(self, tmp_path, completed):
        old, new, config, ckpt, expected = completed
        trunc = tmp_path / "corrupt"
        trunc.mkdir()
        names = sorted(
            path.name for path in ckpt.iterdir()
            if path.name != "shard_final.json"
        )
        for name in names[:2]:
            shutil.copy(ckpt / name, trunc / name)
        (trunc / names[2]).write_text("{torn", encoding="utf-8")
        resumed = link_datasets(
            old, new, config, checkpoint_dir=trunc, resume=True
        )
        assert decision_ledger_hash(resumed) == expected

    def test_config_mismatch_rejected(self, completed):
        old, new, config, ckpt, _ = completed
        changed = dataclasses.replace(config, delta_low=0.55)
        with pytest.raises(CheckpointMismatch, match="configuration"):
            link_datasets(
                old, new, changed, checkpoint_dir=ckpt, resume=True
            )

    def test_plan_mismatch_rejected(self, tmp_path, completed):
        old, new, config, ckpt, _ = completed
        # Drop the final state so resume must re-plan and re-enter.
        trunc = tmp_path / "noplanfinal"
        trunc.mkdir()
        for path in ckpt.iterdir():
            if path.name != "shard_final.json":
                shutil.copy(path, trunc / path.name)
        changed = dataclasses.replace(config, shards=2)
        with pytest.raises(CheckpointMismatch):
            link_datasets(
                old, new, changed, checkpoint_dir=trunc, resume=True
            )

    def test_resume_without_dir_rejected(self, country_pair):
        old, new = country_pair
        with pytest.raises(ValueError, match="checkpoint"):
            link_datasets_sharded(
                old, new, LinkageConfig(shards=2), resume=True
            )

    def test_store_describe(self, completed):
        _, _, _, ckpt, _ = completed
        rows = ShardStateStore(ckpt).describe()
        assert rows and all(row["status"] == "ok" for row in rows)
        assert rows[-1]["phase"] in ("round", "final")


class TestCli:
    @pytest.fixture()
    def store_dir(self, tmp_path):
        code = main([
            "generate", "--out", str(tmp_path / "data"),
            "--seed", "3", "--regions", "2",
            "--households-per-region", "15",
            "--store", str(tmp_path / "store"),
        ])
        assert code == 0
        return tmp_path

    def test_link_from_store(self, store_dir, capsys):
        code = main([
            "link", "--store", str(store_dir / "store"),
            "--shards", "2", "--blocking", "region",
            "--records", str(store_dir / "links.csv"),
        ])
        assert code == 0
        assert "record links" in capsys.readouterr().out
        assert (store_dir / "links.csv").exists()

    def test_store_and_csv_paths_agree(self, store_dir, capsys):
        main([
            "link", "--store", str(store_dir / "store"),
            "--shards", "2", "--blocking", "region",
            "--records", str(store_dir / "from_store.csv"),
        ])
        main([
            "link",
            str(store_dir / "data" / "census_1871.csv"),
            str(store_dir / "data" / "census_1881.csv"),
            "--blocking", "region",
            "--records", str(store_dir / "from_csv.csv"),
        ])
        capsys.readouterr()
        assert (
            (store_dir / "from_store.csv").read_text()
            == (store_dir / "from_csv.csv").read_text()
        )

    def test_store_with_year_selection(self, store_dir, capsys):
        code = main([
            "link", "--store", str(store_dir / "store"),
            "1871", "1881", "--shards", "2", "--blocking", "region",
        ])
        assert code == 0
        assert "record links" in capsys.readouterr().out

    def test_store_rejects_paths(self, store_dir, capsys):
        code = main([
            "link", "--store", str(store_dir / "store"),
            "a.csv", "b.csv",
        ])
        assert code == 2
        assert "years" in capsys.readouterr().err

    def test_shards_with_series_state_rejected(self, store_dir, capsys):
        code = main([
            "link",
            str(store_dir / "data" / "census_1871.csv"),
            str(store_dir / "data" / "census_1881.csv"),
            "--shards", "2", "--series-state", str(store_dir / "state"),
        ])
        assert code == 2
        assert "--shards" in capsys.readouterr().err

    def test_store_with_series_state_rejected(self, store_dir, capsys):
        code = main([
            "link", "--store", str(store_dir / "store"),
            "--series-state", str(store_dir / "state"),
        ])
        assert code == 2
        assert "--series-state" in capsys.readouterr().err
