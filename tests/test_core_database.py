"""Tests for the training database."""

import numpy as np
import pytest

from repro.core.database import TrainingDatabase, TrainingRecord
from repro.partitioning import Partitioning


def _record(machine="mc1", program="p1", size=64, best="100/0/0", t_best=1.0):
    timings = {"100/0/0": t_best, "0/100/0": t_best * 2, "0/50/50": t_best * 3}
    timings[best] = t_best
    return TrainingRecord.from_timings(
        machine=machine,
        program=program,
        size=size,
        features={"st_x": 1.0, "rt_y": float(size)},
        timings=timings,
    )


class TestTrainingRecord:
    def test_best_derived_from_sweep(self):
        r = _record()
        assert r.best_label == "100/0/0"
        assert r.best_time == 1.0
        assert r.best_partitioning == Partitioning((100, 0, 0))

    def test_time_of(self):
        r = _record()
        assert r.time_of(Partitioning((0, 100, 0))) == 2.0

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            TrainingRecord.from_timings("m", "p", 1, {}, {})

    def test_inconsistent_best_rejected(self):
        with pytest.raises(ValueError):
            TrainingRecord("m", "p", 1, {}, {"100/0/0": 1.0}, best_label="0/100/0")


class TestDatabaseQueries:
    def _db(self):
        db = TrainingDatabase()
        for m in ("mc1", "mc2"):
            for p in ("p1", "p2", "p3"):
                for s in (64, 256):
                    db.add(_record(machine=m, program=p, size=s))
        return db

    def test_len_and_iter(self):
        db = self._db()
        assert len(db) == 12
        assert len(list(db)) == 12

    def test_machines_and_programs(self):
        db = self._db()
        assert db.machines() == ("mc1", "mc2")
        assert db.programs() == ("p1", "p2", "p3")

    def test_for_machine(self):
        db = self._db().for_machine("mc1")
        assert len(db) == 6
        assert all(r.machine == "mc1" for r in db)

    def test_excluding_program_lopo(self):
        db = self._db().excluding_program("p2")
        assert "p2" not in db.programs()
        assert len(db) == 8

    def test_matrices_shapes(self):
        db = self._db()
        X, y, groups = db.matrices()
        assert X.shape == (12, 2)
        assert y.shape == (12,)
        assert len(groups) == 12

    def test_matrices_on_empty_rejected(self):
        with pytest.raises(ValueError):
            TrainingDatabase().matrices()

    def test_inconsistent_features_rejected(self):
        db = TrainingDatabase([_record()])
        bad = TrainingRecord.from_timings(
            "mc1", "p9", 1, {"other": 1.0}, {"100/0/0": 1.0}
        )
        db.add(bad)
        with pytest.raises(ValueError):
            db.feature_names()


class TestOnlineAppend:
    def test_record_for_finds_exact_key(self):
        db = TrainingDatabase([_record(program="p1", size=64)])
        assert db.record_for("mc1", "p1", 64) is not None
        assert db.record_for("mc1", "p1", 128) is None
        assert db.record_for("mc2", "p1", 64) is None

    def test_upsert_appends_new_key(self):
        db = TrainingDatabase([_record(program="p1")])
        replaced = db.upsert(_record(program="p2"))
        assert not replaced
        assert len(db) == 2

    def test_upsert_replaces_existing_key(self):
        db = TrainingDatabase([_record(program="p1", t_best=1.0)])
        replaced = db.upsert(_record(program="p1", t_best=0.5))
        assert replaced
        assert len(db) == 1
        assert db.record_for("mc1", "p1", 64).best_time == 0.5

    def test_merge_timings_creates_record(self):
        db = TrainingDatabase()
        record = db.merge_timings(
            "mc1", "new", 32, {"st_x": 1.0, "rt_y": 32.0}, {"100/0/0": 2.0}
        )
        assert len(db) == 1
        assert record.best_label == "100/0/0"

    def test_merge_timings_grows_sweep_and_rederives_best(self):
        db = TrainingDatabase()
        feats = {"st_x": 1.0, "rt_y": 32.0}
        db.merge_timings("mc1", "new", 32, feats, {"100/0/0": 2.0})
        record = db.merge_timings("mc1", "new", 32, feats, {"0/50/50": 1.0})
        assert len(db) == 1  # merged into the same key
        assert record.timings == {"100/0/0": 2.0, "0/50/50": 1.0}
        assert record.best_label == "0/50/50"

    def test_merge_timings_empty_rejected(self):
        with pytest.raises(ValueError):
            TrainingDatabase().merge_timings("m", "p", 1, {}, {})

    def test_consistent_sweeps_drops_partial_records(self):
        db = TrainingDatabase([_record(program="p1"), _record(program="p2")])
        db.merge_timings(
            "mc1", "online", 16, {"st_x": 1.0, "rt_y": 16.0}, {"100/0/0": 1.0}
        )
        full = db.consistent_sweeps()
        assert len(full) == 2
        assert "online" not in full.programs()

    def test_consistent_sweeps_prefers_widest_over_most_numerous(self):
        # Partial online records outnumbering the full training sweeps
        # must not shrink the candidate space.
        db = TrainingDatabase([_record(program="p1")])
        for i in range(5):
            db.merge_timings(
                "mc1", f"online{i}", 16, {"st_x": 1.0, "rt_y": 16.0}, {"100/0/0": 1.0}
            )
        full = db.consistent_sweeps()
        assert full.programs() == ("p1",)

    def test_consistent_sweeps_empty_database(self):
        assert len(TrainingDatabase().consistent_sweeps()) == 0

    def test_record_for_sees_direct_appends(self):
        # The lazy key index must notice records added behind its back.
        db = TrainingDatabase()
        assert db.record_for("mc1", "p1", 64) is None
        db.records.append(_record(program="p1"))
        assert db.record_for("mc1", "p1", 64) is not None


class TestMergeTimingsNoop:
    FEATS = {"st_x": 1.0, "rt_y": 32.0}

    def _db(self):
        db = TrainingDatabase()
        db.merge_timings(
            "mc1",
            "p",
            32,
            dict(self.FEATS),
            {"100/0/0": 2.0, "0/50/50": 1.0},
            energies={"100/0/0": 20.0, "0/50/50": 15.0},
        )
        return db

    def test_identical_merge_returns_the_same_record(self):
        db = self._db()
        before = db.record_for("mc1", "p", 32)
        records = list(db.records)
        merged = db.merge_timings(
            "mc1",
            "p",
            32,
            dict(self.FEATS),
            {"0/50/50": 1.0},
            energies={"0/50/50": 15.0},
        )
        assert merged is before
        assert db.records == records
        assert all(a is b for a, b in zip(db.records, records))

    def test_timings_only_merge_of_held_values_is_a_noop(self):
        db = self._db()
        before = db.record_for("mc1", "p", 32)
        assert db.merge_timings("mc1", "p", 32, self.FEATS, {"100/0/0": 2.0}) is before

    def test_slower_best_rederives_best_label(self):
        # Drift: the current best label measures slower than the runner-up.
        db = self._db()
        record = db.merge_timings("mc1", "p", 32, self.FEATS, {"0/50/50": 3.0})
        assert record is db.record_for("mc1", "p", 32)
        assert record.best_label == "100/0/0"
        assert record.timings == {"100/0/0": 2.0, "0/50/50": 3.0}

    def test_equal_timings_keep_first_inserted_tie_order(self):
        db = TrainingDatabase()
        db.merge_timings("mc1", "p", 32, self.FEATS, {"0/50/50": 1.0})
        record = db.merge_timings("mc1", "p", 32, self.FEATS, {"100/0/0": 1.0})
        assert record.best_label == "0/50/50"
        # A no-op re-merge of the later-inserted tie changes nothing.
        again = db.merge_timings("mc1", "p", 32, self.FEATS, {"100/0/0": 1.0})
        assert again is record
        assert again.best_label == "0/50/50"

    def test_energies_only_change_rebuilds(self):
        db = self._db()
        before = db.record_for("mc1", "p", 32)
        record = db.merge_timings(
            "mc1",
            "p",
            32,
            self.FEATS,
            {"0/50/50": 1.0},
            energies={"0/50/50": 14.0},
        )
        assert record is not before
        assert record.timings == before.timings
        assert record.energies == {"100/0/0": 20.0, "0/50/50": 14.0}
        assert db.record_for("mc1", "p", 32) is record

    def test_new_energy_label_rebuilds(self):
        db = TrainingDatabase()
        db.merge_timings("mc1", "p", 32, self.FEATS, {"100/0/0": 2.0})
        record = db.merge_timings(
            "mc1", "p", 32, self.FEATS, {"100/0/0": 2.0}, energies={"100/0/0": 9.0}
        )
        assert record.energies == {"100/0/0": 9.0}

    def test_features_change_rebuilds(self):
        db = self._db()
        before = db.record_for("mc1", "p", 32)
        feats = dict(self.FEATS, rt_y=64.0)
        record = db.merge_timings("mc1", "p", 32, feats, {"0/50/50": 1.0})
        assert record is not before
        assert record.features == feats
        assert db.record_for("mc1", "p", 32) is record

    def test_noop_merge_does_not_alias_caller_features(self):
        db = TrainingDatabase()
        feats = dict(self.FEATS)
        record = db.merge_timings("mc1", "p", 32, feats, {"100/0/0": 2.0})
        db.merge_timings("mc1", "p", 32, feats, {"100/0/0": 2.0})
        feats["st_x"] = 99.0
        assert record.features == self.FEATS


class TestPersistence:
    def test_round_trip(self, tmp_path):
        db = TrainingDatabase([_record(), _record(program="p2", size=128)])
        path = tmp_path / "db.json"
        db.save(path)
        loaded = TrainingDatabase.load(path)
        assert len(loaded) == 2
        assert loaded.records[0] == db.records[0]
        X1, y1, _ = db.matrices()
        X2, y2, _ = loaded.matrices()
        assert np.array_equal(X1, X2)
        assert list(y1) == list(y2)

    def test_online_appends_round_trip(self, tmp_path):
        """Records appended by the serving loop survive JSON persistence."""
        db = TrainingDatabase([_record()])
        feats = {"st_x": 2.0, "rt_y": 32.0}
        db.merge_timings("mc1", "online", 32, feats, {"100/0/0": 3.0})
        db.merge_timings("mc1", "online", 32, feats, {"0/100/0": 1.5, "0/50/50": 2.5})
        path = tmp_path / "db.json"
        db.save(path)
        loaded = TrainingDatabase.load(path)
        assert len(loaded) == 2
        record = loaded.record_for("mc1", "online", 32)
        assert record == db.record_for("mc1", "online", 32)
        assert record.best_label == "0/100/0"
        assert record.timings == {"100/0/0": 3.0, "0/100/0": 1.5, "0/50/50": 2.5}

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "db.json"
        TrainingDatabase([_record()]).save(path)
        doc = path.read_text().replace('"schema_version": 1', '"schema_version": 99')
        path.write_text(doc)
        with pytest.raises(ValueError, match="schema"):
            TrainingDatabase.load(path)
